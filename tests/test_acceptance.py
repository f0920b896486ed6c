"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion pins its stated tolerance and wall-clock budget.
"""

import math
import random
import time
from contextlib import contextmanager

from signedspectra.cycles import cycle_sign, double_cover, shortest_negative_cycle
from signedspectra.enumeration import (
    switching_classes,
    verify_c4free_bounds,
    verify_max_index,
)
from signedspectra.families import (
    extremal_cubic,
    extremal_graph,
    extremal_index_root,
    extremal_partition,
    extremal_quotient_matrix,
    near_extremal_graph,
    near_extremal_partition,
    near_extremal_quotient_matrix,
)
from signedspectra.polynomial import IntPolynomial
from signedspectra.proofmoves import apply_move, candidate_moves
from signedspectra.spectra import (
    char_poly_exact,
    check_quotient_containment,
    index,
    nonneg_eigenvector_form,
    quotient_matrix,
)
from signedspectra.switching import is_balanced, switch, switching_isomorphic

from conftest import (
    brute_shortest_negative_length,
    brute_switching_orbit_count,
    random_fundamental_cycle,
    random_signed_graph,
)


@contextmanager
def criterion(num: int, desc: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        dt = time.perf_counter() - t0
        print(f"ACCEPTANCE {num}: FAIL - {desc} ({dt:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    ok = dt <= budget
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc} ({dt:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} exceeded its runtime budget: {dt:.2f}s > {budget}s"


def test_criterion_1_exact_charpoly_identity():
    x_plus_1 = IntPolynomial([1, 1])
    x_minus_1 = IntPolynomial([-1, 1])
    with criterion(1, "exact charpoly identity for the extremal family, n=5..40", 5.0):
        for n in range(5, 41):
            expected = (x_plus_1 ** (n - 4)) * x_minus_1 * extremal_cubic(n)
            assert char_poly_exact(extremal_graph(n)) == expected, f"n={n}"


def test_criterion_2_root_localization():
    with criterion(2, "extremal index in (n-3, n-2) and matches the cubic root, n=5..40", 5.0):
        for n in range(5, 41):
            lam = index(extremal_graph(n))
            assert n - 3 < lam < n - 2, f"n={n}: {lam}"
            assert abs(lam - extremal_index_root(n)) <= 1e-9, f"n={n}"


def test_criterion_3_family_ordering():
    with criterion(3, "near-extremal index below the extremal one, n=5..40", 5.0):
        for n in range(5, 41):
            lam2 = index(near_extremal_graph(n))
            lam1 = index(extremal_graph(n))
            assert lam2 < lam1, f"n={n}"
            if n >= 7:
                assert lam2 < n - 3, f"n={n}"


def test_criterion_4_quotient_containment():
    with criterion(4, "quotient eigenvalues contained in adjacency spectra, n=5..20", 2.0):
        for n in range(5, 21):
            A = extremal_graph(n).adjacency_matrix()
            Q1 = quotient_matrix(A, extremal_partition(n)).matrix
            assert (Q1 == extremal_quotient_matrix(n)).all()
            assert check_quotient_containment(A, Q1, tol=1e-8), f"n={n}"
            B = near_extremal_graph(n).adjacency_matrix()
            Q2 = quotient_matrix(B, near_extremal_partition(n)).matrix
            assert (Q2 == near_extremal_quotient_matrix(n)).all()
            assert check_quotient_containment(B, Q2, tol=1e-8), f"n={n}"


def test_criterion_5_census_order_5():
    with criterion(5, "exhaustive census at n=5: maximum is sqrt(5), extremal only", 30.0):
        report = verify_max_index(5)
        assert report.verdict
        assert abs(report.max_lambda1 - math.sqrt(5)) <= 1e-9
        assert report.witnesses
        for w in report.witnesses:
            assert switching_isomorphic(w, extremal_graph(5))[0]


def test_criterion_6_census_order_6():
    # independent root oracle: plain float bisection on x^3 - x^2 - 7x + 1
    def cubic(x: float) -> float:
        return x * x * x - x * x - 7.0 * x + 1.0

    lo, hi = 3.0, 4.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if cubic(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 3.1327) < 1e-4

    with criterion(6, "exhaustive census at n=6: maximum is the cubic root", 300.0):
        report = verify_max_index(6)
        assert report.verdict
        assert abs(report.max_lambda1 - root) <= 1e-9
        for w in report.witnesses:
            assert switching_isomorphic(w, extremal_graph(6))[0]


def test_criterion_7_c4free_bounds():
    with criterion(7, "C4-free spectral bounds hold exhaustively, n=4..7", 120.0):
        for n in range(4, 8):
            assert verify_c4free_bounds(n), f"n={n}"


def test_criterion_8_property_suites():
    cases = 10_000
    with criterion(8, f"six randomized property suites, {cases} cases each", 180.0):
        # (a) switching leaves the exact characteristic polynomial unchanged
        rng = random.Random(801)
        for _ in range(cases):
            g = random_signed_graph(rng, rng.randint(1, 7), edge_prob=0.5)
            U = {v for v in range(g.n) if rng.random() < 0.5}
            assert char_poly_exact(g) == char_poly_exact(switch(g, U))

        # (b) switching leaves every cycle sign unchanged
        rng = random.Random(802)
        done = 0
        while done < cases:
            g = random_signed_graph(rng, rng.randint(3, 8), edge_prob=0.6)
            cyc = random_fundamental_cycle(rng, g)
            if cyc is None:
                continue
            U = {v for v in range(g.n) if rng.random() < 0.5}
            assert cycle_sign(g, cyc) == cycle_sign(switch(g, U), cyc)
            done += 1

        # (c) double-cover component doubling is exactly balance
        rng = random.Random(803)
        for _ in range(cases):
            g = random_signed_graph(rng, rng.randint(1, 8), edge_prob=0.5)
            doubled = len(double_cover(g).components()) == 2 * len(g.components())
            assert doubled == is_balanced(g).balanced

        # (d) double-cover shortest negative cycle agrees with brute force
        rng = random.Random(804)
        for _ in range(cases):
            g = random_signed_graph(rng, rng.randint(1, 7), edge_prob=0.45)
            expected = brute_shortest_negative_length(g)
            got = shortest_negative_cycle(g)
            if expected is None:
                assert got is None
            else:
                assert got is not None and got.length == expected
                assert cycle_sign(g, got.vertices) == -1

        # (e) switching-class count is 2^(m-n+1) for connected graphs
        rng = random.Random(805)
        done = 0
        while done < cases:
            g = random_signed_graph(rng, rng.randint(2, 5), edge_prob=0.6)
            if len(g.components()) != 1:
                continue
            assert brute_switching_orbit_count(g) == 2 ** (g.m - g.n + 1)
            assert len(switching_classes(g)) == 2 ** (g.m - g.n + 1)
            done += 1

        # (f) closed-form move deltas and Rayleigh monotonicity
        rng = random.Random(806)
        done = 0
        while done < cases:
            g = random_signed_graph(rng, rng.randint(4, 7), edge_prob=0.5)
            g, rep = nonneg_eigenvector_form(g)
            moves = candidate_moves(g)
            if not moves:
                continue
            mv = moves[rng.randrange(len(moves))]
            result, cert = apply_move(g, mv, host_report=rep)
            A = g.adjacency_matrix().astype(float)
            B = result.adjacency_matrix().astype(float)
            form = float(rep.x @ (B - A) @ rep.x)
            assert abs(cert.rayleigh_delta - form) <= 1e-12
            if cert.rayleigh_delta >= 0:
                assert cert.result_lambda1 >= cert.host_lambda1 - 1e-9
            done += 1
