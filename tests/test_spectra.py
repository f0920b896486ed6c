import math
import random
from fractions import Fraction

import numpy as np
import pytest

from signedspectra import SignedGraph, complete_signed
from signedspectra.families import (
    extremal_graph,
    extremal_partition,
    near_extremal_graph,
    near_extremal_partition,
)
from signedspectra.polynomial import IntPolynomial, compare_largest_real_roots, real_roots
from signedspectra.spectra import (
    VertexPartition,
    c4free_bound_check,
    char_poly_exact,
    char_poly_of_int_matrix,
    check_quotient_containment,
    eigenvalues_sym,
    index,
    nonneg_eigenvector_form,
    quotient_matrix,
    rayleigh,
    root_multiplicity_exact,
    spectral_radius,
)
from signedspectra.switching import switching_equivalent

from conftest import (
    brute_char_poly_values,
    planted_twin_graph,
    random_signed_graph,
    reference_char_poly,
    reference_nonneg_eigenvector_form,
    reference_quotient_matrix,
)

# largest root of x^3 - x^2 - 7x + 1, frozen from 200-step rational bisection
INDEX_EXTREMAL_6 = 3.132637493579839


def test_complete_graph_spectra():
    rep = eigenvalues_sym(complete_signed(4, 1).adjacency_matrix())
    assert rep.eigenvalues == pytest.approx([3, -1, -1, -1], abs=1e-10)
    rep_neg = eigenvalues_sym(complete_signed(4, -1).adjacency_matrix())
    assert rep_neg.eigenvalues == pytest.approx([1, 1, 1, -3], abs=1e-10)
    assert rep_neg.lambda1 == pytest.approx(1.0, abs=1e-10)
    assert spectral_radius(complete_signed(4, -1)) == pytest.approx(3.0, abs=1e-10)


def test_extremal5_spectrum():
    # exact spectrum {sqrt5, 1, 0, -1, -sqrt5}: the cubic factor at n=5 is
    # x^3 - 5x and -1 enters with multiplicity n-4 = 1
    rep = eigenvalues_sym(extremal_graph(5).adjacency_matrix())
    s5 = math.sqrt(5)
    assert rep.eigenvalues == pytest.approx([s5, 1.0, 0.0, -1.0, -s5], abs=1e-10)


def test_eigensolver_matches_exact_char_poly_roots():
    # the oracle is exact: Sturm-isolated roots of the integer char poly
    rng = random.Random(41)
    for _ in range(40):
        g = random_signed_graph(rng, rng.randint(1, 12))
        rep = eigenvalues_sym(g.adjacency_matrix())
        roots = np.array(real_roots(char_poly_exact(g)))
        for lam in rep.eigenvalues:
            assert np.abs(roots - lam).min() <= 1e-9
        for r in roots:
            assert np.abs(rep.eigenvalues - r).min() <= 1e-9
        assert rep.residual <= 1.1e-11


def test_eigenvalues_sym_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        eigenvalues_sym(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="empty matrix has no spectrum"):
        eigenvalues_sym(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="empty graph has no spectrum"):
        nonneg_eigenvector_form(SignedGraph(0))


def test_exact_char_poly_refuses_a_non_square_or_non_integer_matrix():
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        char_poly_of_int_matrix(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        char_poly_of_int_matrix([[0, 0.5], [0.5, 0]])


def test_quotient_refusals():
    with pytest.raises(ValueError, match="partition must have at least one block"):
        VertexPartition(())
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        quotient_matrix(np.zeros((2, 3), dtype=int), VertexPartition.of([0, 1]))
    # x^2 + 1: a rotation has no real eigenvalues, so it is no equitable quotient
    with pytest.raises(ValueError, match="quotient matrix has non-real eigenvalues"):
        check_quotient_containment(np.eye(2), np.array([[0, 1], [-1, 0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_refused(bad):
    # NaN fails every comparison, so the symmetry test alone lets it through
    M = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="NaN or infinite"):
        eigenvalues_sym(M)
    with pytest.raises(ValueError, match="NaN or infinite"):
        eigenvalues_sym(np.diag([bad, 0.0]))
    with pytest.raises(ValueError, match="NaN or infinite"):
        rayleigh(M, np.ones(2))
    with pytest.raises(ValueError, match="NaN or infinite"):
        rayleigh(np.eye(2), np.array([1.0, bad]))


def test_spectrum_report_invariants():
    rng = random.Random(42)
    for _ in range(40):
        g = random_signed_graph(rng, rng.randint(1, 10))
        rep = eigenvalues_sym(g.adjacency_matrix())
        n, m = g.n, g.m
        assert len(rep.eigenvalues) == n
        assert abs(rep.eigenvalues.sum()) <= 1e-9 * max(n, 1)
        assert abs((rep.eigenvalues**2).sum() - 2 * m) <= 1e-9 * max(n, 1)
        k = int(np.argmax(np.abs(rep.x)))
        assert rep.x[k] >= 0
        assert np.linalg.norm(rep.x) == pytest.approx(1.0, abs=1e-12)


def test_index_values():
    for n in (3, 5, 8):
        assert index(complete_signed(n, 1)) == pytest.approx(n - 1, abs=1e-10)
    assert index(extremal_graph(6)) == pytest.approx(INDEX_EXTREMAL_6, abs=1e-3)
    assert index(extremal_graph(6)) == pytest.approx(INDEX_EXTREMAL_6, abs=1e-10)
    for n in (5, 9, 17):
        lam = index(extremal_graph(n))
        assert n - 3 < lam < n - 2


def test_char_poly_exact_triangle():
    assert char_poly_exact(complete_signed(3, 1)) == IntPolynomial([-2, -3, 0, 1])


def test_char_poly_exact_matches_general_matrix_path():
    rng = random.Random(43)
    for _ in range(30):
        g = random_signed_graph(rng, rng.randint(0, 8))
        assert char_poly_exact(g) == char_poly_of_int_matrix(g.adjacency_matrix())


def _assert_matches_det_oracle(p, rows):
    n = len(rows)
    assert p.degree == n and p.is_monic
    assert [p(k) for k in range(n + 1)] == brute_char_poly_values(rows)


def test_char_poly_exact_matches_determinant_oracle():
    rng = random.Random(47)
    for n in range(10):
        for _ in range(4):
            g = random_signed_graph(rng, n, edge_prob=rng.random())
            _assert_matches_det_oracle(char_poly_exact(g), g.adjacency_matrix().tolist())


def test_char_poly_exact_deflates_planted_signed_twins():
    # true and false twins of both signs, several classes at once, relabelled and
    # switched: the deflated polynomial equals the kernel's on the full matrix
    rng = random.Random(4101)
    planted = set()
    for n in range(1, 41):
        for _ in range(8 if n <= 14 else 3):
            g, sizes, signs = planted_twin_graph(rng, n)
            planted |= {(s, size == n - 1) for s, size in zip(signs, sizes) if size > 1}
            planted.add(("classes", sum(size > 1 for size in sizes) > 1))
            A = g.adjacency_matrix()
            p = char_poly_exact(g)
            assert p == char_poly_of_int_matrix(A), (n, sizes, signs)
            if n <= 9:
                _assert_matches_det_oracle(p, A.tolist())
    assert planted == {(s, big) for s in (-1, 0, 1) for big in (False, True)} | {
        ("classes", False),
        ("classes", True),
    }


def test_char_poly_exact_refuses_a_twin_quotient_that_is_not_equitable(monkeypatch):
    import signedspectra.spectra as spectra

    # {0, 1} of the path 0-1-2 is no twin class: 1 sees 2 and 0 does not
    monkeypatch.setattr(spectra, "_twin_classes", lambda adj, neg: [[0, 1], [2]])
    with pytest.raises(ArithmeticError, match="not give an equitable quotient"):
        char_poly_exact(SignedGraph(3, {(0, 1): 1, (1, 2): 1}))


def test_char_poly_of_int_matrix_matches_determinant_oracle_on_large_entries():
    # entries up to 10^6 (and one of 10^30) need more primes than a graph does
    rng = random.Random(48)
    for n in range(1, 9):
        for _ in range(3):
            rows = [[rng.randint(-(10**6), 10**6) for _ in range(n)] for _ in range(n)]
            _assert_matches_det_oracle(char_poly_of_int_matrix(rows), rows)
    rows = [[10**30, -3, 7], [2, -(10**29), 0], [5, 1, 11]]
    _assert_matches_det_oracle(char_poly_of_int_matrix(rows), rows)


def test_char_poly_matches_determinant_oracle_up_to_order_40():
    # orders past the census's, up to the largest the exact workload checks
    rng = random.Random(2904)
    for n in (12, 17, 23, 31, 40):
        g = random_signed_graph(rng, n, edge_prob=rng.choice((0.3, 0.7)))
        _assert_matches_det_oracle(char_poly_exact(g), g.adjacency_matrix().tolist())
    g = extremal_graph(40)
    _assert_matches_det_oracle(char_poly_exact(g), g.adjacency_matrix().tolist())


def test_char_poly_of_int_matrix_on_larger_non_symmetric_matrices():
    rng = random.Random(2905)
    for n, size in ((10, 10**9), (14, 10**4), (20, 10**12)):
        rows = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
        _assert_matches_det_oracle(char_poly_of_int_matrix(rows), rows)


def test_char_poly_with_deferred_reduction_matches_the_reduce_every_step_kernel():
    # random signed graphs at every order up to 40, of every density
    rng = random.Random(3201)
    for n in range(41):
        for _ in range(3):
            g = random_signed_graph(rng, n, edge_prob=rng.random())
            A = g.adjacency_matrix()
            assert char_poly_exact(g) == reference_char_poly(A) == char_poly_of_int_matrix(A), n


def test_deferred_reduction_keeps_dense_graphs_exact():
    # dense graphs make |B_k| grow like n^k, near the tracked bound a (n b + p):
    # a bound without the factor n (trace or product) lets a sum pass 2^52 here
    for n in range(30, 41):
        for g in (complete_signed(n, 1), complete_signed(n, -1), extremal_graph(n), near_extremal_graph(n)):
            A = g.adjacency_matrix()
            assert char_poly_exact(g) == reference_char_poly(A), n
            # each of these deflates to a quotient of order 3 at most: drive the kernel itself
            assert char_poly_of_int_matrix(A) == reference_char_poly(A), n


def test_char_poly_of_int_matrix_with_huge_entries_matches_the_reduce_every_step_kernel():
    # residues of entries up to 10^30 reach p / 2 in size, so B is reduced before every product after the first
    rng = random.Random(3202)
    for n in range(1, 13):
        for size in (10**6, 10**30):
            rows = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
            A = np.empty((n, n), dtype=object)
            A[...] = rows
            assert char_poly_of_int_matrix(rows) == reference_char_poly(A), (n, size)


def test_inverse_table_is_one_bounded_table_of_true_inverses():
    from signedspectra.spectra import _inverses, _primes

    for n in (5, 20, 40, 70):  # the full matrices: char_poly_exact would deflate them to order 3
        char_poly_of_int_matrix(extremal_graph(n).adjacency_matrix())
    char_poly_of_int_matrix([[10**30, 1], [2, 3]])
    info = _inverses.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    count, orders = 8, 64
    table = _inverses(count, orders)
    assert len(table) == orders
    for k, row in enumerate(table, 1):
        assert [k * r % p for r, p in zip(row, _primes(count))] == [1] * count


def test_mod_gives_residues_in_0_to_p_and_leaves_its_argument():
    from signedspectra.spectra import _mod, _primes

    P = np.array(_primes(3), dtype=float)[:, None]
    rng = np.random.default_rng(2906)
    X = np.floor(rng.random((3, 500)) * (2.0**53 - 2)) - (2.0**52 - 1)  # both signs, |X| < 2^52
    X[:, :5] = P * np.arange(5)  # multiples of p, whose residue may come out as p
    X[:, 5:10] = -P * np.arange(1, 6)
    X[:, 10] = 2.0**52 - 1
    X[:, 11] = 1 - 2.0**52
    before = X.copy()
    R = _mod(X, P, 1.0 / P)
    assert np.array_equal(X, before) and not np.shares_memory(R, X)
    assert ((0 <= R) & (R <= P)).all()
    for x, r, p in zip(X.ravel().tolist(), R.ravel().tolist(), np.broadcast_to(P, X.shape).ravel().tolist()):
        assert r == int(r) and (int(x) - int(r)) % int(p) == 0


def test_char_poly_edge_cases():
    assert char_poly_exact(SignedGraph(0, {})) == IntPolynomial([1])
    assert char_poly_of_int_matrix(np.zeros((0, 0), dtype=int)) == IntPolynomial([1])
    assert char_poly_of_int_matrix([[5]]) == IntPolynomial([-5, 1])
    assert char_poly_exact(SignedGraph(1, {})) == IntPolynomial([0, 1])


def test_char_poly_refuses_orders_past_exact_float_products():
    # at n = 4096, (n + 1) p^2 reaches 2^52 for primes near 2^20; the order is
    # refused before any entry is read, so a broadcast view costs no memory
    from signedspectra.spectra import _char_poly_multimodular

    with pytest.raises(ValueError, match="too large"):
        _char_poly_multimodular(np.broadcast_to(np.int64(0), (4096, 4096)))


def test_char_poly_monic_zero_trace():
    rng = random.Random(44)
    for _ in range(30):
        g = random_signed_graph(rng, rng.randint(1, 9))
        p = char_poly_exact(g)
        assert p.degree == g.n and p.is_monic
        assert p.coeffs[g.n - 1] == 0  # zero trace


def test_char_poly_evaluated_at_numeric_eigenvalues():
    rng = random.Random(45)
    for _ in range(25):
        g = random_signed_graph(rng, rng.randint(1, 9))
        p = char_poly_exact(g)
        rep = eigenvalues_sym(g.adjacency_matrix())
        bound = 1e-6 * g.n * max(abs(c) for c in p.coeffs)
        for lam in rep.eigenvalues:
            assert abs(p(float(lam))) <= bound


def test_numeric_integer_eigenvalue_multiplicities_match_exact():
    rng = random.Random(46)
    for _ in range(25):
        g = random_signed_graph(rng, rng.randint(1, 9))
        p = char_poly_exact(g)
        rep = eigenvalues_sym(g.adjacency_matrix())
        rounded = [round(float(v)) for v in rep.eigenvalues if abs(v - round(float(v))) < 1e-7]
        for r in set(rounded):
            assert rounded.count(r) == root_multiplicity_exact(p, r)


def test_root_multiplicity_on_extremal8():
    p = char_poly_exact(extremal_graph(8))
    assert root_multiplicity_exact(p, -1) == 4  # n - 4


def test_rayleigh_quotient():
    g = extremal_graph(7)
    A = g.adjacency_matrix()
    rep = eigenvalues_sym(A)
    assert rayleigh(A, rep.x) == pytest.approx(rep.lambda1, abs=1e-10)
    rng = random.Random(47)
    for _ in range(100):
        y = np.array([rng.gauss(0, 1) for _ in range(7)])
        assert rayleigh(A, y) <= rep.lambda1 + 1e-9
    with pytest.raises(ValueError):
        rayleigh(A, np.zeros(7))


def test_rayleigh_added_edge_delta():
    # adding a positive edge uv moves the quadratic form by exactly 2 x_u x_v
    g = extremal_graph(6)
    rep = eigenvalues_sym(g.adjacency_matrix())
    x = rep.x
    u, v = 0, 4
    assert not g.has_edge(u, v)
    g2 = g.set_edge(u, v, 1)
    delta = rayleigh(g2.adjacency_matrix(), x) - rayleigh(g.adjacency_matrix(), x)
    assert delta == pytest.approx(2 * x[u] * x[v], abs=1e-12)


def test_nonneg_eigenvector_form_identity_when_already_nonneg():
    g = complete_signed(5, 1)
    out, rep = nonneg_eigenvector_form(g)
    assert out == g
    assert (rep.x >= -1e-12).all()


def test_nonneg_eigenvector_form_returns_the_graph_and_its_solve_when_nothing_switches():
    rng = random.Random(3203)
    graphs = [complete_signed(6, 1), extremal_graph(12)] + [random_signed_graph(rng, n) for n in range(1, 10)]
    for g in graphs:
        out, rep = nonneg_eigenvector_form(g)
        ref, want = reference_nonneg_eigenvector_form(g)
        assert out == ref and rep.x.tobytes() == want.x.tobytes()
        if not (eigenvalues_sym(g.adjacency_matrix()).x < 0).any():
            assert out is g


def test_nonneg_eigenvector_form_on_allneg_k4():
    out, rep = nonneg_eigenvector_form(complete_signed(4, -1))
    assert (rep.x >= -1e-9).all()
    assert rep.lambda1 == pytest.approx(1.0, abs=1e-10)


def test_nonneg_eigenvector_form_preserves_exact_spectrum():
    rng = random.Random(48)
    for _ in range(40):
        g = random_signed_graph(rng, rng.randint(1, 8))
        out, rep = nonneg_eigenvector_form(g)
        assert char_poly_exact(out) == char_poly_exact(g)
        assert (rep.x >= -1e-8).all()
        assert switching_equivalent(out, g)


def test_nonneg_eigenvector_form_matches_the_matrix_switching():
    # switching the graph's bitsets and conjugating its sign matrix give one graph and one report
    rng = random.Random(59)
    switched = 0
    for n in range(1, 13):
        for _ in range(15):
            g = random_signed_graph(rng, n, edge_prob=rng.choice((0.2, 0.5, 0.8)))
            out, rep = nonneg_eigenvector_form(g)
            ref, want = reference_nonneg_eigenvector_form(g)
            assert out == ref, g.edges()
            assert rep.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert rep.x.tobytes() == want.x.tobytes()
            assert (rep.lambda1, rep.residual) == (want.lambda1, want.residual)
            switched += out != g
    assert switched


def test_quotient_matrix_families():
    for n in (5, 6, 11):
        A = extremal_graph(n).adjacency_matrix()
        res = quotient_matrix(A, extremal_partition(n))
        assert res.is_equitable
        assert res.matrix.tolist() == [
            [0, -1, 1, 0],
            [-1, 0, 1, 0],
            [1, 1, 0, n - 3],
            [0, 0, 1, n - 4],
        ]
        B = near_extremal_graph(n).adjacency_matrix()
        res2 = quotient_matrix(B, near_extremal_partition(n))
        assert res2.is_equitable
        assert res2.matrix.tolist() == [
            [0, -1, 2, 0],
            [-1, 0, 2, 0],
            [1, 1, 0, n - 4],
            [0, 0, 2, n - 5],
        ]


def _random_partition(rng: random.Random, n: int) -> VertexPartition:
    perm = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return VertexPartition.of(*(perm[a:b] for a, b in zip([0] + cuts, cuts + [n])))


def _equitable_matrix(rng: random.Random, part: VertexPartition, big: bool) -> np.ndarray:
    """Block (i, j) has r hits of weight c in every row, placed cyclically: constant row sums."""
    A = np.zeros((part.n, part.n), dtype=object if big else np.int64)
    for bi in part.blocks:
        for bj in part.blocks:
            r, c, shift = rng.randint(0, len(bj)), rng.choice([-2, -1, 1, 3]), rng.randrange(len(bj))
            if big:
                c *= 10**30 + 7
            for x, u in enumerate(bi):
                for y, v in enumerate(bj):
                    if (x + y + shift) % len(bj) < r:
                        A[u, v] = c
    return A


def test_quotient_matrix_matches_the_block_loop():
    # equitable and broken block patterns, int64 and Python-int entries beyond int64
    rng = random.Random(34)
    equitable = 0
    for trial in range(800):
        n = rng.randint(1, 12)
        part, big = _random_partition(rng, n), trial % 4 >= 2
        A = _equitable_matrix(rng, part, big)
        if trial % 2:
            u, v = rng.randrange(n), rng.randrange(n)
            A[u, v] += rng.choice([-1, 1, 10**25 if big else 5])
        want, got = reference_quotient_matrix(A, part), quotient_matrix(A, part)
        assert got.violation == want.violation
        if want.matrix is None:
            assert got.matrix is None
        else:
            equitable += 1
            assert got.matrix.dtype == want.matrix.dtype and got.matrix.shape == want.matrix.shape
            assert got.matrix.tolist() == want.matrix.tolist()
            assert [type(x) for x in got.matrix.flat] == [type(x) for x in want.matrix.flat]
    assert 400 < equitable < 800  # a perturbed row alone in its block keeps its sums
    for n in range(5, 21):
        for g, part in (
            (extremal_graph(n), extremal_partition(n)),
            (near_extremal_graph(n), near_extremal_partition(n)),
        ):
            A = g.adjacency_matrix()
            want, got = reference_quotient_matrix(A, part), quotient_matrix(A, part)
            assert got.violation is None and got.matrix.dtype == want.matrix.dtype
            assert got.matrix.tolist() == want.matrix.tolist()


def test_quotient_matrix_violation_witness():
    # a path is not equitable under {ends}{middle} at n=3... use P4
    p4 = SignedGraph(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
    part = VertexPartition.of((0, 1), (2, 3))
    res = quotient_matrix(p4.adjacency_matrix(), part)
    assert not res.is_equitable
    i, j, row = res.violation
    assert 0 <= i < 2 and 0 <= j < 2 and row in (0, 1, 2, 3)


def test_quotient_partition_validation():
    with pytest.raises(ValueError):
        VertexPartition.of((0, 1), (1, 2))
    with pytest.raises(ValueError):
        VertexPartition.of((0,), (2,))
    with pytest.raises(ValueError):
        VertexPartition.of((0,), ())
    with pytest.raises(ValueError):
        quotient_matrix(np.zeros((3, 3), dtype=int), VertexPartition.of((0, 1),))


def test_quotient_containment_families():
    for n in (5, 9, 15):
        A = extremal_graph(n).adjacency_matrix()
        Q = quotient_matrix(A, extremal_partition(n)).matrix
        assert check_quotient_containment(A, Q, tol=1e-8)
        B = near_extremal_graph(n).adjacency_matrix()
        Q2 = quotient_matrix(B, near_extremal_partition(n)).matrix
        assert check_quotient_containment(B, Q2, tol=1e-8)


def test_quotient_containment_trivial_partition():
    g = extremal_graph(6)
    A = g.adjacency_matrix()
    part = VertexPartition.of(*[(v,) for v in range(6)])
    res = quotient_matrix(A, part)
    assert res.is_equitable and (res.matrix == A).all()
    assert check_quotient_containment(A, res.matrix, tol=1e-8)


def test_c4free_bounds_examples():
    star = SignedGraph(5, {(0, v): 1 for v in range(1, 5)})
    assert index(star) == pytest.approx(2.0, abs=1e-10)
    assert c4free_bound_check(star)  # 2 < (1 + sqrt(17)) / 2
    c6 = SignedGraph(6, {(v, (v + 1) % 6): 1 for v in range(6)})
    assert index(c6) == pytest.approx(2.0, abs=1e-10)
    assert c4free_bound_check(c6)  # 8 - 4 - 10 + 1 = -5 < 0
    # K4 holds a 4-cycle: its index 3 exceeds the even bound at n = 4 (about 2.17)
    assert not c4free_bound_check(complete_signed(4, 1))


def test_c4free_bound_equality_case():
    # two triangles sharing one vertex attain the odd bound with equality,
    # decided exactly rather than within a float slack
    bowtie = SignedGraph(
        5, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 3): 1, (0, 4): 1, (3, 4): 1}
    )
    assert compare_largest_real_roots(char_poly_exact(bowtie), IntPolynomial([-4, -1, 1])) == 0
    assert c4free_bound_check(bowtie)


def test_exact_root_interval_brackets_float_index():
    # the float index of the order-6 extremal graph sits inside an exact bracket
    p = IntPolynomial([1, -7, -1, 1])
    from signedspectra.polynomial import largest_real_root_interval

    lo, hi = largest_real_root_interval(p, Fraction(1, 10**14))
    assert float(lo) <= INDEX_EXTREMAL_6 <= float(hi) + 1e-13
