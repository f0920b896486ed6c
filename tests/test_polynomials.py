import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signedspectra import polynomial
from signedspectra.families import (
    extremal_cubic,
    extremal_graph,
    extremal_quotient_matrix,
    near_extremal_cubic,
    near_extremal_graph,
    near_extremal_quotient_matrix,
)
from signedspectra.polynomial import (
    IntPolynomial,
    _fraction_pair,
    _half_tol,
    _isolate,
    _refine,
    _root_bound,
    _sign_at,
    _sturm_chain,
    compare_largest_real_roots,
    isolate_real_roots,
    largest_real_root,
    largest_real_root_interval,
    real_roots,
    root_multiplicity_exact,
)
from signedspectra.spectra import char_poly_exact, char_poly_of_int_matrix, check_quotient_containment

from conftest import (
    brute_squarefree_and_sturm,
    brute_sturm_count,
    fraction_value,
    reference_bisect,
    reference_isolate,
)


def poly(*descending):
    return IntPolynomial(list(reversed(descending)))


def test_arithmetic_and_eval():
    p = poly(1, 0, -3, -2)  # x^3 - 3x - 2 = (x-2)(x+1)^2
    q = poly(1, -2) * poly(1, 1) * poly(1, 1)
    assert p == q
    assert p(2) == 0 and p(-1) == 0 and p(0) == -2
    assert p(Fraction(1, 2)) == Fraction(1, 8) - Fraction(3, 2) - 2


def test_monic_and_degree():
    p = poly(1, 0, -3, -2)
    assert p.degree == 3 and p.is_monic
    assert (p + (-p)).is_zero
    assert (poly(1, 1) ** 3) == poly(1, 3, 3, 1)


def test_the_empty_coefficient_list_is_the_zero_polynomial():
    assert IntPolynomial([]).coeffs == (0,)
    assert IntPolynomial([]) == IntPolynomial([0, 0]) and IntPolynomial([]).is_zero


def test_repr_str_and_equality_with_a_non_polynomial():
    p = poly(1, 0, -2, 1)
    assert repr(p) == "IntPolynomial([1, -2, 0, 1])"
    assert str(p) == "x^3-2x+1"
    assert str(poly(-1, 0)) == "-x"
    assert str(poly(0)) == "0"
    assert str(poly(-3)) == "-3"
    assert str(poly(3, -1, 0)) == "3x^2-x"
    assert str(poly(-2, 0, 0, 5)) == "-2x^3+5"
    assert p.__eq__(p.coeffs) is NotImplemented
    assert p != p.coeffs and not p == [1, -2, 0, 1]


def test_add_sub_pow_and_derivative_edge_cases():
    assert poly(1) + poly(1, 0, 0) == poly(1, 0, 1)  # the longer operand second
    assert poly(2, 1) - poly(1, 0, 3) == poly(-1, 2, -2)
    assert poly(1, 0, 3) - poly(1, 0, 3) == poly(0)
    with fails_after(10), pytest.raises(ValueError, match="negative power"):
        poly(1, 1) ** -1  # k >>= 1 never ends at k = -1
    assert poly(7).derivative() == poly(0)
    assert poly(0).derivative() == poly(0)


def test_the_zero_polynomial_has_no_multiplicity_and_no_roots():
    with fails_after(10):
        with pytest.raises(ValueError, match="zero polynomial has no well-defined multiplicity"):
            root_multiplicity_exact(IntPolynomial([0]), 1)
        with pytest.raises(ValueError, match="zero polynomial"):
            real_roots(IntPolynomial([0]))


def test_root_multiplicity_examples():
    p = poly(1, 0, -3, -2)
    assert root_multiplicity_exact(p, -1) == 2
    assert root_multiplicity_exact(p, 0) == 0
    assert root_multiplicity_exact(p, 2) == 1
    big = poly(1, 1) ** 5 * poly(1, -3)
    assert root_multiplicity_exact(big, -1) == 5
    assert root_multiplicity_exact(big, 3) == 1
    non_monic = IntPolynomial([6]) * poly(1, 0) ** 3 * poly(1, -2) ** 2  # 6x^3(x-2)^2
    assert root_multiplicity_exact(non_monic, 0) == 3
    assert root_multiplicity_exact(non_monic, 2) == 2
    assert root_multiplicity_exact(non_monic, 1) == 0
    assert root_multiplicity_exact(IntPolynomial([7]), 0) == 0


def test_divides_and_divexact():
    p = poly(1, 0, -3, -2)
    assert poly(1, 1).divides(p)
    assert not poly(1, -1).divides(p)
    assert p.divexact(poly(1, 1)) == poly(1, -1, -2)
    with pytest.raises(ValueError):
        p.divexact(poly(1, -1))
    with pytest.raises(ZeroDivisionError):
        poly(0).divides(p)
    with pytest.raises(ZeroDivisionError):
        p.divexact(poly(0))
    # negative and non-monic divisors: the pseudo-division multiplier is |lc|^k
    assert poly(-2, 2, 4).divexact(poly(-1, -1)) == poly(2, -4)
    assert poly(6, -1, -1).divexact(poly(3, 1)) == poly(2, -1)
    assert poly(6, -1, -1).divexact(poly(-3, -1)) == poly(-2, 1)
    assert poly(-3, -1).divides(poly(6, -1, -1)) and not poly(-3, 1).divides(poly(6, -1, -1))
    q = poly(4, 0, -1) * poly(1, 1)  # multiplier 4^2
    assert q.divexact(poly(4, 0, -1)) == poly(1, 1)
    assert q.divexact(poly(-4, 0, 1)) == poly(-1, -1)
    assert poly(6, 4).divexact(poly(-2)) == poly(-3, -2)
    assert poly(2, 2).divexact(poly(1, 1)) == poly(2)
    assert poly(0).divexact(poly(1, 1)) == poly(0)
    for a, b in [(poly(1, 1), poly(2, 2)), (poly(3, 4), poly(2)), (poly(1, 0, -1), poly(-2, 2))]:
        with pytest.raises(ValueError, match="not integral"):
            a.divexact(b)
    with pytest.raises(ValueError, match="not exact"):
        poly(1, 1).divexact(poly(1, 0, 1))


@pytest.mark.parametrize(
    "coeffs", [[0.5, 1], [Fraction(7, 2)], ["3"], [1, 2.25], [np.float64(0.1)]]
)
def test_non_integral_coefficients_are_refused(coeffs):
    with pytest.raises(ValueError, match="must be integers"):
        IntPolynomial(coeffs)


def test_integral_coefficients_of_any_numeric_type_construct():
    want = IntPolynomial([3, -2, 1])
    assert IntPolynomial([np.int64(3), -2.0, Fraction(2, 2)]) == want
    assert IntPolynomial(np.array([3, -2, 1, 0])) == want
    assert IntPolynomial(c for c in (3, -2, 1)) == want


def test_real_roots_simple():
    p = poly(1, -1) * poly(1, 2) * poly(1, 0)  # roots 1, -2, 0
    roots = real_roots(p)
    assert len(roots) == 3
    for r, expected in zip(roots, [-2.0, 0.0, 1.0]):
        assert r == pytest.approx(expected, abs=1e-12)


def test_real_roots_with_multiplicity():
    p = poly(1, 1) ** 4 * poly(1, -3)
    roots = real_roots(p)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-1.0, abs=1e-12)
    assert roots[1] == pytest.approx(3.0, abs=1e-12)


def test_real_roots_irrational():
    p = poly(1, 0, -2)  # sqrt(2)
    roots = real_roots(p)
    assert roots[-1] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert largest_real_root(p) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_no_real_roots():
    p = poly(1, 0, 1)  # x^2 + 1
    assert real_roots(p) == []
    with pytest.raises(ValueError):
        largest_real_root(p)


def test_partial_real_roots():
    p = poly(1, 0, 1) * poly(1, -5)  # only real root 5
    assert real_roots(p) == [pytest.approx(5.0, abs=1e-12)]


def test_isolation_disjoint_and_exact_interval():
    p = poly(1, 0, -3, 1)  # three real roots (discriminant > 0)
    intervals = isolate_real_roots(p)
    assert len(intervals) == 3
    for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
        assert b1 <= a2
    lo, hi = largest_real_root_interval(p, Fraction(1, 10**15))
    assert hi - lo <= Fraction(1, 10**15)
    # sign change across the bracket for the simple largest root
    assert p(lo) * p(hi) <= 0


def test_rational_root_hit_exactly():
    p = poly(1, -2, -1, 2)  # (x-1)(x+1)(x-2)
    roots = real_roots(p)
    assert roots == [
        pytest.approx(-1.0, abs=1e-12),
        pytest.approx(1.0, abs=1e-12),
        pytest.approx(2.0, abs=1e-12),
    ]


def test_compare_equal_top_roots_of_different_polynomials():
    # x^3 - 5x and (x^2 - 5)(x + 1) share only the top root sqrt(5)
    p = poly(1, 0, -5, 0)
    q = poly(1, 0, -5) * poly(1, 1)
    assert compare_largest_real_roots(p, q) == 0
    assert compare_largest_real_roots(q, p) == 0
    assert compare_largest_real_roots(p, p) == 0
    # a shared lower root does not make the top roots equal
    assert compare_largest_real_roots(p, poly(1, 0) * poly(1, -1)) == 1


def test_compare_rational_roots_on_bisection_midpoints():
    # dyadic roots land exactly on midpoints of the bisection
    cases = [
        (poly(2, -1), poly(4, -1), 1),  # 1/2 vs 1/4
        (poly(1, 0), poly(4, -1), -1),  # 0 vs 1/4
        (poly(1, -1), poly(1, -2), -1),
        (poly(2, -1) * poly(1, 5), poly(2, -1) * poly(1, 0), 0),  # both 1/2
        (poly(8, -3) * poly(1, 1), poly(4, -1) * poly(2, -1), -1),  # 3/8 vs 1/2
        (poly(1, -3), poly(1, -3) * poly(1, 0, 1), 0),  # 3 vs 3, and no other real root
    ]
    for p, q, want in cases:
        assert compare_largest_real_roots(p, q) == want, (p, q)
        assert compare_largest_real_roots(q, p) == -want, (q, p)


def test_compare_sqrt2_against_close_rational_brackets():
    scale = 10**30
    s = math.isqrt(2 * scale * scale)  # s / scale < sqrt(2) < (s + 1) / scale
    root2 = poly(1, 0, -2)
    below, above = poly(scale, -s), poly(scale, -(s + 1))
    assert compare_largest_real_roots(root2, below) == 1
    assert compare_largest_real_roots(root2, above) == -1
    assert compare_largest_real_roots(above, root2) == 1


def test_compare_needs_real_roots():
    with pytest.raises(ValueError):
        compare_largest_real_roots(poly(1, 0, 1), poly(1, -1))


linear_factors = st.lists(
    st.tuples(st.integers(-12, 12), st.integers(1, 6)), min_size=1, max_size=4
)


@settings(max_examples=150, deadline=None)
@given(linear_factors, linear_factors, st.booleans())
def test_compare_matches_max_of_rational_roots(fp, fq, with_complex):
    # p is a product of (b x - a), so its largest real root is max(a / b)
    def product(factors):
        out = IntPolynomial([1])
        for a, b in factors:
            out = out * IntPolynomial([-a, b])
        return out

    p, q = product(fp), product(fq)
    if with_complex:
        p = p * poly(1, 1, 1)  # x^2 + x + 1 adds no real root
    top_p = max(Fraction(a, b) for a, b in fp)
    top_q = max(Fraction(a, b) for a, b in fq)
    want = (top_p > top_q) - (top_p < top_q)
    assert compare_largest_real_roots(p, q) == want


@contextmanager
def fails_after(seconds: int):
    """Turn a hang into a failure: SIGALRM raises TimeoutError in the test."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("tol", [0, 0.0, -1e-9, math.nan, math.inf, -math.inf, 1e-20])
def test_root_refinement_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    # bisection to a width <= 0 never ends; 1e-20 rounds to 0 at denominator 10^18
    p = poly(1, 0, -2)
    with fails_after(10):
        with pytest.raises(ValueError):
            real_roots(p, tol=tol)
        with pytest.raises(ValueError):
            largest_real_root(p, tol=tol)


@pytest.mark.parametrize("width", [0, Fraction(0), Fraction(-1, 10**9), -1e-9, math.nan, math.inf])
def test_root_interval_refuses_a_width_that_is_not_finite_and_positive(width):
    with fails_after(10), pytest.raises(ValueError):
        largest_real_root_interval(poly(1, 0, -2), width)


@pytest.mark.parametrize("tol", [0, -1e-9, math.nan, math.inf])
def test_quotient_containment_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    M = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with fails_after(10), pytest.raises(ValueError):
        check_quotient_containment(M, np.array([[2]]), tol=tol)


def exceeds_sqrt2(x: Fraction) -> bool:
    return x > 0 and x * x > 2


def test_isolation_with_negative_leading_coefficient_and_non_monic_factors():
    # -(3x - 1)(x + 2)(x^2 - 2): roots -2, -sqrt 2, 1/3, sqrt 2
    p = -(poly(3, -1) * poly(1, 2) * poly(1, 0, -2))
    assert p.coeffs[-1] == -3
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = isolate_real_roots(p)
    assert a1 < -2 <= b1 <= a2 and a3 < Fraction(1, 3) <= b3 <= a4
    assert exceeds_sqrt2(-a2) and not exceeds_sqrt2(-b2) and b2 <= a3  # a2 < -sqrt 2 <= b2
    assert not exceeds_sqrt2(a4) and exceeds_sqrt2(b4)  # a4 < sqrt 2 <= b4
    assert real_roots(p) == [
        pytest.approx(-2.0, abs=1e-12),
        pytest.approx(-math.sqrt(2), abs=1e-12),
        pytest.approx(1 / 3, abs=1e-12),
        pytest.approx(math.sqrt(2), abs=1e-12),
    ]
    width = Fraction(1, 10**15)
    lo, hi = largest_real_root_interval(p, width)
    assert not exceeds_sqrt2(lo) and exceeds_sqrt2(hi) and hi - lo <= width


@pytest.mark.parametrize(
    "p, root",
    [
        (poly(1, 0), Fraction(0)),  # B = 2: the first midpoint
        (poly(1, -2), Fraction(2)),  # B = 4: B / 2
        (poly(1, 2), Fraction(-2)),  # B = 4: -B / 2
        (poly(8, -3), Fraction(3, 8)),  # B = 3: the midpoints 0, 3/2, 3/4, 3/8
    ],
)
def test_roots_on_bisection_midpoints_are_hit_exactly(p, root):
    from signedspectra.polynomial import _root_bound

    assert root * 2 ** 3 % _root_bound(p) == 0  # a dyadic fraction of the bound
    ((a, b),) = isolate_real_roots(p)
    assert a < root <= b
    assert largest_real_root_interval(p, Fraction(1, 10**15)) == (root, root)
    assert real_roots(p) == [float(root)]


def test_a_root_on_the_lower_end_of_an_isolating_interval():
    # x(x - 1): (-3, 3] splits at its midpoint 0, a root, so (0, 3] starts at a
    # root of the square-free part, outside the half-open interval
    p = poly(1, 0) * poly(1, -1)
    assert isolate_real_roots(p) == [(-3, 0), (0, 3)]
    lo, hi = largest_real_root_interval(p, Fraction(1, 10**15))
    assert lo <= 1 <= hi and hi - lo <= Fraction(1, 10**15)
    assert real_roots(p) == [0.0, pytest.approx(1.0, abs=1e-12)]


@pytest.mark.parametrize("width", [Fraction(5), Fraction(1), Fraction(1, 3), Fraction(1, 10**6), Fraction(1, 10**15)])
def test_top_interval_starting_at_a_root_is_bracketed_within_the_width(width):
    # x(x - 3): the top interval (0, 5] has the root 0 at its lower end
    p = poly(1, -3, 0)
    assert isolate_real_roots(p)[-1] == (0, 5)
    lo, hi = largest_real_root_interval(p, width)
    assert lo <= 3 <= hi and hi - lo <= width


signed_linear_factors = st.lists(
    st.tuples(st.integers(-12, 12), st.integers(-6, 6).filter(bool)), min_size=1, max_size=5
)


@settings(max_examples=150, deadline=None)
@given(
    signed_linear_factors,
    st.booleans(),
    st.sampled_from([Fraction(1, 10**15), Fraction(1, 3), Fraction(2)]),
)
def test_isolation_and_top_bracket_of_rational_roots(factors, with_complex, width):
    # (b x - a) with b of either sign has the root a / b
    p = IntPolynomial([1])
    for a, b in factors:
        p = p * IntPolynomial([-a, b])
    if with_complex:
        p = p * poly(1, 1, 1)
    roots = sorted({Fraction(a, b) for a, b in factors})
    intervals = isolate_real_roots(p)
    assert len(intervals) == len(roots)
    for (a, b), r in zip(intervals, roots):
        assert a < r <= b
    for (_, b1), (a2, _) in zip(intervals, intervals[1:]):
        assert b1 <= a2
    lo, hi = largest_real_root_interval(p, width)
    assert lo <= roots[-1] <= hi and hi - lo <= width


# factors as ascending coefficient lists: (b x - a) with b of either sign,
# irreducible non-monic quadratics, random cubics, and a x^4 + b x + c, whose
# chain skips degree 2, so its last division has the odd multiplier |lc|^3
oracle_factors = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.integers(-9, 9), st.integers(-4, 4).filter(bool)).map(lambda t: [-t[0], t[1]]),
            st.sampled_from([[-2, 0, 3], [2, 0, -3], [1, 0, 1], [-5, 0, 2], [-1, -1, 1], [3, 1, -2]]),
            st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(lambda c: c[-1] != 0),
            st.tuples(st.sampled_from([1, -1, 3]), st.integers(-5, 5).filter(bool), st.integers(-5, 5))
            .map(lambda t: [t[2], t[1], 0, 0, t[0]]),
        ),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(oracle_factors, st.sampled_from([1, -1, 2, -3]))
def test_isolation_matches_a_rational_sturm_oracle(factors, unit):
    # repeated, non-monic and sign-flipped factors exercise the multiplier
    # |lc b|^k of the integer pseudo-remainders; the oracle divides over Q
    p = IntPolynomial([unit])
    for f, k in factors:
        p = p * IntPolynomial(f) ** k
    sf, chain = brute_squarefree_and_sturm(p.coeffs)
    # each integer member has the sign of its rational counterpart everywhere
    ours = _sturm_chain(list(p.coeffs))
    assert len(ours) == len(chain)
    for m in range(-21, 22):
        want = [fraction_value(f, Fraction(m, 2)) for f in chain]
        assert [_sign_at(f, m, 1) for f in ours] == [(v > 0) - (v < 0) for v in want]
    bound = 1 + Fraction(max(map(abs, p.coeffs)), abs(p.coeffs[-1]))  # Cauchy
    intervals = isolate_real_roots(p)
    assert len(intervals) == brute_sturm_count(chain, -bound, bound)
    for a, b in intervals:
        assert brute_sturm_count(chain, a, b) == 1
        assert fraction_value(sf, a) * fraction_value(sf, b) <= 0
    for (_, b1), (a2, _) in zip(intervals, intervals[1:]):
        assert b1 <= a2
    if intervals:
        lo, hi = largest_real_root_interval(p, Fraction(1, 10**6))
        assert hi - lo <= Fraction(1, 10**6) and brute_sturm_count(chain, hi, bound) == 0
        if lo == hi:
            assert fraction_value(sf, lo) == 0
        else:
            assert brute_sturm_count(chain, lo, hi) == 1


def test_a_square_free_polynomial_builds_one_remainder_sequence(monkeypatch):
    # p's sequence with p' is its chain: at most one pseudo-division per degree
    calls = [0]
    pdivmod = polynomial._pdivmod

    def counted(*args):
        calls[0] += 1
        return pdivmod(*args)

    def divisions(p: IntPolynomial) -> int:
        calls[0] = 0
        _isolate(p)
        return calls[0]

    monkeypatch.setattr(polynomial, "_pdivmod", counted)
    eight = IntPolynomial([1])
    for r in range(1, 9):
        eight = eight * poly(1, -r)
    for p in (extremal_cubic(40), char_poly_of_int_matrix(extremal_quotient_matrix(20)), eight):
        assert len(_isolate(p)[0][0]) - 1 == p.degree  # square-free
        assert divisions(p) <= p.degree, p
    # with repeated roots, the sequence ends at gcd(p, p') and the quotient gets its own
    assert divisions(char_poly_exact(extremal_graph(40))) <= 11


# -- isolation from the square-free part's root bound -------------------------

SHORTCUT_WIDTHS = (Fraction(1, 10**15), Fraction(1, 3), Fraction(2))
SHORTCUT_TOL = 1e-12


def _root_answers(p: IntPolynomial, others: list[IntPolynomial]) -> list:
    out = [isolate_real_roots(p), real_roots(p, SHORTCUT_TOL)]
    if out[0]:
        out += [[largest_real_root_interval(p, w) for w in SHORTCUT_WIDTHS]]
        out += [[compare_largest_real_roots(p, q) for q in others if real_roots(q)]]
    return out


def _meet_on_a_root(chain: list[list[int]], a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> bool:
    """True iff the shared part of two brackets, each (lo, hi] or the point (r, r),
    holds a root of the square-free part chain[0]."""
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if lo == hi:
        return fraction_value(chain[0], lo) == 0
    return lo < hi and brute_sturm_count(chain, lo, hi) == 1


def _assert_meets_the_search_from_p_s_own_bound(p: IntPolynomial, others: list[IntPolynomial]) -> None:
    chain = _isolate(p)[0]
    ours = _root_answers(p, others)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomial, "_isolate", reference_isolate)
        theirs = _root_answers(p, others)
    assert len(ours) == len(theirs) and len(ours[0]) == len(theirs[0]) and len(ours[1]) == len(theirs[1])
    assert all(_meet_on_a_root(chain, a, b) for a, b in zip(ours[0], theirs[0]))
    assert all(abs(x - y) <= 2 * SHORTCUT_TOL for x, y in zip(ours[1], theirs[1]))
    if ours[0]:
        assert all(_meet_on_a_root(chain, a, b) for a, b in zip(ours[2], theirs[2]))
        assert ours[3] == theirs[3]


def extremal_like(k: int) -> IntPolynomial:
    """(x + 1)^k (x - 1) times the extremal cubic of order k + 4: its char poly at k = n - 4."""
    return poly(1, 1) ** k * poly(1, -1) * extremal_cubic(k + 4)


def test_isolation_from_the_square_free_bound_meets_the_search_from_p_s_own_bound():
    # p's bound grows like 2^k while its square-free part's stays near k
    for k in range(1, 37):
        p = extremal_like(k)
        others = [extremal_cubic(k + 4), near_extremal_cubic(k + 4), extremal_like(max(k - 1, 1))]
        _assert_meets_the_search_from_p_s_own_bound(p, others)
    p = extremal_like(36)
    assert _root_bound(IntPolynomial(_isolate(p)[0][0])) < 100 and _root_bound(p) > 2**37


@settings(max_examples=150, deadline=None)
@given(
    oracle_factors.map(lambda fs: [(f, min(k + 1, 4)) for f, k in fs]),
    oracle_factors,
    st.sampled_from([1, -1, 2, -3]),
)
def test_isolation_from_the_square_free_bound_meets_it_on_products_with_multiplicity(factors, other, unit):
    # multiplicities up to 4 push p's bound far above its square-free part's
    p, q = IntPolynomial([unit]), IntPolynomial([1])
    for f, k in factors:
        p = p * IntPolynomial(f) ** k
    for f, k in other:
        q = q * IntPolynomial(f) ** k
    _assert_meets_the_search_from_p_s_own_bound(p, [q, q * p])


def _assert_isolates_within_the_square_free_bound(p: IntPolynomial) -> None:
    chain, intervals = _isolate(p)
    R = _root_bound(IntPolynomial(chain[0]))
    for lo, hi, e in intervals:
        assert -R << e <= lo < hi <= R << e, (p, R, (lo, hi, e))


def test_every_isolating_interval_lies_within_the_square_free_bound():
    _assert_isolates_within_the_square_free_bound(extremal_like(36))  # p's own bound is above 2^37
    _assert_isolates_within_the_square_free_bound(poly(1, -1) ** 40 * poly(1, 0, 1))  # one real root
    for n in range(5, 41):
        _assert_isolates_within_the_square_free_bound(char_poly_exact(extremal_graph(n)))
        _assert_isolates_within_the_square_free_bound(char_poly_exact(near_extremal_graph(n)))


def test_compare_reads_the_gcd_chain_far_beyond_its_own_bound():
    # the gcd chain is evaluated at the top intervals' ends: for x - 1 (bound 3) near 60
    assert compare_largest_real_roots(poly(1, -1) * poly(1, -60), poly(1, -1) * poly(1, -61)) == -1
    assert compare_largest_real_roots(poly(1, -1) * poly(1, -61), poly(1, -1) * poly(1, -60)) == 1
    assert compare_largest_real_roots(poly(1, -1) * poly(1, -60) ** 2, poly(1, -2) * poly(1, -60)) == 0


# -- root refinement: QIR on the bisection grid against bisection --------------

REFINE_WIDTHS = (Fraction(1, 10**15), Fraction(5, 10**13), Fraction(1, 3), Fraction(2))


def _assert_refines_like_bisection(p: IntPolynomial) -> None:
    """Every isolating interval refines to bisection's Fraction pair, and the public answers agree."""
    chain, intervals = _isolate(p)
    intervals = list(intervals)
    with fails_after(20):  # a bracket that loses the root can stall the search
        for width in REFINE_WIDTHS:
            want = [_fraction_pair(*reference_bisect(chain[0], iv, width)) for iv in intervals]
            assert [_fraction_pair(*_refine(chain[0], iv, width)) for iv in intervals] == want
            if want:
                assert largest_real_root_interval(p, width) == want[0]
        for tol in (1e-12, 1e-6, 0.5):
            bisected = (reference_bisect(chain[0], iv, _half_tol(tol)) for iv in intervals)
            assert real_roots(p, tol) == [(lo + hi) / (2 << e) for lo, hi, e in bisected][::-1]


def test_refinement_matches_bisection_on_the_family_char_polys():
    for n in range(5, 41):
        _assert_refines_like_bisection(char_poly_exact(extremal_graph(n)))
        _assert_refines_like_bisection(char_poly_exact(near_extremal_graph(n)))


def test_refinement_matches_bisection_on_the_quotient_polys():
    for n in range(5, 21):
        _assert_refines_like_bisection(char_poly_of_int_matrix(extremal_quotient_matrix(n)))
        _assert_refines_like_bisection(char_poly_of_int_matrix(near_extremal_quotient_matrix(n)))


@settings(max_examples=150, deadline=None)
@given(oracle_factors.map(lambda fs: [(f, min(k + 1, 4)) for f, k in fs]), st.sampled_from([1, -1, 2, -3]))
def test_refinement_matches_bisection_on_products_with_multiplicity(factors, unit):
    p = IntPolynomial([unit])
    for f, k in factors:
        p = p * IntPolynomial(f) ** k
    _assert_refines_like_bisection(p)


@pytest.mark.parametrize(
    "p, bisected",
    [
        (poly(1, -1, -6), [(48, 48, 4), (-16, -16, 3)]),  # roots 3 and -2 on midpoints of (-8, 8]
        (poly(8, -3), [(6, 6, 4)]),  # 3/8 on a midpoint of (-3, 3]
    ],
)
def test_refinement_returns_a_root_on_the_grid_as_a_point(p, bisected):
    chain, intervals = _isolate(p)
    width = Fraction(1, 10**15)
    for iv, want in zip(intervals, bisected):
        assert reference_bisect(chain[0], iv, width) == want
        lo, hi, e = _refine(chain[0], iv, width)
        assert lo == hi and _fraction_pair(lo, hi, e) == _fraction_pair(*want)
    _assert_refines_like_bisection(p)


def test_refinement_of_a_root_just_under_the_bound_it_is_given():
    # the interval's top is the bound: a root just under it puts the first
    # grid point, the top itself, right next to it
    for k in (1, 2, 3, 5, 78):
        for q in (3, 2**20 + 1, 10**9 + 7):
            p = IntPolynomial([-(k * q - 1), q]) * poly(1, 0, 1)  # root k - 1/q
            chain, intervals = _isolate(p)
            for iv in (*intervals, (k - 1, k, 0), (2 * k - 1, 2 * k, 1)):
                for width in REFINE_WIDTHS + (Fraction(1, q * q),):
                    want = _fraction_pair(*reference_bisect(chain[0], iv, width))
                    assert _fraction_pair(*_refine(chain[0], iv, width)) == want


def stress_polys(seed: int, count: int) -> list[IntPolynomial]:
    """Products of (q x - r) with q up to 2^20, some q powers of two: close roots, some dyadic."""
    rng = random.Random(seed)
    out = [poly(1, -1, -6), poly(8, -3), char_poly_exact(extremal_graph(40))]
    for _ in range(count):
        p = IntPolynomial([1])
        for _ in range(rng.randint(1, 5)):
            q = rng.choice([rng.randint(1, 2**20), 2 ** rng.randint(0, 20)])
            p = p * IntPolynomial([-rng.randint(-(2**22), 2**22), q]) ** rng.randint(1, 2)
        out.append(p)
    return out


def test_refinement_needs_at_most_twice_the_evaluations_of_bisection(monkeypatch):
    # plain regula falsi needs up to 6.75 times bisection's count on such products
    calls = [0]
    value_at = polynomial._value_at

    def counted(*args):
        calls[0] += 1
        return value_at(*args)

    def evaluations(refine, sf, iv, width):
        calls[0] = 0
        return refine(sf, iv, width), calls[0]

    monkeypatch.setattr(polynomial, "_value_at", counted)
    for p in stress_polys(34, 300):
        chain, intervals = _isolate(p)
        for iv in list(intervals):
            for width in REFINE_WIDTHS:
                want, bisections = evaluations(reference_bisect, chain[0], iv, width)
                got, steps = evaluations(_refine, chain[0], iv, width)
                assert _fraction_pair(*got) == _fraction_pair(*want)
                assert steps <= 2 * bisections + 2, (p, iv, width)


def test_no_prefix_of_the_refinement_falls_behind_bisection(monkeypatch):
    # replays the bracket (p, q] on grid indices from the values the refinement
    # sees: every point is on the level-E grid, q starts at the interval's top,
    # and after the values at q and at p = 0, the j-th evaluation leaves the
    # smallest aligned block of cells around (p, q] halved at least (j - 1) / 2
    # times
    seen = []
    value_at = polynomial._value_at

    def recorded(f, m, e):
        seen.append((m, e, value_at(f, m, e)))
        return seen[-1][2]

    monkeypatch.setattr(polynomial, "_value_at", recorded)
    for f in stress_polys(35, 150):
        chain, intervals = _isolate(f)
        for lo, hi, e in list(intervals):
            for width in REFINE_WIDTHS:
                seen.clear()
                E = _refine(chain[0], (lo, hi, e), width)[2]
                base, d = lo << E - e, hi - lo
                assert all(level == E and (m - base) % d == 0 for m, level, _ in seen)
                (q, vq), *rest = [((m - base) // d, v) for m, _, v in seen]
                assert base + q * d == hi << E - e
                p, s = 0, (q - 1).bit_length()
                for j, (i, v) in enumerate(rest[1:], 1):
                    if not v:
                        break
                    if (v > 0) == (vq > 0):
                        q = i
                    else:
                        p = i
                    assert 2 * (s - (p ^ (q - 1)).bit_length()) >= j - 1
