import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from signedspectra.polynomial import (
    IntPolynomial,
    compare_largest_real_roots,
    isolate_real_roots,
    largest_real_root,
    largest_real_root_interval,
    real_roots,
    root_multiplicity_exact,
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
