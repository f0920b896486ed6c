import math
from fractions import Fraction

import pytest

from signedspectra import SignedGraph
from signedspectra.cycles import is_ck_negative_free
from signedspectra.families import (
    FamilySpec,
    extremal_cubic,
    extremal_graph,
    extremal_index_root,
    extremal_partition,
    extremal_quotient_matrix,
    near_extremal_cubic,
    near_extremal_graph,
    near_extremal_partition,
    near_extremal_quotient_matrix,
)
from signedspectra.polynomial import IntPolynomial, real_roots
from signedspectra.spectra import (
    char_poly_exact,
    char_poly_of_int_matrix,
    index,
    quotient_matrix,
)
from signedspectra.switching import is_balanced

from conftest import reference_extremal_graph, reference_near_extremal_graph

X_MINUS_1 = IntPolynomial([-1, 1])
X_PLUS_1 = IntPolynomial([1, 1])
X = IntPolynomial([0, 1])


def test_family_rows_match_their_edge_tables():
    # the rows are built directly; the tables go through every constructor check
    for n in range(5, 61):
        assert extremal_graph(n) == reference_extremal_graph(n)
        assert near_extremal_graph(n) == reference_near_extremal_graph(n)


def test_extremal_graph_structure():
    g = extremal_graph(5)
    assert g.m == 6
    assert g.sign(0, 1) == -1
    assert g.sign(0, 2) == 1 and g.sign(1, 2) == 1
    sub, _ = g.induced_subgraph(range(2, 5))
    assert sub == SignedGraph.complete(3, 1)
    with pytest.raises(ValueError):
        extremal_graph(4)


def test_family_members_are_unbalanced_and_c4_negative_free():
    for n in range(5, 13):
        for g in (extremal_graph(n), near_extremal_graph(n)):
            assert not is_balanced(g).balanced
            assert is_ck_negative_free(g, 4)


def test_near_extremal_structure():
    g = near_extremal_graph(7)
    assert [g.degree(v) for v in range(7)] == [3, 3, 5, 5, 4, 4, 4]
    assert not g.has_edge(2, 3)
    assert all(not g.has_edge(a, w) for a in (0, 1) for w in range(4, 7))
    with pytest.raises(ValueError):
        near_extremal_graph(4)


def test_cubics_are_as_displayed():
    assert extremal_cubic(5) == IntPolynomial([0, -5, 0, 1])  # x^3 - 5x
    # quartic = (x-1) * cubic takes value -2n+8 at n-3, (n-3)^2 (n+1) at n-2
    for n in range(5, 41):
        quartic = X_MINUS_1 * extremal_cubic(n)
        assert quartic(n - 3) == -2 * n + 8
        assert quartic(n - 2) == (n - 3) ** 2 * (n + 1)
        assert extremal_cubic(n)(n - 3) == -2
    for n in range(7, 41):
        h = near_extremal_cubic(n)
        assert h(n - 4) < 0
        assert h(n - 3) > 0
        assert h(0) > 0


def test_extremal_index_root_values():
    assert extremal_index_root(5) == pytest.approx(math.sqrt(5), abs=1e-12)
    for n in range(5, 41):
        root = extremal_index_root(n)
        assert n - 3 < root < n - 2
        assert abs(extremal_cubic(n)(root)) < 1e-8


def test_chain_premise_holds_at_every_order():
    # f = extremal_cubic(n - 1) and x0 = P / Q = (n-3)(n-2) / (n-1) give
    # f(x0 + y) = value(n) / Q^3 + slope(n) / Q^2 y + curve(n) / Q y^2 + y^3, and the
    # three are positive for n >= 5; so f > 0 on [x0, oo), and for every n >= 6
    # lambda_ref(n-1) < x0 < lambda_ref(n)(n-2)/(n-1), as lambda_ref(n) > n - 3
    value = IntPolynomial([48, -78, 54, -18, 2])
    slope = IntPolynomial([43, -52, 28, -8, 1])
    curve = IntPolynomial([12, -8, 2])
    assert [round(r, 3) for r in real_roots(value)] == [1.676, 4.924]
    assert real_roots(slope) == real_roots(curve) == []
    assert value(5) > 0 and slope(5) > 0 and curve(5) > 0
    for n in (6, 7, 12, 40, 1001):
        f, P, Q = extremal_cubic(n - 1), (n - 3) * (n - 2), n - 1
        x0 = Fraction(P, Q)
        assert Q**3 * f(x0) == value(n)
        assert Q**2 * f.derivative()(x0) == slope(n)
        assert Q * f.derivative().derivative()(x0) / 2 == curve(n)
    for n in range(6, 501):  # float oracle
        x0 = (n - 3) * (n - 2) / (n - 1)
        assert extremal_index_root(n - 1) < x0 < extremal_index_root(n) * (n - 2) / (n - 1), n


def test_index_matches_cubic_root():
    for n in (5, 6, 11, 24, 40):
        assert abs(extremal_index_root(n) - index(extremal_graph(n))) <= 1e-9


def test_quotient_matrices_match_adjacency_quotients():
    for n in (5, 7, 13):
        res = quotient_matrix(extremal_graph(n).adjacency_matrix(), extremal_partition(n))
        assert (res.matrix == extremal_quotient_matrix(n)).all()
        res2 = quotient_matrix(
            near_extremal_graph(n).adjacency_matrix(), near_extremal_partition(n)
        )
        assert (res2.matrix == near_extremal_quotient_matrix(n)).all()


def test_quotient_char_polys_factor_exactly():
    for n in range(5, 21):
        q1 = char_poly_of_int_matrix(extremal_quotient_matrix(n))
        assert q1 == X_MINUS_1 * extremal_cubic(n)
        q2 = char_poly_of_int_matrix(near_extremal_quotient_matrix(n))
        assert q2 == X_MINUS_1 * near_extremal_cubic(n)


def test_extremal_spectrum_identity_small_orders():
    for n in range(5, 13):
        expected = (X_PLUS_1 ** (n - 4)) * X_MINUS_1 * extremal_cubic(n)
        assert char_poly_exact(extremal_graph(n)) == expected


def test_near_extremal_charpoly_divisibility():
    for n in range(7, 41):
        factor = X * (X_PLUS_1 ** (n - 5)) * X_MINUS_1 * near_extremal_cubic(n)
        p = char_poly_exact(near_extremal_graph(n))
        # same degree and both monic, so divisibility is outright equality
        assert p == factor
        if n <= 10:
            assert factor.divides(p)


def test_index_ordering_between_families():
    for n in (5, 6, 7, 10, 16):
        lam2 = index(near_extremal_graph(n))
        lam1 = index(extremal_graph(n))
        assert lam2 < lam1
        if n >= 7:
            assert lam2 < n - 3


def test_family_spec():
    assert FamilySpec("extremal", 6).build() == extremal_graph(6)
    assert FamilySpec("kn-", 4).build() == SignedGraph.complete(4, -1)
    with pytest.raises(ValueError):
        FamilySpec("extremal", 4)
    with pytest.raises(ValueError):
        FamilySpec("mystery", 6)
