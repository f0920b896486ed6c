import math
import random
from itertools import combinations

import pytest

from signedspectra import SignedGraph, complete_signed
from signedspectra.cycles import cycle_sign
from signedspectra.families import extremal_graph, near_extremal_graph
from signedspectra.spectra import char_poly_exact
from signedspectra.switching import (
    forest_normal_form,
    is_balanced,
    switch,
    switching_equivalent,
    switching_isomorphic,
)

from conftest import (
    brute_switching_isomorphic,
    brute_switching_orbit_count,
    brute_switching_orbit_of,
    random_signed_graph,
    reference_is_balanced,
    reference_leaves,
    reference_switching_isomorphic,
    signing_bitmask,
    twin_rich_graphs,
)


def one_negative_triangle():
    return SignedGraph(3, {(0, 1): -1, (0, 2): 1, (1, 2): 1})


def test_switch_empty_set_is_identity():
    g = extremal_graph(6)
    assert switch(g, set()) == g


def test_switch_by_an_empty_set_returns_the_graph_itself():
    for g in (extremal_graph(40), SignedGraph(0, {}), one_negative_triangle()):
        assert switch(g, []) is g and switch(g, set()) is g and switch(g, iter(())) is g
    with pytest.raises(ValueError):
        switch(one_negative_triangle(), [3])  # a bad vertex is refused before anything is switched


def test_switch_involution():
    rng = random.Random(11)
    for _ in range(100):
        g = random_signed_graph(rng, rng.randint(1, 9))
        U = {v for v in range(g.n) if rng.random() < 0.5}
        assert switch(switch(g, U), U) == g


def test_switch_single_vertex_on_triangle():
    g = one_negative_triangle()
    h = switch(g, {0})
    assert h.sign(0, 1) == 1 and h.sign(0, 2) == -1 and h.sign(1, 2) == 1
    assert cycle_sign(h, (0, 1, 2)) == -1  # cycle sign untouched


def test_switch_rejects_bad_vertices():
    with pytest.raises(ValueError):
        switch(one_negative_triangle(), {3})


def test_balance_verdicts():
    assert is_balanced(complete_signed(5, 1)).balanced
    res = is_balanced(one_negative_triangle())
    assert not res.balanced
    assert res.negative_cycle is not None
    assert set(res.negative_cycle.vertices) == {0, 1, 2}
    assert not is_balanced(complete_signed(4, -1)).balanced
    # the result is truthy exactly when balanced
    assert bool(is_balanced(complete_signed(5, 1))) is True
    assert bool(res) is False


def test_balance_bisigning_certificate():
    rng = random.Random(12)
    for _ in range(200):
        g = random_signed_graph(rng, rng.randint(1, 8))
        res = is_balanced(g)
        if res.balanced:
            s = res.bisigning
            for u, v, sgn in g.edges():
                assert s[u] * s[v] == sgn
        else:
            w = res.negative_cycle
            assert cycle_sign(g, w.vertices) == -1


def test_is_balanced_matches_the_edge_walk():
    # the first violating row's lowest bit is the first violated edge of edges(): one witness
    rng = random.Random(58)
    balanced = 0
    for n in range(13):
        for _ in range(40):
            g = random_signed_graph(
                rng, n, edge_prob=rng.choice((0.2, 0.4, 0.7)), neg_prob=rng.choice((0.0, 0.1, 0.5))
            )
            g = switch(g, [v for v in range(n) if rng.random() < 0.5])
            got = is_balanced(g)
            assert got == reference_is_balanced(g), g.edges()  # every field: verdict, bisigning, witness
            balanced += got.balanced
    assert 0 < balanced < 13 * 40


def test_balanced_iff_switch_of_all_positive():
    rng = random.Random(13)
    for _ in range(200):
        base = random_signed_graph(rng, rng.randint(1, 7), neg_prob=0.0)
        U = {v for v in range(base.n) if rng.random() < 0.5}
        assert is_balanced(switch(base, U)).balanced
        g = random_signed_graph(rng, rng.randint(1, 7))
        allpos = SignedGraph(g.n, {e: 1 for e in g.edge_set()})
        assert is_balanced(g).balanced == switching_equivalent(g, allpos)


def test_normal_form_tree():
    tree = SignedGraph(4, {(0, 1): -1, (1, 2): 1, (1, 3): -1})
    nf = forest_normal_form(tree)
    assert nf.cotree_signs == ()
    assert all(nf.normalized.sign(u, v) == 1 for u, v in nf.forest)
    assert switching_equivalent(nf.normalized, tree)


def test_normal_form_balanced_graph_is_all_positive():
    rng = random.Random(14)
    for _ in range(100):
        base = random_signed_graph(rng, rng.randint(2, 7), neg_prob=0.0)
        U = {v for v in range(base.n) if rng.random() < 0.5}
        nf = forest_normal_form(switch(base, U))
        assert all(s == 1 for _, s in nf.cotree_signs)


def test_normal_form_extremal_has_one_negative_cotree_edge():
    for n in (5, 6, 8):
        nf = forest_normal_form(extremal_graph(n))
        assert sum(1 for _, s in nf.cotree_signs if s < 0) == 1


def test_normal_form_extremal5_matches_brute_orbit():
    # the normalized signing must lie in the switching orbit of the input
    g = extremal_graph(5)
    nf = forest_normal_form(g)
    orbit = brute_switching_orbit_of(g)
    assert signing_bitmask(nf.normalized) in orbit


def test_switching_equivalent_basic():
    rng = random.Random(15)
    g = random_signed_graph(rng, 6)
    U = {0, 2, 5}
    assert switching_equivalent(g, switch(g, U))
    assert not switching_equivalent(one_negative_triangle(), complete_signed(3, 1))
    with pytest.raises(ValueError):
        switching_equivalent(one_negative_triangle(), complete_signed(4, 1))


def test_switching_equivalent_matches_orbits_exhaustively():
    # every pair of signings of each underlying graph on up to 4 vertices
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(2, 4)
        base = random_signed_graph(rng, n, edge_prob=0.7, neg_prob=0.0)
        edges = sorted(base.edge_set())
        m = len(edges)
        for sa in range(1 << m):
            ga = SignedGraph(n, {e: -1 if (sa >> i) & 1 else 1 for i, e in enumerate(edges)})
            orbit = brute_switching_orbit_of(ga)
            for sb in range(1 << m):
                gb = SignedGraph(n, {e: -1 if (sb >> i) & 1 else 1 for i, e in enumerate(edges)})
                assert switching_equivalent(ga, gb) == (sb in orbit)


def test_switching_equivalence_relation_properties():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 6)
        base = random_signed_graph(rng, n)
        edges = sorted(base.edge_set())
        resign = lambda: SignedGraph(  # noqa: E731
            n, {e: rng.choice((-1, 1)) for e in edges}
        )
        a, b, c = resign(), resign(), resign()
        assert switching_equivalent(a, a)
        assert switching_equivalent(a, b) == switching_equivalent(b, a)
        if switching_equivalent(a, b) and switching_equivalent(b, c):
            assert switching_equivalent(a, c)


def test_spectrum_invariance_exact():
    rng = random.Random(18)
    for _ in range(50):
        g = random_signed_graph(rng, rng.randint(1, 7))
        U = {v for v in range(g.n) if rng.random() < 0.5}
        assert char_poly_exact(g) == char_poly_exact(switch(g, U))


def test_reachable_cotree_assignments_count():
    # for connected graphs the orbit count over all signings is 2^(m-n+1)
    rng = random.Random(19)
    checked = 0
    while checked < 25:
        g = random_signed_graph(rng, rng.randint(2, 5), edge_prob=0.8)
        if len(g.components()) != 1:
            continue
        checked += 1
        assert brute_switching_orbit_count(g) == 2 ** (g.m - g.n + 1)


def test_switching_isomorphic_relabels():
    rng = random.Random(20)
    g = extremal_graph(5)
    perm = list(range(5))
    rng.shuffle(perm)
    h = switch(g.relabel(perm), {1, 3})
    ok, witness = switching_isomorphic(h, g)
    assert ok
    assert switching_equivalent(h.relabel(witness), g)


def test_switching_isomorphic_negative_cases():
    g5 = extremal_graph(5)
    ok, _ = switching_isomorphic(g5, near_extremal_graph(5))
    assert not ok
    ok, _ = switching_isomorphic(g5, complete_signed(5, -1))
    assert not ok
    with pytest.raises(ValueError):
        switching_isomorphic(g5, extremal_graph(6))
    # K8 has 8! leaves; a balance mismatch must answer before walking them
    k8 = complete_signed(8, 1)
    one_negative = SignedGraph(8, {e: -1 if e == (0, 1) else 1 for e in k8.edge_set()})
    assert switching_isomorphic(k8, one_negative) == (False, None)
    assert switching_isomorphic(one_negative, k8) == (False, None)
    # equal balance, not switching isomorphic: vertex invariants answer, not 8! leaves
    two_negative = SignedGraph(
        8, {e: -1 if e in ((0, 1), (2, 3)) else 1 for e in k8.edge_set()}
    )
    assert switching_isomorphic(one_negative, two_negative) == (False, None)
    assert switching_isomorphic(two_negative, one_negative) == (False, None)


def _degree_preserving_swap(rng: random.Random, g: SignedGraph) -> SignedGraph:
    """Replace edges uv, xy by uy, xv (fresh random signs) where that is simple."""
    table = {e: g.sign(*e) for e in g.edge_set()}
    edges = sorted(table)
    if len(edges) < 2:
        return g
    for _ in range(20):
        (u, v), (x, y) = rng.sample(edges, 2)
        if len({u, v, x, y}) == 4 and not g.has_edge(u, y) and not g.has_edge(x, v):
            del table[(u, v)], table[(x, y)]
            table[(min(u, y), max(u, y))] = rng.choice((1, -1))
            table[(min(x, v), max(x, v))] = rng.choice((1, -1))
            break
    return SignedGraph(g.n, table)


def test_switching_isomorphic_matches_permutation_oracle():
    rng = random.Random(64)
    pairs = []
    for n in range(3, 7):
        for _ in range(8):
            a = random_signed_graph(rng, n, edge_prob=rng.choice((0.4, 0.6, 0.8)))
            perm = list(range(n))
            rng.shuffle(perm)
            switched = {v for v in range(n) if rng.random() < 0.5}
            resigned = SignedGraph(n, {e: rng.choice((1, -1)) for e in a.edge_set()})
            pairs.append(("copy", a, switch(a.relabel(perm), switched)))
            pairs.append(("same underlying", a, resigned.relabel(perm)))
            pairs.append(("same degrees", a, _degree_preserving_swap(rng, a).relabel(perm)))
    # a 6-cycle and two triangles: equal degree sequences, different underlying graphs
    hexagon = SignedGraph(6, {(0, 1): -1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (0, 5): 1})
    triangles = SignedGraph(6, {(0, 1): -1, (0, 2): 1, (1, 2): 1, (3, 4): 1, (3, 5): 1, (4, 5): 1})
    pairs.append(("same degrees", hexagon, triangles))
    # two trees with degrees 3,2,2,1,1,1 (branches 2,2,1 and 3,1,1): no cotree at all
    spider = SignedGraph(6, {(0, 1): 1, (1, 2): -1, (0, 3): 1, (3, 4): 1, (0, 5): 1})
    broom = SignedGraph(6, {(0, 1): 1, (1, 2): 1, (2, 3): -1, (0, 4): 1, (0, 5): 1})
    pairs.append(("same degrees", spider, broom))
    # complete multipartite graphs and their complements, rich in signed twins
    for n in range(3, 8):
        for _ in range(3):
            for edges in twin_rich_graphs(rng, n)[:2]:
                a, c = _twin_rich_signing(rng, n, edges), _twin_rich_signing(rng, n, edges)
                perm = list(range(n))
                rng.shuffle(perm)
                switched = {v for v in range(n) if rng.random() < 0.5}
                pairs.append(("twin-rich", a, switch(a.relabel(perm), switched)))
                pairs.append(("twin-rich", a, c.relabel(perm)))
    answers: dict[str, set[bool]] = {}
    for kind, a, b in pairs:
        ok, pi = switching_isomorphic(a, b)
        assert ok == brute_switching_isomorphic(a, b), (kind, a, b)
        if ok:
            assert switching_equivalent(a.relabel(pi), b)
        else:
            assert pi is None
        if sorted(map(a.degree, range(a.n))) == sorted(map(b.degree, range(b.n))):
            answers.setdefault(kind, set()).add(ok)
    assert answers == {
        "copy": {True},
        "same underlying": {True, False},
        "same degrees": {True, False},
        "twin-rich": {True, False},
    }


def _twin_rich_signing(rng: random.Random, n: int, edges) -> SignedGraph:
    """0-2 negative edges, or a switched all-positive signing with one edge flipped."""
    edges = sorted(edges)
    if rng.random() < 0.5:
        negative = set(rng.sample(edges, min(len(edges), rng.randint(0, 2))))
        return SignedGraph(n, {e: -1 if e in negative else 1 for e in edges})
    flipped = rng.choice(edges) if edges else None
    g = SignedGraph(n, {e: -1 if e == flipped else 1 for e in edges})
    return switch(g, {v for v in range(n) if rng.random() < 0.5})


def _signed_twins(g: SignedGraph, u: int, v: int) -> bool:
    """Pairwise definition: N(u) - v = N(v) - u and one value of sigma(uw) sigma(vw)."""
    nu = {w for w in range(g.n) if w not in (u, v) and g.has_edge(u, w)}
    nv = {w for w in range(g.n) if w not in (u, v) and g.has_edge(v, w)}
    return nu == nv and len({g.sign(u, w) * g.sign(v, w) for w in nu}) <= 1


def test_signed_twin_classes_match_the_pairwise_definition():
    from signedspectra.core import _bitsets
    from signedspectra.switching import _twin_classes

    rng = random.Random(66)
    transpositions = {1: 0, -1: 0}
    for _ in range(60):
        n = rng.randint(2, 8)
        for edges in twin_rich_graphs(rng, n):
            if rng.random() < 0.3:
                g = SignedGraph(n, {e: rng.choice((1, -1)) for e in edges})
            else:
                g = _twin_rich_signing(rng, n, edges)
            adj = _bitsets(n, g.edge_set())
            neg = _bitsets(n, [(u, v) for u, v, s in g.edges() if s < 0])
            classes = _twin_classes(adj, neg)
            assert sorted(v for c in classes for v in c) == list(range(n))
            cls = {v: i for i, c in enumerate(classes) for v in c}
            for u, v in combinations(range(n), 2):
                assert (cls[u] == cls[v]) == _signed_twins(g, u, v), (g, u, v)
            for c in classes:
                for u, v in combinations(c, 2):
                    tau = list(range(n))
                    tau[u], tau[v] = v, u
                    common = [w for w in range(n) if w not in (u, v) and g.has_edge(u, w)]
                    product = g.sign(u, common[0]) * g.sign(v, common[0]) if common else 1
                    h = g.relabel(tau)
                    if product < 0:
                        h = switch(h, {u, v})
                    assert h == g and switching_equivalent(g.relabel(tau), g), (g, u, v)
                    transpositions[product] += 1
    assert min(transpositions.values()) > 50, transpositions
    # the converse fails: (0 2) is a switching automorphism of this C4 but 0, 2
    # are not signed twins (sigma(01) sigma(21) = -1, sigma(03) sigma(23) = +1)
    c4 = SignedGraph(4, {(0, 1): 1, (1, 2): -1, (2, 3): 1, (0, 3): 1})
    assert switching_equivalent(c4.relabel([2, 1, 0, 3]), c4)
    assert not _signed_twins(c4, 0, 2)
    assert _twin_classes(_bitsets(4, c4.edge_set()), _bitsets(4, [(1, 2)])) == [[0], [1], [2], [3]]


@pytest.mark.parametrize("m", range(2, 10))
def test_signed_twin_walk_leaf_count_on_complete_bipartite(m):
    # a count, not a timing: the unpruned walk has 2 (m!)^2 leaves on K_{m,m}
    from signedspectra.core import _bitsets
    from signedspectra.switching import _leaves, _twin_classes

    edges = frozenset((i, m + j) for i in range(m) for j in range(m))
    adj = _bitsets(2 * m, edges)
    classes = _twin_classes(adj, _bitsets(2 * m, [(0, m)]))
    assert sum(1 for _ in _leaves(adj, classes)) <= 2 * m * m
    if m <= 4:
        singletons = [[v] for v in range(2 * m)]
        assert sum(1 for _ in _leaves(adj, singletons)) == 2 * math.factorial(m) ** 2
    if m in (5, 6):
        # one negative edge against two negative edges at one vertex
        a = SignedGraph(2 * m, {e: -1 if e == (0, m) else 1 for e in edges})
        b = SignedGraph(2 * m, {e: -1 if e in ((0, m), (0, m + 1)) else 1 for e in edges})
        assert switching_isomorphic(a, b) == (False, None)


@pytest.mark.parametrize("seed", range(40))
def test_invariant_partition_bounds_the_walk_on_k11_minus_a_path(seed):
    # a count, not a timing: from the unit partition a's tree has over 1000
    # leaves at every seed (80,640 at seed 29, seconds per call); from the
    # (degree, (A^3)_vv) cells it has at most 36 (12 at seed 29)
    from itertools import islice

    from signedspectra.core import _bitsets
    from signedspectra.switching import _leaves, _twin_classes, _vertex_invariants

    rng = random.Random(seed)
    edges = [e for e in combinations(range(11), 2) if e not in ((3, 6), (4, 6))]
    a = SignedGraph(11, {e: rng.choice((1, -1)) for e in edges})
    perm = list(range(11))
    rng.shuffle(perm)
    b = switch(a.relabel(perm), [v for v in range(11) if rng.random() < 0.5])
    adj = _bitsets(11, edges)
    classes = _twin_classes(adj, _bitsets(11, [(u, v) for u, v, s in a.edges() if s < 0]))
    start = list(_vertex_invariants(a.adjacency_matrix()).values())
    assert sum(1 for _ in islice(_leaves(adj, classes, start), 1001)) <= 36
    found, pi = switching_isomorphic(a, b)
    assert found and switching_equivalent(a.relabel(pi), b)


def _switching_triples(rng: random.Random, count: int):
    """Seeded triples (a, c, b) of orders 1-12: c is a switching of a, a quarter of
    them with one sign flipped, or a re-signing of a's underlying graph, and b is c
    relabelled.  a is edgeless or split into two components in some triples."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        cut = rng.randint(1, n) if rng.random() < 0.25 else n  # no edge joins [0, cut) to [cut, n)
        p = rng.choice((0.0, 0.3, 0.6, 0.9))
        a = SignedGraph(n, {
            (u, v): rng.choice((1, -1))
            for u, v in combinations(range(n), 2)
            if (u < cut) == (v < cut) and rng.random() < p
        })
        if rng.random() < 0.2:
            c = SignedGraph(n, {e: rng.choice((1, -1)) for e in a.edge_set()})
        else:
            c = switch(a, {v for v in range(n) if rng.random() < 0.5})
            if a.m and rng.random() < 0.25:
                u, v, s = rng.choice(c.edges())
                c = c.set_edge(u, v, -s)
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((a, c, c.relabel(perm)))
    return out


def test_switching_isomorphic_matches_the_reference_search():
    # the bitset search must visit the same leaves and accept the same first pi
    triples = _switching_triples(random.Random(2901), 2400)
    found = {True: 0, False: 0}
    for a, _, b in triples:
        result = switching_isomorphic(a, b)
        assert result == reference_switching_isomorphic(a, b), (a.to_sg(), b.to_sg())
        if a.n <= 6:
            assert result[0] == brute_switching_isomorphic(a, b), (a.to_sg(), b.to_sg())
        found[result[0]] += 1
    assert min(found.values()) > 300, found
    assert any(a.m == 0 for a, _, _ in triples)
    assert any(len(a.components()) > 1 < a.m for a, _, _ in triples)


def _planted_twin_graph(rng: random.Random, n: int) -> frozenset:
    """Edges of a seeded order-n graph built from planted twin classes: each class a
    clique or independent, each pair of classes wholly joined or not, relabelled."""
    k = rng.randint(1, n)
    cls = sorted(rng.randrange(k) for _ in range(n))  # ascending, so cls[u] <= cls[v] for u < v
    clique = [rng.random() < 0.5 for _ in range(k)]
    joined = {pair for pair in combinations(range(k), 2) if rng.random() < 0.5}
    edges = {
        (u, v)
        for u, v in combinations(range(n), 2)
        if (clique[cls[u]] if cls[u] == cls[v] else (cls[u], cls[v]) in joined)
    }
    perm = list(range(n))
    rng.shuffle(perm)
    return SignedGraph(n, {e: 1 for e in edges}).relabel(perm).edge_set()


def test_twin_cells_split_in_one_step_give_the_per_level_walk():
    # every leaf, in order, as when each vertex of a twin cell is individualized and refined
    from itertools import islice

    from signedspectra.core import _bitsets
    from signedspectra.switching import _leaves, _twin_classes, _vertex_invariants

    rng = random.Random(3501)
    shapes = [(n, list(combinations(range(n), 2))) for n in range(1, 11)]  # K_n
    shapes += [(2 * m, [(i, m + j) for i in range(m) for j in range(m)]) for m in range(1, 7)]
    for sizes in ((1, 2), (2, 2, 2), (3, 1, 2), (1, 1, 4), (2, 3, 4), (3, 3, 3), (1, 2, 3, 4)):
        part = [i for i, size in enumerate(sizes) for _ in range(size)]
        shapes.append((len(part), [(u, v) for u, v in combinations(range(len(part)), 2) if part[u] != part[v]]))
    shapes += [(n, _planted_twin_graph(rng, n)) for _ in range(12) for n in range(1, 13)]
    graphs = [g for n, edges in shapes for g in (SignedGraph(n, {e: 1 for e in edges}), _twin_rich_signing(rng, n, edges))]
    graphs += [family(n) for family in (extremal_graph, near_extremal_graph) for n in range(5, 21)]
    collapsed = {"unsigned": 0, "signed": 0}
    for g in graphs:
        adj = _bitsets(g.n, g.edge_set())
        signed = _twin_classes(adj, _bitsets(g.n, [(u, v) for u, v, s in g.edges() if s < 0]))
        kinds = {"unsigned": _twin_classes(adj), "signed": signed, "singletons": [[v] for v in range(g.n)]}
        for kind, classes in kinds.items():
            for start in (None, list(_vertex_invariants(g.adjacency_matrix()).values())):
                leaves = list(islice(_leaves(adj, classes, start), 500))
                assert leaves == list(islice(reference_leaves(adj, classes, start), 500)), (g.to_sg(), kind)
            if kind in collapsed:
                collapsed[kind] += any(len(c) > 1 for c in classes)
    assert min(collapsed.values()) > 200, collapsed


@pytest.mark.parametrize("family", [extremal_graph, near_extremal_graph])
def test_switching_isomorphic_refines_at_most_4_times_on_the_families(monkeypatch, family):
    # a count, not a timing: one refinement per individualized twin took 76 per call at order 40
    from signedspectra import switching

    calls = []
    refine = switching._refine
    monkeypatch.setattr(switching, "_refine", lambda *args: calls.append(args) or refine(*args))
    rng = random.Random(3502)
    g = family(40)
    for _ in range(5):
        perm = list(range(40))
        rng.shuffle(perm)
        h = switch(g.relabel(perm), {v for v in range(40) if rng.random() < 0.5})
        calls.clear()
        found, pi = switching_isomorphic(h, g)
        assert found and switching_equivalent(h.relabel(pi), g)
        assert len(calls) <= 4, len(calls)


def test_switching_isomorphic_on_orders_0_to_2_and_edgeless_graphs():
    # order 0 indexes the matrices with an empty permutation, which must be an integer array
    one = SignedGraph(2, {(0, 1): -1})
    cases = [(SignedGraph(n), SignedGraph(n)) for n in range(6)]
    cases += [(one, switch(one, {0})), (switch(one, {1}), one), (one, one)]
    for a, b in cases:
        assert switching_isomorphic(a, b) == (True, tuple(range(a.n))) == reference_switching_isomorphic(a, b)
    assert switching_isomorphic(SignedGraph(2), one) == (False, None)


def test_switching_equivalent_matches_the_balance_of_the_product_graph():
    answers = {True: 0, False: 0}
    for a, c, b in _switching_triples(random.Random(2902), 1500):
        product = SignedGraph(a.n, {(u, v): s * c.sign(u, v) for u, v, s in a.edges()})
        answer = switching_equivalent(a, c)
        assert answer == is_balanced(product).balanced
        answers[answer] += 1
        if b.edge_set() != a.edge_set():
            with pytest.raises(ValueError):
                switching_equivalent(a, b)
    assert min(answers.values()) > 200, answers


def test_switch_matches_the_validated_construction():
    rng = random.Random(2903)
    for a, _, _ in _switching_triples(rng, 500):
        before = a.to_sg()
        U = {v for v in range(a.n) if rng.random() < 0.5}
        expected = SignedGraph(a.n, {(u, v): -s if (u in U) != (v in U) else s for u, v, s in a.edges()})
        out = switch(a, U)
        assert out == expected and out.to_sg() == expected.to_sg() and hash(out) == hash(expected)
        assert out.edges() == expected.edges()
        assert a.to_sg() == before


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_pairs_hold_one_canonical_tuple_per_vertex_pair(n):
    from signedspectra.switching import _pairs

    table = _pairs(n)
    for a in range(n):
        for b in range(n):
            assert table[a][b] == (min(a, b), max(a, b)) and table[a][b] is table[b][a]
