import random

import pytest

from signedspectra import SignedGraph, complete_signed
from signedspectra.cycles import (
    CycleWitness,
    _c4_negative_free_bits,
    cycle_sign,
    double_cover,
    find_negative_ck,
    is_ck_negative_free,
    shortest_negative_cycle,
)
from signedspectra.families import extremal_graph, near_extremal_graph
from signedspectra.proofmoves import random_unbalanced_c4free
from signedspectra.switching import is_balanced, switch

from conftest import (
    brute_cycles_permutations,
    brute_least_negative_cycle,
    brute_shortest_negative_length,
    random_fundamental_cycle,
    random_signed_graph,
    reference_find_negative_ck,
)


def c4_with_negatives(k):
    signs = [-1] * k + [1] * (4 - k)
    return SignedGraph(4, {(0, 1): signs[0], (1, 2): signs[1], (2, 3): signs[2], (0, 3): signs[3]})


def test_cycle_sign_counts_negative_edges():
    assert cycle_sign(c4_with_negatives(0), (0, 1, 2, 3)) == 1
    assert cycle_sign(c4_with_negatives(2), (0, 1, 2, 3)) == 1
    assert cycle_sign(c4_with_negatives(1), (0, 1, 2, 3)) == -1


def test_cycle_sign_rejects_non_cycles():
    g = c4_with_negatives(0)
    with pytest.raises(ValueError):
        cycle_sign(g, (0, 1, 2))  # (2,0) is not an edge
    with pytest.raises(ValueError):
        cycle_sign(g, (0, 1))
    with pytest.raises(ValueError):
        cycle_sign(g, (0, 1, 2, 1))


def test_find_negative_ck_on_families():
    for n in (5, 6, 9):
        g = extremal_graph(n)
        assert find_negative_ck(g, 4) is None
        w = find_negative_ck(g, 3)
        assert w is not None and w.vertices == (0, 1, 2) and w.sign == -1
    assert find_negative_ck(complete_signed(5, -1), 4) is None


def test_all_negative_complete_graphs_have_no_negative_even_cycles():
    # every even cycle in an all-negative graph carries an even number of
    # negative edges, while odd cycles are all negative
    for n in (4, 6, 7):
        g = complete_signed(n, -1)
        for k in range(3, n + 1):
            assert is_ck_negative_free(g, k) == (k % 2 == 0)


def test_find_negative_ck_matches_permutation_oracle():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(3, 6)
        g = random_signed_graph(rng, n, edge_prob=0.55)
        for k in range(3, n + 1):
            expected = any(s < 0 for _, s in brute_cycles_permutations(g, k))
            got = find_negative_ck(g, k)
            assert (got is not None) == expected
            if got is not None:
                assert got.length == k and cycle_sign(g, got.vertices) == -1


def test_find_negative_ck_matches_the_dict_search():
    # the bitset DFS visits the anchored paths in the dict DFS's order, so both give one witness
    rng = random.Random(57)
    hits = misses = 0
    for n in range(13):
        for _ in range(12):
            g = random_signed_graph(
                rng, n, edge_prob=rng.choice((0.2, 0.4, 0.7)), neg_prob=rng.choice((0.0, 0.1, 0.5))
            )
            for k in range(3, 9):
                got = find_negative_ck(g, k)
                assert got == reference_find_negative_ck(g, k), (g.edges(), k)
                hits += got is not None
                misses += got is None and k <= n
    assert hits and misses


def test_c4_two_path_criterion_matches_path_dfs():
    # is_ck_negative_free(g, 4) decides by 2-path signs on neighbour
    # bitsets; find_negative_ck runs the independent path DFS
    rng = random.Random(38)
    seen = set()
    for _ in range(3000):
        n = rng.randint(0, 12)
        g = random_signed_graph(
            rng, n, edge_prob=rng.choice((0.2, 0.4, 0.7)), neg_prob=rng.choice((0.1, 0.3, 0.5))
        )
        free = is_ck_negative_free(g, 4)
        assert free == (find_negative_ck(g, 4) is None)
        seen.add(free)
    assert seen == {True, False}


def test_c4_two_path_criterion_matches_permutation_oracle():
    rng = random.Random(39)
    for _ in range(400):
        g = random_signed_graph(rng, rng.randint(0, 6), edge_prob=rng.choice((0.3, 0.6, 0.9)))
        expected = not any(s < 0 for _, s in brute_cycles_permutations(g, 4))
        assert is_ck_negative_free(g, 4) == expected


def sign_bitsets(g):
    pos = [0] * g.n
    neg = [0] * g.n
    for u, v, s in g.edges():
        bits = pos if s > 0 else neg
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return pos, neg


def test_closing_edge_test_matches_the_whole_graph_test():
    # on a negative-C4-free graph, uv of sign s closes a negative 4-cycle iff
    # the graph with uv added fails the pairs test at u, and at v, alone
    rng = random.Random(41)
    hosts = [
        random_unbalanced_c4free(n, random.Random(seed)) for n in range(4, 13) for seed in range(4)
    ]
    while len(hosts) < 100:
        g = random_signed_graph(
            rng, rng.randint(4, 12), edge_prob=rng.choice((0.2, 0.3, 0.5)), neg_prob=0.3
        )
        if is_ck_negative_free(g, 4):
            hosts.append(g)
    seen = set()
    for g in hosts:
        pos, neg = sign_bitsets(g)
        for u in range(g.n):
            for v in range(g.n):
                if u == v or g.has_edge(u, v):
                    continue
                for s in (1, -1):
                    bits = pos if s > 0 else neg
                    bits[u] |= 1 << v
                    bits[v] |= 1 << u
                    expected = not _c4_negative_free_bits(pos, neg)
                    for at in ((u,), (v,)):
                        assert _c4_negative_free_bits(pos, neg, at) != expected, (g.to_sg(), u, v, s)
                    bits[u] ^= 1 << v
                    bits[v] ^= 1 << u
                    seen.add(expected)
    assert seen == {True, False}


def test_is_ck_negative_free():
    for n in (5, 7, 10):
        assert is_ck_negative_free(near_extremal_graph(n), 4)
    assert not is_ck_negative_free(c4_with_negatives(1), 4)
    rng = random.Random(32)
    for _ in range(50):
        base = random_signed_graph(rng, rng.randint(3, 7), neg_prob=0.0)
        g = switch(base, {v for v in range(base.n) if rng.random() < 0.5})
        for k in range(3, g.n + 1):
            assert is_ck_negative_free(g, k)  # balanced graphs have no negative cycles


def test_shortest_negative_cycle_balanced_is_none():
    assert shortest_negative_cycle(complete_signed(6, 1)) is None


def test_shortest_negative_cycle_on_extremal():
    for n in (5, 8):
        w = shortest_negative_cycle(extremal_graph(n))
        assert w is not None and w.length == 3 and w.vertices == (0, 1, 2)


def test_shortest_negative_cycle_matches_bruteforce():
    rng = random.Random(33)
    for _ in range(300):
        g = random_signed_graph(rng, rng.randint(1, 7), edge_prob=0.5)
        expected = brute_shortest_negative_length(g)
        got = shortest_negative_cycle(g)
        if expected is None:
            assert got is None
            assert is_balanced(g).balanced
        else:
            assert got is not None and got.length == expected
            assert cycle_sign(g, got.vertices) == -1


def test_shortest_negative_cycle_is_the_least_canonical_witness():
    # ties break to the least (length, canonical tuple) over every negative cycle
    rng = random.Random(7)
    checked = 0
    for _ in range(3000):
        g = random_signed_graph(rng, rng.randint(3, 9))
        want = brute_least_negative_cycle(g)
        got = shortest_negative_cycle(g)
        assert (None if got is None else got.vertices) == want, g.to_sg()
        checked += want is not None
    assert checked > 1500


def test_shortest_negative_cycle_least_witness_on_a_tie():
    # negative triangles 0-1-7 and 0-6-7 tie on length; 0-1-7 is the least
    g = SignedGraph.from_sg(
        "8 20\n1 2 -\n1 4 -\n1 5 -\n1 7 +\n1 8 +\n2 3 +\n2 4 +\n2 6 +\n2 8 +\n3 4 +\n"
        "3 6 -\n3 7 +\n4 5 +\n4 6 -\n4 7 -\n4 8 +\n5 6 +\n6 7 +\n6 8 -\n7 8 -\n"
    )
    assert shortest_negative_cycle(g) == CycleWitness((0, 1, 7), -1)


def test_shortest_negative_cycle_lower_bounds_fixed_length_search():
    rng = random.Random(34)
    for _ in range(100):
        g = random_signed_graph(rng, rng.randint(3, 7))
        w = shortest_negative_cycle(g)
        if w is None:
            continue
        assert w.length >= 3 and w.sign == -1
        for k in range(3, g.n + 1):
            other = find_negative_ck(g, k)
            if other is not None:
                assert w.length <= other.length


def test_double_cover_all_positive():
    g = complete_signed(4, 1)
    cov = double_cover(g)
    assert cov.n == 8
    top, _ = cov.induced_subgraph(range(4))
    bottom, _ = cov.induced_subgraph(range(4, 8))
    assert top == g and bottom == g
    assert len(cov.components()) == 2 * len(g.components())


def test_double_cover_negative_triangle_is_hexagon():
    cov = double_cover(complete_signed(3, -1))
    assert cov.n == 6 and cov.m == 6
    assert all(cov.degree(v) == 2 for v in range(6))
    assert len(cov.components()) == 1


def test_double_cover_component_criterion_matches_balance():
    rng = random.Random(35)
    for _ in range(300):
        g = random_signed_graph(rng, rng.randint(1, 8))
        cov = double_cover(g)
        doubled = len(cov.components()) == 2 * len(g.components())
        assert doubled == is_balanced(g).balanced


def test_negative_ck_monotone_under_deletion():
    rng = random.Random(36)
    for _ in range(150):
        g = random_signed_graph(rng, rng.randint(3, 7))
        if g.m == 0:
            continue
        edges = [e for e in g.edge_set()]
        u, v = rng.choice(edges)
        smaller = g.remove_edge(u, v)
        for k in range(3, g.n + 1):
            if is_ck_negative_free(g, k):
                assert is_ck_negative_free(smaller, k)


def test_cycle_sign_invariant_under_switching():
    rng = random.Random(37)
    for _ in range(200):
        g = random_signed_graph(rng, rng.randint(3, 8), edge_prob=0.6)
        cyc = random_fundamental_cycle(rng, g)
        if cyc is None:
            continue
        U = {v for v in range(g.n) if rng.random() < 0.5}
        assert cycle_sign(g, cyc) == cycle_sign(switch(g, U), cyc)


def test_a_cycle_length_below_three_is_refused():
    for k in (2, 0, -1):
        with pytest.raises(ValueError, match=f"cycle length must be at least 3, got {k}"):
            find_negative_ck(complete_signed(4, -1), k)
