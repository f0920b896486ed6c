import random
from functools import partial
from itertools import combinations
from operator import attrgetter, methodcaller

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signedspectra import SgFormatError, SignedGraph, complete_signed, new_graph
from signedspectra.core import _bfs_forest, _bitsets
from signedspectra.cycles import is_ck_negative_free
from signedspectra.families import extremal_graph, near_extremal_graph
from signedspectra.proofmoves import Move, apply_move
from signedspectra.spectra import index
from signedspectra.switching import is_balanced, switch

from conftest import DictSignedGraph, random_signed_graph, reference_bfs_forest


def test_new_graph_empty():
    g = new_graph(0)
    assert g.n == 0 and g.m == 0
    g5 = new_graph(5)
    assert g5.m == 0
    assert (g5.adjacency_matrix() == np.zeros((5, 5), dtype=int)).all()


def test_set_edge_symmetric_lookup():
    g = new_graph(3).set_edge(0, 1, -1)
    assert g.sign(1, 0) == -1
    assert g.sign(0, 1) == -1


def test_set_edge_overwrites():
    g = new_graph(3).set_edge(0, 1, 1).set_edge(0, 1, -1)
    assert g.sign(0, 1) == -1
    assert g.m == 1


def test_set_edge_rejects_loops_and_range():
    g = new_graph(3)
    with pytest.raises(ValueError):
        g.set_edge(2, 2, 1)
    with pytest.raises(ValueError):
        g.set_edge(0, 3, 1)
    with pytest.raises(ValueError):
        g.set_edge(0, 1, 2)


def test_constructors_refuse_a_negative_order_and_a_bad_complete_graph():
    with pytest.raises(ValueError, match="vertex count must be >= 0, got -1"):
        SignedGraph(-1)
    with pytest.raises(ValueError, match="complete graph needs n >= 1, got 0"):
        SignedGraph.complete(0)
    with pytest.raises(ValueError, match="sign must be -1 or \\+1, got 0"):
        SignedGraph.complete(3, 0)


def test_equality_with_a_non_graph_and_repr():
    g = SignedGraph.complete(3, -1)
    assert g.__eq__(g.to_sg()) is NotImplemented
    assert g != g.to_sg() and not g == 3
    assert repr(g) == "SignedGraph(n=3, m=3)"
    assert repr(SignedGraph(0)) == "SignedGraph(n=0, m=0)"


def test_remove_edge():
    p2 = new_graph(2).set_edge(0, 1, 1)
    assert p2.remove_edge(0, 1).m == 0
    tri = SignedGraph.complete(3, 1)
    path = tri.remove_edge(1, 2)
    assert path.edge_set() == frozenset({(0, 1), (0, 2)})
    with pytest.raises(ValueError):
        path.remove_edge(1, 2)


def test_adjacency_matrix_triangles():
    plus = SignedGraph.complete(3, 1)
    assert plus.adjacency_matrix().tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    minus = SignedGraph.complete(3, -1)
    assert minus.adjacency_matrix().tolist() == [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]]


def test_adjacency_matrix_extremal5_block_form():
    # rows ordered v1, v2, v3, then the rest: the negative edge sits in the
    # top-left 2x2 block, v3 links to everything, the tail is complete
    A = extremal_graph(5).adjacency_matrix()
    expected = np.array(
        [
            [0, -1, 1, 0, 0],
            [-1, 0, 1, 0, 0],
            [1, 1, 0, 1, 1],
            [0, 0, 1, 0, 1],
            [0, 0, 1, 1, 0],
        ]
    )
    assert (A == expected).all()


def test_complete_signed():
    kminus = complete_signed(4, -1)
    assert not is_balanced(kminus).balanced
    assert is_ck_negative_free(kminus, 4)
    assert index(complete_signed(3, 1)) == pytest.approx(2.0, abs=1e-10)
    single = complete_signed(1, 1)
    assert single.n == 1 and single.m == 0


def test_induced_subgraph_tail_is_complete_positive():
    for n in (5, 7, 9):
        g = extremal_graph(n)
        sub, labels = g.induced_subgraph(range(2, n))
        assert labels == tuple(range(2, n))
        assert sub == SignedGraph.complete(n - 2, 1)


def test_induced_subgraph_edge_cases():
    g = extremal_graph(6)
    single, _ = g.induced_subgraph([3])
    assert single.n == 1 and single.m == 0
    full, labels = g.induced_subgraph(range(6))
    assert full == g and labels == tuple(range(6))


def test_degrees_and_neighbors():
    g = extremal_graph(7)
    assert g.degree(0) == 2 and g.neighbors(0) == (1, 2)
    assert g.degree(2) == 6  # n - 1
    h = near_extremal_graph(7)
    assert h.neighbors(2) == (0, 1, 4, 5, 6)
    assert h.degree(2) == 5  # n - 2


def test_extremal5_degree_sequence():
    g = extremal_graph(5)
    assert g.m == 6
    assert [g.degree(v) for v in range(5)] == [2, 2, 4, 2, 2]


def test_components_are_pinned():
    # the search from 0 reaches 3 before 1, so a tree must be sorted; 5 is isolated
    g = SignedGraph(6, {(0, 3): 1, (3, 1): -1, (2, 4): 1})
    assert g.components() == [[0, 1, 3], [2, 4], [5]]
    assert new_graph(0).components() == []


@pytest.mark.parametrize("pair", [(0, 1), (1, 0)])
def test_a_vertex_pair_given_twice_is_refused(pair):
    u, v = pair
    with pytest.raises(ValueError, match=rf"vertex pair \({v},{u}\) given twice"):
        SignedGraph(2, {(u, v): 1, (v, u): -1})


def test_bfs_forest_matches_the_list_reference():
    # edgeless, sparse (mostly disconnected) and dense draws of every order 0..20
    rng = random.Random(22)
    for n in range(21):
        for p in (0.0, 0.05, 0.15, 0.5, 0.9):
            g = random_signed_graph(rng, n, edge_prob=p)
            assert _bfs_forest(_bitsets(n, g.edge_set())) == reference_bfs_forest(g.adjacency_lists())


def test_edges_are_plain_sorted_triples():
    rng = random.Random(23)
    for n in range(12):
        g = random_signed_graph(rng, n, edge_prob=0.6)
        edges = g.edges()
        assert len(edges) == g.m and edges == sorted(edges)
        for e in edges:
            assert type(e) is tuple and len(e) == 3
            u, v, s = e
            assert u < v and s == g.sign(u, v)


def test_adjacency_invariants_random():
    rng = random.Random(7)
    for _ in range(50):
        g = random_signed_graph(rng, rng.randint(0, 10))
        A = g.adjacency_matrix()
        assert (A == A.T).all()
        assert (np.diag(A) == 0).all()
        assert set(np.unique(A)) <= {-1, 0, 1}


def test_set_then_remove_is_identity():
    rng = random.Random(8)
    for _ in range(50):
        g = random_signed_graph(rng, rng.randint(2, 8))
        u = rng.randrange(g.n)
        v = (u + 1 + rng.randrange(g.n - 1)) % g.n
        if u == v or g.has_edge(u, v):
            continue
        assert g.set_edge(u, v, -1).remove_edge(u, v) == g


NON_INTEGER_VERTICES = {
    "constructor": lambda g: SignedGraph(3, {(0, 1.0): 1}),
    "switch": lambda g: switch(g, [1.5]),
    "sign": lambda g: g.sign(0, np.float64(1)),
    "has_edge": lambda g: g.has_edge("0", 1),
    "degree": lambda g: g.degree(1.5),
    "neighbors": lambda g: g.neighbors(None),
    "set_edge": lambda g: g.set_edge(0, 1.0, -1),
    "remove_edge": lambda g: g.remove_edge(0.0, 1),
    "induced_subgraph": lambda g: g.induced_subgraph([0, 1.5]),
    "relabel": lambda g: g.relabel([0, 1, 2.0]),
}


@pytest.mark.parametrize("call", NON_INTEGER_VERTICES.values(), ids=NON_INTEGER_VERTICES)
def test_a_vertex_that_is_not_an_integer_is_refused(call):
    # a float endpoint once made a graph whose .sg text ("1 2.0 +") from_sg refuses,
    # and switch(g, [1.5]) returned g
    with pytest.raises(ValueError, match="is not an integer"):
        call(SignedGraph.complete(3, 1))


@pytest.mark.parametrize("n", [10, 70])
def test_numpy_integer_vertices_become_python_ints(n):
    g = SignedGraph(n, {(np.int64(0), np.int64(n - 1)): 1, (np.int32(1), np.uint8(2)): -1})
    assert g == SignedGraph(n, {(0, n - 1): 1, (1, 2): -1})
    assert all(type(x) is int for e in g.edges() for x in e)
    assert g.components()[:2] == [[0, n - 1], [1, 2]]
    assert is_balanced(g).balanced
    assert switch(g, [np.int64(1)]) == switch(g, [1])
    assert g.sign(np.int64(2), np.int64(1)) == -1 and g.has_edge(np.int16(0), n - 1)
    assert g.degree(np.int64(1)) == 1 and g.neighbors(np.int64(0)) == (n - 1,)
    assert g.set_edge(np.int64(3), np.int64(4), 1) == g.set_edge(3, 4, 1)
    assert g.relabel(np.arange(n)[::-1]) == g.relabel(range(n - 1, -1, -1))
    # and so are apply_move's operands, whose edits do not pass through the constructor
    for make, ops in ((Move.add_positive_edge, (3, 4)), (Move.delete_edge, (1, 2)), (Move.rotate_edge, (0, n - 1, 3))):
        result, _ = apply_move(g, make(*map(np.int64, ops)))
        assert np.array_equal(result.adjacency_matrix(), apply_move(g, make(*ops))[0].adjacency_matrix())
    # so is a NumPy integer order, whose rows are shifted past 64 bits at n = 70
    assert type(SignedGraph(np.int64(n)).n) is int
    assert SignedGraph.complete(np.int64(n), -1) == SignedGraph.complete(n, -1)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 40, 64, 65])
def test_adjacency_matrix_matches_a_per_edge_fill(n):
    # row widths on either side of a byte and of a 64-bit word
    rng = random.Random(n)
    graphs = [random_signed_graph(rng, n, edge_prob=p) for p in (0.0, 0.3, 0.8)]
    if n:
        graphs += [SignedGraph.complete(n, 1), SignedGraph.complete(n, -1)]
    for g in graphs:
        ref = np.zeros((n, n), dtype=np.int64)
        for u, v, s in g.edges():
            ref[u, v] = ref[v, u] = s
        A = g.adjacency_matrix()
        assert A.dtype == np.int64 and A.shape == (n, n)
        assert np.array_equal(A, ref) and np.array_equal(A, A.T)


def _switch(h, vertices):
    return h.switch(vertices) if isinstance(h, DictSignedGraph) else switch(h, vertices)


def outcome(op, h):
    """``op(h)`` and what of it to compare: a graph as its order and edges, a refusal as its message."""
    try:
        x = op(h)
    except ValueError as err:
        return None, ("refused", str(err))
    if isinstance(x, tuple) and len(x) == 2 and hasattr(x[0], "edges"):
        return x, ((x[0].n, x[0].edges()), x[1])
    return x, (x.n, x.edges()) if hasattr(x, "edges") else x


def test_bitset_graph_matches_the_dict_table_oracle():
    # one draw per order 0..70, so rows are wider than a 64-bit word from 65 on;
    # vertex arguments run from -1 to n, so loops and both ends out of range occur
    rng = random.Random(30)
    for n in range(71):
        p = rng.random()
        pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in combinations(range(n), 2) if rng.random() < p]
        table = {e: rng.choice((-1, 1)) for e in pairs}
        g, ref = SignedGraph(n, table), DictSignedGraph(n, table)
        vertices = range(-1, n + 1)
        ops = [methodcaller(name) for name in ("edges", "edge_set", "adjacency_lists", "components", "to_sg")]
        ops.append(attrgetter("m"))
        for _ in range(12):
            u, v = rng.choice(vertices), rng.choice(vertices)
            s = rng.choice((-1, 1, 0, 2))
            ops += [methodcaller("sign", u, v), methodcaller("has_edge", u, v), methodcaller("degree", u)]
            ops += [methodcaller("neighbors", u), methodcaller("set_edge", u, v, s), methodcaller("remove_edge", u, v)]
        if pairs:  # remove a present edge, given in either orientation
            ops.append(methodcaller("remove_edge", *rng.choice(pairs)[:: rng.choice((1, -1))]))
        subset = [v for v in range(n) if rng.random() < 0.5] + rng.choice(([], [-1], [n]))
        rng.shuffle(subset)
        ops += [methodcaller("induced_subgraph", subset), partial(_switch, vertices=subset)]
        perm = list(range(n))
        rng.shuffle(perm)
        ops += [methodcaller("relabel", perm), methodcaller("relabel", perm[1:] + perm[:1] * 2)]
        results = []
        for op in ops:
            (x, seen), (rx, expected) = outcome(op, g), outcome(op, ref)
            assert seen == expected, (n, op)
            if isinstance(x, SignedGraph):
                results.append((x, rx))
        assert SignedGraph.from_sg(g.to_sg()) == g
        # == and hash on the graphs built above and on g rebuilt from its table in reverse order
        results += [(g, ref), (SignedGraph(n, dict(reversed(table.items()))), ref)]
        for (a, ra), (b, rb) in combinations(results, 2):
            assert (a == b) == (ra == rb)
            assert a != b or hash(a) == hash(b)
        # constructor refusals: a repeated pair, a bad sign, a pair out of range and a loop
        bad_tables = [{**table, (n, 0): 1}, {**table, (-1, 0): 1}, {(0, 0): 1, **table}]
        if pairs:
            u, v = rng.choice(pairs)
            bad_tables += [{**table, (v, u): table[(u, v)]}, {**table, (u, v): rng.choice((0, 2, -2))}]
        for bad in bad_tables:
            _, refusal = outcome(lambda cls: cls(n, bad), SignedGraph)
            assert refusal[0] == "refused" and refusal == outcome(lambda cls: cls(n, bad), DictSignedGraph)[1]


# -- .sg text format -------------------------------------------------------


NEG_TRIANGLE_SG = "3 3\n1 2 -\n1 3 -\n2 3 -\n"


def test_sg_exact_example():
    g = SignedGraph.complete(3, -1)
    assert g.to_sg() == NEG_TRIANGLE_SG
    assert SignedGraph.from_sg(NEG_TRIANGLE_SG) == g


def test_sg_comments_and_blank_lines():
    text = "# a comment\n\n3 1\n# another\n1 3 +\n"
    g = SignedGraph.from_sg(text)
    assert g.n == 3 and g.sign(0, 2) == 1


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("3\n", 1),
        ("3 1\n2 1 +\n", 2),
        ("3 1\n1 4 +\n", 2),
        ("3 1\n1 2 *\n", 2),
        ("3 2\n1 2 +\n1 2 -\n", 3),
        ("3 2\n1 2 +\n", 2),
        ("3 2\n1 2 +\n# end\n", 2),
    ],
)
def test_sg_errors_carry_line_numbers(text, line):
    with pytest.raises(SgFormatError) as err:
        SignedGraph.from_sg(text)
    assert err.value.line == line


@pytest.mark.parametrize("line", ["1 2", "1 2 + +"])
def test_an_sg_edge_line_needs_three_tokens(line):
    with pytest.raises(SgFormatError) as err:
        SignedGraph.from_sg(f"3 1\n{line}\n")
    assert str(err.value) == f"line 2: expected 'u v s', got {line!r}"


# the characters other than "\n" and "\r" at which str.splitlines breaks a line;
# str.split() takes each of them as whitespace
SPLITLINES_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", SPLITLINES_BREAKS)
def test_sg_lines_break_at_line_feeds_only(sep):
    # inside a line the character separates tokens like a space, and every
    # later line keeps its physical number
    assert SignedGraph.from_sg(f"3 1\n1 2{sep}+\n").edges() == [(0, 1, 1)]
    with pytest.raises(SgFormatError) as err:
        SignedGraph.from_sg(f"3 2\n1 2{sep}+\n1 4 +\n")
    assert str(err.value) == "line 3: need 1 <= u < v <= 3, got u=1 v=4"
    assert SignedGraph.from_sg("3 1\r\n1 2 +\r\n").edges() == [(0, 1, 1)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sg_roundtrip_small(data):
    n = data.draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(pairs), max_size=len(pairs)))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    table = {p: s for p, s, k in zip(pairs, signs, keep) if k}
    g = SignedGraph(n, table)
    assert SignedGraph.from_sg(g.to_sg()) == g


def test_sg_roundtrip_up_to_64():
    rng = random.Random(20240817)
    for _ in range(300):
        g = random_signed_graph(rng, rng.randint(0, 64), edge_prob=rng.random())
        assert SignedGraph.from_sg(g.to_sg()) == g


def test_save_load(tmp_path):
    g = extremal_graph(6)
    path = tmp_path / "g.sg"
    g.save(path)
    assert SignedGraph.load(path) == g
