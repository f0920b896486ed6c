import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations, permutations

import networkx as nx
import pytest

from signedspectra import SgFormatError, SignedGraph, complete_signed
from signedspectra.enumeration import (
    GraphListError,
    decode_graph6,
    encode_graph6,
    enumerate_underlying,
    has_c4,
    ingest_graph_list,
    switching_classes,
    verify_c4free_bounds,
    verify_max_index,
)
from signedspectra.families import extremal_graph
from signedspectra.spectra import eigenvalues_sym
from signedspectra.switching import is_balanced, switching_equivalent, switching_isomorphic

from conftest import (
    brute_census_one_graph,
    brute_switching_orbit_count,
    catalog_graphs,
    reference_refine,
    twin_rich_graphs,
    unfiltered_underlying,
)

KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}  # OEIS A000088
PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
PETERSEN += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]


def to_nx(g: SignedGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edge_set())
    return G


def test_counts_match_the_classical_sequence():
    for n, count in KNOWN_COUNTS.items():
        assert len(enumerate_underlying(n)) == count
    with pytest.raises(ValueError, match="--graphs"):
        enumerate_underlying(10)
    with pytest.raises(ValueError):
        enumerate_underlying(0)


def brute_filter_count(n: int) -> int:
    """Independent oracle: canonicalize all 2^C(n,2) graphs over all n! maps."""
    pairs = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        best = None
        for p in perms:
            key = tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
            if best is None or key < best:
                best = key
        seen.add(best)
    return len(seen)


def test_enumeration_matches_brute_filter_oracle():
    for n in (1, 2, 3, 4, 5):
        assert len(enumerate_underlying(n)) == brute_filter_count(n)


def test_representatives_pairwise_non_isomorphic():
    gs = catalog_graphs(5)
    for i in range(len(gs)):
        for j in range(i + 1, len(gs)):
            if gs[i].m != gs[j].m:
                continue
            assert not nx.is_isomorphic(to_nx(gs[i]), to_nx(gs[j]))


def test_canonical_form_invariant_under_relabeling():
    from signedspectra.enumeration import _canonical_edges

    rng = random.Random(62)
    for _ in range(300):
        n = rng.randint(1, 8)
        g = SignedGraph(
            n,
            {
                (u, v): 1
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice((0.2, 0.5, 0.8))
            },
        )
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert _canonical_edges(n, frozenset(g.edge_set())) == _canonical_edges(
            n, frozenset(h.edge_set())
        )


def test_canonical_form_separates_nonisomorphic():
    from signedspectra.enumeration import _canonical_edges

    rng = random.Random(63)
    for _ in range(150):
        n = rng.randint(2, 7)
        a = SignedGraph(
            n, {(u, v): 1 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
        )
        b = SignedGraph(
            n, {(u, v): 1 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
        )
        same_key = _canonical_edges(n, frozenset(a.edge_set())) == _canonical_edges(
            n, frozenset(b.edge_set())
        )
        assert same_key == nx.is_isomorphic(to_nx(a), to_nx(b))


def test_canonical_keys_match_the_graph_atlas():
    from signedspectra.enumeration import _canonical_edges

    atlas: dict[int, list[nx.Graph]] = {}
    for G in nx.graph_atlas_g():
        atlas.setdefault(G.number_of_nodes(), []).append(G)
    for n in range(1, 8):
        keys = [
            _canonical_edges(n, frozenset((min(e), max(e)) for e in G.edges()))
            for G in atlas[n]
        ]
        assert len(set(keys)) == len(keys) == KNOWN_COUNTS[n]
        assert set(keys) == set(enumerate_underlying(n))


def test_twin_pruned_walk_matches_the_unpruned_oracle():
    # the pruned walk's minimum key equals the unpruned walk's on every graph
    from itertools import islice

    from signedspectra.enumeration import _canonical_edges
    from signedspectra.core import _bitsets
    from signedspectra.switching import _leaves, _relabelled, _twin_classes

    def unpruned_keys(n, edges):
        orders = _leaves(_bitsets(n, edges), [[v] for v in range(n)])
        return (_relabelled(order, edges) for order in orders)

    cases = [
        (G.number_of_nodes(), frozenset((min(e), max(e)) for e in G.edges()))
        for G in nx.graph_atlas_g()
        if G.number_of_nodes() <= 7
    ]
    keys = [list(unpruned_keys(n, edges)) for n, edges in cases]
    atlas = len(cases)
    rng = random.Random(65)
    while len(cases) < atlas + 200:
        n = rng.randint(8, 10)
        for edges in twin_rich_graphs(rng, n):
            # the oracle walks at least |Aut| >= prod |class|! leaves; bound its cost
            if math.prod(math.factorial(len(c)) for c in _twin_classes(_bitsets(n, edges))) > 1000:
                continue
            leaves = list(islice(unpruned_keys(n, edges), 1001))
            if len(leaves) <= 1000:
                cases.append((n, edges))
                keys.append(leaves)
    pruned_some = 0
    for (n, edges), leaves in zip(cases, keys):
        adj = _bitsets(n, edges)
        classes = _twin_classes(adj)
        assert sorted(v for c in classes for v in c) == list(range(n))
        for u, v in combinations(range(n), 2):
            same = any(u in c and v in c for c in classes)
            assert same == (adj[u] & ~(1 << v) == adj[v] & ~(1 << u)), (n, edges, u, v)
        assert _canonical_edges(n, edges) == min(leaves), (n, edges)
        pruned_some += len(classes) < n
    assert pruned_some > 500


def test_bitset_refinement_matches_the_list_oracle():
    # the same ordered partition at the root and after each first-level individualization
    from signedspectra.core import _bitsets
    from signedspectra.switching import _refine

    def as_lists(cells):
        return [[v for v in range(n) if cell >> v & 1] for cell in cells]

    cases = [
        (G.number_of_nodes(), frozenset((min(e), max(e)) for e in G.edges()))
        for G in nx.graph_atlas_g()
        if 1 <= G.number_of_nodes() <= 7
    ]
    rng = random.Random(66)
    for n in range(8, 13):  # larger cells, as in the census's twin-rich graphs
        cases += [(n, edges) for _ in range(5) for edges in twin_rich_graphs(rng, n)]
    checked = 0
    for n, edges in cases:
        adj = _bitsets(n, edges)
        unit = list(range(n))
        ref = reference_refine(adj, [unit], [unit])
        cells = _refine(adj, [(1 << n) - 1], [(1 << n) - 1])
        assert as_lists(cells) == ref, (n, edges)
        i = next((i for i, cell in enumerate(ref) if len(cell) > 1), None)
        if i is None:
            continue
        for v in ref[i]:
            rest = [w for w in ref[i] if w != v]
            child_ref = reference_refine(adj, ref[:i] + [[v], rest] + ref[i + 1 :], [[v]])
            child = _refine(adj, cells[:i] + [1 << v, cells[i] ^ 1 << v] + cells[i + 1 :], [1 << v])
            assert as_lists(child) == child_ref, (n, edges, v)
            checked += 1
    assert checked > 1000


def test_degree_filter_loses_no_graph():
    # every graph has a vertex of largest degree, so labelling only such children is complete
    for n in range(1, 8):
        assert enumerate_underlying(n) == unfiltered_underlying(n)


def test_degree_filter_labels_few_children_at_order_7(monkeypatch):
    # labelling every twin-orbit child took 7,194 canonical forms for the 1,044 graphs
    from signedspectra import enumeration

    calls = []
    canonical = enumeration._canonical_edges
    monkeypatch.setattr(enumeration, "_UNDERLYING_CACHE", {})
    monkeypatch.setattr(
        enumeration, "_canonical_edges", lambda n, edges: calls.append(n) or canonical(n, edges)
    )
    assert len(enumerate_underlying(7)) == KNOWN_COUNTS[7]
    assert len(calls) <= 2088


@pytest.mark.parametrize("n", range(1, 13))
def test_twin_pruned_walk_has_one_leaf_on_complete_graphs(n):
    # a count, not a timing: the unpruned walk has n! leaves
    from itertools import islice

    from signedspectra.core import _bitsets
    from signedspectra.switching import _leaves, _relabelled, _twin_classes

    edges = frozenset(combinations(range(n), 2))
    adj = _bitsets(n, edges)
    leaves = [_relabelled(order, edges) for order in islice(_leaves(adj, _twin_classes(adj)), 2)]
    assert leaves == [tuple(sorted(edges))]


def test_catalog_hashes_are_pinned():
    # the catalog (and so every checkpoint header) is the same as before twin pruning
    from signedspectra.enumeration import _checkpoint_header

    pinned = {
        5: "e7e1fe09230452bdeb2f50c658b0dbf5ba6b73dae4a584795d09251bbea6c4cd",
        6: "ec80cd21f88b91ed07a90807374df0a1e0a97009c31f36355c4ee0851fddd162",
        7: "20cef58bf53f62fea2446517f7e68a4b101cd95fc5379ab57982bc97af548f35",
        8: "78362082d50ce2900390e7b112db0a0b061df7493c8d92cff392a73bf599934f",
    }
    for n, digest in pinned.items():
        assert _checkpoint_header(n, enumerate_underlying(n))["catalog"] == digest


def test_enumeration_is_deterministic():
    a = enumerate_underlying(6)
    b = enumerate_underlying(6)
    assert a == b
    assert a == sorted(a, key=lambda t: (len(t), t))


def test_switching_class_counts():
    tree = SignedGraph(5, {(0, 1): 1, (1, 2): 1, (1, 3): 1, (3, 4): 1})
    assert len(switching_classes(tree)) == 1
    assert len(switching_classes(complete_signed(3, 1))) == 2
    k4 = complete_signed(4, 1)
    assert len(switching_classes(k4)) == 8
    assert brute_switching_orbit_count(k4) == 8


def test_switching_class_count_identity_connected():
    for g in catalog_graphs(5):
        if len(g.components()) != 1:
            continue
        classes = switching_classes(g)
        assert len(classes) == 2 ** (g.m - g.n + 1)
        assert len(classes) == brute_switching_orbit_count(g)


def test_census_soundness_pairwise_inequivalent():
    for n in (3, 4, 5):
        for g in catalog_graphs(n):
            classes = switching_classes(g)
            for i in range(len(classes)):
                for j in range(i + 1, len(classes)):
                    assert not switching_equivalent(classes[i], classes[j])


def test_verify_census_order5():
    report = verify_max_index(5)
    assert report.verdict
    assert report.underlying_count == 34
    assert abs(report.max_lambda1 - math.sqrt(5)) <= 1e-9
    assert report.witnesses
    for w in report.witnesses:
        assert switching_isomorphic(w, extremal_graph(5))[0]
    assert report.eligible_count > 0
    # report is serializable and parses back
    data = json.loads(report.to_json())
    assert data["n"] == 5 and data["verdict"] is True


def test_balanced_classes_max_is_complete_graph():
    # balanced classes share spectra with their underlying graphs
    n = 5
    best = -math.inf
    for g in catalog_graphs(n):
        for h in switching_classes(g):
            if is_balanced(h).balanced:
                best = max(best, eigenvalues_sym(h.adjacency_matrix()).lambda1)
    assert best == pytest.approx(n - 1, abs=1e-9)


def test_dropping_the_c4_filter_raises_the_maximum():
    from signedspectra.cycles import is_ck_negative_free

    for n in (5, 6):
        unrestricted = -math.inf
        restricted = -math.inf
        for g in catalog_graphs(n):
            for h in switching_classes(g):
                if is_balanced(h).balanced:
                    continue
                lam = eigenvalues_sym(h.adjacency_matrix()).lambda1
                unrestricted = max(unrestricted, lam)
                if is_ck_negative_free(h, 4):
                    restricted = max(restricted, lam)
        assert unrestricted > restricted + 1e-6


def test_verify_census_deterministic(tmp_path):
    base = verify_max_index(5).to_dict()
    again = verify_max_index(5).to_dict()
    for d in (base, again):
        d.pop("seconds")
    assert base == again


def test_verify_census_checkpoint_resume(tmp_path):
    ck = tmp_path / "census5.jsonl"
    first = verify_max_index(5, checkpoint=str(ck)).to_dict()
    assert ck.exists() and ck.read_text().strip()
    resumed = verify_max_index(5, checkpoint=str(ck)).to_dict()
    first.pop("seconds")
    resumed.pop("seconds")
    assert first == resumed


def test_verify_census_partial_checkpoint_resume(tmp_path):
    # truncating the checkpoint mid-way must reproduce the full report
    ck = tmp_path / "census5.jsonl"
    full = verify_max_index(5, checkpoint=str(ck)).to_dict()
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[: 1 + len(lines) // 2]) + "\n")
    resumed = verify_max_index(5, checkpoint=str(ck)).to_dict()
    full.pop("seconds")
    resumed.pop("seconds")
    assert full == resumed


def test_verify_census_checkpoint_with_blank_lines_resumes(tmp_path):
    ck = tmp_path / "census5.jsonl"
    full = verify_max_index(5, checkpoint=str(ck)).to_dict()
    header, *records = ck.read_text().splitlines()
    ck.write_text("\n".join([header, "", *records[:2], "  ", *records[2:]]) + "\n")
    resumed = verify_max_index(5, checkpoint=str(ck)).to_dict()
    full.pop("seconds")
    resumed.pop("seconds")
    assert full == resumed


def test_verify_refuses_a_catalog_graph_of_another_order():
    with pytest.raises(ValueError, match="graph of order 6 in a census of order 5"):
        verify_max_index(5, graphs=[SignedGraph(5), SignedGraph(6)])


def test_kernel_census_matches_brute_filter_oracle():
    from signedspectra.enumeration import _census_one_graph

    for n in (4, 5, 6):
        for edges in enumerate_underlying(n):
            task = (n, edges)
            assert _census_one_graph(*task) == brute_census_one_graph(*task), task


def test_float_index_is_within_1e_12_of_the_exact_root():
    # FLOAT_MARGIN (1e-9) is sound only while eigh's error on the census's
    # matrices is far below it; every eligible class at n = 5..7 is checked
    # (the census's own floats: _census_one_graph reads _eligible_indices)
    from signedspectra.enumeration import _cotree, _eligible_indices, _signed_by_pattern
    from signedspectra.polynomial import largest_real_root_interval
    from signedspectra.spectra import char_poly_exact

    for n in (5, 6, 7):
        for edges in enumerate_underlying(n):
            cotree = _cotree(n, edges)
            for lam, bits in _eligible_indices(n, edges, cotree):
                h = _signed_by_pattern(n, edges, cotree, bits)
                lo, hi = largest_real_root_interval(char_poly_exact(h), Fraction(1, 2**60))
                assert abs(lam - float((lo + hi) / 2)) <= 1e-12, h.to_sg()


def test_kernel_census_matches_brute_filter_oracle_past_order_6():
    # seeded random graphs of order 7..9 with 6 to 10 cotree edges (at most
    # 1024 classes each), so the per-class brute filter stays cheap
    from signedspectra.enumeration import _census_one_graph, _cotree

    rng = random.Random(79)
    for n in (7, 8, 9):
        pairs = list(combinations(range(n), 2))
        checked = 0
        while checked < 16:
            edges = tuple(sorted(rng.sample(pairs, rng.randint(n - 1, n + 9))))
            if not 6 <= len(_cotree(n, edges)) <= 10:
                continue
            assert _census_one_graph(n, edges) == brute_census_one_graph(n, edges), (n, edges)
            checked += 1


def test_kernel_census_matches_brute_filter_oracle_on_deep_stacks():
    # catalog graphs stack at most 15 eligible classes; these 4-cycle-free
    # cubic graphs stack every nonzero pattern in one eigensolve
    from signedspectra.enumeration import _census_one_graph

    heawood = [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    for n, edges, eligible, kept in ((10, PETERSEN, 63, 15), (14, heawood, 255, 21)):
        task = (n, tuple(sorted((min(e), max(e)) for e in edges)))
        census = _census_one_graph(*task)
        assert census == brute_census_one_graph(*task)
        assert (census[1], len(census[3])) == (eligible, kept)


@pytest.mark.parametrize("n", [5, 6])
def test_census_witnesses_match_exact_brute_oracle(n):
    # float-free second method: every class, filtered per class, compared
    # exactly with the extremal cubic's largest root
    from signedspectra.cycles import is_ck_negative_free
    from signedspectra.families import extremal_cubic
    from signedspectra.polynomial import compare_largest_real_roots
    from signedspectra.spectra import char_poly_exact

    brute = [
        h.to_sg()
        for g in catalog_graphs(n)
        for h in switching_classes(g)
        if not is_balanced(h).balanced
        and is_ck_negative_free(h, 4)
        and compare_largest_real_roots(char_poly_exact(h), extremal_cubic(n)) == 0
    ]
    report = verify_max_index(n)
    assert report.witness_sg() == brute
    assert report.verdict


def test_verify_census_order7():
    # independent root oracle: plain float bisection on x^3 - 2x^2 - 9x + 2
    lo, hi = 4.0, 5.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid**3 - 2 * mid**2 - 9 * mid + 2 < 0:
            lo = mid
        else:
            hi = mid
    report = verify_max_index(7)
    assert report.underlying_count == 1044
    assert report.class_count == 197629
    assert report.eligible_count == 1347
    assert abs(report.max_lambda1 - 0.5 * (lo + hi)) <= 1e-9
    assert report.verdict


def test_census_integer_outputs_are_pinned_at_order_7():
    # per task: class count, eligible count and the sorted eligible patterns
    # (the kernel's span), so a rewrite of the kernel keeps every span
    import hashlib

    from signedspectra.enumeration import _census_one_graph, _cotree, _eligible_indices

    out = []
    for edges in enumerate_underlying(7):
        classes, eligible, _, _ = _census_one_graph(7, edges)
        patterns = sorted(bits for _, bits in _eligible_indices(7, edges, _cotree(7, edges)))
        out.append([classes, eligible, patterns])
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "fe110529cad4b8bf437304174996d052440251cfff60f587dfb19f8c876e4d87"


def test_verify_census_torn_checkpoint_record(tmp_path):
    # a crash mid-write leaves a torn last line: it is dropped and recomputed
    ck = tmp_path / "census5.jsonl"
    full = verify_max_index(5, checkpoint=str(ck)).to_dict()
    ck.write_bytes(ck.read_bytes()[:-25])
    resumed = verify_max_index(5, checkpoint=str(ck)).to_dict()
    full.pop("seconds")
    resumed.pop("seconds")
    assert full == resumed
    records = [json.loads(line) for line in ck.read_text().splitlines()]
    assert sorted(r["i"] for r in records[1:]) == list(range(34))


def test_verify_census_checkpoint_torn_header(tmp_path):
    # a crash inside the header line leaves a prefix of it: start afresh
    fresh = tmp_path / "fresh.jsonl"
    full = verify_max_index(5, checkpoint=str(fresh)).to_dict()
    ck = tmp_path / "census5.jsonl"
    ck.write_bytes(fresh.read_bytes()[:20])
    resumed = verify_max_index(5, checkpoint=str(ck)).to_dict()
    full.pop("seconds")
    resumed.pop("seconds")
    assert full == resumed
    assert ck.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("text", ['{"census_n": 6', '{"census_n": 5, "tasks": 35', "garbage"])
def test_verify_census_checkpoint_headerless_file_refused(tmp_path, text):
    # no complete line and not a prefix of this census's header
    ck = tmp_path / "census5.jsonl"
    ck.write_text(text)
    with pytest.raises(ValueError, match="no complete header line"):
        verify_max_index(5, checkpoint=str(ck))
    assert ck.read_text() == text


def test_verify_refuses_a_catalog_that_repeats_a_graph():
    gs = catalog_graphs(5)
    with pytest.raises(ValueError, match="catalog graphs 1 and 35 have the same edge list"):
        verify_max_index(5, graphs=gs * 2)


def test_verify_refuses_a_catalog_with_isomorphic_graphs():
    gs = catalog_graphs(5)
    with pytest.raises(ValueError, match="catalog graphs 2 and 35 are isomorphic"):
        verify_max_index(5, graphs=gs + [gs[1].relabel([4, 3, 2, 1, 0])])


def test_verify_census_checkpoint_fingerprint(tmp_path):
    # same order and catalog length, one graph different: no shared checkpoint
    gs = catalog_graphs(5)
    ck = tmp_path / "census.jsonl"
    verify_max_index(5, graphs=gs, checkpoint=str(ck))
    with pytest.raises(ValueError):
        verify_max_index(5, graphs=gs[:-1] + gs[:1], checkpoint=str(ck))
    # gs[:1] repeats a graph, which is refused before the checkpoint is read,
    # as is a relabelled copy; the one-edge graph relabelled in its own place
    # is a catalog of the same graphs with other edge lists, so the fingerprint decides
    moved = gs[1].relabel([4, 3, 2, 1, 0])
    assert moved.edge_set() not in [g.edge_set() for g in gs]
    with pytest.raises(ValueError, match="different census"):
        verify_max_index(5, graphs=gs[:1] + [moved] + gs[2:], checkpoint=str(ck))
    # a file in the old format (witnesses as .sg text) is not resumed either
    old = tmp_path / "old.jsonl"
    old.write_text(
        json.dumps({"census_n": 5, "tasks": 34, "tol": 1e-9})
        + "\n"
        + json.dumps({"i": 0, "classes": 1, "eligible": 0, "best": -math.inf, "keep": []})
        + "\n"
    )
    with pytest.raises(ValueError):
        verify_max_index(5, checkpoint=str(old))


def test_verify_census_checkpoint_format_2_refused(tmp_path):
    # format 2 wrote -Infinity for an empty keep; its header no longer matches
    ck = tmp_path / "census5.jsonl"
    verify_max_index(5, checkpoint=str(ck))
    header = json.loads(ck.read_text().splitlines()[0])
    assert header["format"] == 3
    record = {"i": 0, "classes": 1, "eligible": 0, "best": -math.inf, "keep": []}
    ck.write_text(json.dumps(dict(header, format=2)) + "\n" + json.dumps(record) + "\n")
    before = ck.read_bytes()
    with pytest.raises(ValueError, match="belongs to a different census"):
        verify_max_index(5, checkpoint=str(ck))
    assert ck.read_bytes() == before


GOOD_RECORD = {"i": 0, "classes": 1, "eligible": 0, "best": None, "keep": []}
BAD_RECORDS = {
    "missing-i": [{k: v for k, v in GOOD_RECORD.items() if k != "i"}],
    "i-out-of-range": [dict(GOOD_RECORD, i=34)],
    "negative-i": [dict(GOOD_RECORD, i=-1)],
    "i-not-an-integer": [dict(GOOD_RECORD, i="0")],
    "repeated-i": [GOOD_RECORD, GOOD_RECORD],
    "extra-key": [dict(GOOD_RECORD, extra=1)],
    "not-an-object": [[0, 1, 0, None, []]],
    "classes-not-an-integer": [dict(GOOD_RECORD, classes="x", best=0)],
    "classes-not-the-task-count": [dict(GOOD_RECORD, classes=2)],
    "eligible-plus-one-not-a-power-of-two": [dict(GOOD_RECORD, i=33, classes=64, eligible=2)],
    "eligible-not-below-classes": [dict(GOOD_RECORD, eligible=1)],
    "best-not-a-float": [dict(GOOD_RECORD, best=0)],
    "best-minus-infinity": [dict(GOOD_RECORD, best=-math.inf)],  # format 2 wrote it; 3 writes null
    "pattern-out-of-range": [dict(GOOD_RECORD, best=99.0, keep=[[99.0, 5]])],
    "pattern-zero": [dict(GOOD_RECORD, i=33, classes=64, eligible=1, best=2.0, keep=[[2.0, 0]])],
    "keep-above-best": [dict(GOOD_RECORD, i=33, classes=64, eligible=1, best=2.0, keep=[[3.0, 1]])],
    "keep-not-a-list": [dict(GOOD_RECORD, keep={})],
    "keep-entry-not-a-pair": [dict(GOOD_RECORD, i=33, classes=64, eligible=1, best=2.0, keep=[[2.0]])],
    # task 19 has one eligible class, pattern 2; pattern 1 makes a 4-cycle negative
    "pattern-not-eligible": [dict(GOOD_RECORD, i=19, classes=4, eligible=1, best=9.0, keep=[[9.0, 1]])],
    "pattern-repeated": [
        dict(GOOD_RECORD, i=19, classes=4, eligible=1, best=2.0, keep=[[2.0, 2], [2.0, 2]])
    ],
    "eligible-not-the-kernel-count": [dict(GOOD_RECORD, i=33, classes=64, eligible=3)],
    # checkpoints are strict JSON: task 7 keeps pattern 1, and only the parse refuses these
    "lam-infinity": [dict(GOOD_RECORD, i=7, classes=2, eligible=1, best=math.inf, keep=[[math.inf, 1]])],
    "lam-minus-infinity": [
        dict(GOOD_RECORD, i=7, classes=2, eligible=1, best=-math.inf, keep=[[-math.inf, 1]])
    ],
    "lam-nan": [dict(GOOD_RECORD, i=7, classes=2, eligible=1, best=math.nan, keep=[[math.nan, 1]])],
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_verify_census_checkpoint_bad_record_rejected(tmp_path, case):
    # a record after a good header must be well formed, in range and new
    ck = tmp_path / "census5.jsonl"
    verify_max_index(5, checkpoint=str(ck))
    header = ck.read_text().splitlines()[0]
    records = BAD_RECORDS[case]
    ck.write_text(header + "\n" + "".join(json.dumps(r) + "\n" for r in records))
    before = ck.read_bytes()
    with pytest.raises(ValueError, match=f"line {1 + len(records)}:"):
        verify_max_index(5, checkpoint=str(ck))
    assert ck.read_bytes() == before


def test_verify_census_checkpoint_mismatch_rejected(tmp_path):
    ck = tmp_path / "census.jsonl"
    verify_max_index(5, checkpoint=str(ck))
    with pytest.raises(ValueError):
        verify_max_index(6, checkpoint=str(ck))


def test_verify_rejects_small_orders():
    with pytest.raises(ValueError):
        verify_max_index(4)


def test_verify_takes_a_catalog_past_builtin_order_without_opt_in():
    # the catalog is the opt-in: the Petersen graph has no 4-cycle, so every
    # unbalanced class of its 2^(15 - 10 + 1) is eligible; its 15 single
    # negated edges tie for the maximum, far below the extremal index
    report = verify_max_index(10, graphs=[SignedGraph(10, {e: 1 for e in PETERSEN})])
    assert (report.underlying_count, report.class_count, report.eligible_count) == (1, 64, 63)
    assert report.max_lambda1 == pytest.approx(2.7784571182583893, abs=1e-9)
    assert report.reference_lambda1 > 7
    assert len(report.witnesses) == 15
    assert report.verdict is False


def test_c4free_bounds_all_small_orders():
    for n in range(4, 8):
        assert verify_c4free_bounds(n)


C4FREE_COUNTS = {1: 1, 2: 2, 3: 4, 4: 8, 5: 18, 6: 44, 7: 117, 8: 351}


def brute_has_c4(g: SignedGraph) -> bool:
    """A 4-cycle by trying every 4 vertices in each of their three cyclic orders."""
    return any(
        all(g.has_edge(q[i], q[(i + 1) % 4]) for i in range(4))
        for a, b, c, d in combinations(range(g.n), 4)
        for q in ((a, b, c, d), (a, b, d, c), (a, c, b, d))
    )


def test_c4free_bounds_check_every_c4free_graph(monkeypatch):
    # all([]) is True: a filter that dropped every graph would pass the test above
    from signedspectra import enumeration

    checked = []
    check = enumeration.c4free_bound_check
    monkeypatch.setattr(enumeration, "c4free_bound_check", lambda g: checked.append(g) or check(g))
    for n, count in C4FREE_COUNTS.items():
        checked.clear()
        assert verify_c4free_bounds(n)
        assert len(checked) == count, n
        assert len({tuple(sorted(g.edge_set())) for g in checked}) == count
        assert not any(has_c4(g) for g in checked)


def test_has_c4_matches_a_brute_search_on_the_catalog():
    for n in range(1, 8):
        for g in catalog_graphs(n):
            assert has_c4(g) == brute_has_c4(g), g.to_sg()


def test_catalog_entries_are_canonical_edge_lists():
    from signedspectra import enumeration
    from signedspectra.enumeration import _canonical_edges

    for n in range(1, 7):
        for edges in enumerate_underlying(n):
            assert type(edges) is tuple and _canonical_edges(n, edges) == edges
    assert all(type(e) is tuple for cat in enumeration._UNDERLYING_CACHE.values() for e in cat)


def test_catalog_keys_share_one_tuple_per_vertex_pair():
    cat = enumerate_underlying(7)
    assert len({id(p) for key in cat for p in key}) <= 21


def test_has_c4():
    assert has_c4(complete_signed(4, 1))
    assert not has_c4(complete_signed(3, 1))
    star = SignedGraph(5, {(0, v): 1 for v in range(1, 5)})
    assert not has_c4(star)


# -- graph6 and catalog ingestion -------------------------------------------------


def test_graph6_against_networkx():
    rng = random.Random(61)
    # 100 random orders up to 20, drawn lazily, then the '~' long form from n = 63
    orders = chain((rng.randint(0, 20) for _ in range(100)), (62, 63, 64, 100))
    graphs = [nx.gnp_random_graph(n, rng.random(), seed=rng.randint(0, 10**9)) for n in orders]
    graphs += nx.graph_atlas_g()  # every graph with n <= 7
    for G in graphs:
        n = G.number_of_nodes()
        record = nx.to_graph6_bytes(G, header=False).decode().strip()
        mine = decode_graph6(record)
        assert mine.n == n
        assert mine.edge_set() == frozenset(
            (min(u, v), max(u, v)) for u, v in G.edges()
        )
        # and the inverse direction
        assert encode_graph6(mine) == record


def test_graph6_known_values():
    # the path 0-1-2 on 3 vertices: n byte 'B' (2+63... 3->66='B'), bits 011000
    assert decode_graph6("Bg").edge_set() == frozenset({(0, 1), (1, 2)})
    k4 = decode_graph6("C~")
    assert k4.n == 4 and k4.m == 6


def test_graph6_multibyte_order():
    # n = 63 switches to the '~' + 18-bit order form
    G = nx.path_graph(63)
    record = nx.to_graph6_bytes(G, header=False).decode().strip()
    mine = decode_graph6(record)
    assert mine.n == 63 and mine.m == 62
    assert encode_graph6(mine) == record


def test_graph6_encoding_refuses_orders_past_its_largest_form():
    # 258047 is the largest order of the '~' + three-byte form: a next byte '~' starts the 36-bit form
    with pytest.raises(ValueError, match="graph too large for the supported graph6 encodings"):
        encode_graph6(SignedGraph(258048))


def test_graph6_errors_carry_line_numbers():
    with pytest.raises(GraphListError) as err:
        decode_graph6("B" + chr(33), lineno=7)
    assert err.value.line == 7
    assert str(err.value) == "line 7: byte 33 out of graph6 range 63..126"
    # chr(30) is whitespace to str.strip, so "B" + chr(30) is a record with no body
    with pytest.raises(GraphListError) as err:
        decode_graph6("B" + chr(30), lineno=7)
    assert str(err.value) == "line 7: graph6 body for n=3 needs 1 bytes, found 0"
    refusals = [
        (">>graph6<<", "empty graph6 record"),
        ("~~???", "unsupported graph6 order encoding"),  # the 36-bit order form
        ("~??", "unsupported graph6 order encoding"),  # '~' with a short order
        ("C~~", "graph6 body for n=4 needs 1 bytes, found 2"),  # trailing garbage
        ("C", "graph6 body for n=4 needs 1 bytes, found 0"),  # truncated body
        ("B@", "nonzero padding bits in graph6 record"),
    ]
    for record, message in refusals:
        with pytest.raises(GraphListError) as err:
            decode_graph6(record)
        assert str(err.value) == f"line 1: {message}"
    # the first bad byte is named, before the order or the body is read
    with pytest.raises(GraphListError, match="^line 1: byte 32 out of graph6 range 63..126$"):
        decode_graph6("~ B" + chr(30))


def test_graph6_body_length_is_checked_before_the_pairs_are_listed():
    # a '~' record declaring n = 2000 (1,999,000 pairs) with a one-byte body
    record = "~" + "".join(chr(63 + x) for x in (2000 >> 12, 2000 >> 6 & 63, 2000 & 63)) + "?"
    tracemalloc.start()
    try:
        with pytest.raises(GraphListError, match="graph6 body for n=2000 needs 333167 bytes, found 1"):
            decode_graph6(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_ingest_graph6_catalog(tmp_path):
    gs = catalog_graphs(5)
    path = tmp_path / "all5.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in gs))
    parsed = ingest_graph_list(path)
    assert len(parsed) == 34
    assert [tuple(sorted(p.edge_set())) for p in parsed] == [
        tuple(sorted(g.edge_set())) for g in gs
    ]


def test_ingest_sg_without_signs(tmp_path):
    path = tmp_path / "two.sgl"
    path.write_text("# two graphs\n3 2\n1 2\n2 3\n\n2 1\n1 2\n")
    parsed = ingest_graph_list(path)
    assert len(parsed) == 2
    assert parsed[0].edge_set() == frozenset({(0, 1), (1, 2)})
    assert parsed[1].n == 2 and parsed[1].m == 1


def test_ingest_sg_edge_sign_is_ignored_and_checked(tmp_path):
    path = tmp_path / "signed.sgl"
    path.write_text("3 2\n1 2 -\n2 3 +\n")
    assert ingest_graph_list(path)[0].edge_set() == frozenset({(0, 1), (1, 2)})
    path.write_text("3 2\n1 2\n2 3 banana\n")
    with pytest.raises(GraphListError) as err:
        ingest_graph_list(path)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "record,line",
    [
        ("3 x\n", 2),  # non-integer header
        ("3 -1\n", 2),  # negative count
        ("3 1\n1 x +\n", 3),  # non-integer endpoint
        ("3 1\n2 1 +\n", 3),  # u > v
        ("3 1\n2 2 +\n", 3),  # u = v
        ("3 1\n1 4 +\n", 3),  # v > n
        ("3 2\n1 2 +\n1 2 -\n", 4),  # repeated pair
    ],
)
def test_sg_files_and_catalogs_refuse_a_bad_line_alike(tmp_path, record, line):
    # line 1 is a comment for from_sg and an edgeless graph for the catalog, so both
    # read the bad record from line 2
    with pytest.raises(SgFormatError) as as_file:
        SignedGraph.from_sg("# one graph\n" + record)
    path = tmp_path / "bad.sgl"
    path.write_text("1 0\n" + record)
    with pytest.raises(SgFormatError) as as_catalog:
        ingest_graph_list(path)
    assert as_file.value.line == as_catalog.value.line == line
    assert str(as_file.value) == str(as_catalog.value)
    assert GraphListError is SgFormatError


@pytest.mark.parametrize(
    "header,message",
    [
        ("3 x", "non-integer header '3 x'"),
        ("3 1 +", "expected header 'n m', got '3 1 +'"),
    ],
)
def test_catalog_with_a_bad_first_header_is_read_as_sg(tmp_path, header, message):
    # a first line of more than one token is never graph6, whose bytes are not whitespace
    path = tmp_path / "bad.sgl"
    path.write_text(header + "\n1 2\n")
    with pytest.raises(SgFormatError) as err:
        ingest_graph_list(path)
    assert err.value.line == 1
    assert str(err.value) == f"line 1: {message}"


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_catalog_lines_break_at_line_feeds_only(tmp_path, sep):
    # str.splitlines would read three graph6 records here; the first line has
    # no space or tab, so it is one graph6 record, with a byte out of range
    path = tmp_path / "two.g6"
    path.write_text(f"Bg{sep}Bg\nC~\n", encoding="utf-8")
    with pytest.raises(SgFormatError) as err:
        ingest_graph_list(path)
    assert str(err.value) == f"line 1: byte {ord(sep)} out of graph6 range 63..126"
    # str.strip would drop the trailing byte and read a 3-vertex graph
    for text, line in ((f"Bg{sep}\n", 1), (f"C~\nBg{sep}\n", 2), (f"Bg\n{sep}\nC~\n", 2)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SgFormatError) as err:
            ingest_graph_list(path)
        assert str(err.value) == f"line {line}: byte {ord(sep)} out of graph6 range 63..126"
    path.write_text("Bg \t\r\n\t C~\r\n", encoding="utf-8")  # ASCII whitespace still goes
    assert [g.m for g in ingest_graph_list(path)] == [2, 6]


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    assert ingest_graph_list(path) == []


def test_ingest_truncated_record(tmp_path):
    path = tmp_path / "bad.sgl"
    path.write_text("3 2\n1 2\n")
    with pytest.raises(GraphListError) as err:
        ingest_graph_list(path)
    assert "line 1" in str(err.value)


def test_verify_with_ingested_graphs(tmp_path):
    gs = catalog_graphs(5)
    path = tmp_path / "all5.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in gs))
    report = verify_max_index(5, graphs=ingest_graph_list(path))
    assert report.verdict
