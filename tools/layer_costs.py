"""Per-call cost of the exact layer, the labeller, the census kernel and the ascent.

Run from the root of a source checkout (the package is imported from ./src):

    python3 tools/layer_costs.py [OTHER_CHECKOUT]

``rows()`` names each row and the seeded inputs it times.  The script
prints one JSON object: per row, the per-call median, quartiles and
minimum in microseconds over SAMPLES samples, each sample the mean of a
batch of calls sized to take about 20 ms, and that batch size.  The
minimum is the fastest sample, the one least slowed by other processes on
a shared machine: compare sides by it when the medians of rows whose code
did not change move by more than the difference sought.  Uses the
standard library and the package only.

Given the root of a second source checkout, it loads that checkout's
package too, under another module name, and times both in one process:
each row alternates samples between the two, in turn first, so drift of
the machine's speed falls on both alike.  Each side sizes its own batch,
so a sample takes about 20 ms (or one call) on either side, however far
apart their speeds are.  Each row then holds one entry per side, ``this`` and ``other``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction
from itertools import combinations

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import signedspectra  # noqa: E402

ORDERS = (7, 20, 40)
WIDTH = Fraction(1, 10**15)
G10_WIDTH = Fraction(1e-12)
BATCH_S = 0.02
SAMPLES = 15
FIND_GRAPHS = 60
ASCENT_SEEDS = (1, 2, 3)
SAMPLER_SEEDS = (0, 1, 2)


def load_checkout(root: str, name: str):
    """The signedspectra package of the checkout at root, imported as ``name``."""
    package = os.path.join(root, "src", "signedspectra")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def per_call_us(calls: dict, samples: int) -> dict:
    """Median, quartiles and minimum of the per-call time in microseconds, per side.

    ``calls`` maps a side to ``(call, count)``, where ``call`` makes
    ``count`` calls of the function being measured.  Each side runs
    batches of the size its own calibration says takes about BATCH_S, and
    the sides alternate sample by sample.
    """
    batch = {}
    for side, (call, _) in calls.items():
        call()  # warm caches and lazy set-up
        t0 = time.perf_counter()
        for _ in range(5):
            call()
        batch[side] = max(1, int(BATCH_S * 5 / (time.perf_counter() - t0)))
    runs: dict = {side: [] for side in calls}
    order = list(calls)
    for _ in range(samples):
        for side in order:
            call, count = calls[side]
            t0 = time.perf_counter()
            for _ in range(batch[side]):
                call()
            runs[side].append((time.perf_counter() - t0) / (batch[side] * count) * 1e6)
        order.reverse()
    out = {}
    for side, times in runs.items():
        q1, med, q3 = statistics.quantiles(times, n=4)
        out[side] = {
            "median": round(med, 1),
            "q1": round(q1, 1),
            "q3": round(q3, 1),
            "min": round(min(times), 1),
            "batch": batch[side],
        }
    return out


def complete_bipartite(ss, m: int, negative):
    return ss.SignedGraph(
        2 * m, {(i, m + j): -1 if (i, m + j) in negative else 1 for i in range(m) for j in range(m)}
    )


def random_signed_graph(ss, rng: random.Random, n: int, edge_prob: float):
    """Each pair an edge with probability edge_prob, each edge negative with probability 1/2."""
    table = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                table[(u, v)] = rng.choice((-1, 1))
    return ss.SignedGraph(n, table)


def k11_minus_path(ss, seed: int):
    """K_11 minus the path 3-6-4 with signs drawn in edge order, and a relabelled, switched copy."""
    rng = random.Random(seed)
    edges = [e for e in combinations(range(11), 2) if e not in ((3, 6), (4, 6))]
    a = ss.SignedGraph(11, {e: rng.choice((1, -1)) for e in edges})
    perm = list(range(11))
    rng.shuffle(perm)
    return a, ss.switching.switch(a.relabel(perm), [v for v in range(11) if rng.random() < 0.5])


def rows(ss) -> dict:
    """Row name -> ``(call, count)``, with inputs built by the package ss from fixed seeds."""
    out = {}
    rng = random.Random(1)
    for n in ORDERS:
        g = ss.extremal_graph(n)
        p = ss.char_poly_exact(g)
        perm = list(range(n))
        rng.shuffle(perm)
        h = ss.switching.switch(g.relabel(perm), {v for v in range(n) if rng.random() < 0.5})
        out[f"char_poly_exact.n{n}"] = (lambda g=g: ss.char_poly_exact(g), 1)
        out[f"largest_real_root_interval.n{n}"] = (
            lambda p=p: ss.polynomial.largest_real_root_interval(p, WIDTH),
            1,
        )
        out[f"switching_isomorphic.n{n}"] = (
            lambda g=g, h=h: ss.switching.switching_isomorphic(h, g),
            1,
        )
    rand40 = random_signed_graph(ss, random.Random(40), 40, 0.5)
    classes = ss.switching._twin_classes([p | q for p, q in zip(rand40._pos, rand40._neg)], rand40._neg)
    assert len(classes) == 40, "char_poly_exact.rand40 must time the kernel on the full matrix"
    out["char_poly_exact.rand40"] = (lambda: ss.char_poly_exact(rand40), 1)
    p40 = ss.char_poly_exact(ss.extremal_graph(40))
    out["isolate_real_roots.n40"] = (lambda: ss.polynomial.isolate_real_roots(p40), 1)
    near, near_rng = ss.near_extremal_graph(40), random.Random(40)
    near_perm = list(range(40))
    near_rng.shuffle(near_perm)
    near_copy = ss.switching.switch(near.relabel(near_perm), {v for v in range(40) if near_rng.random() < 0.5})
    out["switching_isomorphic.near40"] = (lambda: ss.switching.switching_isomorphic(near_copy, near), 1)
    g = ss.extremal_graph(40)
    half = [v for v in range(40) if rng.random() < 0.5]
    moved = ss.switching.switch(g, half)
    out["switching_equivalent.n40"] = (lambda: ss.switching.switching_equivalent(moved, g), 1)
    out["switch.n40"] = (lambda: ss.switching.switch(g, half), 1)
    out["nonneg_eigenvector_form.n40"] = (lambda: ss.spectra.nonneg_eigenvector_form(moved), 1)
    out["is_balanced.n40"] = (lambda: ss.switching.is_balanced(moved), 1)
    table = {(u, v): s for u, v, s in g.edges()}
    out["SignedGraph.n40"] = (lambda: ss.SignedGraph(40, table), 1)
    perm = list(range(40))
    rng.shuffle(perm)
    out["relabel.n40"] = (lambda: g.relabel(perm), 1)
    out["edges.n40"] = (lambda: g.edges(), 1)
    out["adjacency_matrix.n40"] = (lambda: g.adjacency_matrix(), 1)
    out["extremal_graph.n40"] = (lambda: ss.extremal_graph(40), 1)
    out["near_extremal_graph.n40"] = (lambda: ss.near_extremal_graph(40), 1)
    A, Q = ss.extremal_graph(20).adjacency_matrix(), ss.families.extremal_quotient_matrix(20)
    part = ss.families.extremal_partition(20)
    out["quotient_matrix.n20"] = (lambda: ss.spectra.quotient_matrix(A, part), 1)
    out["check_quotient_containment.n20"] = (lambda: ss.spectra.check_quotient_containment(A, Q), 1)
    rng = random.Random(10)
    graphs10 = [random_signed_graph(ss, rng, 10, 0.8) for _ in range(200)]
    out["char_poly_exact.g10"] = (lambda: [ss.char_poly_exact(g) for g in graphs10], len(graphs10))
    g10 = [ss.char_poly_exact(g) for g in graphs10]
    out["largest_real_root_interval.g10"] = (
        lambda: [ss.polynomial.largest_real_root_interval(p, G10_WIDTH) for p in g10],
        len(g10),
    )
    out["compare_largest_real_roots.g10"] = (
        lambda: [ss.polynomial.compare_largest_real_roots(p, q) for p, q in zip(g10, g10[1:])],
        len(g10) - 1,
    )

    rng = random.Random(11)
    sparse10 = [random_signed_graph(ss, rng, 10, 0.4) for _ in range(FIND_GRAPHS)]
    out["find_negative_ck.n10"] = (
        lambda: [ss.cycles.find_negative_ck(g, k) for g in sparse10 for k in (5, 6)],
        2 * len(sparse10),
    )

    def fresh_catalog(n):
        ss.enumeration._UNDERLYING_CACHE.clear()
        return ss.enumeration.enumerate_underlying(n)

    out["enumerate_underlying.n7"] = (lambda: fresh_catalog(7), 1)
    tasks = ss.enumeration.enumerate_underlying(7)
    out["_canonical_edges.n7"] = (
        lambda: [ss.enumeration._canonical_edges(7, t) for t in tasks],
        len(tasks),
    )
    out["_census_one_graph.n7"] = (
        lambda: [ss.enumeration._census_one_graph(7, t) for t in tasks],
        len(tasks),
    )
    one = complete_bipartite(ss, 5, {(0, 5)})
    two = complete_bipartite(ss, 5, {(0, 5), (0, 6)})
    out["switching_isomorphic.k55"] = (lambda: ss.switching.switching_isomorphic(one, two), 1)
    a, b = k11_minus_path(ss, 29)
    out["switching_isomorphic.k11p"] = (lambda: ss.switching.switching_isomorphic(a, b), 1)
    out["greedy_ascent.n12"] = (
        lambda: [ss.greedy_ascent(12, seed) for seed in ASCENT_SEEDS],
        len(ASCENT_SEEDS),
    )
    starts = [ss.random_unbalanced_c4free(12, random.Random(seed)) for seed in ASCENT_SEEDS]
    out["shortest_negative_cycle.n12"] = (
        lambda: [ss.shortest_negative_cycle(g) for g in starts],
        len(starts),
    )

    def forms(graphs):
        """(float sign matrix, leading eigenvector) per graph in nonnegative-eigenvector form."""
        return [
            (h.adjacency_matrix().astype(float), rep.x) for h, rep in map(ss.spectra.nonneg_eigenvector_form, graphs)
        ]

    forms12 = forms(starts)
    out["ranked_candidates.n12"] = (
        lambda: [next(ss.proofmoves._ranked_candidates(S, x)) for S, x in forms12],
        len(forms12),
    )
    forms17 = forms(ss.random_unbalanced_c4free(17, random.Random(seed)) for seed in ASCENT_SEEDS)
    out["ranked_candidates.n17"] = (
        lambda: [next(ss.proofmoves._ranked_candidates(S, x)) for S, x in forms17],
        len(forms17),
    )
    maxima = forms(ss.greedy_ascent(12, seed).graph for seed in ASCENT_SEEDS)
    out["ranked_candidates.local_max.n12"] = (
        lambda: [list(ss.proofmoves._ranked_candidates(S, x)) for S, x in maxima],
        len(maxima),
    )
    out["random_unbalanced_c4free.n16"] = (
        lambda: [ss.random_unbalanced_c4free(16, random.Random(seed)) for seed in SAMPLER_SEEDS],
        len(SAMPLER_SEEDS),
    )
    return out


def main(argv: list[str]) -> None:
    sides = {"this": signedspectra}
    if argv:
        sides["other"] = load_checkout(argv[0], "signedspectra_other")
    tables = {side: rows(ss) for side, ss in sides.items()}
    out = {"unit": "us per call", "samples": SAMPLES}
    for name in tables["this"]:
        calls = {side: table[name] for side, table in tables.items()}
        stats = per_call_us(calls, SAMPLES)
        out[name] = stats if len(stats) > 1 else stats["this"]
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
