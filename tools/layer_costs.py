"""Per-call cost of the exact layer and of the labeller.

Run from the root of a source checkout (the package is imported from ./src):

    python3 tools/layer_costs.py

For each order n in ORDERS it times ``char_poly_exact(extremal_graph(n))``,
``largest_real_root_interval`` of that polynomial at width 1e-15 and
``switching_isomorphic`` of a relabelled and switched copy of
``extremal_graph(n)`` against the original.  It times
``largest_real_root_interval`` at width 1e-12 per characteristic polynomial
of 200 seeded signed graphs of order 10 (edge probability 0.8), where the
square-free part and the Sturm chain, not bisection, are most of the cost.
It also times the canonical form ``_canonical_edges`` per graph of
``enumerate_underlying(7)``, and
``switching_isomorphic`` of K_{5,5} with one negative edge against K_{5,5}
with two negative edges at one vertex (not switching isomorphic, and
K_{5,5} has 2 (5!)^2 automorphisms).  It prints one JSON object: per-call
median and quartiles in microseconds over SAMPLES samples, each sample
the mean of a batch of calls sized to take about 20 ms.  Uses the
standard library and the package only.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import signedspectra as ss  # noqa: E402

ORDERS = (7, 20, 40)
WIDTH = Fraction(1, 10**15)
G10_WIDTH = Fraction(1e-12)
BATCH_S = 0.02
SAMPLES = 15


def per_call_us(call, samples: int, calls: int = 1) -> dict:
    """Median and quartiles of the per-call time in microseconds.

    ``call`` makes ``calls`` calls of the function being measured.
    """
    call()  # warm caches and lazy set-up
    t0 = time.perf_counter()
    for _ in range(5):
        call()
    batch = max(1, int(BATCH_S * 5 / (time.perf_counter() - t0)))
    runs = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(batch):
            call()
        runs.append((time.perf_counter() - t0) / (batch * calls) * 1e6)
    q1, med, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(med, 1), "q1": round(q1, 1), "q3": round(q3, 1), "batch": batch}


def complete_bipartite(m: int, negative) -> ss.SignedGraph:
    return ss.SignedGraph(
        2 * m, {(i, m + j): -1 if (i, m + j) in negative else 1 for i in range(m) for j in range(m)}
    )


def random_signed_graph(rng: random.Random, n: int, edge_prob: float) -> ss.SignedGraph:
    """Each pair an edge with probability edge_prob, each edge negative with probability 1/2."""
    table = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                table[(u, v)] = rng.choice((-1, 1))
    return ss.SignedGraph(n, table)


def main() -> None:
    out = {"unit": "us per call", "samples": SAMPLES}
    rng = random.Random(1)
    for n in ORDERS:
        g = ss.extremal_graph(n)
        p = ss.char_poly_exact(g)
        perm = list(range(n))
        rng.shuffle(perm)
        h = ss.switching.switch(g.relabel(perm), {v for v in range(n) if rng.random() < 0.5})
        out[f"char_poly_exact.n{n}"] = per_call_us(lambda: ss.char_poly_exact(g), SAMPLES)
        out[f"largest_real_root_interval.n{n}"] = per_call_us(
            lambda: ss.polynomial.largest_real_root_interval(p, WIDTH), SAMPLES
        )
        out[f"switching_isomorphic.n{n}"] = per_call_us(
            lambda: ss.switching.switching_isomorphic(h, g), SAMPLES
        )
    rng = random.Random(10)
    g10 = [ss.char_poly_exact(random_signed_graph(rng, 10, 0.8)) for _ in range(200)]
    out["largest_real_root_interval.g10"] = per_call_us(
        lambda: [ss.polynomial.largest_real_root_interval(p, G10_WIDTH) for p in g10], SAMPLES, len(g10)
    )
    catalog = [frozenset(g.edge_set()) for g in ss.enumeration.enumerate_underlying(7)]
    out["_canonical_edges.n7"] = per_call_us(
        lambda: [ss.enumeration._canonical_edges(7, e) for e in catalog], SAMPLES, len(catalog)
    )
    one = complete_bipartite(5, {(0, 5)})
    two = complete_bipartite(5, {(0, 5), (0, 6)})
    out["switching_isomorphic.k55"] = per_call_us(
        lambda: ss.switching.switching_isomorphic(one, two), SAMPLES
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
