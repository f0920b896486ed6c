"""Per-call cost of the exact layer: char_poly_exact and largest_real_root_interval.

Run from the root of a source checkout (the package is imported from ./src):

    python3 tools/layer_costs.py

For each order n in ORDERS it times ``char_poly_exact(extremal_graph(n))``
and ``largest_real_root_interval`` of that polynomial at width 1e-15, and
prints one JSON object: per-call median and quartiles in microseconds over
SAMPLES samples, each sample the mean of a batch of calls sized to take
about 20 ms.  Uses the standard library and the package only.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import signedspectra as ss  # noqa: E402

ORDERS = (7, 20, 40)
WIDTH = Fraction(1, 10**15)
BATCH_S = 0.02
SAMPLES = 15


def per_call_us(call, samples: int) -> dict:
    """Median and quartiles of the per-call time in microseconds."""
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
        runs.append((time.perf_counter() - t0) / batch * 1e6)
    q1, med, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(med, 1), "q1": round(q1, 1), "q3": round(q3, 1), "batch": batch}


def main() -> None:
    out = {"unit": "us per call", "samples": SAMPLES}
    for n in ORDERS:
        g = ss.extremal_graph(n)
        p = ss.char_poly_exact(g)
        out[f"char_poly_exact.n{n}"] = per_call_us(lambda: ss.char_poly_exact(g), SAMPLES)
        out[f"largest_real_root_interval.n{n}"] = per_call_us(
            lambda: ss.polynomial.largest_real_root_interval(p, WIDTH), SAMPLES
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
