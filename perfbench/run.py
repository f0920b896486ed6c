"""Benchmark for signedspectra: the census, ascent and exact workloads.

Run from the root of a source checkout (the package is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

With --trace 0 the run times passes of the workload for --seconds (at
least one pass) and reports the end-to-end metrics as medians over the
passes.  With --trace 1 it does the same untraced, then one more pass with
every public library function wrapped (see tracing.py), and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; lines before it starting
with '#' describe the environment and the workload's own named metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

SETUP_SAMPLES = 5


# Plans are read from workloads at call time, so a test can shrink them.
WORKLOADS = {
    "census": lambda ctx: workloads.census_pass(ctx, workloads.CENSUS_STEPS),
    "ascent": lambda ctx: workloads.ascent_pass(
        ctx, workloads.ascent_cases(ctx.seed, workloads.ASCENT_ORDERS, workloads.ASCENT_PINNED)
    ),
    "exact": lambda ctx: workloads.exact_pass(ctx, workloads.EXACT_ORDERS),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# (layer, function) pairs reported one by one in the traced run
LAYER_FUNCTIONS = (
    ("enumeration", "enumerate_underlying"),
    ("enumeration", "switching_classes"),
    ("switching", "is_balanced"),
    ("switching", "switching_isomorphic"),
    ("cycles", "is_ck_negative_free"),
    ("cycles", "find_negative_ck"),
    ("spectra", "eigenvalues_sym"),
    ("spectra", "nonneg_eigenvector_form"),
    ("spectra", "char_poly_exact"),
    ("spectra", "check_quotient_containment"),
    ("polynomial", "largest_real_root_interval"),
    ("polynomial", "isolate_real_roots"),
    ("proofmoves", "random_unbalanced_c4free"),
    ("proofmoves", "candidate_moves"),
    ("core", "SignedGraph"),
)
FAILURE_COUNTED = {("proofmoves", "random_unbalanced_c4free")}


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numpy = importlib.import_module("numpy")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def setup_seconds(ctx) -> list[float]:
    """Wall time of a fresh interpreter importing signedspectra, per sample.

    One untimed import first fills the bytecode and file caches, which a
    user pays once, not on every run.
    """
    argv = [sys.executable, "-c", "import signedspectra"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, env=ctx.env, cwd=ctx.root, check=True, timeout=60)
        if i:
            samples.append(time.perf_counter() - t0)
    return samples


def run_passes(run_pass, ctx, seconds: float) -> list:
    """Passes until ``seconds`` have elapsed, at least one."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(ctx))
        if time.perf_counter() >= deadline:
            return passes


def median_values(passes) -> dict[str, float]:
    keys = passes[0].values
    return {k: statistics.median(p.values[k] for p in passes) for k in keys}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(stats: dict, traced, untraced_s: float) -> dict:
    """Per-layer metrics of one traced pass; zero for layers it never called.

    Self time is given as a share of the traced pass's wall time: tracing
    slows the pass, so shares compare across runs better than seconds.
    """
    traced_s = traced.values["wall_s"]
    out = {}

    def add(prefix: str, rows: list) -> None:
        out[f"{prefix}.calls"] = metric(sum(r[0] for r in rows), "count")
        out[f"{prefix}.share"] = metric(sum(r[1] for r in rows) / traced_s, "ratio")

    for layer in tracing.LAYERS:
        add(layer, [rec for (lay, _, _), rec in stats.items() if lay == layer])
    for layer, name in LAYER_FUNCTIONS:
        rows = [rec for (lay, fn, _), rec in stats.items() if (lay, fn) == (layer, name)]
        add(f"{layer}.{name}", rows)
        if (layer, name) in FAILURE_COUNTED:
            out[f"{layer}.{name}.failed"] = metric(sum(r[2] for r in rows), "count")
    counts = traced.counts
    eligible_ratio = counts["eligible"] / counts["classes"] if counts.get("classes") else 0.0
    out["census.eligible_ratio"] = metric(eligible_ratio, "ratio")
    out["census.checkpoint_bytes"] = metric(counts.get("checkpoint_bytes", 0), "bytes")
    # candidates eigensolved = eigensolves the ascent looks up in proofmoves;
    # nonneg_eigenvector_form's own solves go through spectra
    solved = stats.get(("spectra", "eigenvalues_sym", "signedspectra.proofmoves"), [0])[0]
    accept = counts.get("steps", 0) / solved if solved else 0.0
    out["ascent.accept_ratio"] = metric(accept, "ratio")
    out["trace.untraced_s"] = metric(untraced_s, "s")
    out["trace.traced_s"] = metric(traced_s, "s")
    out["trace.covered_share"] = metric(sum(rec[1] for rec in stats.values()) / traced_s, "ratio")
    return out


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "MB" if name.endswith("_mb") else "s"


def describe(passes, values: dict) -> None:
    """Print the workload's own named metrics and every failed operation."""
    for name, value in sorted(values.items()):
        if name not in END_TO_END:
            print(f"# {name} = {value!r} {unit_of(name)} (median of {len(passes)} pass(es))")
    for p in passes:
        for note in p.notes:
            print(f"# failed: {note}")


def run(args, ctx) -> dict:
    run_pass = WORKLOADS[args.workload]
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = metric(statistics.median(setup_seconds(ctx)), "s")
    passes = run_passes(run_pass, ctx, args.seconds)
    values = median_values(passes)
    describe(passes, values)
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        ctx.traced = True
        traced = run_pass(ctx)
        passes.append(traced)
        stats = tracing.merge([tracer.to_json(), *traced.trace_rows])
        metrics = layer_metrics(stats, traced, values["wall_s"])
        overhead = traced.values["wall_s"] / values["wall_s"] - 1.0
        print(f"# trace: untraced {values['wall_s']:.3f} s, traced {traced.values['wall_s']:.3f} s, "
              f"overhead {overhead:+.1%}")
    else:
        for name, unit in END_TO_END.items():
            if name != "setup_s":
                metrics[name] = metric(values[name], unit)
    return {
        "correct": not any(p.wrong for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "signedspectra", "__init__.py")):
        print(f"error: no signedspectra sources in {src}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    ss = importlib.import_module("signedspectra")
    if os.path.dirname(os.path.dirname(os.path.abspath(ss.__file__))) != src:
        print(f"error: signedspectra imported from {ss.__file__}, not {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    print("# env " + json.dumps(environment()))
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        ctx = workloads.Context(root=root, env=env, tmpdir=tmpdir, seed=args.seed, ss=ss)
        result = run(args, ctx)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
