"""Per-layer call counts and self time for signedspectra, from outside it.

A layer is one module of the package.  ``install`` replaces every public
function of a layer by a timing wrapper at each place a caller looks it up:
the defining module, every module that imported it by name (for example
``signedspectra.enumeration.is_balanced`` and
``signedspectra.proofmoves.eigenvalues_sym``) and the package namespace.
Calls nested inside the census or the ascent are therefore seen.

Self time is a call's duration minus the durations of the wrapped calls it
made.  Time in private helpers counts towards the public caller.

Run as a script, this module traces one ``signedspectra`` CLI invocation:

    python perfbench/tracing.py STATS.json verify --n 7 --long-run --jobs 1

It writes the stats to STATS.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "enumeration",
    "switching",
    "cycles",
    "spectra",
    "polynomial",
    "proofmoves",
    "families",
    "core",
    "cli",
)

# Whole-graph SignedGraph operations.  Per-pair queries (has_edge, sign,
# degree, neighbors) run in the innermost loops of candidate generation and
# isomorphism search; wrapping them would make the trace time the wrapper.
CORE_METHODS = (
    "__init__",
    "edges",
    "edge_set",
    "adjacency_lists",
    "adjacency_matrix",
    "set_edge",
    "remove_edge",
    "relabel",
    "to_sg",
    "from_sg",
)


class Tracer:
    """Aggregated stats keyed by (layer, function, lookup site).

    Each value is ``[calls, self_seconds, failed]``; a call fails when it
    raises.
    """

    def __init__(self):
        self.stats: dict[tuple[str, str, str], list] = {}
        self._open: list[float] = []  # wrapped child time of each open call

    def wrap(self, layer: str, name: str, site: str, fn):
        rec = self.stats.setdefault((layer, name, site), [0, 0.0, 0])
        open_calls = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_calls.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec[2] += 1
                raise
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt - open_calls.pop()
                if open_calls:
                    open_calls[-1] += dt

        return traced

    def to_json(self) -> list:
        return [[layer, name, site, *rec] for (layer, name, site), rec in self.stats.items()]


def _layer_of(fn) -> str | None:
    package, _, layer = getattr(fn, "__module__", "").rpartition(".")
    return layer if package == "signedspectra" and layer in LAYERS else None


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, and SignedGraph's CORE_METHODS."""
    package = importlib.import_module("signedspectra")
    sites = [package] + [importlib.import_module(f"signedspectra.{m}") for m in LAYERS]
    for site in sites:
        for attr, obj in list(vars(site).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = _layer_of(obj)
            if layer is not None:
                setattr(site, attr, tracer.wrap(layer, attr, site.__name__, obj))
    cls = package.SignedGraph
    for attr in CORE_METHODS:
        raw = vars(cls)[attr]
        name = "SignedGraph" if attr == "__init__" else f"SignedGraph.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap("core", name, "signedspectra.core", raw.__func__))
        else:
            wrapped = tracer.wrap("core", name, "signedspectra.core", raw)
        setattr(cls, attr, wrapped)


def merge(rows_lists) -> dict[tuple[str, str, str], list]:
    """Sum ``Tracer.to_json`` rows from several processes."""
    out: dict[tuple[str, str, str], list] = {}
    for rows in rows_lists:
        for layer, name, site, calls, self_s, failed in rows:
            rec = out.setdefault((layer, name, site), [0, 0.0, 0])
            rec[0] += calls
            rec[1] += self_s
            rec[2] += failed
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracing.py STATS.json CLI-ARGS...", file=sys.stderr)
        return 1
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("signedspectra.cli")
    try:
        return cli.main(cli_args)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
