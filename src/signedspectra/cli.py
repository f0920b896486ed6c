"""Command-line driver.

Subcommands: gen, spectrum, check, quotient, normalize, verify, search,
bounds.  Machine-readable results are emitted as JSON lines.  Exit codes:
0 success, 1 usage error, 2 I/O or parse error, 3 verification verdict
false (so CI can gate on a census run).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .core import SgFormatError, SignedGraph
from .cycles import is_ck_negative_free, shortest_negative_cycle
from .enumeration import ingest_graph_list, verify_c4free_bounds, verify_max_index
from .families import FAMILY_ALIASES, FAMILY_TAGS, FamilySpec
from .proofmoves import greedy_ascent
from .spectra import (
    VertexPartition,
    char_poly_exact,
    eigenvalues_sym,
    nonneg_eigenvector_form,
    quotient_matrix,
)
from .switching import is_balanced


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit_graph(g: SignedGraph, out: str | None) -> None:
    if out:
        g.save(out)
    else:
        sys.stdout.write(g.to_sg())


def parse_partition(text: str, n: int) -> VertexPartition:
    """Parse ``a|b|c-d`` block syntax with 1-based inclusive ranges."""
    blocks = []
    for chunk in text.split("|"):
        block: list[int] = []
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                raise ValueError(f"empty item in partition {text!r}")
            if "-" in item:
                lo_s, hi_s = item.split("-", 1)
                lo, hi = int(lo_s), int(hi_s)
                if lo > hi:
                    raise ValueError(f"empty range {item!r}")
                block.extend(range(lo - 1, hi))
            else:
                block.append(int(item) - 1)
        blocks.append(tuple(block))
    part = VertexPartition(tuple(blocks))
    if part.n != n:
        raise ValueError(f"partition covers {part.n} vertices, graph has {n}")
    return part


def _cycle_json(w) -> dict | None:
    if w is None:
        return None
    return {"vertices": [v + 1 for v in w.vertices], "length": w.length, "sign": w.sign}


# -- subcommand handlers ---------------------------------------------------------


def cmd_gen(args) -> int:
    g = FamilySpec(FAMILY_ALIASES.get(args.family, args.family), args.n).build()
    _emit_graph(g, args.output)
    return 0


def cmd_spectrum(args) -> int:
    g = SignedGraph.load(args.file)
    rep = eigenvalues_sym(g.adjacency_matrix())
    record = {
        "n": g.n,
        "lambda1": rep.lambda1,
        "eigenvalues": [float(v) for v in rep.eigenvalues],
    }
    if args.exact:
        record["charpoly"] = list(char_poly_exact(g).coeffs)
    print(json.dumps(record))
    return 0


def cmd_check(args) -> int:
    g = SignedGraph.load(args.file)
    bal = is_balanced(g)
    record = {
        "n": g.n,
        "balanced": bal.balanced,
        "c4_negative_free": is_ck_negative_free(g, 4),
        "shortest_negative_cycle": _cycle_json(shortest_negative_cycle(g)),
    }
    if bal.balanced:
        record["bisigning"] = list(bal.bisigning)
    else:
        record["balance_witness"] = _cycle_json(bal.negative_cycle)
    print(json.dumps(record))
    return 0


def cmd_quotient(args) -> int:
    g = SignedGraph.load(args.file)
    part = parse_partition(args.partition, g.n)
    res = quotient_matrix(g.adjacency_matrix(), part)
    if res.is_equitable:
        print(json.dumps({"equitable": True, "matrix": res.matrix.tolist()}))
    else:
        i, j, row = res.violation
        print(
            json.dumps(
                {"equitable": False, "violation": {"block_i": i + 1, "block_j": j + 1, "row": row + 1}}
            )
        )
    return 0


def cmd_normalize(args) -> int:
    g = SignedGraph.load(args.file)
    switched, rep = nonneg_eigenvector_form(g)
    sys.stdout.write(switched.to_sg())
    print(f"# lambda1 {rep.lambda1!r}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    graphs = None
    if args.graphs:
        graphs = ingest_graph_list(args.graphs)
    report = verify_max_index(args.n, graphs=graphs, checkpoint=args.checkpoint, progress=args.progress)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.verdict else 3


def _one_based(operands) -> list:
    return [_one_based(op) if isinstance(op, tuple) else op + 1 for op in operands]


def cmd_search(args) -> int:
    try:
        result = greedy_ascent(args.n, args.seed, args.max_steps)
    except RuntimeError as exc:  # the start sampler gave up
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.progress:
        traj = result.trajectory
        for step, (mv, delta) in enumerate(zip(result.applied, result.deltas), start=1):
            record = {
                "step": step,
                "move": mv.kind.value,
                "operands": _one_based(mv.operands),
                "rayleigh_delta": delta,
                "gain": traj[step] - traj[step - 1],
            }
            print(json.dumps(record), file=sys.stderr)
    for step, lam in enumerate(result.trajectory):
        print(f"# step {step} lambda1 {lam!r}")
    sys.stdout.write(result.graph.to_sg())
    return 0


def cmd_bounds(args) -> int:
    ok = verify_c4free_bounds(args.n)
    print(json.dumps({"n": args.n, "all_hold": ok}))
    return 0 if ok else 3


# -- parser ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="signedspectra", description=__doc__)
    parser.add_argument("--version", action="version", version=f"signedspectra {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a named family member as .sg")
    p.add_argument("--family", required=True, choices=sorted([*FAMILY_TAGS, *FAMILY_ALIASES]))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("spectrum", help="eigenvalues and index of a .sg file")
    p.add_argument("file")
    p.add_argument("--exact", action="store_true", help="include the exact char poly")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("check", help="balance, negative-C4 freeness, shortest negative cycle")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("quotient", help="equitable quotient matrix under a partition")
    p.add_argument("file")
    p.add_argument("--partition", required=True, help="blocks like '1|2|3|4-10' (1-based)")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("normalize", help="switch to nonnegative leading eigenvector form")
    p.add_argument("file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("verify", help="census of order n; exit 3 when the verdict fails")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--jobs",
        type=int,
        choices=[1],
        default=1,
        help="the census runs in one process; kept so existing scripts still parse",
    )
    p.add_argument("--graphs", default=None, help="graph6 or sign-less .sg catalog")
    p.add_argument("--out", default=None, help="write the JSON report here as well")
    p.add_argument("--checkpoint", default=None, help="JSON-lines resume file")
    p.add_argument("--progress", action="store_true")
    p.add_argument(
        "--long-run",
        action="store_true",
        help="accepted and ignored; kept so existing scripts still parse",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="greedy index ascent from a random start")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=500)
    p.add_argument(
        "--progress", action="store_true", help="JSON line per applied move on stderr"
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="C4-free spectral bounds on all graphs of order n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (SgFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
