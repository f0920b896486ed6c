"""Exhaustive enumeration of small signed graphs up to switching.

Underlying simple graphs are enumerated one vertex at a time: every graph
on k vertices extends a graph on k-1 vertices by one new vertex with some
neighborhood, and deduplicating the extensions by canonical form yields
every isomorphism class.  Neighborhoods in one orbit of the parent's
automorphisms give isomorphic extensions, so each parent is extended by one
neighborhood per orbit of its twin transpositions: twins u, v (N(u) minus v
equals N(v) minus u) can be swapped by an automorphism, so within a twin
class only the number of chosen members matters, and the first j members
are taken for every j.  That is prod(|class| + 1) neighborhoods instead of
2^(k-1).

Only children whose new vertex has the largest degree are labelled, the
cheap half of McKay's canonical augmentation ("Isomorph-free exhaustive
generation", J. Algorithms 1998): with s neighbours picked, the new vertex
needs s >= every parent degree and s > the degree of every picked vertex
(which rises by one).  This loses no graph.  Take any graph G on k vertices
and a vertex w of largest degree.  G - w is isomorphic to some parent P,
and a product of twin transpositions, each an automorphism of P, maps the
image of N(w) onto one of the neighbourhoods P is extended by.  So that
child is isomorphic to G, and its new vertex plays w, so it has the
largest degree and is kept.  Canonical forms still remove the duplicates.

The canonical form is the minimum relabeled edge list over the leaves of
the refine-and-individualize search tree of :mod:`signedspectra.switching`,
walked with twin pruning: a node individualizes one vertex per twin class
of its target cell, the first-level automorphism pruning of McKay and
Piperno ("Practical graph isomorphism, II", 2014) restricted to twin
transpositions, and a cell inside one twin class becomes its singletons
at once: K_n has one leaf and one refinement, not n! and n.  Switching
isomorphism walks the same tree, pruned by signed twins.

For a fixed underlying graph, switching classes are indexed by pinning the
canonical BFS spanning forest to all-positive: a class is then a sign
pattern over the cotree edges, an integer whose bit i negates cotree edge
i (cotree edges in sorted order), and a graph with m edges, n vertices and
c components has exactly 2^(m-n+c) classes, one per pattern.

``verify_max_index`` runs the full census for one order as linear algebra
over GF(2).  With the forest positive, a class x is balanced iff x = 0,
and a 4-cycle C is negative iff the parity of x on C's cotree edges is 1
(Zaslavsky, "Signed graphs", 1982).  So x negates the 4-cycles in the XOR
of its columns, one column per cotree edge (the bitset of the 4-cycles
through it), and the eligible classes are the nonzero kernel vectors.
Class and eligible counts are powers of two, and only the kernel vectors
are eigensolved, in one stacked LAPACK call per graph.  The classes that
attain the maximum index exactly are the witnesses, and the verdict
states whether each is switching isomorphic to the extremal graph.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import product

import numpy as np

from .core import SgFormatError, SignedGraph, _bfs_forest, _bitsets, _sg_header, _sg_lines, _sg_pair
from .families import extremal_graph
from .polynomial import compare_largest_real_roots
from .spectra import c4free_bound_check, char_poly_exact, index
from .switching import _leaves, _relabelled, _twin_classes, switching_isomorphic

__all__ = [
    "enumerate_underlying",
    "switching_classes",
    "CensusReport",
    "verify_max_index",
    "verify_c4free_bounds",
    "ingest_graph_list",
    "GraphListError",
    "decode_graph6",
    "encode_graph6",
    "has_c4",
]

MAX_BUILTIN_ORDER = 9
# checkpoint layout; records carry (lam, pattern) pairs since format 2 and
# are strict JSON (best is null, not -Infinity, when nothing is kept) since 3
CHECKPOINT_FORMAT = 3
# Classes whose float index is within FLOAT_MARGIN of the float maximum are
# compared exactly; the rest never are.  That is sound while twice the float
# error stays below the margin.  eigh is backward stable: its index is an
# exact eigenvalue of A + E with ||E||_2 <= c n eps ||A||_2, so by Weyl
# |lam_hat - lam| <= c n eps ||A||_2, and ||A||_2 <= n - 1 for a signed
# adjacency matrix (at most the largest degree).  That is about 3.5e-13 c at
# n = 40.  The tests compare every eligible class's float index with its
# exact root at n = 5..7 (worst error 2.7e-15).
FLOAT_MARGIN = 1e-9
_UNDERLYING_CACHE: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}


# -- canonical forms -----------------------------------------------------------


def _canonical_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Minimum relabeled edge list over the twin-pruned leaves of the labeller's tree."""
    adj = _bitsets(n, edges)
    return min(_relabelled(order, edges) for order in _leaves(adj, _twin_classes(adj)))


def enumerate_underlying(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All non-isomorphic simple graphs on n vertices, as canonical sorted edge lists.

    Deterministic order: ascending edge count, then canonical edge list.
    Built-in enumeration is capped at n = 9 (274668 graphs), the census's
    only order limit; larger orders must come from :func:`ingest_graph_list`.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_BUILTIN_ORDER:
        raise ValueError(
            f"built-in enumeration is capped at n = {MAX_BUILTIN_ORDER}; a census of a "
            "larger order reads an external catalog (graphs=, or verify --graphs)"
        )
    if n in _UNDERLYING_CACHE:
        return list(_UNDERLYING_CACHE[n])
    reps: set[tuple] = {()}  # canonical edge lists at n = 1
    for k in range(2, n + 1):
        nxt: set[tuple] = set()
        for key in reps:
            adj = _bitsets(k - 1, key)
            top = max(row.bit_count() for row in adj)
            classes = _twin_classes(adj)
            degrees = [adj[cls[0]].bit_count() for cls in classes]
            for counts in product(*(range(len(cls) + 1) for cls in classes)):
                s = sum(counts)
                if s < top or any(j and s <= d for j, d in zip(counts, degrees)):
                    continue  # the new vertex would not have the largest degree
                picked = tuple((u, k - 1) for cls, j in zip(classes, counts) for u in cls[:j])
                nxt.add(_canonical_edges(k, key + picked))
        reps = nxt
    _UNDERLYING_CACHE[n] = tuple(sorted(reps, key=lambda t: (len(t), t)))
    return list(_UNDERLYING_CACHE[n])


# -- switching classes ---------------------------------------------------------


def _cotree(n: int, edges: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """Edges outside the canonical BFS forest, in sorted edge order.

    Bit i of a sign pattern negates ``cotree[i]``; this fixes the pattern
    numbering shared by :func:`switching_classes` and the census.
    """
    forest = set(_bfs_forest(_bitsets(n, edges))[2])
    return [e for e in edges if e not in forest]


def _signed_by_pattern(
    n: int, edges: tuple[tuple[int, int], ...], cotree: list[tuple[int, int]], bits: int
) -> SignedGraph:
    table = dict.fromkeys(edges, 1)
    table.update((e, -1) for i, e in enumerate(cotree) if bits >> i & 1)
    return SignedGraph(n, table)


def switching_classes(g: SignedGraph) -> list[SignedGraph]:
    """One representative per switching class of the underlying graph of g.

    The canonical spanning forest is pinned all-positive and the cotree
    edges range over every sign pattern, in binary counting order (pattern
    0 is the all-positive, balanced class).  The census never builds this
    list; it numbers classes by the same patterns.
    """
    edges = tuple(sorted(g.edge_set()))
    cotree = _cotree(g.n, edges)
    return [_signed_by_pattern(g.n, edges, cotree, bits) for bits in range(1 << len(cotree))]


def _c4_columns(n: int, edges: tuple[tuple[int, int], ...], cotree: list[tuple[int, int]]) -> list[int]:
    """One bitset per cotree edge: bit j is set iff the edge lies on 4-cycle j.

    Each 4-cycle a-b-c-d is numbered once, from its least vertex a with
    neighbours b < d on the cycle; the vertices c > a are one AND.
    """
    adj = _bitsets(n, edges)
    at = [[-1] * n for _ in range(n)]  # forest edges write to the spare last column
    for i, (u, v) in enumerate(cotree):
        at[u][v] = at[v][u] = i
    cols = [0] * (len(cotree) + 1)
    row = 1
    for a in range(n):
        up = [b for b in range(a + 1, n) if adj[a] >> b & 1]
        for j, b in enumerate(up):
            for d in up[j + 1 :]:
                cs = adj[b] & adj[d] & ~((2 << a) - 1)
                while cs:
                    c = (cs & -cs).bit_length() - 1
                    cs &= cs - 1
                    cols[at[a][b]] |= row
                    cols[at[b][c]] |= row
                    cols[at[c][d]] |= row
                    cols[at[a][d]] |= row
                    row <<= 1
    return cols[:-1]


def _kernel_vectors(cols: list[int]) -> list[int]:
    """The nonzero x whose columns ``cols[i]`` (bit i of x set) XOR to zero, ascending.

    Columns are eliminated one at a time, each tracking the set of
    original columns it sums; a column that reduces to zero yields that
    set as a basis vector, and the kernel is the span of the basis.
    """
    pivots: dict[int, tuple[int, int]] = {}
    span = [0]
    for i, col in enumerate(cols):
        combo = 1 << i
        while col:
            top = col.bit_length() - 1
            if top not in pivots:
                pivots[top] = (col, combo)
                break
            pcol, pcombo = pivots[top]
            col ^= pcol
            combo ^= pcombo
        else:
            span += [x ^ combo for x in span]
    return sorted(span)[1:]


# -- the census ----------------------------------------------------------------


@dataclass(frozen=True)
class CensusReport:
    """Outcome of one full-order census.

    ``max_lambda1`` is the float maximum index over all unbalanced switching
    classes with no negative 4-cycle (JSON null if none); ``witnesses`` are
    all classes attaining the maximum exactly; the verdict is True when
    there is one and every witness is switching isomorphic to the extremal
    graph.  JSON ``tol`` is the fixed ``FLOAT_MARGIN``.
    """

    n: int
    underlying_count: int
    class_count: int
    eligible_count: int
    max_lambda1: float
    reference_lambda1: float
    witnesses: tuple[SignedGraph, ...]
    verdict: bool
    seconds: float

    def witness_sg(self) -> list[str]:
        return [w.to_sg() for w in self.witnesses]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "underlying_count": self.underlying_count,
            "class_count": self.class_count,
            "eligible_count": self.eligible_count,
            "max_lambda1": self.max_lambda1 if self.eligible_count else None,
            "reference_lambda1": self.reference_lambda1,
            "witness_sg": self.witness_sg(),
            "verdict": self.verdict,
            "seconds": self.seconds,
            "tol": FLOAT_MARGIN,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def _eligible_indices(n: int, edges: tuple, cotree: list) -> list[tuple[float, int]]:
    """``(lam, pattern)`` per eligible class (nonzero kernel vector), by pattern.

    One ``np.linalg.eigh`` call solves the stack of their signed adjacency
    matrices.  Its bits are those of ``spectra.eigenvalues_sym`` per matrix:
    the same LAPACK routine runs on the same float64 input, matrix by matrix.
    """
    patterns = _kernel_vectors(_c4_columns(n, edges, cotree))
    if not patterns:
        return []
    # every edge has u < v: fill the upper triangles, then add the transposes
    A = np.zeros((len(patterns), n, n))
    us, vs = zip(*edges)
    A[:, us, vs] = 1
    cu, cv = zip(*cotree)
    A[:, cu, cv] = [[1 - 2 * ((bits >> i) & 1) for i in range(len(cotree))] for bits in patterns]
    A = A + A.transpose(0, 2, 1)
    return list(zip(np.linalg.eigh(A)[0][:, -1].tolist(), patterns))


def _census_one_graph(n: int, edges: tuple[tuple[int, int], ...]):
    """Census of the switching classes of one underlying graph.

    Returns ``(classes, eligible, best, keep)``: the class count
    2^|cotree|, the eligible count 2^dim(kernel) - 1, the largest index
    over the eligible classes (-inf if none) and every ``(lam, pattern)``
    within ``FLOAT_MARGIN`` of it, in ascending pattern order.
    """
    cotree = _cotree(n, edges)
    solved = _eligible_indices(n, edges, cotree)
    best = max((lam for lam, _ in solved), default=-math.inf)
    keep = [(lam, bits) for lam, bits in solved if lam >= best - FLOAT_MARGIN]
    return 1 << len(cotree), len(solved), best, keep


def _exact_maximizers(candidates: list[SignedGraph]) -> list[SignedGraph]:
    """The candidates whose exact index equals the largest among them.

    Indices are compared as largest roots of the exact characteristic
    polynomials, one comparison per distinct polynomial.
    """
    polys = [char_poly_exact(g) for g in candidates]
    top = max(set(polys), key=cmp_to_key(compare_largest_real_roots), default=None)
    tied = {p: compare_largest_real_roots(p, top) == 0 for p in set(polys)}
    return [g for g, p in zip(candidates, polys) if tied[p]]


def verify_max_index(
    n: int,
    graphs: list[SignedGraph] | None = None,
    checkpoint: str | None = None,
    progress: bool = False,
) -> CensusReport:
    """Census all switching classes of order n and locate the maximum index.

    For each underlying graph in catalog order, counts its classes and
    eligible classes (unbalanced, no negative 4-cycle) from the GF(2)
    kernel of its 4-cycle columns and eigensolves only the kernel vectors,
    folding the result into the running maximum; the classes within
    ``FLOAT_MARGIN`` of it are compared by exact characteristic polynomials
    and every exact maximizer is checked against the extremal graph.
    ``graphs`` overrides the built-in enumeration, whose cap in
    :func:`enumerate_underlying` is the only order limit: past it, passing
    a catalog is the opt-in.  Each graph of ``graphs`` must have order n and
    is keyed once by :func:`_canonical_edges`; two with one key raise
    ValueError naming both positions, counted from 1, as having the same edge
    list or as isomorphic.  The built-in catalog's edge lists are the tasks.
    ``progress`` writes JSON lines to stderr every 100000 classes.

    ``checkpoint`` names a JSON-lines file used to resume interrupted runs.
    Its first line is the header ``{census_n, tasks, tol, format,
    catalog}``, where ``catalog`` is the SHA-256 of the task edge lists; a
    file whose header differs raises ValueError.  Each further line
    records one finished task ``{i, classes, eligible, best, keep}``, with
    ``keep`` a list of ``[lam, pattern]`` pairs, taken instead of
    recomputed; ``best`` is null when ``keep`` is empty.  Other keys, i
    outside ``range(tasks)``, a repeated i or values that do not fit task i
    (see :func:`_valid_record`) raise ValueError.  A final record torn by a
    crash is dropped and its task recomputed; a torn header is rewritten.
    """
    if n < 5:
        raise ValueError(f"the census needs n >= 5, got {n}")
    t0 = time.perf_counter()
    if graphs is None:
        tasks = enumerate_underlying(n)
    else:
        for g in graphs:
            if g.n != n:
                raise ValueError(f"graph of order {g.n} in a census of order {n}")
        tasks = [tuple(sorted(g.edge_set())) for g in graphs]
        canonical: dict[tuple, int] = {}
        for i, edges in enumerate(tasks):
            j = canonical.setdefault(_canonical_edges(n, edges), i)
            if j != i:
                how = "have the same edge list" if tasks[j] == edges else "are isomorphic"
                raise ValueError(f"catalog graphs {j + 1} and {i + 1} {how}")

    header = _checkpoint_header(n, tasks) if checkpoint else {}
    resuming = bool(checkpoint and os.path.exists(checkpoint) and os.path.getsize(checkpoint))
    done = _resume_checkpoint(checkpoint, header, tasks) if resuming else {}
    ckpt_fh = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    if ckpt_fh and not ckpt_fh.tell():
        ckpt_fh.write(json.dumps(header) + "\n")
        ckpt_fh.flush()

    class_count = 0
    eligible_count = 0
    next_mark = 100000
    best = -math.inf
    keep: list[tuple[float, int, int]] = []  # (lam, task index, pattern)
    try:
        for i, edges in enumerate(tasks):
            if i in done:
                res = done[i]
            else:
                res = _census_one_graph(n, edges)
                _record(ckpt_fh, i, res)
            classes, eligible, g_best, g_keep = res
            class_count += classes
            eligible_count += eligible
            best = max(best, g_best)
            keep += [(lam, i, bits) for lam, bits in g_keep]
            if progress and i not in done and class_count >= next_mark:
                record = {
                    "census_n": n,
                    "classes": class_count,
                    "graphs_done": i + 1,
                    "graphs": len(tasks),
                }
                print(json.dumps(record), file=sys.stderr, flush=True)
                next_mark = (class_count // 100000 + 1) * 100000
    finally:
        if ckpt_fh:
            ckpt_fh.close()

    candidates = [
        _signed_by_pattern(n, tasks[i], _cotree(n, tasks[i]), bits)
        for lam, i, bits in keep
        if lam >= best - FLOAT_MARGIN
    ]
    witnesses = tuple(_exact_maximizers(candidates))
    verdict = bool(witnesses) and all(
        switching_isomorphic(w, extremal_graph(n))[0] for w in witnesses
    )
    return CensusReport(
        n=n,
        underlying_count=len(tasks),
        class_count=class_count,
        eligible_count=eligible_count,
        max_lambda1=best,
        reference_lambda1=index(extremal_graph(n)),
        witnesses=witnesses,
        verdict=verdict,
        seconds=time.perf_counter() - t0,
    )


def _checkpoint_header(n: int, tasks: list) -> dict:
    """Identity of a census: order, float margin, record format and catalog.

    hashlib is imported here rather than at module level because it loads
    OpenSSL, which would add about 3 MB of resident memory to every
    process importing the package.
    """
    import hashlib

    catalog = hashlib.sha256(json.dumps(tasks).encode()).hexdigest()
    return {
        "census_n": n,
        "tasks": len(tasks),
        "tol": FLOAT_MARGIN,
        "format": CHECKPOINT_FORMAT,
        "catalog": catalog,
    }


def _resume_checkpoint(path: str, header: dict, tasks: list) -> dict[int, tuple]:
    """Finished tasks recorded in a checkpoint whose header matches ours.

    Records are appended one line at a time, so a last line without its
    newline was torn by a crash.  Once the header is accepted, the file is
    truncated back to its last complete line: that task is recomputed, and
    the next record starts on a line of its own.  A file torn inside our
    header line (a strict prefix of it) is emptied and started afresh.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    complete = data[: data.rfind(b"\n") + 1]
    torn_header = not complete and (json.dumps(header) + "\n").encode().startswith(data)
    recs = []
    for lineno, line in enumerate(complete.decode("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            recs.append((lineno, json.loads(line, parse_constant=_refuse_constant)))
        except ValueError as exc:  # JSONDecodeError included
            raise ValueError(f"checkpoint {path} line {lineno}: {exc}") from None
        if recs[0][1] != header:  # a foreign census is named as such, before its records are parsed
            break
    if not torn_header and (not recs or recs[0][1] != header):
        found = recs[0][1] if recs else "no complete header line"
        raise ValueError(f"checkpoint {path} belongs to a different census: {found} != {header}")
    done: dict[int, tuple] = {}
    for lineno, rec in recs[1:]:
        ok = isinstance(rec, dict) and rec.keys() == {"i", "classes", "eligible", "best", "keep"}
        i = rec["i"] if ok else None
        if type(i) is not int or not 0 <= i < header["tasks"] or i in done:
            bad = f"not a new task {{i, classes, eligible, best, keep}}, 0 <= i < {header['tasks']}"
            raise ValueError(f"checkpoint {path} line {lineno}: {bad}: {rec}")
        classes, eligible, best, keep = rec["classes"], rec["eligible"], rec["best"], rec["keep"]
        if not _valid_record(header["census_n"], tasks[i], classes, eligible, best, keep):
            raise ValueError(f"checkpoint {path} line {lineno}: values do not fit task {i}: {rec}")
        done[i] = (classes, eligible, -math.inf if best is None else best, keep)
    if len(complete) < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(len(complete))
    return done


def _refuse_constant(token: str):  # checkpoints are strict JSON: no Infinity, -Infinity or NaN
    raise ValueError(f"non-standard JSON constant {token}")


def _valid_record(n: int, edges: tuple, classes, eligible, best, keep) -> bool:
    """Whether a resumed record can be what :func:`_census_one_graph` gave.

    ``classes`` is 2^|cotree| of the task, ``eligible`` its count of
    eligible patterns, ``keep`` a list of ``[lam, pattern]`` with a float
    lam and distinct eligible patterns (lam is not recomputed), and
    ``best`` the float maximum of the kept lam (None when ``keep`` is empty).
    """
    cotree = _cotree(n, edges)
    if type(classes) is not int or classes != 1 << len(cotree):
        return False
    unseen = set(_kernel_vectors(_c4_columns(n, edges, cotree)))
    if type(eligible) is not int or eligible != len(unseen):
        return False
    if type(keep) is not list:
        return False
    for entry in keep:
        if not (isinstance(entry, list) and len(entry) == 2):
            return False
        lam, pattern = entry
        if type(lam) is not float or type(pattern) is not int or pattern not in unseen:
            return False
        unseen.remove(pattern)
    if not keep:
        return best is None
    return type(best) is float and best == max(lam for lam, _ in keep)


def _record(fh, i: int, res: tuple) -> None:
    if fh is None:
        return
    classes, eligible, best, keep = res
    best = best if keep else None
    record = {"i": i, "classes": classes, "eligible": eligible, "best": best, "keep": keep}
    fh.write(json.dumps(record, allow_nan=False) + "\n")
    fh.flush()


# -- unsigned C4-free spectral bounds -------------------------------------------


def _has_c4(adj: list[int]) -> bool:
    """True iff two vertices share two neighbours in the bitsets ``adj``: a 4-cycle."""
    return any((a & b).bit_count() >= 2 for i, a in enumerate(adj) for b in adj[i + 1 :])


def has_c4(g: SignedGraph) -> bool:
    """True iff the underlying graph contains a 4-cycle (signs ignored)."""
    return _has_c4([p | q for p, q in zip(g._pos, g._neg)])


def verify_c4free_bounds(n: int) -> bool:
    """Check the parity spectral bound exactly on each C4-free edge list of the order-n catalog."""
    c4free = (e for e in enumerate_underlying(n) if not _has_c4(_bitsets(n, e)))
    return all(c4free_bound_check(SignedGraph(n, dict.fromkeys(e, 1))) for e in c4free)


# -- graph catalog ingestion -----------------------------------------------------


GraphListError = SgFormatError  # catalogs and .sg files share one grammar and one error


def _graph6_pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pairs of order n in graph6 bit order: (0,1), (0,2), (1,2), (0,3), ..."""
    return [(u, v) for v in range(1, n) for u in range(v)]


def decode_graph6(record: str, lineno: int = 1) -> SignedGraph:
    """Decode one graph6 record into an all-positive signed graph.

    Bit-exact format (McKay's nauty ``formats.txt``): every byte stores the
    value byte - 63 in 6 bits.  The order n is one byte for n <= 62; a
    leading '~' marks a three-byte (18-bit, big-endian) order.  The body
    packs one bit per pair of :func:`_graph6_pairs`, big-endian six per byte
    and zero-padded to a byte boundary; it is read as one integer.  A record
    is one token: graph6 bytes are never whitespace.  Refusals, in order: a
    byte outside 63..126, an unsupported order, a body of the wrong length
    (checked from n alone, before any pair is listed), nonzero padding.
    """
    return _decode_graph6(record.strip(), lineno)


def _decode_graph6(record: str, lineno: int) -> SignedGraph:
    """:func:`decode_graph6` of a record that keeps any surrounding whitespace."""
    s = record.removeprefix(">>graph6<<")
    if not s:
        raise SgFormatError(lineno, "empty graph6 record")
    data = [ord(ch) - 63 for ch in s]
    for b in data:
        if not 0 <= b <= 63:
            raise SgFormatError(lineno, f"byte {b + 63} out of graph6 range 63..126")
    if data[0] <= 62:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[0] == 63 and data[1] <= 62:
        n, body = data[1] << 12 | data[2] << 6 | data[3], data[4:]
    else:
        raise SgFormatError(lineno, "unsupported graph6 order encoding")
    npairs = n * (n - 1) // 2
    pad = -npairs % 6
    need = (npairs + pad) // 6
    if len(body) != need:
        raise SgFormatError(lineno, f"graph6 body for n={n} needs {need} bytes, found {len(body)}")
    x = int("0" + "".join([f"{b:06b}" for b in body]), 2)
    if x & ((1 << pad) - 1):
        raise SgFormatError(lineno, "nonzero padding bits in graph6 record")
    bits = f"{x >> pad:0{npairs}b}"
    return SignedGraph(n, {p: 1 for p, bit in zip(_graph6_pairs(n), bits) if bit == "1"})


def encode_graph6(g: SignedGraph) -> str:
    """Encode the underlying graph of g as a graph6 record (see :func:`decode_graph6`)."""
    n = g.n
    if n > 258047:
        raise ValueError("graph too large for the supported graph6 encodings")
    head = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    edges = g.edge_set()
    npairs = n * (n - 1) // 2
    pad = -npairs % 6
    x = int("0" + "".join("01"[p in edges] for p in _graph6_pairs(n)), 2) << pad
    packed = f"{x:0{npairs + pad}b}"
    body = [int(packed[i : i + 6], 2) for i in range(0, npairs + pad, 6)]
    return "".join(chr(63 + b) for b in head + body)


def ingest_graph_list(path) -> list[SignedGraph]:
    """Parse a catalog of unsigned graphs, order preserved.

    Accepts either graph6 (one record per line) or sign-less ``.sg``
    records (header ``n m`` followed by m lines ``u v``, 1-based, possibly
    repeated for several graphs).  The first content line tells them apart:
    with no ASCII space or tab it is graph6, whose lines lose only spaces,
    tabs and CRs, so any other stray byte is refused by value; else ``.sg``,
    whose header is two tokens.  The ``.sg`` records use the
    grammar of :meth:`SignedGraph.from_sg`, with one difference: an edge
    line's sign ``+`` or ``-`` is optional and ignored, so signed ``.sg``
    files serve as catalogs too; any other third token is refused.  Blank lines and ``#``
    comments are skipped.  Malformed records raise SgFormatError (also
    exported as GraphListError) with the line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    content = _sg_lines(text)
    if not content:
        return []
    if not any(ch in " \t" for ch in content[0][1]):
        return [_decode_graph6(ln, lineno) for lineno, ln in _sg_lines(text, " \t\r")]
    out: list[SignedGraph] = []
    i = 0
    while i < len(content):
        lineno, ln = content[i]
        gn, gm = _sg_header(lineno, ln)
        table: dict[tuple[int, int], int] = {}
        for elineno, eln in content[i + 1 : i + 1 + gm]:
            eparts = eln.split()
            if len(eparts) not in (2, 3) or eparts[2:] not in ([], ["+"], ["-"]):
                raise SgFormatError(elineno, f"expected 'u v' or 'u v +|-', got {eln!r}")
            table[_sg_pair(elineno, eln, eparts, gn, table)] = 1
        if len(table) < gm:
            raise SgFormatError(lineno, f"record declares {gm} edges, file ends after {len(table)}")
        out.append(SignedGraph(gn, table))
        i += 1 + gm
    return out
