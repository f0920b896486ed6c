"""Cycle signs and negative-cycle detection.

The sign of a cycle is its edge signs multiplied together; a cycle is negative
exactly when it carries an odd number of negative edges.  Fixed-length
negative cycles are found by exhaustive path extension over the signed
neighbour bitsets, carrying each path's negative-edge parity; the least shortest
negative cycle is found by breadth-first search in the parity double
cover, held implicitly as neighbour lists of lifts, where a negative
closed walk through v is a walk between the two lifts of v;
:func:`double_cover` builds that cover as a graph.

Freeness from negative 4-cycles has an exact shortcut: a graph has a
negative 4-cycle iff some vertex pair u != w is joined by both a positive
and a negative 2-path (the two middle vertices then differ, and the two
paths close into a cycle of sign -1).  With positive and negative
neighbour bitsets P, N this is one test per pair,
``((Pu & Pw) | (Nu & Nw)) and ((Pu & Nw) | (Nu & Pw))``.  When edits join
or re-sign edges of a graph that has none, only the pairs at one endpoint
of each such edge need testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import SignedGraph, _members

__all__ = [
    "CycleWitness",
    "cycle_sign",
    "find_negative_ck",
    "is_ck_negative_free",
    "shortest_negative_cycle",
    "double_cover",
]


@dataclass(frozen=True)
class CycleWitness:
    """A cycle given as its vertex sequence (closed implicitly) plus its sign."""

    vertices: tuple[int, ...]
    sign: int

    @property
    def length(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        vs = self.vertices
        out = []
        for i, u in enumerate(vs):
            v = vs[(i + 1) % len(vs)]
            out.append((u, v) if u < v else (v, u))
        return out


def _validate_cycle(g: SignedGraph, seq: Sequence[int]) -> None:
    if len(seq) < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {len(seq)}")
    if len(set(seq)) != len(seq):
        raise ValueError("cycle vertices must be distinct")
    for i, u in enumerate(seq):
        v = seq[(i + 1) % len(seq)]
        if not g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge, sequence is not a cycle")


def cycle_sign(g: SignedGraph, seq: Sequence[int]) -> int:
    """Product of edge signs along the closed sequence; -1 iff odd negatives."""
    _validate_cycle(g, seq)
    s = 1
    for i, u in enumerate(seq):
        s *= g.sign(u, seq[(i + 1) % len(seq)])
    return s


def canonical_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Rotate/reflect so the minimum vertex leads and its smaller neighbor follows."""
    vs = list(seq)
    i = vs.index(min(vs))
    vs = vs[i:] + vs[:i]
    if vs[-1] < vs[1]:
        vs = [vs[0]] + vs[:0:-1]
    return tuple(vs)


def find_negative_ck(g: SignedGraph, k: int) -> CycleWitness | None:
    """Some negative cycle of length exactly k, or None.

    Exhaustive DFS over paths anchored at their minimum vertex.  A path
    grows by its unused neighbours above its anchor, ascending, read off the
    signed bitsets with its negative-edge parity.  Returns the first hit in
    that deterministic order.  A cycle is met in both directions, but the
    one whose second vertex is the smaller neighbour of the anchor comes
    first, as all paths through that neighbour are walked before any
    through the larger one.
    """
    if k < 3:
        raise ValueError(f"cycle length must be at least 3, got {k}")
    if k > g.n:
        return None
    pos, neg = g._pos, g._neg

    def extend(path: tuple[int, ...], used: int, odd: int) -> tuple[int, ...] | None:
        last = path[-1]
        if len(path) == k:
            closing = pos[last] if odd else neg[last]  # the edge that makes the parity odd
            return path if closing >> path[0] & 1 else None
        for w in _members((pos[last] | neg[last]) & ~used, path[0] + 1):
            hit = extend(path + (w,), used | 1 << w, odd ^ (neg[last] >> w & 1))
            if hit is not None:
                return hit
        return None

    for start in range(g.n):
        hit = extend((start,), 1 << start, 0)
        if hit is not None:
            return CycleWitness(canonical_cycle(hit), -1)
    return None


def _c4_negative_free_bits(pos: Sequence[int], neg: Sequence[int], at: Iterable[int] | None = None) -> bool:
    """True iff no vertex pair is joined by both a positive and a negative 2-path.

    ``pos[v]`` and ``neg[v]`` are the bitsets (bit w set) of the positive
    and negative neighbours of v.  The answer is exactly "no negative
    4-cycle" (see the module docstring).

    Given ``at``, only the pairs (u, w) with u in ``at`` are tested, in
    O(|at| n).  That is exact when the graph had no negative 4-cycle before
    some edits and ``at`` holds one endpoint of each edge they joined or
    re-signed: a new negative 4-cycle a-b-c-d has such an edge ab, and the
    2-paths a-b-c and a-d-c to a's diagonal c have opposite signs.  The pair
    (u, u) always passes, as no vertex is both a positive and a negative
    neighbour of u.
    """
    for u in range(len(pos)) if at is None else at:
        pu, nu = pos[u], neg[u]
        rest = zip(pos[u + 1 :], neg[u + 1 :]) if at is None else zip(pos, neg)
        for pw, nw in rest:
            if ((pu & pw) | (nu & nw)) and ((pu & nw) | (nu & pw)):
                return False
    return True


def is_ck_negative_free(g: SignedGraph, k: int) -> bool:
    """True iff g has no negative cycle of length exactly k.

    For k = 4 this is decided without a path search: g has a negative
    4-cycle iff some vertex pair is joined by both a positive and a
    negative 2-path, tested on neighbour bitsets.  Other lengths run
    :func:`find_negative_ck`.
    """
    if k != 4:
        return find_negative_ck(g, k) is None
    return _c4_negative_free_bits(g._pos, g._neg)


def double_cover(g: SignedGraph) -> SignedGraph:
    """Parity double cover on 2n vertices, returned all-positive.

    Vertex v lifts to v (even parity) and v + n (odd parity).  An edge uv
    preserves parity when positive and swaps it when negative, so closed
    walks that flip parity are exactly the negative ones.  The cover has
    twice as many components as g iff g is balanced.  Row by row, a lift's
    neighbours are the positive ones at its parity and the negative ones at
    the other.
    """
    n = g.n
    rows = [p | q << n for p, q in zip(g._pos, g._neg)] + [p << n | q for p, q in zip(g._pos, g._neg)]
    return SignedGraph._wrap(2 * n, rows, [0] * (2 * n))


def shortest_negative_cycle(g: SignedGraph) -> CycleWitness | None:
    """The least shortest negative cycle, or None when g is balanced.

    "Least" is lexicographic on :func:`canonical_cycle` forms.  The parity
    double cover is held implicitly: lift p of v is ``2 * v + p``, and an
    edge keeps the parity when positive and flips it when negative.  A BFS
    from the even lift of v reaches its odd lift after d(v) steps, the
    length of the shortest negative closed walk through v; each BFS stops
    once it cannot beat the least d so far.  A negative closed walk of the
    least length L is a simple cycle, since splitting it at a repeated
    vertex would leave a shorter negative closed walk.

    No vertex below the least v with d(v) = L lies on a negative L-cycle,
    so the witness is the lexicographically least walk of length L from
    the even lift of v to its odd lift, taken one smallest neighbour at a
    time.  Swapping parities is an automorphism of the cover, so a lift's
    distance to the odd lift of v is its twin's (``x ^ 1``) distance from
    the even lift in the BFS of v.
    """
    n = g.n
    adj: list[list[int]] = []
    for p, q in zip(g._pos, g._neg):  # the lifts of a neighbour w are 2w and 2w + 1, so rows ascend
        even = [2 * w + (q >> w & 1) for w in _members(p | q)]
        adj += [even, [x ^ 1 for x in even]]
    best, start, dist = n + 1, -1, []  # a negative cycle has at most n edges
    for v in range(n):
        seen = [-1] * (2 * n)
        seen[2 * v] = 0
        frontier, depth = [2 * v], 0
        while frontier and depth + 1 < best:
            depth += 1
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if seen[y] < 0:
                        seen[y] = depth
                        nxt.append(y)
            if seen[2 * v + 1] >= 0:
                best, start, dist = depth, v, seen
                break
            frontier = nxt
    if start < 0:
        return None
    walk, x = [start], 2 * start
    for left in range(best - 1, 0, -1):
        # the smallest neighbour that is `left` steps from the odd lift of start
        x = next(y for y in adj[x] if dist[y ^ 1] == left)
        walk.append(x >> 1)
    return CycleWitness(tuple(walk), -1)
