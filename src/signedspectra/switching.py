"""Switching, balance, and switching equivalence.

Switching at a vertex set U negates every edge with exactly one endpoint in
U.  It is a signature similarity of the adjacency matrix, so the spectrum
and all cycle signs are preserved.  Two signings of the same underlying
graph are switching equivalent exactly when they agree on the signs of all
cycles, which reduces to comparing cotree signs after normalizing a fixed
spanning forest to all-positive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .core import SignedGraph
from .cycles import CycleWitness, canonical_cycle

__all__ = [
    "switch",
    "BalanceResult",
    "is_balanced",
    "NormalForm",
    "forest_normal_form",
    "switching_equivalent",
    "switching_isomorphic",
]


def switch(g: SignedGraph, u_set: Iterable[int]) -> SignedGraph:
    """Negate all edges with exactly one endpoint in ``u_set``."""
    U = set(u_set)
    for v in U:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    table = {}
    for u, v, s in g.edges():
        table[(u, v)] = -s if (u in U) != (v in U) else s
    return SignedGraph(g.n, table)


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of a balance test.

    ``bisigning`` (on success) maps each vertex to +1/-1 with
    sigma(uv) = s(u) * s(v) on every edge; ``negative_cycle`` (on failure)
    is a concrete negative cycle through the BFS tree.
    """

    balanced: bool
    bisigning: tuple[int, ...] | None = None
    negative_cycle: CycleWitness | None = None

    def __bool__(self) -> bool:
        return self.balanced


def _bfs_forest(g: SignedGraph) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """Deterministic BFS forest: lowest-index roots, ascending neighbors.

    Returns (parent, order, forest_edges); roots have parent -1.
    """
    adj = g.adjacency_lists()
    parent = [-2] * g.n
    order: list[int] = []
    forest: list[tuple[int, int]] = []
    for root in range(g.n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        order.append(root)
        q = deque([root])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if parent[w] == -2:
                    parent[w] = u
                    order.append(w)
                    forest.append((u, w) if u < w else (w, u))
                    q.append(w)
    return parent, order, forest


def _tree_path(parent: list[int], u: int, v: int) -> list[int]:
    """Path from u to v inside the BFS forest (both in one tree)."""
    au = [u]
    while parent[au[-1]] != -1:
        au.append(parent[au[-1]])
    av = [v]
    while parent[av[-1]] != -1:
        av.append(parent[av[-1]])
    seen = {x: i for i, x in enumerate(au)}
    for j, x in enumerate(av):
        if x in seen:
            return au[: seen[x]] + av[: j + 1][::-1]
    raise AssertionError("endpoints are not in the same tree")


def is_balanced(g: SignedGraph) -> BalanceResult:
    """Balance test by sign propagation along a BFS forest.

    Assign s(root) = +1 and s(child) = s(parent) * sigma(parent, child);
    the graph is balanced iff every non-tree edge uv satisfies
    sigma(uv) = s(u) * s(v).  A violated edge closes a negative cycle with
    the tree path between its endpoints.
    """
    parent, order, _ = _bfs_forest(g)
    s = [1] * g.n
    for v in order:
        if parent[v] >= 0:
            s[v] = s[parent[v]] * g.sign(parent[v], v)
    for u, v, sgn in g.edges():
        if s[u] * s[v] != sgn:
            path = _tree_path(parent, u, v)
            return BalanceResult(
                False,
                negative_cycle=CycleWitness(canonical_cycle(path), -1),
            )
    return BalanceResult(True, bisigning=tuple(s))


@dataclass(frozen=True)
class NormalForm:
    """Forest normal form of a signing.

    ``normalized`` is switching equivalent to ``host`` with every edge of
    the canonical BFS ``forest`` positive; ``cotree_signs`` lists the signs
    of the remaining edges in canonical edge order and fully determines the
    switching class.
    """

    host: SignedGraph
    forest: tuple[tuple[int, int], ...]
    normalized: SignedGraph
    switch_set: frozenset[int]
    cotree_signs: tuple[tuple[tuple[int, int], int], ...]


def forest_normal_form(g: SignedGraph) -> NormalForm:
    """Normalize the canonical BFS forest to all-positive by one switching."""
    parent, order, forest = _bfs_forest(g)
    s = [1] * g.n
    for v in order:
        if parent[v] >= 0:
            s[v] = s[parent[v]] * g.sign(parent[v], v)
    U = frozenset(v for v in range(g.n) if s[v] < 0)
    normalized = switch(g, U)
    forest_set = set(forest)
    cotree = tuple(
        ((u, v), normalized.sign(u, v))
        for u, v, _ in g.edges()
        if (u, v) not in forest_set
    )
    return NormalForm(
        host=g,
        forest=tuple(forest),
        normalized=normalized,
        switch_set=U,
        cotree_signs=cotree,
    )


def switching_equivalent(a: SignedGraph, b: SignedGraph) -> bool:
    """True iff a and b (same underlying graph) differ by a switching."""
    if a.n != b.n or a.edge_set() != b.edge_set():
        raise ValueError("graphs must share the same underlying graph")
    return forest_normal_form(a).cotree_signs == forest_normal_form(b).cotree_signs


def _refine_colors(n: int, adj: list[list[int]]) -> list[int]:
    """Iterated neighbor-degree refinement of an adjacency-list graph."""
    colors = [len(adj[v]) for v in range(n)]
    for _ in range(n):
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [palette[sig] for sig in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _underlying_isomorphisms(a: SignedGraph, b: SignedGraph):
    """Yield permutations pi with pi(underlying a) == underlying b."""
    if a.m != b.m:
        return
    adj_a = a.adjacency_lists()
    ca, cb = _refine_colors(a.n, adj_a), _refine_colors(b.n, b.adjacency_lists())
    if sorted(ca) != sorted(cb):
        return
    targets: dict[int, list[int]] = {}
    for v in range(b.n):
        targets.setdefault(cb[v], []).append(v)
    # map vertices of a in ascending order; candidates share the refined color
    perm = [-1] * a.n
    used = [False] * b.n

    def backtrack(v: int):
        if v == a.n:
            yield tuple(perm)
            return
        for w in targets.get(ca[v], []):
            if used[w]:
                continue
            ok = True
            for x in adj_a[v]:
                if x < v and not b.has_edge(perm[x], w):
                    ok = False
                    break
            if ok:
                # also forbid images of earlier non-neighbors being adjacent
                deg_needed = sum(1 for x in adj_a[v] if x < v)
                mapped_adj = sum(
                    1 for x in range(v) if b.has_edge(perm[x], w)
                )
                if mapped_adj != deg_needed:
                    continue
                perm[v] = w
                used[w] = True
                yield from backtrack(v + 1)
                used[w] = False
                perm[v] = -1

    yield from backtrack(0)


def switching_isomorphic(
    a: SignedGraph, b: SignedGraph
) -> tuple[bool, tuple[int, ...] | None]:
    """Search for a relabeling pi of a with pi(a) switching equivalent to b.

    Brute-force permutation backtracking over underlying-graph isomorphisms,
    pruned by refined degree colors; intended for small orders (n <= 10).
    Returns (found, pi) where pi maps vertices of a to vertices of b.
    """
    if a.n != b.n:
        raise ValueError(f"orders differ: {a.n} != {b.n}")
    for perm in _underlying_isomorphisms(a, b):
        if switching_equivalent(a.relabel(perm), b):
            return True, perm
    return False, None
