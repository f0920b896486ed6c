"""Switching, balance, and switching equivalence.

Switching at a vertex set U negates every edge with exactly one endpoint in
U.  It is a signature similarity of the adjacency matrix, so the spectrum
and all cycle signs are preserved.  Two signings of the same underlying
graph are switching equivalent exactly when they agree on the signs of all
cycles, that is, when their product signing is balanced.  Normalizing a
fixed spanning forest to all-positive gives each class a normal form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import SignedGraph, _bfs_forest, _members
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
    """Negate all edges with exactly one endpoint in ``u_set``: per row, the
    positive and negative neighbours across the cut trade places.  An empty
    ``u_set`` gives g itself."""
    U = 0
    for v in u_set:
        U |= 1 << g._check_vertex(v)
    if not U:
        return g
    pos, neg = [], []
    for u, (p, q) in enumerate(zip(g._pos, g._neg)):
        cut = ~U if U >> u & 1 else U
        pos.append(p & ~cut | q & cut)
        neg.append(q & ~cut | p & cut)
    return SignedGraph._wrap(g.n, pos, neg)


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


def _forest_signs(pos: list[int], neg: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(parent, order, s) of the BFS forest, with s(root) = +1, s(child) = s(parent) * sigma(parent, child),
    from the positive and negative neighbour bitsets of a SignedGraph."""
    parent, order, _ = _bfs_forest([p | q for p, q in zip(pos, neg)])
    s = [1] * len(pos)
    for v in order:
        p = parent[v]
        if p >= 0:
            s[v] = s[p] if pos[p] >> v & 1 else -s[p]
    return parent, order, s


def _violated_edge(pos: list[int], neg: list[int], s: list[int]) -> tuple[int, int] | None:
    """The least edge (u, v), u < v, whose sign is not s(u) s(v), or None: the lowest
    violating bit v of the first violating row u (a bit below u would make an earlier row violating)."""
    minus = sum(1 << v for v, sv in enumerate(s) if sv < 0)
    for u, su in enumerate(s):
        other = minus if su > 0 else ~minus
        bad = (pos[u] & other) | (neg[u] & ~other)
        if bad:
            return u, (bad & -bad).bit_length() - 1
    return None


def _balanced_bits(pos: list[int], neg: list[int]) -> bool:
    """``is_balanced(g).balanced`` from g's neighbour bitsets."""
    return _violated_edge(pos, neg, _forest_signs(pos, neg)[2]) is None


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
    sigma(uv) = s(u) * s(v).  The least violated edge closes the witness
    negative cycle with the tree path between its endpoints.
    """
    parent, _, s = _forest_signs(g._pos, g._neg)
    edge = _violated_edge(g._pos, g._neg, s)
    if edge is None:
        return BalanceResult(True, bisigning=tuple(s))
    return BalanceResult(False, negative_cycle=CycleWitness(canonical_cycle(_tree_path(parent, *edge)), -1))


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
    parent, order, s = _forest_signs(g._pos, g._neg)
    forest = [(min(v, parent[v]), max(v, parent[v])) for v in order if parent[v] >= 0]
    U = frozenset(v for v in range(g.n) if s[v] < 0)
    normalized = switch(g, U)
    forest_set = set(forest)
    cotree = tuple(((u, v), sgn) for u, v, sgn in normalized.edges() if (u, v) not in forest_set)
    return NormalForm(
        host=g,
        forest=tuple(forest),
        normalized=normalized,
        switch_set=U,
        cotree_signs=cotree,
    )


def switching_equivalent(a: SignedGraph, b: SignedGraph) -> bool:
    """True iff a and b (same underlying graph) differ by a switching.

    They do exactly when the product signing sigma_a sigma_b is balanced
    (Zaslavsky 1982): a switching taking a to b is a bisigning of it.  The
    product's negative neighbour bitsets are the XOR of a's and b's, and
    its positive ones the rest of a's neighbours.
    """
    adj = [p | q for p, q in zip(a._pos, a._neg)]
    if a.n != b.n or adj != [p | q for p, q in zip(b._pos, b._neg)]:
        raise ValueError("graphs must share the same underlying graph")
    neg = [x ^ y for x, y in zip(a._neg, b._neg)]
    return _balanced_bits([r & ~x for r, x in zip(adj, neg)], neg)


def _refine(adj: list[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Coarsest equitable refinement of the ordered partition ``cells``, in place.

    ``adj[v]`` is the neighbour bitset of v, and each cell is the bitset of
    its vertices: a cell's members are always in ascending order (the unit
    partition is, a split keeps their order and individualizing drops one),
    so the bitset loses nothing.  Each queued splitter W, the bitset of its
    cell when queued, splits every non-singleton cell into fragments by
    neighbour count in W, ascending, and queues them.  The members' counts
    are read one by one only in a cell that meets the vertices with two or
    more neighbours in W, or that holds some but not all of the vertices
    with one or more.  No decision reads a vertex label, so relabelling
    the graph relabels the result.  Cells left out of ``splitters`` must
    already be equitable splitters, as all but {v} are after v is
    individualized in an equitable partition.
    """
    queue = deque(splitters)
    while queue and len(cells) < len(adj):
        bits = queue.popleft()
        once = twice = 0  # the vertices with at least one and at least two neighbours in W
        rest = bits
        while rest:
            low = rest & -rest
            rest ^= low
            row = adj[low.bit_length() - 1]
            twice |= once & row
            once |= row
        i = 0
        while i < len(cells):
            cell = cells[i]
            i += 1
            if not cell & (cell - 1):
                continue
            if not cell & twice and cell & once in (0, cell):
                continue  # every member has no neighbour in W, or every member has one
            parts: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                c = (adj[low.bit_length() - 1] & bits).bit_count()
                parts[c] = parts.get(c, 0) | low
            if len(parts) > 1:
                frags = [parts[c] for c in sorted(parts)]
                cells[i - 1 : i] = frags
                queue.extend(frags)
                i += len(frags) - 1
    return cells


@lru_cache(maxsize=1)  # a table per order would pile up across the orders of one process
def _pairs(n: int) -> list[list[tuple[int, int]]]:
    """``_pairs(n)[a][b]`` is (min(a, b), max(a, b)), one tuple per pair for all keys of order n."""
    upper = [[(a, b) for b in range(a, n)] for a in range(n)]  # upper[a][b - a] is (a, b)
    return [[upper[b][a - b] for b in range(a)] + upper[a] for a in range(n)]


def _relabelled(order: list[int], edges) -> tuple[tuple[int, int], ...]:
    """Sorted edge list of :func:`_pairs` tuples after moving vertex ``order[k]`` to position k."""
    pos = [0] * len(order)
    for k, v in enumerate(order):
        pos[v] = k
    pairs = _pairs(len(order))
    return tuple(sorted(pairs[pos[u]][pos[v]] for u, v in edges))


def _twin_classes(adj: list[int], neg: list[int] | None = None) -> list[list[int]]:
    """Signed twin classes of the graph with neighbour bitsets ``adj``, in vertex order.

    ``neg[v]`` is the bitset of v's negative neighbours (default: none).
    u and v are twins iff N(u) minus v equals N(v) minus u (true or false
    twins) and sigma(uw) * sigma(vw) is the same for every common neighbour
    w.  Then (u v), followed by switching at {u, v} when that product is
    -1, is a switching automorphism.  The relation is an equivalence, so
    each vertex is compared with the first member of every class so far.
    """
    classes: list[list[int]] = []
    for v, row in enumerate(adj):
        for cls in classes:
            u = cls[0]
            common = adj[u] & ~(1 << v)
            if common == row & ~(1 << u) and (
                neg is None or ((neg[u] ^ neg[v]) & common) in (0, common)
            ):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def _leaves(adj: list[int], classes: list[list[int]], start: list[int] | None = None):
    """Leaves of the labeller's search tree, pruned by ``classes``.

    The root refines ``start``, an ordered partition given as cell bitsets
    whose order and cells ignore labels (default: the unit partition, which
    canonical forms use); a node's children individualize the first vertex
    of each class in its first non-singleton cell and refine again (McKay
    and Piperno, "Practical graph isomorphism, II", 2014), each only when
    the search reaches it, in cell order.  Yields each leaf's ``order``:
    vertex ``order[k]`` goes to position k.  The tree ignores labels.  A
    node's partition is a list of cell bitsets (see :func:`_refine`); a
    child splits the target cell into {v} and the rest, in a new list, so
    the pushed parent is never changed.

    Every class must be a set of mutual twins, signed or not.  With
    singleton classes this is the whole tree.  With twin classes, two
    members u, v of a target cell are both unindividualized, so (u v)
    fixes the node and maps one child's subtree onto the other's: every
    leaf is a kept leaf composed with twin transpositions.  A target cell
    C inside one class has one child, as do the nodes below it until C is
    discrete: every vertex outside C sees all of C or none, C is a clique
    or has no edge, and the partition is equitable, so individualizing C's
    lowest member splits no other cell: C becomes its singletons, ascending.
    """
    n = len(adj)
    twins = [0] * n  # twins[v]: the bitset of v's class
    for cls in classes:
        bits = sum(1 << v for v in cls)
        for v in cls:
            twins[v] = bits
    start = start or [(1 << n) - 1]
    cells = _refine(adj, list(start), start) if n else []
    stack: list[tuple[list[int], int, int]] = []
    i = 0  # the cells before i are singletons, in a child as in its parent
    while True:
        while i < len(cells):
            cell = cells[i]
            if cell & (cell - 1):
                if cell & ~twins[(cell & -cell).bit_length() - 1]:
                    break  # the target cell meets two classes
                cells[i : i + 1] = [1 << v for v in _members(cell)]
            i += 1
        if i == len(cells):
            yield [cell.bit_length() - 1 for cell in cells]
        else:
            first = []
            rest = cells[i]
            while rest:
                low = rest & -rest
                first.append(low)
                rest &= ~twins[low.bit_length() - 1]
            for low in reversed(first):  # so children are searched in cell order
                stack.append((cells, i, low))
        if not stack:
            return
        parent, i, low = stack.pop()
        cells = _refine(adj, parent[:i] + [low, parent[i] ^ low] + parent[i + 1 :], [low])


def _vertex_invariants(A: np.ndarray) -> dict[tuple[int, int], int]:
    """The bitset of the vertices per pair (degree, (A^3)_vv) of the signed
    adjacency matrix A, by ascending pair.

    Relabelling permutes them, and switching keeps them: with D the
    diagonal switching matrix, (DAD)^3 = D A^3 D has the diagonal of A^3.
    So the values are an ordered partition that ignores labels.
    """
    F = A.astype(np.float64)  # NumPy hands float matmul to BLAS; the counts stay below n^2 < 2^53
    closed_walks = ((F @ F) * F).sum(axis=1).astype(np.int64)
    cells: dict[tuple[int, int], int] = {}
    for v, pair in enumerate(zip(np.abs(A).sum(axis=1).tolist(), closed_walks.tolist())):
        cells[pair] = cells.get(pair, 0) | 1 << v
    return dict(sorted(cells.items()))


def switching_isomorphic(
    a: SignedGraph, b: SignedGraph
) -> tuple[bool, tuple[int, ...] | None]:
    """Search for a relabeling pi of a with pi(a) switching equivalent to b.

    Relabelling and switching preserve balance and the multiset of
    per-vertex (degree, (A^3)_vv) pairs, so graphs that differ in either
    are answered at once.  Otherwise both trees start from the ordered
    partition of the vertices by that pair.  A leaf lam of a and b's first
    leaf mu give pi[lam[k]] = mu[k]; a vertex sign t with t(p) t(v)
    sigma_a(pv) = sigma_b(pi(p) pi(v)) on a's BFS forest is read off the
    negative bitsets, and pi is accepted iff t(u) t(v) S_a[u, v] =
    S_b[pi(u), pi(v)] for all u, v, one comparison of signed adjacency
    matrices.  Its zeros say pi is an underlying isomorphism, and its
    signs that t bisigns tau(uv) = sigma_a(uv) sigma_b(pi(u) pi(v)).  A
    balanced tau has no other bisigning up to a sign per component
    (Zaslavsky, "Signed graphs", 1982), so no other t need be tried.

    As the tree ignores labels, its unpruned leaves give every isomorphism
    that keeps the pairs, which every switching isomorphism does.  Both
    trees are pruned by signed twin classes; b's first leaf does not
    depend on them.  Every unpruned leaf of a is a kept leaf composed with
    signed-twin transpositions, each a switching automorphism of a, so a
    kept leaf's pi works iff each of its images does.  Cost grows with the
    automorphisms of the underlying graph that signed-twin transpositions
    do not generate.  Returns (found, pi), pi mapping a's vertices to b's.
    """
    if a.n != b.n:
        raise ValueError(f"orders differ: {a.n} != {b.n}")
    neg_a, neg_b = a._neg, b._neg
    parent, order, s = _forest_signs(a._pos, neg_a)
    if a.m != b.m or (_violated_edge(a._pos, neg_a, s) is None) != _balanced_bits(b._pos, neg_b):
        return False, None
    S_a, S_b = a.adjacency_matrix(), b.adjacency_matrix()
    cells_a, cells_b = _vertex_invariants(S_a), _vertex_invariants(S_b)
    sizes = [{p: c.bit_count() for p, c in cells.items()} for cells in (cells_a, cells_b)]
    if sizes[0] != sizes[1]:
        return False, None
    adj, adj_b = ([p | q for p, q in zip(g._pos, g._neg)] for g in (a, b))
    mu = next(_leaves(adj_b, _twin_classes(adj_b, neg_b), list(cells_b.values())))
    tree = [(v, parent[v], neg_a[parent[v]] >> v & 1) for v in order if parent[v] >= 0]
    pi = [0] * a.n
    for lam in _leaves(adj, _twin_classes(adj, neg_a), list(cells_a.values())):
        for v, w in zip(lam, mu):
            pi[v] = w
        t = [1] * a.n
        for v, p, s in tree:
            t[v] = -t[p] if s ^ neg_b[pi[p]] >> pi[v] & 1 else t[p]
        idx, t = np.array(pi, dtype=np.intp), np.array(t)  # an empty list gives a float array
        if ((S_a * t).T * t == S_b[idx][:, idx]).all():
            return True, tuple(pi)
    return False, None
