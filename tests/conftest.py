"""Shared builders and independent brute-force oracles.

Oracles here deliberately avoid the library's production algorithms: cycle
enumeration is plain path DFS, and the least shortest negative cycle is the
minimum over every cycle it lists (the library's search walks the parity
double cover and never lists cycles), switching orbits are flood-filled over
bit-packed signings (the library counts classes via cotree patterns), and the
census worker (GF(2) kernel of the 4-cycle columns) is checked against a
per-class filter.  The eigensolver (LAPACK eigh) is checked in test_spectra against
exact roots of integer characteristic polynomials, not against a second
float solver.  Exact characteristic polynomials (multimodular
Faddeev-LeVerrier) are checked against determinants by fraction-free
elimination.  Switching isomorphism is checked against every relabeling,
not against the library's canonical labeller.  Real-root isolation (integer
pseudo-remainders) is checked against a Sturm chain built by Euclidean
division over the rationals.  The labeller's bitset refinement is checked
against a refinement over vertex lists that rebuilds the partition per
splitter, and the underlying-graph catalog against twin-orbit generation
that labels every child, not only those whose new vertex has the largest
degree.  The spanning forest is checked against a BFS over neighbour lists
with a queue (the library walks neighbour bitsets).  The switching
isomorphism search on signed bitsets is checked against the earlier search
that reads signs from a dict and multiplies them, which must return the
same (found, pi).  SignedGraph, held as signed neighbour bitsets, is
checked against the dict-of-pairs graph it replaced (``DictSignedGraph``),
refusals included.  Three searches that now read the signed bitsets are
checked against their earlier forms: the fixed-length negative cycle
search against a DFS over dict-of-dicts neighbour signs, the balance
witness against a walk of ``edges()`` for the first violated edge, and
switching to nonnegative-eigenvector form against conjugating the sign
matrix by the diagonal sign matrix of x and rebuilding the graph from it.
Two exact kernels are checked against their earlier forms: the
multimodular char poly with deferred reduction against the kernel that
reduces after every Faddeev-LeVerrier product (``reference_char_poly``),
which must give the same coefficients, and Sturm isolation from the
square-free part's root bound, with the counts there read off the leading
coefficients, against the search from p's own root bound that evaluates
the whole chain at every point (``reference_isolate``): the two must find
intervals and brackets that meet on the same roots, and the same
comparisons.  Root refinement by quadratic interval refinement on the bisection grid is
checked against the bisection it replaced (``reference_bisect``), which must
return the same interval.  The two family graphs, built from their neighbour
rows, are checked against their edge tables passed through the validating
constructor, and the equitable quotient from one product A S against one
row-sum check per block pair (``reference_quotient_matrix``).
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterator

import numpy as np

from signedspectra import SignedGraph, polynomial
from signedspectra.cycles import CycleWitness, canonical_cycle, is_ck_negative_free
from signedspectra.core import _bfs_forest, _bitsets
from signedspectra.enumeration import (
    FLOAT_MARGIN,
    _canonical_edges,
    enumerate_underlying,
    switching_classes,
)
from signedspectra.polynomial import IntPolynomial, _root_bound, _sign_at, _squarefree_part, _sturm_chain
from signedspectra.spectra import (
    _PRIME_CEILING,
    QuotientResult,
    VertexPartition,
    _coefficient_bound,
    _mod,
    _primes,
    eigenvalues_sym,
)
from signedspectra.switching import (
    BalanceResult,
    _forest_signs,
    _refine,
    _relabelled,
    _tree_path,
    _twin_classes,
    _vertex_invariants,
    is_balanced,
    switching_equivalent,
)


class DictSignedGraph:
    """The signed graph as one dict from each vertex pair (u, v), u < v, to its sign.

    SignedGraph's earlier form, with its messages, kept as an oracle: every
    query looks the table up or scans it, and every edit builds a new table.
    """

    def __init__(self, n: int, edges=None):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        table = {}
        for (u, v), s in (edges or {}).items():
            self._check_pair(n, u, v)
            if s not in (-1, 1):
                raise ValueError(f"sign must be -1 or +1, got {s!r}")
            key = (min(u, v), max(u, v))
            if key in table:
                raise ValueError(f"vertex pair ({u},{v}) given twice")
            table[key] = int(s)
        self.n = n
        self.table = table

    @staticmethod
    def _check_pair(n: int, u: int, v: int) -> None:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex pair ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loops are not allowed (vertex {u})")

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.table)

    def edges(self) -> list[tuple[int, int, int]]:
        return [(u, v, s) for (u, v), s in sorted(self.table.items())]

    def edge_set(self) -> frozenset:
        return frozenset(self.table)

    def sign(self, u: int, v: int) -> int:
        self._check_pair(self.n, u, v)
        return self.table.get((min(u, v), max(u, v)), 0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.sign(u, v) != 0

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(sorted(b if a == v else a for a, b in self.table if v in (a, b)))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def adjacency_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.table):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def set_edge(self, u: int, v: int, s: int) -> "DictSignedGraph":
        self._check_pair(self.n, u, v)
        if s not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {s!r}")
        return DictSignedGraph(self.n, {**self.table, (min(u, v), max(u, v)): s})

    def remove_edge(self, u: int, v: int) -> "DictSignedGraph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        key = (min(u, v), max(u, v))
        return DictSignedGraph(self.n, {e: s for e, s in self.table.items() if e != key})

    def induced_subgraph(self, vertices) -> tuple["DictSignedGraph", tuple[int, ...]]:
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        new = {old: i for i, old in enumerate(keep)}
        table = {(new[u], new[v]): s for (u, v), s in self.table.items() if u in new and v in new}
        return DictSignedGraph(len(keep), table), tuple(keep)

    def relabel(self, perm) -> "DictSignedGraph":
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("perm is not a permutation of 0..n-1")
        return DictSignedGraph(self.n, {(p[u], p[v]): s for (u, v), s in self.table.items()})

    def switch(self, u_set) -> "DictSignedGraph":
        U = set(u_set)
        for v in U:
            self._check_vertex(v)
        return DictSignedGraph(
            self.n, {(u, v): -s if (u in U) != (v in U) else s for (u, v), s in self.table.items()}
        )

    def components(self) -> list[list[int]]:
        """Flood fill from each unreached vertex, lowest first."""
        adj = self.adjacency_lists()
        seen: set[int] = set()
        out = []
        for root in range(self.n):
            if root in seen:
                continue
            seen.add(root)
            comp, stack = [root], [root]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def __eq__(self, other) -> bool:
        return self.n == other.n and self.table == other.table

    def to_sg(self) -> str:
        lines = [f"{self.n} {self.m}"] + [f"{u + 1} {v + 1} {'+' if s > 0 else '-'}" for u, v, s in self.edges()]
        return "\n".join(lines) + "\n"


def catalog_graphs(n: int) -> list[SignedGraph]:
    """The built-in catalog of order n as all-positive graphs, for tests that need graphs."""
    return [SignedGraph(n, dict.fromkeys(edges, 1)) for edges in enumerate_underlying(n)]


def random_signed_graph(
    rng: random.Random, n: int, edge_prob: float = 0.5, neg_prob: float = 0.5
) -> SignedGraph:
    table = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                table[(u, v)] = -1 if rng.random() < neg_prob else 1
    return SignedGraph(n, table)


def brute_cycles_dfs(g: SignedGraph):
    """All simple cycles as (vertices, sign), each once, by anchored path DFS."""
    n = g.n
    adj = g.adjacency_lists()
    out = []

    def extend(path, in_path, sgn):
        last = path[-1]
        start = path[0]
        if len(path) >= 3 and g.has_edge(last, start) and path[1] < last:
            out.append((tuple(path), sgn * g.sign(last, start)))
        for w in adj[last]:
            if w <= start or in_path[w]:
                continue
            in_path[w] = True
            path.append(w)
            extend(path, in_path, sgn * g.sign(last, w))
            path.pop()
            in_path[w] = False

    for s in range(n):
        in_path = [False] * n
        in_path[s] = True
        extend([s], in_path, 1)
    return out


def brute_cycles_permutations(g: SignedGraph, k: int):
    """All k-cycles as (vertices, sign) via raw permutations; tiny n only."""
    out = []
    for anchor in range(g.n):
        others = [v for v in range(g.n) if v > anchor]
        for rest in permutations(others, k - 1):
            if rest[0] > rest[-1]:
                continue  # one direction per cycle
            cyc = (anchor,) + rest
            ok = True
            sgn = 1
            for i in range(k):
                u, v = cyc[i], cyc[(i + 1) % k]
                s = g.sign(u, v)
                if s == 0:
                    ok = False
                    break
                sgn *= s
            if ok:
                out.append((cyc, sgn))
    return out


def brute_switching_isomorphic(a: SignedGraph, b: SignedGraph) -> bool:
    """Switching isomorphism by trying all n! relabelings; tiny n only.

    A relabeling is tried for switching equivalence only when it maps a's
    edge set onto b's.
    """
    edges_a, target = a.edge_set(), b.edge_set()
    for p in permutations(range(a.n)):
        moved = {(min(p[u], p[v]), max(p[u], p[v])) for u, v in edges_a}
        if moved == target and switching_equivalent(a.relabel(p), b):
            return True
    return False


def reference_find_negative_ck(g: SignedGraph, k: int) -> CycleWitness | None:
    """``find_negative_ck`` as a DFS over dict-of-dicts neighbour signs, multiplying them.

    The same anchored paths in the same ascending order, so the same first hit.
    """
    n = g.n
    if k < 3:
        raise ValueError(f"cycle length must be at least 3, got {k}")
    if k > n:
        return None
    nbr: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v, s in g.edges():  # sorted, so each dict lists neighbours ascending
        nbr[u][v] = s
        nbr[v][u] = s
    path = [0] * k
    in_path = [False] * n

    def extend(depth: int, last: int, start: int, sgn: int):
        if depth == k:
            s = nbr[last].get(start, 0)
            if s and path[1] < last and sgn * s < 0:
                return tuple(path)
            return None
        for w, s in nbr[last].items():
            if w <= start or in_path[w]:
                continue
            path[depth] = w
            in_path[w] = True
            hit = extend(depth + 1, w, start, sgn * s)
            in_path[w] = False
            if hit is not None:
                return hit
        return None

    for start in range(n):
        path[0] = start
        in_path[start] = True
        hit = extend(1, start, start, 1)
        in_path[start] = False
        if hit is not None:
            return CycleWitness(canonical_cycle(hit), -1)
    return None


def reference_is_balanced(g: SignedGraph) -> BalanceResult:
    """``is_balanced`` with its witness from the first violated edge of ``g.edges()``."""
    parent, _, s = _forest_signs(g._pos, g._neg)
    for u, v, sgn in g.edges():
        if s[u] * s[v] != sgn:
            path = _tree_path(parent, u, v)
            return BalanceResult(False, negative_cycle=CycleWitness(canonical_cycle(path), -1))
    return BalanceResult(True, bisigning=tuple(s))


def reference_nonneg_eigenvector_form(g: SignedGraph):
    """``nonneg_eigenvector_form`` by D S D on the sign matrix S, D the diagonal sign matrix of x.

    The graph is rebuilt from D S D by the validating constructor; when
    D S D = S, g and its report come back, else D S D is solved afresh.
    """
    S = g.adjacency_matrix()
    report = eigenvalues_sym(S)
    d = np.where(report.x < 0.0, -1, 1)
    switched = d[:, None] * S * d
    if np.array_equal(switched, S):
        return g, report
    table = {(u, v): int(switched[u, v]) for u, v in combinations(range(g.n), 2) if switched[u, v]}
    return SignedGraph(g.n, table), eigenvalues_sym(switched)


def brute_shortest_negative_length(g: SignedGraph):
    neg = [len(c) for c, s in brute_cycles_dfs(g) if s < 0]
    return min(neg) if neg else None


def brute_least_negative_cycle(g: SignedGraph):
    """The least negative cycle by (length, canonical vertex tuple), or None.

    brute_cycles_dfs lists each cycle in canonical form: least vertex
    first, then its smaller neighbour.
    """
    neg = [c for c, s in brute_cycles_dfs(g) if s < 0]
    return min(neg, key=lambda c: (len(c), c), default=None)


def _edge_list(g: SignedGraph):
    return sorted(g.edge_set())


def brute_switching_orbit_count(g: SignedGraph) -> int:
    """Number of switching orbits over all 2^m signings, by flood fill.

    Signings are bitmasks over the sorted edge list (bit=1 means negative);
    switching at one vertex XORs the incident-edge mask.  Orbit count is the
    number of connected components of that action.
    """
    edges = _edge_list(g)
    m = len(edges)
    vert_mask = [0] * g.n
    for i, (u, v) in enumerate(edges):
        vert_mask[u] |= 1 << i
        vert_mask[v] |= 1 << i
    seen = bytearray(1 << m)
    orbits = 0
    for s0 in range(1 << m):
        if seen[s0]:
            continue
        orbits += 1
        stack = [s0]
        seen[s0] = 1
        while stack:
            s = stack.pop()
            for vm in vert_mask:
                t = s ^ vm
                if not seen[t]:
                    seen[t] = 1
                    stack.append(t)
    return orbits


def brute_switching_orbit_of(g: SignedGraph) -> set[int]:
    """All signings (as bitmasks over sorted edges) reachable from g by switching."""
    edges = _edge_list(g)
    sign_bit = {e: 0 if g.sign(*e) > 0 else 1 for e in edges}
    s0 = 0
    for i, e in enumerate(edges):
        s0 |= sign_bit[e] << i
    vert_mask = [0] * g.n
    for i, (u, v) in enumerate(edges):
        vert_mask[u] |= 1 << i
        vert_mask[v] |= 1 << i
    orbit = {s0}
    stack = [s0]
    while stack:
        s = stack.pop()
        for vm in vert_mask:
            t = s ^ vm
            if t not in orbit:
                orbit.add(t)
                stack.append(t)
    return orbit


def signing_bitmask(g: SignedGraph) -> int:
    mask = 0
    for i, e in enumerate(_edge_list(g)):
        if g.sign(*e) < 0:
            mask |= 1 << i
    return mask


def reference_bfs_forest(adj: list[list[int]]) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """``core._bfs_forest`` over ascending neighbour lists and a queue, not bitsets."""
    parent = [-2] * len(adj)
    order: list[int] = []
    forest: list[tuple[int, int]] = []
    for root in range(len(adj)):
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


def random_fundamental_cycle(rng: random.Random, g: SignedGraph):
    """A random cycle (vertex tuple) from a BFS tree plus one cotree edge."""
    parent, _, forest = reference_bfs_forest(g.adjacency_lists())
    tree = set(forest)
    cotree = [e for e in _edge_list(g) if e not in tree]
    if not cotree:
        return None
    u, v = rng.choice(cotree)
    anc_u = [u]
    while parent[anc_u[-1]] != -1:
        anc_u.append(parent[anc_u[-1]])
    anc_v = [v]
    while parent[anc_v[-1]] != -1:
        anc_v.append(parent[anc_v[-1]])
    pos = {x: i for i, x in enumerate(anc_u)}
    for j, x in enumerate(anc_v):
        if x in pos:
            path = anc_u[: pos[x]] + anc_v[: j + 1][::-1]
            return tuple(path) if len(path) >= 3 else None
    return None


def brute_census_one_graph(n: int, edges):
    """Per-class census of one underlying graph, in the census worker's shape.

    Builds every switching class, keeps the unbalanced ones with no negative
    4-cycle, and returns (classes, eligible, best, [(lam, pattern), ...])
    with the census's candidate rule: every class within FLOAT_MARGIN of the best.
    """
    best = -math.inf
    eligible = 0
    keep = []
    classes = switching_classes(SignedGraph(n, {e: 1 for e in edges}))
    for bits, h in enumerate(classes):
        if is_balanced(h).balanced or not is_ck_negative_free(h, 4):
            continue
        eligible += 1
        lam = eigenvalues_sym(h.adjacency_matrix()).lambda1
        if lam > best:
            best = lam
            keep = [(l, p) for (l, p) in keep if l >= best - FLOAT_MARGIN]
        if lam >= best - FLOAT_MARGIN:
            keep.append((lam, bits))
    return len(classes), eligible, best, keep


def brute_det(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def brute_char_poly_values(rows) -> list[int]:
    """det(kI - A) for k = 0..n: n + 1 values that fix a monic degree-n polynomial."""
    n = len(rows)
    return [
        brute_det([[(k if i == j else 0) - int(rows[i][j]) for j in range(n)] for i in range(n)])
        for k in range(n + 1)
    ]


def reference_char_poly(A: np.ndarray) -> IntPolynomial:
    """det(xI - A) by the kernel that reduces modulo the primes after every product.

    The same primes and CRT as the library's kernel, but A's residues lie in
    [0, p), B_k is reduced into [0, p] after every product, and the inverses
    of 1..n are recomputed per call.
    """
    n = A.shape[0]
    if n == 0:
        return IntPolynomial([1])
    if (n + 1) * (_PRIME_CEILING - 1) ** 2 >= 1 << 52:
        raise ValueError(f"order {n} is too large for exact float64 products modulo primes below 2^20")
    need = 2 * _coefficient_bound(A)
    primes = _primes(need.bit_length() // 19 + 2)
    modulus, used = 1, 0
    while modulus <= need:
        modulus *= primes[used]
        used += 1
    primes = primes[: used + 1]

    P = np.array(primes, dtype=float)
    P_inv = 1.0 / P
    P3, P3_inv = P[:, None, None], P_inv[:, None, None]
    inverses = np.array([[pow(k, -1, p) for p in primes] for k in range(1, n + 1)], dtype=float)
    Ap = (A % np.array(primes, dtype=A.dtype)[:, None, None]).astype(float)
    B = Ap.copy()
    residues = np.zeros((len(primes), n + 1))
    residues[:, n] = 1
    for k in range(1, n + 1):
        diagonal = B.reshape(len(primes), n * n)[:, :: n + 1]
        c = _mod((n * P - diagonal.sum(1)) * inverses[k - 1], P, P_inv)
        residues[:, n - k] = c
        if k < n:
            diagonal += c[:, None]
            B = _mod(Ap @ B, P3, P3_inv)

    weights = [(modulus // p) * pow(modulus // p, -1, p) for p in primes[:-1]]
    coeffs = []
    for *rs, spare in residues.astype(np.int64).T.tolist():
        x = sum(w * r for w, r in zip(weights, rs)) % modulus
        if x > modulus // 2:
            x -= modulus
        assert (x - spare) % primes[-1] == 0
        coeffs.append(x)
    return IntPolynomial(coeffs)


def reference_isolate(p: IntPolynomial) -> tuple[list[list[int]], Iterator[tuple[int, int, int]]]:
    """``polynomial._isolate`` by the search that evaluates the whole chain at every point.

    It starts at -B and B, B the root bound of p itself rather than of its
    square-free part, so with repeated roots its intervals lie on another
    grid than the library's: each must meet the library's on the same root.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    chain = _sturm_chain(_squarefree_part(p))
    B = _root_bound(p)

    def changes(m: int, e: int) -> int:
        signs = [s for s in (_sign_at(f, m, e) for f in chain) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    def descend():
        stack = [(-B, B, 0, changes(-B, 0), changes(B, 0))]
        while stack:
            lo, hi, e, vlo, vhi = stack.pop()
            k = vlo - vhi
            if k == 1:
                yield lo, hi, e
            elif k > 1:
                mid = lo + hi
                vm = changes(mid, e + 1)
                stack.append((2 * lo, mid, e + 1, vlo, vm))
                stack.append((mid, 2 * hi, e + 1, vm, vhi))

    return chain, descend()


def reference_bisect(sf: list[int], iv: tuple[int, int, int], width: Fraction) -> tuple[int, int, int]:
    """``polynomial._refine`` by bisection: one sign per halving of iv down to the width.

    The root lies in the half-open (lo, hi], so once the sign at hi is
    nonzero a midpoint with that sign has the root below it.  Signs come from
    ``polynomial._sign_at``, looked up per call, so a test that wraps the
    module's evaluator counts this search's evaluations too.
    """
    lo, hi, e = iv
    fb = polynomial._sign_at(sf, hi, e)
    if fb == 0:
        return hi, hi, e
    while (hi - lo) * width.denominator > width.numerator << e:
        mid, e = lo + hi, e + 1
        fm = polynomial._sign_at(sf, mid, e)
        if fm == 0:
            return mid, mid, e
        if fm == fb:
            lo, hi = 2 * lo, mid
        else:
            lo, hi = mid, 2 * hi
    return lo, hi, e


def reference_extremal_graph(n: int) -> SignedGraph:
    """``families.extremal_graph(n)`` from its edge table, through the validating constructor."""
    table = {(0, 1): -1, (0, 2): 1, (1, 2): 1}
    table.update(((u, v), 1) for u, v in combinations(range(2, n), 2))
    return SignedGraph(n, table)


def reference_near_extremal_graph(n: int) -> SignedGraph:
    """``families.near_extremal_graph(n)`` from its edge table, through the validating constructor."""
    table = {(0, 1): -1, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1}
    table.update(((u, w), 1) for u in (2, 3) for w in range(4, n))
    table.update(((u, v), 1) for u, v in combinations(range(4, n), 2))
    return SignedGraph(n, table)


def reference_quotient_matrix(M, partition: VertexPartition) -> QuotientResult:
    """``spectra.quotient_matrix`` by one row-sum check per block pair, in loop order."""
    A = np.asarray(M)
    Q = np.zeros((partition.k, partition.k), dtype=A.dtype)
    for i, bi in enumerate(partition.blocks):
        for j, bj in enumerate(partition.blocks):
            sums = A[np.ix_(bi, bj)].sum(axis=1)
            if np.any(sums != sums[0]):
                bad = int(np.flatnonzero(sums != sums[0])[0])
                return QuotientResult(matrix=None, violation=(i, j, bi[bad]))
            Q[i, j] = sums[0]
    return QuotientResult(matrix=Q, violation=None)


def twin_rich_graphs(rng: random.Random, n: int) -> list[frozenset]:
    """Complete multipartite, threshold and K_n-minus-matching graphs and their complements."""
    parts, start = [], 0
    while start < n:
        size = rng.randint(1, n - start)
        parts.append(range(start, start + size))
        start += size
    part = {v: i for i, p in enumerate(parts) for v in p}
    multipartite = {(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]}
    threshold = set()
    for v in range(1, n):
        if rng.random() < 0.5:  # v dominates all earlier vertices, else it stays isolated
            threshold |= {(u, v) for u in range(v)}
    perm = list(range(n))
    rng.shuffle(perm)
    matching = {tuple(sorted(perm[2 * i : 2 * i + 2])) for i in range(rng.randint(1, n // 2))}
    minus_matching = set(combinations(range(n), 2)) - matching
    out = []
    for edges in (multipartite, threshold, minus_matching):
        for e in (edges, set(combinations(range(n), 2)) - edges):
            g = SignedGraph(n, {pair: 1 for pair in e}).relabel(perm)
            out.append(g.edge_set())
    return out


def _fraction_divmod(a: list, b: list) -> tuple[list, list]:
    """Euclidean division over Q of ascending coefficient lists; [] is zero."""
    a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c, k = Fraction(a[-1]) / b[-1], len(a) - len(b)
        q[k] = c
        for i, d in enumerate(b):
            a[k + i] -= c * d
        while a and a[-1] == 0:
            a.pop()
    return q, a


def brute_squarefree_and_sturm(coeffs) -> tuple[list, list[list]]:
    """Monic p / gcd(p, p') and its Sturm chain, by Euclidean division over Q."""
    p = [Fraction(c) for c in coeffs]
    g, h = p, [k * c for k, c in enumerate(p)][1:]
    while h:
        g, h = h, _fraction_divmod(g, h)[1]
    sf = _fraction_divmod(p, g)[0]
    sf = [c / sf[-1] for c in sf]
    chain = [sf, [k * c for k, c in enumerate(sf)][1:]]
    while chain[-1]:
        chain.append([-c for c in _fraction_divmod(chain[-2], chain[-1])[1]])
    return sf, chain[:-1]


def fraction_value(coeffs, x: Fraction) -> Fraction:
    return sum(c * x**k for k, c in enumerate(coeffs))


def brute_sturm_count(chain: list[list], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of chain[0] in (lo, hi], by Sturm's theorem."""

    def changes(x: Fraction) -> int:
        signs = [v for v in (fraction_value(f, x) for f in chain) if v]
        return sum(u * v < 0 for u, v in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)


def reference_refine(adj: list[int], cells: list[list[int]], splitters: list[list[int]]) -> list[list[int]]:
    """Equitable refinement over vertex lists: each splitter rebuilds the whole partition.

    Each queued splitter W splits every cell into fragments by neighbour
    count in W, ascending, each fragment in the cell's order, and queues
    them; the same ordered partition the library's bitset cells must give.
    """
    queue = deque(splitters)
    while queue and len(cells) < len(adj):
        bits = 0
        for v in queue.popleft():
            bits |= 1 << v
        out = []
        for cell in cells:
            if len(cell) > 1:
                counts = [(adj[v] & bits).bit_count() for v in cell]
                if len(set(counts)) > 1:
                    parts: dict[int, list[int]] = {}
                    for v, c in zip(cell, counts):
                        parts.setdefault(c, []).append(v)
                    for c in sorted(parts):
                        out.append(parts[c])
                        queue.append(parts[c])
                    continue
            out.append(cell)
        cells = out
    return cells


def unfiltered_underlying(n: int) -> list[tuple]:
    """Canonical edge lists of order n, by twin-orbit extension labelling every child.

    Sorted as the catalog is: by edge count, then edge list.
    """
    reps = {(): frozenset()}
    for k in range(2, n + 1):
        nxt = {}
        for edges in reps.values():
            classes = _twin_classes(_bitsets(k - 1, edges))
            for counts in product(*(range(len(cls) + 1) for cls in classes)):
                picked = {(u, k - 1) for cls, j in zip(classes, counts) for u in cls[:j]}
                key = _canonical_edges(k, edges | picked)
                nxt.setdefault(key, frozenset(key))
        reps = nxt
    return sorted(reps, key=lambda t: (len(t), t))


def reference_leaves(adj: list[int], classes: list[list[int]], start: list[int] | None = None):
    """The pruned tree of ``switching._leaves`` walked one level at a time: every order.

    A node's children individualize the first vertex of each class in its
    first non-singleton cell and refine, even where that is one child, so
    a target cell inside one twin class costs one refinement per vertex.
    """
    n = len(adj)
    twins = [0] * n
    for cls in classes:
        bits = sum(1 << v for v in cls)
        for v in cls:
            twins[v] = bits
    start = start or [(1 << n) - 1]
    cells = _refine(adj, list(start), start) if n else []
    stack: list[tuple[list[int], int, int]] = []
    while True:
        if len(cells) == n:
            yield [cell.bit_length() - 1 for cell in cells]
        else:
            i = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
            first = []
            rest = cells[i]
            while rest:
                low = rest & -rest
                first.append(low)
                rest &= ~twins[low.bit_length() - 1]
            for low in reversed(first):
                stack.append((cells, i, low))
        if not stack:
            return
        parent, i, low = stack.pop()
        cells = _refine(adj, parent[:i] + [low, parent[i] ^ low] + parent[i + 1 :], [low])


def reference_switching_isomorphic(a: SignedGraph, b: SignedGraph) -> tuple[bool, tuple[int, ...] | None]:
    """``switching_isomorphic`` as it read signs before the bitset rewrite.

    The same search tree and leaf order, walked by :func:`reference_leaves`,
    but each leaf is compared by its sorted relabelled edge list, balance
    is decided by ``is_balanced``, b's signs come from a dict and a's from
    ``a.sign``, and tau is propagated as a product of signs and checked on
    every cotree edge.
    """
    if a.n != b.n:
        raise ValueError(f"orders differ: {a.n} != {b.n}")
    if a.m != b.m or is_balanced(a).balanced != is_balanced(b).balanced:
        return False, None
    cells_a, cells_b = _vertex_invariants(a.adjacency_matrix()), _vertex_invariants(b.adjacency_matrix())
    sizes = [{p: c.bit_count() for p, c in cells.items()} for cells in (cells_a, cells_b)]
    if sizes[0] != sizes[1]:
        return False, None
    b_edges = b.edge_set()
    start_b = list(cells_b.values())
    adj_b, neg_b = _bitsets(b.n, b_edges), _bitsets(b.n, [(u, v) for u, v, s in b.edges() if s < 0])
    mu = next(reference_leaves(adj_b, _twin_classes(adj_b, neg_b), start_b))
    target = _relabelled(mu, b_edges)
    sign_b = {}
    for u, v, s in b.edges():
        sign_b[u, v] = sign_b[v, u] = s
    a_edges = a.edge_set()
    adj = _bitsets(a.n, a_edges)
    parent, order, forest = _bfs_forest(adj)
    tree = [(v, parent[v], a.sign(parent[v], v)) for v in order if parent[v] >= 0]
    forest_set = set(forest)
    signed = a.edges()
    cotree = [(u, v, s) for u, v, s in signed if (u, v) not in forest_set]
    neg = _bitsets(a.n, [(u, v) for u, v, s in signed if s < 0])
    for lam in reference_leaves(adj, _twin_classes(adj, neg), list(cells_a.values())):
        if _relabelled(lam, a_edges) != target:
            continue
        pi = tuple(w for _, w in sorted(zip(lam, mu)))
        tau = [1] * a.n
        for v, p, s in tree:
            tau[v] = tau[p] * s * sign_b[pi[p], pi[v]]
        if all(tau[u] * tau[v] == s * sign_b[pi[u], pi[v]] for u, v, s in cotree):
            return True, pi
    return False, None
