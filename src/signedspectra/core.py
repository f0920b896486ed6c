"""Signed graphs: simple undirected graphs with edge signs in {-1, +1}.

A signed graph pairs an underlying simple graph on vertices 0..n-1 with a
sign for every edge, held as two signed neighbour bitsets per vertex (see
:class:`SignedGraph`): balance, negative 4-cycles and switching are sign
parities over neighbourhoods, read off these rows.  Graphs are value
objects: every mutator returns a new graph and never touches the receiver,
so instances can be shared freely across threads and processes.

The on-disk text format ``.sg`` is line based:

    line 1:  ``n m``        (vertex count, edge count)
    then m:  ``u v s``      (1-based endpoints with u < v, s is ``+`` or ``-``)

Lines starting with ``#`` are comments; blank lines are ignored.  Files are
UTF-8 with LF line endings.  Graph catalogs of many records
(``enumeration.ingest_graph_list``) use the same line grammar.  Example, the
all-negative triangle::

    3 3
    1 2 -
    1 3 -
    2 3 -
"""

from __future__ import annotations

import operator
from itertools import compress, count
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "SignedGraph",
    "SgFormatError",
    "new_graph",
    "complete_signed",
]


class SgFormatError(ValueError):
    """Raised on malformed ``.sg`` or graph-catalog input; carries the 1-based line number.

    ``enumeration.GraphListError`` is this class.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _sg_lines(text: str, chars: str | None = None) -> list[tuple[int, str]]:
    """The lines of ``.sg`` text stripped of ``chars`` (default: whitespace), less blanks and comments."""
    # not splitlines, which also breaks at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029
    lines = ((i, raw.strip(chars)) for i, raw in enumerate(text.split("\n"), 1))
    return [(i, ln) for i, ln in lines if ln and ln[0] != "#"]


def _sg_header(lineno: int, line: str) -> tuple[int, int]:
    """The ``n m`` header of an ``.sg`` record."""
    parts = line.split()
    if len(parts) != 2:
        raise SgFormatError(lineno, f"expected header 'n m', got {line!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise SgFormatError(lineno, f"non-integer header {line!r}") from None
    if n < 0 or m < 0:
        raise SgFormatError(lineno, f"negative counts in header {line!r}")
    return n, m


def _sg_pair(lineno: int, line: str, parts: list[str], n: int, seen) -> tuple[int, int]:
    """The 0-based pair of the edge line ``u v ...`` of an order-n record, if not in ``seen``."""
    try:
        u1, v1 = int(parts[0]), int(parts[1])
    except ValueError:
        raise SgFormatError(lineno, f"non-integer endpoints in {line!r}") from None
    if not (1 <= u1 < v1 <= n):
        raise SgFormatError(lineno, f"need 1 <= u < v <= {n}, got u={u1} v={v1}")
    if (u1 - 1, v1 - 1) in seen:
        raise SgFormatError(lineno, f"duplicate edge {u1} {v1}")
    return u1 - 1, v1 - 1


def _bfs_forest(adj: list[int]) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The one spanning-forest builder: BFS over neighbour bitsets ``adj``.

    Returns (parent, order, forest_edges), roots with parent -1.  Roots are the
    lowest unreached vertices, so each tree is a run of ``order`` from its root.
    ``order`` is also the queue: a vertex's unreached neighbours are one AND,
    appended lowest first.
    """
    parent = [-2] * len(adj)
    order: list[int] = []
    forest: list[tuple[int, int]] = []
    seen = i = 0
    for root in range(len(adj)):
        if parent[root] != -2:
            continue
        parent[root] = -1
        order.append(root)
        seen |= 1 << root
        while i < len(order):
            u = order[i]
            i += 1
            new = adj[u] & ~seen
            seen |= new
            while new:
                low = new & -new
                new ^= low
                w = low.bit_length() - 1
                parent[w] = u
                order.append(w)
                forest.append((u, w) if u < w else (w, u))
    return parent, order, forest


def _bitsets(n: int, edges) -> list[int]:
    """The neighbour bitsets of an unsigned edge list: bit v of ``adj[u]`` is set iff uv is an edge."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _vertex(v) -> int:
    """v as a Python int: integers and NumPy integers pass, anything else is refused."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"vertex {v!r} is not an integer") from None


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _members(bits: int, low: int = 0) -> Iterable[int]:
    """The set bits of ``bits`` from bit ``low`` up, ascending, read off its binary digits."""
    return compress(count(low), bin(bits >> low)[:1:-1].encode().translate(_DIGIT_FLAGS))


class SignedGraph:
    """Immutable simple graph on vertices 0..n-1 with signs in {-1, +1}.

    The state is n and two lists of ints: bit v of ``_pos[u]`` (of
    ``_neg[u]``) is set iff uv is a positive (a negative) edge.
    Edge-modifying methods (:meth:`set_edge`, :meth:`remove_edge`,
    :meth:`induced_subgraph`, :meth:`relabel`) return new graphs.  Vertex
    arguments are integers (NumPy integers become Python ints; anything
    else is refused).  The constructor refuses a vertex pair given twice,
    in either orientation.
    """

    __slots__ = ("_n", "_pos", "_neg", "_hash")

    def __init__(self, n: int, edges: Mapping[tuple[int, int], int] | None = None):
        n = operator.index(n)  # a NumPy integer order must not reach the row shifts
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        pos, neg = [0] * n, [0] * n
        for (u, v), s in (edges or {}).items():
            u, v = self._check_pair(n, u, v)
            if s not in (-1, 1):
                raise ValueError(f"sign must be -1 or +1, got {s!r}")
            if (pos[u] | neg[u]) >> v & 1:
                raise ValueError(f"vertex pair ({u},{v}) given twice")
            side = pos if s > 0 else neg
            side[u] |= 1 << v
            side[v] |= 1 << u
        self._n, self._pos, self._neg, self._hash = n, pos, neg, None

    # -- construction ------------------------------------------------------

    @classmethod
    def complete(cls, n: int, sign: int = 1) -> "SignedGraph":
        """K_n with every edge carrying ``sign``."""
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"complete graph needs n >= 1, got {n}")
        if sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {sign!r}")
        rows = [((1 << n) - 1) ^ 1 << u for u in range(n)]
        return cls._wrap(n, rows, [0] * n) if sign > 0 else cls._wrap(n, [0] * n, rows)

    @staticmethod
    def _check_pair(n: int, u, v) -> tuple[int, int]:
        u, v = _vertex(u), _vertex(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex pair ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loops are not allowed (vertex {u})")
        return u, v

    def _check_vertex(self, v) -> int:
        v = _vertex(v)
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range for n={self._n}")
        return v

    @classmethod
    def _wrap(cls, n: int, pos: list[int], neg: list[int]) -> "SignedGraph":
        # internal: rows already symmetric, loop-free and disjoint
        g = cls.__new__(cls)
        g._n, g._pos, g._neg, g._hash = n, pos, neg, None
        return g

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return sum(p.bit_count() + q.bit_count() for p, q in zip(self._pos, self._neg)) // 2

    def edges(self) -> list[tuple[int, int, int]]:
        """All edges as plain ``(u, v, s)`` tuples with u < v, sorted."""
        return [
            (u, v, 1 if p >> v & 1 else -1)
            for u, (p, q) in enumerate(zip(self._pos, self._neg))
            for v in _members(p | q, u)
        ]

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Underlying edge set (signs dropped)."""
        rows = enumerate(zip(self._pos, self._neg))
        return frozenset((u, v) for u, (p, q) in rows for v in _members(p | q, u))

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self._check_pair(self._n, u, v)
        return bool((self._pos[u] | self._neg[u]) >> v & 1)

    def sign(self, u: int, v: int) -> int:
        """Sign of edge {u, v}, or 0 if the pair is a non-edge."""
        u, v = self._check_pair(self._n, u, v)
        return (self._pos[u] >> v & 1) - (self._neg[u] >> v & 1)

    def degree(self, v: int) -> int:
        v = self._check_vertex(v)
        return (self._pos[v] | self._neg[v]).bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order (signs ignored)."""
        v = self._check_vertex(v)
        return tuple(_members(self._pos[v] | self._neg[v]))

    def adjacency_lists(self) -> list[list[int]]:
        """adj[v] = ascending neighbor list."""
        return [list(_members(p | q)) for p, q in zip(self._pos, self._neg)]

    # -- edits (return new graphs) ------------------------------------------

    def set_edge(self, u: int, v: int, s: int) -> "SignedGraph":
        """New graph with edge {u, v} present with sign s (overwrites)."""
        u, v = self._check_pair(self._n, u, v)
        if s not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {s!r}")
        return self._edited(((u, v, s),))

    def remove_edge(self, u: int, v: int) -> "SignedGraph":
        """New graph with edge {u, v} deleted; the edge must exist."""
        u, v = self._check_pair(self._n, u, v)
        if not (self._pos[u] | self._neg[u]) >> v & 1:
            raise ValueError(f"edge ({u},{v}) not present")
        return self._edited(((u, v, 0),))

    def _edited(self, edits) -> "SignedGraph":
        """The one edit routine, unchecked: per ``(u, v, s)``, pair uv gets sign s, or no edge if s = 0."""
        pos, neg = self._pos[:], self._neg[:]
        for u, v, s in edits:
            bu, bv = 1 << u, 1 << v
            pos[u] &= ~bv
            neg[u] &= ~bv
            pos[v] &= ~bu
            neg[v] &= ~bu
            if s:
                side = pos if s > 0 else neg
                side[u] |= bv
                side[v] |= bu
        return SignedGraph._wrap(self._n, pos, neg)

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["SignedGraph", tuple[int, ...]]:
        """Subgraph induced on ``vertices``, reindexed to 0..|S|-1.

        Returns ``(subgraph, old_labels)`` where ``old_labels[i]`` is the
        original index of new vertex i (ascending original order).
        """
        keep = sorted({_vertex(v) for v in vertices})
        bit = [0] * self._n
        for i, v in enumerate(keep):
            bit[self._check_vertex(v)] = 1 << i
        return self._renamed(keep, bit), tuple(keep)

    def relabel(self, perm: Iterable[int]) -> "SignedGraph":
        """New graph with vertex v renamed to perm[v]; perm must be a bijection."""
        p = [_vertex(v) for v in perm]
        if sorted(p) != list(range(self._n)):
            raise ValueError("perm is not a permutation of 0..n-1")
        return self._renamed(sorted(range(self._n), key=p.__getitem__), [1 << w for w in p])

    def _renamed(self, old: list[int], bit: list[int]) -> "SignedGraph":
        """The graph whose vertex i has the edges of ``old[i]``, each neighbour v made ``bit[v]``."""
        rows = ([sum(map(bit.__getitem__, _members(side[v]))) for v in old] for side in (self._pos, self._neg))
        return SignedGraph._wrap(len(old), *rows)

    # -- matrices and components ---------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric n x n integer matrix with entries in {-1, 0, +1}: one unpacking of the rows."""
        n, width = self._n, (self._n + 7) // 8
        raw = b"".join(row.to_bytes(width, "little") for row in self._pos + self._neg)
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(2, n, width), axis=2, count=n, bitorder="little"
        )
        return bits[0].astype(np.int64) - bits[1]

    def components(self) -> list[list[int]]:
        """Connected components as ascending vertex lists, ordered by minimum: the BFS trees."""
        parent, order, _ = _bfs_forest([p | q for p, q in zip(self._pos, self._neg)])
        starts = [k for k, v in enumerate(order) if parent[v] == -1] + [self._n]
        return [sorted(order[a:b]) for a, b in zip(starts, starts[1:])]

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self._n == other._n and self._pos == other._pos and self._neg == other._neg

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, tuple(self._pos), tuple(self._neg)))
        return self._hash

    def __repr__(self) -> str:
        return f"SignedGraph(n={self._n}, m={self.m})"

    # -- .sg text format -----------------------------------------------------

    def to_sg(self) -> str:
        """Serialize to the ``.sg`` text format (LF endings, sorted edges)."""
        lines = [f"{self._n} {self.m}"]
        for u, v, s in self.edges():
            lines.append(f"{u + 1} {v + 1} {'+' if s > 0 else '-'}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_sg(cls, text: str) -> "SignedGraph":
        """Parse the ``.sg`` text format; raises SgFormatError with a line number."""
        lines = _sg_lines(text)
        if not lines:
            raise SgFormatError(1, "empty input, missing 'n m' header")
        n, m = _sg_header(*lines[0])
        table: dict[tuple[int, int], int] = {}
        for lineno, line in lines[1:]:
            parts = line.split()
            if len(parts) != 3:
                raise SgFormatError(lineno, f"expected 'u v s', got {line!r}")
            key = _sg_pair(lineno, line, parts, n, table)
            if parts[2] not in ("+", "-"):
                raise SgFormatError(lineno, f"sign must be '+' or '-', got {parts[2]!r}")
            table[key] = 1 if parts[2] == "+" else -1
        if len(table) != m:
            raise SgFormatError(lines[-1][0], f"header declares {m} edges, found {len(table)}")
        return cls(n, table)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_sg())

    @classmethod
    def load(cls, path) -> "SignedGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_sg(fh.read())


def new_graph(n: int) -> SignedGraph:
    """Edgeless signed graph on n vertices."""
    return SignedGraph(n)


def complete_signed(n: int, sign: int) -> SignedGraph:
    """K_n with all edges carrying ``sign`` (+1 or -1)."""
    return SignedGraph.complete(n, sign)
