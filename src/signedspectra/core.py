"""Signed graphs: simple undirected graphs with edge signs in {-1, +1}.

A signed graph pairs an underlying simple graph on vertices 0..n-1 with a
sign for every edge.  Graphs are value objects: every mutator returns a new
graph and never touches the receiver, so instances can be shared freely
across threads and processes.

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


def _canon(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _bfs_forest(adj: list[int]) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The one spanning-forest builder: BFS over the neighbour bitsets of :func:`_bitsets`.

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
    """The one neighbour-bitset builder: bit v of ``adj[u]`` is set iff uv is an edge."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _sign_bitsets(g: "SignedGraph") -> tuple[list[int], list[int]]:
    """The positive and the negative neighbour bitsets of g, as :func:`_bitsets`."""
    return (
        _bitsets(g.n, [uv for uv, s in g._edges.items() if s > 0]),
        _bitsets(g.n, [uv for uv, s in g._edges.items() if s < 0]),
    )


class SignedGraph:
    """Immutable simple graph on vertices 0..n-1 with signs in {-1, +1}.

    Edge-modifying methods (:meth:`set_edge`, :meth:`remove_edge`,
    :meth:`induced_subgraph`) return new graphs.  The constructor refuses
    a vertex pair given twice, in either orientation.
    """

    __slots__ = ("_n", "_edges", "_hash")

    def __init__(self, n: int, edges: Mapping[tuple[int, int], int] | None = None):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        table: dict[tuple[int, int], int] = {}
        if edges:
            for (u, v), s in edges.items():
                self._check_pair(n, u, v)
                if s not in (-1, 1):
                    raise ValueError(f"sign must be -1 or +1, got {s!r}")
                key = _canon(u, v)
                if key in table:
                    raise ValueError(f"vertex pair ({u},{v}) given twice")
                table[key] = int(s)
        self._n = n
        self._edges = table
        self._hash: int | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def complete(cls, n: int, sign: int = 1) -> "SignedGraph":
        """K_n with every edge carrying ``sign``."""
        if n < 1:
            raise ValueError(f"complete graph needs n >= 1, got {n}")
        if sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {sign!r}")
        return cls(n, {(u, v): sign for u in range(n) for v in range(u + 1, n)})

    @staticmethod
    def _check_pair(n: int, u: int, v: int) -> None:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex pair ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loops are not allowed (vertex {u})")

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    def edges(self) -> list[tuple[int, int, int]]:
        """All edges as plain ``(u, v, s)`` tuples with u < v, sorted."""
        return [(u, v, s) for (u, v), s in sorted(self._edges.items())]

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Underlying edge set (signs dropped)."""
        return frozenset(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_pair(self._n, u, v)
        return _canon(u, v) in self._edges

    def sign(self, u: int, v: int) -> int:
        """Sign of edge {u, v}, or 0 if the pair is a non-edge."""
        self._check_pair(self._n, u, v)
        return self._edges.get(_canon(u, v), 0)

    def degree(self, v: int) -> int:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range for n={self._n}")
        return sum(1 for (a, b) in self._edges if a == v or b == v)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order (signs ignored)."""
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range for n={self._n}")
        out = [b if a == v else a for (a, b) in self._edges if a == v or b == v]
        return tuple(sorted(out))

    def adjacency_lists(self) -> list[list[int]]:
        """adj[v] = ascending neighbor list; one pass over the edge table."""
        adj: list[list[int]] = [[] for _ in range(self._n)]
        for (u, v) in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    # -- edits (return new graphs) ------------------------------------------

    def set_edge(self, u: int, v: int, s: int) -> "SignedGraph":
        """New graph with edge {u, v} present with sign s (overwrites)."""
        self._check_pair(self._n, u, v)
        if s not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {s!r}")
        table = dict(self._edges)
        table[_canon(u, v)] = int(s)
        return SignedGraph._wrap(self._n, table)

    def remove_edge(self, u: int, v: int) -> "SignedGraph":
        """New graph with edge {u, v} deleted; the edge must exist."""
        self._check_pair(self._n, u, v)
        key = _canon(u, v)
        if key not in self._edges:
            raise ValueError(f"edge ({u},{v}) not present")
        table = dict(self._edges)
        del table[key]
        return SignedGraph._wrap(self._n, table)

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["SignedGraph", tuple[int, ...]]:
        """Subgraph induced on ``vertices``, reindexed to 0..|S|-1.

        Returns ``(subgraph, old_labels)`` where ``old_labels[i]`` is the
        original index of new vertex i (ascending original order).
        """
        keep = sorted(set(vertices))
        for v in keep:
            if not 0 <= v < self._n:
                raise ValueError(f"vertex {v} out of range for n={self._n}")
        remap = {old: new for new, old in enumerate(keep)}
        table = {
            (remap[u], remap[v]): s
            for (u, v), s in self._edges.items()
            if u in remap and v in remap
        }
        return SignedGraph._wrap(len(keep), table), tuple(keep)

    def relabel(self, perm: Iterable[int]) -> "SignedGraph":
        """New graph with vertex v renamed to perm[v]; perm must be a bijection."""
        p = list(perm)
        if sorted(p) != list(range(self._n)):
            raise ValueError("perm is not a permutation of 0..n-1")
        table = {_canon(p[u], p[v]): s for (u, v), s in self._edges.items()}
        return SignedGraph._wrap(self._n, table)

    @classmethod
    def _wrap(cls, n: int, table: dict[tuple[int, int], int]) -> "SignedGraph":
        # internal: table already validated/canonical
        g = cls.__new__(cls)
        g._n = n
        g._edges = table
        g._hash = None
        return g

    # -- matrices and components ---------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric n x n integer matrix with entries in {-1, 0, +1}."""
        A = np.zeros((self._n, self._n), dtype=np.int64)
        for (u, v), s in self._edges.items():
            A[u, v] = s
            A[v, u] = s
        return A

    def components(self) -> list[list[int]]:
        """Connected components as ascending vertex lists, ordered by minimum: the BFS trees."""
        parent, order, _ = _bfs_forest(_bitsets(self._n, self._edges))
        starts = [k for k, v in enumerate(order) if parent[v] == -1] + [self._n]
        return [sorted(order[a:b]) for a, b in zip(starts, starts[1:])]

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, frozenset(self._edges.items())))
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
        return cls._wrap(n, table)

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
