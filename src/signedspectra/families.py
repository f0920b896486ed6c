"""Named signed-graph families with closed-form spectral data.

Two families drive the extremal analysis for graphs with no negative
4-cycle:

* ``extremal_graph(n)``: one negative edge {v1, v2}, both endpoints
  positively joined to v3, and {v3, ..., vn} an all-positive complete
  graph.  Its index is the unique root of a cubic in (n-3, n-2) and it is
  the unique maximizer (up to switching) of the index among unbalanced
  signed graphs of order n with no negative 4-cycle.
* ``near_extremal_graph(n)``: one negative edge {v1, v2}, both endpoints
  positively joined to v3 and v4 (which are non-adjacent), and v3, v4
  joined to an all-positive complete graph on {v5, ..., vn}.  Its index
  stays below n - 3 for n >= 7, hence below the extremal index.

Both constructions use the vertex order v1, v2, v3(, v4), rest, so the
canonical partitions below give exact 4 x 4 equitable quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SignedGraph, complete_signed
from .polynomial import IntPolynomial, largest_real_root
from .spectra import VertexPartition

__all__ = [
    "extremal_graph",
    "near_extremal_graph",
    "extremal_cubic",
    "near_extremal_cubic",
    "extremal_index_root",
    "extremal_quotient_matrix",
    "near_extremal_quotient_matrix",
    "extremal_partition",
    "near_extremal_partition",
    "FamilySpec",
    "FAMILY_TAGS",
    "FAMILY_ALIASES",
]


def _require_order(n: int, minimum: int) -> None:
    if n < minimum:
        raise ValueError(f"family requires n >= {minimum}, got {n}")


def extremal_graph(n: int) -> SignedGraph:
    """Unique negative edge {0,1}; 0,1 joined to 2; K_{n-2} on {2..n-1}."""
    _require_order(n, 5)
    pos = [0b100, 0b100] + [((1 << n) - 4) ^ 1 << u for u in range(2, n)]
    pos[2] |= 0b11
    return SignedGraph._wrap(n, pos, [0b10, 0b01] + [0] * (n - 2))


def near_extremal_graph(n: int) -> SignedGraph:
    """Negative edge {0,1}; 0,1 joined to 2 and 3; 2,3 joined to K_{n-4}."""
    _require_order(n, 5)
    rest = (1 << n) - 16  # {4..n-1}
    pos = [0b1100, 0b1100, rest | 0b11, rest | 0b11] + [(rest | 0b1100) ^ 1 << u for u in range(4, n)]
    return SignedGraph._wrap(n, pos, [0b10, 0b01] + [0] * (n - 2))


def extremal_cubic(n: int) -> IntPolynomial:
    """x^3 + (5-n)x^2 + (5-2n)x + (n-5); its root in (n-3, n-2) is the index."""
    _require_order(n, 5)
    return IntPolynomial([n - 5, 5 - 2 * n, 5 - n, 1])


def near_extremal_cubic(n: int) -> IntPolynomial:
    """x^3 + (6-n)x^2 + (9-3n)x + (2n-12); largest root in (n-4, n-3) for n >= 7."""
    _require_order(n, 5)
    return IntPolynomial([2 * n - 12, 9 - 3 * n, 6 - n, 1])


def extremal_index_root(n: int) -> float:
    """Root of ``extremal_cubic(n)`` in (n-3, n-2): the extremal index.

    It is the cubic's largest real root, bracketed exactly by Sturm
    isolation and QIR on the bisection grid in ``largest_real_root``.
    """
    return largest_real_root(extremal_cubic(n))


def extremal_partition(n: int) -> VertexPartition:
    """{v1}, {v2}, {v3}, {v4..vn}: equitable for the extremal graph."""
    _require_order(n, 5)
    return VertexPartition.of((0,), (1,), (2,), tuple(range(3, n)))


def near_extremal_partition(n: int) -> VertexPartition:
    """{v1}, {v2}, {v3,v4}, {v5..vn}: equitable for the near-extremal graph."""
    _require_order(n, 5)
    return VertexPartition.of((0,), (1,), (2, 3), tuple(range(4, n)))


def extremal_quotient_matrix(n: int) -> np.ndarray:
    """Equitable quotient of the extremal graph under its canonical partition."""
    _require_order(n, 5)
    return np.array([[0, -1, 1, 0], [-1, 0, 1, 0], [1, 1, 0, n - 3], [0, 0, 1, n - 4]], dtype=np.int64)


def near_extremal_quotient_matrix(n: int) -> np.ndarray:
    """Equitable quotient of the near-extremal graph (canonical partition)."""
    _require_order(n, 5)
    return np.array([[0, -1, 2, 0], [-1, 0, 2, 0], [1, 1, 0, n - 4], [0, 0, 2, n - 5]], dtype=np.int64)


# tag -> (graph constructor, minimum order), in the order the tags are listed
_FAMILIES = {
    "extremal": (extremal_graph, 5),
    "near-extremal": (near_extremal_graph, 5),
    "kn+": (lambda n: complete_signed(n, 1), 1),
    "kn-": (lambda n: complete_signed(n, -1), 1),
}
FAMILY_TAGS = tuple(_FAMILIES)
# alternate labels commonly used for the two extremal families
FAMILY_ALIASES = {"gamma1": "extremal", "gamma2": "near-extremal"}


@dataclass(frozen=True)
class FamilySpec:
    """A named family member: tag plus order."""

    tag: str
    n: int

    def __post_init__(self):
        if self.tag not in _FAMILIES:
            raise ValueError(f"unknown family {self.tag!r}, expected one of {FAMILY_TAGS}")
        minimum = _FAMILIES[self.tag][1]
        if self.n < minimum:
            raise ValueError(f"family {self.tag!r} requires n >= {minimum}, got {self.n}")

    def build(self) -> SignedGraph:
        return _FAMILIES[self.tag][0](self.n)
