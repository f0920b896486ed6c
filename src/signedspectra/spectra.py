"""Numerical and exact spectra of signed adjacency matrices.

The numerical path is LAPACK's symmetric eigensolver (``np.linalg.eigh``:
full spectrum plus eigenvectors); the exact path computes characteristic
polynomials over arbitrary-precision integers, an independent oracle
against which every numerical quantity can be cross-checked.

The index of a signed graph is its largest eigenvalue.  Note that this is
not the spectral radius: the all-negative complete graph on n vertices has
index 1 but spectral radius n - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SignedGraph
from .polynomial import IntPolynomial, largest_real_root, real_roots, root_multiplicity_exact
from .switching import switch

__all__ = [
    "SpectrumReport",
    "eigenvalues_sym",
    "index",
    "spectral_radius",
    "char_poly_exact",
    "char_poly_of_int_matrix",
    "root_multiplicity_exact",
    "rayleigh",
    "nonneg_eigenvector_form",
    "VertexPartition",
    "QuotientResult",
    "quotient_matrix",
    "check_quotient_containment",
    "c4free_bound_check",
]


@dataclass(frozen=True)
class SpectrumReport:
    """Full symmetric eigensolve result.

    eigenvalues are sorted descending; lambda1 is the first entry (the
    index); x is a unit eigenvector for lambda1 with its largest-magnitude
    entry nonnegative (ties to the lowest index); residual is ||A x -
    lambda1 x||.
    """

    eigenvalues: np.ndarray
    lambda1: float
    x: np.ndarray
    residual: float


def eigenvalues_sym(M) -> SpectrumReport:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Rejects non-square, empty and non-symmetric input (max asymmetry above
    1e-12).
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise ValueError("empty matrix has no spectrum")
    if float(np.abs(A - A.T).max(initial=0.0)) > 1e-12:
        raise ValueError("matrix is not symmetric")

    w, V = np.linalg.eigh(A)
    eigenvalues = w[::-1].copy()
    x = V[:, -1].copy()
    k = int(np.argmax(np.abs(x)))
    if x[k] < 0:
        x = -x
    lambda1 = float(eigenvalues[0])
    residual = float(np.linalg.norm(A @ x - lambda1 * x))
    return SpectrumReport(eigenvalues=eigenvalues, lambda1=lambda1, x=x, residual=residual)


def index(g: SignedGraph) -> float:
    """Largest adjacency eigenvalue of g."""
    return eigenvalues_sym(g.adjacency_matrix()).lambda1


def spectral_radius(g: SignedGraph) -> float:
    """Largest absolute adjacency eigenvalue (not the index in general)."""
    ev = eigenvalues_sym(g.adjacency_matrix()).eigenvalues
    return float(np.abs(ev).max())


def rayleigh(M, y) -> float:
    """Rayleigh quotient y'My / y'y; never exceeds the top eigenvalue."""
    A = np.asarray(M, dtype=float)
    v = np.asarray(y, dtype=float)
    nv = float(v @ v)
    if nv == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector")
    return float(v @ A @ v) / nv


# -- exact characteristic polynomials ----------------------------------------


def _charpoly_recurrence(rows_apply, n: int) -> IntPolynomial:
    """Faddeev-LeVerrier over Python ints.

    rows_apply(M) must return the exact integer matrix A @ M for the fixed
    matrix A.  Trace divisions in the recurrence are exact for integer
    matrices; this is asserted.
    """
    M = np.zeros((n, n), dtype=object)
    for i in range(n):
        M[i, i] = 1
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        AM = rows_apply(M)
        tr = 0
        for i in range(n):
            tr += AM[i, i]
        c, r = divmod(-tr, k)
        if r != 0:
            raise AssertionError("non-integral trace step in exact recurrence")
        coeffs[n - k] = c
        M = AM
        for i in range(n):
            M[i, i] += c
    return IntPolynomial(coeffs)


def char_poly_exact(g: SignedGraph) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - A(g)).

    Adjacency entries are in {-1, 0, +1}, so each step of the recurrence is
    a signed sum of matrix rows; no big-integer multiplications occur.
    """
    n = g.n
    A = g.adjacency_matrix()
    pos = [np.flatnonzero(A[i] == 1) for i in range(n)]
    neg = [np.flatnonzero(A[i] == -1) for i in range(n)]
    zero_row = np.zeros(n, dtype=object)

    def apply(M: np.ndarray) -> np.ndarray:
        AM = np.empty((n, n), dtype=object)
        for i in range(n):
            p, q = pos[i], neg[i]
            if len(p):
                row = M[p].sum(axis=0)
                if len(q):
                    row = row - M[q].sum(axis=0)
            elif len(q):
                row = -M[q].sum(axis=0)
            else:
                row = zero_row
            AM[i] = row
        return AM

    return _charpoly_recurrence(apply, n)


def char_poly_of_int_matrix(M) -> IntPolynomial:
    """Exact char poly of a (possibly non-symmetric) integer matrix."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.equal(np.asarray(A, dtype=float), np.round(np.asarray(A, dtype=float))).all():
        raise ValueError("matrix entries must be integers")
    n = A.shape[0]
    Aobj = np.array([[int(A[i, j]) for j in range(n)] for i in range(n)], dtype=object)

    def apply(Mk: np.ndarray) -> np.ndarray:
        return Aobj @ Mk

    return _charpoly_recurrence(apply, n)


# -- leading-eigenvector sign normalization -----------------------------------


def nonneg_eigenvector_form(g: SignedGraph) -> tuple[SignedGraph, SpectrumReport]:
    """Switch g so its leading eigenvector becomes entrywise nonnegative.

    Switching at U = {v : x_v < 0} conjugates the adjacency matrix by the
    diagonal sign matrix of x, so the switched graph is cospectral with g
    and its leading eigenvector is |x| up to solver noise.  With a
    degenerate top eigenvalue only the computed eigenvector is normalized.
    """
    if g.n == 0:
        raise ValueError("empty graph has no spectrum")
    report = eigenvalues_sym(g.adjacency_matrix())
    U = frozenset(int(v) for v in np.flatnonzero(report.x < 0.0))
    if not U:
        return g, report
    switched = switch(g, U)
    return switched, eigenvalues_sym(switched.adjacency_matrix())


# -- equitable partitions and quotient matrices --------------------------------


@dataclass(frozen=True)
class VertexPartition:
    """Ordered partition of 0..n-1 into nonempty blocks (exact cover)."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [v for blk in self.blocks for v in blk]
        if not flat:
            raise ValueError("partition must have at least one block")
        if any(len(blk) == 0 for blk in self.blocks):
            raise ValueError("blocks must be nonempty")
        if len(set(flat)) != len(flat):
            raise ValueError("blocks must be pairwise disjoint")
        if set(flat) != set(range(len(flat))):
            raise ValueError("blocks must cover 0..n-1 exactly")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @classmethod
    def of(cls, *blocks: tuple[int, ...] | list[int]) -> "VertexPartition":
        return cls(tuple(tuple(b) for b in blocks))


@dataclass(frozen=True)
class QuotientResult:
    """Either the equitable quotient matrix or the first violation found.

    A violation is (block_i, block_j, row_vertex): the row sums of block
    (i, j) are not constant and row_vertex differs from the block's first
    row.
    """

    matrix: np.ndarray | None
    violation: tuple[int, int, int] | None

    @property
    def is_equitable(self) -> bool:
        return self.matrix is not None


def quotient_matrix(M, partition: VertexPartition) -> QuotientResult:
    """Block row-sum quotient of M under the partition, if equitable.

    Returns the k x k integer matrix of constant block row sums when every
    block pair has them, otherwise the violating (i, j, row) witness.
    """
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if partition.n != A.shape[0]:
        raise ValueError(
            f"partition covers {partition.n} vertices, matrix has {A.shape[0]}"
        )
    k = partition.k
    Q = np.zeros((k, k), dtype=A.dtype)
    for i, bi in enumerate(partition.blocks):
        for j, bj in enumerate(partition.blocks):
            sums = A[np.ix_(bi, bj)].sum(axis=1)
            if np.any(sums != sums[0]):
                bad = int(np.flatnonzero(sums != sums[0])[0])
                return QuotientResult(matrix=None, violation=(i, j, bi[bad]))
            Q[i, j] = sums[0]
    return QuotientResult(matrix=Q, violation=None)


def check_quotient_containment(M, Q, tol: float = 1e-8) -> bool:
    """True iff every eigenvalue of Q appears in M's spectrum within tol.

    Q is in general not symmetric, so its eigenvalues come from exact real
    roots of its integer characteristic polynomial; an equitable quotient
    of a symmetric matrix is similar to a symmetric matrix, hence all of
    its eigenvalues are real (this is asserted).
    """
    from .polynomial import _squarefree_part  # internal helper

    p = char_poly_of_int_matrix(Q)
    roots = real_roots(p, tol=min(tol, 1e-12))
    if len(roots) != len(_squarefree_part(p)) - 1:
        raise ValueError("quotient matrix has non-real eigenvalues")
    ev = eigenvalues_sym(M).eigenvalues
    return all(float(np.min(np.abs(ev - r))) <= tol for r in roots)


@lru_cache(maxsize=None)
def _parity_roots(n: int) -> tuple[float, float]:
    """Largest roots of the odd/even C4-free bound polynomials at order n."""
    odd_root = 0.5 * (1.0 + math.sqrt(4.0 * n - 3.0))
    even_root = largest_real_root(IntPolynomial([1, -(n - 1), -1, 1]))
    return odd_root, even_root


def c4free_bound_check(G: SignedGraph, lam: float, tol: float = 1e-9):
    """Evaluate the order-parity spectral bounds for C4-free graphs.

    A C4-free (unsigned) graph of order n has top eigenvalue at most the
    largest root of x^2 - x - (n-1) when n is odd and of
    x^3 - x^2 - (n-1)x + 1 when n is even; equivalently the polynomial is
    <= 0 at lam once the graph has any edge (lam >= 1 then exceeds the
    cubic's middle root, which lies below 1).  The root form also covers
    the edgeless graph, where the cubic is positive at lam = 0.  Returns
    (odd_ok, even_ok, applicable_ok) with slack tol, since equality is
    attained by extremal graphs.
    """
    n = G.n
    odd_root, even_root = _parity_roots(n)
    odd_ok = lam <= odd_root + tol
    even_ok = lam <= even_root + tol
    applicable = odd_ok if n % 2 == 1 else even_ok
    return odd_ok, even_ok, applicable
