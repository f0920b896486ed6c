"""Numerical and exact spectra of signed adjacency matrices.

The numerical path is LAPACK's symmetric eigensolver (``np.linalg.eigh``:
full spectrum plus eigenvectors); the exact path computes characteristic
polynomials over arbitrary-precision integers, an independent oracle
against which every numerical quantity can be cross-checked.  The C4-free
bound check uses the exact path alone: it compares largest roots exactly.

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
from .polynomial import IntPolynomial, _real_roots, compare_largest_real_roots, root_multiplicity_exact
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

    Rejects non-square, empty, non-finite and non-symmetric input (max
    asymmetry above 1e-12).  NaN fails every comparison, so it would pass
    the symmetry test; it is refused first.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise ValueError("empty matrix has no spectrum")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a NaN or infinite entry")
    if float(np.abs(A - A.T).max(initial=0.0)) > 1e-12:
        raise ValueError("matrix is not symmetric")

    return _report(A, *np.linalg.eigh(A))


def _report(A: np.ndarray, w: np.ndarray, V: np.ndarray) -> SpectrumReport:
    """The SpectrumReport of the float matrix A from its ``np.linalg.eigh`` output (w, V)."""
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
    if not (np.isfinite(A).all() and np.isfinite(v).all()):
        raise ValueError("matrix or vector has a NaN or infinite entry")
    nv = float(v @ v)
    if nv == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector")
    return float(v @ A @ v) / nv


# -- exact characteristic polynomials ----------------------------------------
#
# Faddeev-LeVerrier, M_1 = I, c_{n-k} = -tr(A M_k) / k, M_{k+1} = A M_k + c_{n-k} I,
# kept as B_k = A M_k: B_1 = A and B_{k+1} = A (B_k + c_{n-k} I), c added to B_k's
# diagonal in place: one (primes, n, n) float64 product per step, modulo a few
# primes p just below 2^20 at once; p > n makes every k invertible mod p.  The
# coefficients are rebuilt by CRT with symmetric residues.
#
# Reduction is deferred (Dumas, Giorgi and Pernet, "Dense linear algebra over
# word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 35(3), 2008).
# A is kept as symmetric residues, |A| <= a (a <= p / 2, and a = 1 for a signed
# adjacency matrix, which is its own residue), and b is a proven bound on |B_k|.
# Each trace is reduced on its own, in Python integers, so c lies in [0, p).  Every
# partial sum of the trace is then at most n b <= a n b, and of the product at most
# a ((n - 1) b + b + p) = a (n b + p), which bounds B_{k+1} in turn.  B_k is reduced
# into [0, p] (b = p) first whenever a (n b + p) could reach 2^52, so no float64
# product, trace or _mod argument reaches 2^52 and float64 arithmetic (BLAS
# included) is exact; right after a reduction a (n p + p) <= (n + 1) p^2 < 2^52
# below order 4096.  A graph of order 7 is never reduced, and one of order 40 six
# times in 40 steps.

_PRIME_CEILING = 1 << 20
_EXACT = 1 << 52  # float64 integers below this add and multiply exactly here
# every prime set is a prefix of the descending primes below 2^20, so one table of
# inverses this large serves every signed graph up to order 40 (7 primes at most)
_INVERSE_PRIMES, _INVERSE_ORDERS = 8, 64


@lru_cache(maxsize=None)
def _primes(count: int) -> tuple[int, ...]:
    """The ``count`` largest primes below 2^20, descending."""
    out: list[int] = []
    c = _PRIME_CEILING - 1
    while len(out) < count:
        if all(c % d for d in range(3, math.isqrt(c) + 1, 2)):
            out.append(c)
        c -= 2
    return tuple(out)


@lru_cache(maxsize=1)  # one table at a time: a table per prime set and order would pile up
def _inverses(count: int, orders: int) -> tuple[tuple[int, ...], ...]:
    """``[k - 1][i]`` is the inverse of k modulo ``_primes(count)[i]``, for k = 1..orders."""
    return tuple(tuple(pow(k, -1, p) for p in _primes(count)) for k in range(1, orders + 1))


def _coefficient_bound(A: np.ndarray) -> int:
    """Hadamard bound on every coefficient of det(xI - A).

    c_{n-k} is a signed sum of the C(n, k) principal k x k minors, and each
    minor is at most R^k in absolute value, where R^2 is the largest squared
    row norm of A; this holds for any integer matrix.
    """
    n = A.shape[0]
    r2 = int((A * A).sum(axis=1).max())
    R = math.isqrt(r2)
    R += R * R < r2
    return max(math.comb(n, k) * R**k for k in range(n + 1))


def _mod(X: np.ndarray, P: np.ndarray, P_inv: np.ndarray) -> np.ndarray:
    """X mod P in [0, P] for float integers |X| < 2^52 of either sign.

    X * (1/P) is within |X| * 2^-52 / P < 1 / P of X / P, and X / P is an
    integer or at least 1 / P from one, so its floor is the true quotient,
    or one less when P divides X (the result is then P, a valid residue).
    np.fmod gives [0, P) only for X >= 0 and is many times slower.  The
    four passes write one fresh array, never X.
    """
    out = X * P_inv
    np.floor(out, out)
    out *= P
    return np.subtract(X, out, out)


def _char_poly_multimodular(A: np.ndarray) -> IntPolynomial:
    """det(xI - A) for a square int64 or Python-int object array A.

    Enough primes for the Hadamard bound, plus one spare prime whose
    residues must agree with the CRT reconstruction.
    """
    n = A.shape[0]
    if n == 0:
        return IntPolynomial([1])
    if (n + 1) * (_PRIME_CEILING - 1) ** 2 >= _EXACT:
        raise ValueError(f"order {n} is too large for exact float64 products modulo primes below 2^20")
    need = 2 * _coefficient_bound(A)  # symmetric residues need a modulus above it
    primes = _primes(need.bit_length() // 19 + 2)
    if primes[-1] < 1 << 19:  # the count assumes primes above 2^19, hence above n
        raise ValueError("matrix entries too large for the primes between 2^19 and 2^20")
    modulus, used = 1, 0
    while modulus <= need:
        modulus *= primes[used]
        used += 1
    primes = primes[: used + 1]
    m = len(primes)

    P3 = np.array(primes, dtype=float)[:, None, None]
    P3_inv = 1.0 / P3
    inverses = _inverses(max(m, _INVERSE_PRIMES), max(n, _INVERSE_ORDERS))  # zip takes the first m
    half = np.array([p // 2 for p in primes], dtype=A.dtype)[:, None, None]
    Ap = ((A + half) % (2 * half + 1) - half).astype(float)  # symmetric residues, |Ap| <= p / 2
    a, p = max(int(np.abs(Ap).max()), 1), primes[0]
    B, b = Ap.copy(), a
    residues = [[1] * m]  # per coefficient, from c_n down
    for k in range(1, n + 1):
        if a * (n * b + p) >= _EXACT:  # bounds this step's trace and product (see above)
            B, b = _mod(B, P3, P3_inv), p
        diagonal = B.reshape(m, n * n)[:, :: n + 1]  # a view: B is contiguous
        traces = diagonal.sum(1).tolist()
        c = [int(-t) * r % q for t, r, q in zip(traces, inverses[k - 1], primes)]
        residues.append(c)
        if k < n:
            diagonal += np.array(c, dtype=float)[:, None]
            B, b = Ap @ B, a * (n * b + p)

    weights = [(modulus // q) * pow(modulus // q, -1, q) for q in primes[:-1]]
    coeffs = []
    for *rs, spare in reversed(residues):
        x = sum(w * r for w, r in zip(weights, rs)) % modulus
        if x > modulus // 2:
            x -= modulus
        if (x - spare) % primes[-1]:
            raise ArithmeticError("multimodular char poly disagrees with its check prime")
        coeffs.append(x)
    return IntPolynomial(coeffs)


def char_poly_exact(g: SignedGraph) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - A(g)).

    Faddeev-LeVerrier modulo a few primes below 2^20 in float64, rebuilt by
    CRT (see ``char_poly_of_int_matrix``, which shares the kernel).
    """
    return _char_poly_multimodular(g.adjacency_matrix())


def char_poly_of_int_matrix(M) -> IntPolynomial:
    """Exact char poly det(xI - M) of a (possibly non-symmetric) integer matrix.

    Entries may be arbitrary-size integers; the number of primes grows with
    the Hadamard bound on the coefficients.
    """
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.equal(np.asarray(A, dtype=float), np.round(np.asarray(A, dtype=float))).all():
        raise ValueError("matrix entries must be integers")
    rows = np.empty(A.shape, dtype=object)
    rows[...] = [[int(x) for x in row] for row in A.tolist()]
    return _char_poly_multimodular(rows)


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
    A = g.adjacency_matrix().astype(float)
    return _nonneg_switch(g, A, eigenvalues_sym(A))[:2]


def _nonneg_switch(
    g: SignedGraph, A: np.ndarray, report: SpectrumReport
) -> tuple[SignedGraph, SpectrumReport, np.ndarray]:
    """(h, its report, its float sign matrix) for g switched at U = {v : x_v < 0},
    ``A`` being g's float sign matrix and ``report`` its spectrum.

    If the switching leaves g unchanged (U empty, or whole components), the
    arguments come back: a re-solve of the same matrix would give the same
    bits.  Otherwise h's rows are unpacked once, for its matrix and its solve.
    """
    h = switch(g, np.flatnonzero(report.x < 0.0).tolist())
    if h == g:
        return g, report, A
    A = h.adjacency_matrix().astype(float)
    return h, eigenvalues_sym(A), A


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
        raise ValueError(f"partition covers {partition.n} vertices, matrix has {A.shape[0]}")
    order = [v for blk in partition.blocks for v in blk]
    sizes = [len(blk) for blk in partition.blocks]
    owner, firsts = np.repeat(np.arange(partition.k), sizes), np.cumsum([0] + sizes[:-1])
    S = np.zeros((A.shape[0], partition.k), dtype=np.int64)
    S[order, owner] = 1  # the n x k 0/1 block indicator
    sums = (A @ S)[order]  # block row sums, one row per vertex in block order
    bad = sums != sums[firsts[owner]]
    if bad.any():  # the first violation by block, then column block, then row
        rows, cols = np.nonzero(bad)
        at = np.lexsort((rows, cols, owner[rows]))[0]
        return QuotientResult(matrix=None, violation=(int(owner[rows[at]]), int(cols[at]), order[rows[at]]))
    return QuotientResult(matrix=sums[firsts].astype(A.dtype), violation=None)


def check_quotient_containment(M, Q, tol: float = 1e-8) -> bool:
    """True iff every eigenvalue of Q appears in M's spectrum within tol.

    Q is in general not symmetric, so its eigenvalues come from exact real
    roots of its integer characteristic polynomial; an equitable quotient
    of a symmetric matrix is similar to a symmetric matrix, hence all of
    its eigenvalues are real (this is checked).  Raises ValueError when tol
    is not finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    roots, distinct = _real_roots(char_poly_of_int_matrix(Q), min(tol, 1e-12))
    if len(roots) != distinct:
        raise ValueError("quotient matrix has non-real eigenvalues")
    ev = eigenvalues_sym(M).eigenvalues
    return all(float(np.min(np.abs(ev - r))) <= tol for r in roots)


def c4free_bound_check(g: SignedGraph) -> bool:
    """True iff the index of g is at most the C4-free bound of its order n.

    A C4-free graph of order n has index at most the largest root of
    x^2 - x - (n-1) when n is odd (Nikiforov 2007) and of
    x^3 - x^2 - (n-1)x + 1 when n is even (Zhai and Wang 2012).  The two
    largest roots are compared exactly, with ``compare_largest_real_roots``
    on the characteristic polynomial of g, because equality is attained at
    every order n >= 2 (at n = 5 by two triangles sharing a vertex).
    """
    n = g.n
    bound = IntPolynomial([-(n - 1), -1, 1] if n % 2 else [1, -(n - 1), -1, 1])
    return compare_largest_real_roots(char_poly_exact(g), bound) <= 0
