"""Index-increasing perturbation moves with Rayleigh certificates.

Each move edits a signed graph and reports a closed-form lower bound on the
index gain: with x a unit leading eigenvector of the host and A* the edited
adjacency matrix, the Rayleigh principle gives

    lambda1(result) >= x' A* x = lambda1(host) + delta,

where delta = x' (A* - A) x has a closed form per move kind (2 x_u x_v for
adding a positive edge, and so on).  When x is entrywise nonnegative every
move below has delta >= 0, which is what makes a greedy ascent on these
moves monotone.

One generator, ``_operand_columns``, lists the candidates of both
:func:`candidate_moves` and each ascent step, per move kind in operand
order; for a step, two masks of exact walk counts (below) leave out every
addition and rotation that would close a negative 4-cycle in the same
pass.  One array expression per move kind scores the rest, one stable sort
on the delta ranks them, and a candidate becomes a ``(kind, operands)``
pair only when the step reaches it: most steps accept one of the first few.

The greedy ascent's state is its host SignedGraph, the host's spectrum and
the host's sign matrix S as floats, which an accepted move's edited copy
carries to the next step.  It keeps the host unbalanced and free of
negative 4-cycles, skipping the checks whose answer is known:

- adding a positive edge (u, v) removes no cycle, so the host's negative
  cycle survives.  A new negative 4-cycle runs through the new edge, as
  the host has none, so one closes iff some 3-path from u to v is
  negative.  u and v are not adjacent, so every 3-walk between them is a
  path, and |S|^3[u, v] - S^3[u, v] is twice the number of negative ones;
- rotating an edge p-o of sign s to p-t closes a negative 4-cycle iff
  some 3-path from t to p of sign -s does not end with the edge o-p.  t
  and p are not adjacent, so every 3-walk between them is a path:
  |S|^3[t, p] - s S^3[t, p] is twice the number of sign -s, and
  |S|^2[t, o] - S^2[t, o] twice the number that end with o-p, which are
  the negative 2-paths from t to o;
- deleting a negative edge off the host's least shortest negative cycle
  keeps that cycle, and a deletion creates no 4-cycle: neither test;
- negating a pair of negative edges or rotating an edge can leave the
  host balanced, and a negation can close a negative 4-cycle: the step
  tests balance by sign propagation on the bitsets of
  ``host._edited(edits)``, and a negation's negative 4-cycles there at the
  edited vertices.

The generator's masks, with D2 = |S|^2 - S^2 and D3 = |S|^3 - S^3 exact
integers in floats, keep an addition (u, v) iff D3[u, v] == 0 and a
rotation (p, o, t) of a positive edge iff D3[t, p] <= D2[t, o].  The
solve that accepts a move is the next host's spectrum, and the accepted
edits switched to nonnegative-eigenvector form by ``switching.switch`` are
the next host, unpacked once more only if the switch changes the graph.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import SignedGraph
from .cycles import _c4_negative_free_bits, is_ck_negative_free, shortest_negative_cycle
from .spectra import SpectrumReport, _nonneg_switch, _report, eigenvalues_sym
from .switching import _balanced_bits

__all__ = [
    "MoveKind",
    "Move",
    "MoveCertificate",
    "ConstraintViolation",
    "apply_move",
    "candidate_moves",
    "AscentResult",
    "greedy_ascent",
    "random_unbalanced_c4free",
]

STRICT_GAIN = 1e-12
SAMPLE_EDGE_PROB = 0.35
SAMPLE_NEG_PROB = 0.3
SAMPLE_TRIALS = 100000


class MoveKind(enum.Enum):
    ADD_POSITIVE_EDGE = "add_positive_edge"
    DELETE_EDGE = "delete_edge"
    NEGATE_EDGE_PAIR = "negate_edge_pair"
    ROTATE_EDGE = "rotate_edge"


@dataclass(frozen=True)
class Move:
    """One perturbation move; operands depend on the kind.

    ADD_POSITIVE_EDGE / DELETE_EDGE carry one vertex pair.
    NEGATE_EDGE_PAIR carries two distinct negative edges (signs flip to +).
    ROTATE_EDGE carries (pivot, old, new): edge (pivot, old) detaches from
    old and reattaches at the non-adjacent vertex new, keeping its sign.
    """

    kind: MoveKind
    operands: tuple

    @classmethod
    def add_positive_edge(cls, u: int, v: int) -> "Move":
        return cls(MoveKind.ADD_POSITIVE_EDGE, ((min(u, v), max(u, v)),))

    @classmethod
    def delete_edge(cls, u: int, v: int) -> "Move":
        return cls(MoveKind.DELETE_EDGE, ((min(u, v), max(u, v)),))

    @classmethod
    def negate_edge_pair(cls, e1: tuple[int, int], e2: tuple[int, int]) -> "Move":
        a = (min(e1), max(e1))
        b = (min(e2), max(e2))
        if a > b:
            a, b = b, a
        return cls(MoveKind.NEGATE_EDGE_PAIR, (a, b))

    @classmethod
    def rotate_edge(cls, pivot: int, old: int, new: int) -> "Move":
        return cls(MoveKind.ROTATE_EDGE, (pivot, old, new))


@dataclass(frozen=True)
class MoveCertificate:
    """Rayleigh certificate for one applied move."""

    host_lambda1: float
    result_lambda1: float
    rayleigh_delta: float
    still_unbalanced: bool
    still_c4_negative_free: bool

    @property
    def preserves_constraints(self) -> bool:
        return self.still_unbalanced and self.still_c4_negative_free


class ConstraintViolation(ValueError):
    """Raised in strict mode when a move breaks a preserved constraint."""


def _edits(g, move: Move) -> tuple[tuple[int, int, int], ...]:
    """The pairs ``move`` changes, as ``(u, v, new sign)``, 0 for a deleted edge.

    The one definition of every move's edit and of its operand checks.
    """
    kind, ops = move.kind, move.operands
    if kind is MoveKind.ADD_POSITIVE_EDGE:
        (u, v), = ops
        if g.sign(u, v):
            raise ValueError(f"cannot add ({u},{v}): edge already present")
        return ((u, v, 1),)
    if kind is MoveKind.DELETE_EDGE:
        (u, v), = ops
        if not g.sign(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        return ((u, v, 0),)
    if kind is MoveKind.NEGATE_EDGE_PAIR:
        (u, v), (w, t) = ops
        if (u, v) == (w, t):
            raise ValueError("edge pair must be two distinct edges")
        if g.sign(u, v) != -1 or g.sign(w, t) != -1:
            raise ValueError("both edges of the pair must be present and negative")
        return ((u, v, 1), (w, t, 1))
    pivot, old, new = ops
    s = g.sign(pivot, old)
    if s == 0:
        raise ValueError(f"rotation needs edge ({pivot},{old}) present")
    if new == pivot or new == old:
        raise ValueError("rotation target must be a third vertex")
    if g.sign(pivot, new):
        raise ValueError(f"rotation target ({pivot},{new}) is already an edge")
    return ((pivot, old, 0), (pivot, new, s))


def _edited_graph(g: SignedGraph, move: Move) -> SignedGraph:
    # the operands as Python ints: the unchecked rows must not take NumPy integers
    return g._edited([(*g._check_pair(g.n, u, v), s) for u, v, s in _edits(g, move)])


def _deltas(kind: MoveKind, s, x, c):
    """x' (A* - A) x of ``kind``'s moves, elementwise over the operand columns ``c``.

    ``c`` holds a move's operands flattened (a vertex pair, two pairs, or
    pivot, old, new) and ``s`` the host's sign of the pair ``(c[0], c[1])``,
    the edge a deletion or rotation takes.  Scalars or arrays alike: each
    formula is one fixed sequence of IEEE operations, so an array of deltas
    has the bits of the deltas computed one at a time.
    """
    if kind is MoveKind.ADD_POSITIVE_EDGE:
        return 2.0 * x[c[0]] * x[c[1]]
    if kind is MoveKind.DELETE_EDGE:
        return -2.0 * s * x[c[0]] * x[c[1]]
    if kind is MoveKind.NEGATE_EDGE_PAIR:
        return 4.0 * (x[c[0]] * x[c[1]] + x[c[2]] * x[c[3]])
    return 2.0 * s * x[c[0]] * (x[c[2]] - x[c[1]])


def _closed_form_delta(g: SignedGraph, kind: MoveKind, ops: tuple, x) -> float:
    """x' (A* - A) x for the move ``(kind, ops)`` on g."""
    c = ops if kind is MoveKind.ROTATE_EDGE else sum(ops, ())
    return float(_deltas(kind, g.sign(c[0], c[1]), x, c))


def apply_move(
    g: SignedGraph,
    move: Move,
    strict: bool = False,
    host_report: SpectrumReport | None = None,
) -> tuple[SignedGraph, MoveCertificate]:
    """Apply a move and certify the index change.

    The certificate's ``rayleigh_delta`` is evaluated at the host's leading
    eigenvector (``host_report`` may be passed to avoid recomputing it).
    In strict mode a result that is balanced or has a negative 4-cycle
    raises ConstraintViolation.
    """
    if host_report is None:
        host_report = eigenvalues_sym(g.adjacency_matrix())
    delta = _closed_form_delta(g, move.kind, move.operands, host_report.x)
    result = _edited_graph(g, move)
    unbalanced = not _balanced_bits(result._pos, result._neg)
    c4free = is_ck_negative_free(result, 4)
    if strict and not (unbalanced and c4free):
        raise ConstraintViolation(
            f"{move.kind.value} at {move.operands} leaves "
            f"unbalanced={unbalanced}, c4_negative_free={c4free}"
        )
    cert = MoveCertificate(
        host_lambda1=host_report.lambda1,
        result_lambda1=eigenvalues_sym(result.adjacency_matrix()).lambda1,
        rayleigh_delta=delta,
        still_unbalanced=unbalanced,
        still_c4_negative_free=c4free,
    )
    return result, cert


def candidate_moves(g: SignedGraph) -> list[Move]:
    """All single moves considered by the greedy ascent, by kind, then in operand order.

    Additions over all non-adjacent pairs; deletions of negative edges not
    on the least shortest negative cycle (the witness of
    :func:`shortest_negative_cycle`); sign flips of pairs of negative
    edges; rotations (pivot, old, new) of positive edges to non-adjacent targets.
    """
    snc = shortest_negative_cycle(g)
    protected = set(snc.edges()) if snc is not None else set()
    moves = []
    for kind, cols in zip(MoveKind, _operand_columns(g.adjacency_matrix())):
        for c in zip(*(col.tolist() for col in cols)):
            ops = _operands(kind, c)
            if kind is not MoveKind.DELETE_EDGE or ops[0] not in protected:
                moves.append(Move(kind, ops))
    return moves


def _operand_columns(A: np.ndarray, walk_counts: bool = False) -> list[tuple[np.ndarray, ...]]:
    """Per move kind, in ``MoveKind`` order, the operand columns of its candidates.

    ``A`` is the host's sign matrix.  Entry i of a kind's columns is the
    flattened operands (as in :func:`_deltas`) of the kind's i-th move in
    :func:`candidate_moves`'s order; every negative edge comes out as a
    deletion, and the caller drops those on the least shortest negative
    cycle.  Every kind comes out in operand order: rotations run over the
    positive edges both ways, by (pivot, old), targets ascending.

    With ``walk_counts``, ``A`` being the float sign matrix of a host with
    no negative 4-cycle, the masks of the module docstring leave out every
    addition and rotation that would close one.
    """
    upper = _above_diagonal(len(A))  # the pairs u < v, row by row
    free = A == 0  # the non-adjacent pairs u != v
    free.flat[:: len(A) + 1] = False
    pivot, old = (A > 0).nonzero()
    add, rot = upper & free, free[pivot]  # rot[arc, new], one row per positive arc
    if walk_counts:
        B = np.abs(A)
        A2, B2 = A @ A, B @ B
        D2, D3 = B2 - A2, B2 @ B - A2 @ A  # symmetric, so D3[p] is D3[:, p]
        add &= D3 == 0
        rot &= D3[pivot] <= D2[old]
    nu, nv = (upper & (A < 0)).nonzero()
    first, second = _above_diagonal(len(nu)).nonzero()
    arc, new = rot.nonzero()
    return [
        add.nonzero(),
        (nu, nv),
        (nu[first], nv[first], nu[second], nv[second]),
        (pivot[arc], old[arc], new),
    ]


@functools.lru_cache(maxsize=64)
def _above_diagonal(m: int) -> np.ndarray:
    """The read-only m x m mask of the pairs i < j, built once per size."""
    mask = ~np.tri(m, dtype=bool)
    mask.flags.writeable = False
    return mask


def _operands(kind: MoveKind, c) -> tuple:
    """The ``Move`` operands of the flattened operand row ``c`` of ``kind``."""
    if kind is MoveKind.NEGATE_EDGE_PAIR:
        return ((c[0], c[1]), (c[2], c[3]))
    if kind is MoveKind.ROTATE_EDGE:
        return (c[0], c[1], c[2])
    return ((c[0], c[1]),)


def _ranked_candidates(S: np.ndarray, x: np.ndarray) -> Iterator[tuple[MoveKind, tuple, float]]:
    """``(kind, operands, delta)`` of every candidate that the walk counts of
    :func:`_operand_columns` keep, best first, decoded as reached.

    ``S`` is the host's float sign matrix.  The order is that of the keys
    ``(-delta, kind.value, operands)``: the blocks come in ``MoveKind``
    order, whose ``.value`` strings sort in enum order, each block in
    operand order, so one stable sort on ``-delta`` alone keeps equal
    deltas, ``-0.0`` and ``0.0`` among them, in kind and operand order.
    Every kind's pair ``(c[0], c[1])`` has one sign in S: none for an
    addition, negative for a deletion or a negation, positive for a rotation.
    """
    kinds = tuple(MoveKind)
    blocks = _operand_columns(S, walk_counts=True)
    delta = np.concatenate(
        [_deltas(kind, s, x, c) for kind, s, c in zip(kinds, (0.0, -1.0, -1.0, 1.0), blocks)]
    )
    start = [sum(len(c[0]) for c in blocks[:r]) for r in range(len(blocks))]
    for i in (-delta).argsort(kind="stable").tolist():
        r = sum(i >= j for j in start) - 1  # the last block that starts at or before i
        yield kinds[r], _operands(kinds[r], [int(c[i - start[r]]) for c in blocks[r]]), float(delta[i])


def random_unbalanced_c4free(n: int, rng: random.Random) -> SignedGraph:
    """Sample an unbalanced signed graph with no negative C4.

    Each trial draws every pair in (u, v) order: one ``rng.random()`` for
    presence (below ``SAMPLE_EDGE_PROB``) and, for a present edge, one for
    its sign (negative below ``SAMPLE_NEG_PROB``).  A drawn edge that would
    close a negative 4-cycle with the edges kept so far is skipped, its
    draws still consumed, so every trial is negative-C4-free by
    construction and only a balanced trial is rejected.  A trial whose
    whole draw has no negative C4 skips nothing.

    This is the negative-C4-free process over a fixed pair order, not
    G(n, SAMPLE_EDGE_PROB) conditioned on having no negative C4: an edge
    is kept when it closes nothing with earlier pairs, so the result is
    biased towards early pairs.
    """
    if n < 3:
        raise ValueError("need n >= 3 for an unbalanced graph")
    rand = rng.random
    pairs = [(u, v, 1 << u, 1 << v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(SAMPLE_TRIALS):
        pos = [0] * n
        neg = [0] * n
        for u, v, bu, bv in pairs:
            if rand() < SAMPLE_EDGE_PROB:
                s = -1 if rand() < SAMPLE_NEG_PROB else 1
                bits = neg if s < 0 else pos
                bits[u] |= bv
                bits[v] |= bu
                if not _c4_negative_free_bits(pos, neg, (u,)):
                    bits[u] ^= bv
                    bits[v] ^= bu
        if not _balanced_bits(pos, neg):
            return SignedGraph._wrap(n, pos, neg)
    raise RuntimeError(
        f"rejection sampling found no unbalanced graph of order {n} without a "
        f"negative 4-cycle in {SAMPLE_TRIALS} trials"
    )


@dataclass(frozen=True)
class AscentResult:
    """Final graph, index after each step (start first), applied moves and
    each applied move's closed-form Rayleigh delta at its host."""

    graph: SignedGraph
    trajectory: tuple[float, ...]
    applied: tuple[Move, ...]
    deltas: tuple[float, ...] = ()

    @property
    def steps(self) -> int:
        return len(self.applied)


def _keeps_constraints(host: SignedGraph, kind: MoveKind, edits) -> bool:
    """Whether a ``kind`` move that :func:`_ranked_candidates` yields leaves the
    host unbalanced with no negative C4; a deletion must also spare the least
    shortest negative cycle (not checked here).

    The walk counts already dropped every addition and rotation that closes a
    negative 4-cycle, and an addition or a deletion keeps the host's negative
    cycle, so only a negation and a rotation are tested.
    """
    if kind is MoveKind.ADD_POSITIVE_EDGE or kind is MoveKind.DELETE_EDGE:
        return True
    result = host._edited(edits)
    # one endpoint per re-signed pair: exact, as the host has no negative 4-cycle
    if kind is MoveKind.NEGATE_EDGE_PAIR and not _c4_negative_free_bits(
        result._pos, result._neg, {u for u, _, s in edits if s}
    ):
        return False
    return not _balanced_bits(result._pos, result._neg)


def greedy_ascent(n: int, seed: int, max_steps: int = 500) -> AscentResult:
    """Greedy index ascent over constraint-preserving moves.

    Starts from a random unbalanced graph with no negative C4, switches to
    nonnegative-eigenvector form each step, then tries candidate moves in
    order of decreasing closed-form delta (ties by kind, then operand
    order) and applies the first one that keeps the constraints and
    strictly increases the index by more than 1e-12.  Stops at a local
    maximum or after max_steps moves (0 or more; a negative count raises
    ValueError); the returned trajectory is strictly increasing.

    Each step generates its candidates in one array pass over the host's
    float sign matrix S: the operand generator of :func:`candidate_moves`
    plus two masks of exact walk counts, which leave out every addition
    and rotation that would close a negative 4-cycle: an addition (u, v)
    when some 3-path from u to v is negative, a rotation of the edge p-o to
    p-t when some 3-path from t to p of the opposite sign does not end
    with o-p (see the module docstring).  The kept candidates come in kind
    then operand order, so one stable sort on the delta ranks them by
    exactly that key.  Candidates are decoded one at a time as the step
    reaches them and decided on the host, its edited copies (the balance
    of a negation or a rotation, the negative 4-cycles of a negation) and
    an edited copy of S.  An accepted move's edits of the host are the
    next host, its solve that host's spectrum and its copy of S that
    host's S; only if the eigenvector has a negative entry whose switching
    changes the graph is the switched host unpacked, once, for its S and
    its solve.  A step finds the host's least shortest negative cycle,
    whose edges deletions may not take, when it first reaches one.
    """
    if n < 5:
        raise ValueError("ascent is defined for n >= 5")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    rng = random.Random(seed)
    host = random_unbalanced_c4free(n, rng)
    matrix = host.adjacency_matrix().astype(float)
    host, report, matrix = _nonneg_switch(host, matrix, eigenvalues_sym(matrix))
    trajectory = [report.lambda1]
    applied: list[Move] = []
    deltas: list[float] = []
    for _ in range(max_steps):
        accepted = None
        protected = None  # most steps accept a move before reaching any deletion
        for kind, ops, delta in _ranked_candidates(matrix, report.x):
            if kind is MoveKind.DELETE_EDGE:
                if protected is None:
                    # never None: every host is unbalanced
                    protected = set(shortest_negative_cycle(host).edges())
                if ops[0] in protected:
                    continue
            mv = Move(kind, ops)
            edits = _edits(host, mv)
            if not _keeps_constraints(host, kind, edits):
                continue
            A = matrix.copy()
            for u, v, s in edits:
                A[u, v] = A[v, u] = s
            w, V = np.linalg.eigh(A)
            if w[-1] > report.lambda1 + STRICT_GAIN:
                accepted = (A, w, V, mv, edits, delta)
                break
        if accepted is None:
            break
        A, w, V, mv, edits, delta = accepted
        applied.append(mv)
        deltas.append(delta)
        trajectory.append(float(w[-1]))
        host, report, matrix = _nonneg_switch(host._edited(edits), A, _report(A, w, V))
    return AscentResult(graph=host, trajectory=tuple(trajectory), applied=tuple(applied), deltas=tuple(deltas))
