"""Index-increasing perturbation moves with Rayleigh certificates.

Each move edits a signed graph and reports a closed-form lower bound on the
index gain: with x a unit leading eigenvector of the host and A* the edited
adjacency matrix, the Rayleigh principle gives

    lambda1(result) >= x' A* x = lambda1(host) + delta,

where delta = x' (A* - A) x has a closed form per move kind (2 x_u x_v for
adding a positive edge, and so on).  When x is entrywise nonnegative every
move below has delta >= 0, which is what makes a greedy ascent on these
moves monotone.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .core import SignedGraph
from .cycles import _c4_negative_free_bits, is_ck_negative_free, shortest_negative_cycle
from .spectra import SpectrumReport, eigenvalues_sym, nonneg_eigenvector_form
from .switching import is_balanced

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


def _edited_graph(g: SignedGraph, move: Move) -> SignedGraph:
    kind, ops = move.kind, move.operands
    if kind is MoveKind.ADD_POSITIVE_EDGE:
        (u, v), = ops
        if g.has_edge(u, v):
            raise ValueError(f"cannot add ({u},{v}): edge already present")
        return g.set_edge(u, v, 1)
    if kind is MoveKind.DELETE_EDGE:
        (u, v), = ops
        return g.remove_edge(u, v)
    if kind is MoveKind.NEGATE_EDGE_PAIR:
        (u, v), (w, t) = ops
        if (u, v) == (w, t):
            raise ValueError("edge pair must be two distinct edges")
        if g.sign(u, v) != -1 or g.sign(w, t) != -1:
            raise ValueError("both edges of the pair must be present and negative")
        return g.set_edge(u, v, 1).set_edge(w, t, 1)
    pivot, old, new = ops
    s = g.sign(pivot, old)
    if s == 0:
        raise ValueError(f"rotation needs edge ({pivot},{old}) present")
    if new == pivot or new == old:
        raise ValueError("rotation target must be a third vertex")
    if g.has_edge(pivot, new):
        raise ValueError(f"rotation target ({pivot},{new}) is already an edge")
    return g.remove_edge(pivot, old).set_edge(pivot, new, s)


def _closed_form_delta(g: SignedGraph, move: Move, x) -> float:
    kind, ops = move.kind, move.operands
    if kind is MoveKind.ADD_POSITIVE_EDGE:
        (u, v), = ops
        return float(2.0 * x[u] * x[v])
    if kind is MoveKind.DELETE_EDGE:
        (u, v), = ops
        return float(-2.0 * g.sign(u, v) * x[u] * x[v])
    if kind is MoveKind.NEGATE_EDGE_PAIR:
        (u, v), (w, t) = ops
        return float(4.0 * (x[u] * x[v] + x[w] * x[t]))
    pivot, old, new = ops
    return float(2.0 * g.sign(pivot, old) * x[pivot] * (x[new] - x[old]))


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
    delta = _closed_form_delta(g, move, host_report.x)
    result = _edited_graph(g, move)
    unbalanced = not is_balanced(result).balanced
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
    """All single moves considered by the greedy ascent, in operand order.

    Additions over all non-adjacent pairs; deletions of negative edges not
    on the shortest negative cycle; sign flips of pairs of negative edges;
    rotations of positive edges to non-adjacent targets.
    """
    out: list[Move] = []
    n = g.n
    present = g.edge_set()
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present:
                out.append(Move.add_positive_edge(u, v))
    snc = shortest_negative_cycle(g)
    protected = set(snc.edges()) if snc is not None else set()
    edges = g.edges()
    negatives = [(u, v) for u, v, s in edges if s < 0]
    for (u, v) in negatives:
        if (u, v) not in protected:
            out.append(Move.delete_edge(u, v))
    for i in range(len(negatives)):
        for j in range(i + 1, len(negatives)):
            out.append(Move.negate_edge_pair(negatives[i], negatives[j]))
    for u, v, s in edges:
        if s > 0:
            for pivot, old in ((u, v), (v, u)):
                for new in range(n):
                    if (
                        new != pivot
                        and new != old
                        and (min(pivot, new), max(pivot, new)) not in present
                    ):
                        out.append(Move.rotate_edge(pivot, old, new))
    return out


def random_unbalanced_c4free(n: int, rng: random.Random) -> SignedGraph:
    """Rejection-sample an unbalanced signed graph with no negative C4.

    Each trial draws every pair in (u, v) order: one ``rng.random()`` for
    presence (below ``SAMPLE_EDGE_PROB``) and, for a present edge, one for
    its sign (negative below ``SAMPLE_NEG_PROB``).  Negative-C4
    freeness is tested first, on neighbour bitsets filled while drawing;
    only a trial that passes becomes a SignedGraph and has its balance
    checked.  Both tests are pure, so their order changes neither the
    draws nor the returned graph.
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
                bits = neg if rand() < SAMPLE_NEG_PROB else pos
                bits[u] |= bv
                bits[v] |= bu
        if not _c4_negative_free_bits(pos, neg):
            continue
        table = {
            (u, v): 1 if pos[u] & bv else -1 for u, v, _, bv in pairs if (pos[u] | neg[u]) & bv
        }
        g = SignedGraph(n, table)
        if not is_balanced(g).balanced:
            return g
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


def greedy_ascent(n: int, seed: int, max_steps: int = 500) -> AscentResult:
    """Greedy index ascent over constraint-preserving moves.

    Starts from a random unbalanced graph with no negative C4, switches to
    nonnegative-eigenvector form each step, then tries candidate moves in
    order of decreasing closed-form delta (ties by operand order) and
    applies the first one that keeps the constraints and strictly increases
    the index by more than 1e-12.  Stops at a local maximum or after
    max_steps moves; the returned trajectory is strictly increasing.
    """
    if n < 5:
        raise ValueError("ascent is defined for n >= 5")
    rng = random.Random(seed)
    g = random_unbalanced_c4free(n, rng)
    g, report = nonneg_eigenvector_form(g)
    trajectory = [report.lambda1]
    applied: list[Move] = []
    deltas: list[float] = []
    for _ in range(max_steps):
        moves = candidate_moves(g)
        scored = sorted(
            ((-_closed_form_delta(g, mv, report.x), mv.kind.value, mv.operands, mv) for mv in moves)
        )
        accepted = None
        for neg_delta, _, _, mv in scored:
            result = _edited_graph(g, mv)
            if is_balanced(result).balanced or not is_ck_negative_free(result, 4):
                continue
            lam = eigenvalues_sym(result.adjacency_matrix()).lambda1
            if lam > report.lambda1 + STRICT_GAIN:
                accepted = (result, lam, mv, -neg_delta)
                break
        if accepted is None:
            break
        g, lam, mv, delta = accepted
        applied.append(mv)
        deltas.append(delta)
        trajectory.append(lam)
        g, report = nonneg_eigenvector_form(g)
    return AscentResult(
        graph=g, trajectory=tuple(trajectory), applied=tuple(applied), deltas=tuple(deltas)
    )
