import hashlib
import random

import pytest

from signedspectra import SignedGraph
from signedspectra.cycles import is_ck_negative_free, shortest_negative_cycle
from signedspectra.families import extremal_graph
from signedspectra.proofmoves import (
    STRICT_GAIN,
    ConstraintViolation,
    Move,
    MoveKind,
    _closed_form_delta,
    apply_move,
    candidate_moves,
    greedy_ascent,
    random_unbalanced_c4free,
)
from signedspectra.spectra import eigenvalues_sym, index, nonneg_eigenvector_form
from signedspectra.switching import is_balanced, switching_isomorphic

from conftest import random_signed_graph


def exact_form_delta(g, result, x):
    A = g.adjacency_matrix().astype(float)
    B = result.adjacency_matrix().astype(float)
    return float(x @ (B - A) @ x)


def test_add_edge_across_components():
    # two unbalanced triangles, no connection: join them positively
    table = {(0, 1): -1, (0, 2): 1, (1, 2): 1, (3, 4): -1, (3, 5): 1, (4, 5): 1}
    g = SignedGraph(6, table)
    g, rep = nonneg_eigenvector_form(g)
    result, cert = apply_move(g, Move.add_positive_edge(0, 3), host_report=rep)
    assert cert.rayleigh_delta >= -1e-15
    assert cert.result_lambda1 >= cert.host_lambda1 - 1e-9
    assert cert.preserves_constraints


def test_delete_negative_edge_off_the_shortest_cycle():
    # negative triangle plus a remote negative edge inside a positive block
    table = {(0, 1): -1, (0, 2): 1, (1, 2): 1, (2, 3): 1, (3, 4): -1, (2, 4): 1}
    g = SignedGraph(5, table)
    snc = shortest_negative_cycle(g)
    assert snc is not None and (3, 4) not in snc.edges()
    g, rep = nonneg_eigenvector_form(g)
    result, cert = apply_move(g, Move.delete_edge(3, 4), host_report=rep)
    assert cert.rayleigh_delta >= -1e-15
    assert cert.result_lambda1 >= cert.host_lambda1 - 1e-9


def test_negate_adjacent_pair_closed_form():
    # adjacent negative edges v1v2, v2v3: delta is 4 x2 (x1 + x3)
    table = {(0, 1): -1, (1, 2): -1, (0, 2): 1, (0, 3): 1, (2, 3): 1}
    g = SignedGraph(4, table)
    rep = eigenvalues_sym(g.adjacency_matrix())
    result, cert = apply_move(g, Move.negate_edge_pair((0, 1), (1, 2)), host_report=rep)
    x = rep.x
    assert cert.rayleigh_delta == pytest.approx(4 * x[1] * (x[0] + x[2]), abs=1e-12)
    assert cert.rayleigh_delta == pytest.approx(exact_form_delta(g, result, x), abs=1e-12)


def test_rotate_edge_carries_sign_and_formula():
    g = extremal_graph(6)
    rep = eigenvalues_sym(g.adjacency_matrix())
    move = Move.rotate_edge(3, 4, 0)  # positive edge (3,4) reattaches at 0
    result, cert = apply_move(g, move, host_report=rep)
    assert not result.has_edge(3, 4) and result.sign(3, 0) == 1
    x = rep.x
    assert cert.rayleigh_delta == pytest.approx(2 * x[3] * (x[0] - x[4]), abs=1e-12)


def test_move_operand_validation():
    g = extremal_graph(5)
    with pytest.raises(ValueError):
        apply_move(g, Move.add_positive_edge(0, 1))  # already an edge
    with pytest.raises(ValueError):
        apply_move(g, Move.delete_edge(0, 3))  # not an edge
    with pytest.raises(ValueError):
        apply_move(g, Move.negate_edge_pair((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        apply_move(g, Move.negate_edge_pair((0, 1), (0, 2)))  # (0,2) positive
    with pytest.raises(ValueError):
        apply_move(g, Move.rotate_edge(0, 2, 1))  # (0,1) already an edge


def test_strict_mode_raises_on_constraint_break():
    # deleting the only negative edge balances the graph
    table = {(0, 1): -1, (0, 2): 1, (1, 2): 1}
    g = SignedGraph(3, table)
    with pytest.raises(ConstraintViolation):
        apply_move(g, Move.delete_edge(0, 1), strict=True)
    result, cert = apply_move(g, Move.delete_edge(0, 1), strict=False)
    assert not cert.still_unbalanced


def test_deltas_match_quadratic_form_random():
    rng = random.Random(51)
    checked = 0
    while checked < 200:
        g = random_signed_graph(rng, rng.randint(4, 7), edge_prob=0.5)
        moves = candidate_moves(g)
        if not moves:
            continue
        rep = eigenvalues_sym(g.adjacency_matrix())
        mv = rng.choice(moves)
        result, cert = apply_move(g, mv, host_report=rep)
        assert cert.rayleigh_delta == pytest.approx(
            exact_form_delta(g, result, rep.x), abs=1e-12
        )
        assert result.n == g.n
        checked += 1


def test_monotone_when_delta_nonnegative():
    rng = random.Random(52)
    checked = 0
    while checked < 150:
        g = random_signed_graph(rng, rng.randint(4, 7), edge_prob=0.5)
        if g.m == 0:
            continue
        g, rep = nonneg_eigenvector_form(g)
        moves = candidate_moves(g)
        if not moves:
            continue
        mv = rng.choice(moves)
        result, cert = apply_move(g, mv, host_report=rep)
        if cert.rayleigh_delta >= 0:
            assert cert.result_lambda1 >= cert.host_lambda1 - 1e-9
            checked += 1


def test_strictly_positive_delta_strictly_increases():
    rng = random.Random(53)
    checked = 0
    while checked < 100:
        g = random_signed_graph(rng, rng.randint(4, 7), edge_prob=0.5)
        g, rep = nonneg_eigenvector_form(g)
        moves = candidate_moves(g)
        if not moves:
            continue
        mv = rng.choice(moves)
        result, cert = apply_move(g, mv, host_report=rep)
        if cert.rayleigh_delta > 1e-6:
            assert cert.result_lambda1 > cert.host_lambda1 + 1e-12
            checked += 1


def test_extremal_graph_is_a_local_maximum():
    for n in (5, 6):
        g = extremal_graph(n)
        rep = eigenvalues_sym(g.adjacency_matrix())
        for mv in candidate_moves(g):
            result, cert = apply_move(g, mv, host_report=rep)
            if cert.preserves_constraints:
                assert cert.result_lambda1 <= cert.host_lambda1 + 1e-9


def test_random_start_generator():
    rng = random.Random(54)
    for _ in range(10):
        g = random_unbalanced_c4free(6, rng)
        assert not is_balanced(g).balanced
        assert is_ck_negative_free(g, 4)


def test_greedy_ascent_trajectory():
    bound = index(extremal_graph(5))
    for seed in (1, 2, 3, 4, 5):
        result = greedy_ascent(5, seed=seed, max_steps=60)
        traj = result.trajectory
        assert all(b > a + 1e-12 for a, b in zip(traj, traj[1:]))
        assert traj[-1] <= bound + 1e-9
        assert not is_balanced(result.graph).balanced
        assert is_ck_negative_free(result.graph, 4)


def test_greedy_ascent_often_reaches_the_extremal_graph():
    hits = 0
    for seed in range(6):
        result = greedy_ascent(5, seed=seed, max_steps=60)
        ok, _ = switching_isomorphic(result.graph, extremal_graph(5))
        hits += ok
    # convergence frequency is empirical; require only that it happens
    assert hits >= 1


# (n, seed) -> (start .sg digest, steps, final .sg digest), recorded from the
# sampler that tested balance before negative C4s; the order-12 and order-13
# entries from the ascent that built a SignedGraph for every tried move.  Any
# change to the sampler's random draws moves the start graph and fails this
# test.
PINNED_ASCENTS = {
    (8, 0): ("e886b62de0205462", 11, "f0d6b869d165cc97"),
    (9, 1): ("12909c9b51d0dd75", 19, "41b489f0fd3a6758"),
    (10, 2): ("afb1d932078fb8ea", 23, "0c225b9edc1dd33d"),
    (11, 3): ("caf7b4e8aafdd410", 29, "f1bce1730804f06a"),
    (12, 4): ("59b297eea65a5adc", 41, "5491984a069cdaf3"),
    (12, 5): ("b55abe5ea96f37b4", 34, "b93bcf62e66c4432"),
    (13, 6): ("a03273eef1765a5e", 41, "ec201f2a187eff2d"),
}


def sg_digest(g):
    return hashlib.sha256(g.to_sg().encode()).hexdigest()[:16]


@pytest.mark.parametrize("n, seed", sorted(PINNED_ASCENTS))
def test_sampler_and_ascent_are_pinned(n, seed):
    start_digest, steps, final_digest = PINNED_ASCENTS[(n, seed)]
    assert sg_digest(random_unbalanced_c4free(n, random.Random(seed))) == start_digest
    result = greedy_ascent(n, seed)
    assert result.steps == steps == len(result.deltas)
    assert sg_digest(result.graph) == final_digest


def reference_ascent(n, seed, max_steps=500):
    """greedy_ascent's definition on the per-move API: every candidate scored,
    sorted, then applied and certified in turn."""
    g = random_unbalanced_c4free(n, random.Random(seed))
    g, rep = nonneg_eigenvector_form(g)
    trajectory, applied, deltas = [rep.lambda1], [], []
    for _ in range(max_steps):
        scored = sorted(
            (-_closed_form_delta(g, mv.kind, mv.operands, rep.x), mv.kind.value, mv.operands, mv)
            for mv in candidate_moves(g)
        )
        for *_, mv in scored:
            result, cert = apply_move(g, mv, host_report=rep)
            if cert.preserves_constraints and cert.result_lambda1 > rep.lambda1 + STRICT_GAIN:
                break
        else:
            break
        applied.append(mv)
        deltas.append(cert.rayleigh_delta)
        trajectory.append(cert.result_lambda1)
        g, rep = nonneg_eigenvector_form(result)
    return g, tuple(trajectory), tuple(applied), tuple(deltas)


@pytest.mark.parametrize("n", range(5, 10))
def test_greedy_ascent_matches_the_per_move_reference(n):
    for seed in range(6):
        result = greedy_ascent(n, seed)
        g, trajectory, applied, deltas = reference_ascent(n, seed)
        assert result.graph == g
        assert result.trajectory == trajectory
        assert result.applied == applied
        assert result.deltas == deltas


@pytest.mark.parametrize("n", range(6, 11))
def test_additions_and_deletions_keep_the_constraints_they_skip(n):
    # the ascent tests neither balance after an addition or a deletion, nor
    # negative 4-cycles after a deletion
    kinds = set()
    for seed in range(3):
        g = random_unbalanced_c4free(n, random.Random(seed))
        rep = eigenvalues_sym(g.adjacency_matrix())
        for mv in candidate_moves(g):
            if mv.kind in (MoveKind.ADD_POSITIVE_EDGE, MoveKind.DELETE_EDGE):
                _, cert = apply_move(g, mv, host_report=rep)
                assert cert.still_unbalanced, mv
                if mv.kind is MoveKind.DELETE_EDGE:
                    assert cert.still_c4_negative_free, mv
                kinds.add(mv.kind)
    assert kinds == {MoveKind.ADD_POSITIVE_EDGE, MoveKind.DELETE_EDGE}
