from fractions import Fraction

import numpy as np
import pytest

from detnum.boxes import AABox, iou
from detnum.transport import (
    DEFAULT_EPSILON,
    MIN_EPSILON,
    Assignment,
    OTProblem,
    build_cost_matrix,
    exact_injection,
    exact_kp,
    match,
    round_plan,
    sinkhorn,
)

from helpers import brute_assignment, brute_injection, rand_box, sinkhorn_plain


def rand_problem(rng, n, m=None):
    m = n if m is None else m
    return OTProblem(rng.uniform(0.0, 1.0, size=(n, m)))


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValueError):
        OTProblem(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        OTProblem([[float("nan")]])


def test_problem_marginals_are_uniform_and_read_only():
    p = OTProblem(np.zeros((4, 3)))
    assert p.mu.tolist() == [0.25] * 4
    assert p.nu.tolist() == [1.0 / 3.0] * 3
    assert p.mu is p.mu
    assert not p.mu.flags.writeable and not p.nu.flags.writeable


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_problem_rejects_non_finite_costs(bad):
    with pytest.raises(ValueError, match="cost entries must be finite"):
        OTProblem([[0.0, bad]])


def test_build_cost_matrix_single_identical_pair():
    b = AABox(1, 1, 2, 2)
    p = build_cost_matrix([b], [b])
    assert p.cost.shape == (1, 1)
    assert p.cost[0, 0] == 0.0
    assert p.mu.tolist() == [1.0]


def test_build_cost_matrix_worked_pair_entry():
    p = build_cost_matrix([AABox(1, 1, 2, 2)], [AABox(2, 2, 2, 2)])
    assert p.cost[0, 0] == pytest.approx(6 / 7, abs=1e-15)


def test_build_cost_matrix_rejects_empty_and_unknown_kind():
    b = AABox(0, 0, 1, 1)
    with pytest.raises(ValueError):
        build_cost_matrix([], [b])
    with pytest.raises(ValueError):
        build_cost_matrix([b], [b], kind="euclid")


# ---------------------------------------------------------------------------
# sinkhorn
# ---------------------------------------------------------------------------

def test_sinkhorn_one_by_one_plan_is_one():
    tp = sinkhorn(OTProblem([[0.7]]))
    assert tp.plan.shape == (1, 1)
    assert tp.plan[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert tp.converged


def test_sinkhorn_antidiagonal_cost_prefers_diagonal():
    tp = sinkhorn(OTProblem([[0.0, 1.0], [1.0, 0.0]]), epsilon=0.01)
    assert tp.converged
    assert tp.plan[0, 0] == pytest.approx(0.5, abs=1e-6)
    assert tp.plan[1, 1] == pytest.approx(0.5, abs=1e-6)
    assert tp.objective == pytest.approx(0.0, abs=1e-6)


def test_sinkhorn_constant_cost_gives_independent_coupling():
    # symmetry forces the product coupling mu x nu
    p = OTProblem(np.full((4, 3), 0.37))
    tp = sinkhorn(p)
    assert np.max(np.abs(tp.plan - np.outer(p.mu, p.nu))) < 1e-12
    # every entry identical by symmetry
    assert np.unique(tp.plan).size == 1


def test_sinkhorn_marginals_satisfied():
    rng = np.random.default_rng(59)
    for _ in range(20):
        p = rand_problem(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        # vanilla iteration converges linearly; the slowest of these
        # instances needs ~3k sweeps to push the violation below tol
        tp = sinkhorn(p, epsilon=0.05, max_iters=5000)
        assert tp.converged
        assert np.abs(tp.plan.sum(axis=1) - p.mu).max() < 1e-8
        assert np.abs(tp.plan.sum(axis=0) - p.nu).max() < 1e-8


def test_sinkhorn_nonconvergence_reported_not_raised():
    tp = sinkhorn(rand_problem(np.random.default_rng(61), 5), epsilon=0.01, max_iters=3)
    assert not tp.converged
    assert tp.iterations == 3


def test_sinkhorn_budget_bounds_warm_up_at_tiny_epsilon():
    # ε = MIN_EPSILON warm-starts through 22 stages: the 50-sweep budget runs
    # out among them on 4×4, while a single column takes one sweep a stage.
    # Either way the plan is finite, no warning is raised (warnings are
    # errors in this suite), and the unconverged plan is reported
    for p, max_iters, iterations in ((rand_problem(np.random.default_rng(0), 4), 50, 50),
                                     (OTProblem([[0.3], [0.9]]), 59, 23)):
        tp = sinkhorn(p, epsilon=MIN_EPSILON, max_iters=max_iters)
        assert tp.iterations == iterations
        assert not tp.converged
        assert np.isfinite(tp.plan).all()


def test_sinkhorn_objective_upper_bounds_kp_and_shrinks_with_epsilon():
    rng = np.random.default_rng(67)
    for _ in range(5):
        p = rand_problem(rng, 6)
        kp = exact_kp(p).objective
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            tp = sinkhorn(p, epsilon=eps, max_iters=5000, tol=1e-10)
            gaps.append(tp.objective - kp)
        assert all(g >= -1e-9 for g in gaps)
        assert gaps[0] >= gaps[1] - 1e-9
        assert gaps[1] >= gaps[2] - 1e-9
        assert gaps[2] < 1e-3


def test_sinkhorn_anneal_reaches_same_fixed_point():
    # below DEFAULT_EPSILON the solve warm-starts through larger epsilons;
    # the plain loop at the target epsilon alone must land on the same plan
    p = rand_problem(np.random.default_rng(5), 4)
    assert 0.009 < DEFAULT_EPSILON
    warm = sinkhorn(p, epsilon=0.009, max_iters=5000, tol=1e-9)
    plain = sinkhorn_plain(p.cost, p.mu, p.nu, 0.009, 1e-9)
    assert warm.converged and plain is not None
    assert np.abs(warm.plan - plain).max() < 1e-8


def test_sinkhorn_parameter_validation():
    p = OTProblem([[0.0]])
    with pytest.raises(ValueError):
        sinkhorn(p, epsilon=0.0)
    with pytest.raises(ValueError):
        sinkhorn(p, max_iters=0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(epsilon=float("nan")), "epsilon must be finite and >= 1e-12, got nan"),
    (dict(epsilon=float("inf")), "epsilon must be finite and >= 1e-12, got inf"),
    (dict(epsilon=-1e-3), "epsilon must be finite and >= 1e-12, got -0.001"),
    (dict(epsilon=9.9e-13), "epsilon must be finite and >= 1e-12, got 9.9e-13"),
    (dict(epsilon=1.3e-206), "epsilon must be finite and >= 1e-12, got 1.3e-206"),
    (dict(epsilon=1e-300), "epsilon must be finite and >= 1e-12, got 1e-300"),
    (dict(tol=float("nan")), "tol must be > 0, got nan"),
    (dict(tol=0.0), "tol must be > 0, got 0.0"),
    (dict(tol=-1e-9), "tol must be > 0, got -1e-09"),
], ids=["epsilon-nan", "epsilon-inf", "epsilon-negative", "epsilon-9.9e-13",
        "epsilon-1.3e-206", "epsilon-1e-300", "tol-nan", "tol-0", "tol-negative"])
def test_sinkhorn_rejects_epsilon_and_tol_that_cannot_converge(kwargs, message):
    with pytest.raises(ValueError, match=message):
        sinkhorn(OTProblem([[0.0, 1.0], [1.0, 0.0]]), **kwargs)


# ---------------------------------------------------------------------------
# exact solvers
# ---------------------------------------------------------------------------

def test_exact_kp_one_by_one():
    tp = exact_kp(OTProblem([[0.25]]))
    assert tp.plan[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert tp.objective == pytest.approx(0.25, abs=1e-12)


def test_exact_kp_antidiagonal():
    tp = exact_kp(OTProblem([[0.0, 1.0], [1.0, 0.0]]))
    assert tp.objective == pytest.approx(0.0, abs=1e-12)


def test_exact_kp_square_uniform_matches_permutation_oracle():
    # Birkhoff: on uniform square problems the LP optimum is the best
    # permutation's mean cost
    rng = np.random.default_rng(73)
    for _ in range(20):
        p = rand_problem(rng, 5)
        _, best = brute_assignment(p.cost)
        assert exact_kp(p).objective == pytest.approx(best, abs=1e-9)


def test_exact_mp_identity_on_diagonal_costs():
    cost = np.ones((3, 3)) - np.eye(3)
    a = exact_injection(OTProblem(cost))
    assert a.pairs == ((0, 0), (1, 1), (2, 2))
    assert a.total_cost == pytest.approx(0.0, abs=1e-15)
    assert a.unmatched_predictions == ()


def test_exact_mp_matches_brute_oracle():
    rng = np.random.default_rng(79)
    for _ in range(20):
        p = rand_problem(rng, 6)
        perm, best = brute_assignment(p.cost)
        a = exact_injection(p)
        assert a.total_cost == pytest.approx(best, abs=1e-12)
        assert tuple(j for _, j in a.pairs) == perm


def test_exact_mp_brute_and_hungarian_agree():
    # the Hungarian optimum equals the permutation enumeration at n = 7
    rng = np.random.default_rng(83)
    for _ in range(10):
        p = rand_problem(rng, 7)
        _, best = brute_assignment(p.cost)
        assert exact_injection(p).total_cost == pytest.approx(best, abs=1e-12)


def test_exact_injection_matches_brute_oracle_bitwise():
    # the Hungarian pairs reach the enumerated optimum exactly, in
    # rational arithmetic, on either orientation
    def exact_sum(cost, pairs):
        return sum(Fraction(cost[i, j]) for i, j in pairs)

    rng = np.random.default_rng(89)
    for n, m in ((2, 5), (5, 2), (3, 4), (6, 5), (1, 3)):
        p = rand_problem(rng, n, m)
        best_map, _ = brute_injection(p.cost)
        a = exact_injection(p)
        assert len(a.pairs) == min(n, m)
        assert a.unmatched_predictions == tuple(sorted(set(range(n)) - dict(a.pairs).keys()))
        assert exact_sum(p.cost, a.pairs) == exact_sum(p.cost, best_map.items())
        assert a.total_cost == float(sum(p.cost[i, j] for i, j in a.pairs)) / n


def test_monge_at_least_kantorovich():
    rng = np.random.default_rng(89)
    for _ in range(50):
        p = rand_problem(rng, int(rng.integers(2, 7)))
        mp = exact_injection(p).total_cost
        kp = exact_kp(p).objective
        assert mp >= kp - 1e-9
        # equal-size uniform marginals: Birkhoff collapses the two optima
        assert mp == pytest.approx(kp, abs=1e-9)


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def test_round_plan_descending_greedy():
    plan = np.array([[0.4, 0.1], [0.2, 0.3]])
    assert round_plan(plan) == [(0, 0), (1, 1)]


def test_round_plan_tie_breaks_row_major():
    plan = np.full((2, 2), 0.25)
    assert round_plan(plan) == [(0, 0), (1, 1)]


def test_round_plan_rectangular_and_limit():
    plan = np.array([[0.5, 0.0, 0.0], [0.0, 0.4, 0.1]])
    assert round_plan(plan) == [(0, 0), (1, 1)]


def test_rounded_sinkhorn_recovers_exact_monge():
    rng = np.random.default_rng(97)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        p = rand_problem(rng, n)
        tp = sinkhorn(p, epsilon=1e-4, max_iters=800, tol=1e-6)
        rounded = sorted(round_plan(tp.plan))
        cost = float(sum(p.cost[i, j] for i, j in rounded)) / n
        assert cost - exact_injection(p).total_cost <= 1e-6 * n


# ---------------------------------------------------------------------------
# end-to-end match
# ---------------------------------------------------------------------------

def test_match_single_identical_pair():
    b = AABox(1, 1, 2, 2)
    res = match([b], [b])
    assert res.assignment.pairs == ((0, 0),)
    assert res.assignment.unmatched_predictions == ()
    assert res.breakdowns[0].total == 0.0
    assert res.assignment.total_cost == pytest.approx(0.0, abs=1e-12)


def test_match_two_clean_pairs_diagonal():
    preds = [AABox(0, 0, 2, 2), AABox(10, 0, 2, 2)]
    gts = [AABox(0.2, 0, 2, 2), AABox(10.3, 0, 2, 2)]
    res = match(preds, gts)
    assert res.assignment.pairs == ((0, 0), (1, 1))
    problem = build_cost_matrix(preds, gts)
    assert res.assignment.total_cost == pytest.approx(
        exact_injection(problem).total_cost, abs=1e-6)


def test_match_surplus_prediction_reported_unmatched():
    preds = [AABox(0, 0, 2, 2), AABox(5, 5, 1, 1), AABox(10, 0, 2, 2)]
    gts = [AABox(0.2, 0, 2, 2), AABox(10.3, 0, 2, 2)]
    res = match(preds, gts)
    assert res.assignment.pairs == ((0, 0), (2, 1))
    assert res.assignment.unmatched_predictions == (1,)
    # the injection the solver picked is the brute-force optimum
    problem = build_cost_matrix(preds, gts)
    best_map, _ = brute_injection(problem.cost)
    assert dict(res.assignment.pairs) == best_map


def test_match_gt_label_permutation_invariance():
    rng = np.random.default_rng(101)
    preds = [rand_box(rng) for _ in range(4)]
    gts = [AABox(p.cx + 0.1, p.cy - 0.1, p.w, p.h) for p in preds]
    base = match(preds, gts)
    perm = [2, 0, 3, 1]
    shuffled = [gts[j] for j in perm]
    res = match(preds, shuffled)
    # pairs must point at the same boxes through the permuted labels
    remap = {j: perm.index(j) for j in range(4)}
    assert sorted((i, remap[j]) for i, j in base.assignment.pairs) == \
        sorted(res.assignment.pairs)


def test_match_breakdowns_parallel_to_pairs():
    rng = np.random.default_rng(103)
    preds = [rand_box(rng) for _ in range(3)]
    gts = [rand_box(rng) for _ in range(3)]
    res = match(preds, gts)
    assert len(res.breakdowns) == len(res.assignment.pairs)
    for (i, j), bd in zip(res.assignment.pairs, res.breakdowns):
        expected = 1.0 - iou(preds[i], gts[j])
        assert bd.negative_iou == pytest.approx(expected, abs=1e-12)


def test_assignment_is_plain_data():
    a = Assignment(((0, 1),), (2,), 0.5)
    assert a.pairs == ((0, 1),)
    assert a.unmatched_predictions == (2,)
