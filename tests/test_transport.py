import numpy as np
import pytest

from detnum.boxes import AABox, iou
from detnum.transport import (
    BIG,
    Assignment,
    InfeasibleMongeError,
    OTProblem,
    build_cost_matrix,
    exact_injection,
    exact_kp,
    exact_mp,
    match,
    negative_iou,
    round_plan,
    sinkhorn,
    uniform_marginals,
)

from helpers import brute_assignment, brute_injection, rand_box


def uniform_problem(cost):
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    return OTProblem(cost, uniform_marginals(n), uniform_marginals(m))


def rand_problem(rng, n, m=None):
    m = n if m is None else m
    return uniform_problem(rng.uniform(0.0, 1.0, size=(n, m)))


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValueError):
        OTProblem(np.zeros((0, 3)), np.ones(0), np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError):
        uniform_marginals(0)
    with pytest.raises(ValueError):
        uniform_problem([[float("nan")]])
    with pytest.raises(ValueError):
        OTProblem([[0.0]], [0.5], [1.0])
    with pytest.raises(ValueError):
        OTProblem([[0.0, 0.0]], [1.0], [0.5])


def test_problem_maps_posinf_to_sentinel():
    p = uniform_problem([[0.0, float("inf")], [1.0, 0.0]])
    assert p.cost[0, 1] == BIG
    assert p.cost[1, 0] == 1.0


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
    tp = sinkhorn(uniform_problem([[0.7]]))
    assert tp.plan.shape == (1, 1)
    assert tp.plan[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert tp.converged


def test_sinkhorn_antidiagonal_cost_prefers_diagonal():
    tp = sinkhorn(uniform_problem([[0.0, 1.0], [1.0, 0.0]]), epsilon=0.01)
    assert tp.converged
    assert tp.plan[0, 0] == pytest.approx(0.5, abs=1e-6)
    assert tp.plan[1, 1] == pytest.approx(0.5, abs=1e-6)
    assert tp.objective == pytest.approx(0.0, abs=1e-6)


def test_sinkhorn_constant_cost_gives_independent_coupling():
    # symmetry forces the product coupling mu x nu
    mu = uniform_marginals(4)
    nu = uniform_marginals(3)
    tp = sinkhorn(OTProblem(np.full((4, 3), 0.37), mu, nu))
    assert np.max(np.abs(tp.plan - np.outer(mu, nu))) < 1e-12
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
    tp = sinkhorn(rand_problem(np.random.default_rng(61), 5), epsilon=1e-4, max_iters=3)
    assert not tp.converged
    assert tp.iterations == 3


def test_sinkhorn_objective_upper_bounds_kp_and_shrinks_with_epsilon():
    rng = np.random.default_rng(67)
    for _ in range(5):
        p = rand_problem(rng, 6)
        kp = exact_kp(p).objective
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            tp = sinkhorn(p, epsilon=eps, max_iters=5000, tol=1e-10, anneal=True)
            gaps.append(tp.objective - kp)
        assert all(g >= -1e-9 for g in gaps)
        assert gaps[0] >= gaps[1] - 1e-9
        assert gaps[1] >= gaps[2] - 1e-9
        assert gaps[2] < 1e-3


def test_sinkhorn_anneal_reaches_same_fixed_point():
    rng = np.random.default_rng(71)
    p = rand_problem(rng, 5)
    plain = sinkhorn(p, epsilon=0.05, max_iters=4000, tol=1e-12)
    warm = sinkhorn(p, epsilon=0.05, max_iters=4000, tol=1e-12, anneal=True)
    assert plain.converged and warm.converged
    assert np.abs(plain.plan - warm.plan).max() < 1e-9


def test_sinkhorn_infeasible_forbidden_column_raises():
    # column 1 can only be served through sentinel entries
    p = uniform_problem([[0.0, float("inf")], [0.0, float("inf")]])
    with pytest.raises(RuntimeError):
        sinkhorn(p, epsilon=0.1, max_iters=50)


def test_sinkhorn_parameter_validation():
    p = uniform_problem([[0.0]])
    with pytest.raises(ValueError):
        sinkhorn(p, epsilon=0.0)
    with pytest.raises(ValueError):
        sinkhorn(p, max_iters=0)


# ---------------------------------------------------------------------------
# exact solvers
# ---------------------------------------------------------------------------

def test_exact_kp_one_by_one():
    tp = exact_kp(uniform_problem([[0.25]]))
    assert tp.plan[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert tp.objective == pytest.approx(0.25, abs=1e-12)


def test_exact_kp_antidiagonal():
    tp = exact_kp(uniform_problem([[0.0, 1.0], [1.0, 0.0]]))
    assert tp.objective == pytest.approx(0.0, abs=1e-12)


def test_exact_kp_square_uniform_matches_permutation_oracle():
    # Birkhoff: on uniform square problems the LP optimum is the best
    # permutation's mean cost
    rng = np.random.default_rng(73)
    for _ in range(20):
        p = rand_problem(rng, 5)
        _, best = brute_assignment(p.cost)
        assert exact_kp(p).objective == pytest.approx(best, abs=1e-9)


def test_exact_kp_forbidden_optimum_raises():
    p = uniform_problem([[0.0, float("inf")], [0.0, float("inf")]])
    with pytest.raises(RuntimeError):
        exact_kp(p)


def test_exact_mp_identity_on_diagonal_costs():
    cost = np.ones((3, 3)) - np.eye(3)
    a = exact_mp(uniform_problem(cost))
    assert a.pairs == ((0, 0), (1, 1), (2, 2))
    assert a.total_cost == pytest.approx(0.0, abs=1e-15)
    assert a.unmatched_predictions == ()


def test_exact_mp_matches_brute_oracle():
    rng = np.random.default_rng(79)
    for _ in range(20):
        p = rand_problem(rng, 6)
        perm, best = brute_assignment(p.cost)
        a = exact_mp(p)
        assert a.total_cost == pytest.approx(best, abs=1e-12)
        assert tuple(j for _, j in a.pairs) == perm


def test_exact_mp_brute_and_hungarian_agree():
    rng = np.random.default_rng(83)
    for _ in range(10):
        p = rand_problem(rng, 7)
        b = exact_mp(p, method="brute")
        h = exact_mp(p, method="hungarian")
        assert b.total_cost == pytest.approx(h.total_cost, abs=1e-12)


def test_exact_mp_infeasible_cases():
    with pytest.raises(InfeasibleMongeError):
        exact_mp(uniform_problem(np.zeros((2, 3))))
    with pytest.raises(InfeasibleMongeError):
        exact_mp(OTProblem(np.zeros((2, 2)), [0.7, 0.3], [0.5, 0.5]))


def test_exact_injection_matches_brute_oracle_bitwise():
    rng = np.random.default_rng(89)
    for n, m in ((2, 5), (5, 2), (3, 4), (6, 5), (1, 3)):
        p = rand_problem(rng, n, m)
        _, best = brute_injection(p.cost)
        enumerated, hungarian = exact_injection(p)
        assert enumerated / min(n, m) == best
        assert hungarian == pytest.approx(enumerated, abs=1e-12)


def test_exact_injection_caps_enumeration():
    with pytest.raises(ValueError, match="got 9x10"):
        exact_injection(uniform_problem(np.zeros((9, 10))))
    with pytest.raises(ValueError, match=r"got 10x7 \(604800 maps\)"):
        exact_injection(uniform_problem(np.zeros((10, 7))))


def test_monge_at_least_kantorovich():
    rng = np.random.default_rng(89)
    for _ in range(50):
        p = rand_problem(rng, int(rng.integers(2, 7)))
        mp = exact_mp(p).total_cost
        kp = exact_kp(p).objective
        assert mp >= kp - 1e-9
        # equal-size uniform marginals: Birkhoff collapses the two optima
        assert mp == pytest.approx(kp, abs=1e-9)


# ---------------------------------------------------------------------------
# negative_iou
# ---------------------------------------------------------------------------

def test_negative_iou_identical_pair_zero_costs():
    b = AABox(1, 1, 2, 2)
    assert negative_iou(b, b, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_negative_iou_worked_value():
    p, g = AABox(1, 1, 2, 2), AABox(2, 2, 2, 2)
    v = negative_iou(p, g, 0.4, 0.4)
    assert v == pytest.approx(1.0 - 1 / 7, abs=1e-12)


def test_negative_iou_ratio_scales():
    p, g = AABox(1, 1, 2, 2), AABox(2, 2, 2, 2)
    assert negative_iou(p, g, 0.6, 0.4) == pytest.approx(1.5 - 1 / 7, abs=1e-12)


def test_negative_iou_rejects_mp_below_kp():
    b = AABox(0, 0, 1, 1)
    with pytest.raises(ValueError):
        negative_iou(b, b, 0.3, 0.4)
    with pytest.raises(ValueError):
        negative_iou(b, b, 0.3, 0.0)


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
        tp = sinkhorn(p, epsilon=1e-4, max_iters=800, tol=1e-6, anneal=True)
        rounded = sorted(round_plan(tp.plan))
        cost = float(sum(p.cost[i, j] for i, j in rounded)) / n
        assert cost - exact_mp(p).total_cost <= 1e-6 * n


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
        exact_mp(problem).total_cost, abs=1e-6)


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
