"""Discrete Monge-Kantorovich matching between box sets.

Every box carries the same mass, so an `OTProblem` is its cost matrix:
its marginals are uniform by construction. Builds box-to-box cost matrices
(1 − IoU by default), solves the entropic-regularized Kantorovich problem
with a log-domain Sinkhorn-Knopp iteration (warm-started by epsilon scaling
below `DEFAULT_EPSILON`, and refusing epsilon below `MIN_EPSILON`), and
provides exact solvers for the Kantorovich LP (`exact_kp`, up to
`EXACT_CAP` points per side) and the one-to-one assignment
(`exact_injection`, Hungarian, any shape; on square problems it is the
Monge optimum). `certify` checks the assignment that `match` rounds
against those two optima.

The loss's negative-IoU factor MP/KP − IoU(p, g) collapses to 1 − IoU:
on equal-cardinality uniform problems MP = KP (Birkhoff extremality of
the assignment polytope), and without a Monge map (unequal cardinalities)
the ratio is 1 by convention, which is `mks_loss`'s default.

Costs must be finite (`build_cost_matrix` only produces 1 − IoU in [0, 1]
or finite siou values), and with epsilon ≥ `MIN_EPSILON` so is every
Sinkhorn potential, so no solver handles +inf or NaN entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from ._common import frozen_array
from .boxes import iou_matrix
from .losses import DEFAULT_THETA, LossBreakdown, loss_value, mks_loss

__all__ = [
    "DEFAULT_EPSILON", "DEFAULT_MAX_ITERS", "DEFAULT_TOL", "EXACT_CAP", "MIN_EPSILON",
    "OTProblem", "TransportPlan", "Assignment", "MatchConfig", "MatchResult",
    "build_cost_matrix",
    "sinkhorn", "exact_kp", "exact_injection", "round_plan", "match", "certify",
]

DEFAULT_EPSILON = 0.01
DEFAULT_MAX_ITERS = 1000
DEFAULT_TOL = 1e-9
MIN_EPSILON = 1e-12     # below it the stop test loses precision, then overflows

EXACT_CAP = 64      # largest side exact_kp will hand to the LP


@dataclass(frozen=True, eq=False)
class OTProblem:
    """A discrete transport problem between n sources and m targets of equal
    mass: a finite (n, m) cost, with uniform marginals mu = 1/n, nu = 1/m."""

    cost: np.ndarray

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=float)
        if cost.ndim != 2 or cost.size == 0:
            raise ValueError(f"cost must be a nonempty 2-d matrix, got shape {cost.shape}")
        if not np.isfinite(cost).all():
            raise ValueError("cost entries must be finite")
        object.__setattr__(self, "cost", frozen_array(cost))

    @property
    def n(self) -> int:
        return self.cost.shape[0]

    @property
    def m(self) -> int:
        return self.cost.shape[1]

    @cached_property
    def mu(self) -> np.ndarray:
        return frozen_array(np.full(self.n, 1.0 / self.n))

    @cached_property
    def nu(self) -> np.ndarray:
        return frozen_array(np.full(self.m, 1.0 / self.m))


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling, its objective <cost, plan>, and solve diagnostics."""

    plan: np.ndarray
    objective: float
    marginal_violation: float
    converged: bool
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "plan", frozen_array(self.plan))


@dataclass(frozen=True)
class Assignment:
    """A (partial) one-to-one map from prediction indices to gt indices.

    total_cost is the transport objective of the induced map under uniform
    source weights: (1/n) · Σ cost over matched pairs, n = number of
    predictions. For square problems this equals the Monge objective.
    """

    pairs: tuple[tuple[int, int], ...]
    unmatched_predictions: tuple[int, ...]
    total_cost: float

    @classmethod
    def from_pairs(cls, cost: np.ndarray, pairs) -> Assignment:
        """The assignment made of pairs, sorted, and scored on cost: the
        left-to-right sum of its entries over the number of rows."""
        pairs = tuple(sorted(pairs))
        matched = {i for i, _ in pairs}
        n = cost.shape[0]
        unmatched = tuple(i for i in range(n) if i not in matched)
        return cls(pairs, unmatched, float(sum(cost[i, j] for i, j in pairs)) / n)


def build_cost_matrix(preds, gts, *, kind: str = "iou",
                      theta: float = DEFAULT_THETA) -> OTProblem:
    """Box-to-box cost matrix.

    kind "iou" gives entries 1 − IoU (the default matching objective);
    kind "siou" uses the full additive geometry cost instead.
    """
    preds = list(preds)
    gts = list(gts)
    if not preds or not gts:
        raise ValueError("build_cost_matrix needs nonempty prediction and gt lists")
    if kind == "iou":
        cost = 1.0 - iou_matrix(preds, gts)
    elif kind == "siou":
        cost = [[loss_value("siou", p, g, theta=theta) for g in gts] for p in preds]
    else:
        raise ValueError(f"unknown cost kind {kind!r}; expected 'iou' or 'siou'")
    return OTProblem(cost)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - amax), axis=axis))
    return out + np.squeeze(amax, axis=axis)


_ANNEAL_EPS_FACTOR = 3.0
_ANNEAL_STAGE_ITERS = 25


def sinkhorn(problem: OTProblem, epsilon: float = DEFAULT_EPSILON,
             max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL) -> TransportPlan:
    """Entropic-regularized plan by log-domain Sinkhorn-Knopp scaling.

    Costs are rescaled by their largest absolute entry before
    exponentiation so epsilon always acts on a [0, 1]-scale matrix. Each
    sweep updates v, then u, after which the rows sum to mu; a stage stops
    when the worst column deviation, read off the sums the next v-update
    reuses, drops below tol. Non-convergence is reported through the
    converged flag, not raised.

    Below DEFAULT_EPSILON the potentials are warm-started by epsilon
    scaling through epsilon·3^k, …, 3·epsilon (from the first at or above
    DEFAULT_EPSILON down), 25 sweeps at most each; the fixed point is
    unchanged. max_iters bounds every sweep, warm-up included, and
    iterations counts them; a stage the budget leaves no sweep still sets
    v, so the plan is always at the requested epsilon.
    """
    if not (math.isfinite(epsilon) and epsilon >= MIN_EPSILON):
        raise ValueError(f"epsilon must be finite and >= {MIN_EPSILON!r}, got {epsilon!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters!r}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    cost = problem.cost
    scale = float(np.abs(cost).max()) or 1.0
    norm_cost = cost / scale

    stages = [epsilon]
    while stages[0] < DEFAULT_EPSILON:
        stages.insert(0, stages[0] * _ANNEAL_EPS_FACTOR)

    log_mu = np.log(problem.mu)
    log_nu = np.log(problem.nu)
    u = np.zeros(problem.n)
    converged = False
    iterations = 0
    for si, eps_k in enumerate(stages):
        mr = norm_cost / -eps_k
        final = si == len(stages) - 1
        lse_c = _logsumexp(mr + u[:, None], axis=0)
        v = log_nu - lse_c      # the plan's v when the budget skips this stage
        left = max_iters - iterations
        for _ in range(left if final else min(_ANNEAL_STAGE_ITERS, left)):
            v = log_nu - lse_c
            u = log_mu - _logsumexp(mr + v[None, :], axis=1)
            lse_c = _logsumexp(mr + u[:, None], axis=0)
            iterations += 1
            if np.abs(np.exp(v + lse_c) - problem.nu).max() < tol:
                converged = final
                break
        if not final:
            # keep the dual potential eps_k * u fixed across the switch
            u *= eps_k / stages[si + 1]
    plan = np.exp(mr + u[:, None] + v[None, :])
    objective = float((plan * cost).sum())
    # the stop test reads the columns before exponentiation; rounding can
    # leave the plan itself a hair past tol, and then it has not converged
    violation = _marginal_violation(plan, problem)
    return TransportPlan(plan, objective, violation, converged and violation < tol,
                         iterations)


def _marginal_violation(plan: np.ndarray, problem: OTProblem) -> float:
    """Worst row or column deviation of plan from the problem's marginals."""
    return max(float(np.abs(plan.sum(axis=1) - problem.mu).max()),
               float(np.abs(plan.sum(axis=0) - problem.nu).max()))


def exact_kp(problem: OTProblem) -> TransportPlan:
    """Exact Kantorovich optimum by linear programming (desk-scale sizes)."""
    n, m = problem.n, problem.m
    if n > EXACT_CAP or m > EXACT_CAP:
        raise ValueError(f"exact_kp caps sides at {EXACT_CAP}, got {n}x{m}")
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([problem.mu, problem.nu])
    res = linprog(problem.cost.ravel(), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = np.maximum(res.x.reshape(n, m), 0.0)
    objective = float((plan * problem.cost).sum())
    return TransportPlan(plan, objective, _marginal_violation(plan, problem),
                         True, int(res.nit))


def exact_injection(problem: OTProblem) -> Assignment:
    """Minimum-cost one-to-one map of min(n, m) pairs, for any shape, by
    Hungarian assignment (`linear_sum_assignment`).

    Surplus predictions (n > m) are reported unmatched, and total_cost is
    on the `Assignment` scale, as `match` reports its rounded pairs. On a
    square uniform problem this is the Monge optimum, and `certify` holds
    `match`'s pairs against it.
    """
    rows, cols = linear_sum_assignment(problem.cost)
    return Assignment.from_pairs(problem.cost, zip(rows.tolist(), cols.tolist()))


def round_plan(plan: np.ndarray) -> list[tuple[int, int]]:
    """Greedy plan rounding: entries in descending order, accept when both
    row and column are free, until min(n, m) pairs; ties resolved by
    (row, column) order."""
    plan = np.asarray(plan)
    n, m = plan.shape
    limit = min(n, m)
    # stable sort on the flattened array keeps row-major (row, col) order
    # among equal entries
    order = np.argsort(-plan, axis=None, kind="stable")
    row_used = np.zeros(n, dtype=bool)
    col_used = np.zeros(m, dtype=bool)
    pairs = []
    for idx in order:
        i, j = divmod(int(idx), m)
        if row_used[i] or col_used[j]:
            continue
        pairs.append((i, j))
        row_used[i] = True
        col_used[j] = True
        if len(pairs) == limit:
            break
    return pairs


@dataclass(frozen=True)
class MatchConfig:
    epsilon: float = DEFAULT_EPSILON
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL
    cost: str = "iou"           # "iou" or "siou"
    theta: float = DEFAULT_THETA


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Assignment plus per-pair loss breakdowns (parallel to pairs), the
    underlying plan, whose converged flag propagates solver status, and the
    problem it solved."""

    assignment: Assignment
    breakdowns: tuple[LossBreakdown, ...]
    plan: TransportPlan
    problem: OTProblem


def match(preds, gts, config: MatchConfig | None = None) -> MatchResult:
    """Sinkhorn matching of predictions to ground truths.

    The plan is rounded to a (partial) one-to-one assignment covering
    min(n, m) pairs; surplus predictions are reported unmatched. Each
    matched pair is scored with mks_loss under the collapsed negative-IoU
    convention (ratio = 1: exact on square uniform problems, by definition
    when the Monge side is infeasible). `certify(res.problem,
    res.assignment)` checks the rounded pairs against the exact optimum.
    """
    cfg = config or MatchConfig()
    preds = list(preds)
    gts = list(gts)
    problem = build_cost_matrix(preds, gts, kind=cfg.cost, theta=cfg.theta)
    tp = sinkhorn(problem, cfg.epsilon, cfg.max_iters, cfg.tol)
    assignment = Assignment.from_pairs(problem.cost, round_plan(tp.plan))
    breakdowns = tuple(
        mks_loss(preds[i], gts[j], theta=cfg.theta) for i, j in assignment.pairs)
    return MatchResult(assignment, breakdowns, tp, problem)


def _exact_sum(cost: np.ndarray, pairs) -> Fraction:
    return sum((Fraction(cost[i, j]) for i, j in pairs), Fraction(0))


def certify(problem: OTProblem, assignment: Assignment) -> dict:
    """Check an assignment against the Hungarian optimum of problem.

    Returns `optimum` (the Hungarian total_cost), `kp` (the Kantorovich LP
    value, whose sides are capped at `EXACT_CAP`), `ratio` (optimum/kp on
    square problems, 1.0 otherwise), `rounded_cost` (the assignment's
    total_cost), `gap` (the assignment's summed cost less the optimum's,
    computed in Fraction) and `passed`: the gap is at most 0, with no
    tolerance, and, on square problems, the optimum is at least kp less
    1e-9 (weak duality).
    """
    square = problem.n == problem.m
    best = exact_injection(problem)
    kp = exact_kp(problem).objective
    ratio = best.total_cost / kp if square and kp > 1e-12 else 1.0
    gap = _exact_sum(problem.cost, assignment.pairs) - _exact_sum(problem.cost, best.pairs)
    passed = gap <= 0 and (not square or best.total_cost >= kp - 1e-9)
    return {"optimum": best.total_cost, "kp": kp, "ratio": ratio,
            "rounded_cost": assignment.total_cost, "gap": float(gap), "passed": passed}
