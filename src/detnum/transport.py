"""Discrete Monge-Kantorovich matching between box sets.

Builds box-to-box cost matrices (1 − IoU by default), solves the
entropic-regularized Kantorovich problem with a log-domain Sinkhorn-Knopp
iteration, and provides exact small-instance solvers for the Kantorovich
LP (`exact_kp`), the Monge assignment (`exact_mp`, Hungarian) and the
rectangular injection (`exact_injection`, enumeration and Hungarian).

The loss's negative-IoU factor MP/KP − IoU(p, g) collapses to 1 − IoU:
on equal-cardinality uniform problems MP = KP (Birkhoff extremality of
the assignment polytope), and without a Monge map (unequal cardinalities)
the ratio is 1 by convention. `match` passes 1 − IoU to `mks_loss`.

Costs must be finite: `build_cost_matrix` only produces 1 − IoU in [0, 1]
or finite siou values, so no solver handles forbidden (+inf) entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from ._common import frozen_array
from .boxes import iou as _box_iou, iou_matrix
from .losses import DEFAULT_THETA, LossBreakdown, loss_value, mks_loss

__all__ = [
    "DEFAULT_EPSILON", "DEFAULT_MAX_ITERS", "DEFAULT_TOL",
    "OTProblem", "TransportPlan", "Assignment", "MatchConfig", "MatchResult",
    "InfeasibleMongeError", "uniform_marginals", "build_cost_matrix",
    "sinkhorn", "exact_kp", "exact_mp", "exact_injection",
    "round_plan", "match",
]

DEFAULT_EPSILON = 0.01
DEFAULT_MAX_ITERS = 1000
DEFAULT_TOL = 1e-9

_EXACT_CAP = 64     # largest side exact_kp will hand to the LP
_BRUTE_CAP = 8      # largest smaller side exact_injection will enumerate
_INJECTION_CAP = 500_000   # most maps exact_injection will enumerate


class InfeasibleMongeError(ValueError):
    """Raised when no Monge map exists (n != m or non-uniform marginals)."""


@dataclass(frozen=True, eq=False)
class OTProblem:
    """A discrete transport problem: cost (n, m), source mu, target nu."""

    cost: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=float)
        if cost.ndim != 2 or cost.size == 0:
            raise ValueError(f"cost must be a nonempty 2-d matrix, got shape {cost.shape}")
        if not np.isfinite(cost).all():
            raise ValueError("cost entries must be finite")
        mu = np.asarray(self.mu, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        if mu.shape != (cost.shape[0],) or nu.shape != (cost.shape[1],):
            raise ValueError("mu/nu lengths must match the cost matrix sides")
        for name, v in (("mu", mu), ("nu", nu)):
            if not np.isfinite(v).all() or (v < 0).any():
                raise ValueError(f"{name} entries must be finite and >= 0")
            if abs(float(v.sum()) - 1.0) > 1e-9:
                raise ValueError(f"{name} must sum to 1 within 1e-9, got {float(v.sum())!r}")
        object.__setattr__(self, "cost", frozen_array(cost))
        object.__setattr__(self, "mu", frozen_array(mu))
        object.__setattr__(self, "nu", frozen_array(nu))

    @property
    def n(self) -> int:
        return self.cost.shape[0]

    @property
    def m(self) -> int:
        return self.cost.shape[1]


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling, its objective <cost, plan>, and solve diagnostics."""

    plan: np.ndarray
    objective: float
    marginal_violation: float
    converged: bool = True
    iterations: int = 0

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


def uniform_marginals(k: int) -> np.ndarray:
    if k < 1:
        raise ValueError(f"need at least one support point, got k={k}")
    return np.full(k, 1.0 / k)


def build_cost_matrix(preds, gts, *, kind: str = "iou",
                      theta: float = DEFAULT_THETA) -> OTProblem:
    """Box-to-box cost matrix with uniform marginals.

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
    return OTProblem(cost, uniform_marginals(len(preds)), uniform_marginals(len(gts)))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - amax), axis=axis))
    return out + np.squeeze(amax, axis=axis)


_ANNEAL_EPS_START = 0.3
_ANNEAL_EPS_FACTOR = 3.0
_ANNEAL_STAGE_ITERS = 25


def sinkhorn(problem: OTProblem, epsilon: float = DEFAULT_EPSILON,
             max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL,
             *, anneal: bool = False) -> TransportPlan:
    """Entropic-regularized plan by log-domain Sinkhorn-Knopp scaling.

    Costs are rescaled by their largest absolute entry before
    exponentiation so epsilon always acts on a [0, 1]-scale matrix. Stops
    when the worst row/column marginal deviation drops below tol or after
    max_iters; non-convergence is reported through the converged flag, not
    raised.

    anneal=True warm-starts the potentials through a decreasing epsilon
    schedule (0.3 → epsilon, factor 3, 25 sweeps each) before iterating at
    the target epsilon. The fixed point is unchanged — annealing only
    shortens the approach, which matters when epsilon is small enough to
    make the plan nearly a permutation. max_iters then bounds the final
    stage; reported iterations count every sweep including warm-up.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be > 0 and finite, got {epsilon!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters!r}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    cost = problem.cost
    scale = float(np.abs(cost).max()) or 1.0
    norm_cost = cost / scale

    stages = [epsilon]
    if anneal:
        e = _ANNEAL_EPS_START
        head = []
        while e > epsilon * (1.0 + 1e-12):
            head.append(e)
            e /= _ANNEAL_EPS_FACTOR
        stages = head + [epsilon]

    with np.errstate(divide="ignore"):
        log_mu = np.log(problem.mu)
        log_nu = np.log(problem.nu)
    u = np.zeros(problem.n)
    v = np.zeros(problem.m)
    converged = False
    iterations = 0
    for si, eps_k in enumerate(stages):
        mr = norm_cost / -eps_k
        final = si == len(stages) - 1
        budget = max_iters if final else _ANNEAL_STAGE_ITERS
        for k in range(1, budget + 1):
            v = log_nu - _logsumexp(mr + u[:, None], axis=0)
            u = log_mu - _logsumexp(mr + v[None, :], axis=1)
            iterations += 1
            # the marginal check costs as much as a sweep, so the annealed
            # path only looks every 10th sweep
            if final and (not anneal or k % 10 == 0 or k == budget):
                plan = np.exp(mr + u[:, None] + v[None, :])
                violation = _marginal_violation(plan, problem)
                if violation < tol:
                    converged = True
                    break
        if not final:
            # keep the dual potentials eps_k * u fixed across the switch
            u *= eps_k / stages[si + 1]
            v *= eps_k / stages[si + 1]
    objective = float((plan * cost).sum())
    return TransportPlan(plan, objective, violation, converged, iterations)


def _marginal_violation(plan: np.ndarray, problem: OTProblem) -> float:
    """Worst row or column deviation of plan from the problem's marginals."""
    return max(float(np.abs(plan.sum(axis=1) - problem.mu).max()),
               float(np.abs(plan.sum(axis=0) - problem.nu).max()))


def exact_kp(problem: OTProblem) -> TransportPlan:
    """Exact Kantorovich optimum by linear programming (desk-scale sizes)."""
    n, m = problem.n, problem.m
    if n > _EXACT_CAP or m > _EXACT_CAP:
        raise ValueError(f"exact_kp caps sides at {_EXACT_CAP}, got {n}x{m}")
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


@lru_cache(maxsize=None)
def _perm_table(n: int, k: int) -> np.ndarray:
    """Every ordered selection of k of range(n), one per row, in
    lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n), k))
    return frozen_array(np.fromiter(flat, dtype=np.int64).reshape(-1, k), dtype=np.int64)


def exact_mp(problem: OTProblem) -> Assignment:
    """Exact Monge optimum: the minimum-cost permutation, by Hungarian
    assignment (`linear_sum_assignment`)."""
    n, m = problem.n, problem.m
    if n != m:
        raise InfeasibleMongeError(
            f"Monge map needs equal cardinalities, got {n} predictions vs {m} gts")
    w = 1.0 / n
    if (np.abs(problem.mu - w).max() > 1e-9) or (np.abs(problem.nu - w).max() > 1e-9):
        raise InfeasibleMongeError("Monge map needs uniform marginals on both sides")
    _, perm = linear_sum_assignment(problem.cost)   # rows come back as 0..n-1
    pairs = tuple((i, int(perm[i])) for i in range(n))
    return Assignment(pairs, (), float(problem.cost[np.arange(n), perm].sum()) / n)


def exact_injection(problem: OTProblem) -> tuple[float, float]:
    """Minimum summed cost of a one-to-one map from the smaller side into
    the larger, by two independent routes: (enumeration, Hungarian).

    Enumeration visits every injection, so it caps the smaller side at 8
    and the count at 500000 maps. It sums each map's entries left to
    right, as Python's sum does; the Hungarian route sums with NumPy.
    """
    n, m = problem.n, problem.m
    k, big = min(n, m), max(n, m)
    count = math.perm(big, k)
    if k > _BRUTE_CAP or count > _INJECTION_CAP:
        raise ValueError(
            f"injection oracle supports min side <= {_BRUTE_CAP} and <= {_INJECTION_CAP} "
            f"maps, got {n}x{m} ({count} maps)")
    cost = problem.cost if n <= m else problem.cost.T
    picked = cost[np.arange(k)[None, :], _perm_table(big, k)]
    # cumsum runs strictly left to right; .sum() would sum pairwise
    totals = np.cumsum(picked, axis=1, out=picked)[:, -1]
    rows, cols = linear_sum_assignment(problem.cost)
    return float(totals.min()), float(problem.cost[rows, cols].sum())


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
    """Assignment plus per-pair loss breakdowns (parallel to pairs) and the
    underlying plan, whose converged flag propagates solver status."""

    assignment: Assignment
    breakdowns: tuple[LossBreakdown, ...]
    plan: TransportPlan


def match(preds, gts, config: MatchConfig | None = None) -> MatchResult:
    """Sinkhorn matching of predictions to ground truths.

    The plan is rounded to a (partial) one-to-one assignment covering
    min(n, m) pairs; surplus predictions are reported unmatched. Each
    matched pair is scored with mks_loss under the collapsed negative-IoU
    convention (ratio = 1: exact on square uniform problems, by definition
    when the Monge side is infeasible).
    """
    cfg = config or MatchConfig()
    preds = list(preds)
    gts = list(gts)
    problem = build_cost_matrix(preds, gts, kind=cfg.cost, theta=cfg.theta)
    tp = sinkhorn(problem, cfg.epsilon, cfg.max_iters, cfg.tol)
    pairs = sorted(round_plan(tp.plan))
    breakdowns = tuple(
        mks_loss(preds[i], gts[j], 1.0 - _box_iou(preds[i], gts[j]), theta=cfg.theta)
        for i, j in pairs)
    matched_rows = {i for i, _ in pairs}
    unmatched = tuple(i for i in range(len(preds)) if i not in matched_rows)
    total = float(sum(problem.cost[i, j] for i, j in pairs)) / len(preds)
    assignment = Assignment(tuple(pairs), unmatched, total)
    return MatchResult(assignment, breakdowns, tp)
