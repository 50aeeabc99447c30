"""Box-regression loss components, the composite MKS loss, and baselines.

Component formulas for a prediction p against a ground truth g, written in
center-size coordinates (Δcx = cx_g − cx_p, etc.):

  angle       Λ = cos(2·(arcsin(x) − π/4)),  x = |Δcy| / σ  (σ = center
              distance; x clamped below 1 before arcsin)
  distance    Δ = 2 − e^{−γ·ρx} − e^{−γ·ρy},  γ = 2 − Λ,
              ρx = (Δcx / c_w)², ρy = (Δcy / c_h)² with c_w, c_h the
              smallest-enclosing-box width/height
  shape       Ω = (1 − e^{−ωw})^θ + (1 − e^{−ωh})^θ,
              ωw = |w − w_g| / max(w, w_g), ωh likewise; θ defaults to 4
  iou cost    1 − IoU

The composite ("mks") total weights the IoU cost by a negative-IoU factor
coming from the transport-matching stage:

  total = negative_iou · (1 − IoU) + (Δ + Ω) / 2

On the equal-cardinality uniform matching problems produced here the
negative-IoU factor collapses to 1 − IoU, making the first term a squared
IoU gap. The conventional additive form 1 − IoU + (Δ + Ω)/2 is baseline
kind "siou" (the composite with the factor fixed at 1), next to "giou",
"diou", and "ciou". `loss_value(kind, ...)` evaluates every component and
loss by name; `mks_loss` returns the composite with its breakdown. All box
geometry comes from `boxes`.

Gradients are forward-mode algorithmic derivatives over (cx, cy, w, h) of
the prediction box; non-differentiable configurations (branch ties,
coincident centers, the arcsin clamp) are detected and flagged rather than
returning NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import dual as dm
from .boxes import AABox, corners, enclosure, iou as _box_iou, overlap

__all__ = [
    "DEFAULT_THETA", "GRADIENT_KINDS", "BASELINE_KINDS",
    "LossBreakdown", "GradientResult",
    "mks_loss", "loss_value", "loss_gradient", "singularity_reasons",
]

DEFAULT_THETA = 4.0

_SIGMA_TINY = 1e-9
_X_CLAMP = 1.0 - 1e-7

BASELINE_KINDS = ("giou", "diou", "ciou", "siou")
GRADIENT_KINDS = ("angle", "distance", "shape", "iou_cost", "mks") + BASELINE_KINDS

# kinds whose surface contains each family of branch points
_ANGLE_KINDS = frozenset({"angle", "distance", "mks", "siou"})
_CORNER_KINDS = frozenset({"distance", "iou_cost", "mks", "siou", "giou", "diou", "ciou"})
_OVERLAP_KINDS = frozenset({"iou_cost", "mks", "siou", "giou", "diou", "ciou"})
_SHAPE_KINDS = frozenset({"shape", "mks", "siou"})


@dataclass(frozen=True)
class LossBreakdown:
    """Per-component view of one mks_loss evaluation."""

    angle_cost: float
    distance_cost: float
    shape_cost: float
    iou_cost: float
    negative_iou: float
    total: float


@dataclass(frozen=True)
class GradientResult:
    """Value and d/d(cx, cy, w, h) of the prediction box for one loss kind.

    singular is True when the pair sits within 1e-9 of a branch point; the
    gradient then is the one-sided derivative of the branch the primal
    values select (the zero vector for exactly identical boxes).
    """

    value: float
    grad: tuple[float, float, float, float]
    singular: bool
    reasons: tuple[str, ...]


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta) or theta < 1.0:
        raise ValueError(f"theta must be >= 1, got {theta!r}")
    return theta


def _check_negative_iou(negative_iou):
    """None (the collapsed 1 − IoU) or a finite float."""
    if negative_iou is not None:
        negative_iou = float(negative_iou)
        if not math.isfinite(negative_iou):
            raise ValueError(f"negative_iou must be finite, got {negative_iou!r}")
    return negative_iou


# ---------------------------------------------------------------------------
# generic cores: work on plain floats or dual numbers alike
# ---------------------------------------------------------------------------

def _angle_core(pf, gf):
    dx = gf[0] - pf[0]
    dy = gf[1] - pf[1]
    d2 = dx * dx + dy * dy
    if math.sqrt(dm.value(d2)) < _SIGMA_TINY:
        # coincident centers: x = 0/0 is undefined; 0 is the limit along
        # axis-aligned approach paths and the distance cost vanishes here
        # anyway, so Λ's value is inert. Tested before the square root,
        # whose derivative is a division by zero at 0.
        return 0.0
    x = dm.fabs(dy) / dm.sqrt(d2)
    x = dm.vmin(x, _X_CLAMP)  # keep arcsin' finite at the x = 1 endpoint
    return dm.cos(2.0 * (dm.arcsin(x) - math.pi / 4.0))


def _distance_core(pf, gf, lam):
    cw, ch = enclosure(pf, gf)
    gamma = 2.0 - lam
    tx = (gf[0] - pf[0]) / cw
    ty = (gf[1] - pf[1]) / ch
    return 2.0 - dm.exp(-(gamma * (tx * tx))) - dm.exp(-(gamma * (ty * ty)))


def _shape_core(pf, gf, theta):
    pw, ph, gw, gh = pf[2], pf[3], gf[2], gf[3]
    ww = dm.fabs(pw - gw) / dm.vmax(pw, gw)
    wh = dm.fabs(ph - gh) / dm.vmax(ph, gh)
    return (1.0 - dm.exp(-ww)) ** theta + (1.0 - dm.exp(-wh)) ** theta


def _mks_terms(pf, gf, theta, negative_iou):
    """(Λ, Δ, Ω, 1 − IoU, total) of the composite; a None negative_iou
    stands for the collapsed factor 1 − IoU."""
    lam = _angle_core(pf, gf)
    delta = _distance_core(pf, gf, lam)
    omega = _shape_core(pf, gf, theta)
    iuc = 1.0 - _box_iou(pf, gf)
    niou = iuc if negative_iou is None else negative_iou
    return lam, delta, omega, iuc, niou * iuc + (delta + omega) / 2.0


def _giou_core(pf, gf):
    iou_v, union = overlap(pf, gf)
    cw, ch = enclosure(pf, gf)
    hull = cw * ch
    return 1.0 - iou_v + (hull - union) / hull


def _diou_core(pf, gf):
    iou_v = _box_iou(pf, gf)
    cw, ch = enclosure(pf, gf)
    dx = gf[0] - pf[0]
    dy = gf[1] - pf[1]
    return 1.0 - iou_v + (dx * dx + dy * dy) / (cw * cw + ch * ch)


def _ciou_core(pf, gf):
    base = _diou_core(pf, gf)
    iou_v = _box_iou(pf, gf)
    k = 4.0 / (math.pi * math.pi)
    t = dm.atan(gf[2] / gf[3]) - dm.atan(pf[2] / pf[3])
    v = k * (t * t)
    denom = (1.0 - iou_v) + v
    if denom < 1e-12:
        # p ≅ g: the aspect term α·v = v²/denom is 0/0; both gaps vanish,
        # so the term is dropped (flagged singular by the gradient path)
        return base
    return base + (v * v) / denom


# kind -> core(pf, gf, theta, negative_iou), in GRADIENT_KINDS order
_CORES = {
    "angle": lambda pf, gf, theta, niou: _angle_core(pf, gf),
    "distance": lambda pf, gf, theta, niou: _distance_core(pf, gf, _angle_core(pf, gf)),
    "shape": lambda pf, gf, theta, niou: _shape_core(pf, gf, theta),
    "iou_cost": lambda pf, gf, theta, niou: 1.0 - _box_iou(pf, gf),
    "mks": lambda pf, gf, theta, niou: _mks_terms(pf, gf, theta, niou)[-1],
    "giou": lambda pf, gf, theta, niou: _giou_core(pf, gf),
    "diou": lambda pf, gf, theta, niou: _diou_core(pf, gf),
    "ciou": lambda pf, gf, theta, niou: _ciou_core(pf, gf),
    "siou": lambda pf, gf, theta, niou: _mks_terms(pf, gf, theta, 1.0)[-1],
}


def _check_kind(kind: str) -> str:
    if kind not in GRADIENT_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {GRADIENT_KINDS}")
    return kind


# ---------------------------------------------------------------------------
# public loss values
# ---------------------------------------------------------------------------

def mks_loss(p: AABox, g: AABox, negative_iou: float,
             theta: float = DEFAULT_THETA) -> LossBreakdown:
    """Composite loss with full per-component breakdown.

    negative_iou is supplied by the matching stage (or the caller); on
    equal-cardinality uniform matching it equals 1 − IoU(p, g). Each field
    equals `loss_value` of the kind of the same name, bit for bit.
    """
    theta = _check_theta(theta)
    negative_iou = _check_negative_iou(float(negative_iou))
    lam, delta, omega, iuc, total = _mks_terms(p, g, theta, negative_iou)
    return LossBreakdown(angle_cost=lam, distance_cost=delta, shape_cost=omega,
                         iou_cost=iuc, negative_iou=negative_iou, total=total)


def loss_value(kind: str, p: AABox, g: AABox, *,
               theta: float = DEFAULT_THETA, negative_iou=None) -> float:
    """Scalar value of any gradient-checkable kind (components included).

    For kind "mks" with negative_iou=None the factor is the collapsed
    self-consistent 1 − IoU(p, g); passing a number treats it as a constant.
    """
    k = _check_kind(kind)
    theta = _check_theta(theta)
    return float(_CORES[k](p, g, theta, _check_negative_iou(negative_iou)))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def singularity_reasons(kind: str, p: AABox, g: AABox, tol: float = 1e-9) -> tuple[str, ...]:
    """Branch points of the given kind within tol of this pair.

    The loss surfaces are piecewise smooth; listed here are the boundaries
    (min/max/abs ties, the arcsin clamp, coincident centers, the edge of
    the zero-overlap plateau, the ciou aspect-term pole) where one-sided
    derivatives disagree. Distances are in the boxes' coordinate units.
    """
    k = _check_kind(kind)
    out = []

    def near(margin, name):
        if margin < tol:
            out.append(name)

    dx = g.cx - p.cx
    dy = g.cy - p.cy
    sigma = math.hypot(dx, dy)
    if k in _ANGLE_KINDS:
        near(sigma, "coincident-centers")
        if sigma >= tol:
            near(abs(dy), "angle-x-zero")
            near(sigma - abs(dy), "angle-x-one")
    (px1, py1, px2, py2), (gx1, gy1, gx2, gy2) = corners(p), corners(g)
    if k in _CORNER_KINDS:
        near(abs(px1 - gx1), "corner-tie-x1")
        near(abs(px2 - gx2), "corner-tie-x2")
        near(abs(py1 - gy1), "corner-tie-y1")
        near(abs(py2 - gy2), "corner-tie-y2")
    if k in _OVERLAP_KINDS:
        near(abs(min(px2, gx2) - max(px1, gx1)), "overlap-x-edge")
        near(abs(min(py2, gy2) - max(py1, gy1)), "overlap-y-edge")
    if k in _SHAPE_KINDS:
        near(abs(p.w - g.w), "equal-widths")
        near(abs(p.h - g.h), "equal-heights")
    if k == "ciou":
        t = math.atan(g.w / g.h) - math.atan(p.w / p.h)
        v = 4.0 / (math.pi * math.pi) * t * t
        near((1.0 - _box_iou(p, g)) + v, "ciou-alpha-pole")
    return tuple(out)


def loss_gradient(kind: str, p: AABox, g: AABox, *,
                  theta: float = DEFAULT_THETA, negative_iou=None) -> GradientResult:
    """Analytic d/d(cx, cy, w, h) of the prediction box for one loss kind.

    Forward-mode duals through the same formulas as loss_value, so value
    and gradient always describe the same function. At exactly identical
    boxes the (sub)gradient convention is the zero vector, flagged
    singular; near-branch-point pairs (within 1e-9) keep their
    one-sided derivative but are flagged so callers can exclude them from
    finite-difference comparisons.
    """
    k = _check_kind(kind)
    theta = _check_theta(theta)
    negative_iou = _check_negative_iou(negative_iou)
    if p == g:
        val = loss_value(k, p, g, theta=theta, negative_iou=negative_iou)
        return GradientResult(val, (0.0, 0.0, 0.0, 0.0), True, ("identical-boxes",))
    reasons = singularity_reasons(k, p, g)
    pd = dm.seed(p)
    out = _CORES[k](pd, g, theta, negative_iou)
    return GradientResult(dm.value(out), dm.grad(out), bool(reasons), reasons)
