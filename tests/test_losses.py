import math

import numpy as np
import pytest

from detnum import dual as dm
from detnum.boxes import AABox, iou
from detnum.losses import (
    BASELINE_KINDS,
    GRADIENT_KINDS,
    loss_gradient,
    loss_value,
    mks_loss,
    singularity_reasons,
)

from helpers import fd_grad, rand_box, rel_err

P_WORKED = AABox(1, 1, 2, 2)
G_WORKED = AABox(2, 2, 2, 2)

# high-precision reference values for the worked pair, frozen from an
# independent 40-digit evaluation of the closed-form expressions
DELTA_WORKED = 0.21032136637126045          # 2 - 2*exp(-1/9)
MKS_TOTAL_WORKED = 0.8398545607366507       # (6/7)^2 + DELTA/2
OMEGA_HALFWIDTH = 0.023968650821013612      # (1 - exp(-1/2))^4
GIOU_WORKED = 1.0793650793650793            # 68/63
DIOU_WORKED = 0.9682539682539683            # 61/63
SIOU_STD_WORKED = 0.9623035403284874        # 6/7 + DELTA/2


def unit_at(cx, cy):
    return AABox(cx, cy, 1, 1)


# ---------------------------------------------------------------------------
# angle cost
# ---------------------------------------------------------------------------

def test_angle_horizontal_alignment_is_zero():
    assert abs(loss_value("angle", unit_at(0, 0), unit_at(1, 0))) < 1e-12


def test_angle_diagonal_alignment_is_one():
    assert loss_value("angle", unit_at(0, 0), unit_at(1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_angle_vertical_alignment_is_zero_up_to_clamp():
    # x is clamped just below 1 before arcsin, leaving a ~9e-4 residue
    assert abs(loss_value("angle", unit_at(0, 0), unit_at(0, 1))) < 1e-3


def test_angle_coincident_centers_defined_as_zero():
    assert loss_value("angle", AABox(1, 1, 2, 3), AABox(1, 1, 5, 1)) == 0.0


def test_angle_range_and_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(300):
        p, g = rand_box(rng), rand_box(rng)
        v = loss_value("angle", p, g)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(loss_value("angle", g, p), abs=1e-12)


def test_angle_maximized_at_45_degrees():
    # sweep the alignment angle; the cost must peak at 45 degrees
    angles = np.linspace(0.01, math.pi / 2 - 0.01, 181)
    vals = [loss_value("angle", unit_at(0, 0), unit_at(math.cos(a), math.sin(a)))
            for a in angles]
    peak = int(np.argmax(vals))
    assert abs(angles[peak] - math.pi / 4) < 0.02
    assert vals[peak] == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# distance cost
# ---------------------------------------------------------------------------

def test_distance_identical_centers_is_zero():
    p = AABox(2, 3, 1, 1)
    g = AABox(2, 3, 4, 2)
    assert loss_value("distance", p, g) == 0.0


def test_distance_worked_pair_frozen_value():
    d = loss_value("distance", P_WORKED, G_WORKED)
    assert d == pytest.approx(DELTA_WORKED, abs=1e-12)
    assert d == pytest.approx(2.0 - 2.0 * math.exp(-1.0 / 9.0), abs=1e-12)


def test_distance_grows_monotonically_toward_family_sup():
    # same-size boxes pulled apart along the diagonal: Lambda = 1 so
    # gamma = 1, each rho term climbs toward 1, and the cost increases
    # toward (never reaching) its sup on this family, 2 - 2/e
    sup = 2.0 - 2.0 * math.exp(-1.0)
    prev = -1.0
    for t in [1, 2, 4, 8, 16, 32, 64]:
        p = unit_at(0, 0)
        g = unit_at(t, t)
        d = loss_value("distance", p, g)
        assert d > prev
        prev = d
    assert prev < sup
    assert prev > sup - 0.03


# ---------------------------------------------------------------------------
# shape cost
# ---------------------------------------------------------------------------

def test_shape_equal_sizes_is_zero():
    assert loss_value("shape", AABox(0, 0, 2, 3), AABox(9, -4, 2, 3)) == 0.0


def test_shape_half_width_frozen_value():
    v = loss_value("shape", AABox(0, 0, 1, 5), AABox(0, 0, 2, 5), theta=4)
    assert v == pytest.approx(OMEGA_HALFWIDTH, abs=1e-12)
    assert v == pytest.approx((1.0 - math.exp(-0.5)) ** 4, abs=1e-12)


def test_shape_swap_invariant():
    rng = np.random.default_rng(37)
    for _ in range(200):
        p, g = rand_box(rng), rand_box(rng)
        assert loss_value("shape", p, g) == pytest.approx(loss_value("shape", g, p), abs=1e-15)


def test_shape_monotone_in_size_ratio():
    prev = -1.0
    for w in [1.0, 1.5, 2.0, 3.0, 5.0, 9.0]:
        v = loss_value("shape", AABox(0, 0, w, 1), AABox(0, 0, 1, 1), theta=4)
        assert v > prev
        prev = v


def test_shape_theta_validation():
    with pytest.raises(ValueError):
        loss_value("shape", P_WORKED, G_WORKED, theta=0.5)


# ---------------------------------------------------------------------------
# composite loss
# ---------------------------------------------------------------------------

def test_mks_identical_boxes_all_components_zero():
    b = AABox(4.2, -1.0, 3.0, 0.7)
    for niou in [0.0, 0.3, 6 / 7, 1.0]:
        r = mks_loss(b, b, niou)
        assert r.total == 0.0
        assert r.angle_cost == 0.0
        assert r.distance_cost == 0.0
        assert r.shape_cost == 0.0
        assert r.iou_cost == 0.0


def test_mks_worked_pair_breakdown():
    r = mks_loss(P_WORKED, G_WORKED, 6 / 7)
    assert r.iou_cost == pytest.approx(6 / 7, abs=1e-15)
    assert r.angle_cost == pytest.approx(1.0, abs=1e-12)
    assert r.distance_cost == pytest.approx(DELTA_WORKED, abs=1e-12)
    assert r.shape_cost == 0.0
    assert r.total == pytest.approx(MKS_TOTAL_WORKED, abs=1e-12)


def test_mks_disjoint_far_apart_structure():
    # equal sizes far apart: shape term is 0, iou cost saturates at 1, so
    # total = negative_iou + delta/2
    p = unit_at(0, 0)
    g = unit_at(40, 0)
    r = mks_loss(p, g, 0.9)
    assert r.shape_cost == 0.0
    assert r.iou_cost == 1.0
    assert r.total == pytest.approx(0.9 + r.distance_cost / 2.0, abs=1e-12)


def test_mks_rejects_nonfinite_negative_iou():
    with pytest.raises(ValueError):
        mks_loss(P_WORKED, G_WORKED, float("nan"))


@pytest.mark.parametrize("entry", [
    lambda niou: mks_loss(P_WORKED, G_WORKED, niou).total,
    lambda niou: loss_value("mks", P_WORKED, G_WORKED, negative_iou=niou),
    lambda niou: loss_gradient("mks", P_WORKED, G_WORKED, negative_iou=niou).value,
], ids=["mks_loss", "loss_value", "loss_gradient"])
def test_every_entry_point_checks_negative_iou_alike(entry):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"negative_iou must be finite, got {bad!r}"):
            entry(bad)
    # anything float() accepts is taken as that float
    assert entry("0.5") == entry(0.5)


def test_total_nonnegative_and_zero_iff_identical():
    rng = np.random.default_rng(41)
    for _ in range(500):
        p, g = rand_box(rng), rand_box(rng)
        r = mks_loss(p, g, 1.0 - iou(p, g))
        assert r.total >= 0.0
        if p != g:
            assert r.total > 0.0
    b = rand_box(rng)
    assert mks_loss(b, b, 0.0).total == 0.0


def test_translation_and_scale_invariance_of_total():
    rng = np.random.default_rng(43)
    for _ in range(100):
        p, g = rand_box(rng), rand_box(rng)
        base = mks_loss(p, g, 1.0 - iou(p, g))
        dx, dy = rng.uniform(-30, 30, size=2)
        s = float(rng.uniform(0.2, 8.0))
        p2 = AABox((p.cx + dx) * s, (p.cy + dy) * s, p.w * s, p.h * s)
        g2 = AABox((g.cx + dx) * s, (g.cy + dy) * s, g.w * s, g.h * s)
        moved = mks_loss(p2, g2, 1.0 - iou(p2, g2))
        assert moved.total == pytest.approx(base.total, abs=1e-9)
        assert moved.angle_cost == pytest.approx(base.angle_cost, abs=1e-9)
        assert moved.shape_cost == pytest.approx(base.shape_cost, abs=1e-9)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_baseline_identical_boxes_zero(kind):
    b = AABox(1.0, 2.0, 3.0, 4.0)
    assert loss_value(kind, b, b) == 0.0


def test_baseline_worked_pair_frozen_values():
    assert loss_value("giou", P_WORKED, G_WORKED) == pytest.approx(GIOU_WORKED, abs=1e-12)
    assert loss_value("diou", P_WORKED, G_WORKED) == pytest.approx(DIOU_WORKED, abs=1e-12)
    # both boxes are square, so the ciou aspect term vanishes
    assert loss_value("ciou", P_WORKED, G_WORKED) == pytest.approx(DIOU_WORKED, abs=1e-12)
    assert loss_value("siou", P_WORKED, G_WORKED) == pytest.approx(SIOU_STD_WORKED, abs=1e-12)


def test_giou_disjoint_exceeds_plain_iou_loss():
    p = unit_at(0, 0)
    g = unit_at(5, 0)
    assert loss_value("giou", p, g) > 1.0


def test_baseline_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown loss kind 'yolo'"):
        loss_value("yolo", P_WORKED, G_WORKED)


def test_loss_value_mks_collapsed_negative_iou():
    # negative_iou=None collapses to the self-consistent 1 - IoU factor
    v = loss_value("mks", P_WORKED, G_WORKED)
    assert v == pytest.approx(MKS_TOTAL_WORKED, abs=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_identical_boxes_zero_vector_flagged():
    b = AABox(2, 2, 3, 1)
    for kind in GRADIENT_KINDS:
        r = loss_gradient(kind, b, b)
        assert r.singular
        assert r.reasons == ("identical-boxes",)
        assert r.grad == (0.0, 0.0, 0.0, 0.0)


def test_gradient_value_matches_loss_value():
    rng = np.random.default_rng(47)
    for _ in range(100):
        p, g = rand_box(rng), rand_box(rng)
        for kind in GRADIENT_KINDS:
            r = loss_gradient(kind, p, g)
            assert r.value == pytest.approx(loss_value(kind, p, g), abs=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(53)
    step = 1e-5
    checked = 0
    target = 1000
    while checked < target:
        p, g = rand_box(rng), rand_box(rng)
        for kind in GRADIENT_KINDS:
            if singularity_reasons(kind, p, g, tol=10 * step):
                continue
            r = loss_gradient(kind, p, g)
            fd = fd_grad(lambda b: loss_value(kind, b, g), p, step=step)
            for a, b in zip(r.grad, fd):
                assert rel_err(a, b) < 1e-4, (kind, p, g, r.grad, tuple(fd))
            checked += 1
    assert checked >= target


def test_gradient_distance_increasing_under_x_translation():
    # pure x-translation away from the target: the distance cost must climb
    g = AABox(0, 0, 2, 2)
    for cx in [0.5, 1.0, 2.0, 4.0]:
        p = AABox(cx, 0, 2, 2)
        r = loss_gradient("distance", p, g)
        assert r.grad[0] > 0.0


def test_singularity_reasons_names_are_informative():
    # equal sizes and coincident centers flag the expected branch points
    p = AABox(0, 0, 2, 2)
    g = AABox(0, 0, 2, 2)
    reasons = singularity_reasons("mks", p, g, tol=1e-9)
    assert "coincident-centers" in reasons
    assert "equal-widths" in reasons
    assert "equal-heights" in reasons


def test_gradient_unknown_kind_rejected():
    with pytest.raises(ValueError):
        loss_gradient("nope", P_WORKED, G_WORKED)


@pytest.mark.parametrize("kind", ["siou-std", "siou-standard", "iou-cost", "MKS", " mks"])
def test_only_canonical_kind_spellings_are_accepted(kind):
    with pytest.raises(ValueError, match="unknown loss kind"):
        loss_value(kind, P_WORKED, G_WORKED)


def test_gradient_at_coincident_centers_is_finite_and_flagged():
    # same centre, different sizes: the angle term's sqrt sits at 0
    p, g = AABox(4.0, 4.0, 6.0, 3.0), AABox(4.0, 4.0, 2.0, 2.0)
    for kind in ("angle", "distance", "mks", "siou"):
        gr = loss_gradient(kind, p, g)
        assert gr.value == loss_value(kind, p, g)
        assert all(math.isfinite(c) for c in gr.grad)
        assert "coincident-centers" in gr.reasons


def test_dual_compares_by_primal_and_min_max_keep_the_first_on_ties():
    a, b = dm.Dual(1.0, (1.0, 0.0, 0.0, 0.0)), dm.Dual(1.0, (0.0, 1.0, 0.0, 0.0))
    assert a <= b and a >= b and not a < b and not a > b
    assert 0.5 < a and a < 2.0 and 1.0 <= a and not (2.0 <= a)
    assert dm.vmin(a, b) is a and dm.vmax(a, b) is a and dm.vmin(b, a) is b
    assert dm.vmin(a, 1.0) is a and dm.vmin(1.0, a) == 1.0
    assert dm.vmax(a, 3.0) == 3.0 and dm.vmin(a, 3.0) is a
