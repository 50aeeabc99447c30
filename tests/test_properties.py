"""Property tests for invariants the README promises.

Hypothesis runs derandomized, with no deadline and no example database,
so every run of the suite draws the same examples.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from detnum.boxes import AABox, iou, iou_matrix
from detnum.losses import GRADIENT_KINDS, loss_gradient, loss_value, mks_loss
from detnum.metrics import DetectionRecord, confusion_counts, evaluate
from detnum.robustness import GrayImage, set_brightness_result

from helpers import brightness_exact, eval_brute, frac_iou

fixed = settings(derandomize=True, deadline=None, database=None, max_examples=200)

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
sides = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)
boxes = st.builds(AABox, coords, coords, sides, sides)

# small integer lattice, so overlaps (and the matching decisions built on
# them) are common rather than rare
lattice_boxes = st.builds(AABox, st.integers(0, 6), st.integers(0, 6),
                          st.integers(1, 4), st.integers(1, 4))


@fixed
@given(boxes, boxes)
def test_iou_is_symmetric(p, g):
    assert iou(p, g) == iou(g, p)


@fixed
@given(boxes)
def test_iou_of_identical_boxes_is_one(b):
    assert iou(b, AABox(b.cx, b.cy, b.w, b.h)) == 1.0


box_lists = st.lists(st.one_of(boxes, lattice_boxes), max_size=6)


@fixed
@given(box_lists, box_lists)
def test_iou_matrix_equals_scalar_iou_bitwise(ps, gs):
    # gs + ps puts every prediction against an identical box; the lattice
    # draws add edge contact and disjoint pairs
    gs = gs + ps
    m = iou_matrix(ps, gs)
    assert m.shape == (len(ps), len(gs))
    assert [[v.hex() for v in row] for row in m.tolist()] == \
        [[iou(p, g).hex() for g in gs] for p in ps]


@fixed
@given(st.sampled_from(GRADIENT_KINDS), boxes, boxes)
def test_gradient_value_equals_loss_value_bitwise(kind, p, g):
    assert loss_gradient(kind, p, g).value == loss_value(kind, p, g)


@fixed
@given(st.one_of(boxes, lattice_boxes), st.one_of(boxes, lattice_boxes),
       st.floats(allow_nan=False, allow_infinity=False), st.floats(1.0, 8.0))
def test_mks_breakdown_equals_loss_value_of_each_kind_bitwise(p, g, niou, theta):
    # the MKS formula is written once: every field of the breakdown is the
    # loss_value of the kind of the same name
    br = mks_loss(p, g, niou, theta=theta)
    fields = {"angle": br.angle_cost, "distance": br.distance_cost,
              "shape": br.shape_cost, "iou_cost": br.iou_cost}
    for kind, v in fields.items():
        assert v.hex() == loss_value(kind, p, g, theta=theta).hex(), kind
    assert br.total.hex() == loss_value("mks", p, g, theta=theta, negative_iou=niou).hex()
    assert br.negative_iou == niou


def _records(draw, n, confidence):
    out = []
    for _ in range(n):
        conf = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9])) if confidence else 1.0
        out.append(DetectionRecord(draw(st.sampled_from("ab")), draw(st.integers(0, 1)),
                                   draw(lattice_boxes), conf))
    return out


@st.composite
def scenes(draw):
    dets = _records(draw, draw(st.integers(0, 8)), confidence=True)
    gts = _records(draw, draw(st.integers(0, 8)), confidence=False)
    return dets, gts, draw(st.randoms(use_true_random=False))


def _has_iou_tie(dets, gts, threshold):
    """True when some detection overlaps two same-image, same-class ground
    truths equally at or above the threshold: the protocol then picks the
    earlier ground truth, so only such scenes depend on ground-truth order."""
    for d in dets:
        seen = [iou(d.box, g.box) for g in gts
                if g.image_id == d.image_id and g.class_id == d.class_id]
        hits = [v for v in seen if v >= threshold]
        if len(hits) != len(set(hits)):
            return True
    return False


@fixed
@given(scenes(), st.sampled_from([0.1, 0.5]))
def test_evaluate_ignores_ground_truth_order(scene, threshold):
    dets, gts, rnd = scene
    assume(not _has_iou_tie(dets, gts, threshold))
    shuffled = list(gts)
    rnd.shuffle(shuffled)
    assert evaluate(dets, shuffled, threshold) == evaluate(dets, gts, threshold)


@st.composite
def distinct_confidence_scenes(draw):
    dets, gts, rnd = draw(scenes())
    confs = draw(st.lists(st.sampled_from([k / 16 for k in range(1, 16)]),
                          min_size=len(dets), max_size=len(dets), unique=True))
    dets = [DetectionRecord(d.image_id, d.class_id, d.box, c) for d, c in zip(dets, confs)]
    return dets, gts, rnd


@fixed
@given(distinct_confidence_scenes(), st.sampled_from([0.1, 0.5]),
       st.sampled_from(["all_points", "11point"]))
def test_evaluate_ignores_order_of_distinct_confidence_detections(scene, threshold, method):
    dets, gts, rnd = scene
    shuffled = list(dets)
    rnd.shuffle(shuffled)
    assert (evaluate(shuffled, gts, threshold, method=method)
            == evaluate(dets, gts, threshold, method=method))


@st.composite
def multi_class_scenes(draw):
    """Scenes whose records span at least two classes and two images."""
    dets = _records(draw, draw(st.integers(1, 8)), confidence=True)
    gts = _records(draw, draw(st.integers(1, 8)), confidence=False)
    records = dets + gts
    assume(len({r.class_id for r in records}) >= 2 and len({r.image_id for r in records}) >= 2)
    return dets, gts


@fixed
@given(multi_class_scenes(), st.sampled_from([0.1, 0.3, 0.5, 0.7]),
       st.sampled_from(["all_points", "11point"]))
def test_one_matching_pass_equals_per_class_brute_force(scene, threshold, method):
    dets, gts = scene
    # the oracle's IoU is exact, the library's is float: skip draws a
    # rounding could put on the other side of the threshold
    assume(all(abs(float(frac_iou(d.box, g.box)) - threshold) > 1e-9
               for d in dets for g in gts))
    want_ap, want_map, want_counts = eval_brute(dets, gts, threshold, method)
    assert confusion_counts(dets, gts, threshold) == want_counts
    rep = evaluate(dets, gts, threshold, method=method)
    assert {c.class_id: c.ap for c in rep.per_class} == \
        {k: None if v is None else float(v) for k, v in want_ap.items()}
    assert rep.map == float(want_map)


def test_evaluate_iou_tie_goes_to_earlier_ground_truth():
    # d1 overlaps g1 and g2 equally; d2 clears the threshold on g1 only
    g1 = DetectionRecord("a", 0, AABox(0, 0, 2, 2))
    g2 = DetectionRecord("a", 0, AABox(1, 0, 2, 2))
    d1 = DetectionRecord("a", 0, AABox(0.5, 0, 2, 2), 0.9)
    d2 = DetectionRecord("a", 0, AABox(0, 0, 2, 2), 0.5)
    assert _has_iou_tie([d1, d2], [g1, g2], 0.5)
    assert evaluate([d1, d2], [g1, g2]).per_class[0].tp == 1
    assert evaluate([d1, d2], [g2, g1]).per_class[0].tp == 2


# small images where black and white pixels are common, so targets land on
# clipped pieces, on breakpoints and past the reachable ceiling
gray_images = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=5),
                     elements=st.one_of(st.sampled_from([0.0, 255.0]),
                                        st.floats(0.0, 255.0)))
gray_targets = st.one_of(st.floats(0.0, 255.0, exclude_min=True),
                         st.integers(1, 255).map(float))
FLOAT_MAX = Fraction(sys.float_info.max)


@settings(fixed, max_examples=500)
@given(gray_images, gray_targets)
def test_brightness_is_exact_or_saturated(px, target):
    img = GrayImage(px)
    assume(img.mean > 0.0)        # a zero mean takes the additive fallback
    exact = brightness_exact(px, target)
    if exact is None:
        res = set_brightness_result(img, target)
        assert np.array_equal(res.image.pixels, np.where(px > 0.0, 255.0, 0.0))
        return
    scale, want = exact
    # subnormal pixels can need a scale past the largest float: refused;
    # skip scales a rounding could put on either side of that line
    assume(not FLOAT_MAX / 2 < scale < 2 * FLOAT_MAX)
    if scale > FLOAT_MAX:
        with pytest.raises(ValueError, match="the scale overflows"):
            set_brightness_result(img, target)
        return
    res = set_brightness_result(img, target)
    assert not res.used_additive_fallback
    assert abs(res.achieved_mean - target) <= 1e-12
    assert np.max(np.abs(res.image.pixels - want)) <= 1e-12
    # a scale that keeps every pixel a hair below 255 (so the rounding of
    # target / mean cannot clip one) takes one pass: the plain rescale
    if scale * Fraction(float(px.max())) <= 255 * (1 - Fraction(1, 10**9)):
        assert res.iterations == 1
        assert np.array_equal(res.image.pixels, px * (target / img.mean))
