"""Property tests for invariants the README promises.

Hypothesis runs derandomized, with no deadline and no example database,
so every run of the suite draws the same examples.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from detnum.boxes import AABox, iou, iou_matrix, iou_pairs
from detnum.fuse import BNParams, FusionBlockParams, fold_fusion_block, fusion_block, random_conv_params
from detnum.losses import GRADIENT_KINDS, loss_gradient, loss_value, mks_loss
from detnum.metrics import DetectionRecord, confusion_counts, evaluate, parse_records
from detnum.robustness import (GrayImage, SweepConfig, add_gaussian_noise, psnr,
                               set_brightness_result, sweep)
from detnum.tensor import Conv2DParams, FeatureTensor, conv2d
from detnum.transport import DEFAULT_EPSILON, OTProblem, sinkhorn

from helpers import (
    brightness_exact,
    brightness_reference,
    conv2d_rowwise,
    eval_brute,
    frac_iou,
    fusion_block_rowwise,
    noisy_reference,
    parse_records_rowwise,
    psnr_reference,
)

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


# every finite centre and positive size, weighted toward magnitudes AABox accepts
finite = st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False))
positive = st.one_of(st.floats(1e-6, 1e6),
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


@fixed
@given(finite, finite, positive, positive)
@example(0.0, 0.0, 1e200, 1e200)          # corner area overflows to inf
@example(0.0, 0.0, 1.3e154, 1.3e154)      # area finite, twice the area is not
@example(0.0, 0.0, 1e-200, 1e-200)        # area underflows to 0
@example(1e10, 0.0, 1e-10, 1.0)           # corners round to equal values
def test_iou_of_identical_boxes_is_one(cx, cy, w, h):
    # any finite centre and positive size: AABox refuses the boxes whose
    # IoU with themselves could not be 1.0, and every box it accepts gives 1.0
    try:
        b = AABox(cx, cy, w, h)
    except ValueError:
        assume(False)
    assert iou(b, AABox(b.cx, b.cy, b.w, b.h)) == 1.0


box_lists = st.lists(st.one_of(boxes, lattice_boxes), max_size=6)


@fixed
@given(box_lists, box_lists)
@example([AABox(0, 0, 2, 2)], [AABox(2, 0, 2, 2), AABox(0, 0, 1, 1), AABox(0, 2, 2, 2)])
def test_iou_matrix_equals_scalar_iou_bitwise(ps, gs):
    # gs + ps puts every prediction against an identical box; the lattice
    # draws add edge contact, nesting and disjoint pairs
    gs = gs + ps
    want = [[iou(p, g).hex() for g in gs] for p in ps]
    m = iou_matrix(ps, gs)
    assert m.shape == (len(ps), len(gs))
    assert [[v.hex() for v in row] for row in m.tolist()] == want
    # the same kernel on the pair shape: row k scores ps[i] against gs[j]
    pairs = iou_pairs(np.repeat(np.reshape(ps, (-1, 4)), len(gs), axis=0),
                      np.tile(np.reshape(gs, (-1, 4)), (len(ps), 1)))
    assert pairs.shape == (len(ps) * len(gs),)
    assert [v.hex() for v in pairs.tolist()] == [v for row in want for v in row]


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


CONFIDENCES = [0.1, 0.3, 0.5, 0.7, 0.9]


def _records(draw, n, confidence):
    out = []
    for _ in range(n):
        conf = draw(st.sampled_from(CONFIDENCES)) if confidence else 1.0
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


@pytest.mark.parametrize("method", ["all_points", "11point"])
@pytest.mark.parametrize("threshold", [0.3, 0.5])
def test_evaluate_equals_brute_force_on_a_multi_image_scene(threshold, method):
    # 30 images, 3 classes, confidences from a set of five: pools of up to
    # six overlapping ground truths, duplicate and stray detections and
    # confidence ties, beyond the eight records the drawn scenes hold.
    # Integer centres and sizes keep every IoU a correctly rounded ratio, so
    # the float and exact IoUs agree on every threshold comparison.
    rng = np.random.default_rng(2020)
    dets, gts = [], []
    for k in range(30):
        image = f"im{k:02d}"
        for _ in range(rng.integers(0, 7)):
            cls = int(rng.integers(0, 3))
            cx, cy, w, h = (int(v) for v in rng.integers([0, 0, 2, 2], [10, 10, 9, 9]))
            gts.append(DetectionRecord(image, cls, AABox(cx, cy, w, h)))
            for _ in range(rng.integers(0, 3)):
                box = AABox(cx + int(rng.integers(-1, 2)), cy + int(rng.integers(-1, 2)),
                            w + int(rng.integers(-1, 2)), h)
                dets.append(DetectionRecord(image, cls, box, float(rng.choice(CONFIDENCES))))
        for _ in range(rng.integers(0, 3)):
            box = AABox(*(int(v) for v in rng.integers([0, 0, 2, 2], [10, 10, 9, 9])))
            dets.append(DetectionRecord(image, int(rng.integers(0, 3)), box,
                                        float(rng.choice(CONFIDENCES))))
    assert len(gts) > 60 and len(dets) > 60
    want_ap, want_map, want_counts = eval_brute(dets, gts, threshold, method)
    assert confusion_counts(dets, gts, threshold) == want_counts
    rep = evaluate(dets, gts, threshold, method=method)
    assert {c.class_id: (c.tp, c.fp, c.fn) for c in rep.per_class} == want_counts
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


# record lines: valid ones with 6 or 7 fields, comments and blank lines,
# and lines with one or two fields replaced by a bad token, a wrong field
# count, or a box on either side of the corner-area bounds
_coord = st.one_of(st.sampled_from(["0", "1.5", "-3", "12.25"]), st.floats(-1e3, 1e3).map(repr))
_size = st.one_of(st.sampled_from(["1", "0.5", "2.75", "1e-3"]), st.floats(0.01, 100.0).map(repr))
_conf = st.one_of(st.sampled_from(["0", "1", "0.5", "1.0"]), st.floats(0.0, 1.0).map(repr))
_bad = st.sampled_from(["x", "1,5", "1.5", "-0.1", "inf", "-inf", "nan", "1e400", "0", "-0.0",
                        "-1", "1e-200", "1e200", "1.3e154", "1e10", "1e-10"])
_area_edges = st.sampled_from([("0", "0", "1e-200", "1e-200"), ("0", "0", "1e200", "1e200"),
                               ("0", "0", "1.3e154", "1.3e154"), ("1e10", "0", "1e-10", "1"),
                               ("0", "0", "1e-150", "1e-150"), ("0", "0", "1e150", "1e150")])


@st.composite
def record_lines(draw):
    fields = [draw(st.sampled_from(["a", "b", "img7"])), draw(st.sampled_from(["0", "1", "17"])),
              draw(_coord), draw(_coord), draw(_size), draw(_size)]
    fields += draw(st.sampled_from([[], [draw(_conf)]]))
    kind = draw(st.sampled_from(["valid", "valid", "comment", "blank", "bad", "bad", "bad",
                                 "count", "area"]))
    if kind == "comment":
        return "#" + draw(st.sampled_from(["", " ", " a 0 1 1 1 1"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    if kind == "bad":
        for i in draw(st.lists(st.integers(1, len(fields) - 1), min_size=1, max_size=2)):
            fields[i] = draw(_bad)
    elif kind == "count":
        n = draw(st.sampled_from([1, 5, 8]))
        fields = (fields + ["1"] * 8)[:n]
    elif kind == "area":
        fields[2:6] = draw(_area_edges)
    return " ".join(fields)


@fixed
@given(st.lists(record_lines(), max_size=8))
@example(["a 0 1 1 2 2", "a 0 0 0 1e200 1e200 0.5"])      # area overflows to inf
@example(["# c", "", "a 0 0 0 1.3e154 1.3e154"])         # twice the area overflows
@example(["a 0 1 1 2 2 0.5", "b 1 1e10 0 1e-10 1"])      # corners round to equal values
@example(["a zero 1 1 0 2", "a 0 1 1 2 2 1.5"])          # the box is checked before the class
@example(["a 0 1 1 2 2 x", "a 0 inf 1 1 1"])             # confidence text, then a later row
@example(["a 0 1 1 -1 -1"])                              # both sizes negative, area positive
@example(["a 0 1 1 2 2 1.5"])                            # confidence above 1
@example(["a 0 1 1 2 2", "a 0 1 1 2 2 -0.1"])            # confidence below 0
def test_record_table_equals_row_by_row_reference(lines):
    # the same records bit for bit, or the same first error with its line
    try:
        want = parse_records_rowwise(lines, source="rec.txt")
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_records(lines, source="rec.txt")
        assert str(got.value) == str(exc)
    else:
        table = parse_records(lines, source="rec.txt")
        assert [repr(r) for r in table] == [repr(r) for r in want]
        assert table.box.shape == (len(want), 4) and not table.box.flags.writeable


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
    # an all-zero image takes the additive fallback; a mean that underflows
    # to 0 (subnormal pixels) does not
    assume(np.any(px > 0.0))
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
        if img.mean > 0.0:
            assert np.array_equal(res.image.pixels, px * (target / img.mean))


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bytes: tells -0.0 from 0.0, unlike ==."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(fixed, max_examples=500)
@given(gray_images, gray_targets)
@example(np.zeros((2, 3)), 0.0)                     # all zero, left as it is
@example(np.zeros((2, 3)), 7.5)                     # the additive fallback
@example(np.array([[0.0, 255.0, 3.0]]), 0.0)        # blanked
@example(np.array([[0.0, 5e-324]]), 1e-300)         # the mean underflows to 0
@example(np.array([[0.0, 5e-324]]), 1.0)            # the scale overflows: refused
@example(np.array([[1.0, 2.0, 250.0, 255.0]]), 120.0)   # clips over several passes
def test_brightness_equals_the_reference_bit_for_bit(px, target):
    try:
        want, achieved, iterations, fallback = brightness_reference(px, target)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            set_brightness_result(GrayImage(px), target)
        assert str(got.value) == str(exc)
        return
    res = set_brightness_result(GrayImage(px), target)
    assert same_bits(res.image.pixels, want)
    assert same_bits(res.achieved_mean, achieved)
    assert res.iterations == iterations and res.used_additive_fallback == fallback


# noise levels from the sweeps' range up to 1e3, down to 1e-300 and exactly 0
noise_magnitudes = st.one_of(st.just(0.0), st.floats(0.0, 0.2), st.floats(0.0, 1e3),
                             st.floats(0.0, 1e-300))
noise_means = st.one_of(noise_magnitudes, noise_magnitudes.map(lambda m: -m))
seeds = st.integers(0, 2**32 - 1)


@settings(fixed, max_examples=500)
@given(gray_images, noise_means, noise_magnitudes, seeds)
@example(np.full((2, 3), 127.5), 0.0, 0.0, 42)          # (0, 0) returns the image itself
@example(np.full((2, 3), 127.5), 0.01, 0.0, 42)         # a mean shift without noise
@example(np.full((20, 16), 127.5), 0.01, 0.01, 42)      # the joint axis of the CLI tests
def test_add_gaussian_noise_is_bitwise_the_fresh_draw(px, mean, var, seed):
    img = GrayImage(px)
    assert np.array_equal(add_gaussian_noise(img, mean, var, seed=seed).pixels,
                          noisy_reference(img, mean, var, seed))


@st.composite
def noise_sweeps(draw):
    """(image, config, threshold): a small noise sweep whose scorer turns
    from clean to miss at threshold, so some coarse interval is refined."""
    img = GrayImage(draw(gray_images))
    coarse = draw(st.sampled_from([0.01, 0.02, 0.05]))
    lo = draw(st.sampled_from([0.0, 0.005]))
    hi = lo + draw(st.integers(0, 4)) * coarse
    fine = coarse / draw(st.sampled_from([2, 4, 5]))
    cfg = SweepConfig("noise", lo, hi, coarse, fine, draw(st.sampled_from(["joint", "mean", "var"])),
                      draw(seeds))
    return img, cfg, draw(st.floats(lo, hi + coarse))


_AXES = {"joint": lambda lv: (lv, lv), "mean": lambda lv: (lv, 0.0), "var": lambda lv: (0.0, lv)}


@settings(fixed, max_examples=300)
@given(noise_sweeps())
def test_noise_sweep_scores_the_fresh_draw_at_every_level(case):
    img, cfg, threshold = case
    seen = {}

    def scorer(level, degraded):
        seen[level] = degraded
        return "clean" if level < threshold else "miss"

    result = sweep(img, cfg, scorer)
    assert sorted(seen) == [e.level for e in result.entries]
    for e in result.entries:
        want = noisy_reference(img, *_AXES[cfg.noise_axis](e.level), cfg.seed)
        assert np.array_equal(seen[e.level].pixels, want)
        assert e.psnr_db == psnr(img, GrayImage(want))


# frames whose nonzero pixels are at least 1, so no level of a brightness
# sweep asks for a scale past the largest float (refusal is checked above)
frame_images = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=5),
                      elements=st.one_of(st.sampled_from([0.0, 255.0]), st.floats(1.0, 255.0)))


@st.composite
def brightness_sweeps(draw):
    """(image, config, threshold): a small brightness sweep whose scorer turns
    from clean to miss at threshold, so some coarse interval is refined."""
    img = GrayImage(draw(frame_images))
    coarse = draw(st.sampled_from([20.0, 40.0, 64.0]))
    lo = draw(st.sampled_from([0.0, 10.0]))
    hi = lo + draw(st.integers(0, 3)) * coarse
    fine = coarse / draw(st.sampled_from([2, 4, 5]))
    return img, SweepConfig("brightness", lo, hi, coarse, fine), draw(st.floats(lo, hi + coarse))


@settings(fixed, max_examples=300)
@given(brightness_sweeps())
def test_brightness_sweep_scores_the_reference_at_every_level(case):
    img, cfg, threshold = case
    seen = {}

    def scorer(level, degraded):
        seen[level] = degraded
        return "clean" if level < threshold else "miss"

    result = sweep(img, cfg, scorer)
    assert sorted(seen) == [e.level for e in result.entries]
    for e in result.entries:
        want, achieved, _, _ = brightness_reference(img.pixels, e.level)
        assert same_bits(seen[e.level].pixels, want)
        assert same_bits(e.achieved_mean, achieved)
        assert same_bits(e.psnr_db, psnr_reference(img.pixels, want))


@settings(fixed, max_examples=200)
@given(st.one_of(brightness_sweeps(), noise_sweeps()))
def test_sweep_images_are_read_only_and_share_no_memory(case):
    # a buffer reused across levels would change a held image after scoring
    img, cfg, threshold = case
    seen = {}

    def scorer(level, degraded):
        assert not degraded.pixels.flags.writeable
        seen[level] = degraded
        return "clean" if level < threshold else "miss"

    sweep(img, cfg, scorer)
    # noise level (0, 0), and level 0 of an all-zero image, hand over the
    # source itself; every other level has pixels of its own
    held = [d.pixels for d in seen.values() if d is not img]
    for i, a in enumerate(held):
        assert not np.shares_memory(a, img.pixels)
        assert not any(np.shares_memory(a, b) for b in held[i + 1:])
    for level, degraded in seen.items():
        if cfg.mode == "brightness":
            want = brightness_reference(img.pixels, level)[0]
        else:
            want = noisy_reference(img, *_AXES[cfg.noise_axis](level), cfg.seed)
        assert same_bits(degraded.pixels, want)


# small problems on unit-scale costs, with epsilons from well below the
# default (warm-started) to well above it and budgets short enough that many
# solves stop unconverged
costs = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
               elements=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
sinkhorn_tols = st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12])


@settings(fixed, max_examples=300)
@given(costs, st.floats(1e-4, 1.0), st.integers(1, 300), sinkhorn_tols)
# the column test passes here while rounding leaves the plan 1.005e-12 off
@example(np.array([[0.7678388019758179, 0.017597976477304877],
                   [0.12982098156158361, 0.25925690652952893],
                   [0.870091964631436, 0.32249837634659284]]),
         0.00026802671290303634, 283, 1e-12)
def test_sinkhorn_converged_plan_is_within_tol(cost, epsilon, max_iters, tol):
    tp = sinkhorn(OTProblem(cost), epsilon, max_iters, tol)
    if tp.converged:
        assert tp.marginal_violation < tol


@settings(fixed, max_examples=300)
@given(costs, st.floats(1e-12, 1.0), st.integers(1, 300), sinkhorn_tols)
def test_sinkhorn_runs_at_most_max_iters(cost, epsilon, max_iters, tol):
    # warm-up sweeps below DEFAULT_EPSILON count against the same budget
    assert sinkhorn(OTProblem(cost), epsilon, max_iters, tol).iterations <= max_iters


# convolution geometries: square and non-square kernels (kw == 1 included,
# which reads the input windows uncopied), both strides, zero and non-zero
# padding, and inputs from the smallest one with a nonempty output (oh == 1)
# upward
kernel_sides = st.sampled_from([1, 2, 3, 5, 7])


@st.composite
def conv_geometries(draw, max_channels=70):
    kh, kw = draw(kernel_sides), draw(kernel_sides)
    ph, pw = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return dict(
        n=draw(st.integers(1, 2)), c=draw(st.integers(1, max_channels)),
        oc=draw(st.integers(1, 70)), kernel=(kh, kw),
        stride=(draw(st.integers(1, 2)), draw(st.integers(1, 2))), padding=(ph, pw),
        h=max(1, kh - 2 * ph) + draw(st.integers(0, 12)),
        w=max(1, kw - 2 * pw) + draw(st.integers(0, 12)),
        seed=draw(st.integers(0, 2**32 - 1)))


def _geometry(n, c, h, w, oc, kernel, stride=(1, 1), padding=(0, 0), seed=0):
    return dict(n=n, c=c, h=h, w=w, oc=oc, kernel=kernel, stride=stride, padding=padding, seed=seed)


@fixed
@given(conv_geometries())
@example(_geometry(1, 16, 8, 8, 16, (1, 1)))                   # a fusion merge
@example(_geometry(1, 51, 4, 13, 23, (1, 1), seed=8))   # copying a 1x1's operand changes bits
@example(_geometry(2, 9, 6, 6, 70, (1, 1), (1, 2), (1, 0), seed=2))
@example(_geometry(1, 7, 4, 9, 3, (3, 1), (2, 1), (0, 0), seed=3))
@example(_geometry(1, 2, 1, 5, 1, (7, 7), (1, 1), (3, 3), seed=4))  # oh == 1
@example(_geometry(2, 70, 2, 2, 70, (2, 2), (2, 2), (0, 0), seed=5))  # oh == ow == 1
def test_conv2d_is_bitwise_the_rowwise_kernel(g):
    rng = np.random.default_rng(g["seed"])
    x = FeatureTensor(rng.normal(size=(g["n"], g["c"], g["h"], g["w"])))
    p = Conv2DParams(rng.normal(size=(g["oc"], g["c"], *g["kernel"])), rng.normal(size=g["oc"]),
                     g["stride"], g["padding"])
    assert np.array_equal(conv2d(x, p).data, conv2d_rowwise(x.data, p))


@fixed
@given(conv_geometries(max_channels=35), st.integers(1, 40), st.integers(1, 40))
@example(_geometry(1, 8, 16, 16, 16, (3, 3), padding=(1, 1)), 8, 8)  # the benchmark's level 0
@example(_geometry(2, 3, 6, 5, 7, (1, 1), seed=1), 4, 5)
@example(_geometry(1, 1, 1, 1, 1, (1, 1), seed=2), 1, 1)
def test_fusion_block_is_bitwise_the_concat_composition(g, a_out, b_out):
    # branches of width g["c"] with a_out and b_out outputs, merged to g["oc"];
    # checked with their batchnorms and folded
    rng = np.random.default_rng(g["seed"])
    conv_a, conv_b = (random_conv_params(g["c"], k, rng=rng, kernel=g["kernel"], stride=g["stride"],
                                         padding=g["padding"]) for k in (a_out, b_out))
    merge = random_conv_params(a_out + b_out, g["oc"], rng=rng, kernel=1)
    params = FusionBlockParams(conv_a, BNParams.random(a_out, rng=rng),
                               conv_b, BNParams.random(b_out, rng=rng), merge)
    x = FeatureTensor(rng.normal(size=(g["n"], 2 * g["c"], g["h"], g["w"])))
    for p in (params, fold_fusion_block(params)):
        assert np.array_equal(fusion_block(x, p).data, fusion_block_rowwise(x.data, p))
