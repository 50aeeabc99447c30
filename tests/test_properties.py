"""Property tests for invariants the README promises.

Hypothesis runs derandomized, with no deadline and no example database,
so every run of the suite draws the same examples.
"""

from hypothesis import assume, given, settings, strategies as st

from detnum.boxes import AABox, iou, iou_matrix
from detnum.losses import GRADIENT_KINDS, loss_gradient, loss_value
from detnum.metrics import DetectionRecord, confusion_counts, evaluate

from helpers import eval_brute, frac_iou

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
@given(multi_class_scenes(), st.sampled_from([0.1, 0.3, 0.5, 0.7]))
def test_one_matching_pass_equals_per_class_brute_force(scene, threshold):
    dets, gts = scene
    # the oracle's IoU is exact, the library's is float: skip draws a
    # rounding could put on the other side of the threshold
    assume(all(abs(float(frac_iou(d.box, g.box)) - threshold) > 1e-9
               for d in dets for g in gts))
    want_ap, want_map, want_counts = eval_brute(dets, gts, threshold)
    assert confusion_counts(dets, gts, threshold) == want_counts
    rep = evaluate(dets, gts, threshold)
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
