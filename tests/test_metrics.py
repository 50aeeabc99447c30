import json
from fractions import Fraction

import numpy as np
import pytest

from detnum.boxes import AABox
from detnum.metrics import (
    ClassCounts,
    DetectionRecord,
    average_precision,
    confusion_counts,
    evaluate,
    mean_ap,
    parse_record_file,
    parse_records,
    precision_recall,
    report_to_csv,
    report_to_json,
)

from helpers import eval_brute, rand_box


def det(img, cls, box, conf=1.0):
    return DetectionRecord(img, cls, box, conf)


def shifted(box, dx=0.0, dy=0.0):
    return AABox(box.cx + dx, box.cy + dy, box.w, box.h)


B1 = AABox(2, 2, 2, 2)
B2 = AABox(10, 2, 2, 2)
B3 = AABox(2, 10, 2, 2)


# ---------------------------------------------------------------------------
# confusion counts
# ---------------------------------------------------------------------------

def test_perfect_detection_has_no_errors():
    gts = [det("a", 0, B1), det("a", 0, B2)]
    dets = [det("a", 0, B1, 0.9), det("a", 0, B2, 0.8)]
    counts = confusion_counts(dets, gts)
    assert counts[0].tp == 2
    assert counts[0].fp == 0
    assert counts[0].fn == 0


def test_detection_without_any_gt_is_fp():
    counts = confusion_counts([det("a", 0, B1, 0.9)], [])
    assert counts[0] == (0, 1, 0)


def test_duplicate_detections_on_one_gt():
    gts = [det("a", 0, B1)]
    dets = [det("a", 0, B1, 0.9), det("a", 0, shifted(B1, 0.1), 0.8)]
    counts = confusion_counts(dets, gts)
    assert counts[0].tp == 1
    assert counts[0].fp == 1
    assert counts[0].fn == 0


def test_higher_confidence_claims_the_gt_first():
    gts = [det("a", 0, B1)]
    # the low-confidence det overlaps better, but ranking is by confidence
    dets = [det("a", 0, shifted(B1, 0.4), 0.9), det("a", 0, B1, 0.5)]
    counts = confusion_counts(dets, gts)
    assert counts[0] == (1, 1, 0)


def test_matching_is_per_image():
    gts = [det("a", 0, B1)]
    dets = [det("b", 0, B1, 0.9)]   # same geometry, wrong image
    counts = confusion_counts(dets, gts)
    assert counts[0] == (0, 1, 1)


def test_matching_is_per_class():
    gts = [det("a", 1, B1)]
    dets = [det("a", 0, B1, 0.9)]
    counts = confusion_counts(dets, gts)
    assert counts[0] == (0, 1, 0)
    assert counts[1] == (0, 0, 1)


def test_iou_threshold_boundary_counts_as_match():
    g = AABox(0, 0, 2, 2)
    p = AABox(1, 0, 2, 2)   # IoU exactly 1/3
    gts = [det("a", 0, g)]
    assert confusion_counts([det("a", 0, p, 0.9)], gts, 1 / 3)[0].tp == 1
    assert confusion_counts([det("a", 0, p, 0.9)], gts, 0.34)[0].tp == 0


def test_counts_add_up():
    rng = np.random.default_rng(353)
    gts, dets = [], []
    for i in range(40):
        img = f"im{i % 4}"
        cls = int(rng.integers(0, 3))
        b = rand_box(rng)
        gts.append(det(img, cls, b))
        if rng.random() < 0.8:
            dets.append(det(img, cls, shifted(b, float(rng.normal(0, 0.4))),
                            float(rng.random())))
    counts = confusion_counts(dets, gts)
    for cls, c in counts.items():
        n_gt = sum(1 for g in gts if g.class_id == cls)
        n_det = sum(1 for d in dets if d.class_id == cls)
        assert c.tp + c.fn == n_gt
        assert c.tp + c.fp == n_det


def test_confusion_threshold_validation():
    with pytest.raises(ValueError):
        confusion_counts([], [], iou_threshold=0.0)
    with pytest.raises(ValueError):
        confusion_counts([], [], iou_threshold=1.0)


# ---------------------------------------------------------------------------
# precision / recall
# ---------------------------------------------------------------------------

def test_precision_recall_basic():
    pr = precision_recall(3, 1, 2)
    assert pr.precision == pytest.approx(0.75)
    assert pr.recall == pytest.approx(0.6)
    assert pr.precision_defined and pr.recall_defined


def test_precision_recall_zero_denominators_flagged():
    pr = precision_recall(0, 0, 5)
    assert pr.precision == 0.0
    assert not pr.precision_defined
    assert pr.recall_defined
    pr = precision_recall(0, 3, 0)
    assert pr.recall == 0.0
    assert not pr.recall_defined
    pr = precision_recall(0, 0, 0)
    assert not pr.precision_defined and not pr.recall_defined


def test_precision_recall_rejects_negative_counts():
    with pytest.raises(ValueError):
        precision_recall(-1, 0, 0)


# ---------------------------------------------------------------------------
# average precision
# ---------------------------------------------------------------------------

def test_ap_two_true_positives_cover_everything():
    # ranked [TP, TP] over 2 gts: precision 1 at recall 1
    curve = [(Fraction(1, 2), Fraction(1, 1)), (Fraction(1, 1), Fraction(1, 1))]
    assert average_precision(curve) == 1.0


def test_ap_tp_fp_tp_is_five_sixths():
    # ranked [TP, FP, TP] over 2 gts:
    # recall 1/2 at precision 1, recall 1 at precision 2/3
    curve = [(Fraction(1, 2), Fraction(1, 1)),
             (Fraction(1, 2), Fraction(1, 2)),
             (Fraction(1, 1), Fraction(2, 3))]
    assert average_precision(curve) == float(Fraction(5, 6))


def test_ap_empty_curve_and_unknown_method():
    assert average_precision([]) == 0.0
    with pytest.raises(ValueError):
        average_precision([(0.5, 1.0)], method="area")


def test_ap_11point_on_flat_curve():
    curve = [(Fraction(1, 2), Fraction(1, 1)), (Fraction(1, 1), Fraction(1, 1))]
    assert average_precision(curve, method="11point") == 1.0


def test_ap_11point_differs_from_all_points_generally():
    curve = [(Fraction(1, 2), Fraction(1, 1)),
             (Fraction(1, 2), Fraction(1, 2)),
             (Fraction(1, 1), Fraction(2, 3))]
    v11 = average_precision(curve, method="11point")
    # envelope at recalls 0..0.5 is 1, above 0.5 is 2/3:
    # (6*1 + 5*(2/3)) / 11
    assert v11 == float(Fraction(6 * 3 + 5 * 2, 33))


def test_mean_ap_examples():
    assert mean_ap([1.0, 0.5]) == 0.75
    assert mean_ap([]) == 0.0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_five_sixths_fixture():
    gts = [det("a", 0, B1), det("a", 0, B2)]
    dets = [
        det("a", 0, B1, 0.9),                  # TP
        det("a", 0, B3, 0.8),                  # FP (no gt there)
        det("a", 0, B2, 0.7),                  # TP
    ]
    rep = evaluate(dets, gts)
    assert len(rep.per_class) == 1
    cls = rep.per_class[0]
    assert (cls.tp, cls.fp, cls.fn) == (2, 1, 0)
    assert cls.ap == float(Fraction(5, 6))
    assert rep.map == float(Fraction(5, 6))


def test_evaluate_perfect_scenario_is_exactly_one():
    gts = [det("a", 0, B1), det("a", 1, B2), det("b", 0, B3)]
    dets = [det(g.image_id, g.class_id, g.box, 0.9) for g in gts]
    rep = evaluate(dets, gts)
    assert rep.map == 1.0
    for cls in rep.per_class:
        assert cls.ap == 1.0
        assert cls.fp == 0 and cls.fn == 0


def test_evaluate_detection_only_class_has_none_ap():
    gts = [det("a", 0, B1)]
    dets = [det("a", 0, B1, 0.9), det("a", 7, B2, 0.6)]
    rep = evaluate(dets, gts)
    by_id = {c.class_id: c for c in rep.per_class}
    assert by_id[7].ap is None
    assert by_id[7].fp == 1
    assert by_id[7].n_gt == 0
    # class 7 contributes nothing to the mean
    assert rep.map == by_id[0].ap == 1.0


def test_evaluate_confidence_rank_only_invariance():
    rng = np.random.default_rng(359)
    gts, dets = [], []
    for i in range(12):
        b = rand_box(rng)
        gts.append(det("a", 0, b))
        dets.append(det("a", 0, shifted(b, float(rng.normal(0, 0.3))),
                        float(0.05 + 0.9 * rng.random())))
    base = evaluate(dets, gts).map
    # squash confidences through a monotone map: ranking, hence AP, unchanged
    squashed = [det(d.image_id, d.class_id, d.box, d.confidence ** 3)
                for d in dets]
    assert evaluate(squashed, gts).map == base


def test_evaluate_fp_below_all_never_raises_map():
    gts = [det("a", 0, B1), det("a", 0, B2)]
    dets = [det("a", 0, B1, 0.9), det("a", 0, B2, 0.8)]
    base = evaluate(dets, gts).map
    worse = dets + [det("a", 0, B3, 0.1)]
    assert evaluate(worse, gts).map <= base


def test_evaluate_tp_at_top_never_lowers_map():
    gts = [det("a", 0, B1), det("a", 0, B2), det("a", 0, B3)]
    dets = [det("a", 0, B1, 0.5), det("a", 0, shifted(B2, 5.0), 0.4)]
    base = evaluate(dets, gts).map
    better = dets + [det("a", 0, B3, 0.99)]
    assert evaluate(better, gts).map >= base


def test_evaluate_matches_brute_force_oracle():
    rng = np.random.default_rng(367)
    for _ in range(30):
        gts, dets = [], []
        for _ in range(int(rng.integers(1, 12))):
            img = f"im{int(rng.integers(0, 3))}"
            cls = int(rng.integers(0, 4))
            b = rand_box(rng)
            gts.append(det(img, cls, b))
        for _ in range(int(rng.integers(1, 20))):
            if gts and rng.random() < 0.7:
                g = gts[int(rng.integers(0, len(gts)))]
                img, cls = g.image_id, g.class_id
                b = shifted(g.box, float(rng.normal(0, 0.6)), float(rng.normal(0, 0.6)))
            else:
                img = f"im{int(rng.integers(0, 3))}"
                cls = int(rng.integers(0, 4))
                b = rand_box(rng)
            dets.append(det(img, cls, b, float(rng.random())))
        rep = evaluate(dets, gts)
        oracle_per_class, oracle_map, _ = eval_brute(dets, gts)
        assert rep.map == float(oracle_map)
        for c in rep.per_class:
            want = oracle_per_class[c.class_id]
            if want is None:
                assert c.ap is None
            else:
                assert c.ap == float(want)


def test_evaluate_counts_property():
    gts = [det("a", 0, B1)]
    dets = [det("a", 0, B1, 0.9), det("a", 0, B2, 0.3)]
    rep = evaluate(dets, gts)
    counts = {c.class_id: ClassCounts(c.tp, c.fp, c.fn) for c in rep.per_class}
    assert counts == confusion_counts(dets, gts)


# ---------------------------------------------------------------------------
# boxes and records are validated tuples
# ---------------------------------------------------------------------------

def test_boxes_and_records_are_coerced_tuples():
    assert tuple(AABox(1, 2, 3, 4)) == (1.0, 2.0, 3.0, 4.0)
    assert tuple(det("a", "1", B1)) == ("a", 1, B1, 1.0)
    assert det(7, 0, B1)._replace(confidence="0.5") == ("7", 0, B1, 0.5)


@pytest.mark.parametrize("make, message", [
    (lambda: AABox(1, 1, 0, 1), "AABox needs w > 0 and h > 0, got w=0.0, h=1.0"),
    (lambda: AABox(1, 1, 1, 1)._replace(w=0), "AABox needs w > 0 and h > 0, got w=0.0, h=1.0"),
    (lambda: AABox._make([1, 1, 1, float("nan")]), "AABox.h must be finite, got nan"),
    (lambda: AABox._make(["x", 1, 1, 1]), "AABox.cx must be a real number, got 'x'"),
    (lambda: DetectionRecord("a", 0, B1, 1.5), "confidence must be in [0, 1], got 1.5"),
    (lambda: det("a", 0, B1)._replace(confidence=-0.5), "confidence must be in [0, 1], got -0.5"),
], ids=["new", "replace", "make", "make-text", "record-new", "record-replace"])
def test_invalid_values_are_rejected_by_every_constructor(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# record parsing and report rendering
# ---------------------------------------------------------------------------

def test_parse_records_roundtrip():
    lines = [
        "# detections",
        "",
        "img1 0 2.0 2.0 2.0 2.0 0.9",
        "img1 1 10.0 2.0 2.0 2.0",
    ]
    recs = parse_records(lines)
    assert len(recs) == 2
    assert recs[0].image_id == "img1"
    assert recs[0].confidence == 0.9
    assert recs[1].confidence == 1.0
    assert recs[1].box == AABox(10, 2, 2, 2)


def test_parse_records_errors_carry_line_numbers():
    with pytest.raises(ValueError, match=r"rec\.txt:2:"):
        parse_records(["img1 0 1 1 2 2", "img1 0 1 1"], source="rec.txt")
    with pytest.raises(ValueError, match=r"<records>:1:"):
        parse_records(["img1 zero 1 1 2 2"])
    with pytest.raises(ValueError, match=r":3:"):
        parse_records(["# ok", "img1 0 1 1 2 2", "img1 0 1 1 0 2"])


def test_parse_record_file(tmp_path):
    p = tmp_path / "dets.txt"
    p.write_text("img1 0 2 2 2 2 0.5\n# comment\nimg2 1 1 1 1 1\n")
    recs = parse_record_file(p)
    assert [r.image_id for r in recs] == ["img1", "img2"]


def test_report_csv_shape():
    gts = [det("a", 0, B1)]
    dets = [det("a", 0, B1, 0.9), det("a", 7, B2, 0.6)]
    csv = report_to_csv(evaluate(dets, gts))
    lines = csv.splitlines()
    assert lines[0] == "class_id,n_gt,tp,fp,fn,precision,recall,ap"
    assert len(lines) == 3
    assert lines[2].endswith(",")   # class 7: ap column empty


def test_report_json_is_sorted_and_complete():
    gts = [det("a", 0, B1)]
    dets = [det("a", 0, B1, 0.9)]
    doc = json.loads(report_to_json(evaluate(dets, gts)))
    assert doc["map"] == 1.0
    assert doc["iou_threshold"] == 0.5
    assert doc["per_class"][0]["ap"] == 1.0
    assert doc["per_class"][0]["precision_defined"] is True


def test_detection_record_validation():
    with pytest.raises(ValueError):
        DetectionRecord("a", 0, B1, 1.5)
    with pytest.raises(ValueError):
        DetectionRecord("a", 0, B1, -0.1)
