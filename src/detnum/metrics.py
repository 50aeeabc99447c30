"""Detection metrics: precision, recall, AP, mAP.

Matching protocol (the standard one): within each class, detections are
taken in confidence-descending order (ties by insertion order); each
detection matches the highest-IoU not-yet-matched ground truth of its class
in its image when that IoU clears the threshold (of equally overlapping
gts, the one listed first), otherwise it counts as a false positive —
duplicates on an already-matched gt are false positives.

AP integrates the precision envelope over recall (all-points
interpolation); the legacy 11-point variant sits behind a flag. The
cumulative precision/recall points are ratios of small integers, so the
envelope integration runs on exact fractions and converts to float only at
the boundary — per-scenario results are reproducible to the last bit.
`evaluate` integrates over the true-positive ranks only: false positives
add no recall and cannot raise the envelope.

Record files are line-delimited: `image_id class_id cx cy w h [confidence]`
(confidence defaults to 1.0, as for ground truths). Blank lines and lines
starting with '#' are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from ._common import data_lines, dumps, fmt
from .boxes import AABox, iou as _box_iou

__all__ = [
    "DetectionRecord", "ClassCounts", "PrecisionRecall", "ClassEval", "EvalReport",
    "confusion_counts", "precision_recall", "average_precision", "mean_ap",
    "evaluate", "parse_records", "parse_record_file",
    "report_to_csv", "report_to_json",
]


@dataclass(frozen=True)
class DetectionRecord:
    """One scored box. Ground truths reuse this with confidence 1."""

    image_id: str
    class_id: int
    box: AABox
    confidence: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "image_id", str(self.image_id))
        object.__setattr__(self, "class_id", int(self.class_id))
        conf = float(self.confidence)
        if not (0.0 <= conf <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {conf!r}")
        object.__setattr__(self, "confidence", conf)


class ClassCounts(NamedTuple):
    tp: int
    fp: int
    fn: int


class PrecisionRecall(NamedTuple):
    precision: float
    recall: float
    precision_defined: bool
    recall_defined: bool


def _check_threshold(iou_threshold: float) -> float:
    t = float(iou_threshold)
    if not (0.0 < t < 1.0):
        raise ValueError(f"iou_threshold must lie in (0, 1), got {t!r}")
    return t


def _ranked_match_flags(dets: Sequence[DetectionRecord],
                        gts: Sequence[DetectionRecord],
                        class_id: int, iou_threshold: float) -> tuple[list[bool], int]:
    """Confidence-ranked TP/FP flags for one class, plus its gt count."""
    cls_gts: dict[str, list] = {}
    n_gt = 0
    for g in gts:
        if g.class_id == class_id:
            cls_gts.setdefault(g.image_id, []).append([g.box, False])
            n_gt += 1
    # stable rank: confidence descending, insertion order on ties
    indexed = [(i, d) for i, d in enumerate(dets) if d.class_id == class_id]
    indexed.sort(key=lambda item: (-item[1].confidence, item[0]))
    flags = []
    for _, det in indexed:
        candidates = cls_gts.get(det.image_id, ())
        best = -1.0
        best_entry = None
        for entry in candidates:
            if entry[1]:
                continue
            overlap = _box_iou(det.box, entry[0])
            if overlap > best:
                best = overlap
                best_entry = entry
        if best_entry is not None and best >= iou_threshold:
            best_entry[1] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags, n_gt


def confusion_counts(dets: Sequence[DetectionRecord],
                     gts: Sequence[DetectionRecord],
                     iou_threshold: float = 0.5) -> dict[int, ClassCounts]:
    """Per-class (TP, FP, FN) under the greedy matching protocol."""
    t = _check_threshold(iou_threshold)
    classes = sorted({d.class_id for d in dets} | {g.class_id for g in gts})
    out = {}
    for cls in classes:
        flags, n_gt = _ranked_match_flags(dets, gts, cls, t)
        tp = sum(flags)
        out[cls] = ClassCounts(tp=tp, fp=len(flags) - tp, fn=n_gt - tp)
    return out


def precision_recall(tp: int, fp: int, fn: int) -> PrecisionRecall:
    """P = TP/(TP+FP), R = TP/(TP+FN); zero denominators give a flagged 0."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be >= 0")
    p_def = (tp + fp) > 0
    r_def = (tp + fn) > 0
    return PrecisionRecall(
        precision=tp / (tp + fp) if p_def else 0.0,
        recall=tp / (tp + fn) if r_def else 0.0,
        precision_defined=p_def,
        recall_defined=r_def,
    )


def _ap_exact(points, method: str) -> Fraction:
    """Exact-rational AP over (recall, precision) points in rank order."""
    if method not in ("all_points", "11point"):
        raise ValueError(f"unknown AP method {method!r}; expected all_points or 11point")
    if not points:
        return Fraction(0)
    # precision envelope from the right
    envelope = [Fraction(0)] * len(points)
    running = Fraction(0)
    for i in range(len(points) - 1, -1, -1):
        p = Fraction(points[i][1])
        running = p if p > running else running
        envelope[i] = running
    if method == "11point":
        total = Fraction(0)
        for k in range(11):
            thresh = Fraction(k, 10)
            best = max((envelope[i] for i in range(len(points))
                        if Fraction(points[i][0]) >= thresh), default=Fraction(0))
            total += best
        return total / 11
    total = Fraction(0)
    prev_r = Fraction(0)
    for i, (r, _) in enumerate(points):
        r = Fraction(r)
        total += (r - prev_r) * envelope[i]
        prev_r = r
    return total


def average_precision(pr_curve, method: str = "all_points") -> float:
    """Integrate a (recall, precision) curve.

    pr_curve: points in recall-ascending (rank) order, as produced by the
    confidence sweep; values may be floats or exact fractions — arithmetic
    runs on exact rationals either way. all_points integrates the precision
    envelope; 11point averages the envelope at recalls 0, 0.1, ..., 1.
    Empty curve → 0.0.
    """
    return float(_ap_exact(list(pr_curve), method))


def mean_ap(per_class_ap) -> float:
    """Unweighted mean of per-class AP values; empty input gives 0.0."""
    aps = list(per_class_ap)
    if not aps:
        return 0.0
    return float(sum(Fraction(a) for a in aps) / len(aps))


@dataclass(frozen=True)
class ClassEval:
    class_id: int
    n_gt: int
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    precision_defined: bool
    recall_defined: bool
    ap: float | None           # None for classes with no ground truths


@dataclass(frozen=True)
class EvalReport:
    per_class: tuple[ClassEval, ...]
    map: float
    iou_threshold: float


def evaluate(dets: Sequence[DetectionRecord], gts: Sequence[DetectionRecord],
             iou_threshold: float = 0.5, *, method: str = "all_points") -> EvalReport:
    """Full pipeline: per-class PR curves, AP, and the class-mean mAP.

    Classes with at least one ground truth enter the mAP mean; classes
    appearing only in detections still report their FP counts but carry
    ap = None.
    """
    t = _check_threshold(iou_threshold)
    classes = sorted({d.class_id for d in dets} | {g.class_id for g in gts})
    rows = []
    ap_values = []
    for cls in classes:
        flags, n_gt = _ranked_match_flags(dets, gts, cls, t)
        tp = sum(flags)
        fp = len(flags) - tp
        fn = n_gt - tp
        pr = precision_recall(tp, fp, fn)
        if n_gt > 0:
            # recall steps only; see the module docstring
            tp_ranks = [k for k, flag in enumerate(flags, start=1) if flag]
            ap_frac = _ap_exact([(Fraction(i, n_gt), Fraction(i, k))
                                 for i, k in enumerate(tp_ranks, start=1)], method)
            ap = float(ap_frac)
            ap_values.append(ap_frac)
        else:
            ap = None
        rows.append(ClassEval(
            class_id=cls, n_gt=n_gt, tp=tp, fp=fp, fn=fn,
            precision=pr.precision, recall=pr.recall,
            precision_defined=pr.precision_defined, recall_defined=pr.recall_defined,
            ap=ap))
    return EvalReport(per_class=tuple(rows), map=mean_ap(ap_values), iou_threshold=t)


# ---------------------------------------------------------------------------
# record file IO / report rendering
# ---------------------------------------------------------------------------

def parse_records(lines, *, source: str = "<records>") -> list[DetectionRecord]:
    """Parse `image_id class_id cx cy w h [confidence]` lines."""
    out = []
    for lineno, parts in data_lines(lines):
        if len(parts) not in (6, 7):
            raise ValueError(
                f"{source}:{lineno}: expected 6 or 7 fields "
                f"(image_id class_id cx cy w h [confidence]), got {len(parts)}")
        try:
            image_id = parts[0]
            class_id = int(parts[1])
            cx, cy, w, h = (float(v) for v in parts[2:6])
            conf = float(parts[6]) if len(parts) == 7 else 1.0
            out.append(DetectionRecord(image_id, class_id, AABox(cx, cy, w, h), conf))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    return out


def parse_record_file(path) -> list[DetectionRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh, source=str(path))


def report_to_csv(report: EvalReport) -> str:
    lines = ["class_id,n_gt,tp,fp,fn,precision,recall,ap"]
    for c in report.per_class:
        ap = "" if c.ap is None else fmt(c.ap)
        lines.append(",".join([
            str(c.class_id), str(c.n_gt), str(c.tp), str(c.fp), str(c.fn),
            fmt(c.precision), fmt(c.recall), ap]))
    return "\n".join(lines)


def report_to_json(report: EvalReport) -> str:
    payload = {
        "iou_threshold": report.iou_threshold,
        "map": report.map,
        "per_class": [
            {
                "class_id": c.class_id,
                "n_gt": c.n_gt,
                "tp": c.tp,
                "fp": c.fp,
                "fn": c.fn,
                "precision": c.precision,
                "recall": c.recall,
                "precision_defined": c.precision_defined,
                "recall_defined": c.recall_defined,
                "ap": c.ap,
            }
            for c in report.per_class
        ],
    }
    return dumps(payload)
