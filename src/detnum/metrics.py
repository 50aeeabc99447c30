"""Detection metrics: precision, recall, AP, mAP.

Matching protocol (the standard one): within each class, detections are
taken in confidence-descending order (ties by insertion order); each
detection matches the highest-IoU not-yet-matched ground truth of its class
in its image when that IoU clears the threshold (of equally overlapping
gts, the one listed first), otherwise it counts as a false positive —
duplicates on an already-matched gt are false positives.

AP integrates the precision envelope over recall (all-points
interpolation); the legacy 11-point variant sits behind a flag. Both are
computed from a class's true-positive ranks alone: the i-th true positive
sits at recall i/n_gt and precision i/rank, and false positives add no
recall and cannot raise the envelope. These are ratios of small integers,
so the envelope runs on exact fractions and converts to float only at the
boundary — per-scenario results are reproducible to the last bit.

Record files are line-delimited: `image_id class_id cx cy w h [confidence]`
(confidence defaults to 1.0, as for ground truths) and parse into validated
`DetectionRecord` tuples. Blank lines and lines starting with '#' are skipped.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from ._common import csv_table, data_lines, dumps
from .boxes import AABox, iou as _box_iou

__all__ = [
    "DetectionRecord", "ClassCounts", "PrecisionRecall", "ClassEval", "EvalReport",
    "confusion_counts", "precision_recall", "mean_ap",
    "evaluate", "parse_records", "parse_record_file",
    "report_to_csv", "report_to_json",
]


class DetectionRecord(namedtuple("DetectionRecord", "image_id class_id box confidence")):
    """One scored box. Ground truths reuse this with confidence 1."""

    __slots__ = ()

    def __new__(cls, image_id, class_id, box, confidence=1.0):
        conf = float(confidence)
        if not (0.0 <= conf <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {conf!r}")
        return tuple.__new__(cls, (str(image_id), int(class_id), box, conf))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _replace builds through _make
        return cls(*iterable)


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


def _match_flags(dets: Sequence[DetectionRecord], gts: Sequence[DetectionRecord],
                 iou_threshold: float) -> dict[int, tuple[list[bool], int]]:
    """Per class, in class order: confidence-ranked TP/FP flags and gt count,
    from one pass that pools ground truths by (class, image)."""
    pools: dict[tuple[int, str], list] = {}
    n_gt: dict[int, int] = {}
    for g in gts:
        pools.setdefault((g.class_id, g.image_id), []).append(g.box)
        n_gt[g.class_id] = n_gt.get(g.class_id, 0) + 1
    flags = {cls: [] for cls in sorted(n_gt.keys() | {d.class_id for d in dets})}
    # stable sort: confidence descending, insertion order on ties
    for det in sorted(dets, key=lambda d: -d.confidence):
        # a matched ground truth leaves its pool; of equal IoUs, the first wins
        pool = pools.get((det.class_id, det.image_id), ())
        ious = [_box_iou(det.box, b) for b in pool]
        best = max(ious, default=-1.0)
        hit = best >= iou_threshold
        if hit:
            del pool[ious.index(best)]
        flags[det.class_id].append(hit)
    return {cls: (f, n_gt.get(cls, 0)) for cls, f in flags.items()}


def confusion_counts(dets: Sequence[DetectionRecord],
                     gts: Sequence[DetectionRecord],
                     iou_threshold: float = 0.5) -> dict[int, ClassCounts]:
    """Per-class (TP, FP, FN) under the greedy matching protocol."""
    out = {}
    for cls, (flags, n_gt) in _match_flags(dets, gts, _check_threshold(iou_threshold)).items():
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


def _ap_exact(tp_ranks: Sequence[int], n_gt: int, method: str) -> Fraction:
    """Exact-rational AP of one class from the 1-based confidence ranks of
    its true positives: the i-th sits at recall i/n_gt, precision i/rank."""
    envelope = [Fraction(i, k) for i, k in enumerate(tp_ranks, start=1)]
    for i in range(len(envelope) - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])
    if method == "11point":
        # recall k/10 is first reached by true positive ceil(k·n_gt/10)
        firsts = (max(1, -(-k * n_gt // 10)) for k in range(11))
        return sum((envelope[i - 1] for i in firsts if i <= len(envelope)), Fraction(0)) / 11
    # every true positive adds recall 1/n_gt
    return sum(envelope, Fraction(0)) / n_gt


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
    if method not in ("all_points", "11point"):
        raise ValueError(f"unknown AP method {method!r}; expected all_points or 11point")
    rows = []
    ap_values = []
    for cls, (flags, n_gt) in _match_flags(dets, gts, t).items():
        tp = sum(flags)
        fp = len(flags) - tp
        fn = n_gt - tp
        pr = precision_recall(tp, fp, fn)
        if n_gt > 0:
            tp_ranks = [k for k, flag in enumerate(flags, start=1) if flag]
            ap_frac = _ap_exact(tp_ranks, n_gt, method)
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
            out.append(DetectionRecord(parts[0], parts[1], AABox(*parts[2:6]), *parts[6:]))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    return out


def parse_record_file(path) -> list[DetectionRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh, source=str(path))


def report_to_csv(report: EvalReport) -> str:
    return csv_table("class_id,n_gt,tp,fp,fn,precision,recall,ap",
                     [(c.class_id, c.n_gt, c.tp, c.fp, c.fn, c.precision, c.recall, c.ap)
                      for c in report.per_class])


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
