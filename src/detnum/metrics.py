"""Detection metrics: precision, recall, AP, mAP.

Matching protocol (the standard one): within each class, detections are
taken in confidence-descending order (ties by insertion order); each
detection matches the highest-IoU not-yet-matched ground truth of its class
in its image when that IoU clears the threshold (of equally overlapping
gts, the one listed first), otherwise it counts as a false positive —
duplicates on an already-matched gt are false positives. One `iou_pairs`
call scores all (detection, same-image same-class ground truth) pairs.

AP integrates the precision envelope over recall (all-points
interpolation); the legacy 11-point variant sits behind a flag. Both are
computed from a class's true-positive ranks alone: the i-th true positive
sits at recall i/n_gt and precision i/rank. The envelope compares these
integer pairs by cross-multiplication and sums them exactly, converting to
float only at the end, so results are reproducible to the last bit.

Record files are line-delimited: `image_id class_id cx cy w h [confidence]`
(confidence defaults to 1.0, as for ground truths; blank and '#' lines are
skipped). They parse into a columnar `RecordTable`, validated in one
vectorised pass; its items are `DetectionRecord`s.
"""

from __future__ import annotations

import contextlib
from collections import Counter, namedtuple
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain, groupby, zip_longest
from typing import NamedTuple

import numpy as np

from ._common import csv_table, data_lines, dumps, frozen_array
from .boxes import AABox, corners, iou_pairs

__all__ = [
    "DetectionRecord", "RecordTable", "ClassCounts", "PrecisionRecall", "ClassEval", "EvalReport",
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
        box = box if isinstance(box, AABox) else AABox(*box)
        return tuple.__new__(cls, (str(image_id), int(class_id), box, conf))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _replace builds through _make
        return cls(*iterable)


@dataclass(frozen=True, eq=False)
class RecordTable(Sequence):
    """Read-only record columns: `image_id` and `class_id` tuples, an (n, 4) float64
    `box` array and a `confidence` array. Items are `DetectionRecord`s; a slice
    is a `RecordTable` of the sliced columns."""

    image_id: tuple[str, ...]
    class_id: tuple[int, ...]
    box: np.ndarray
    confidence: np.ndarray

    @classmethod
    def from_records(cls, records) -> RecordTable:
        if isinstance(records, cls):
            return records
        ids, classes, boxes, confs = list(zip(*records)) or [()] * 4
        return cls(ids, classes, frozen_array(boxes).reshape(-1, 4), frozen_array(confs))

    def __len__(self) -> int:
        return len(self.image_id)

    def __getitem__(self, i) -> DetectionRecord | RecordTable:
        if isinstance(i, slice):
            return RecordTable(self.image_id[i], self.class_id[i], self.box[i], self.confidence[i])
        return DetectionRecord(self.image_id[i], self.class_id[i],
                               AABox(*self.box[i].tolist()), float(self.confidence[i]))


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
                 iou_threshold: float) -> dict[int, tuple[np.ndarray, ClassCounts]]:
    """Per class, in class order: confidence-ranked TP flags and counts. One
    `iou_pairs` call scores every (detection, same-(class, image) ground truth)
    pair, and the greedy walk visits only the pairs at or above the threshold."""
    d, g = RecordTable.from_records(dets), RecordTable.from_records(gts)
    pools = {}
    for j, key in enumerate(zip(g.class_id, g.image_id)):
        pools.setdefault(key, []).append(j)
    pooled = [pools.get(key, ()) for key in zip(d.class_id, d.image_id)]
    pd = np.repeat(np.arange(len(d)), [len(p) for p in pooled])
    pg = np.fromiter(chain.from_iterable(pooled), int, len(pd))
    ious = iou_pairs(d.box[pd], g.box[pg])
    keep = ious >= iou_threshold
    cands = {}
    for i, j, x in zip(pd[keep].tolist(), pg[keep].tolist(), ious[keep].tolist()):
        cands.setdefault(i, []).append((j, x))
    classes = sorted(set(d.class_id) | set(g.class_id))
    dcls = np.searchsorted(classes, d.class_id).astype(int)
    order = np.lexsort((-d.confidence, dcls))   # stable: class, confidence descending
    hit, taken = np.zeros(len(d), bool), set()
    for i in order.tolist():
        # a matched ground truth leaves its pool; of equal IoUs, the first wins
        best, best_j = -1.0, -1
        for j, x in cands.get(i, ()):
            if x > best and j not in taken:
                best, best_j = x, j
        if best_j >= 0:
            taken.add(best_j)
            hit[i] = True
    n_gt = Counter(g.class_id)
    ranked = np.split(hit[order], np.cumsum(np.bincount(dcls, minlength=len(classes)))[:-1])
    return {cls: (f, ClassCounts(tp := int(f.sum()), len(f) - tp, n_gt[cls] - tp))
            for cls, f in zip(classes, ranked)}


def confusion_counts(dets: Sequence[DetectionRecord],
                     gts: Sequence[DetectionRecord],
                     iou_threshold: float = 0.5) -> dict[int, ClassCounts]:
    """Per-class (TP, FP, FN) under the greedy matching protocol."""
    flags = _match_flags(dets, gts, _check_threshold(iou_threshold))
    return {cls: counts for cls, (_, counts) in flags.items()}


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
    """Exact-rational AP of one class from the 1-based confidence ranks of its
    true positives: the i-th sits at recall i/n_gt, precision i/rank. The envelope
    compares (i, rank) pairs by cross-multiplication and sums its runs of equal
    values as integer ratios; the Fraction is built once, at the end."""
    envelope, best = [], (0, 1)      # right to left: envelope[-i] is true positive i's
    for i, k in reversed(list(enumerate(tp_ranks, start=1))):
        best = (i, k) if i * best[1] > best[0] * k else best
        envelope.append(best)
    if method == "11point":
        # recall k/10 is first reached by true positive ceil(k·n_gt/10)
        firsts = (max(1, -(-k * n_gt // 10)) for k in range(11))
        envelope, n_gt = [envelope[-i] for i in firsts if i <= len(envelope)], 11
    # the mean over n_gt recall steps (11point: over 11 recall levels)
    num, den = 0, 1
    for (i, k), run in groupby(envelope):
        num, den = num * k + len(list(run)) * i * den, den * k
    return Fraction(num, den * n_gt)


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
    rows, ap_values = [], []
    for cls, (flags, counts) in _match_flags(dets, gts, t).items():
        n_gt = counts.tp + counts.fn
        ap = _ap_exact((np.flatnonzero(flags) + 1).tolist(), n_gt, method) if n_gt else None
        ap_values += [] if ap is None else [ap]
        rows.append(ClassEval(cls, n_gt, *counts, *precision_recall(*counts),
                              None if ap is None else float(ap)))
    return EvalReport(per_class=tuple(rows), map=mean_ap(ap_values), iou_threshold=t)


# ---------------------------------------------------------------------------
# record file IO / report rendering
# ---------------------------------------------------------------------------

def parse_records(lines, *, source: str = "<records>") -> RecordTable:
    """Parse `image_id class_id cx cy w h [confidence]` lines into a table: Python
    `int`/`float` fields, validated in one vectorised pass. If a row is bad, the
    rows re-run through the `AABox` and `DetectionRecord` constructors, so the
    first bad row raises their error, prefixed with `source:line:`."""
    rows = data_lines(lines)
    fields = [parts for _, parts in rows]
    with contextlib.suppress(ValueError):       # a field that does not convert
        if set(map(len, fields)) <= {6, 7}:
            cols = list(zip_longest(*fields, fillvalue="1.0"))
            cols += [("1.0",) * len(fields)] * (7 - len(cols))
            box = frozen_array(np.transpose([list(map(float, c)) for c in cols[2:6]]))
            conf = frozen_array(list(map(float, cols[6])))
            with np.errstate(all="ignore"):  # a non-finite field makes the area inf or nan
                x1, y1, x2, y2 = corners(box.T)
                area = (x2 - x1) * (y2 - y1)
                ok = ((box[:, 2:] > 0.0).all() and (area > 0.0).all()
                      and np.isfinite(2.0 * area).all() and ((conf >= 0.0) & (conf <= 1.0)).all())
            if ok:
                return RecordTable(cols[0], tuple(map(int, cols[1])), box, conf)
    records = []
    for lineno, parts in rows:
        try:
            if len(parts) not in (6, 7):
                raise ValueError("expected 6 or 7 fields "
                                 f"(image_id class_id cx cy w h [confidence]), got {len(parts)}")
            records.append(DetectionRecord(parts[0], parts[1], AABox(*parts[2:6]), *parts[6:]))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    return RecordTable.from_records(records)


def parse_record_file(path) -> RecordTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh, source=str(path))


def report_to_csv(report: EvalReport) -> str:
    return csv_table("class_id,n_gt,tp,fp,fn,precision,recall,ap",
                     [(c.class_id, c.n_gt, c.tp, c.fp, c.fn, c.precision, c.recall, c.ap)
                      for c in report.per_class])


def report_to_json(report: EvalReport) -> str:
    return dumps({"iou_threshold": report.iou_threshold, "map": report.map,
                  "per_class": [asdict(c) for c in report.per_class]})
