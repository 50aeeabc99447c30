"""Independent computations the benchmark checks detnum's outputs against.

None of these call into detnum: IoU comes from vectorised corner
arithmetic, the optimum assignment from SciPy's Hungarian solver, AP from
a recall-step formula over exact fractions, convolution from
``np.tensordot`` and PSNR from the normalised-scale definition.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment


# ---------------------------------------------------------------------------
# boxes and assignment
# ---------------------------------------------------------------------------

def corners(boxes: np.ndarray) -> np.ndarray:
    """(N, 4) centre-size rows -> (N, 4) corner rows x1, y1, x2, y2."""
    cx, cy, w, h = boxes.T
    return np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row of a against every row of b (centre-size rows)."""
    ca, cb = corners(a), corners(b)
    ax1, ay1, ax2, ay2 = (ca[:, k:k + 1] for k in range(4))
    bx1, by1, bx2, by2 = (cb[None, :, k] for k in range(4))
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = inter / union
    return np.where((iw > 0.0) & (ih > 0.0), out, 0.0)


def optimal_assignment_cost(cost: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def central_difference(f, x: tuple[float, ...], step: float) -> tuple[float, ...]:
    out = []
    for k in range(len(x)):
        hi, lo = list(x), list(x)
        hi[k] += step
        lo[k] -= step
        out.append((f(hi) - f(lo)) / (2.0 * step))
    return tuple(out)


# ---------------------------------------------------------------------------
# detection evaluation
# ---------------------------------------------------------------------------

def _read_records(lines):
    rows = []
    for line in lines:
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        conf = float(parts[6]) if len(parts) == 7 else 1.0
        rows.append((parts[0], int(parts[1]), [float(v) for v in parts[2:6]], conf))
    return rows


def evaluate(det_lines, gt_lines, iou_threshold: float = 0.5):
    """Greedy confidence-ranked matching on one IoU matrix per (image,
    class), then exact all-points AP.

    Returns ({class: (n_gt, tp, fp, fn, ap or None)}, mAP).
    """
    dets, gts = _read_records(det_lines), _read_records(gt_lines)
    classes = sorted({r[1] for r in dets} | {r[1] for r in gts})
    per_class, aps = {}, []
    for cls in classes:
        gt_boxes: dict[str, list] = {}
        for image, c, box, _ in gts:
            if c == cls:
                gt_boxes.setdefault(image, []).append(box)
        n_gt = sum(len(v) for v in gt_boxes.values())
        ranked = sorted((i for i, r in enumerate(dets) if r[1] == cls),
                        key=lambda i: -dets[i][3])      # stable: ties keep file order
        by_image: dict[str, list[int]] = {}
        for i in ranked:
            by_image.setdefault(dets[i][0], []).append(i)
        iou_rows = {}
        for image, idx in by_image.items():
            if image in gt_boxes:
                m = iou_matrix(np.array([dets[i][2] for i in idx]), np.array(gt_boxes[image]))
                iou_rows.update(zip(idx, m))
        taken = {image: np.zeros(len(v), dtype=bool) for image, v in gt_boxes.items()}
        flags = []
        for i in ranked:
            row = iou_rows.get(i)
            hit = False
            if row is not None:
                free = np.where(taken[dets[i][0]], -np.inf, row)
                j = int(np.argmax(free))
                if free[j] >= iou_threshold:
                    taken[dets[i][0]][j] = True
                    hit = True
            flags.append(hit)
        tp = sum(flags)
        ap = None
        if n_gt:
            ap = _all_points_ap(flags, n_gt)
            aps.append(ap)
        per_class[cls] = (n_gt, tp, len(flags) - tp, n_gt - tp, ap)
    m_ap = float(sum(aps) / len(aps)) if aps else 0.0
    return per_class, m_ap


def _all_points_ap(flags, n_gt: int) -> Fraction:
    """Sum over recall steps of the precision envelope, exactly.

    Recall rises by 1/n_gt at each true positive, and the envelope at rank
    k is the best precision at any rank >= k, which is always reached at a
    true positive.
    """
    tp_ranks = [k for k, hit in enumerate(flags, start=1) if hit]
    total, best = Fraction(0), Fraction(0)
    for count in range(len(tp_ranks), 0, -1):
        best = max(best, Fraction(count, tp_ranks[count - 1]))
        total += best
    return total / n_gt


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
           stride: tuple[int, int], padding: tuple[int, int]) -> np.ndarray:
    """Cross-correlation by one tensordot per kernel tap."""
    n, c, h, w = x.shape
    oc, _, kh, kw = weights.shape
    (sh, sw), (ph, pw) = stride, padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, oc, oh, ow))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
            out += np.tensordot(patch, weights[:, :, i, j], axes=([1], [1])).transpose(0, 3, 1, 2)
    return out + bias[None, :, None, None]


# ---------------------------------------------------------------------------
# degradation sweeps
# ---------------------------------------------------------------------------

def psnr(clean: np.ndarray, degraded: np.ndarray) -> float:
    """10·log10(1/MSE) on the [0, 1] scale; identical frames give inf."""
    mse = float(np.mean((clean / 255.0 - degraded / 255.0) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def noisy_frame(pixels: np.ndarray, level: float, seed: int) -> np.ndarray:
    """The documented joint-axis noise draw: N(level, level) added on the
    [0, 1] scale from default_rng(seed), clamped, back on 0..255."""
    if level == 0.0:
        return pixels
    rng = np.random.default_rng(seed)
    x = pixels / 255.0 + rng.normal(level, math.sqrt(level), size=pixels.shape)
    return np.clip(x, 0.0, 1.0) * 255.0


def profile_outcome(level: Fraction, fail_hi: Fraction, clean_lo: Fraction,
                    clean_hi: Fraction) -> str:
    if level <= fail_hi:
        return "fail"
    return "clean" if clean_lo <= level <= clean_hi else "miss"


def sweep_plan(lo: str, hi: str, step: str, fine: str, profile: str):
    """Levels a coarse-to-fine sweep must evaluate and the bands they form,
    in exact arithmetic: [(level, outcome)], [(outcome, lo, hi)]."""
    lo_f, hi_f, step_f, fine_f = (Fraction(v) for v in (lo, hi, step, fine))
    prof = [Fraction(v) for v in profile.split(":")]
    coarse = []
    level = lo_f
    while level <= hi_f:
        coarse.append(level)
        level += step_f
    levels = set(coarse)
    for a, b in zip(coarse, coarse[1:]):
        if profile_outcome(a, *prof) != profile_outcome(b, *prof):
            k = 1
            while a + k * fine_f < b:
                levels.add(a + k * fine_f)
                k += 1
    entries = [(lv, profile_outcome(lv, *prof)) for lv in sorted(levels)]
    bands = []
    for lv, outcome in entries:
        if bands and bands[-1][0] == outcome:
            bands[-1][2] = lv
        else:
            bands.append([outcome, lv, lv])
    return entries, [tuple(b) for b in bands]
