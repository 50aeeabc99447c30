"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written the slow, obvious way (loops,
exact rationals, exhaustive enumeration) so the library under test is
checked against arithmetic that shares none of its code paths.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from detnum.attention import channel_attention_weights, spatial_attention_map
from detnum.boxes import AABox
from detnum.fuse import batchnorm
from detnum.metrics import DetectionRecord
from detnum.tensor import FeatureTensor


# ---------------------------------------------------------------------------
# box geometry
# ---------------------------------------------------------------------------

def frac_iou(p: AABox, g: AABox) -> Fraction:
    """Exact IoU via rational corner arithmetic."""
    def corners(b):
        cx, cy, w, h = (Fraction(v) for v in (b.cx, b.cy, b.w, b.h))
        return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2

    px1, py1, px2, py2 = corners(p)
    gx1, gy1, gx2, gy2 = corners(g)
    iw = min(px2, gx2) - max(px1, gx1)
    ih = min(py2, gy2) - max(py1, gy1)
    if iw <= 0 or ih <= 0:
        inter = Fraction(0)
    else:
        inter = iw * ih
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    if union == 0:
        return Fraction(0)
    return inter / union


def pixel_count_iou(p: AABox, g: AABox, step: float = 0.001) -> float:
    """IoU by counting grid-cell centres inside each box.

    Cells are counted per axis and combined by products, which is the same
    set of cells a full 2-d rasterisation would count for axis-aligned
    boxes, just without materialising the 2-d grid.
    """
    lo_x = min(p.cx - p.w / 2, g.cx - g.w / 2) - step
    hi_x = max(p.cx + p.w / 2, g.cx + g.w / 2) + step
    lo_y = min(p.cy - p.h / 2, g.cy - g.h / 2) - step
    hi_y = max(p.cy + p.h / 2, g.cy + g.h / 2) + step
    xs = np.arange(lo_x + step / 2, hi_x, step)
    ys = np.arange(lo_y + step / 2, hi_y, step)

    def axis_mask(centers, lo, hi):
        return (centers > lo) & (centers < hi)

    pX = axis_mask(xs, p.cx - p.w / 2, p.cx + p.w / 2)
    pY = axis_mask(ys, p.cy - p.h / 2, p.cy + p.h / 2)
    gX = axis_mask(xs, g.cx - g.w / 2, g.cx + g.w / 2)
    gY = axis_mask(ys, g.cy - g.h / 2, g.cy + g.h / 2)
    inter = int((pX & gX).sum()) * int((pY & gY).sum())
    a_p = int(pX.sum()) * int(pY.sum())
    a_g = int(gX.sum()) * int(gY.sum())
    union = a_p + a_g - inter
    return inter / union if union else 0.0


def rand_box(rng: np.random.Generator, *, lattice: float | None = None) -> AABox:
    cx, cy = rng.uniform(0.0, 6.0, size=2)
    w, h = rng.uniform(0.5, 4.0, size=2)
    if lattice is not None:
        cx, cy, w, h = (round(round(v / lattice) * lattice, 9) for v in (cx, cy, w, h))
        w = max(w, lattice)
        h = max(h, lattice)
    return AABox(float(cx), float(cy), float(w), float(h))


# ---------------------------------------------------------------------------
# assignment / transport
# ---------------------------------------------------------------------------

def brute_assignment(cost: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Best permutation of a square cost matrix; objective on the mean scale."""
    n = cost.shape[0]
    assert cost.shape == (n, n)
    best_perm, best = None, np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n)) / n
        if total < best - 1e-18:
            best, best_perm = total, perm
    return best_perm, best


def brute_injection(cost: np.ndarray) -> tuple[dict[int, int], float]:
    """Best one-to-one map from the smaller side into the larger.

    Returns {row: col} pairs and the total summed cost divided by the
    number of matched pairs' denominator convention used by the library
    (sum over matched pairs / k where k = min(n, m)).
    """
    n, m = cost.shape
    best_map, best = None, np.inf
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            total = sum(cost[i, cols[i]] for i in range(n)) / n
            if total < best - 1e-18:
                best, best_map = total, {i: cols[i] for i in range(n)}
    else:
        for rows in itertools.permutations(range(n), m):
            total = sum(cost[rows[j], j] for j in range(m)) / m
            if total < best - 1e-18:
                best, best_map = total, {rows[j]: j for j in range(m)}
    return best_map, best


def sinkhorn_plain(cost, mu, nu, epsilon: float, tol: float,
                   max_iters: int = 100_000) -> np.ndarray | None:
    """Plan of the textbook log-domain Sinkhorn loop at one fixed epsilon,
    or None if it does not converge within max_iters sweeps.

    Epsilon acts on cost / max|cost|, as in `transport.sinkhorn`, so both
    aim at the same fixed point. Each sweep updates v then u and builds the
    whole plan; it stops once every row and column sum is within tol.
    """
    cost = [[float(c) for c in row] for row in np.asarray(cost)]
    n, m = len(cost), len(cost[0])
    scale = max(abs(c) for row in cost for c in row) or 1.0
    k = [[-c / scale / epsilon for c in row] for row in cost]

    def lse(xs):
        top = max(xs)
        return top + math.log(sum(math.exp(x - top) for x in xs))

    u = [0.0] * n
    for _ in range(max_iters):
        v = [math.log(nu[j]) - lse([k[i][j] + u[i] for i in range(n)]) for j in range(m)]
        u = [math.log(mu[i]) - lse([k[i][j] + v[j] for j in range(m)]) for i in range(n)]
        plan = [[math.exp(k[i][j] + u[i] + v[j]) for j in range(m)] for i in range(n)]
        rows = max(abs(sum(plan[i]) - mu[i]) for i in range(n))
        cols = max(abs(sum(plan[i][j] for i in range(n)) - nu[j]) for j in range(m))
        if max(rows, cols) < tol:
            return np.array(plan)
    return None


# ---------------------------------------------------------------------------
# tensor ops
# ---------------------------------------------------------------------------

def conv2d_loops(x, w, b, stride=(1, 1), padding=(0, 0)):
    """Plain quadruple-loop cross-correlation."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n, cin, h, ww = x.shape
    cout, cin2, kh, kw = w.shape
    assert cin == cin2
    sh, sw = stride
    ph, pw = padding
    xp = np.zeros((n, cin, h + 2 * ph, ww + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + ww] = x
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (ww + 2 * pw - kw) // sw + 1
    out = np.zeros((n, cout, oh, ow))
    for bi in range(n):
        for co in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[bi, ci, oy * sh + ky, ox * sw + kx] * w[co, ci, ky, kx]
                    out[bi, co, oy, ox] = acc + (b[co] if b is not None else 0.0)
    return out


def conv2d_rowwise(x, p):
    """Per-kernel-row im2col cross-correlation, the bitwise oracle of
    tensor.conv2d: pad, take the (kh, kw) window view, and let tensordot
    copy one kernel row's im2col matrix per GEMM. Same sum order: the bias,
    then the kh row products in row order. Takes and returns (n, c, h, w)
    arrays."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = p.weights.shape
    (sh, sw), (ph, pw) = p.stride, p.padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    out = np.full((n, oh, ow, oc), p.bias)
    for i in range(kh):
        out += np.tensordot(windows[..., i, :], p.weights[:, :, i], axes=([1, 4], [1, 2]))
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def fusion_block_rowwise(x, params):
    """The concat composition of fuse.fusion_block on conv2d_rowwise: each
    branch conv, its batchnorm where the slot holds one, the concatenation
    and the 1x1 merge, every stage a C-ordered NCHW array."""
    ca = params.conv_a.in_channels
    parts = []
    for xs, conv, bn in ((x[:, :ca], params.conv_a, params.bn_a),
                         (x[:, ca:], params.conv_b, params.bn_b)):
        y = conv2d_rowwise(xs, conv)
        parts.append(y if bn is None else batchnorm(FeatureTensor(y), bn).data)
    return conv2d_rowwise(np.concatenate(parts, axis=1), params.merge)


def channel_pool_loops(x, mode):
    """Spatial summary per (batch, channel): (n, c, h, w) -> (n, c)."""
    x = np.asarray(x, dtype=float)
    n, c = x.shape[:2]
    out = np.zeros((n, c))
    for bi in range(n):
        for ci in range(c):
            vals = x[bi, ci].ravel()
            out[bi, ci] = vals.mean() if mode == "avg" else vals.max()
    return out


def spatial_pool_loops(x, mode):
    """Across-channel summary per pixel: (n, c, h, w) -> (n, 1, h, w)."""
    x = np.asarray(x, dtype=float)
    n, _, h, w = x.shape
    out = np.zeros((n, 1, h, w))
    for bi in range(n):
        for yy in range(h):
            for xx in range(w):
                vals = x[bi, :, yy, xx]
                out[bi, 0, yy, xx] = vals.mean() if mode == "avg" else vals.max()
    return out


def bn_loops(x, gamma, beta, mean, var, eps):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for bi in range(x.shape[0]):
        for ci in range(x.shape[1]):
            out[bi, ci] = (x[bi, ci] - mean[ci]) / np.sqrt(var[ci] + eps) * gamma[ci] + beta[ci]
    return out


def sigmoid_ref(z):
    z = np.asarray(z, dtype=float)
    return 1.0 / (1.0 + np.exp(-z))


def channel_weights_loops(x, w1, b1, w2, b2):
    """Shared-MLP channel attention weights, straight-line math."""
    x = np.asarray(x, dtype=float)
    n, c = x.shape[:2]
    out = np.zeros((n, c))
    for bi in range(n):
        avg = np.array([x[bi, ci].mean() for ci in range(c)])
        mx = np.array([x[bi, ci].max() for ci in range(c)])

        def mlp(v):
            hidden = np.maximum(w1 @ v + b1, 0.0)
            return w2 @ hidden + b2

        out[bi] = sigmoid_ref(mlp(avg) + mlp(mx))
    return out


def parallel_attention(x, cp, sp):
    """Foil composition: both gates computed from x, applied as a summed map.

    The cascade in detnum.attention.cbam must differ from it, which shows
    that the order of the two gates matters.
    """
    wc = channel_attention_weights(x, cp)
    ms = spatial_attention_map(x, sp)
    return FeatureTensor(x.data * (wc.data + ms.data))


# ---------------------------------------------------------------------------
# detection metrics
# ---------------------------------------------------------------------------

def parse_records_rowwise(lines, source="<records>"):
    """Reference record parser: line by line, each data line through the
    `AABox` and `DetectionRecord` constructors, stopping at the first bad
    line with a `source:line:` error. Returns a list of `DetectionRecord`s."""
    out = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) not in (6, 7):
            raise ValueError(f"{source}:{lineno}: expected 6 or 7 fields "
                             f"(image_id class_id cx cy w h [confidence]), got {len(parts)}")
        try:
            out.append(DetectionRecord(parts[0], parts[1], AABox(*parts[2:6]), *parts[6:]))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    return out


def eval_brute(dets, gts, iou_threshold=0.5, method="all_points"):
    """Independent evaluator: per class, rank by confidence, greedily match,
    compute AP as an exact Fraction over every ranked point: all_points by
    direct envelope integration, 11point as the mean over k = 0..10 of the
    best precision at recall >= k/10.

    Returns (per_class_ap: dict[class_id, Fraction | None], map: Fraction,
    counts: dict[class_id, (tp, fp, fn)]).
    """
    classes = sorted({d.class_id for d in dets} | {g.class_id for g in gts})
    per_class: dict[int, Fraction | None] = {}
    counts: dict[int, tuple[int, int, int]] = {}
    ap_list = []
    for cls in classes:
        cls_gts = [g for g in gts if g.class_id == cls]
        n_gt = len(cls_gts)
        cls_dets = [d for d in dets if d.class_id == cls]
        order = sorted(range(len(cls_dets)),
                       key=lambda i: (-cls_dets[i].confidence, i))
        taken = [False] * len(cls_gts)
        flags = []
        for i in order:
            d = cls_dets[i]
            best_j, best_iou = -1, 0.0
            for j, g in enumerate(cls_gts):
                if g.image_id != d.image_id or taken[j]:
                    continue
                v = float(frac_iou(d.box, g.box))
                if v >= iou_threshold and v > best_iou:
                    best_iou, best_j = v, j
            if best_j >= 0:
                taken[best_j] = True
                flags.append(True)
            else:
                flags.append(False)
        counts[cls] = (sum(flags), len(flags) - sum(flags), n_gt - sum(flags))
        if n_gt == 0:
            per_class[cls] = None
            continue
        recalls, precisions = [], []
        tp = 0
        for k, f in enumerate(flags, start=1):
            tp += int(f)
            recalls.append(Fraction(tp, n_gt))
            precisions.append(Fraction(tp, k))
        ap = Fraction(0)
        if method == "11point":
            for k in range(11):
                ap += max((p for r, p in zip(recalls, precisions) if r >= Fraction(k, 10)),
                          default=Fraction(0))
            ap /= 11
        else:
            prev_r = Fraction(0)
            for k in range(len(flags)):
                ap += (recalls[k] - prev_r) * max(precisions[k:])
                prev_r = recalls[k]
        per_class[cls] = ap
        ap_list.append(ap)
    map_frac = sum(ap_list) / len(ap_list) if ap_list else Fraction(0)
    return per_class, map_frac, counts


# ---------------------------------------------------------------------------
# brightness
# ---------------------------------------------------------------------------

def brightness_exact(pixels, target):
    """(s, image) with mean(min(s·px, 255)) == target exactly, or None when
    the target is at or above 255 × the share of nonzero pixels.

    Tries every split of the sorted pixels: the j smallest scaled, the rest
    clipped at 255. On that piece the mean is (s·P_j + 255·(N − j))/N with
    P_j the sum of the j smallest, and its root counts only if it leaves the
    j-th pixel at or below 255 and the (j+1)-th at or above. The image holds
    each exact pixel min(s·px, 255) rounded once to float.
    """
    flat = [Fraction(float(v)) for v in np.ravel(pixels)]
    vals = sorted(flat)
    n = len(vals)
    t = Fraction(float(target))
    if t * n >= 255 * sum(1 for v in vals if v > 0):
        return None
    prefix = [Fraction(0)]
    for v in vals:
        prefix.append(prefix[-1] + v)
    for j in range(n, 0, -1):
        s = (t * n - 255 * (n - j)) / prefix[j]
        if vals[j - 1] * s <= 255 and (j == n or vals[j] * s >= 255):
            image = np.array([float(min(s * v, Fraction(255))) for v in flat])
            return s, image.reshape(np.shape(pixels))
    raise AssertionError(f"no piece holds target {target!r}")


def brightness_reference(pixels, target):
    """(pixels, achieved_mean, iterations, used_additive_fallback) of the
    piecewise-linear brightness solve, written out with a fresh array for
    every step and every scan of the source repeated: the float operations
    of `set_brightness_result` in their order, so that a faster version can
    be checked against it bit for bit. Raises ValueError where it refuses
    (a scale that overflows)."""
    px = np.array(pixels, dtype=np.float64)
    t = float(target)
    current = float(px.mean())
    n, nonzero = px.size, np.count_nonzero(px > 0.0)
    if nonzero == 0:
        if t <= 0.0:
            return px, 0.0, 0, False
        flat = np.full_like(px, t)
        return flat, float(flat.mean()), 0, True
    if t <= 0.0:
        return np.zeros_like(px), 0.0, 1, False
    if t * n >= 255.0 * nonzero:
        result = np.where(px > 0.0, 255.0, 0.0)
        return result, float(result.mean()), 1, False
    if current > 0.0:
        scale, limit = t / current, 255.0 * current / t
    else:
        scale = t * n / float(px.sum())
        limit = 255.0 / scale
    clipped, passes, under = 0, 1, px <= limit
    while clipped < (k := n - int(np.count_nonzero(under))) < nonzero:
        scale = (t * n - 255.0 * k) / float((px * under).sum())
        clipped, passes, under = k, passes + 1, px <= 255.0 / scale
    if scale == math.inf:
        raise ValueError(f"cannot rescale to mean {t!r}: the scale overflows")
    with np.errstate(over="ignore"):
        result = np.minimum(px * scale, 255.0)
    return result, float(result.mean()), passes, False


def psnr_reference(a, b):
    """10·log10(255²·N / Σ(a − b)²) of two pixel arrays, out of place;
    math.inf when they are equal."""
    diff = np.asarray(a) - np.asarray(b)
    sumsq = float(np.sum(diff * diff))
    if sumsq <= 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 * diff.size / sumsq)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def noisy_reference(img, mean, var, seed):
    """The pixels of img after a fresh draw of N(mean, var) noise from
    default_rng(seed): rng.normal added on the [0, 1] scale, clamped, back on
    0..255. (0, 0) adds nothing and leaves the pixels as they are."""
    if mean == 0.0 and var == 0.0:
        return img.pixels
    rng = np.random.default_rng(seed)
    x = img.pixels / 255.0 + rng.normal(mean, math.sqrt(var), size=img.pixels.shape)
    return np.clip(x, 0.0, 1.0) * 255.0


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_grad(func, p: AABox, step: float = 1e-5):
    """Central-difference gradient of func(AABox) w.r.t. (cx, cy, w, h)."""
    out = []
    for field in ("cx", "cy", "w", "h"):
        lo = dict(cx=p.cx, cy=p.cy, w=p.w, h=p.h)
        hi = dict(lo)
        lo[field] -= step
        hi[field] += step
        f_lo = func(AABox(**lo))
        f_hi = func(AABox(**hi))
        out.append((f_hi - f_lo) / (2 * step))
    return np.array(out)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))
