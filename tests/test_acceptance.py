"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines (plain `pytest` captures them unless a criterion fails).
Every expected value here is either pinned by an independent oracle in
tests/helpers.py or is an exact identity of the implemented formulas.
"""

import contextlib
import io
import itertools
import time
from fractions import Fraction

import numpy as np

from detnum.attention import ChannelAttnParams, SpatialAttnParams, cbam
from detnum.boxes import AABox, iou
from detnum.cli import main
from detnum.fuse import (BNParams, FusionBlockParams, batchnorm, fold_bn,
                         fold_fusion_block, fusion_block, random_conv_params)
from detnum.losses import (angle_cost, distance_cost, loss_gradient,
                           loss_value, mks_loss, shape_cost,
                           singularity_reasons)
from detnum.metrics import DetectionRecord, evaluate
from detnum.robustness import (GrayImage, SweepConfig, add_gaussian_noise,
                               psnr, read_pgm, sweep, synthetic_gray)
from detnum.tensor import FeatureTensor, conv2d
from detnum.transport import (OTProblem, exact_kp, exact_mp, round_plan,
                              sinkhorn, uniform_marginals)

from helpers import eval_brute, fd_grad, parallel_attention, rand_box, rel_err


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1: Sinkhorn vs permutation brute force
# ---------------------------------------------------------------------------

_PERMS: dict[int, np.ndarray] = {}


def _brute_min_sum(cost: np.ndarray) -> float:
    """Minimum assignment cost (sum scale) by full permutation enumeration."""
    n = cost.shape[0]
    if n not in _PERMS:
        _PERMS[n] = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    perms = _PERMS[n]
    return float(cost[np.arange(n), perms].sum(axis=1).min())


def test_criterion_1_sinkhorn_recovers_brute_force_optimum():
    rng = np.random.default_rng(1001)
    total, hits, worst = 500, 0, 0.0
    t0 = time.perf_counter()
    for _ in range(total):
        n = int(rng.integers(2, 9))
        cost = rng.random((n, n))
        prob = OTProblem(cost, uniform_marginals(n), uniform_marginals(n))
        tp = sinkhorn(prob, 1e-4, 800, 1e-6, anneal=True)
        rounded = float(sum(cost[i, j] for i, j in round_plan(tp.plan)))
        gap = abs(rounded - _brute_min_sum(cost))
        worst = max(worst, gap)
        hits += gap <= 1e-6 * n
    elapsed = time.perf_counter() - t0
    ok = hits == total and elapsed < 10.0
    report(1, ok, f"rounded Sinkhorn plan = brute-force optimum on {hits}/{total} "
                  f"instances, max gap {worst:.2e}, {elapsed:.1f} s")
    assert hits == total
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2: Monge/Kantorovich collapse on equal-size uniform instances
# ---------------------------------------------------------------------------

def test_criterion_2_monge_kantorovich_ratio_is_one():
    rng = np.random.default_rng(1002)
    per_n: dict[int, tuple[int, float]] = {}
    for _ in range(200):
        n = int(rng.integers(2, 7))
        prob = OTProblem(rng.random((n, n)), uniform_marginals(n),
                         uniform_marginals(n))
        mp, kp = exact_mp(prob), exact_kp(prob)
        dev = abs(mp.total_cost / kp.objective - 1.0) if kp.objective > 1e-12 else 0.0
        cnt, mx = per_n.get(n, (0, 0.0))
        per_n[n] = (cnt + 1, max(mx, dev))
    print("\n    n  instances  max |MP/KP - 1|")
    for n in sorted(per_n):
        cnt, mx = per_n[n]
        print(f"    {n}  {cnt:9d}  {mx:.3e}")
    worst = max(mx for _, mx in per_n.values())
    ok = worst < 1e-6
    report(2, ok, f"MP/KP = 1 within 1e-6 on 200 equal-size uniform instances "
                  f"(worst deviation {worst:.2e})")
    assert ok


# ---------------------------------------------------------------------------
# 3: loss of a box against itself
# ---------------------------------------------------------------------------

def test_criterion_3_identical_boxes_give_exact_zero():
    rng = np.random.default_rng(1003)
    bad = 0
    for i in range(1000):
        b = rand_box(rng)
        br = mks_loss(b, b, (0.0, 0.37, 1.0)[i % 3], theta=4.0)
        zero = (br.total == 0.0 and br.angle_cost == 0.0
                and br.distance_cost == 0.0 and br.shape_cost == 0.0
                and br.iou_cost == 0.0)
        bad += not zero
    ok = bad == 0
    report(3, ok, f"mks_loss(p, p) == 0.0 exactly, all four components zero "
                  f"({1000 - bad}/1000 boxes)")
    assert ok


# ---------------------------------------------------------------------------
# 4: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_4_gradients_match_finite_differences():
    rng = np.random.default_rng(1004)
    step = 1e-5
    margin = 10.0 * step           # FD itself is invalid this close to a kink
    parts, all_ok = [], True
    for kind in ("angle", "distance", "shape", "iou_cost", "mks"):
        checked, excluded, worst = 0, 0, 0.0
        while checked < 1000:
            p, g = rand_box(rng), rand_box(rng)
            if p == g or singularity_reasons(kind, p, g, tol=margin):
                excluded += 1
                continue
            gr = loss_gradient(kind, p, g)
            fd = fd_grad(lambda q: loss_value(kind, q, g), p, step=step)
            worst = max(worst, max(rel_err(a, b) for a, b in zip(gr.grad, fd)))
            checked += 1
        ok = worst < 1e-4
        all_ok &= ok
        parts.append(f"{kind} {checked} checked/{excluded} excluded, "
                     f"max rel {worst:.1e}")
    report(4, all_ok, "analytic vs FD < 1e-4: " + "; ".join(parts))
    assert all_ok


# ---------------------------------------------------------------------------
# 5: the worked pair
# ---------------------------------------------------------------------------

def test_criterion_5_worked_pair_reproduces_pinned_values():
    p, g = AABox(1, 1, 2, 2), AABox(2, 2, 2, 2)
    iou_val = iou(p, g)
    lam = angle_cost(p, g)
    delta = distance_cost(p, g, lam)
    omega = shape_cost(p, g)
    total = mks_loss(p, g, 1.0 - iou_val).total
    ok = (abs(iou_val - 1.0 / 7.0) < 1e-5
          and abs(lam - 1.0) < 1e-5
          and abs(delta - 0.21032136637126045) < 1e-5
          and omega == 0.0
          and abs(total - 0.8398545607366507) < 1e-5)
    report(5, ok, f"worked pair: IoU {iou_val:.7f}, angle {lam:.7f}, "
                  f"distance {delta:.7f}, shape {omega:.1f}, "
                  f"total {total:.10f}")
    assert ok


# ---------------------------------------------------------------------------
# 6: BN folding
# ---------------------------------------------------------------------------

def test_criterion_6_bn_folding_matches_two_path_evaluation():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(100):
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5]))
        s = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, 1, 2]))
        hw = int(rng.integers(k + 2, 13))
        conv = random_conv_params(cin, cout, rng=rng, kernel=k, stride=s,
                                  padding=pad)
        bn = BNParams.random(cout, rng=rng)
        x = FeatureTensor.random((int(rng.integers(1, 3)), cin, hw, hw), rng)
        two_path = batchnorm(conv2d(x, conv), bn)
        folded = conv2d(x, fold_bn(conv, bn))
        worst = max(worst, float(np.abs(two_path.data - folded.data).max()))
    conv = random_conv_params(3, 4, rng=rng, kernel=3, padding=1)
    ident = BNParams(np.zeros(4), np.ones(4), np.ones(4), np.zeros(4), eps=0.0)
    fused = fold_bn(conv, ident)
    x = FeatureTensor.random((2, 3, 8, 8), rng)
    bit_exact = (np.array_equal(fused.weights, conv.weights)
                 and np.array_equal(fused.bias, conv.bias)
                 and np.array_equal(conv2d(x, fused).data, conv2d(x, conv).data))
    ok = worst < 1e-5 and bit_exact
    report(6, ok, f"100 random (conv, bn, input) triples, max two-path diff "
                  f"{worst:.2e}; identity-BN fold bit-exact: {bit_exact}")
    assert worst < 1e-5
    assert bit_exact


# ---------------------------------------------------------------------------
# 7: fusion block reparameterization
# ---------------------------------------------------------------------------

def test_criterion_7_fusion_block_fold_is_equivalent():
    rng = np.random.default_rng(1007)
    worst, n_inputs = 0.0, 0
    for c, reps in ((2, 17), (4, 17), (6, 16)):
        params = FusionBlockParams.random(c, rng=rng)
        folded = fold_fusion_block(params)
        for _ in range(reps):
            x = FeatureTensor.random((int(rng.integers(1, 3)), c, 8, 8), rng)
            d = np.abs(fusion_block(x, params).data - fusion_block(x, folded).data)
            worst = max(worst, float(d.max()))
            n_inputs += 1
    ok = worst < 1e-5 and n_inputs == 50
    report(7, ok, f"folded vs unfolded fusion block on {n_inputs} inputs, "
                  f"max diff {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 8: attention contracts
# ---------------------------------------------------------------------------

def test_criterion_8_attention_contracts():
    rng = np.random.default_rng(1008)
    shape_ok = range_ok = True
    for shape, r in (((1, 4, 6, 6), 2), ((2, 8, 5, 7), 4),
                     ((3, 16, 8, 8), 16), ((1, 3, 9, 5), 16)):
        cp = ChannelAttnParams.random(shape[1], r, rng=rng)
        sp = SpatialAttnParams.random(rng=rng)
        res = cbam(FeatureTensor.random(shape, rng), cp, sp)
        shape_ok &= res.output.shape == shape
        w, m = res.channel_weights.data, res.spatial_map.data
        range_ok &= bool((w > 0).all() and (w < 1).all()
                         and (m > 0).all() and (m < 1).all())
    cp = ChannelAttnParams.random(8, 4, rng=rng)
    sp = SpatialAttnParams.random(rng=rng)
    zero_ok = bool((cbam(FeatureTensor(np.zeros((2, 8, 6, 6))), cp, sp)
                    .output.data == 0.0).all())
    x = FeatureTensor.random((2, 8, 6, 6), rng)
    order_gap = float(np.abs(cbam(x, cp, sp).output.data
                             - parallel_attention(x, cp, sp).data).max())
    ok = shape_ok and range_ok and zero_ok and order_gap > 1e-3
    report(8, ok, f"shapes preserved: {shape_ok}; gates in (0,1): {range_ok}; "
                  f"zero input -> zero output: {zero_ok}; "
                  f"cascade vs parallel gap {order_gap:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 9: metrics vs exact-rational brute force
# ---------------------------------------------------------------------------

def _random_scenario(rng):
    gts, dets = [], []
    for _ in range(int(rng.integers(1, 16))):
        img = f"im{int(rng.integers(0, 3))}"
        cls = int(rng.integers(0, 5))
        gts.append(DetectionRecord(img, cls, rand_box(rng)))
    for _ in range(int(rng.integers(1, 51))):
        if rng.random() < 0.7:
            g = gts[int(rng.integers(0, len(gts)))]
            img, cls = g.image_id, g.class_id
            b = AABox(g.box.cx + float(rng.normal(0, 0.6)),
                      g.box.cy + float(rng.normal(0, 0.6)), g.box.w, g.box.h)
        else:
            img = f"im{int(rng.integers(0, 3))}"
            cls = int(rng.integers(0, 5))
            b = rand_box(rng)
        dets.append(DetectionRecord(img, cls, b, float(rng.random())))
    return dets, gts


def test_criterion_9_metrics_equal_brute_force_exactly():
    rng = np.random.default_rng(1009)
    mismatches = 0
    for _ in range(100):
        dets, gts = _random_scenario(rng)
        rep = evaluate(dets, gts)
        oracle_per_class, oracle_map, _ = eval_brute(dets, gts)
        scenario_ok = rep.map == float(oracle_map)
        for c in rep.per_class:
            want = oracle_per_class[c.class_id]
            scenario_ok &= (c.ap is None) if want is None else (c.ap == float(want))
        mismatches += not scenario_ok
    b1, b2, b3 = AABox(2, 2, 2, 2), AABox(10, 2, 2, 2), AABox(2, 10, 2, 2)
    rep = evaluate([DetectionRecord("a", 0, b1, 0.9),
                    DetectionRecord("a", 0, b3, 0.8),
                    DetectionRecord("a", 0, b2, 0.7)],
                   [DetectionRecord("a", 0, b1), DetectionRecord("a", 0, b2)])
    fixture_ok = (rep.map == float(Fraction(5, 6))
                  and rep.per_class[0].ap == float(Fraction(5, 6)))
    ok = mismatches == 0 and fixture_ok
    report(9, ok, f"mAP equals the exact-rational oracle on "
                  f"{100 - mismatches}/100 scenarios; AP = 5/6 fixture exact: "
                  f"{fixture_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 10: PSNR analytics
# ---------------------------------------------------------------------------

def test_criterion_10_psnr_values():
    flat = GrayImage(np.zeros((9, 13)))
    lifted = GrayImage(np.full((9, 13), 25.5))
    exact20 = psnr(flat, lifted)
    base = np.zeros((25, 40))
    hot = base.copy()
    hot[0, 0] = 255.0
    exact30 = psnr(GrayImage(base), GrayImage(hot))
    mid = GrayImage(np.full((1000, 1000), 127.5))
    empirical = psnr(mid, add_gaussian_noise(mid, 0.0, 0.01, seed=1010))
    ok = exact20 == 20.0 and exact30 == 30.0 and abs(empirical - 20.0) <= 0.5
    report(10, ok, f"MSE 0.01 -> {exact20} dB, MSE 0.001 -> {exact30} dB "
                   f"(both exact); var=0.01 on 10^6 mid-gray pixels -> "
                   f"{empirical:.3f} dB")
    assert exact20 == 20.0
    assert exact30 == 30.0
    assert abs(empirical - 20.0) <= 0.5


# ---------------------------------------------------------------------------
# 11: sweep protocol
# ---------------------------------------------------------------------------

def test_criterion_11_sweep_protocol(tmp_path):
    out_dir = tmp_path / "frames"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["sweep", "--range", "18:160:10", "--out-dir", str(out_dir)])
    files = sorted(out_dir.glob("*.pgm"))
    fifteen = code == 0 and len(files) == 15
    worst_mean = 0.0
    for lv in range(18, 159, 10):
        img = read_pgm(out_dir / f"level_{lv}.pgm")
        worst_mean = max(worst_mean, abs(float(img.pixels.mean()) - lv))
    means_ok = worst_mean <= 1.0

    def scorer(level, _img):
        if level <= 12:
            return "fail"
        return "clean" if 29 <= level <= 148 else "miss"

    res = sweep(synthetic_gray(1011), SweepConfig("brightness", 0, 164, 4, 1),
                scorer)
    bands = [(b.band, b.interval) for b in res.bands]
    bands_ok = bands == [("fail", (0.0, 12.0)), ("miss", (13.0, 28.0)),
                         ("clean", (29.0, 148.0)), ("miss", (149.0, 164.0))]
    ok = fifteen and means_ok and bands_ok
    report(11, ok, f"brightness 18:160:10 wrote {len(files)} images, worst "
                   f"|mean - target| {worst_mean:.3f}; band partition "
                   f"fail<=12 / miss 13-28 & 149-164 / clean 29-148 exact: "
                   f"{bands_ok}")
    assert fifteen
    assert means_ok
    assert bands_ok


# ---------------------------------------------------------------------------
# 12: CLI determinism
# ---------------------------------------------------------------------------

def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_12_cli_reruns_are_byte_identical(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1 1 2 2 2 2 2 2\n3 3 2 2 3 3 2 2\n")
    preds = tmp_path / "preds.txt"
    preds.write_text("im0 0 0.0 0.0 2 2 0.9\nim0 0 5.0 5.0 1 1 0.4\n"
                     "im0 0 10.0 0.0 2 2 0.8\n")
    gts = tmp_path / "gts.txt"
    gts.write_text("im0 0 0.2 0.0 2 2\nim0 0 10.3 0.0 2 2\n")
    dets = tmp_path / "dets.txt"
    dets.write_text("a 0 2 2 2 2 0.9\na 0 2 10 2 2 0.8\na 0 10 2 2 2 0.7\n")
    egts = tmp_path / "egts.txt"
    egts.write_text("a 0 2 2 2 2\na 0 10 2 2 2\n")
    out_dir = tmp_path / "sw"
    blob = tmp_path / "attn.ntb"
    commands = [
        ["loss-compare", "--pairs", str(pairs)],
        ["match", "--preds", str(preds), "--gts", str(gts)],
        ["match-verify", "--random", "5"],
        ["eval", "--dets", str(dets), "--gts", str(egts)],
        ["sweep", "--range", "18:160:10", "--out-dir", str(out_dir)],
        ["fuse-check", "--trials", "10"],
        ["gradcheck", "--trials", "40"],
        ["attn-demo", "--shape", "1,4,6,6", "--reduction", "2",
         "--out", str(blob)],
    ]

    def artifacts():
        return {str(p): p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file() and p.suffix in (".pgm", ".ntb")}

    stable, details = True, []
    for argv in commands:
        code1, out1 = _run_cli(argv)
        files1 = artifacts()
        code2, out2 = _run_cli(argv)
        files2 = artifacts()
        same = code1 == code2 == 0 and out1 == out2 and files1 == files2
        stable &= same
        details.append(f"{argv[0]}:{'ok' if same else 'DIFFERS'}")
    report(12, stable, "byte-identical reruns - " + ", ".join(details))
    assert stable
