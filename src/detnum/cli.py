"""Command-line surface for desk-scale numerical experiments.

Every subcommand prints three things to stdout, in order:

    # config {...}      -- echo of the effective parameters (seed included)
    <table>             -- CSV rows (or a JSON document with --format json)
    # summary {...}     -- machine-readable result block

Outputs carry no timestamps and no absolute paths, so a re-run with the
same config is byte-identical — the tables golden-file cleanly. Exit code
is 0 iff every check the command performs passes; a command that fails
with an error prints nothing on stdout.

Subcommands: loss-compare, match, match-verify, eval, sweep, fuse-check,
gradcheck, attn-demo.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import sys

import numpy as np

from ._common import csv_table, data_lines, dumps
from .attention import ChannelAttnParams, SpatialAttnParams, cbam
from .boxes import AABox
from .fuse import (BNParams, FusionBlockParams, batchnorm, fold_bn,
                   fold_fusion_block, fusion_block, random_conv_params)
from .losses import DEFAULT_THETA, loss_gradient, loss_value, singularity_reasons
from .tensor import FeatureTensor, conv2d, read_tensor_blob, write_blob
from .transport import (DEFAULT_EPSILON, DEFAULT_MAX_ITERS, DEFAULT_TOL, EXACT_CAP,
                        MatchConfig, certify, match)
from . import metrics
from . import robustness

__all__ = ["main", "build_parser"]

DEFAULT_SEED = 42


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _config(**kw) -> None:
    print("# config " + dumps(kw))


def _summary(**kw) -> None:
    print("# summary " + dumps(kw))


def _base(path) -> str | None:
    return os.path.basename(str(path)) if path else None


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--range expects lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--range expects three numbers, got {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"--range fields must be finite, got {text!r}")
    return lo, hi, step


def _parse_pairs_file(path) -> list[tuple[AABox, AABox]]:
    """Box-pair lines: p_cx p_cy p_w p_h g_cx g_cy g_w g_h."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, parts in data_lines(fh):
            if len(parts) != 8:
                raise ValueError(
                    f"{_base(path)}:{lineno}: expected 8 numbers per pair, got {len(parts)}")
            try:
                pairs.append((AABox(*parts[:4]), AABox(*parts[4:])))
            except ValueError as exc:
                raise ValueError(f"{_base(path)}:{lineno}: {exc}") from None
    return pairs


def _load_boxes(path) -> list[AABox]:
    return [r.box for r in metrics.parse_record_file(path)]


def _random_boxes(rng: np.random.Generator, n: int) -> list[AABox]:
    return [AABox(rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0),
                  rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
            for _ in range(n)]


def _positive(flag: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} must be > 0 and finite, got {value}")
    return value


def _split_kinds(text: str) -> list[str]:
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    if not kinds:
        raise ValueError("empty kind list")
    return kinds


# ---------------------------------------------------------------------------
# loss-compare
# ---------------------------------------------------------------------------

def cmd_loss_compare(args) -> int:
    pairs = _parse_pairs_file(args.pairs)
    kinds = _split_kinds(args.kinds)
    _config(command="loss-compare", pairs=_base(args.pairs), kinds=kinds,
            theta=args.theta, seed=args.seed)
    rows = []
    all_finite = True
    for idx, (p, g) in enumerate(pairs):
        for kind in kinds:
            gr = loss_gradient(kind, p, g, theta=args.theta)
            rows.append((idx, kind, gr.value, *gr.grad, gr.singular))
            if not (math.isfinite(gr.value)
                    and all(math.isfinite(c) for c in gr.grad)):
                all_finite = False
    print(csv_table("pair,kind,value,grad_cx,grad_cy,grad_w,grad_h,singular", rows))
    _summary(n_pairs=len(pairs), kinds=kinds, all_finite=all_finite,
             passed=all_finite)
    return 0 if all_finite else 1


# ---------------------------------------------------------------------------
# match / match-verify
# ---------------------------------------------------------------------------

def _match_config(args) -> MatchConfig:
    return MatchConfig(epsilon=args.epsilon, max_iters=args.iters, tol=args.tol,
                       cost=args.cost, theta=args.theta)


def cmd_match(args) -> int:
    preds = _load_boxes(args.preds)
    gts = _load_boxes(args.gts)
    cfg = _match_config(args)
    _config(command="match", preds=_base(args.preds), gts=_base(args.gts),
            epsilon=cfg.epsilon, iters=cfg.max_iters, tol=cfg.tol,
            cost=cfg.cost, theta=cfg.theta, seed=args.seed)
    res = match(preds, gts, cfg)
    rows = [
        (i, j, b.angle_cost, b.distance_cost, b.shape_cost, b.iou_cost, b.total)
        for (i, j), b in zip(res.assignment.pairs, res.breakdowns)
    ]
    if args.format == "json":
        print(dumps({
            "pairs": [{"pred": i, "gt": j, "total": b.total}
                      for (i, j), b in zip(res.assignment.pairs, res.breakdowns)],
            "unmatched_predictions": list(res.assignment.unmatched_predictions),
        }))
    else:
        print(csv_table("pred,gt,angle_cost,distance_cost,shape_cost,iou_cost,total", rows))
    _summary(n_preds=len(preds), n_gts=len(gts),
             total_cost=res.assignment.total_cost,
             unmatched_predictions=list(res.assignment.unmatched_predictions),
             converged=res.plan.converged, iterations=res.plan.iterations,
             passed=res.plan.converged)
    return 0 if res.plan.converged else 1


def _parse_random_size(text: str) -> tuple[int, int]:
    try:
        sizes = [int(v) for v in text.split(":")]
    except ValueError:
        raise ValueError(f"--random expects N or N:M ints, got {text!r}") from None
    if len(sizes) > 2 or any(v < 1 for v in sizes):
        raise ValueError(f"--random expects N or N:M with sizes >= 1, got {text!r}")
    return sizes[0], sizes[-1]


def cmd_match_verify(args) -> int:
    if args.random is not None:
        if args.preds or args.gts:
            raise ValueError("match-verify takes --random or --preds/--gts, not both")
        n, m = _parse_random_size(args.random)
        if max(n, m) > EXACT_CAP:
            raise ValueError(f"--random {args.random}: match-verify caps each side "
                             f"at {EXACT_CAP} boxes, got {n}x{m}")
        rng = np.random.default_rng(args.seed)
        preds, gts = _random_boxes(rng, n), _random_boxes(rng, m)
        source = {"random": f"{n}:{m}"}
    else:
        if not (args.preds and args.gts):
            raise ValueError("match-verify needs --preds/--gts or --random N[:M]")
        preds, gts = _load_boxes(args.preds), _load_boxes(args.gts)
        for flag, path, boxes in (("--preds", args.preds, preds), ("--gts", args.gts, gts)):
            if len(boxes) > EXACT_CAP:
                raise ValueError(f"{flag} {_base(path)}: match-verify caps each side "
                                 f"at {EXACT_CAP} boxes, got {len(boxes)}")
        source = {"preds": _base(args.preds), "gts": _base(args.gts)}
    _config(command="match-verify", **source, epsilon=args.epsilon,
            iters=args.iters, tol=args.tol, cost=args.cost, theta=args.theta,
            seed=args.seed)
    res = match(preds, gts, _match_config(args))
    info = certify(res.problem, res.assignment)
    passed = info.pop("passed")
    info["unmatched_predictions"] = len(res.assignment.unmatched_predictions)
    n, m = res.problem.n, res.problem.m
    rows = [("n", n), ("m", m), ("monge_feasible", n == m), *info.items(),
            ("sinkhorn_objective", res.plan.objective),
            ("sinkhorn_iterations", res.plan.iterations)]
    print(csv_table("quantity,value", rows))
    _summary(converged=res.plan.converged, passed=passed, **info)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    dets = metrics.parse_record_file(args.dets)
    gts = metrics.parse_record_file(args.gts)
    _config(command="eval", dets=_base(args.dets), gts=_base(args.gts),
            iou_thresh=args.iou_thresh, method=args.method, seed=args.seed)
    report = metrics.evaluate(dets, gts, args.iou_thresh, method=args.method)
    if args.format == "json":
        print(metrics.report_to_json(report))
    else:
        print(metrics.report_to_csv(report))
    _summary(map=report.map, iou_threshold=report.iou_threshold,
             n_classes=len(report.per_class), passed=True)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_outcomes_file(path) -> dict[float, str]:
    table = {}
    given_on = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, parts in data_lines(fh):
            if len(parts) != 2 or parts[1] not in robustness.OUTCOMES:
                raise ValueError(
                    f"{_base(path)}:{lineno}: expected `level outcome` with outcome "
                    f"in {robustness.OUTCOMES}, got {' '.join(parts)!r}")
            try:
                level = round(float(parts[0]), 12)
            except ValueError as exc:
                raise ValueError(f"{_base(path)}:{lineno}: {exc}") from None
            if level in given_on:
                raise ValueError(f"{_base(path)}:{lineno}: level {parts[0]} "
                                 f"already given on line {given_on[level]}")
            given_on[level] = lineno
            table[level] = parts[1]
    return table


def _parse_profile(text: str):
    try:
        fail_hi, clean_lo, clean_hi = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(
            f"--profile expects three numbers FAIL_HI:CLEAN_LO:CLEAN_HI, got {text!r}") from None
    if not all(map(math.isfinite, (fail_hi, clean_lo, clean_hi))):
        raise ValueError(f"--profile fields must be finite, got {text!r}")

    def scorer(level: float, _img) -> str:
        if level <= fail_hi:
            return "fail"
        if clean_lo <= level <= clean_hi:
            return "clean"
        return "miss"

    return scorer


def cmd_sweep(args) -> int:
    if args.outcomes and args.profile:
        raise ValueError("sweep takes --outcomes or --profile, not both")
    if args.image:
        img = robustness.read_pgm(args.image)
    else:
        img = robustness.synthetic_gray(args.seed)
    lo, hi, step = _parse_range(args.range)
    fine = _positive("--fine-step", args.fine_step) if args.fine_step is not None else step / 10.0
    cfg = robustness.SweepConfig(
        mode=args.mode, lo=lo, hi=hi, coarse_step=step, fine_step=fine,
        noise_axis=args.noise_axis, seed=args.seed)
    if args.outcomes:
        table = _parse_outcomes_file(args.outcomes)

        def base_scorer(level, _img):
            key = round(level, 12)
            if key not in table:
                raise ValueError(f"{_base(args.outcomes)}: no entry for level {level:g}")
            return table[key]
    elif args.profile:
        base_scorer = _parse_profile(args.profile)
    else:
        def base_scorer(_level, _img):
            return "clean"

    written = []
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

        def scorer(level, degraded):
            name = f"level_{level:g}.pgm"
            robustness.write_pgm(degraded, os.path.join(args.out_dir, name))
            written.append(name)
            return base_scorer(level, degraded)
    else:
        scorer = base_scorer

    _config(command="sweep", image=_base(args.image) or "synthetic",
            mode=cfg.mode, range=args.range, fine_step=cfg.fine_step,
            noise_axis=cfg.noise_axis, profile=args.profile,
            outcomes=_base(args.outcomes), out_dir=_base(args.out_dir),
            seed=args.seed)
    result = robustness.sweep(img, cfg, scorer)
    if args.format == "json":
        print(dumps({
            "entries": [{"level": e.level, "psnr_db": e.psnr_db,
                         "outcome": e.outcome} for e in result.entries],
            "bands": robustness.bands_to_json(result),
        }))
    else:
        print(robustness.sweep_to_csv(result))
    _summary(bands=robustness.bands_to_json(result),
             n_levels=len(result.entries), images_written=len(written),
             passed=True)
    return 0


# ---------------------------------------------------------------------------
# fuse-check
# ---------------------------------------------------------------------------

def cmd_fuse_check(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    _positive("--tol", args.tol)
    rng = np.random.default_rng(args.seed)
    _config(command="fuse-check", trials=args.trials, tol=args.tol,
            block=args.block, seed=args.seed)
    rows = []
    worst = 0.0
    passed = 0
    for t in range(args.trials):
        if args.block:
            c = 2 * int(rng.integers(1, 4))
            params = FusionBlockParams.random(c, rng=rng)
            x = FeatureTensor.random((int(rng.integers(1, 3)), c, 8, 8), rng)
            base = fusion_block(x, params)
            folded = fusion_block(x, fold_fusion_block(params))
            kind = "block"
        else:
            cin = int(rng.integers(1, 5))
            cout = int(rng.integers(1, 5))
            k = int(rng.choice([1, 3, 5]))
            s = int(rng.choice([1, 2]))
            pad = int(rng.choice([0, 1, 2]))
            hw = int(rng.integers(6, 13))
            conv = random_conv_params(cin, cout, rng=rng, kernel=k, stride=s,
                                      padding=pad)
            bn = BNParams.random(cout, rng=rng)
            x = FeatureTensor.random((int(rng.integers(1, 3)), cin, hw, hw), rng)
            base = batchnorm(conv2d(x, conv), bn)
            folded = conv2d(x, fold_bn(conv, bn))
            kind = "bn"
        diff = float(np.abs(base.data - folded.data).max())
        ok = diff < args.tol
        worst = max(worst, diff)
        passed += int(ok)
        rows.append((t, kind, diff, ok))
    print(csv_table("trial,kind,max_abs_diff,ok", rows))
    all_ok = passed == args.trials
    _summary(trials=args.trials, passed=passed, max_diff=worst, tol=args.tol,
             seed=args.seed, all_passed=all_ok)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _fd_gradient(kind: str, p: AABox, g: AABox, theta: float, h: float):
    out = []
    for i in range(4):
        hi = list(p)
        lo = list(p)
        hi[i] += h
        lo[i] -= h
        f_hi = loss_value(kind, AABox(*hi), g, theta=theta)
        f_lo = loss_value(kind, AABox(*lo), g, theta=theta)
        out.append((f_hi - f_lo) / (2.0 * h))
    return tuple(out)


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    _positive("--step", args.step)
    _positive("--tol", args.tol)
    rng = np.random.default_rng(args.seed)
    kinds = _split_kinds(args.kinds)
    _config(command="gradcheck", kinds=kinds, trials=args.trials,
            step=args.step, tol=args.tol, theta=args.theta, seed=args.seed)
    margin = 10.0 * args.step
    excluded = {k: 0 for k in kinds}
    max_err = {k: 0.0 for k in kinds}
    for _ in range(args.trials):
        p, g = _random_boxes(rng, 2)
        for kind in kinds:
            if singularity_reasons(kind, p, g, tol=margin):
                excluded[kind] += 1
                continue
            gr = loss_gradient(kind, p, g, theta=args.theta)
            fd = _fd_gradient(kind, p, g, args.theta, args.step)
            for a, b in zip(gr.grad, fd):
                rel = abs(a - b) / max(1.0, abs(a), abs(b))
                if rel > max_err[kind]:
                    max_err[kind] = rel
    rows = []
    all_ok = True
    for kind in kinds:
        checked = args.trials - excluded[kind]
        ok = checked > 0 and max_err[kind] < args.tol
        all_ok &= ok
        rows.append((kind, checked, excluded[kind], max_err[kind], ok))
    print(csv_table("kind,pairs_checked,excluded,max_rel_err,ok", rows))
    _summary(trials=args.trials, step=args.step, tol=args.tol,
             all_passed=all_ok, seed=args.seed)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# attn-demo
# ---------------------------------------------------------------------------

def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--shape expects n,c,h,w ints, got {text!r}") from None
    if len(shape) != 4 or any(v < 1 for v in shape):
        raise ValueError(f"--shape expects 4 positive ints, got {text!r}")
    return shape


def cmd_attn_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.input:
        x = read_tensor_blob(args.input)
        source = _base(args.input)
    else:
        x = FeatureTensor.random(_parse_shape(args.shape), rng)
        source = "random"
    _config(command="attn-demo", input=source, shape=list(x.shape),
            reduction=args.reduction, out=_base(args.out), seed=args.seed)
    cp = ChannelAttnParams.random(x.shape[1], args.reduction, rng=rng)
    sp = SpatialAttnParams.random(rng=rng)
    res = cbam(x, cp, sp)
    w, m, y = res.channel_weights.data, res.spatial_map.data, res.output.data
    rows = [
        ("channel_weights", float(w.min()), float(w.max()), float(w.mean())),
        ("spatial_map", float(m.min()), float(m.max()), float(m.mean())),
        ("output", float(y.min()), float(y.max()), float(y.mean())),
    ]
    print(csv_table("quantity,min,max,mean", rows))
    shape_ok = res.output.shape == x.shape
    range_ok = bool((w > 0).all() and (w < 1).all() and (m > 0).all() and (m < 1).all())
    if args.out:
        write_blob(args.out, {"output": y, "channel_weights": w, "spatial_map": m})
    ok = shape_ok and range_ok
    _summary(shape_preserved=shape_ok, weights_in_open_unit=range_ok,
             wrote=_base(args.out), passed=ok)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="detnum",
        description="Numerical experiments: box losses, OT matching, "
                    "attention, BN folding, detection metrics, degradation sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, *, theta=False, solver=False, fmt=False):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if theta:
            p.add_argument("--theta", type=float, default=DEFAULT_THETA)
        if solver:
            p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
            p.add_argument("--iters", type=int, default=DEFAULT_MAX_ITERS)
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)
            p.add_argument("--cost", choices=["iou", "siou"], default="iou")
        if fmt:
            p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("loss-compare", help="per-pair loss values and gradients")
    p.add_argument("--pairs", required=True)
    p.add_argument("--kinds", default="mks,siou,giou,diou,ciou")
    add_common(p, theta=True)
    p.set_defaults(func=cmd_loss_compare)

    p = sub.add_parser("match", help="Sinkhorn matching of predictions to ground truths")
    p.add_argument("--preds", required=True)
    p.add_argument("--gts", required=True)
    add_common(p, theta=True, solver=True, fmt=True)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("match-verify", help="Sinkhorn vs exact-oracle comparison")
    p.add_argument("--preds")
    p.add_argument("--gts")
    p.add_argument("--random", metavar="N[:M]",
                   help="generate a random instance instead of reading files")
    add_common(p, theta=True, solver=True)
    p.set_defaults(func=cmd_match_verify)

    p = sub.add_parser("eval", help="detection metrics: P/R, AP, mAP")
    p.add_argument("--dets", required=True)
    p.add_argument("--gts", required=True)
    p.add_argument("--iou-thresh", type=float, default=0.5)
    p.add_argument("--method", choices=["all_points", "11point"], default="all_points")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="brightness / noise degradation sweep")
    p.add_argument("--image", help="input PGM (default: seeded synthetic image)")
    p.add_argument("--mode", choices=["brightness", "noise"], default="brightness")
    p.add_argument("--range", required=True, metavar="lo:hi:step")
    p.add_argument("--fine-step", type=float, default=None,
                   help="refinement step (default: coarse step / 10)")
    p.add_argument("--noise-axis", choices=["joint", "mean", "var"], default="joint")
    p.add_argument("--outcomes", help="file of `level outcome` lines from a detector run")
    p.add_argument("--profile", metavar="FAIL_HI:CLEAN_LO:CLEAN_HI",
                   help="synthetic scorer: fail <= FAIL_HI, clean in [CLEAN_LO, CLEAN_HI], else miss")
    p.add_argument("--out-dir", help="write the degraded image per level as PGM")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fuse-check", help="conv+BN folding equivalence trials")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--block", action="store_true",
                   help="check whole fusion blocks instead of single conv+BN pairs")
    add_common(p)
    p.set_defaults(func=cmd_fuse_check)

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p.add_argument("--kinds", default="angle,distance,shape,iou_cost,mks")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    add_common(p, theta=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("attn-demo", help="run CBAM on a tensor and report stats")
    p.add_argument("--input", help="NTB1 tensor blob (default: random by --shape)")
    p.add_argument("--shape", default="2,8,12,12")
    p.add_argument("--reduction", type=int, default=16)
    p.add_argument("--out", help="write output/weights/map as an NTB1 blob")
    add_common(p)
    p.set_defaults(func=cmd_attn_demo)

    return ap


_parser = functools.cache(build_parser)   # parsing leaves the parser unchanged


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
