"""The four workloads: inputs, one operation, output checks, layer spans.

Each workload class provides

- ``generate(seed, inputs)``: write the seeded inputs (benchmark-side, untimed);
- ``prepare(inputs)``: the program's own one-time preparation, such as
  reading inputs and folding BN; ``setup_s`` times it in a fresh process;
- ``round(state)``: the (key, operation) pairs of one round; a run executes
  whole rounds, so every run attempts the same mix of operations;
- ``failure(output)``: the program's own report that an operation failed;
- ``fingerprint(output)``: the exact bytes an operation produced, compared
  between every timed operation and the checked one of the same key;
- ``check(state, key, output)``: independent checks, a list of causes;
- ``patches()`` and ``layers(totals, n_ops)``: the traced layer boundaries
  and the per-layer metrics derived from their spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from detnum import attention, cli, fuse, losses, metrics, robustness, tensor, transport
from detnum.boxes import AABox

import oracles


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _box_line(image: str, cls: int, box, conf=None) -> str:
    fields = [image, str(cls)] + [repr(float(v)) for v in box]
    if conf is not None:
        fields.append(repr(float(conf)))
    return " ".join(fields)


def _output_table(text: str, header: str):
    """CSV rows between a command's header line and its `# summary` line,
    and the summary as a dict."""
    lines = text.splitlines()
    end = next(k for k, line in enumerate(lines) if line.startswith("# summary "))
    rows = [line.split(",") for line in lines[lines.index(header) + 1:end]]
    return rows, json.loads(lines[end][len("# summary "):])


def _as_array(boxes) -> np.ndarray:
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes])


def _ms(totals, name: str, n_ops: int) -> float:
    return 1e3 * totals.get(name, {}).get("self_s", 0.0) / n_ops


def _units(totals, name: str, unit: str) -> float:
    return float(totals.get(name, {}).get("units", {}).get(unit, 0))


def _macs(args, out):
    _x, p = args
    n, oc, oh, ow = out.shape
    _, ic, kh, kw = p.weights.shape
    return {"macs": n * oc * oh * ow * ic * kh * kw}


def _gmac_per_s(totals, name: str) -> float:
    t = totals.get(name, {}).get("self_s", 0.0)
    return _units(totals, name, "macs") / t / 1e9 if t > 0 else 0.0


class Workload:
    """No-op defaults for the two hooks only a traced run calls."""

    def before_trace(self, state) -> None:
        """Untimed preparation for traced_extra."""

    def traced_extra(self, state, key) -> None:
        """Extra traced calls after each operation of a traced round,
        outside the operation's own time."""


# ---------------------------------------------------------------------------
# match: Sinkhorn label assignment plus MKS loss gradients
# ---------------------------------------------------------------------------

class Match(Workload):
    """Square scenes of N_BOXES boxes. Per round, SEPARATED seeded scenes in
    which each prediction overlaps only its own ground truth, and the
    CLUSTERED_SEEDS scenes of the dense generator, which do not depend on
    --seed. The default MatchConfig stops unconverged on the clustered
    ones, which therefore count as failed operations."""

    name = "match"
    N_BOXES = 50
    SEPARATED = 9
    CLUSTERED_SEEDS = (0, 1, 2)
    GRID_COLS, SPACING = 10, 24.0
    FD_STEP, FD_TOL, FD_SAMPLE = 1e-5, 1e-4, 5

    @staticmethod
    def _jitter(rng, box):
        cx, cy, w, h = box
        jx, jy = rng.normal(0.0, 1.0, 2)
        return (cx + jx, cy + jy, w * rng.uniform(0.9, 1.1), h * rng.uniform(0.9, 1.1))

    def _clustered(self, seed):
        # 100x100 area, sides 5-15, centre jitter sigma 1, size +-10%
        rng = np.random.default_rng(seed)
        gts, preds = [], []
        for _ in range(self.N_BOXES):
            cx, cy = rng.uniform(0.0, 100.0, 2)
            w, h = rng.uniform(5.0, 15.0, 2)
            gts.append((cx, cy, w, h))
            preds.append(self._jitter(rng, (cx, cy, w, h)))
        return preds, gts

    def _separated(self, rng):
        # one box per 24-unit grid cell; a box reaches at most 7.5 * 1.1 + 2
        # from its cell centre when the centre jitter is clipped to 2, so
        # boxes of different cells never overlap
        gts, preds = [], []
        for k in range(self.N_BOXES):
            row, col = divmod(k, self.GRID_COLS)
            cx = (col + 0.5) * self.SPACING + rng.uniform(-1.0, 1.0)
            cy = (row + 0.5) * self.SPACING + rng.uniform(-1.0, 1.0)
            w, h = rng.uniform(5.0, 15.0, 2)
            gts.append((cx, cy, w, h))
            jx, jy = np.clip(rng.normal(0.0, 1.0, 2), -2.0, 2.0)
            preds.append((cx + jx, cy + jy, w * rng.uniform(0.9, 1.1), h * rng.uniform(0.9, 1.1)))
        perm = rng.permutation(self.N_BOXES)
        return [preds[i] for i in perm], gts

    def _order(self):
        # every fourth operation is a clustered scene: S S S C S S S C ...
        sep = list(range(self.SEPARATED))
        clu = [self.SEPARATED + k for k in range(len(self.CLUSTERED_SEEDS))]
        per = self.SEPARATED // len(clu)
        out = []
        for k, c in enumerate(clu):
            out += sep[k * per:(k + 1) * per] + [c]
        return out + sep[len(clu) * per:]

    def generate(self, seed: int, inputs: Path) -> None:
        scenes = [self._separated(np.random.default_rng([seed, k])) for k in range(self.SEPARATED)]
        scenes += [self._clustered(s) for s in self.CLUSTERED_SEEDS]
        for k, (preds, gts) in enumerate(scenes):
            _write_lines(inputs / f"scene{k:02d}_preds.txt", (_box_line("s", 0, b) for b in preds))
            _write_lines(inputs / f"scene{k:02d}_gts.txt", (_box_line("s", 0, b) for b in gts))

    def prepare(self, inputs: Path):
        def boxes(path):
            return [r.box for r in metrics.parse_record_file(path)]
        return [(boxes(inputs / f"scene{k:02d}_preds.txt"), boxes(inputs / f"scene{k:02d}_gts.txt"))
                for k in range(self.SEPARATED + len(self.CLUSTERED_SEEDS))]

    def round(self, state):
        return [(k, lambda s=state[k]: self._op(*s)) for k in self._order()]

    @staticmethod
    def _op(preds, gts):
        res = transport.match(preds, gts)
        grads = [losses.loss_gradient("mks", preds[i], gts[j], negative_iou=b.negative_iou)
                 for (i, j), b in zip(res.assignment.pairs, res.breakdowns)]
        return res, grads

    def failure(self, out):
        plan = out[0].plan
        if plan.converged:
            return None
        return (f"sinkhorn unconverged after {plan.iterations} sweeps "
                f"(marginal violation {plan.marginal_violation:.2e})")

    def fingerprint(self, out):
        res, grads = out
        return repr((res.assignment, [b.total for b in res.breakdowns],
                     [(g.value, g.grad, g.singular) for g in grads],
                     res.plan.iterations, res.plan.converged)).encode()

    def check(self, state, key, out):
        preds, gts = state[key]
        res, grads = out
        pairs = res.assignment.pairs
        n, m = len(preds), len(gts)
        causes = []
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        if (len(pairs) != min(n, m) or len(set(rows)) != len(rows) or len(set(cols)) != len(cols)
                or not all(0 <= i < n and 0 <= j < m for i, j in pairs)):
            causes.append("pairs are not an injection of size min(n, m)")
            return causes
        cost = 1.0 - oracles.iou_matrix(_as_array(preds), _as_array(gts))
        got = float(sum(cost[i, j] for i, j in pairs))
        best = oracles.optimal_assignment_cost(cost)
        if abs(got - best) > 1e-9 * len(pairs):
            causes.append(f"assignment cost {got!r} vs optimum {best!r}")
        if abs(res.assignment.total_cost * n - got) > 1e-9 * len(pairs):
            causes.append("total_cost disagrees with the independent cost matrix")
        if any(abs(b.iou_cost - cost[i, j]) > 1e-12 for (i, j), b in zip(pairs, res.breakdowns)):
            causes.append("breakdown iou_cost disagrees with the independent IoU matrix")
        sampled = 0
        for ((i, j), b), g in zip(zip(pairs, res.breakdowns), grads):
            p, q = preds[i], gts[j]
            if g.value != losses.loss_value("mks", p, q, negative_iou=b.negative_iou):
                causes.append(f"pair {(i, j)}: loss_gradient value differs from loss_value")
            if sampled >= self.FD_SAMPLE or losses.singularity_reasons("mks", p, q, tol=10 * self.FD_STEP):
                continue
            sampled += 1
            fd = oracles.central_difference(
                lambda x: losses.loss_value("mks", AABox(*x), q, negative_iou=b.negative_iou),
                (p.cx, p.cy, p.w, p.h), self.FD_STEP)
            err = max(abs(a - d) / max(1.0, abs(a), abs(d)) for a, d in zip(g.grad, fd))
            if err > self.FD_TOL:
                causes.append(f"pair {(i, j)}: gradient vs central differences, rel err {err:.2e}")
        return causes

    def patches(self):
        sweeps = lambda a, out: {"sweeps": out.iterations, "converged": int(out.converged)}  # noqa: E731
        return [
            (transport, "match", "transport.match", None),
            (transport, "build_cost_matrix", "transport.build_cost_matrix", None),
            (transport, "sinkhorn", "transport.sinkhorn", sweeps),
            (transport, "round_plan", "transport.round_plan", None),
            (transport, "mks_loss", "losses.mks_loss", None),
            (losses, "loss_gradient", "losses.loss_gradient", lambda a, out: {"pairs": 1}),
        ]

    def layers(self, totals, n_ops):
        sink = totals.get("transport.sinkhorn", {})
        sweeps = _units(totals, "transport.sinkhorn", "sweeps")
        grad = totals.get("losses.loss_gradient", {})
        return {
            "transport.build_cost_matrix.ms": _ms(totals, "transport.build_cost_matrix", n_ops),
            "transport.sinkhorn.ms": _ms(totals, "transport.sinkhorn", n_ops),
            "transport.sinkhorn.sweeps": sweeps / n_ops,
            "transport.sinkhorn.us_per_sweep": 1e6 * sink.get("self_s", 0.0) / sweeps if sweeps else 0.0,
            "transport.sinkhorn.converged": _units(totals, "transport.sinkhorn", "converged"),
            "transport.round_plan.ms": _ms(totals, "transport.round_plan", n_ops),
            "losses.mks_loss.ms": _ms(totals, "losses.mks_loss", n_ops),
            "losses.loss_gradient.ms": _ms(totals, "losses.loss_gradient", n_ops),
            "losses.loss_gradient.us_per_pair":
                1e6 * grad["self_s"] / grad["calls"] if grad.get("calls") else 0.0,
        }


# ---------------------------------------------------------------------------
# eval: `detnum eval` over a road-test-like record set
# ---------------------------------------------------------------------------

class Eval(Workload):
    """SETS record sets of N_IMAGES images, 1280x720, tall thin objects of
    CLASSES classes. Image k holds 3 + k % 4 objects and 1 + k % 3 false
    positives; each object gets 0, 1 or 2 jittered detections in the fixed
    shares DETS_PER_OBJECT, shuffled by the seed."""

    name = "eval"
    SETS = 2
    N_IMAGES = 200
    CLASSES = 3
    DETS_PER_OBJECT = (0, 1, 1, 1, 1, 1, 2, 2, 2, 0)   # 20% none, 50% one, 30% two

    def _records(self, rng):
        gts, dets = [], []
        n_obj = sum(3 + k % 4 for k in range(self.N_IMAGES))
        shares = np.resize(self.DETS_PER_OBJECT, n_obj)
        n_dets = iter(rng.permutation(shares))

        def tall_box():
            return (rng.uniform(20.0, 1260.0), rng.uniform(60.0, 660.0),
                    rng.uniform(4.0, 12.0), rng.uniform(25.0, 80.0))

        for k in range(self.N_IMAGES):
            image = f"frame{k:04d}"
            for _ in range(3 + k % 4):
                cls = int(rng.integers(0, self.CLASSES))
                cx, cy, w, h = box = tall_box()
                gts.append(_box_line(image, cls, box))
                for _ in range(next(n_dets)):
                    jittered = (cx + rng.normal(0.0, 1.0), cy + rng.normal(0.0, 3.0),
                                w * rng.uniform(0.85, 1.15), h * rng.uniform(0.9, 1.1))
                    dets.append(_box_line(image, cls, jittered, rng.uniform(0.05, 1.0)))
            for _ in range(1 + k % 3):
                dets.append(_box_line(image, int(rng.integers(0, self.CLASSES)), tall_box(),
                                      rng.uniform(0.05, 0.7)))
        return dets, gts

    def generate(self, seed: int, inputs: Path) -> None:
        for k in range(self.SETS):
            dets, gts = self._records(np.random.default_rng([seed, k]))
            _write_lines(inputs / f"set{k}_dets.txt", dets)
            _write_lines(inputs / f"set{k}_gts.txt", gts)

    def prepare(self, inputs: Path):
        # `detnum eval` reads its record files on every operation
        return {"inputs": inputs, "records": {}}

    def _paths(self, state, key):
        return (str(state["inputs"] / f"set{key}_dets.txt"), str(state["inputs"] / f"set{key}_gts.txt"))

    def round(self, state):
        ops = []
        for k in range(self.SETS):
            dets, gts = self._paths(state, k)
            ops.append((k, lambda d=dets, g=gts: _run_cli(["eval", "--dets", d, "--gts", g])))
        return ops

    def failure(self, out):
        return None if out[0] == 0 else f"detnum eval exited {out[0]}"

    def fingerprint(self, out):
        return out[1].encode()

    def check(self, state, key, out):
        dets_path, gts_path = self._paths(state, key)
        with open(dets_path, encoding="utf-8") as d, open(gts_path, encoding="utf-8") as g:
            expect, m_ap = oracles.evaluate(d.readlines(), g.readlines())
        rows, summary = _output_table(out[1], "class_id,n_gt,tp,fp,fn,precision,recall,ap")
        causes = []
        got = {}
        for cls, n_gt, tp, fp, fn, _p, _r, ap in rows:
            got[int(cls)] = (int(n_gt), int(tp), int(fp), int(fn), float(ap) if ap else None)
        if sorted(got) != sorted(expect):
            return [f"classes {sorted(got)} vs {sorted(expect)}"]
        for cls, (n_gt, tp, fp, fn, ap) in expect.items():
            g = got[cls]
            if g[:4] != (n_gt, tp, fp, fn):
                causes.append(f"class {cls}: n_gt/tp/fp/fn {g[:4]} vs {(n_gt, tp, fp, fn)}")
            if (ap is None) != (g[4] is None) or (ap is not None and abs(g[4] - float(ap)) > 1e-12):
                causes.append(f"class {cls}: AP {g[4]!r} vs {None if ap is None else float(ap)!r}")
        if abs(summary["map"] - m_ap) > 1e-12:
            causes.append(f"mAP {summary['map']!r} vs {m_ap!r}")
        return causes

    def before_trace(self, state):
        for k in range(self.SETS):
            state["records"][k] = [metrics.parse_record_file(p) for p in self._paths(state, k)]

    def traced_extra(self, state, key):
        # greedy matching alone, on the same records, outside the operation
        metrics.confusion_counts(*state["records"][key])

    def patches(self):
        return [
            (cli, "main", "cli.main", None),
            (metrics, "parse_record_file", "metrics.parse_record_file", None),
            (metrics, "evaluate", "metrics.evaluate", None),
            (metrics, "report_to_csv", "metrics.report_to_csv", None),
            (metrics, "confusion_counts", "metrics.confusion_counts", None),
        ]

    def layers(self, totals, n_ops):
        evaluate = _ms(totals, "metrics.evaluate", n_ops)
        matching = _ms(totals, "metrics.confusion_counts", n_ops)
        return {
            "metrics.parse_record_file.ms": _ms(totals, "metrics.parse_record_file", n_ops),
            "metrics.confusion_counts.ms": matching,
            "metrics.evaluate.ms": evaluate,
            "metrics.ap.ms": evaluate - matching,
            "metrics.report_to_csv.ms": _ms(totals, "metrics.report_to_csv", n_ops),
            "cli.self_ms": _ms(totals, "cli.main", n_ops),
        }


# ---------------------------------------------------------------------------
# features: fusion block + CBAM over a three-level pyramid
# ---------------------------------------------------------------------------

class Features(Workload):
    """One frame is a LEVELS pyramid, (channels, side) per level. Each
    level runs fusion_block with folded parameters, then cbam. FRAMES
    seeded frames share one set of seeded parameters."""

    name = "features"
    LEVELS = ((16, 64), (32, 32), (64, 16))
    FRAMES = 2
    REDUCTION = 16
    SPATIAL_KERNEL = 7

    def generate(self, seed: int, inputs: Path) -> None:
        rng = np.random.default_rng(seed)
        params, frames = {}, {}
        for lv, (c, side) in enumerate(self.LEVELS):
            block = fuse.FusionBlockParams.random(c, rng=rng)
            for slot in ("conv_a", "conv_b", "merge"):
                conv = getattr(block, slot)
                params[f"{lv}.{slot}.weights"] = conv.weights
                params[f"{lv}.{slot}.bias"] = conv.bias
            for slot in ("bn_a", "bn_b"):
                bn = getattr(block, slot)
                for f in ("mu", "var", "gamma", "beta"):
                    params[f"{lv}.{slot}.{f}"] = getattr(bn, f)
                params[f"{lv}.{slot}.eps"] = np.array([bn.eps])
            cp = attention.ChannelAttnParams.random(c, self.REDUCTION, rng=rng)
            for f in ("w1", "b1", "w2", "b2"):
                params[f"{lv}.channel.{f}"] = getattr(cp, f)
            sp = attention.SpatialAttnParams.random(self.SPATIAL_KERNEL, rng=rng)
            params[f"{lv}.spatial.weights"] = sp.conv.weights
            params[f"{lv}.spatial.bias"] = sp.conv.bias
            for k in range(self.FRAMES):
                frames[f"{k}.{lv}"] = rng.normal(0.0, 1.0, size=(1, c, side, side))
        tensor.write_blob(inputs / "params.ntb", params)
        tensor.write_blob(inputs / "frames.ntb", frames)

    def prepare(self, inputs: Path):
        p = tensor.read_blob(inputs / "params.ntb")
        f = tensor.read_blob(inputs / "frames.ntb")
        levels = []
        for lv in range(len(self.LEVELS)):
            def conv(slot, padding):
                return tensor.Conv2DParams(p[f"{lv}.{slot}.weights"], p[f"{lv}.{slot}.bias"],
                                           stride=1, padding=padding)

            def bn(slot):
                return fuse.BNParams(*(p[f"{lv}.{slot}.{k}"] for k in ("mu", "var", "gamma", "beta")),
                                     eps=float(p[f"{lv}.{slot}.eps"][0]))

            block = fuse.FusionBlockParams(conv("conv_a", 1), bn("bn_a"), conv("conv_b", 1), bn("bn_b"),
                                           conv("merge", 0))
            cp = attention.ChannelAttnParams(*(p[f"{lv}.channel.{k}"] for k in ("w1", "b1", "w2", "b2")),
                                             reduction_ratio=self.REDUCTION)
            sp = attention.SpatialAttnParams(conv("spatial", (self.SPATIAL_KERNEL - 1) // 2))
            levels.append((fuse.fold_fusion_block(block), block, cp, sp))
        frames = [[tensor.FeatureTensor(f[f"{k}.{lv}"]) for lv in range(len(self.LEVELS))]
                  for k in range(self.FRAMES)]
        return {"levels": levels, "frames": frames}

    def round(self, state):
        return [(k, lambda xs=state["frames"][k]: self._op(state["levels"], xs)) for k in range(self.FRAMES)]

    @staticmethod
    def _op(levels, xs):
        out = []
        for (folded, _block, cp, sp), x in zip(levels, xs):
            y = fuse.fusion_block(x, folded)
            out.append((y, attention.cbam(y, cp, sp)))
        return out

    def failure(self, out):
        return None

    def fingerprint(self, out):
        h = hashlib.blake2b()
        for y, r in out:
            for a in (y.data, r.output.data, r.channel_weights.data, r.spatial_map.data):
                h.update(a.tobytes())
        return h.digest()

    def check(self, state, key, out):
        causes = []
        levels = zip(state["levels"], state["frames"][key], out)
        for lv, ((folded, block, _cp, _sp), x, (y, r)) in enumerate(levels):
            scale = max(1.0, float(np.abs(y.data).max()))
            unfolded = fuse.fusion_block(x, block).data
            if np.abs(unfolded - y.data).max() > 1e-9 * scale:
                causes.append(f"level {lv}: folded and unfolded fusion blocks disagree")
            ca = folded.conv_a.in_channels
            branches = [oracles.conv2d(part, c.weights, c.bias, c.stride, c.padding)
                        for part, c in ((x.data[:, :ca], folded.conv_a), (x.data[:, ca:], folded.conv_b))]
            ref = oracles.conv2d(np.concatenate(branches, axis=1), folded.merge.weights, folded.merge.bias,
                                 (1, 1), (0, 0))
            if np.abs(ref - y.data).max() > 1e-9 * scale:
                causes.append(f"level {lv}: fusion output disagrees with the tensordot convolution")
            w, m = r.channel_weights.data, r.spatial_map.data
            if not ((w > 0).all() and (w < 1).all() and (m > 0).all() and (m < 1).all()):
                causes.append(f"level {lv}: attention gates leave (0, 1)")
            if np.abs(r.output.data - y.data * w * m).max() > 1e-12 * scale:
                causes.append(f"level {lv}: cbam output is not x * w * m")
        if key == 0:
            # the kernel itself, on the attention conv's 2 -> 1 7x7 geometry
            _f, _b, _cp, sp = state["levels"][0]
            x = state["frames"][0][0].data[:, :2]
            got = tensor.conv2d(tensor.FeatureTensor(x), sp.conv).data
            ref = oracles.conv2d(x, sp.conv.weights, sp.conv.bias, sp.conv.stride, sp.conv.padding)
            if np.abs(got - ref).max() > 1e-10 * max(1.0, float(np.abs(ref).max())):
                causes.append("conv2d disagrees with the tensordot reference")
        return causes

    def patches(self):
        return [
            (fuse, "fusion_block", "fuse.fusion_block", None),
            (fuse, "batchnorm", "fuse.batchnorm", None),
            (fuse, "conv2d", "tensor.conv2d.fuse", _macs),
            (attention, "cbam", "attention.cbam", None),
            (attention, "channel_attention_weights", "attention.channel_attention_weights", None),
            (attention, "spatial_attention_map", "attention.spatial_attention_map", None),
            (attention, "conv2d", "tensor.conv2d.attention", _macs),
        ]

    def layers(self, totals, n_ops):
        return {
            "fuse.fusion_block.ms": _ms(totals, "fuse.fusion_block", n_ops),
            "fuse.batchnorm.ms": _ms(totals, "fuse.batchnorm", n_ops),
            "tensor.conv2d.fuse.ms": _ms(totals, "tensor.conv2d.fuse", n_ops),
            "tensor.conv2d.fuse.gmac_per_s": _gmac_per_s(totals, "tensor.conv2d.fuse"),
            "tensor.conv2d.attention.ms": _ms(totals, "tensor.conv2d.attention", n_ops),
            "tensor.conv2d.attention.gmac_per_s": _gmac_per_s(totals, "tensor.conv2d.attention"),
            "attention.cbam.ms": _ms(totals, "attention.cbam", n_ops),
            "attention.channel_attention_weights.ms":
                _ms(totals, "attention.channel_attention_weights", n_ops),
            "attention.spatial_attention_map.ms": _ms(totals, "attention.spatial_attention_map", n_ops),
        }


# ---------------------------------------------------------------------------
# sweep: `detnum sweep` in brightness and in noise mode on one PGM frame
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """A HEIGHT x WIDTH frame: a left-to-right ramp with seeded texture, a
    saturated block (sky), a near-white block and a black block (shadow).
    One operation is one `detnum sweep` over it; a round is a brightness
    sweep, then a noise sweep."""

    name = "sweep"
    HEIGHT, WIDTH = 240, 320
    SEED = "7"       # --seed passed to `detnum sweep`, which seeds the noise draw
    RUNS = {
        "brightness": ("10", "250", "20", "4", "30:70:190"),
        "noise": ("0", "0.2", "0.025", "0.005", "-1:0:0.05"),
    }

    def generate(self, seed: int, inputs: Path) -> None:
        rng = np.random.default_rng(seed)
        h, w = self.HEIGHT, self.WIDTH
        px = 40.0 + 150.0 * np.arange(w)[None, :] / w + rng.normal(0.0, 12.0, (h, w))
        px[: h // 4, : w // 3] = 255.0
        px[h // 3: h // 2, w // 4: w // 2] = 250.0
        px[3 * h // 4:, 2 * w // 3:] = 0.0
        q = np.clip(np.rint(px), 0, 255).astype(np.uint8)
        (inputs / "frame.pgm").write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + q.tobytes())

    def prepare(self, inputs: Path):
        # `detnum sweep` reads the frame on every operation
        return {"path": str(inputs / "frame.pgm")}

    def _argv(self, path, mode):
        lo, hi, step, fine, profile = self.RUNS[mode]
        return ["sweep", "--image", path, "--mode", mode, "--range", f"{lo}:{hi}:{step}",
                "--fine-step", fine, f"--profile={profile}", "--seed", self.SEED]

    def round(self, state):
        return [(mode, lambda m=mode: _run_cli(self._argv(state["path"], m))) for mode in self.RUNS]

    def failure(self, out):
        return None if out[0] == 0 else f"detnum sweep exited {out[0]}"

    def fingerprint(self, out):
        return out[1].encode()

    def check(self, state, key, out):
        blob = Path(state["path"]).read_bytes()
        pixels = np.frombuffer(blob[-self.HEIGHT * self.WIDTH:], dtype=np.uint8)
        pixels = pixels.reshape(self.HEIGHT, self.WIDTH).astype(np.float64)
        reach = float(np.mean(np.where(pixels > 0, 255.0, 0.0)))
        mode = key
        causes = []
        rows, summary = _output_table(out[1], "level,psnr_db,outcome")
        bands = summary["bands"]
        entries, expect_bands = oracles.sweep_plan(*self.RUNS[mode])
        if len(rows) != len(entries) or any(
                abs(float(r[0]) - float(lv)) > 1e-9 or r[2] != oc for r, (lv, oc) in zip(rows, entries)):
            causes.append(f"{mode}: evaluated levels or outcomes differ from coarse grid + refinement")
        if len(bands) != len(expect_bands) or any(
                b["band"] != o or abs(b["lo"] - float(lo)) > 1e-9 or abs(b["hi"] - float(hi)) > 1e-9
                for b, (o, lo, hi) in zip(bands, expect_bands)):
            causes.append(f"{mode}: bands {bands} do not partition the levels by profile")
        for level_s, psnr_s, _ in rows:
            level = float(level_s)
            if mode == "noise":
                degraded = oracles.noisy_frame(pixels, level, int(self.SEED))
            else:
                res = robustness.set_brightness_result(robustness.GrayImage(pixels), level)
                degraded = res.image.pixels
                if level <= reach and abs(float(np.mean(degraded)) - level) > 1.0:
                    causes.append(f"brightness {level}: mean {float(np.mean(degraded))!r} "
                                  "misses the +-1 contract")
            want = oracles.psnr(pixels, degraded)
            got = float(psnr_s)
            if not (got == want or abs(got - want) <= 1e-9 * abs(want)):
                causes.append(f"{mode} {level}: PSNR {got!r} vs {want!r}")
        return causes

    def patches(self):
        return [
            (cli, "main", "cli.main", None),
            (robustness, "read_pgm", "robustness.read_pgm", None),
            (robustness, "sweep", "robustness.sweep", lambda a, out: {"levels": len(out.entries)}),
            (robustness, "set_brightness_result", "robustness.set_brightness_result",
             lambda a, out: {"iters": out.iterations}),
            (robustness, "add_gaussian_noise", "robustness.add_gaussian_noise", None),
            (robustness, "psnr", "robustness.psnr", None),
            (robustness, "sweep_to_csv", "robustness.sweep_to_csv", None),
        ]

    def layers(self, totals, n_ops):
        return {
            "robustness.read_pgm.ms": _ms(totals, "robustness.read_pgm", n_ops),
            "robustness.sweep_to_csv.ms": _ms(totals, "robustness.sweep_to_csv", n_ops),
            "robustness.set_brightness_result.ms": _ms(totals, "robustness.set_brightness_result", n_ops),
            "robustness.set_brightness_result.iters":
                _units(totals, "robustness.set_brightness_result", "iters") / n_ops,
            "robustness.add_gaussian_noise.ms": _ms(totals, "robustness.add_gaussian_noise", n_ops),
            "robustness.psnr.ms": _ms(totals, "robustness.psnr", n_ops),
            "robustness.sweep.levels": _units(totals, "robustness.sweep", "levels") / n_ops,
            "cli.self_ms": _ms(totals, "cli.main", n_ops),
        }


WORKLOADS = {w.name: w for w in (Match, Eval, Features, Sweep)}
