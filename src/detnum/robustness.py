"""Degradation protocols: brightness sweeps, noise sweeps, PSNR banding.

Grayscale images carry real-valued pixels on the 0..255 scale (quantization
to 8 bits happens only at IO time). Brightness is *mean luminance*, set
exactly by the multiplicative rescale that solves the clamped mean; an
unreachable target saturates every nonzero pixel. Gaussian noise is
injected on the normalized [0, 1] scale and PSNR uses MAX = 1 on it.

A sweep evaluates an external scorer (clean / miss / fail per level) on a
coarse grid, then refines every outcome transition at the fine step so band
boundaries are localized to fine-step resolution. The evaluated levels are
then partitioned into contiguous same-outcome bands. The detector under
test is external — this module bands the outcomes its scorer reports, it
does not detect anything itself.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._common import fmt, frozen_array

__all__ = [
    "GrayImage", "BrightnessResult", "SweepConfig", "SweepEntry",
    "RobustnessBand", "SweepResult", "OUTCOMES",
    "set_brightness_result", "add_gaussian_noise", "psnr",
    "grid_levels", "sweep", "synthetic_gray", "write_pgm", "read_pgm",
    "sweep_to_csv", "bands_to_json",
]

OUTCOMES = ("clean", "miss", "fail")

_MAX_SWEEP_LEVELS = 100_000    # most levels one sweep may evaluate


@dataclass(frozen=True, eq=False)
class GrayImage:
    """2-d luminance image; values are reals in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.size == 0:
            raise ValueError(f"pixels must be a non-empty 2-d array, got shape {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ValueError("pixels must be finite")
        if px.min() < 0.0 or px.max() > 255.0:
            raise ValueError("pixels must lie in [0, 255]")
        object.__setattr__(self, "pixels", frozen_array(px))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def mean(self) -> float:
        return float(self.pixels.mean())

    @property
    def quantized(self) -> np.ndarray:
        """8-bit view: round-half-even then clip."""
        return np.clip(np.rint(self.pixels), 0, 255).astype(np.uint8)

    @property
    def normalized(self) -> np.ndarray:
        return self.pixels / 255.0


@dataclass(frozen=True)
class BrightnessResult:
    image: GrayImage
    achieved_mean: float
    iterations: int
    used_additive_fallback: bool


def set_brightness_result(img: GrayImage, target_gray: float) -> BrightnessResult:
    """Rescale so the mean luminance is exactly target_gray.

    mean(clip(s·px, 0, 255)) is nondecreasing, concave and piecewise linear
    in s. With k pixels clipped at s and S the sum of the rest, that piece
    is (s·S + 255·k)/N, solved by s = (t·N − 255·k)/S; by concavity this
    never passes the root, so the clipped set grows until it stops on the
    target's piece. Targets at or above 255 × (share of nonzero pixels) set
    every nonzero pixel to 255. A zero-mean image falls back to an additive
    constant (flagged); a scale that overflows a float is refused.
    """
    t = float(target_gray)
    if not (0.0 <= t <= 255.0):
        raise ValueError(f"target_gray must lie in [0, 255], got {t!r}")
    px, current = img.pixels, img.mean
    if current <= 0.0:
        if t <= 0.0:
            return BrightnessResult(img, 0.0, 0, False)
        flat = GrayImage(np.full_like(px, t))
        return BrightnessResult(flat, flat.mean, 0, True)
    if t <= 0.0:
        return BrightnessResult(GrayImage(np.zeros_like(px)), 0.0, 1, False)
    n, nonzero = px.size, np.count_nonzero(px > 0.0)
    if t * n >= 255.0 * nonzero:
        result = GrayImage(np.where(px > 0.0, 255.0, 0.0))
        return BrightnessResult(result, result.mean, 1, False)
    # pixels at or below 255 / s stay unclipped at scale s
    scale, clipped, passes = t / current, 0, 1
    under = px <= 255.0 * current / t
    # k == nonzero only when rounding lifts s past the last piece
    while clipped < (k := n - int(np.count_nonzero(under))) < nonzero:
        scale = (t * n - 255.0 * k) / float((px * under).sum())
        clipped, passes, under = k, passes + 1, px <= 255.0 / scale
    if scale == math.inf:
        raise ValueError(f"cannot rescale to mean {t!r}: the scale overflows")
    result = GrayImage(np.minimum(px * scale, 255.0))
    return BrightnessResult(result, result.mean, passes, False)


def add_gaussian_noise(img: GrayImage, mean: float, var: float, seed=0) -> GrayImage:
    """Seeded Gaussian noise on the normalized scale, clamped to range."""
    mean = float(mean)
    var = float(var)
    if var < 0.0:
        raise ValueError(f"var must be >= 0, got {var!r}")
    if var == 0.0 and mean == 0.0:
        return img
    rng = np.random.default_rng(seed)
    x = img.normalized + rng.normal(mean, math.sqrt(var), size=img.pixels.shape)
    return GrayImage(np.clip(x, 0.0, 1.0) * 255.0)


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; identical images give math.inf."""
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(f"shape mismatch: {a.pixels.shape} vs {b.pixels.shape}")
    diff = a.pixels - b.pixels
    sumsq = float(np.sum(diff * diff))
    if sumsq <= 0.0:
        return math.inf
    # MAX^2/MSE is scale invariant; evaluating it on the raw 0..255 scale
    # keeps quarter-integer pixel values exact in the squaring, so round
    # decibel ratios (MSE 0.01 -> 20 dB, 0.001 -> 30 dB) are exact floats.
    return 10.0 * math.log10(255.0 * 255.0 * diff.size / sumsq)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    mode: str                      # "brightness" | "noise"
    lo: float
    hi: float
    coarse_step: float
    fine_step: float
    noise_axis: str = "joint"      # "joint" | "mean" | "var" (the other held at 0)
    seed: int = 42

    def __post_init__(self):
        if self.mode not in ("brightness", "noise"):
            raise ValueError(f"mode must be brightness or noise, got {self.mode!r}")
        if self.noise_axis not in ("joint", "mean", "var"):
            raise ValueError(f"noise_axis must be joint, mean or var, got {self.noise_axis!r}")
        for name in ("lo", "hi", "coarse_step", "fine_step"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if not (self.lo <= self.hi):
            raise ValueError(f"need lo <= hi, got {self.lo} > {self.hi}")
        if self.coarse_step <= 0 or self.fine_step <= 0:
            raise ValueError("steps must be positive")
        if self.fine_step >= self.coarse_step:
            raise ValueError(
                f"fine_step must be smaller than coarse_step "
                f"({self.fine_step} >= {self.coarse_step})")
        if self.mode == "brightness" and not (0.0 <= self.lo and self.hi <= 255.0):
            raise ValueError("brightness range must lie within [0, 255]")
        if self.mode == "noise" and self.lo < 0.0:
            raise ValueError("noise levels must be >= 0")
        # the most levels sweep() can visit: every coarse interval refined
        # (the ratio clamps at 1e18, far past the cap, as in _grid_count)
        coarse = _grid_count(self.lo, self.hi, self.coarse_step)
        refine = math.ceil(min(self.coarse_step / self.fine_step, 1e18)) - 1
        worst = coarse + (coarse - 1) * refine
        if worst > _MAX_SWEEP_LEVELS:
            raise ValueError(
                f"--range {self.lo:g}:{self.hi:g}:{self.coarse_step:g} with --fine-step "
                f"{self.fine_step:g} can evaluate up to {worst} levels, more than "
                f"{_MAX_SWEEP_LEVELS}")
        finest = max(1e-12, math.ulp(self.hi))   # levels are keyed by round(x, 12)
        if self.fine_step < finest:
            raise ValueError(f"--fine-step {self.fine_step:g} is too small to tell levels "
                             f"apart near {self.hi:g}: it must be at least {finest:g}")


@dataclass(frozen=True)
class SweepEntry:
    level: float
    psnr_db: float
    outcome: str
    achieved_mean: float | None = None   # brightness mode only


@dataclass(frozen=True)
class RobustnessBand:
    band: str
    interval: tuple[float, float]


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    entries: tuple[SweepEntry, ...]
    bands: tuple[RobustnessBand, ...]


def grid_levels(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo+step, ... while <= hi. hi itself appears only if the grid
    lands on it exactly (range semantics, not linspace)."""
    lo, hi, step = float(lo), float(hi), float(step)
    if step <= 0:
        raise ValueError("step must be positive")
    if hi < lo:
        return []
    return [round(lo + k * step, 12) for k in range(_grid_count(lo, hi, step))]


def _grid_count(lo: float, hi: float, step: float) -> int:
    """len(grid_levels(lo, hi, step)) for lo <= hi; clamped at 1e18 + 1."""
    return math.floor(min((hi - lo) / step, 1e18) + 1e-9) + 1


def _noise_params(cfg: SweepConfig, level: float) -> tuple[float, float]:
    if cfg.noise_axis == "joint":
        return level, level
    if cfg.noise_axis == "mean":
        return level, 0.0
    return 0.0, level


def _degrade(img: GrayImage, cfg: SweepConfig, level: float):
    if cfg.mode == "brightness":
        res = set_brightness_result(img, level)
        return res.image, res.achieved_mean
    mean, var = _noise_params(cfg, level)
    return add_gaussian_noise(img, mean, var, seed=cfg.seed), None


def sweep(img: GrayImage, cfg: SweepConfig,
          scorer: Callable[[float, GrayImage], str]) -> SweepResult:
    """Coarse pass, fine refinement at every outcome transition, banding.

    scorer(level, degraded_image) must return one of clean/miss/fail.
    Non-monotone outcome sequences are banded as-is — every contiguous run
    becomes its own band, so the same outcome may own several intervals.
    """
    evaluated: dict[float, SweepEntry] = {}

    def run(level: float):
        if level in evaluated:
            return
        degraded, achieved = _degrade(img, cfg, level)
        outcome = scorer(level, degraded)
        if outcome not in OUTCOMES:
            raise ValueError(f"scorer returned {outcome!r}; expected one of {OUTCOMES}")
        evaluated[level] = SweepEntry(level, psnr(img, degraded), outcome, achieved)

    coarse = grid_levels(cfg.lo, cfg.hi, cfg.coarse_step)
    if not coarse:
        return SweepResult(cfg, (), ())
    for lv in coarse:
        run(lv)
    for a, b in zip(coarse, coarse[1:]):
        if evaluated[a].outcome == evaluated[b].outcome:
            continue
        k = 1
        while True:
            lv = round(a + k * cfg.fine_step, 12)
            if lv >= b - 1e-12:
                break
            run(lv)
            k += 1
    entries = tuple(evaluated[lv] for lv in sorted(evaluated))
    return SweepResult(cfg, entries, _assemble_bands(entries))


def _assemble_bands(entries) -> tuple[RobustnessBand, ...]:
    bands = []
    start = None
    prev = None
    for e in entries:
        if prev is None or e.outcome != prev.outcome:
            if prev is not None:
                bands.append(RobustnessBand(prev.outcome, (start.level, prev.level)))
            start = e
        prev = e
    if prev is not None:
        bands.append(RobustnessBand(prev.outcome, (start.level, prev.level)))
    return tuple(bands)


def sweep_to_csv(result: SweepResult) -> str:
    lines = ["level,psnr_db,outcome"]
    for e in result.entries:
        lines.append(f"{fmt(e.level)},{fmt(e.psnr_db)},{e.outcome}")
    return "\n".join(lines)


def bands_to_json(result: SweepResult) -> list[dict]:
    return [{"band": b.band, "lo": b.interval[0], "hi": b.interval[1]}
            for b in result.bands]


# ---------------------------------------------------------------------------
# image helpers / PGM IO
# ---------------------------------------------------------------------------

def synthetic_gray(seed: int = 42) -> GrayImage:
    """Deterministic 64x64 mid-range test image (no saturation headroom issues:
    values stay in [60, 196] so brightness targets up to ~165 rescale
    without clamping)."""
    rng = np.random.default_rng(seed)
    return GrayImage(rng.uniform(60.0, 196.0, size=(64, 64)))


def write_pgm(img: GrayImage, path) -> None:
    q = img.quantized
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(q.tobytes(order="C"))


def read_pgm(path) -> GrayImage:
    with open(path, "rb") as fh:
        blob = fh.read()
    # header: magic, width, height, maxval — whitespace separated, with
    # optional '#' comment lines
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.match(rb"\s*(#[^\n]*\n|\S+)", blob[pos:])
        if m is None:
            raise ValueError(f"{path}: truncated PGM header")
        pos += m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError(f"{path}: PGM width, height and maxval must be integers, "
                         f"got {b' '.join(tokens[1:]).decode('ascii', 'replace')!r}") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PGM size must be at least 1x1, got {width}x{height}")
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    data = blob[pos:]
    if len(data) != width * height:
        raise ValueError(f"{path}: expected {width * height} pixel bytes, got {len(data)}")
    px = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    if maxval == 255:
        return GrayImage(px.astype(np.float64))
    top = int(px.max())
    if top > maxval:
        raise ValueError(f"{path}: pixel value {top} exceeds maxval {maxval}")
    # integer products are exact, so maxval itself maps to exactly 255.0
    return GrayImage(px * 255.0 / maxval)
