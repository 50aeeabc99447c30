"""Channel and spatial attention, and their cascaded composition.

Spatial attention:  M_s = σ(conv7x7([avg_c(x); max_c(x)]))  applied as
x ⊗ M_s (the map broadcasts across channels). Channel attention follows
the standard shared-MLP design: per-channel avg and max pooling, a shared
two-layer MLP (c → c/r → c, ReLU between, r = 16 by default, hidden width
clamped to at least 1), weights σ(MLP(avg) + MLP(max)) applied as x ⊗ w_c.

The cascade runs channel first, then spatial on the channel-refined tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from ._common import frozen_array
from .tensor import Conv2DParams, FeatureTensor, conv2d

__all__ = [
    "ChannelAttnParams", "SpatialAttnParams", "CBAMResult",
    "channel_attention_weights", "spatial_attention_map", "cbam",
]


@dataclass(frozen=True, eq=False)
class ChannelAttnParams:
    """Shared two-layer MLP over pooled channel vectors.

    w1: (hidden, c), b1: (hidden,), w2: (c, hidden), b2: (c,) with
    hidden = max(1, c // reduction_ratio).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    reduction_ratio: int = 16

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=float)
        w2 = np.asarray(self.w2, dtype=float)
        b1 = np.asarray(self.b1, dtype=float)
        b2 = np.asarray(self.b2, dtype=float)
        if w1.ndim != 2 or w2.ndim != 2:
            raise ValueError("w1/w2 must be 2-d matrices")
        hidden, c = w1.shape
        if int(self.reduction_ratio) < 1:
            raise ValueError(f"reduction_ratio must be >= 1, got {self.reduction_ratio}")
        if hidden != max(1, c // int(self.reduction_ratio)):
            raise ValueError(
                f"hidden width {hidden} inconsistent with channels {c} "
                f"and reduction ratio {self.reduction_ratio}")
        if w2.shape != (c, hidden) or b1.shape != (hidden,) or b2.shape != (c,):
            raise ValueError("MLP layer shapes are inconsistent")
        for a in (w1, b1, w2, b2):
            if not np.isfinite(a).all():
                raise ValueError("MLP parameters must be finite")
        for name, a in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            object.__setattr__(self, name, frozen_array(a))
        object.__setattr__(self, "reduction_ratio", int(self.reduction_ratio))

    @property
    def channels(self) -> int:
        return self.w1.shape[1]

    @classmethod
    def random(cls, channels: int, reduction_ratio: int = 16, *,
               rng: np.random.Generator) -> "ChannelAttnParams":
        if int(reduction_ratio) < 1:
            raise ValueError(f"reduction_ratio must be >= 1, got {reduction_ratio}")
        hidden = max(1, channels // reduction_ratio)
        return cls(
            w1=rng.normal(0.0, 1.0 / np.sqrt(channels), size=(hidden, channels)),
            b1=rng.normal(0.0, 0.1, size=hidden),
            w2=rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(channels, hidden)),
            b2=rng.normal(0.0, 0.1, size=channels),
            reduction_ratio=reduction_ratio,
        )


@dataclass(frozen=True, eq=False)
class SpatialAttnParams:
    """A 2-in/1-out odd-kernel conv with same-padding, stride 1 (7x7 default)."""

    conv: Conv2DParams

    def __post_init__(self):
        c = self.conv
        kh, kw = c.kernel
        if c.in_channels != 2 or c.out_channels != 1:
            raise ValueError("spatial attention conv must map 2 channels to 1")
        if kh != kw or kh % 2 == 0:
            raise ValueError(f"spatial attention kernel must be odd and square, got {kh}x{kw}")
        if c.stride != (1, 1) or c.padding != ((kh - 1) // 2, (kw - 1) // 2):
            raise ValueError("spatial attention conv must preserve spatial dims "
                             "(stride 1, padding (k-1)/2)")

    @classmethod
    def random(cls, kernel_size: int = 7, *, rng: np.random.Generator) -> "SpatialAttnParams":
        k = int(kernel_size)
        conv = Conv2DParams(
            weights=rng.normal(0.0, 1.0 / k, size=(1, 2, k, k)),
            bias=rng.normal(0.0, 0.1, size=1),
            stride=1,
            padding=(k - 1) // 2,
        )
        return cls(conv)


class CBAMResult(NamedTuple):
    output: FeatureTensor
    channel_weights: FeatureTensor   # (n, c, 1, 1)
    spatial_map: FeatureTensor       # (n, 1, h, w)


def _mlp(p: ChannelAttnParams, v: np.ndarray) -> np.ndarray:
    hidden = np.maximum(v @ p.w1.T + p.b1, 0.0)
    return hidden @ p.w2.T + p.b2


def channel_attention_weights(x: FeatureTensor, p: ChannelAttnParams) -> FeatureTensor:
    """Per-channel gate w_c = σ(MLP(avgpool) + MLP(maxpool)), (n, c, 1, 1)."""
    if p.channels != x.shape[1]:
        raise ValueError(f"params expect {p.channels} channels, tensor has {x.shape[1]}")
    logits = _mlp(p, x.data.mean(axis=(2, 3))) + _mlp(p, x.data.max(axis=(2, 3)))
    return FeatureTensor(expit(logits)[:, :, None, None])


def spatial_attention_map(x: FeatureTensor, p: SpatialAttnParams) -> FeatureTensor:
    """Spatial gate M_s = σ(conv([avg_c; max_c])), (n, 1, h, w)."""
    stacked = FeatureTensor(np.stack([x.data.mean(axis=1), x.data.max(axis=1)], axis=1))
    return FeatureTensor(expit(conv2d(stacked, p.conv).data))


def cbam(x: FeatureTensor, cp: ChannelAttnParams, sp: SpatialAttnParams) -> CBAMResult:
    """Cascaded attention: channel gate first, spatial gate on the result."""
    weights = channel_attention_weights(x, cp)
    refined = FeatureTensor(x.data * weights.data)
    smap = spatial_attention_map(refined, sp)
    return CBAMResult(FeatureTensor(refined.data * smap.data), weights, smap)
