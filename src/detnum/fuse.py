"""Batch-norm folding and a minimal two-path fusion block.

Inference-mode batch normalization per channel i:

    y_i = (x_i − μ_i) / sqrt(σ²_i + ϵ) · γ_i + β_i

Folding absorbs that affine map into the preceding convolution:

    W'_o = W_o · γ_o / sqrt(σ²_o + ϵ)
    b'_o = (b_o − μ_o) · γ_o / sqrt(σ²_o + ϵ) + β_o

so conv2d(x, fold_bn(conv, bn)) == batchnorm(conv2d(x, conv), bn) for every
input. An identity BN (μ=0, σ²=1, γ=1, β=0, ϵ=0) folds bit-exactly, which
is why ϵ = 0 is allowed as long as σ² + ϵ stays positive per channel.

The fusion block is a unit-scale stand-in for CSP-style stages: split the
channels in half, run each half through its own conv+BN, concatenate, and
merge with a 1x1 conv. fold_fusion_block replaces every conv+BN pair with
its folded conv and leaves the BN slot empty (None); fusion_block applies a
branch BN only where one is present, so a folded block runs no batchnorm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._common import frozen_array
from .tensor import Conv2DParams, FeatureTensor, conv2d

__all__ = [
    "BNParams", "FusionBlockParams",
    "batchnorm", "fold_bn", "fusion_block", "fold_fusion_block",
    "random_conv_params",
]


@dataclass(frozen=True, eq=False)
class BNParams:
    """Per-channel inference-mode batch-norm statistics and affine terms."""

    mu: np.ndarray
    var: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        var = np.atleast_1d(np.asarray(self.var, dtype=float))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        c = mu.shape[0]
        for name, a in (("mu", mu), ("var", var), ("gamma", gamma), ("beta", beta)):
            if a.shape != (c,):
                raise ValueError(f"BNParams.{name} must have shape ({c},), got {a.shape}")
            if not np.isfinite(a).all():
                raise ValueError(f"BNParams.{name} must be finite")
        eps = float(self.eps)
        if eps < 0.0:
            raise ValueError(f"eps must be >= 0, got {eps}")
        if (var < 0.0).any():
            raise ValueError("var entries must be >= 0")
        if (var + eps <= 0.0).any():
            raise ValueError("var + eps must be > 0 on every channel")
        object.__setattr__(self, "mu", frozen_array(mu))
        object.__setattr__(self, "var", frozen_array(var))
        object.__setattr__(self, "gamma", frozen_array(gamma))
        object.__setattr__(self, "beta", frozen_array(beta))
        object.__setattr__(self, "eps", eps)

    @property
    def channels(self) -> int:
        return self.mu.shape[0]

    @classmethod
    def random(cls, channels: int, *, rng: np.random.Generator) -> "BNParams":
        return cls(
            mu=rng.normal(0.0, 1.0, size=channels),
            var=rng.uniform(0.05, 2.0, size=channels),
            gamma=rng.normal(1.0, 0.3, size=channels),
            beta=rng.normal(0.0, 0.5, size=channels),
        )


def random_conv_params(in_channels: int, out_channels: int, *,
                       rng: np.random.Generator, kernel=3, stride=1,
                       padding=0) -> Conv2DParams:
    """Random conv weights (1/sqrt(fan_in) scale) for a given geometry."""
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
    fan_in = in_channels * kh * kw
    return Conv2DParams(
        weights=rng.normal(0.0, 1.0 / np.sqrt(fan_in),
                           size=(out_channels, in_channels, kh, kw)),
        bias=rng.normal(0.0, 0.1, size=out_channels),
        stride=stride,
        padding=padding,
    )


def batchnorm(x: FeatureTensor, p: BNParams) -> FeatureTensor:
    """Per-channel (x − μ)/sqrt(σ²+ϵ)·γ + β, evaluated literally."""
    if p.channels != x.shape[1]:
        raise ValueError(f"BN expects {p.channels} channels, tensor has {x.shape[1]}")
    mu = p.mu[None, :, None, None]
    denom = np.sqrt(p.var + p.eps)[None, :, None, None]
    gamma = p.gamma[None, :, None, None]
    beta = p.beta[None, :, None, None]
    return FeatureTensor((x.data - mu) / denom * gamma + beta)


def fold_bn(conv: Conv2DParams, bn: BNParams) -> Conv2DParams:
    """Absorb an inference-mode BN into the preceding conv's weights/bias."""
    if bn.channels != conv.out_channels:
        raise ValueError(
            f"BN has {bn.channels} channels but conv emits {conv.out_channels}")
    scale = bn.gamma / np.sqrt(bn.var + bn.eps)
    return Conv2DParams(
        weights=conv.weights * scale[:, None, None, None],
        bias=(conv.bias - bn.mu) * scale + bn.beta,
        stride=conv.stride,
        padding=conv.padding,
    )


@dataclass(frozen=True, eq=False)
class FusionBlockParams:
    """Two conv+BN branches over a channel split, merged by a 1x1 conv."""

    conv_a: Conv2DParams
    bn_a: BNParams | None
    conv_b: Conv2DParams
    bn_b: BNParams | None
    merge: Conv2DParams

    def __post_init__(self):
        for name, conv, bn in (("A", self.conv_a, self.bn_a), ("B", self.conv_b, self.bn_b)):
            if bn is not None and bn.channels != conv.out_channels:
                raise ValueError(f"branch {name} BN channels must match its conv output")
        if self.merge.in_channels != self.conv_a.out_channels + self.conv_b.out_channels:
            raise ValueError("merge conv input must equal the concatenated branch outputs")
        if self.merge.kernel != (1, 1) or self.merge.stride != (1, 1) or self.merge.padding != (0, 0):
            raise ValueError("merge conv must be 1x1, stride 1, padding 0")

    @classmethod
    def random(cls, channels: int, *, rng: np.random.Generator) -> "FusionBlockParams":
        """3x3 branches of channels/2 each and a 1x1 merge back to channels."""
        if channels % 2:
            raise ValueError(f"fusion block needs an even channel count, got {channels}")
        half = channels // 2

        def branch_conv():
            return Conv2DParams(
                weights=rng.normal(0.0, 1.0 / (3 * np.sqrt(half)), size=(half, half, 3, 3)),
                bias=rng.normal(0.0, 0.1, size=half),
                stride=1,
                padding=1,
            )

        merge = Conv2DParams(
            weights=rng.normal(0.0, 1.0 / np.sqrt(channels), size=(channels, channels, 1, 1)),
            bias=rng.normal(0.0, 0.1, size=channels),
        )
        return cls(branch_conv(), BNParams.random(half, rng=rng),
                   branch_conv(), BNParams.random(half, rng=rng), merge)


def _branch(x: FeatureTensor, conv: Conv2DParams, bn: BNParams | None) -> FeatureTensor:
    y = conv2d(x, conv)
    return y if bn is None else batchnorm(y, bn)


def fusion_block(x: FeatureTensor, params: FusionBlockParams) -> FeatureTensor:
    """split → per-branch conv (+BN where the slot holds one) → concat → 1x1 merge."""
    c = x.shape[1]
    if c % 2:
        raise ValueError(f"fusion block needs an even channel count, got {c}")
    ca, cb = params.conv_a.in_channels, params.conv_b.in_channels
    if ca + cb != c:
        raise ValueError(f"params expect {ca + cb} input channels, tensor has {c}")
    ya = _branch(FeatureTensor(x.data[:, :ca]), params.conv_a, params.bn_a)
    yb = _branch(FeatureTensor(x.data[:, ca:]), params.conv_b, params.bn_b)
    if ya.shape[2:] != yb.shape[2:]:
        raise ValueError(
            f"branch outputs disagree spatially: {ya.shape[2:]} vs {yb.shape[2:]}")
    merged = FeatureTensor(np.concatenate([ya.data, yb.data], axis=1))
    return conv2d(merged, params.merge)


def fold_fusion_block(params: FusionBlockParams) -> FusionBlockParams:
    """Fold each branch's BN into its conv and empty the BN slots; a block
    that is already folded comes back unchanged."""
    conv_a, conv_b = (conv if bn is None else fold_bn(conv, bn) for conv, bn in
                      ((params.conv_a, params.bn_a), (params.conv_b, params.bn_b)))
    return replace(params, conv_a=conv_a, bn_a=None, conv_b=conv_b, bn_b=None)
