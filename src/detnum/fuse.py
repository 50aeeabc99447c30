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
its folded conv and an identity BN, so the same forward code exercises
both the unfolded and the reparameterized paths.
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
    def identity(cls, channels: int) -> "BNParams":
        # eps = 0 keeps the scale factor γ/sqrt(σ²+ϵ) at exactly 1.0
        return cls(mu=np.zeros(channels), var=np.ones(channels),
                   gamma=np.ones(channels), beta=np.zeros(channels), eps=0.0)

    @classmethod
    def random(cls, channels: int, *, rng: np.random.Generator,
               eps: float = 1e-5) -> "BNParams":
        return cls(
            mu=rng.normal(0.0, 1.0, size=channels),
            var=rng.uniform(0.05, 2.0, size=channels),
            gamma=rng.normal(1.0, 0.3, size=channels),
            beta=rng.normal(0.0, 0.5, size=channels),
            eps=eps,
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
    bn_a: BNParams
    conv_b: Conv2DParams
    bn_b: BNParams
    merge: Conv2DParams

    def __post_init__(self):
        if self.bn_a.channels != self.conv_a.out_channels:
            raise ValueError("branch A BN channels must match its conv output")
        if self.bn_b.channels != self.conv_b.out_channels:
            raise ValueError("branch B BN channels must match its conv output")
        if self.merge.in_channels != self.conv_a.out_channels + self.conv_b.out_channels:
            raise ValueError("merge conv input must equal the concatenated branch outputs")
        if self.merge.kernel != (1, 1) or self.merge.stride != (1, 1) or self.merge.padding != (0, 0):
            raise ValueError("merge conv must be 1x1, stride 1, padding 0")

    @property
    def in_channels(self) -> int:
        return self.conv_a.in_channels + self.conv_b.in_channels

    @classmethod
    def random(cls, channels: int, *, rng: np.random.Generator,
               kernel_size: int = 3, out_channels=None) -> "FusionBlockParams":
        if channels % 2:
            raise ValueError(f"fusion block needs an even channel count, got {channels}")
        half = channels // 2
        k = int(kernel_size)
        if out_channels is None:
            out_channels = channels
        branch_out = half

        def branch_conv():
            return Conv2DParams(
                weights=rng.normal(0.0, 1.0 / (k * np.sqrt(half)), size=(branch_out, half, k, k)),
                bias=rng.normal(0.0, 0.1, size=branch_out),
                stride=1,
                padding=(k - 1) // 2,
            )

        merge = Conv2DParams(
            weights=rng.normal(0.0, 1.0 / np.sqrt(2 * branch_out),
                               size=(out_channels, 2 * branch_out, 1, 1)),
            bias=rng.normal(0.0, 0.1, size=out_channels),
        )
        return cls(branch_conv(), BNParams.random(branch_out, rng=rng),
                   branch_conv(), BNParams.random(branch_out, rng=rng), merge)


def fusion_block(x: FeatureTensor, params: FusionBlockParams) -> FeatureTensor:
    """split → per-branch conv+BN → concat → 1x1 merge."""
    c = x.shape[1]
    if c % 2:
        raise ValueError(f"fusion block needs an even channel count, got {c}")
    ca, cb = params.conv_a.in_channels, params.conv_b.in_channels
    if ca + cb != c:
        raise ValueError(f"params expect {ca + cb} input channels, tensor has {c}")
    ya = batchnorm(conv2d(FeatureTensor(x.data[:, :ca]), params.conv_a), params.bn_a)
    yb = batchnorm(conv2d(FeatureTensor(x.data[:, ca:]), params.conv_b), params.bn_b)
    if ya.shape[2:] != yb.shape[2:]:
        raise ValueError(
            f"branch outputs disagree spatially: {ya.shape[2:]} vs {yb.shape[2:]}")
    merged = FeatureTensor(np.concatenate([ya.data, yb.data], axis=1))
    return conv2d(merged, params.merge)


def fold_fusion_block(params: FusionBlockParams) -> FusionBlockParams:
    """Fold each branch's BN into its conv; the BN slots become identities."""
    return replace(
        params,
        conv_a=fold_bn(params.conv_a, params.bn_a),
        bn_a=BNParams.identity(params.conv_a.out_channels),
        conv_b=fold_bn(params.conv_b, params.bn_b),
        bn_b=BNParams.identity(params.conv_b.out_channels),
    )
