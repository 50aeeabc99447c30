"""Minimal rank-4 tensor values and the dense ops behind attention/fusion.

A FeatureTensor is an immutable (batch, channel, height, width) float64
array. The operators here are the handful needed downstream — 2-d
cross-correlation as im2col + one BLAS GEMM per kernel row (Chellapilla,
Puri & Simard 2006), channel/spatial pooling, sigmoid, broadcast products —
plus a tiny named-array blob format for CLI round-trips.

Blob layout (little-endian throughout):

    magic  b"NTB1"
    u32    record count
    per record:
        u16  name length, then that many UTF-8 name bytes
        u8   dtype code (0 = float64, 1 = float32)
        u8   ndim, then ndim * u32 dims
        raw  C-order payload

Records are written sorted by name so equal inputs give equal bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from ._common import frozen_array

__all__ = [
    "FeatureTensor", "Conv2DParams",
    "conv2d", "channel_pool", "spatial_pool", "sigmoid", "hadamard",
    "write_blob", "read_blob", "read_tensor_blob",
]


@dataclass(frozen=True, eq=False)
class FeatureTensor:
    """Immutable (n, c, h, w) tensor of finite float64 values."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 4:
            raise ValueError(f"FeatureTensor needs a rank-4 (n, c, h, w) array, got shape {a.shape}")
        if a.size == 0:
            raise ValueError("FeatureTensor must be nonempty")
        if not np.isfinite(a).all():
            raise ValueError("FeatureTensor entries must be finite")
        object.__setattr__(self, "data", frozen_array(a))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @classmethod
    def random(cls, shape, rng: np.random.Generator) -> "FeatureTensor":
        return cls(rng.normal(0.0, 1.0, size=shape))


def _pair(v, name: str, minimum: int) -> tuple[int, int]:
    if isinstance(v, (int, np.integer)):
        v = (int(v), int(v))
    v = tuple(int(x) for x in v)
    if len(v) != 2 or any(x < minimum for x in v):
        raise ValueError(f"{name} must be an int or pair of ints >= {minimum}, got {v!r}")
    return v


@dataclass(frozen=True, eq=False)
class Conv2DParams:
    """Cross-correlation parameters: weights (out_c, in_c, kh, kw) + bias."""

    weights: np.ndarray
    bias: np.ndarray
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 4:
            raise ValueError(f"weights must be rank-4 (out_c, in_c, kh, kw), got shape {w.shape}")
        b = np.asarray(self.bias, dtype=float)
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias must have shape ({w.shape[0]},), got {b.shape}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("conv parameters must be finite")
        object.__setattr__(self, "weights", frozen_array(w))
        object.__setattr__(self, "bias", frozen_array(b))
        object.__setattr__(self, "stride", _pair(self.stride, "stride", 1))
        object.__setattr__(self, "padding", _pair(self.padding, "padding", 0))

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weights.shape[2], self.weights.shape[3]


def conv2d(x: FeatureTensor, p: Conv2DParams) -> FeatureTensor:
    """2-d cross-correlation (no kernel flip), one GEMM per kernel row: row i
    contracts the width-kw windows of input rows i, i+sh, ... with
    weights[:, :, i] over (channel, kernel column), so at most 1/kh of the
    full im2col matrix is copied at a time. The sum starts at the bias and
    adds the kh products in row order."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = p.weights.shape
    if ic != c:
        raise ValueError(f"conv expects {ic} input channels, tensor has {c}")
    (sh, sw), (ph, pw) = p.stride, p.padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"kernel {kh}x{kw} with stride {p.stride} padding {p.padding} "
            f"gives empty output on {h}x{w} input")
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    out = np.full((n, oh, ow, oc), p.bias)
    for i in range(kh):
        out += np.tensordot(windows[..., i, :], p.weights[:, :, i], axes=([1, 4], [1, 2]))
    return FeatureTensor(out.transpose(0, 3, 1, 2))


def channel_pool(x: FeatureTensor) -> tuple[FeatureTensor, FeatureTensor]:
    """Per-channel spatial (avg, max): both (n, c, 1, 1)."""
    return (FeatureTensor(x.data.mean(axis=(2, 3), keepdims=True)),
            FeatureTensor(x.data.max(axis=(2, 3), keepdims=True)))


def spatial_pool(x: FeatureTensor) -> tuple[FeatureTensor, FeatureTensor]:
    """Across-channel (avg, max) maps: both (n, 1, h, w)."""
    return (FeatureTensor(x.data.mean(axis=1, keepdims=True)),
            FeatureTensor(x.data.max(axis=1, keepdims=True)))


def sigmoid(x: FeatureTensor) -> FeatureTensor:
    return FeatureTensor(expit(x.data))


def hadamard(x: FeatureTensor, m: FeatureTensor) -> FeatureTensor:
    """Broadcast elementwise product (c×1×1 across space, 1×h×w across
    channels, and so on); incompatible shapes are rejected."""
    for a, b in zip(x.shape, m.shape):
        if a != b and a != 1 and b != 1:
            raise ValueError(f"shapes {x.shape} and {m.shape} do not broadcast")
    return FeatureTensor(x.data * m.data)


# ---------------------------------------------------------------------------
# blob serialization
# ---------------------------------------------------------------------------

_MAGIC = b"NTB1"
_DTYPE_CODES = {np.dtype("<f8"): 0, np.dtype("<f4"): 1}
_CODE_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


def write_blob(path, arrays: dict) -> None:
    """Write named float arrays to the blob format (records sorted by name)."""
    chunks = [_MAGIC, struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        if a.dtype not in _DTYPE_CODES:
            a = a.astype("<f8")
        code = _DTYPE_CODES[a.dtype.newbyteorder("<")]
        a = a.astype(a.dtype.newbyteorder("<"), copy=False)
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<BB", code, a.ndim))
        chunks.append(struct.pack(f"<{a.ndim}I", *a.shape))
        chunks.append(a.tobytes(order="C"))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def read_blob(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a tensor blob (bad magic {raw[:4]!r})")
    pos = 4

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if len(raw) - pos < n:
            raise ValueError(f"{path}: truncated {what} at byte {pos} "
                             f"(needs {n} bytes, {len(raw) - pos} left)")
        pos += n
        return raw[pos - n:pos]

    (count,) = struct.unpack("<I", take(4, "record count"))
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "record name").decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: record name at byte {pos - name_len} is not UTF-8") from None
        code, ndim = struct.unpack("<BB", take(2, f"header of {name!r}"))
        if code not in _CODE_DTYPES:
            raise ValueError(f"{path}: unknown dtype code {code}")
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, f"dims of {name!r}"))
        dtype = _CODE_DTYPES[code]
        payload = take(math.prod(dims) * dtype.itemsize, f"payload of {name!r}")
        out[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after last record")
    return out


def read_tensor_blob(path) -> FeatureTensor:
    arrays = read_blob(path)
    if "tensor" not in arrays:
        raise ValueError(f"{path}: blob has no 'tensor' record (found {sorted(arrays)})")
    try:
        return FeatureTensor(arrays["tensor"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
