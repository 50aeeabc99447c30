"""Axis-aligned boxes in center-size form, IoU, and enclosure geometry.

The canonical parameterization is (cx, cy, w, h); the corner view is derived.
All overlap arithmetic is done in corner space so that identical boxes give
an IoU of exactly 1.0 (floating-point round-trips through w/2 never enter
the intersection/union ratio asymmetrically).

A box is its (cx, cy, w, h) tuple, so the geometry is written once:
`corners`, `overlap` and `enclosure` take such tuples of floats or
`dual.Dual`s, and `iou_matrix` repeats `overlap` op for op on arrays.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import dual as dm

__all__ = ["AABox", "corners", "overlap", "enclosure", "iou", "iou_matrix"]


def corners(f):
    """(x1, y1, x2, y2) of a (cx, cy, w, h) box."""
    cx, cy, w, h = f
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


def overlap(pf, gf):
    """(iou, union) of two (cx, cy, w, h) boxes; edge contact is no overlap.

    Areas come from the corners, not w*h, to cancel exactly for identical boxes.
    """
    px1, py1, px2, py2 = corners(pf)
    gx1, gy1, gx2, gy2 = corners(gf)
    iw = dm.vmin(px2, gx2) - dm.vmax(px1, gx1)
    ih = dm.vmin(py2, gy2) - dm.vmax(py1, gy1)
    inter = 0.0 if iw <= 0.0 or ih <= 0.0 else iw * ih
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    return inter / union, union


def enclosure(pf, gf):
    """(width, height) of the smallest axis-aligned box enclosing both."""
    px1, py1, px2, py2 = corners(pf)
    gx1, gy1, gx2, gy2 = corners(gf)
    return dm.vmax(px2, gx2) - dm.vmin(px1, gx1), dm.vmax(py2, gy2) - dm.vmin(py1, gy1)


class AABox(namedtuple("AABox", "cx cy w h")):
    """Axis-aligned box: center (cx, cy) and strictly positive size (w, h).

    A validated namedtuple: degenerate zero-area boxes are rejected at
    construction (and by `_make` and `_replace`) rather than yielding NaNs
    downstream.
    """

    __slots__ = ()

    def __new__(cls, cx, cy, w, h):
        vals = []
        for name, v in zip(cls._fields, (cx, cy, w, h)):
            try:
                f = float(v)
            except (TypeError, ValueError):
                raise ValueError(f"AABox.{name} must be a real number, got {v!r}") from None
            if not math.isfinite(f):
                raise ValueError(f"AABox.{name} must be finite, got {f!r}")
            vals.append(f)
        if vals[2] <= 0.0 or vals[3] <= 0.0:
            raise ValueError(f"AABox needs w > 0 and h > 0, got w={vals[2]}, h={vals[3]}")
        return tuple.__new__(cls, vals)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _replace builds through _make
        return cls(*iterable)

    @property
    def corners(self) -> tuple[float, float, float, float]:
        """(x1, y1, x2, y2) corner view."""
        return corners(self)

    @property
    def area(self) -> float:
        x1, y1, x2, y2 = corners(self)
        return (x2 - x1) * (y2 - y1)


def iou(p: AABox, g: AABox) -> float:
    """Intersection over union of two boxes.

    Symmetric; 0.0 for disjoint boxes (edge contact counts as zero overlap),
    exactly 1.0 for identical boxes.
    """
    return overlap(p, g)[0]


def iou_matrix(preds, gts) -> np.ndarray:
    """(len(preds), len(gts)) array of IoUs; entry [i, j] is iou(preds[i], gts[j]).

    `overlap` on broadcast arrays, in the same operation order, so every
    entry equals the scalar `iou` bit for bit.
    """
    p = np.array(preds, dtype=float).reshape(-1, 4)
    g = np.array(gts, dtype=float).reshape(-1, 4)
    px1, py1, px2, py2 = corners(p.T[:, :, None])
    gx1, gy1, gx2, gy2 = corners(g.T[:, None, :])
    iw = np.minimum(px2, gx2) - np.maximum(px1, gx1)
    ih = np.minimum(py2, gy2) - np.maximum(py1, gy1)
    inter = np.where((iw <= 0.0) | (ih <= 0.0), 0.0, iw * ih)
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    return inter / union
