"""Helpers shared across modules: frozen arrays, number text, CSV tables,
record lines.

The number rules are the package's output contract: floats print as their
shortest round-trip `repr`, non-finite values as `inf`, `-inf` and `nan`
(strings in JSON, which has no literal for them), booleans as `true` and
`false`, and JSON objects with sorted keys.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np


def frozen_array(x, dtype=float) -> np.ndarray:
    """A C-ordered, read-only copy of x."""
    a = np.array(x, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


def _sanitize(obj):
    """Make a payload json.dumps-safe (non-finite floats become strings)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


def fmt(x) -> str:
    """One CSV cell: a scalar spelled as in JSON, strings left unquoted."""
    v = _sanitize(x)
    return v if isinstance(v, str) else json.dumps(v)


def csv_table(header: str, rows) -> str:
    """A header line, then one line of `fmt` cells per row; None is an
    empty cell."""
    return "\n".join([header, *(",".join("" if c is None else fmt(c) for c in row)
                                 for row in rows)])


def dumps(obj) -> str:
    """One-line JSON with sorted keys and non-finite floats as strings."""
    return json.dumps(_sanitize(obj), sort_keys=True)


def data_lines(lines: Iterable[str]) -> list[tuple[int, list[str]]]:
    """(1-based line number, whitespace-split fields) of every line that is
    neither blank nor a '#' comment."""
    return [(lineno, fields) for lineno, fields in enumerate(map(str.split, lines), start=1)
            if fields and fields[0][0] != "#"]
