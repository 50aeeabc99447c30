"""Span recording at the layer boundaries of detnum, from outside the program.

A traced run replaces public module attributes (for example
``detnum.transport.sinkhorn``) with wrappers that record one span per call:
its name, start, end, parent span and the operation it belongs to. The
program looks those names up at call time, so every call made inside
``transport.match``, ``fuse.fusion_block``, ``attention.cbam``,
``robustness.sweep`` and ``cli.main`` is timed at the layer boundary.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        # each span: [name, start, end, parent index, op index, units or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name, fn, count=None):
        """Wrap fn so each call records a span; count(args, result) may
        attach work units to it as a {unit: number} dict (sweeps, MACs,
        iterations)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, out)
            return out

        return traced

    @contextmanager
    def installed(self, patches):
        """Install (module, attribute, span name, count) wrappers for the
        duration of the block, restoring the originals afterwards."""
        saved = []
        try:
            for module, attr, name, count in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time (s), call count and summed work
        units.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap, since the caller is a
        single thread.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _op, _n in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for k, (name, t0, t1, _parent, _op, n) in enumerate(self.spans):
            agg = out.setdefault(name, {"self_s": 0.0, "calls": 0, "units": {}})
            agg["self_s"] += (t1 - t0) - child[k]
            agg["calls"] += 1
            for unit, v in (n or {}).items():
                agg["units"][unit] = agg["units"].get(unit, 0) + v
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, n in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "units": n}) + "\n")
