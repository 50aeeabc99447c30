"""Benchmark for detnum's four user paths; see perfbench/README.md.

    python3 perfbench/run.py --workload match|eval|features|sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: detnum is imported from ./src.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace 1 the per-layer ones).
A readable report goes to stderr; the result and, when traced, the spans
are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Modules each workload imports; setup_s times importing them in a fresh
# process, plus the workload's prepare().
IMPORTS = {
    "match": ("detnum.transport", "detnum.losses", "detnum.metrics"),
    "eval": ("detnum.cli",),
    "features": ("detnum.tensor", "detnum.fuse", "detnum.attention"),
    "sweep": ("detnum.cli",),
}
# per-layer metric names and units, as declared in BENCHMARK.json
LAYER_UNITS = {m["name"]: m["unit"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
SETUP_REPEATS = 5           # fresh-process set-ups per run; setup_s is their median
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3      # mallopt parameters, glibc malloc.h


def _fix_allocator() -> None:
    """glibc adapts its mmap threshold to the allocation history of the
    process, which differs from process to process (hash randomisation
    among the causes), so NumPy's large temporaries
    come from reused heap memory in one process and from freshly mapped,
    zero-filled pages in the next: a `sweep` operation took 35 or 60 ms
    depending on the process, and 100 ms with every such array mapped.
    Fixed thresholds make every process reuse heap memory for them."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return      # not glibc: no adaptive threshold to pin
    if not (mallopt(M_MMAP_THRESHOLD, 32 << 20) and mallopt(M_TRIM_THRESHOLD, 64 << 20)):
        raise SystemExit("perfbench: mallopt refused the allocator thresholds")


def _check_detnum_source() -> None:
    import detnum
    if Path(detnum.__file__).resolve().parent != SRC / "detnum":
        raise SystemExit(f"perfbench: imported detnum from {detnum.__file__}, not from {SRC}")


def _setup_child(workload: str, inputs: Path) -> None:
    """Runs in a fresh interpreter: time the imports and prepare()."""
    t0 = perf_counter()
    for name in IMPORTS[workload]:
        importlib.import_module(name)
    t1 = perf_counter()
    _check_detnum_source()
    import workloads
    wl = workloads.WORKLOADS[workload]()
    t2 = perf_counter()
    wl.prepare(inputs)
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "prepare_s": t3 - t2}))


def _setup_times(workload: str, seed: int, inputs: Path) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-child", str(inputs)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1]))
    return times


def _timed_rounds(wl, state, seconds: float, tracer=None):
    """Closed loop: whole rounds, operations back to back, one caller.
    Each operation starts from a fully collected heap, as a one-shot CLI
    call does; the collection is not timed. Without it the loop's own
    garbage makes a full collection (about 45 ms in eval) land in every
    tenth or so operation, on whichever layer happens to run. The objects
    of set-up and warm-up are frozen first, so that collection stays short
    and the run's time goes to operations.
    With a tracer, rounds alternate between untraced and traced (wrappers
    installed), so both see the same machine state, and the run ends on a
    traced round. Returns per-operation (key, seconds, failure,
    fingerprint, traced)."""
    ops = wl.round(state)
    records = []
    gc.collect()
    gc.freeze()
    deadline = perf_counter() + seconds
    traced = False
    while True:
        with tracer.installed(wl.patches()) if traced else contextlib.nullcontext():
            for key, op in ops:
                if traced:
                    tracer.op = len(records)
                gc.collect()
                t0 = perf_counter()
                out = op()
                dt = perf_counter() - t0
                if traced:
                    wl.traced_extra(state, key)
                records.append((key, dt, wl.failure(out), wl.fingerprint(out), traced))
        if perf_counter() >= deadline and (tracer is None or traced):
            gc.unfreeze()
            return records
        traced = tracer is not None and not traced


def _check(wl, state, warm, records):
    """Check each key's warm-up output independently; every timed operation
    must then reproduce that output byte for byte. Returns (failed count,
    number of operations whose output failed a check, causes)."""
    verdict = {}
    for key, out in warm.items():
        if wl.failure(out) is None:
            verdict[key] = (wl.fingerprint(out), wl.check(state, key, out))
    failed = wrong = 0
    causes: dict[str, int] = {}
    for key, _dt, failure, fp, _traced in records:
        if failure is not None:
            cause = [failure]
        elif key not in verdict:
            cause = ["the warm-up operation on the same input failed, this one did not"]
        elif fp != verdict[key][0]:
            cause = ["output differs from the checked output of the same input"]
        else:
            cause = verdict[key][1]
        if cause:
            failed += 1
            wrong += failure is None
            for c in cause:
                causes[c] = causes.get(c, 0) + 1
    return failed, wrong, causes


def _per_op_ms(records) -> float:
    return 1e3 * sum(r[1] for r in records) / len(records)


def _end_to_end(keys, records) -> dict:
    """Medians over the run, so that bursts of contention from other
    tenants of the host, which hit a varying share of a run's operations,
    do not set the figures. Each input's latency is its median time over
    the run; p50 and p90 are taken over one round's operations at those
    latencies (linear interpolation). ops_per_s is a round's operations
    over its time, median over the rounds."""
    times: dict = {}
    for key, dt, *_ in records:
        times.setdefault(key, []).append(dt)
    typical = [statistics.median(times[k]) for k in keys]
    n = len(keys)
    rounds = [sum(r[1] for r in records[i:i + n]) for i in range(0, len(records), n)]
    return {
        "ops_per_s": (n / statistics.median(rounds), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(typical), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(typical, n=10, method="inclusive")[8], "ms"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _fix_allocator()
    # BLAS reads its thread count once, when NumPy loads it
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    if not (SRC / "detnum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no detnum sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    if args.setup_child is not None:
        _setup_child(args.workload, args.setup_child)
        return 0
    _check_detnum_source()

    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload]()
    inputs = OUT / f"{args.workload}-s{args.seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    wl.generate(args.seed, inputs)
    setups = _setup_times(args.workload, args.seed, inputs)
    state = wl.prepare(inputs)

    warm = {key: op() for key, op in wl.round(state)}
    tracer = None
    if args.trace:
        wl.before_trace(state)
        tracer = Tracer()
    records = _timed_rounds(wl, state, args.seconds, tracer)
    failed, wrong, causes = _check(wl, state, warm, records)

    if args.trace:
        plain = [r for r in records if not r[4]]
        traced = [r for r in records if r[4]]
        # layers this workload never calls read 0
        values = dict.fromkeys(LAYER_UNITS, 0.0)
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["trace.overhead_ms_per_op"] = _per_op_ms(traced) - _per_op_ms(plain)
        values.update(wl.layers(tracer.totals(), len(traced)))
        metrics = {k: (v, LAYER_UNITS[k]) for k, v in values.items()}
    else:
        metrics = _end_to_end([key for key, _ in wl.round(state)], records)
        metrics.update({
            "setup_s": (statistics.median(s["import_s"] + s["prepare_s"] for s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        })
    result = {"correct": wrong == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{tag}.spans.jsonl")
    print(f"{tag}: {len(records)} operations, {failed} failed, {wrong} with wrong output",
          file=sys.stderr)
    for cause, n in sorted(causes.items()):
        print(f"  {n} x {cause}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"  {k:40s} {v:14.6g} {u}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
