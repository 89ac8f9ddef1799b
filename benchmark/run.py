"""Benchmark runner for umco: one workload per process, closed loop, one thread.

    python3 benchmark/run.py --workload fb-capacity --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the end-to-end metrics are measured
with no tracing.  With ``--trace 1`` a fixed number of ops runs twice each,
untraced and traced, and the per-layer metrics come from the traced pass.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means every
op's output passed its oracle; 1 means some output was wrong; 2 means the
benchmark could not run.  Spans and per-run details are written under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, so ops stay single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Outcome, is_typed_error  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 5
# End-to-end times are in host-normalised seconds: raw time scaled so that
# the fixed reference kernel (reference_s) takes REFERENCE_S.  The shared
# host runs everything up to 2x slower for stretches of seconds to minutes;
# the kernel slows with it, the ratio does not.
REFERENCE_S = 1e-3
REFERENCE_WINDOW = 12
STAT_PASSES = 2
# Ops per second of --seconds for the traced run, sized so the untraced and
# traced runs of every op together take about 0.7 x --seconds on a 2-core x86
# sandbox in its fast state (1.3 x in its slow state).  The count is fixed by
# the arguments, so per-layer counters repeat exactly.
TRACE_OPS_PER_SECOND = {
    "fb-capacity": 7.0,
    "finite-horizon": 7.0,
    "capacity-cost": 0.9,
    "exponent-cli": 3.2,
}
# Ops whose latency decides op_tail_ms: the highest percentile with at
# least this many ops beyond it.
TAIL_BEYOND = 10


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package sources, ...)."""


def import_umco():
    """Import umco afresh from the checkout's src/, dropping any loaded copy."""
    if not (SRC / "umco" / "__init__.py").is_file():
        raise SetupError(f"no package sources at {SRC / 'umco'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "umco" or n.startswith("umco.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    umco = importlib.import_module("umco")
    importlib.import_module("umco.cli")
    if not Path(umco.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"umco imported from {umco.__file__}, not from {SRC}")
    return umco


def reference_s() -> float:
    """Seconds taken by a fixed kernel that uses no umco code.

    150 Blahut-Arimoto steps on a fixed 4x4 channel: the same mix of Python
    bytecode and small numpy calls as the solvers, so host slowdowns hit it
    the way they hit the ops.  It takes about 1.4 ms on a 2-core x86 sandbox.
    """
    rows = np.array(_REFERENCE_ROWS)
    start = perf_counter()
    pi = np.full(4, 0.25)
    for _ in range(150):
        divergence = (rows * np.log2(rows / (pi @ rows))).sum(axis=1)
        weights = pi * np.exp2(divergence - divergence.max())
        pi = weights / weights.sum()
    return perf_counter() - start


_REFERENCE_ROWS = (
    (0.7, 0.1, 0.1, 0.1),
    (0.1, 0.6, 0.2, 0.1),
    (0.2, 0.1, 0.6, 0.1),
    (0.1, 0.1, 0.1, 0.7),
)


def normalise(raws, references):
    """Host-normalised latencies: raws[i] ran between references[i] and references[i + 1].

    Each op is scaled by REFERENCE_S over the mean of the REFERENCE_WINDOW
    reference timings nearest to it, half before its start and half after
    its end.  One reference on each side would follow the host's state
    exactly only if the state never changed during the op; the window
    averages over switches that happen within long ops.
    """
    half = REFERENCE_WINDOW // 2
    latencies = []
    for i, raw in enumerate(raws):
        window = references[max(0, i + 1 - half) : i + 1 + half]
        latencies.append(raw * REFERENCE_S / statistics.fmean(window))
    return latencies


def setup(workload, seed: int, repeats: int):
    """Import, generate inputs and run one warm-up op, ``repeats`` times.

    Returns the last (live) module, its ops, and the host-normalised set-up
    time of each repetition.
    """
    raws = []
    references = [reference_s()]
    for _ in range(repeats):
        # Start every repetition from a collected heap, so a collection
        # triggered by the previous repetition's garbage is not timed here.
        gc.collect()
        start = perf_counter()
        umco = import_umco()
        ops = workload.make_ops(umco, seed, WORK / f"{workload.name}-seed{seed}")
        warm = workload.warmup_op(umco, WORK / f"{workload.name}-warmup")
        outcome = workload.check(umco, warm, workload.run(umco, warm))
        raws.append(perf_counter() - start)
        references.append(reference_s())
        if outcome.failed:
            raise SetupError(f"warm-up op failed: {outcome.reason}")
    scale = REFERENCE_S / statistics.fmean(references)
    return umco, ops, [raw * scale for raw in raws]


def execute(workload, umco, op):
    """Run one op; returns (latency_s, result, typed_error).  Other exceptions propagate."""
    start = perf_counter()
    try:
        result = workload.run(umco, op)
    except Exception as exc:
        if not is_typed_error(exc):
            raise
        return perf_counter() - start, None, exc
    return perf_counter() - start, result, None


class Tally:
    """Attempted/failed/wrong counts plus the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: list[str] = []

    def add(self, workload, umco, op, result, error) -> bool:
        """Count one op; returns True when it failed."""
        self.attempted += 1
        if error is not None:
            outcome = Outcome(True, False, f"{type(error).__name__}: {error}")
        else:
            outcome = workload.check(umco, op, result)
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        if outcome.failed:
            self._note(f"op {self.attempted - 1} [{op.label}] {'WRONG' if outcome.wrong else 'failed'}: {outcome.reason}")
        return outcome.failed

    def mismatch(self, op, reason):
        """A result that differs between two runs of the same op: a wrong answer."""
        self.wrong += 1
        self._note(f"[{op.label}] WRONG: {reason}")

    def _note(self, reason):
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def tail_latency(latencies):
    """(value, percentile): the highest percentile with at least TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_untraced(workload, seed, seconds):
    umco, ops, setup_times = setup(workload, seed, SETUP_REPEATS)
    tally = Tally()
    raws, labels, succeeded = [], [], []
    references = [reference_s()]
    start = perf_counter()
    while perf_counter() - start < seconds:
        op = ops[tally.attempted % len(ops)]
        raw, result, error = execute(workload, umco, op)
        references.append(reference_s())
        raws.append(raw)
        labels.append(op.label)
        succeeded.append(not tally.add(workload, umco, op, result, error))
    latencies = normalise(raws, references)
    # Statistics cover the first STAT_PASSES whole passes through the pool,
    # so every input weighs the same whatever op the time limit cut the last
    # pass at, and however many passes the host's speed allowed.
    passes = min(STAT_PASSES, len(raws) // len(ops))
    used = passes * len(ops) if passes else len(raws)
    by_slot: dict[str, list[float]] = {}
    for label, latency in zip(labels[:used], latencies[:used]):
        by_slot.setdefault(label, []).append(latency)
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"ops-{workload.name}-seed{seed}.csv", "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(("slot", "raw_s", "reference_before_s", "normalised_s"))
        writer.writerows(zip(labels, raws, references, latencies))
    tail, percentile = tail_latency(latencies[:used])
    metrics = {
        "ops_per_s": sum(succeeded[:used]) / sum(latencies[:used]),
        "op_p50_ms": 1e3 * statistics.median(latencies[:used]),
        "op_tail_ms": 1e3 * tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "samples": used,
        "passes_over_pool": len(raws) / len(ops),
        "tail_percentile": percentile,
        "failed_share": tally.failed / tally.attempted,
        "wall_s": perf_counter() - start,
        "reference_ms_median": 1e3 * statistics.median(references),
        "setup_runs_s": " ".join(f"{t:.4f}" for t in setup_times),
        "p50_ms_by_slot": ", ".join(
            f"{label} {1e3 * statistics.median(times):.1f} (n={len(times)})" for label, times in by_slot.items()
        ),
    }
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, details


def run_traced(workload, seed, seconds):
    """Run a fixed number of ops untraced and traced; per-layer metrics from the traced runs.

    Per-layer times are host-normalised by the mean reference timing of the
    run, like the end-to-end times.
    """
    umco, ops, _ = setup(workload, seed, 1)
    tracer = Tracer()
    tally = Tally()
    n_ops = math.ceil(seconds * TRACE_OPS_PER_SECOND[workload.name])
    untraced_s = traced_s = 0.0
    references = [reference_s()]
    for i in range(n_ops):
        op = ops[i % len(ops)]
        tracer.op_id = i
        runs = {}
        # Alternate which pass goes first so warm caches favour neither.
        for traced in (False, True) if i % 2 == 0 else (True, False):
            with tracer if traced else contextlib.nullcontext():
                runs[traced] = execute(workload, umco, op)
        references.append(reference_s())
        (plain_s, plain, plain_error), (again_s, again, again_error) = runs[False], runs[True]
        untraced_s += plain_s
        traced_s += again_s
        if plain_error is None and again_error is None:
            same = workload.digest(plain) == workload.digest(again)
        else:
            same = repr(plain_error) == repr(again_error)
        if not same:
            tally.mismatch(op, "traced and untraced runs returned different results")
        tally.add(workload, umco, op, plain, plain_error)
    values = layer_metrics(tracer, workload.name, (traced_s - untraced_s) / untraced_s)
    scale = REFERENCE_S / statistics.fmean(references)
    metrics = {}
    for name, (unit, _, _) in LAYER_METRICS.items():
        value = values[name]
        if value is not None and unit in ("s", "us"):
            value *= scale
        metrics[name] = (value, unit)
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_spans(spans_path)
    details = {
        "ops": n_ops,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "wall_s_untraced_traced": f"{untraced_s:.3f} {traced_s:.3f}",
        "reference_ms_mean": 1e3 * statistics.fmean(references),
    }
    return tally, metrics, details


def emit(tally, metrics, details):
    for name, (value, unit) in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit}")
    for key, value in details.items():
        print(f"# {key}: {value}")
    print(f"# attempted {tally.attempted}, failed {tally.failed}, wrong {tally.wrong}")
    for reason in tally.reasons:
        print(f"# {reason}")
    line = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return 0 if tally.wrong == 0 else 1


def run_all(args, names):
    """Each workload in a fresh process; prints every metric and a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        print(f"== {name}")
        print(proc.stdout.rstrip())
        if proc.returncode not in (0, 1) or not proc.stdout.strip():
            print(proc.stderr.rstrip(), file=sys.stderr)
            return 2
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
        code = max(code, proc.returncode)
    print(json.dumps(combined), flush=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            return emit(*run_traced(workload, args.seed, args.seconds))
        return emit(*run_untraced(workload, args.seed, args.seconds))
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
