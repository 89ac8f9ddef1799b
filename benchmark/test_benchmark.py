"""Self-tests of the benchmark: same seed, same inputs; a transparent tracer; loud failures.

Run with ``PYTHONPATH=src python -m pytest benchmark -q`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import umco
import umco.cli
import run
import tracer as tracer_mod
from tracer import BOUNDARIES, LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, FbCapacity, Op, bibo_channel, bssc

ROOT = Path(__file__).resolve().parent.parent


def _fingerprint(op):
    params = []
    for key, value in sorted(op.params.items()):
        for attr in ("matrix", "gamma"):
            if hasattr(value, attr):
                value = getattr(value, attr).tobytes()
        params.append((key, value))
    return op.label, op.channel.kernel.tobytes(), tuple(params)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_ops(name, tmp_path):
    workload = WORKLOADS[name]
    first = [_fingerprint(op) for op in workload.make_ops(umco, 7, tmp_path)]
    again = [_fingerprint(op) for op in workload.make_ops(umco, 7, tmp_path)]
    other = [_fingerprint(op) for op in workload.make_ops(umco, 8, tmp_path)]
    assert first == again
    assert first != other
    # capacity-cost rotates one fixed pool; the others draw new channels.
    assert sorted(first) != sorted(other) or name == "capacity-cost"
    # Slots rotate identically whatever the seed, so every run holds the same mix.
    assert [f[0] for f in first] == [f[0] for f in other]


def test_every_boundary_resolves_and_is_rebound_everywhere():
    with Tracer() as tracer:
        for module_name, names in BOUNDARIES.items():
            for name in names:
                assert hasattr(getattr(sys.modules[module_name], name), "__wrapped__"), (module_name, name)
        bound = tracer.bound_names()
        # Imported names and package exports are caught as well as module globals.
        for binding in (
            "umco.onestage.maximize_stage_objective",
            "umco.infinite_horizon.maximize_stage_objective",
            "umco.finite_dp.maximize_stage_objective",
            "umco.relative_value_iteration",
            "umco.cli.relative_value_iteration",
            "umco.cli.parse_channel_document",
        ):
            assert binding in bound
    for module_name, names in BOUNDARIES.items():
        for name in names:
            assert not hasattr(getattr(sys.modules[module_name], name), "__wrapped__")


def test_a_boundary_that_moved_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer_mod.BOUNDARIES, "umco.onestage", ("maximize_stage_objective", "no_such_function"))
    with pytest.raises(LookupError, match="no_such_function"):
        Tracer()


def _traced(workload, op):
    tracer = Tracer()
    with tracer:
        result = workload.run(umco, op)
    return tracer, workload.digest(result)


def test_tracer_changes_no_result_and_counters_repeat(tmp_path):
    cases = [
        (WORKLOADS["fb-capacity"], Op("bssc(1,0.5)", bssc(umco, 1.0, 0.5), {})),
        (WORKLOADS["fb-capacity"], Op("bibo", bibo_channel(umco), {})),
        (WORKLOADS["exponent-cli"], WORKLOADS["exponent-cli"].warmup_op(umco, tmp_path)),
    ]
    for workload, op in cases:
        plain = workload.digest(workload.run(umco, op))
        first, first_digest = _traced(workload, op)
        second, second_digest = _traced(workload, op)
        assert first_digest == plain == second_digest
        assert dict(first.calls) == dict(second.calls)
        assert dict(first.counts) == dict(second.counts)
        assert first.calls


def test_roadmap_baseline_counters(tmp_path):
    tracer = Tracer()
    with tracer:
        umco.relative_value_iteration(bssc(umco, 1.0, 0.5))
    metrics = layer_metrics(tracer, "fb-capacity", 0.0)
    assert (metrics["infinite_horizon.rvi.sweeps"], metrics["onestage.inner_iters"]) == (1, 100)

    tracer = Tracer()
    with tracer:
        umco.relative_value_iteration(bibo_channel(umco))
    metrics = layer_metrics(tracer, "fb-capacity", 0.0)
    assert (metrics["infinite_horizon.rvi.sweeps"], metrics["onestage.inner_iters"]) == (19, 2835)

    tracer = Tracer()
    with tracer:
        umco.policy_iteration(bibo_channel(umco), umco.uniform_policy(2, 2))
    metrics = layer_metrics(tracer, "fb-capacity", 0.0)
    assert (metrics["infinite_horizon.pi.iters"], metrics["onestage.inner_iters"]) == (4, 1270)

    tracer = Tracer()
    with tracer:
        WORKLOADS["exponent-cli"].run(umco, WORKLOADS["exponent-cli"].warmup_op(umco, tmp_path))
    assert layer_metrics(tracer, "exponent-cli", 0.0)["exponent.rc_calls_per_rate"] == 2


def test_unexercised_expected_layer_is_unmeasured_not_zero():
    metrics = layer_metrics(Tracer(), "fb-capacity", 0.0)
    assert metrics["onestage.calls"] is None
    assert metrics["infinite_horizon.pi.iters"] is None
    # Layers fb-capacity must not touch read as a measured 0.
    assert metrics["exponent.rc_calls"] == 0
    assert metrics["constrained.rvi_solves"] == 0


class _StallingFb(FbCapacity):
    def run(self, umco, op):
        return umco.relative_value_iteration(op.channel, max_iter=1)


def test_solver_stall_is_a_failed_op_not_a_wrong_one():
    tracer = Tracer()
    with tracer:
        with pytest.raises(umco.ConvergenceError):
            umco.onestage.maximize_stage_objective(bibo_channel(umco).kernel[0], max_iter=1, tol=0.0)
    assert layer_metrics(tracer, "fb-capacity", 0.0)["onestage.failures"] == 1

    workload = _StallingFb()
    op = Op("bibo", bibo_channel(umco), {})
    tally = run.Tally()
    _, result, error = run.execute(workload, umco, op)
    assert isinstance(error, umco.ConvergenceError)
    tally.add(workload, umco, op, result, error)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_dropped_kappa_point_is_a_failed_op():
    workload = WORKLOADS["capacity-cost"]
    op = workload.warmup_op(umco, None)
    outcome = workload.check(umco, op, ([], ("kappa=0.3: stage fixed point did not reach tol",)))
    assert outcome.failed and not outcome.wrong


def test_wrong_answer_is_caught():
    workload = WORKLOADS["fb-capacity"]
    op = Op("bssc(1,0.5)", bssc(umco, 1.0, 0.5), {})
    rvi, report, pi = workload.run(umco, op)
    assert not workload.check(umco, op, (rvi, report, pi)).failed
    shifted = dataclasses.replace(pi, gain=pi.gain + 1e-6)
    outcome = workload.check(umco, op, (rvi, report, shifted))
    assert outcome.failed and outcome.wrong


def test_tail_latency_keeps_ten_ops_beyond():
    samples = [float(i) for i in range(100)]
    value, percentile = run.tail_latency(samples)
    assert value == 89.0 and sum(s > value for s in samples) == 10
    assert percentile == 90.0
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()
    }
    assert set(run.TRACE_OPS_PER_SECOND) == set(WORKLOADS)


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "fb-capacity", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no package sources" in proc.stderr
