"""Outside-in tracer for the umco layers.

The tracer wraps a fixed list of public functions (``BOUNDARIES``) from the
benchmark's side: every loaded ``umco`` module namespace that binds one of
those functions gets the wrapper instead, so a call is caught whether it goes
through a module global (``onestage.maximize_stage_objective``), a name
imported into another module (``infinite_horizon.maximize_stage_objective``)
or the package export (``umco.relative_value_iteration``).  Nothing under
``src/`` changes.

Each call records a span (id, name, start, end, parent id, op id) in memory.
Self time is a span's duration minus the durations of its direct child
spans; calls are strictly nested because the benchmark is single-threaded.
Counters are read from the objects the functions return, so they repeat
exactly for the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Functions wrapped per module.  Leaf helpers that run once per inner
# iteration or per state (letter_divergences, letter_scores, lambda_matrix,
# stationary_distribution) are left out on purpose: they are the work of the
# span that calls them, and a span per inner iteration would cost more than
# the iteration itself.
BOUNDARIES = {
    "umco.onestage": ("maximize_stage_objective",),
    "umco.infinite_horizon": (
        "relative_value_iteration",
        "policy_iteration",
        "verify_bellman_conditions",
    ),
    "umco.finite_dp": ("solve_finite_horizon", "verify_optimality_conditions"),
    "umco.constrained": ("capacity_cost_curve", "constrained_capacity"),
    "umco.exponent": (
        "rate_sweep_csv",
        "exponent_csv",
        "random_coding_exponent",
        "error_probability_bound",
        "gallager_exponent_infinite",
    ),
    "umco.cli": ("run_command",),
    "umco.channel": ("parse_channel_document",),
}

MAXIMIZE = "onestage.maximize_stage_objective"
RVI = "infinite_horizon.relative_value_iteration"
PI = "infinite_horizon.policy_iteration"
CHECK = "infinite_horizon.verify_bellman_conditions"
FDP_SOLVE = "finite_dp.solve_finite_horizon"
FDP_VERIFY = "finite_dp.verify_optimality_conditions"
CURVE = "constrained.capacity_cost_curve"
POINT = "constrained.constrained_capacity"
RATE_SWEEP = "exponent.rate_sweep_csv"
RC = "exponent.random_coding_exponent"
GALLAGER = "exponent.gallager_exponent_infinite"
CLI = "cli.run_command"
PARSE = "channel.parse_channel_document"


class Tracer:
    """Span recorder plus the per-boundary counters the layer metrics need.

    Use as a context manager: entering rebinds every boundary in every loaded
    ``umco`` module, leaving restores the original functions.  ``op_id`` is
    set by the caller before each op so spans of one op share it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self._bindings: list[tuple] = []
        self._wrappers = self._build_wrappers()

    # -- installation -------------------------------------------------

    def _build_wrappers(self) -> dict[int, tuple]:
        """Map id(original function) -> (original, wrapper) for every boundary.

        Raises LookupError when a listed boundary no longer resolves to a
        function defined in its module, so a refactor that moves a call
        fails loudly instead of silently reporting zero.
        """
        wrappers = {}
        for module_name, names in BOUNDARIES.items():
            module = sys.modules.get(module_name)
            if module is None:
                raise LookupError(f"boundary module {module_name} is not imported")
            for name in names:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module_name:
                    raise LookupError(f"boundary {module_name}.{name} no longer resolves to its function")
                span_name = f"{module_name.split('.', 1)[1]}.{name}"
                wrappers[id(fn)] = (fn, self._wrap(span_name, fn))
        return wrappers

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "umco" or n.startswith("umco.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._bindings.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()
        return False

    def bound_names(self) -> set[str]:
        """'module.attr' for every namespace binding the tracer replaced."""
        return {f"{m.__name__}.{attr}" for m, attr, _ in self._bindings}

    # -- spans ----------------------------------------------------------

    def _wrap(self, span_name, fn):
        hook = _HOOKS.get(span_name)
        signature = inspect.signature(fn) if span_name in _NEEDS_ARGS else None
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame)
                if hook is not None:
                    hook(tracer, None, exc, signature, args, kwargs)
                raise
            tracer._exit(frame)
            if hook is not None:
                hook(tracer, result, None, signature, args, kwargs)
            return result

        return functools.wraps(fn)(traced)

    def _enter(self, name):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        if name == RVI and (self._open[CURVE] or self._open[POINT]):
            self.counts["constrained.rvi_solves"] += 1
        if name == RC and self._open[RATE_SWEEP]:
            self.counts["exponent.rc_calls_in_sweeps"] += 1
        self._open[name] += 1
        frame = [span_id, name, parent, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self._stack.pop()
        span_id, name, parent, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self._open[name] -= 1
        self.spans[span_id] = (span_id, name, start, end, parent, self.op_id)
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration

    def write_spans(self, path):
        """Write every span as CSV: id,name,start_s,end_s,parent,op."""
        with open(path, "w") as out:
            out.write("id,name,start_s,end_s,parent,op\n")
            for span_id, name, start, end, parent, op in self.spans:
                out.write(f"{span_id},{name},{start!r},{end!r},{parent},{op}\n")


# -- counters read from returned objects ------------------------------


def _on_maximize(tracer, result, exc, signature, args, kwargs):
    if exc is not None:
        if type(exc).__name__ == "ConvergenceError":
            tracer.counts["onestage.failures"] += 1
        return
    tracer.counts["onestage.inner_iters"] += result.iterations
    if result.iterations > tracer.counts["onestage.inner_iters_max"]:
        tracer.counts["onestage.inner_iters_max"] = result.iterations
    if tracer._open[FDP_SOLVE]:
        tracer.counts["finite_dp.inner_iters"] += result.iterations


def _on_rvi(tracer, result, exc, signature, args, kwargs):
    if exc is None:
        tracer.counts["infinite_horizon.rvi.sweeps"] += result.iterations


def _on_pi(tracer, result, exc, signature, args, kwargs):
    if exc is None:
        tracer.counts["infinite_horizon.pi.iters"] += result.iterations


def _on_fdp_solve(tracer, result, exc, signature, args, kwargs):
    if exc is None:
        tracer.counts["finite_dp.solve.stage_states"] += result.values.size


def _on_curve(tracer, result, exc, signature, args, kwargs):
    requested = len(signature.bind(*args, **kwargs).arguments["kappa_grid"])
    tracer.counts["constrained.points"] += requested
    tracer.counts["constrained.points_dropped"] += requested - (0 if exc is not None else len(result))


def _on_rate_sweep(tracer, result, exc, signature, args, kwargs):
    tracer.counts["exponent.rates"] += len(signature.bind(*args, **kwargs).arguments["rates"])


_HOOKS = {
    MAXIMIZE: _on_maximize,
    RVI: _on_rvi,
    PI: _on_pi,
    FDP_SOLVE: _on_fdp_solve,
    CURVE: _on_curve,
    RATE_SWEEP: _on_rate_sweep,
}
_NEEDS_ARGS = {CURVE, RATE_SWEEP}


# -- layer metrics ----------------------------------------------------

# name -> (unit, better, workloads that must exercise the boundary).  A
# metric whose boundary recorded no call on one of those workloads is
# reported as unmeasured (None) rather than 0; on the other workloads 0 is a
# measurement ("must not move").
_SOLVER_WORKLOADS = ("fb-capacity", "finite-horizon", "capacity-cost")
LAYER_METRICS = {
    "onestage.calls": ("count", "lower", _SOLVER_WORKLOADS),
    "onestage.inner_iters": ("count", "lower", _SOLVER_WORKLOADS),
    "onestage.inner_iters_max": ("count", "lower", _SOLVER_WORKLOADS),
    "onestage.self_s": ("s", "lower", _SOLVER_WORKLOADS),
    "onestage.us_per_inner_iter": ("us", "lower", _SOLVER_WORKLOADS),
    "onestage.failures": ("count", "lower", ()),
    "infinite_horizon.rvi.calls": ("count", "lower", ("fb-capacity", "capacity-cost")),
    "infinite_horizon.rvi.sweeps": ("count", "lower", ("fb-capacity", "capacity-cost")),
    "infinite_horizon.rvi.self_s": ("s", "lower", ("fb-capacity", "capacity-cost")),
    "infinite_horizon.pi.calls": ("count", "lower", ("fb-capacity",)),
    "infinite_horizon.pi.iters": ("count", "lower", ("fb-capacity",)),
    "infinite_horizon.pi.self_s": ("s", "lower", ("fb-capacity",)),
    "infinite_horizon.check.self_s": ("s", "lower", ("fb-capacity",)),
    "finite_dp.solve.stage_states": ("count", "higher", ("finite-horizon",)),
    "finite_dp.inner_iters_per_stage_state": ("count", "lower", ("finite-horizon",)),
    "finite_dp.solve.self_s": ("s", "lower", ("finite-horizon",)),
    "finite_dp.verify.self_s": ("s", "lower", ("finite-horizon",)),
    "constrained.points": ("count", "higher", ("capacity-cost",)),
    "constrained.points_dropped": ("count", "lower", ()),
    "constrained.rvi_solves": ("count", "lower", ("capacity-cost",)),
    "constrained.rvi_solves_per_point": ("count", "lower", ("capacity-cost",)),
    "constrained.self_s": ("s", "lower", ("capacity-cost",)),
    "exponent.rc_calls": ("count", "lower", ("exponent-cli",)),
    "exponent.rc_calls_per_rate": ("count", "lower", ("exponent-cli",)),
    "exponent.gallager_calls": ("count", "lower", ("exponent-cli",)),
    "exponent.gallager_s": ("s", "lower", ("exponent-cli",)),
    "exponent.self_s": ("s", "lower", ("exponent-cli",)),
    "cli.calls": ("count", "lower", ("exponent-cli",)),
    "cli.self_s": ("s", "lower", ("exponent-cli",)),
    "channel.parse_s": ("s", "lower", ("exponent-cli",)),
    "trace.overhead_share": ("share", "lower", ()),
}

# Metric -> the boundary whose call count decides whether it was measured.
_BASE_BOUNDARY = {
    "onestage": MAXIMIZE,
    "infinite_horizon.rvi": RVI,
    "infinite_horizon.pi": PI,
    "infinite_horizon.check": CHECK,
    "finite_dp": FDP_SOLVE,
    "constrained": CURVE,
    "exponent.rc_calls_per_rate": RATE_SWEEP,
    "exponent": RC,
    "cli": CLI,
    "channel": PARSE,
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, workload: str, overhead_share: float) -> dict[str, float | None]:
    """Every LAYER_METRICS value for one traced run of ``workload``."""
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s
    exponent_spans = [n for n in calls if n.startswith("exponent.")]
    values = {
        "onestage.calls": calls[MAXIMIZE],
        "onestage.inner_iters": int(counts["onestage.inner_iters"]),
        "onestage.inner_iters_max": int(counts["onestage.inner_iters_max"]),
        "onestage.self_s": self_s[MAXIMIZE],
        "onestage.us_per_inner_iter": 1e6 * _ratio(self_s[MAXIMIZE], counts["onestage.inner_iters"]),
        "onestage.failures": int(counts["onestage.failures"]),
        "infinite_horizon.rvi.calls": calls[RVI],
        "infinite_horizon.rvi.sweeps": int(counts["infinite_horizon.rvi.sweeps"]),
        "infinite_horizon.rvi.self_s": self_s[RVI],
        "infinite_horizon.pi.calls": calls[PI],
        "infinite_horizon.pi.iters": int(counts["infinite_horizon.pi.iters"]),
        "infinite_horizon.pi.self_s": self_s[PI],
        "infinite_horizon.check.self_s": self_s[CHECK],
        "finite_dp.solve.stage_states": int(counts["finite_dp.solve.stage_states"]),
        "finite_dp.inner_iters_per_stage_state": _ratio(
            counts["finite_dp.inner_iters"], counts["finite_dp.solve.stage_states"]
        ),
        "finite_dp.solve.self_s": self_s[FDP_SOLVE],
        "finite_dp.verify.self_s": self_s[FDP_VERIFY],
        "constrained.points": int(counts["constrained.points"]),
        "constrained.points_dropped": int(counts["constrained.points_dropped"]),
        "constrained.rvi_solves": int(counts["constrained.rvi_solves"]),
        "constrained.rvi_solves_per_point": _ratio(counts["constrained.rvi_solves"], counts["constrained.points"]),
        "constrained.self_s": self_s[CURVE] + self_s[POINT],
        "exponent.rc_calls": calls[RC],
        "exponent.rc_calls_per_rate": _ratio(counts["exponent.rc_calls_in_sweeps"], counts["exponent.rates"]),
        "exponent.gallager_calls": calls[GALLAGER],
        "exponent.gallager_s": tracer.total_s[GALLAGER],
        "exponent.self_s": sum(self_s[n] for n in exponent_spans),
        "cli.calls": calls[CLI],
        "cli.self_s": self_s[CLI],
        "channel.parse_s": tracer.total_s[PARSE],
        "trace.overhead_share": overhead_share,
    }
    for name, (_, _, expected_on) in LAYER_METRICS.items():
        if workload not in expected_on:
            continue
        base = next(b for prefix, b in _BASE_BOUNDARY.items() if name.startswith(prefix))
        if calls[base] == 0:
            values[name] = None
    return values
