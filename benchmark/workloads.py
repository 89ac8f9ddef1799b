"""The four benchmark workloads: input generation, the timed op, and its oracle.

Every workload is a closed loop: one caller issues ops back to back on one
thread.  Inputs come only from the seed.  Ops follow a fixed rotation of
slots (channel kind, size, horizon, ...) so that any stretch of a run holds
the same mix; the seed draws the channels that fill the slots.

Random S x S channels are noisy permutation channels: in each state, input a
goes to output perm(a) with probability 1 - eps and otherwise spreads as a
Dirichlet(1) row, eps ~ U[EPS_LO, EPS_HI].  Random BSSC parameters follow a
fixed two-dimensional Kronecker sequence plus a small seeded jitter, so every
run covers the (alpha, beta) box evenly and the cost mix per run does not
depend on which seed was drawn.

Each workload's ``check`` is an oracle independent of the op's own code
path where one exists (closed forms, RVI against PI, path enumeration
against the matrix method) and runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS_LO, EPS_HI = 0.05, 0.3
# Plastic-number Kronecker step: the low-discrepancy R2 sequence.
_R2 = (0.7548776662466927, 0.5698402909980532)

TYPED_ERRORS = (
    "ChannelFormatError",
    "ConvergenceError",
    "DimensionMismatchError",
    "InfeasibleBudgetError",
    "ReducibleChainError",
    "ValidationError",
)


@dataclass(frozen=True)
class Op:
    """One op's inputs.  ``label`` names its slot; ``params`` holds the rest."""

    label: str
    channel: object
    params: dict


@dataclass(frozen=True)
class Outcome:
    """Result of checking one op: failed ops include wrong ones."""

    failed: bool
    wrong: bool
    reason: str = ""


OK = Outcome(False, False)


def _failed(reason):
    return Outcome(True, False, reason)


def _wrong(reason):
    return Outcome(True, True, reason)


def is_typed_error(exc: BaseException) -> bool:
    """True for the package's own error types (solver stalls, bad input, ...)."""
    return type(exc).__module__.startswith("umco") and type(exc).__name__ in TYPED_ERRORS


# -- input generators ---------------------------------------------------


def noisy_permutation_channel(umco, rng, size):
    kernel = np.empty((size, size, size))
    for state in range(size):
        eps = rng.uniform(EPS_LO, EPS_HI, size=(size, 1))
        spread = rng.dirichlet(np.ones(size), size=size)
        kernel[state] = (1.0 - eps) * np.eye(size)[rng.permutation(size)] + eps * spread
    return umco.channel_from_kernel(kernel, name=f"perm{size}")


def bssc_sequence(rng, alpha_range, beta_range, jitter=0.02):
    """Endless (alpha, beta) pairs: a fixed Kronecker sequence, each point moved by a seeded jitter.

    The fixed backbone spreads any stretch of ops evenly over the box, so a
    run's cost mix does not depend on the seed; the jitter (a fraction of
    the box, folded back at its edges) gives every seed its own channels.
    """
    index = 0
    while True:
        index += 1
        u = index * np.array(_R2) + rng.uniform(-jitter, jitter, size=2)
        u = np.abs((u + 1.0) % 2.0 - 1.0)
        yield (
            float(alpha_range[0] + (alpha_range[1] - alpha_range[0]) * u[0]),
            float(beta_range[0] + (beta_range[1] - beta_range[0]) * u[1]),
        )


def bibo_channel(umco):
    """The paper's BIBO(0.9, 0.2, 0.1, 0.4): P(b=0 | b_prev, a) = (0.9, 0.2; 0.1, 0.4)."""
    kernel = np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.4, 0.6]]])
    return umco.channel_from_kernel(kernel, name="bibo")


def bssc(umco, alpha, beta):
    return umco.bssc_channel(umco.BSSCParams(alpha, beta))


# -- workloads ------------------------------------------------------------


class Workload:
    """Base: subclasses define the slot rotation, the op and its oracle."""

    name = ""
    # Ops generated per run.  A run cycles through them, and its statistics
    # cover whole passes only, so its cost mix is set by the pool and not by
    # how far the run gets.  Pools are sized for at least two passes in a
    # 25-s run on a 2-core x86 sandbox, even while the host runs slow.
    pool_size = 0

    def make_ops(self, umco, seed: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def warmup_op(self, umco, workdir: Path) -> Op:
        raise NotImplementedError

    def run(self, umco, op: Op):
        raise NotImplementedError

    def check(self, umco, op: Op, result) -> Outcome:
        raise NotImplementedError

    def digest(self, result):
        """A value that is equal for bitwise-identical results."""
        raise NotImplementedError


def _array_bytes(*arrays):
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


class FbCapacity(Workload):
    """RVI, then the Bellman verifier, then PI from uniform, on one channel per op."""

    name = "fb-capacity"
    pool_size = 140
    # Seven slots of distinct cost: the median op falls inside one slot's
    # spread (perm5) rather than in the gap between two slots.
    slots = ("bssc(1,0.5)", "bibo", "perm3", "perm4", "perm5", "perm6", "perm8")
    verify_tol = 1e-8
    gain_tol = 1e-8

    def _slot_channel(self, umco, rng, label):
        if label == "bssc(1,0.5)":
            return bssc(umco, 1.0, 0.5)
        if label == "bibo":
            return bibo_channel(umco)
        return noisy_permutation_channel(umco, rng, int(label[4:]))

    def make_ops(self, umco, seed, workdir):
        rng = np.random.default_rng(seed)
        ops = []
        for i in range(self.pool_size):
            label = self.slots[i % len(self.slots)]
            ops.append(Op(label, self._slot_channel(umco, rng, label), {}))
        return ops

    def warmup_op(self, umco, workdir):
        return Op("bssc(1,0.5)", bssc(umco, 1.0, 0.5), {})

    def run(self, umco, op):
        channel = op.channel
        rvi = umco.relative_value_iteration(channel)
        report = umco.verify_bellman_conditions(channel, rvi, tol=self.verify_tol)
        pi = umco.policy_iteration(channel, umco.uniform_policy(channel.n_states, channel.n_inputs))
        return rvi, report, pi

    def check(self, umco, op, result):
        rvi, report, pi = result
        if not report.passed:
            return _wrong(f"Bellman conditions fail by {report.worst_violation:.3e}")
        if abs(rvi.gain - pi.gain) > self.gain_tol:
            return _wrong(f"RVI gain {rvi.gain!r} != PI gain {pi.gain!r}")
        if op.label == "bssc(1,0.5)":
            exact = umco.bssc_closed_form(umco.BSSCParams(1.0, 0.5)).capacity
            if abs(rvi.gain - exact) > self.gain_tol:
                return _wrong(f"BSSC gain {rvi.gain!r} != closed form {exact!r}")
        if op.label == "bibo" and abs(pi.gain - 0.215) > 1e-3:
            return _wrong(f"BIBO gain {pi.gain!r} is not the published 0.215")
        return OK

    def digest(self, result):
        rvi, report, pi = result
        return (
            rvi.iterations,
            pi.iterations,
            report.worst_violation,
            _array_bytes([rvi.gain], rvi.bias, rvi.policy.matrix, [pi.gain], pi.bias, pi.policy.matrix),
        )


class FiniteHorizon(Workload):
    """Backward DP, then the optimality-condition verifier, then the nestedness classifier."""

    name = "finite-horizon"
    pool_size = 120
    kinds = ("perm2", "perm3", "perm4", "bssc")
    horizons = (10, 20, 30)
    alpha_range = (0.7, 1.0)
    beta_range = (0.5, 0.9)
    # The solver stops on the stage gap (1e-10), which does not bound the
    # per-letter equalities the verifier checks; random 3x3 channels reach
    # violations of 1.1e-9 at n = 30.
    verify_tol = 1e-8
    classify_tol = 1e-6

    def make_ops(self, umco, seed, workdir):
        rng = np.random.default_rng(seed)
        pairs = bssc_sequence(rng, self.alpha_range, self.beta_range)
        ops = []
        for i in range(self.pool_size):
            kind = self.kinds[i % len(self.kinds)]
            horizon = self.horizons[(i // len(self.kinds)) % len(self.horizons)]
            if kind == "bssc":
                alpha, beta = next(pairs)
                op = Op(kind, bssc(umco, alpha, beta), {"horizon": horizon, "alpha": alpha, "beta": beta})
            else:
                op = Op(kind, noisy_permutation_channel(umco, rng, int(kind[4:])), {"horizon": horizon})
            ops.append(op)
        return ops

    def warmup_op(self, umco, workdir):
        return Op("bssc", bssc(umco, 1.0, 0.5), {"horizon": 10, "alpha": 1.0, "beta": 0.5})

    def run(self, umco, op):
        dp = umco.solve_finite_horizon(op.channel, op.params["horizon"])
        report = umco.verify_optimality_conditions(op.channel, dp, tol=self.verify_tol)
        verdict = umco.classify_non_nested(dp, tol=self.classify_tol)
        return dp, report, verdict

    def check(self, umco, op, result):
        dp, report, verdict = result
        if not report.passed:
            return _wrong(f"optimality conditions fail by {report.worst_violation:.3e}")
        # Stage rewards are nonnegative, so the worst-state value cannot drop
        # when a stage is added in front.
        lows = dp.values.min(axis=1)
        if lows[-1] < 0.0 or np.any(lows[:-1] < lows[1:] - 1e-12):
            return _wrong("worst-state value decreases with the number of stages left")
        if op.label == "bssc":
            # BSSCs decouple stage by stage (acceptance criterion 7): every
            # stage earns the closed-form capacity.
            if verdict.kind != "non_nested_time_invariant":
                return _wrong(f"BSSC classified {verdict.kind}")
            exact = umco.bssc_closed_form(umco.BSSCParams(op.params["alpha"], op.params["beta"])).capacity
            stages = op.params["horizon"] + 1
            if np.abs(dp.values[0] - stages * exact).max() > 1e-9 * stages:
                return _wrong(f"BSSC V_0 {dp.values[0]} != {stages} x closed form {exact!r}")
        return OK

    def digest(self, result):
        dp, report, verdict = result
        return (dp.inner_iterations, report.worst_violation, verdict.kind, _array_bytes(dp.values))


class CapacityCost(Workload):
    """One capacity-cost curve over a fixed kappa grid per op, on BSSC channels."""

    name = "capacity-cost"
    pool_size = 15
    kappas = (0.2, 0.3, 0.4)
    alpha_range = (0.8, 0.99)
    beta_range = (0.6, 0.85)
    closed_form_tol = 1e-6
    shape_tol = 1e-6

    def _op(self, umco, alpha, beta, kappas):
        cost = umco.CostSpec(umco.bssc_cost_function(), 0.0)
        params = {"cost": cost, "alpha": alpha, "beta": beta, "kappas": kappas}
        return Op("bssc", bssc(umco, alpha, beta), params)

    def make_ops(self, umco, seed, workdir):
        # The channels are the first pool_size points of the Kronecker
        # backbone with no jitter; the seed only sets where the rotation
        # starts.  The multiplier bisection stalls the inner solver at
        # scattered (alpha, beta) in this box, such as (0.8275, 0.5769),
        # about one random BSSC in 150, so random channels would make failed
        # ops routine.
        pairs = bssc_sequence(np.random.default_rng(0), self.alpha_range, self.beta_range, jitter=0.0)
        ops = [self._op(umco, *next(pairs), self.kappas) for _ in range(self.pool_size)]
        start = int(np.random.default_rng(seed).integers(self.pool_size))
        return ops[start:] + ops[:start]

    def warmup_op(self, umco, workdir):
        return self._op(umco, 0.95, 0.8, (0.3,))

    def run(self, umco, op):
        # capacity_cost_curve turns every per-point exception into a
        # warning and drops the point; record them so check() can count it.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = umco.capacity_cost_curve(op.channel, op.params["cost"], op.params["kappas"])
        return points, tuple(str(w.message) for w in caught)

    def check(self, umco, op, result):
        points, messages = result
        kappas = op.params["kappas"]
        if len(points) != len(kappas):
            return _failed(f"{len(kappas) - len(points)} kappa points dropped: {'; '.join(messages)}")
        params = umco.BSSCParams(op.params["alpha"], op.params["beta"])
        for point in points:
            exact = umco.bssc_constrained_closed_form(params, point.kappa).capacity
            if abs(point.capacity - exact) > self.closed_form_tol:
                return _wrong(f"C({point.kappa}) = {point.capacity!r}, closed form {exact!r}")
            if point.binding and abs(point.achieved_cost - point.kappa) > 1e-6:
                return _wrong(f"binding point at kappa={point.kappa} achieves cost {point.achieved_cost!r}")
            if point.achieved_cost > point.kappa + 1e-6:
                return _wrong(f"point at kappa={point.kappa} exceeds its budget")
        capacities = [p.capacity for p in points]
        if any(b < a - self.shape_tol for a, b in zip(capacities, capacities[1:])):
            return _wrong(f"curve decreases: {capacities}")
        for i in range(1, len(points) - 1):
            t = (kappas[i] - kappas[i - 1]) / (kappas[i + 1] - kappas[i - 1])
            chord = (1 - t) * capacities[i - 1] + t * capacities[i + 1]
            if capacities[i] < chord - self.shape_tol:
                return _wrong(f"curve not concave at kappa={kappas[i]}")
        return OK

    def digest(self, result):
        points, messages = result
        return messages, tuple(
            (p.kappa, p.capacity, p.multiplier, p.achieved_cost, p.binding, p.policy.matrix.tobytes()) for p in points
        )


class ExponentCli(Workload):
    """One in-process ``umco error-exponent`` CLI call on a generated channel file per op."""

    name = "exponent-cli"
    pool_size = 60
    # (channel kind, mode): BSSCs use the closed-form policy, permutation
    # channels the uniform policy.  The three slots differ in cost by about
    # 5x each, cheapest to dearest: perm rho-grid, BSSC rates, perm rates, so
    # the median op is a BSSC rate sweep.
    slots = (("bssc", "rates"), ("perm", "rho-grid"), ("perm", "rates"))
    perm_sizes = (2, 3, 4)
    rates = "0:0.6:0.2"
    rho_grid = "0:1:0.05"
    alpha_range = (0.7, 1.0)
    beta_range = (0.5, 0.9)
    oracle_rho = 0.5
    oracle_n = 6

    def _write(self, umco, workdir, index, channel):
        path = workdir / f"channel-{index:04d}.json"
        path.write_text(umco.serialize_channel(channel))
        return path

    def _op(self, umco, workdir, index, kind, mode, channel):
        path = self._write(umco, workdir, index, channel)
        policy_arg = "closed-form" if kind == "bssc" else "uniform"
        argv = ["error-exponent", "--channel", str(path), "--policy", policy_arg]
        argv += ["--rates", self.rates] if mode == "rates" else ["--rho-grid", self.rho_grid]
        if kind == "bssc":
            alpha, beta = float(channel.kernel[0, 0, 0]), float(channel.kernel[1, 0, 0])
            policy = umco.bssc_optimal_policy(umco.BSSCParams(alpha, beta))
        else:
            policy = umco.uniform_policy(channel.n_states, channel.n_inputs)
        return Op(f"{kind}{channel.n_states}-{mode}", channel, {"argv": argv, "mode": mode, "policy": policy})

    def make_ops(self, umco, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        pairs = bssc_sequence(rng, self.alpha_range, self.beta_range)
        ops = []
        perm_index = 0
        for i in range(self.pool_size):
            kind, mode = self.slots[i % len(self.slots)]
            if kind == "bssc":
                channel = bssc(umco, *next(pairs))
            else:
                size = self.perm_sizes[perm_index % len(self.perm_sizes)]
                perm_index += 1
                channel = noisy_permutation_channel(umco, rng, size)
            ops.append(self._op(umco, workdir, i, kind, mode, channel))
        return ops

    def warmup_op(self, umco, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        return self._op(umco, workdir, 9999, "bssc", "rates", bssc(umco, 0.95, 0.8))

    def run(self, umco, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = umco.cli.run_command(op.params["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, umco, op, result):
        code, text, err = result
        if code != 0:
            return _failed(f"exit code {code}: {err.strip()}")
        rows = [[float(x) for x in line.split(",")] for line in text.strip().splitlines()[1:]]
        policy = op.params["policy"]
        if op.params["mode"] == "rates":
            exponents = [row[1] for row in rows]
            if min(exponents) < 0.0:
                return _wrong(f"negative E_r: {exponents}")
            if any(b > a + 1e-12 for a, b in zip(exponents, exponents[1:])):
                return _wrong(f"E_r increases with rate: {exponents}")
            if not all(0.0 <= row[3] <= 1.0 for row in rows):
                return _wrong("error bound outside [0, 1]")
            # E_r(0) = max over rho of F(rho) = F(1), F being nondecreasing.
            f_one = umco.gallager_exponent_infinite(op.channel, policy, 1.0)[0]
            if abs(exponents[0] - f_one) > 1e-9:
                return _wrong(f"E_r(0) = {exponents[0]!r} but F(1) = {f_one!r}")
        else:
            f_values = [row[2] for row in rows]
            if abs(f_values[0]) > 1e-10 or min(f_values) < -1e-12:
                return _wrong(f"F(rho) not anchored at 0 / negative: {f_values[:3]}")
        enumerated = umco.finite_horizon_exponent_oracle(
            op.channel, policy, self.oracle_rho, self.oracle_n, 0, method="enumerate"
        )
        matrix = umco.finite_horizon_exponent_oracle(
            op.channel, policy, self.oracle_rho, self.oracle_n, 0, method="matrix"
        )
        if not math.isclose(enumerated, matrix, rel_tol=1e-9, abs_tol=1e-12):
            return _wrong(f"path enumeration {enumerated!r} != matrix method {matrix!r}")
        return OK

    def digest(self, result):
        return result


WORKLOADS = {w.name: w for w in (FbCapacity(), FiniteHorizon(), CapacityCost(), ExponentCli())}
