"""Backward dynamic programming for the finite-horizon directed-information problem.

Solves the per-stage recursions

    V_n(b) = sup_pi { stage reward }                       (terminal)
    V_t(b) = sup_pi { stage reward + E[V_{t+1}(B) | b, pi] }

independently for each previous-output state, with an optional transmission
cost s * gamma(a, b_prev) subtracted from the reward.  Also provides the
per-letter optimality-condition verifier and the classifier that decides
whether the solved problem decomposes stage by stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CostSpec, Distribution, InputPolicy, UnitMemoryChannel
from .errors import DimensionMismatchError
from .onestage import (
    DEFAULT_INNER_MAX_ITER,
    DEFAULT_INNER_TOL,
    letter_scores,
    maximize_stage_objective,
)

# Policy mass below this counts as an unsupported letter in condition checks.
SUPPORT_EPS = 1e-9

NESTED = "nested"
NON_NESTED = "non_nested"
NON_NESTED_TIME_INVARIANT = "non_nested_time_invariant"


@dataclass(frozen=True, eq=False)
class DPSolution:
    """Value functions and per-stage policies from the backward recursion.

    values[t][b] is V_t(b) in bits for t = 0..horizon; multiplier is the cost
    multiplier the recursion was solved with (None when unconstrained), and
    cost_gamma the cost table, kept so verifiers are self-contained.
    """

    horizon: int
    values: np.ndarray
    policies: tuple[InputPolicy, ...]
    multiplier: float | None
    inner_iterations: tuple[int, ...]
    cost_gamma: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class StateCheck:
    """Condition-check record for one (stage, state) pair."""

    stage: int | None
    state: int
    value: float
    scores: np.ndarray
    on_support: np.ndarray


@dataclass(frozen=True, eq=False)
class ConditionReport:
    passed: bool
    worst_violation: float
    per_state: tuple[StateCheck, ...]
    message: str = ""


@dataclass(frozen=True, eq=False)
class NestednessVerdict:
    """kind is one of 'nested', 'non_nested', 'non_nested_time_invariant'."""

    kind: str
    state_spread: np.ndarray


def solve_finite_horizon(
    channel: UnitMemoryChannel,
    horizon: int,
    cost: CostSpec | None = None,
    multiplier: float | None = None,
    inner_tol: float = DEFAULT_INNER_TOL,
    inner_max_iter: int = DEFAULT_INNER_MAX_ITER,
) -> DPSolution:
    """Run the backward recursion over ``horizon + 1`` stages.

    With ``cost`` given, the per-stage reward is penalized by
    multiplier * gamma(a, b_prev); multiplier defaults to 0 in that case,
    which reproduces the unconstrained recursion exactly.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if multiplier is not None and cost is None:
        raise ValueError("a multiplier requires a cost specification")
    if multiplier is not None and multiplier < 0.0:
        raise ValueError("multiplier must be nonnegative")
    s = None
    gamma = None
    if cost is not None:
        if cost.gamma.shape != (channel.n_states, channel.n_inputs):
            raise DimensionMismatchError(
                f"cost shape {cost.gamma.shape} does not match channel "
                f"({channel.n_states} states, {channel.n_inputs} inputs)"
            )
        s = float(multiplier) if multiplier is not None else 0.0
        gamma = cost.gamma

    values = np.zeros((horizon + 1, channel.n_states))
    policies: list[InputPolicy | None] = [None] * (horizon + 1)
    inner_iterations = [0] * (horizon + 1)
    continuation = None
    for t in range(horizon, -1, -1):
        sol = maximize_stage_objective(
            channel.kernel,
            continuation=continuation,
            cost_row=gamma,
            multiplier=s or 0.0,
            tol=inner_tol,
            max_iter=inner_max_iter,
        )
        values[t] = sol.value
        policies[t] = InputPolicy(sol.policy, stage=t)
        inner_iterations[t] = sol.slowest_iterations
        continuation = values[t]
    values.setflags(write=False)
    return DPSolution(
        horizon=horizon,
        values=values,
        policies=tuple(policies),
        multiplier=s,
        inner_iterations=tuple(inner_iterations),
        cost_gamma=gamma,
    )


def ftfi_capacity(solution: DPSolution, initial: Distribution) -> float:
    """Finite-horizon capacity sum_b V_0(b) * initial(b) in bits.

    When the solution carries a multiplier s, this is the penalized value;
    add s * (horizon + 1) * kappa to recover the Lagrangian of a budget kappa.
    """
    if initial.weights.shape[0] != solution.values.shape[1]:
        raise DimensionMismatchError(
            f"initial distribution has {initial.weights.shape[0]} states, "
            f"solution has {solution.values.shape[1]}"
        )
    return float(solution.values[0] @ initial.weights)


def verify_optimality_conditions(
    channel: UnitMemoryChannel, solution: DPSolution, tol: float
) -> ConditionReport:
    """Check the per-letter equality/inequality conditions at every stage.

    For each (t, b_prev, a) the candidate value V_t(b_prev) must equal the
    letter score (divergence plus continuation, minus any cost penalty) on
    the support of the stage policy and dominate it off the support.
    """
    checks = []
    worst = 0.0
    for t in range(solution.horizon + 1):
        continuation = solution.values[t + 1] if t < solution.horizon else None
        policy = solution.policies[t].matrix
        for b in range(channel.n_states):
            scores = letter_scores(
                channel.kernel[b],
                policy[b],
                continuation=continuation,
                cost_row=solution.cost_gamma[b] if solution.cost_gamma is not None else None,
                multiplier=solution.multiplier or 0.0,
            )
            value = float(solution.values[t, b])
            on_support = policy[b] > SUPPORT_EPS
            violation = np.where(on_support, np.abs(scores - value), np.maximum(scores - value, 0.0))
            worst = max(worst, float(violation.max()))
            checks.append(StateCheck(t, b, value, scores, on_support))
    return ConditionReport(passed=worst <= tol, worst_violation=worst, per_state=tuple(checks))


def classify_non_nested(solution: DPSolution, tol: float) -> NestednessVerdict:
    """Decide whether the solved recursion decomposed stage by stage.

    non_nested: every V_t is constant across states (within tol).
    non_nested_time_invariant: additionally all stage policies agree.
    """
    spread = solution.values.max(axis=1) - solution.values.min(axis=1)
    spread.setflags(write=False)
    if np.all(spread <= tol):
        reference = solution.policies[0].matrix
        deviation = max(
            float(np.abs(p.matrix - reference).max()) for p in solution.policies
        )
        if deviation <= tol:
            return NestednessVerdict(NON_NESTED_TIME_INVARIANT, spread)
        return NestednessVerdict(NON_NESTED, spread)
    return NestednessVerdict(NESTED, spread)


def dp_report(solution: DPSolution) -> str:
    """Human-readable per-stage table of values and policies."""
    lines = [f"horizon n = {solution.horizon}"]
    if solution.multiplier is not None:
        lines.append(f"cost multiplier s = {solution.multiplier:.10g}")
    for t in range(solution.horizon + 1):
        vals = "  ".join(f"V_{t}({b})={v:.9f}" for b, v in enumerate(solution.values[t]))
        lines.append(f"stage {t}: {vals}")
        for b, row in enumerate(solution.policies[t].matrix):
            lines.append(f"  pi_{t}(.|{b}) = [{', '.join(f'{x:.9f}' for x in row)}]")
    return "\n".join(lines)
