"""Backward dynamic programming for the finite-horizon directed-information problem.

Solves the per-stage recursions

    V_n(b) = sup_pi { stage reward }                       (terminal)
    V_t(b) = sup_pi { stage reward + E[V_{t+1}(B) | b, pi] }

for all previous-output states at once, with an optional transmission cost
s * gamma(a, b_prev) subtracted from the reward.  The terminal stage starts
cold from uniform; stage t is warm-started from stage t+1's policy as is: a
letter zeroed at t+1 rejoins at t through the solver's active set.  Also
provides the per-letter optimality-condition checker and the classifier
that decides whether the solved problem decomposes stage by stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    CostSpec,
    Distribution,
    InputPolicy,
    UnitMemoryChannel,
    _check_integer,
    _check_number,
    resolve_cost,
)
from .errors import DimensionMismatchError
from .onestage import DEFAULT_INNER_MAX_ITER, DEFAULT_INNER_TOL, letter_scores, maximize_stage_objective

# Policy mass below this counts as an unsupported letter in condition checks.
SUPPORT_EPS = 1e-9

NESTED = "nested"
NON_NESTED = "non_nested"
NON_NESTED_TIME_INVARIANT = "non_nested_time_invariant"


@dataclass(frozen=True, eq=False)
class DPSolution:
    """Value functions and per-stage policies from the backward recursion.

    values[t][b] is V_t(b) in bits and policies[t] the policy of stage t,
    for t = 0..horizon; multiplier is the cost multiplier the recursion was
    solved with (None when unconstrained), and cost_gamma the cost table,
    kept so verifiers are self-contained.
    """

    values: np.ndarray
    policies: tuple[InputPolicy, ...]
    multiplier: float | None
    inner_iterations: tuple[int, ...]
    cost_gamma: np.ndarray | None = None

    @property
    def horizon(self) -> int:
        return len(self.policies) - 1


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """violations[t, b, a] (read-only): |score - target| on the support, max(score - target, 0) off it."""

    passed: bool
    worst_violation: float
    violations: np.ndarray
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
    s * gamma(a, b_prev) for the multiplier s, which defaults to 0 and then
    reproduces the unconstrained recursion exactly.
    """
    horizon = _check_integer(horizon, "horizon", 0)
    _check_number(inner_tol, "inner_tol")
    s, gamma = resolve_cost(channel, cost, multiplier)

    values = np.zeros((horizon + 1, channel.n_states))
    policies: list[InputPolicy | None] = [None] * (horizon + 1)
    inner_iterations = [0] * (horizon + 1)
    continuation = None
    warm = None
    for t in range(horizon, -1, -1):
        sol = maximize_stage_objective(
            channel.kernel,
            continuation=continuation,
            cost_row=gamma,
            multiplier=s,
            tol=inner_tol,
            max_iter=inner_max_iter,
            initial=warm,
        )
        values[t] = sol.value
        policies[t] = InputPolicy(sol.policy)
        inner_iterations[t] = sol.slowest_iterations
        continuation = values[t]
        warm = sol.policy
    values.setflags(write=False)
    return DPSolution(
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


def _condition_report(channel, solution, policy, continuation, targets, tol, worst=None, message=""):
    """Check the per-letter conditions at every (stage, state) pair in one pass.

    policy (T, S, A), continuation (T, B) and targets (T, S) stack the
    stages; the cost penalty is the solution's.  Letter scores must equal the
    target on the policy's support and not exceed it off the support;
    ``worst`` overrides that worst violation when given.
    """
    scores = letter_scores(channel.kernel, policy, continuation, solution.cost_gamma, solution.multiplier)
    excess = scores - targets[..., None]
    violations = np.where(policy > SUPPORT_EPS, np.abs(excess), np.maximum(excess, 0.0))
    violations.setflags(write=False)
    if worst is None:
        worst = float(violations.max())
    return ConditionReport(passed=worst <= tol, worst_violation=worst, violations=violations, message=message)


def verify_optimality_conditions(
    channel: UnitMemoryChannel, solution: DPSolution, tol: float
) -> ConditionReport:
    """Check the per-letter equality/inequality conditions at every stage.

    For each (t, b_prev, a) the candidate value V_t(b_prev) must equal the
    letter score (divergence plus continuation, minus any cost penalty) on
    the support of the stage policy and dominate it off the support.
    """
    _check_number(tol, "tol")
    policy = np.stack([p.matrix for p in solution.policies])
    continuation = np.vstack((solution.values[1:], np.zeros(channel.n_states)))  # none after the last stage
    return _condition_report(channel, solution, policy, continuation, solution.values, tol)


def classify_non_nested(solution: DPSolution, tol: float) -> NestednessVerdict:
    """Decide whether the solved recursion decomposed stage by stage.

    non_nested: every V_t is constant across states (within tol).
    non_nested_time_invariant: additionally all stage policies agree.
    """
    _check_number(tol, "tol")
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
