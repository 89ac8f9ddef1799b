"""Backward dynamic programming for the finite-horizon directed-information problem.

Solves the per-stage recursions

    V_n(b) = sup_pi { stage reward }                       (terminal)
    V_t(b) = sup_pi { stage reward + E[V_{t+1}(B) | b, pi] }

for all previous-output states at once, with an optional cost penalty
s * gamma(a, b_prev), one array built once by ``channel._cost_penalty``,
subtracted from every stage's reward.  Every stage tries the solver's Newton
pass at its first update, the terminal stage from uniform and stage t from
stage t+1's policy as is: a letter zeroed at t+1 rejoins at t through the
pass's active set.  Once the step V_t - V_{t+1} is flat across states, the
earlier stages form a stationary tail: they are filled from stage t, not
solved (``solve_finite_horizon`` gives the bound).  The stage policies are
one (horizon + 1, S, A) stack.  Also provides the per-letter
optimality-condition checker and the classifier that decides whether the
solved problem decomposes stage by stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    CostSpec,
    Distribution,
    UnitMemoryChannel,
    _check_compatible,
    _check_entries,
    _check_integer,
    _check_number,
    _cost_penalty,
    _fit,
    _frozen_array,
    _stochastic_array,
    resolve_cost,
)
from .onestage import DEFAULT_INNER_MAX_ITER, DEFAULT_INNER_TOL, letter_scores, maximize_stage_objective

# Policy mass below this counts as an unsupported letter in condition checks.
SUPPORT_EPS = 1e-9

NESTED = "nested"
NON_NESTED = "non_nested"
NON_NESTED_TIME_INVARIANT = "non_nested_time_invariant"


@dataclass(frozen=True, eq=False)
class DPSolution:
    """Value functions and per-stage policies from the backward recursion.

    values[t][b] is V_t(b) in bits and policies[t, b, a] = pi_t(a | b), one
    read-only (horizon + 1, S, A) stack (InputPolicy(policies[t]) wraps stage
    t), for t = 0..horizon, and inner_iterations[t] >= 0 counts stage t's slowest
    state; a count of 0 marks a stage filled by the stationary tail, not solved
    (``stationary_tail`` reads its certificate).  multiplier and cost_gamma (s
    and a frozen copy of the cost table) are both None or both pass
    ``channel._cost_penalty``, the verifiers' penalty rule.
    """

    values: np.ndarray
    policies: np.ndarray
    multiplier: float | None
    inner_iterations: tuple[int, ...]
    cost_gamma: np.ndarray | None = None

    def __post_init__(self):
        policies = _stochastic_array(self.policies, "stage policies", 3)
        values = _fit(_frozen_array(self.values, "values"), "values", policies.shape[:2], "stages, states")
        values = _check_entries(values, "values entries", None)
        counts = _fit(self.inner_iterations, "inner iterations", policies.shape[:1], "stages")
        s, gamma, _ = _cost_penalty(self.multiplier, self.cost_gamma, policies.shape[1:])
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "policies", policies)
        object.__setattr__(self, "multiplier", s)
        object.__setattr__(self, "inner_iterations", tuple(_check_integer(n, "inner iterations", 0) for n in counts))
        object.__setattr__(self, "cost_gamma", gamma)

    @property
    def horizon(self) -> int:
        return len(self.policies) - 1

    @property
    def stationary_tail(self) -> tuple[int, float] | None:
        """(k, delta): stages k, k - 1, ..., 0 were filled from solved stage k + 1, and delta is
        the span of V_{k+1} - V_{k+2} that certified them; None when no stage was filled."""
        t = next((t for t, n in enumerate(self.inner_iterations) if n), 0)  # the first solved stage
        if not 0 < t < self.horizon:
            return None
        return t - 1, float(np.ptp(self.values[t] - self.values[t + 1]))


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """violations[t, b, a] (read-only): |score - target| on the support, max(score - target, 0) off it."""

    passed: bool
    worst_violation: float
    violations: np.ndarray
    message: str = ""

    def __post_init__(self):
        object.__setattr__(self, "violations", _frozen_array(self.violations, "violations"))  # may hold +inf


@dataclass(frozen=True, eq=False)
class NestednessVerdict:
    """kind is one of 'nested', 'non_nested', 'non_nested_time_invariant'."""

    kind: str
    state_spread: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state_spread", _frozen_array(self.state_spread, "state spread"))


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

    Each stage asks the stage solver for its Newton attempt at update 1: the
    terminal stage from uniform, each earlier stage from the policy of the
    stage after it.  Near the optimum Newton converges quadratically, so a
    solved stage usually counts 1 in ``inner_iterations``.

    Stationary tail.  The stage operator T (V_t = T V_{t+1}) is monotone and
    commutes with adding a constant, T(W + c) = T(W) + c, so it does not expand
    the sup norm.  If d = V_t - V_{t+1} lies in [lo, hi], then V_t lies in
    V_{t+1} + [lo, hi], and applying T gives V_{t-1} - V_t in [lo, hi] too, and
    so on down to stage 0.  Once the span delta = hi - lo of a solved step is at
    most inner_tol / (horizon + 1), every earlier stage k is filled with
    V_k = V_{k+1} + (lo + hi) / 2, stage t's policy and a count of 0 in
    ``inner_iterations``, and the recursion stops.  Each filled step is off by
    at most delta / 2, so stage t - j is off from the recursion continued
    exactly from V_t by at most j * delta / 2 <= inner_tol / 2, and a filled
    stage's letter scores miss their targets by at most stage t's miss plus
    delta / 2 (Puterman, Markov Decision Processes, 1994, section 8.5, on span
    bounds for undiscounted value iteration; Odoni 1969).
    ``DPSolution.stationary_tail`` reports the first filled stage and delta.
    """
    horizon = _check_integer(horizon, "horizon", 0)
    _check_number(inner_tol, "inner_tol")
    inner_max_iter = _check_integer(inner_max_iter, "inner_max_iter", 1)
    s, gamma, penalty = resolve_cost(channel, cost, multiplier)

    values = np.zeros((horizon + 1, channel.n_states))
    policies = np.zeros((horizon + 1, channel.n_states, channel.n_inputs))
    counts = [0] * (horizon + 1)
    continuation = None
    warm = None
    for t in range(horizon, -1, -1):
        sol = maximize_stage_objective(
            channel._prepared_kernel, continuation, penalty, tol=inner_tol, max_iter=inner_max_iter, initial=warm,
            _newton_start=True,
        )
        values[t] = sol.value
        policies[t] = sol.policy
        counts[t] = sol.slowest_iterations
        if t < horizon:
            low, high = np.minimum.reduce(step := values[t] - values[t + 1]), np.maximum.reduce(step)
            if high - low <= inner_tol / (horizon + 1):  # the tail
                values[:t] = values[t] + np.arange(t, 0, -1)[:, None] * ((low + high) / 2)
                policies[:t] = sol.policy
                break
        continuation = values[t]
        warm = sol.policy
    return DPSolution(values=values, policies=policies, multiplier=s, inner_iterations=counts, cost_gamma=gamma)


def ftfi_capacity(solution: DPSolution, initial: Distribution) -> float:
    """Finite-horizon capacity sum_b V_0(b) * initial(b) in bits.

    When the solution carries a multiplier s, this is the penalized value;
    add s * (horizon + 1) * kappa to recover the Lagrangian of a budget kappa.
    """
    _fit(initial.weights, "initial distribution", solution.values.shape[1:], "states")
    return float(solution.values[0] @ initial.weights)


def _condition_report(channel, solution, policy, continuation, targets, tol, worst=None, message=""):
    """Check the per-letter conditions at every (stage, state) pair in one pass.

    policy (T, S, A), continuation (T, B) and targets (T, S) stack the
    stages; the cost penalty is the solution's, by ``channel._cost_penalty``.
    Letter scores must equal the target on the policy's support and not
    exceed it off the support; ``worst`` overrides that worst violation when given.
    """
    penalty = _cost_penalty(solution.multiplier, solution.cost_gamma, policy.shape[-2:])[2]
    scores = letter_scores(channel.kernel, policy, continuation, penalty)
    excess = scores - targets[..., None]
    violations = np.where(policy > SUPPORT_EPS, np.abs(excess), np.maximum(excess, 0.0))
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
    _check_compatible(channel, solution.policies[0])  # every stage policy has its shape
    _check_number(tol, "tol")
    continuation = np.vstack((solution.values[1:], np.zeros(channel.n_states)))  # none after the last stage
    return _condition_report(channel, solution, solution.policies, continuation, solution.values, tol)


def classify_non_nested(solution: DPSolution, tol: float) -> NestednessVerdict:
    """Decide whether the solved recursion decomposed stage by stage.

    non_nested: every V_t is constant across states (within tol).
    non_nested_time_invariant: additionally all stage policies agree.
    """
    _check_number(tol, "tol")
    spread = solution.values.max(axis=1) - solution.values.min(axis=1)
    if np.all(spread <= tol):
        if np.abs(solution.policies - solution.policies[0]).max() <= tol:
            return NestednessVerdict(NON_NESTED_TIME_INVARIANT, spread)
        return NestednessVerdict(NON_NESTED, spread)
    return NestednessVerdict(NESTED, spread)
