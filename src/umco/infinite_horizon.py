"""Average-reward solvers for feedback capacity of unit-memory channels.

Two routes to the gain/bias pair (J*, V) solving

    J* + V(b) = sup_pi { stage reward(b, pi) + sum_b' V(b') P_pi(b' | b) }:

relative value iteration (span-seminorm stopping, works without structural
assumptions) and policy iteration (evaluation by a dense linear solve plus
per-state improvement, requires the induced output chain to stay
irreducible).  Stationary distributions, irreducibility and the closed
classes of a reducible chain, and the Bellman / generalized-equation
verifiers live here too.  All chain structure comes from one boolean
reachability closure by repeated squaring, which the exponent module uses as
well; the text reports of a solution are in the cli module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    _FLOAT_MAX,
    CostSpec,
    Distribution,
    InputPolicy,
    OutputKernel,
    UnitMemoryChannel,
    _check_compatible,
    _check_entries,
    _check_number,
    _float_array,
    _policy_average,
    induced_output_kernel,
    resolve_cost,
)
from .errors import ConvergenceError, DimensionMismatchError, ReducibleChainError
from .finite_dp import ConditionReport, _condition_report
from .onestage import letter_scores, maximize_stage_objective

# Entries above this are edges of the output-chain graph; below is treated as
# a structural zero rather than rounding noise.
EDGE_EPS = 1e-12

DEFAULT_SPAN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class InfiniteHorizonSolution:
    """Gain (bits per use), bias normalized to V(0) = 0, and the policy attaining them.

    invariant_dist is None when the output chain is reducible (irreducible
    reads False).  multiplier/cost_gamma record the cost penalty the solve
    used (None when unconstrained) so verifiers can replay it; gain_trace keeps
    per-iteration gains (policy iteration); gain_bracket keeps the span bounds
    (min, max) of the last sweep of relative value iteration, which bracket
    the optimal gain up to that solve's inner tolerance, and span_residual
    reads its width; bellman_residual is the sup-norm residual of the Bellman
    equation at the returned gain and bias (policy iteration only).
    """

    gain: float
    bias: np.ndarray
    policy: InputPolicy
    output_kernel: OutputKernel
    invariant_dist: Distribution | None
    iterations: int
    multiplier: float | None = None
    cost_gamma: np.ndarray | None = None
    gain_trace: tuple[float, ...] = ()
    gain_bracket: tuple[float, float] | None = None
    bellman_residual: float | None = None

    @property
    def irreducible(self) -> bool:
        return self.invariant_dist is not None

    @property
    def span_residual(self) -> float | None:
        return None if self.gain_bracket is None else self.gain_bracket[1] - self.gain_bracket[0]


def _reach(matrix) -> np.ndarray:
    """Reflexive transitive closure of the edges above EDGE_EPS, by boolean squaring (Warshall 1962).

    Works on one matrix (n, n) or a stack (k, n, n): reach[..., i, j] is True
    when j can be reached from i.  Squaring ceil(log2 n) times covers every
    path of up to n - 1 steps.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[-1]
    reach = (matrix > EDGE_EPS) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    return reach


def _require_irreducible(matrix: np.ndarray, hint: str = "") -> None:
    """Raise ReducibleChainError with the closed communicating classes unless the chain is irreducible.

    A class is a row of reach & reach^T; it is closed when its states reach
    nothing outside it (Puterman 1994, section 8.3).  Classes are listed by
    their smallest member.
    """
    reach = _reach(matrix)
    if reach.all():
        return
    same = reach & reach.T
    closed = ~(reach & ~same).any(axis=1)
    classes = [np.flatnonzero(same[i]).tolist() for i in range(len(same)) if closed[i] and same[i].argmax() == i]
    raise ReducibleChainError(
        f"output chain is reducible; closed communicating classes: {classes}{hint}", closed_classes=classes
    )


def is_irreducible(kernel: OutputKernel) -> bool:
    """True iff the graph of transitions above EDGE_EPS is strongly connected."""
    return bool(_reach(kernel.matrix).all())


def stationary_distribution(kernel: OutputKernel) -> Distribution:
    """Unique invariant distribution of an irreducible output chain.

    Solved as the linear fixed-point system with the normalization
    sum(nu) = 1; refined until the residual is at most 1e-12.
    """
    matrix = kernel.matrix
    _require_irreducible(matrix)
    n = matrix.shape[0]
    system = matrix.T - np.eye(n)
    system[n - 1, :] = 1.0
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    nu = np.linalg.solve(system, rhs)
    nu = np.clip(nu, 0.0, None)
    for _ in range(64):
        nu = nu / nu.sum()
        defect = 1.0 - nu.sum()
        if defect != 0.0:
            nu[np.argmax(nu)] += defect
        residual = float(np.abs(matrix.T @ nu - nu).max())
        if residual <= 1e-12:
            return Distribution(nu)
        nu = matrix.T @ nu
    raise ConvergenceError(
        f"stationary distribution residual stalled at {residual:.3e}", residual=residual
    )


def relative_value_iteration(
    channel: UnitMemoryChannel,
    cost: CostSpec | None = None,
    multiplier: float | None = None,
    tol: float = DEFAULT_SPAN_TOL,
    max_iter: int = 100_000,
    initial_value=None,
    initial_policy: InputPolicy | None = None,
) -> InfiniteHorizonSolution:
    """Iterate the one-stage operator, subtracting a reference value each sweep.

    Stops when the span seminorm of successive differences drops below
    ``tol``; the gain is the midpoint of the span bounds, which bracket the
    true average reward.  Non-convergence raises ConvergenceError with the
    final span (the convergence assumptions may fail for such a channel).

    The per-state fixed point is warm-started from the previous sweep (first
    sweep: uniform, or ``initial_policy``); ``initial_value`` seeds the value
    vector, which speeds up families of nearby solves such as a multiplier
    search.  Both warm starts are passed as is: a letter another solve drove
    to zero rejoins through the solver's active set.  Both defaults reproduce
    the cold uniform start.  From an ``initial_policy``, each state it does
    not certify tries the active-set Newton ascent at the first sweep's first
    inner iteration, not its 256th.  A warm start of the wrong shape raises
    DimensionMismatchError, and a value that is not all finite numbers ValidationError.
    """
    _check_number(tol, "tol")
    s, gamma = resolve_cost(channel, cost, multiplier)
    if initial_policy is not None:
        _check_compatible(channel, initial_policy.matrix)
    inner_tol = max(tol * 1e-2, 1e-12)
    value = np.zeros(channel.n_states) if initial_value is None else _float_array(initial_value, "initial value")
    if value.shape != (channel.n_states,):
        raise DimensionMismatchError(f"initial value shape {value.shape} does not match {channel.n_states} states")
    _check_entries(value, "initial value entries", -_FLOAT_MAX)
    warm = None if initial_policy is None else initial_policy.matrix
    span = np.inf
    for sweep in range(1, max_iter + 1):
        sol = maximize_stage_objective(
            channel.kernel,
            continuation=value,
            cost_row=gamma,
            multiplier=s,
            tol=inner_tol,
            initial=warm,
            _newton_start=sweep == 1 and initial_policy is not None,
        )
        swept, warm = sol.value, sol.policy
        diff = swept - value
        lo, hi = float(diff.min()), float(diff.max())
        span = hi - lo
        value = swept - swept[0]
        if span <= tol:
            break
    else:
        raise ConvergenceError(
            f"relative value iteration span stalled at {span:.3e} after {max_iter} sweeps "
            f"(tol {tol:g}); the channel may violate the convergence assumptions",
            residual=span,
        )
    policy = InputPolicy(warm)
    output_kernel = induced_output_kernel(channel, policy)
    return InfiniteHorizonSolution(
        gain=0.5 * (lo + hi),
        bias=value,
        policy=policy,
        output_kernel=output_kernel,
        invariant_dist=stationary_distribution(output_kernel) if is_irreducible(output_kernel) else None,
        iterations=sweep,
        multiplier=s,
        cost_gamma=gamma,
        gain_bracket=(lo, hi),
    )


def _policy_rewards(channel, matrix, gamma, s):
    """Per-state reward l(b, pi) - s * E[gamma | b] at a fixed policy (letters without mass count 0)."""
    return _policy_average(matrix, letter_scores(channel.kernel, matrix, cost_row=gamma, multiplier=s))


def _evaluate_policy(channel, matrix, gamma, s):
    """Solve J + V(b) - sum_b' K(b,b') V(b') = l(b) with V(0) pinned to 0; (J, V, the output kernel K)."""
    kernel = induced_output_kernel(channel, InputPolicy(matrix))
    _require_irreducible(
        kernel.matrix, hint="; policy iteration needs an irreducible chain (use relative_value_iteration "
        "and generalized_dp_check instead)"
    )
    system = np.eye(channel.n_states) - kernel.matrix
    system[:, 0] = 1.0
    try:
        x = np.linalg.solve(system, _policy_rewards(channel, matrix, gamma, s))
    except np.linalg.LinAlgError as exc:
        raise ReducibleChainError(
            "policy evaluation system is singular; use relative_value_iteration "
            "and generalized_dp_check instead"
        ) from exc
    gain = float(x[0])
    bias = np.concatenate(([0.0], x[1:]))
    return gain, bias, kernel


def policy_iteration(
    channel: UnitMemoryChannel,
    initial_policy: InputPolicy,
    cost: CostSpec | None = None,
    multiplier: float | None = None,
    tol: float = DEFAULT_SPAN_TOL,
    max_iter: int = 10_000,
) -> InfiniteHorizonSolution:
    """Alternate exact policy evaluation with per-state concave improvement.

    Terminates when the improved policy moves by at most ``tol`` in sup norm.
    Every iterate's induced output chain must be irreducible; a reducible
    chain or singular evaluation system aborts with a diagnostic.
    """
    _check_compatible(channel, initial_policy.matrix)
    _check_number(tol, "tol")
    s, gamma = resolve_cost(channel, cost, multiplier)
    inner_tol = max(tol * 1e-2, 1e-14)
    matrix = np.array(initial_policy.matrix)
    trace: list[float] = []
    change = np.inf
    for iteration in range(1, max_iter + 1):
        gain, bias, _ = _evaluate_policy(channel, matrix, gamma, s)
        trace.append(gain)
        improved = maximize_stage_objective(
            channel.kernel, continuation=bias, cost_row=gamma, multiplier=s, tol=inner_tol
        ).policy
        change = float(np.abs(improved - matrix).max())
        matrix = improved
        if change <= tol:
            break
    else:
        raise ConvergenceError(
            f"policy iteration still moving by {change:.3e} after {max_iter} iterations",
            residual=change,
        )
    gain, bias, output_kernel = _evaluate_policy(channel, matrix, gamma, s)
    trace.append(gain)
    # Residual of the Bellman equation at the returned pair.
    optimum = maximize_stage_objective(
        channel.kernel, continuation=bias, cost_row=gamma, multiplier=s, tol=inner_tol
    )
    residual = np.abs(optimum.value - gain - bias).max()
    return InfiniteHorizonSolution(
        gain=gain,
        bias=bias,
        policy=InputPolicy(matrix),
        output_kernel=output_kernel,
        invariant_dist=stationary_distribution(output_kernel),
        iterations=iteration,
        multiplier=s,
        cost_gamma=gamma,
        gain_trace=tuple(trace),
        bellman_residual=float(residual),
    )


def verify_bellman_conditions(
    channel: UnitMemoryChannel, solution: InfiniteHorizonSolution, tol: float
) -> ConditionReport:
    """Check the stationary per-letter conditions J* + V(b) vs letter scores.

    Equality must hold on the support of the policy and inequality (score at
    most J* + V(b)) off the support, all within ``tol``.
    """
    _check_number(tol, "tol")
    policy, bias = solution.policy.matrix[None], solution.bias[None]
    return _condition_report(channel, solution, policy, bias, solution.gain + bias, tol)


def generalized_dp_check(
    channel: UnitMemoryChannel,
    solution: InfiniteHorizonSolution,
    tol: float,
    gain_by_state=None,
) -> ConditionReport:
    """Check the two-equation system that also covers reducible output chains.

    (1) the gain function must be invariant under the best linear drift,
        J(b) = max_a sum_b' J(b') P(b' | b, a);
    (2) the bias equation J(b) + V(b) = sup_pi {reward + E V} must hold.

    ``gain_by_state`` overrides the constant gain of an irreducible solution
    with a per-state gain function; for a constant gain equation (1) holds
    for every policy and the report says so.  worst_violation is the larger
    of the two equations' residuals; violations holds the per-letter
    conditions of the solution's policy against J(b) + V(b).
    """
    _check_number(tol, "tol")
    if gain_by_state is None:
        gains = np.full(channel.n_states, solution.gain)
        constant_gain = True
    else:
        gains = _check_entries(gain_by_state, "gain_by_state entries", -_FLOAT_MAX)
        if gains.shape != (channel.n_states,):
            raise DimensionMismatchError(f"gain_by_state shape {gains.shape} does not match {channel.n_states} states")
        constant_gain = bool(np.ptp(gains) == 0.0)
    worst_drift = 0.0
    if constant_gain:
        message = "constant gain: the drift equation holds for every policy"
    else:
        worst_drift = float(np.abs((channel.kernel @ gains).max(axis=1) - gains).max())
        message = f"state-dependent gain: worst drift-equation violation {worst_drift:.3e}"
    optimum = maximize_stage_objective(
        channel.kernel,
        continuation=solution.bias,
        cost_row=solution.cost_gamma,
        multiplier=solution.multiplier,
        tol=max(tol * 1e-3, 1e-14),
    )
    targets = gains + solution.bias
    worst = max(worst_drift, float(np.abs(optimum.value - targets).max()))
    policy, bias = solution.policy.matrix[None], solution.bias[None]
    return _condition_report(channel, solution, policy, bias, targets[None], tol, worst=worst, message=message)


def minimum_average_cost(
    channel: UnitMemoryChannel, gamma: np.ndarray, tol: float = 1e-10, max_iter: int = 200_000
) -> float:
    """Smallest stationary average cost any input policy can achieve.

    Value iteration on the cost-minimizing control problem; the per-state
    optimization is linear in the policy, so the minimum sits at a single
    letter.  The sweep is damped (factor 1/2) to keep periodic deterministic
    chains from oscillating; min/max of the undamped difference bracket the
    optimal average cost at every sweep.  Raises ConvergenceError (residual:
    the last bracket width) when max_iter sweeps do not close it to tol.
    """
    _check_number(tol, "tol")
    _, gamma = resolve_cost(channel, CostSpec(gamma, 0.0), None)
    value = np.zeros(channel.n_states)
    span = np.inf
    for _ in range(max_iter):
        swept = (gamma + channel.kernel @ value).min(axis=1)
        diff = swept - value
        span = float(diff.max() - diff.min())
        value = 0.5 * (value + swept)
        value = value - value[0]
        if span <= tol:
            return float(0.5 * (diff.max() + diff.min()))
    raise ConvergenceError(f"minimum-cost iteration did not converge (bracket width {span:.3e})", residual=span)
