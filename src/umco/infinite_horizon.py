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
    CostSpec, Distribution, InputPolicy, OutputKernel, UnitMemoryChannel, _check_compatible, _check_entries,
    _check_integer, _check_number, _cost_penalty, _cost_table, _fit, _float_grid, _frozen_array, _policy_average,
    induced_output_kernel, resolve_cost,
)
from .errors import ConvergenceError, ReducibleChainError, ValidationError
from .finite_dp import ConditionReport, _condition_report
from .onestage import TOL_FLOOR, letter_scores, maximize_stage_objective

# Entries above this are edges of the output-chain graph; below is treated as
# a structural zero rather than rounding noise.
EDGE_EPS = 1e-12

DEFAULT_SPAN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class InfiniteHorizonSolution:
    """Gain (bits per use), bias normalized to V(0) = 0, and the policy attaining them.

    invariant_dist and irreducible are read from output_kernel (None and False
    for a reducible chain).  gain_bracket, both solvers' certificate and required,
    is (min, max) of TV - V for one Bellman sweep T of a bias V (RVI: its last sweep;
    PI: a sweep of the returned bias), which brackets the optimal gain up to that
    sweep's inner tolerance (Odoni 1969); span_residual reads its width.  multiplier
    and cost_gamma (s and a frozen copy of the cost table) are both None or both pass
    ``channel._cost_penalty``, the verifiers' penalty rule; gain_trace keeps
    per-iteration gains (policy iteration).
    """

    gain: float
    bias: np.ndarray
    policy: InputPolicy
    output_kernel: OutputKernel
    iterations: int
    gain_bracket: tuple[float, float]
    multiplier: float | None = None
    cost_gamma: np.ndarray | None = None
    gain_trace: tuple[float, ...] = ()

    def __post_init__(self):
        states = self.output_kernel.n_states
        _fit(self.policy.matrix, "policy", (states, None), "states, inputs")
        bias = _check_entries(_fit(_frozen_array(self.bias, "bias"), "bias", (states,), "states"), "bias entries", None)
        bracket = _check_entries(_fit(self.gain_bracket, "gain bracket", (2,), "lo, hi"), "gain bracket", None).tolist()
        if bracket[0] > bracket[1]:
            raise ValidationError(f"gain bracket must be lo <= hi, got {bracket}")
        trace = _check_entries(_float_grid(self.gain_trace, "gain trace"), "gain trace entries", None)
        s, gamma, _ = _cost_penalty(self.multiplier, self.cost_gamma, self.policy.matrix.shape)
        object.__setattr__(self, "gain", _check_number(self.gain, "gain", None))
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "iterations", _check_integer(self.iterations, "iterations", 0))
        object.__setattr__(self, "gain_bracket", tuple(bracket))
        object.__setattr__(self, "multiplier", s)
        object.__setattr__(self, "cost_gamma", gamma)
        object.__setattr__(self, "gain_trace", tuple(trace.tolist()))

    @property
    def irreducible(self) -> bool:
        return is_irreducible(self.output_kernel)

    @property
    def invariant_dist(self) -> Distribution | None:
        try:  # one reachability closure, not a second one for self.irreducible
            return stationary_distribution(self.output_kernel)
        except ReducibleChainError:
            return None

    @property
    def span_residual(self) -> float:
        return self.gain_bracket[1] - self.gain_bracket[0]


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

    One linear solve of the fixed-point system with the normalization
    sum(nu) = 1, clipped at 0 and renormalized, with the rounding defect of
    the sum moved onto the largest entry.  The certificate is the residual
    max |K^T nu - nu|: above 1e-12 it raises ConvergenceError with that
    residual.
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
    nu = nu / nu.sum()
    nu[np.argmax(nu)] += 1.0 - nu.sum()
    residual = float(np.abs(matrix.T @ nu - nu).max())
    if residual > 1e-12:
        raise ConvergenceError(f"stationary distribution residual {residual:.3e} exceeds 1e-12", residual=residual)
    return Distribution(nu)


def _sweep(channel, continuation, penalty, tol, initial=None, newton_start=False):
    """One Bellman sweep: every state's stage problem solved to tol * 1e-2 (the stage solver floors it at TOL_FLOOR)."""
    return maximize_stage_objective(
        channel._prepared_kernel, continuation, penalty, tol=tol * 1e-2,
        initial=initial, _newton_start=newton_start,
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
    ``tol`` is floored at the stage solver's TOL_FLOOR (1e-14): the sweeps'
    values are certified no closer, and a span that rounds at 1e-16 would
    otherwise run out the sweeps.

    The per-state fixed point is warm-started from the previous sweep (first
    sweep: uniform, or ``initial_policy``); ``initial_value`` seeds the value
    vector, which speeds up families of nearby solves such as a multiplier
    search.  Both warm starts are passed as is: a letter another solve drove
    to zero rejoins through the solver's active set.  Both defaults reproduce
    the cold uniform start.  From an ``initial_policy``, each state it does
    not certify tries the active-set Newton ascent at the first sweep's first
    inner iteration, not its 256th.  A warm start must fit the channel by
    ``channel._fit``, and a value must be all finite numbers (ValidationError).
    """
    tol = max(_check_number(tol, "tol"), TOL_FLOOR)
    max_iter = _check_integer(max_iter, "max_iter", 1)
    s, gamma, penalty = resolve_cost(channel, cost, multiplier)
    warm = None if initial_policy is None else _check_compatible(channel, initial_policy.matrix)
    value = np.zeros(channel.n_states) if initial_value is None else initial_value
    value = _check_entries(_fit(value, "initial value", (channel.n_states,), "states"), "initial value entries", None)
    span = np.inf
    for sweep in range(1, max_iter + 1):
        sol = _sweep(channel, value, penalty, tol, warm, newton_start=sweep == 1 and initial_policy is not None)
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
    return InfiniteHorizonSolution(
        gain=0.5 * (lo + hi),
        bias=value,
        policy=policy,
        output_kernel=induced_output_kernel(channel, policy),
        iterations=sweep,
        gain_bracket=(lo, hi),
        multiplier=s,
        cost_gamma=gamma,
    )


def _policy_rewards(channel, matrix, penalty):
    """Per-state reward l(b, pi) - E[penalty | b] at a fixed policy (letters without mass count 0)."""
    return _policy_average(matrix, letter_scores(channel.kernel, matrix, penalty=penalty))


def _evaluate_policy(channel, matrix, penalty):
    """Solve J + V(b) - sum_b' K(b,b') V(b') = l(b) with V(0) pinned to 0; (J, V, the output kernel K)."""
    kernel = induced_output_kernel(channel, InputPolicy(matrix))
    _require_irreducible(
        kernel.matrix, hint="; policy iteration needs an irreducible chain (use relative_value_iteration "
        "and generalized_dp_check instead)"
    )
    system = np.eye(channel.n_states) - kernel.matrix
    system[:, 0] = 1.0
    try:
        x = np.linalg.solve(system, _policy_rewards(channel, matrix, penalty))
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

    Terminates when the improved policy moves by at most ``tol`` in sup norm; a last
    sweep of the returned bias gives the gain bracket.  A reducible induced output
    chain or a singular evaluation system at any iterate aborts with a diagnostic.
    """
    matrix = np.array(_check_compatible(channel, initial_policy.matrix))
    _check_number(tol, "tol")
    max_iter = _check_integer(max_iter, "max_iter", 1)
    s, gamma, penalty = resolve_cost(channel, cost, multiplier)
    trace: list[float] = []
    change = np.inf
    for iteration in range(1, max_iter + 1):
        gain, bias, _ = _evaluate_policy(channel, matrix, penalty)
        trace.append(gain)
        improved = _sweep(channel, bias, penalty, tol).policy
        change = float(np.abs(improved - matrix).max())
        matrix = improved
        if change <= tol:
            break
    else:
        raise ConvergenceError(
            f"policy iteration still moving by {change:.3e} after {max_iter} iterations",
            residual=change,
        )
    gain, bias, output_kernel = _evaluate_policy(channel, matrix, penalty)
    trace.append(gain)
    diff = _sweep(channel, bias, penalty, tol).value - bias
    return InfiniteHorizonSolution(
        gain=gain,
        bias=bias,
        policy=InputPolicy(matrix),
        output_kernel=output_kernel,
        iterations=iteration,
        gain_bracket=(float(diff.min()), float(diff.max())),
        multiplier=s,
        cost_gamma=gamma,
        gain_trace=tuple(trace),
    )


def verify_bellman_conditions(
    channel: UnitMemoryChannel, solution: InfiniteHorizonSolution, tol: float
) -> ConditionReport:
    """Check the stationary per-letter conditions J* + V(b) vs letter scores.

    Equality must hold on the support of the policy and inequality (score at
    most J* + V(b)) off the support, all within ``tol``.
    """
    _check_compatible(channel, solution.policy.matrix)
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
    _check_compatible(channel, solution.policy.matrix)
    _check_number(tol, "tol")
    gains = np.full(channel.n_states, solution.gain) if gain_by_state is None else gain_by_state
    gains = _check_entries(_fit(gains, "gain_by_state", (channel.n_states,), "states"), "gain_by_state entries", None)
    constant_gain = bool(np.ptp(gains) == 0.0)
    worst_drift = 0.0
    if constant_gain:
        message = "constant gain: the drift equation holds for every policy"
    else:
        worst_drift = float(np.abs((channel.kernel @ gains).max(axis=1) - gains).max())
        message = f"state-dependent gain: worst drift-equation violation {worst_drift:.3e}"
    # A checker solves ten times tighter than the solver it checks.
    penalty = _cost_penalty(solution.multiplier, solution.cost_gamma, solution.policy.matrix.shape)[2]
    optimum = _sweep(channel, solution.bias, penalty, 0.1 * tol)
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
    max_iter = _check_integer(max_iter, "max_iter", 1)
    gamma = _cost_table(gamma, (channel.n_states, channel.n_inputs))
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
