"""Capacity under an average transmission cost via the Lagrangian dual.

The constrained problem is solved as inf over the multiplier s >= 0 of the
infinite-horizon gain with per-stage reward penalized by s * gamma, plus
s * kappa.  The achieved stationary cost is nonincreasing in s, so a
bisection over s locates the budget; the problem is convex, so the duality
gap is solver noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .channel import CostSpec, InputPolicy, UnitMemoryChannel, induced_output_kernel
from .errors import ConvergenceError, InfeasibleBudgetError, UmcoError
from .infinite_horizon import (
    InfiniteHorizonSolution,
    minimum_average_cost,
    relative_value_iteration,
    stationary_distribution,
)

DEFAULT_DUAL_TOL = 1e-8
DEFAULT_COST_TOL = 1e-6
_MULTIPLIER_CAP = 2.0**40


@dataclass(frozen=True, eq=False)
class ConstrainedResult:
    """One point of the capacity-cost trade-off.

    binding is True when the achieved cost sits on the budget; kappa_max is
    the cost of the unconstrained optimum (the saturation point of the curve).
    """

    kappa: float
    capacity: float
    multiplier: float
    achieved_cost: float
    policy: InputPolicy
    binding: bool
    kappa_max: float | None = None


def average_cost(channel: UnitMemoryChannel, policy: InputPolicy, cost: CostSpec) -> float:
    """Stationary average cost sum_b nu(b) sum_a pi(a|b) gamma(b, a)."""
    kernel = induced_output_kernel(channel, policy)
    nu = stationary_distribution(kernel)  # raises ReducibleChainError when not unique
    per_state = (policy.matrix * cost.gamma).sum(axis=1)
    return float(nu.weights @ per_state)


def _solve_multiplier(channel, cost, s, solver_tol, warm=None):
    solution = relative_value_iteration(
        channel,
        cost=cost,
        multiplier=s,
        tol=solver_tol,
        initial_value=None if warm is None else warm.bias,
        initial_policy=None if warm is None else warm.policy,
    )
    achieved = average_cost(channel, solution.policy, cost)
    return solution, achieved


def _result(kappa, s, solution: InfiniteHorizonSolution, achieved, cost_tol, kappa_max):
    return ConstrainedResult(
        kappa=float(kappa),
        capacity=float(solution.gain + s * kappa),
        multiplier=float(s),
        achieved_cost=float(achieved),
        policy=solution.policy,
        binding=abs(achieved - kappa) <= cost_tol,
        kappa_max=kappa_max,
    )


def constrained_capacity(
    channel: UnitMemoryChannel,
    cost: CostSpec,
    dual_tol: float = DEFAULT_DUAL_TOL,
    cost_tol: float = DEFAULT_COST_TOL,
    solver_tol: float = 1e-10,
) -> ConstrainedResult:
    """Bisect the multiplier until the achieved cost meets the budget.

    Returns the unconstrained solution (multiplier 0, binding False) when the
    budget is slack, and raises InfeasibleBudgetError when no multiplier can
    push the cost down to kappa.
    """
    kappa = cost.kappa
    trace: list[tuple[float, float]] = []

    unconstrained, cost_at_zero = _solve_multiplier(channel, cost, 0.0, solver_tol)
    kappa_max = float(cost_at_zero)
    trace.append((0.0, cost_at_zero))
    if cost_at_zero <= kappa + cost_tol:
        return _result(kappa, 0.0, unconstrained, cost_at_zero, cost_tol, kappa_max)

    floor = minimum_average_cost(channel, cost.gamma)
    if kappa < floor - cost_tol:
        raise InfeasibleBudgetError(
            f"budget kappa={kappa:g} is below the minimum stationary cost {floor:.9g}",
            min_cost=floor,
        )

    s_lo = 0.0
    s_hi = 1.0
    warm = unconstrained
    feasible = None
    while True:
        solution, achieved = _solve_multiplier(channel, cost, s_hi, solver_tol, warm=warm)
        warm = solution
        trace.append((s_hi, achieved))
        if achieved <= kappa:
            feasible = (s_hi, solution, achieved)
            break
        s_lo = s_hi
        s_hi *= 2.0
        if s_hi > _MULTIPLIER_CAP:
            floor = minimum_average_cost(channel, cost.gamma)
            raise InfeasibleBudgetError(
                f"budget kappa={kappa:g} is below the minimum stationary cost "
                f"~{floor:.9g} (cost {achieved:.9g} still exceeds it at multiplier {s_lo:g})",
                min_cost=floor,
            )

    s_star, best_solution, best_cost = feasible
    if abs(best_cost - kappa) > cost_tol:
        while s_hi - s_lo > dual_tol:
            mid = 0.5 * (s_lo + s_hi)
            solution, achieved = _solve_multiplier(channel, cost, mid, solver_tol, warm=warm)
            warm = solution
            trace.append((mid, achieved))
            if abs(achieved - kappa) <= cost_tol:
                s_star, best_solution, best_cost = mid, solution, achieved
                break
            if achieved > kappa:
                s_lo = mid
            else:
                s_hi = mid
                s_star, best_solution, best_cost = mid, solution, achieved

    # The dual trace must be monotone: achieved cost nonincreasing in s.
    # Slack at the cost tolerance absorbs per-solve policy noise; genuine
    # violations of duality would show up at the budget scale.
    trace.sort(key=lambda pair: pair[0])
    costs = [c for _, c in trace]
    if not all(b <= a + cost_tol for a, b in zip(costs, costs[1:])):
        worst = max(b - a for a, b in zip(costs, costs[1:]))
        raise ConvergenceError(
            f"achieved cost not monotone in the multiplier (worst increase {worst:.3e}): {trace}",
            residual=worst,
        )
    return _result(kappa, s_star, best_solution, best_cost, cost_tol, kappa_max)


def capacity_cost_curve(
    channel: UnitMemoryChannel,
    cost: CostSpec,
    kappa_grid,
    dual_tol: float = DEFAULT_DUAL_TOL,
    cost_tol: float = DEFAULT_COST_TOL,
    solver_tol: float = 1e-10,
) -> list[ConstrainedResult]:
    """One ConstrainedResult per budget.

    A point that fails with one of the package's own errors (a stalled
    solve, an infeasible budget, a reducible chain, ...) is warned about and
    skipped; any other exception is a bug and propagates.
    """
    results = []
    for kappa in kappa_grid:
        point = CostSpec(cost.gamma, float(kappa))
        try:
            results.append(
                constrained_capacity(channel, point, dual_tol=dual_tol, cost_tol=cost_tol, solver_tol=solver_tol)
            )
        except UmcoError as exc:  # record and keep sweeping
            warnings.warn(f"kappa={kappa:g}: {exc}")
    return results


def curve_csv(results) -> str:
    """CSV of the capacity-cost curve (capacity in bits, rest dimensionless)."""
    lines = ["kappa,capacity_bits,multiplier,achieved_cost,binding"]
    for r in results:
        lines.append(
            f"{r.kappa!r},{r.capacity!r},{r.multiplier!r},{r.achieved_cost!r},{str(r.binding).lower()}"
        )
    return "\n".join(lines) + "\n"
