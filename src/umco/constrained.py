"""Capacity under an average transmission cost via the Lagrangian dual.

The constrained problem is solved as inf over the multiplier s >= 0 of the
infinite-horizon gain with per-stage reward penalized by s * gamma, plus
s * kappa.  The achieved stationary cost is nonincreasing in s, so a
root-finder on s -> achieved cost - kappa locates the budget: inverse
interpolation on the solves made so far, safeguarded by bisection (Brent
1973, ch. 4).  The problem is convex, so the duality gap is solver noise.

A solve at s is a point of the curve whichever budget asked for it (Everett
1963), so a curve's budgets share one dual trace s -> (achieved cost,
solution): the s = 0 solve and the cost floor run once per curve, each
budget takes a trace point that meets it or starts from the trace's tightest
bracket, and the nodes of its interpolation are the trace points nearest it
in cost, whichever budget solved them.  The optimal policy and bias move
smoothly with s between the breakpoints of the curve, so a solve strictly
between two trace points starts from the linear interpolation of their
solutions in s, and any other solve (the doubling phase) from the nearest
trace point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .channel import (
    CostSpec, Distribution, InputPolicy, UnitMemoryChannel, _check_number, _csv, _float_grid, induced_output_kernel
)
from .errors import ConvergenceError, InfeasibleBudgetError, UmcoError, ValidationError
from .infinite_horizon import (
    InfiniteHorizonSolution,
    minimum_average_cost,
    relative_value_iteration,
    stationary_distribution,
)

DEFAULT_DUAL_TOL = 1e-8
DEFAULT_COST_TOL = 1e-6
_MULTIPLIER_CAP = 2.0**40
_INTERPOLATION_NODES = 4  # 2 or 3 nodes took 164 solves on the capacity-cost pool, 4 took 140, 5 took 145


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
    return _stationary_cost(nu, policy, cost)


def _stationary_cost(nu: Distribution, policy: InputPolicy, cost: CostSpec) -> float:
    per_state = (policy.matrix * cost.gamma).sum(axis=1)
    return float(nu.weights @ per_state)


def _solve_multiplier(channel, cost, s, solver_tol, warm=None):
    """RVI at multiplier s, warm-started from a (policy, bias) pair, and its achieved cost."""
    policy, bias = (None, None) if warm is None else warm
    solution = relative_value_iteration(
        channel, cost=cost, multiplier=s, tol=solver_tol, initial_value=bias, initial_policy=policy
    )
    # RVI already holds the invariant distribution of its policy's output
    # chain; without one (a reducible chain) average_cost raises the error.
    if solution.invariant_dist is None:
        achieved = average_cost(channel, solution.policy, cost)
    else:
        achieved = _stationary_cost(solution.invariant_dist, solution.policy, cost)
    return solution, achieved


def _warm_start(trace, s):
    """The (policy, bias) pair to start the solve at s from, given the trace's solutions by multiplier.

    Strictly between two trace points s_a < s < s_b it is their convex
    combination with weight w = (s - s_a) / (s_b - s_a) on s_b; otherwise it
    is the solution at the nearest trace point.
    """
    below, above = [t for t in trace if t < s], [t for t in trace if t > s]
    if not below or not above:
        nearest = trace[min(trace, key=lambda t: abs(t - s))]
        return nearest.policy, nearest.bias
    s_a, s_b = max(below), min(above)
    w = (s - s_a) / (s_b - s_a)
    a, b = trace[s_a], trace[s_b]
    return InputPolicy((1.0 - w) * a.policy.matrix + w * b.policy.matrix), (1.0 - w) * a.bias + w * b.bias


def _inverse_interpolation(trace, kappa, cost_tol):
    """The multiplier at cost kappa of the Lagrange polynomial s(c) through trace points.

    The nodes are the _INTERPOLATION_NODES trace points nearest kappa in
    achieved cost; a point whose cost lies within cost_tol of a nearer node is
    skipped, so no weight divides by a near-zero cost difference.  This is
    Brent's (1973, ch. 4) inverse interpolation; the caller guards it by
    bisection.
    """
    nodes = []
    for t in sorted(trace, key=lambda t: abs(trace[t][0] - kappa)):
        c = trace[t][0]
        if all(abs(c - other) > cost_tol for other, _ in nodes):
            nodes.append((c, t))
            if len(nodes) == _INTERPOLATION_NODES:
                break
    s = 0.0
    for i, (c_i, t_i) in enumerate(nodes):
        weight = 1.0
        for j, (c_j, _) in enumerate(nodes):
            if j != i:
                weight *= (kappa - c_j) / (c_i - c_j)
        s += weight * t_i
    return s


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


def _solve_budgets(channel, cost, kappas, dual_tol, cost_tol, solver_tol) -> list:
    """Solve the budgets on one dual trace s -> (achieved cost, solution).

    Returns a ConstrainedResult or the UmcoError it failed with per budget;
    a tolerance that is not finite and nonnegative, or a dual_tol of 0 (the
    bracket of a jump in the achieved cost would never close), raises
    ValidationError for all of them.
    """
    for value, what in ((dual_tol, "dual_tol"), (cost_tol, "cost_tol"), (solver_tol, "solver_tol")):
        _check_number(value, what)
    if dual_tol == 0.0:
        raise ValidationError("dual_tol must be positive")
    try:
        unconstrained, kappa_max = _solve_multiplier(channel, cost, 0.0, solver_tol)
    except UmcoError as exc:
        return [exc] * len(kappas)
    trace = {0.0: (kappa_max, unconstrained)}
    try:  # the one cost floor of the curve, needed only below kappa_max
        floor = minimum_average_cost(channel, cost.gamma) if any(kappa_max > k + cost_tol for k in kappas) else None
    except ConvergenceError as exc:
        floor = exc

    failed = {}  # s -> the UmcoError its solve raised, re-raised instead of solved again

    def solve(point, s):
        if s in failed:
            raise failed[s]
        warm = _warm_start({t: solution for t, (_, solution) in trace.items()}, s)
        try:
            solution, achieved = _solve_multiplier(channel, point, s, solver_tol, warm=warm)
        except UmcoError as exc:
            failed[s] = exc
            raise
        trace[s] = (achieved, solution)
        return achieved - point.kappa

    def root(point):
        kappa = point.kappa
        feasible = [s for s in trace if trace[s][0] <= kappa]
        if feasible:  # the tightest bracket of the trace
            s_hi = min(feasible)
            s_lo = max(s for s in trace if s < s_hi and trace[s][0] > kappa)  # s = 0 qualifies
        else:  # double until feasible
            s_lo = max(trace)
            s_hi = max(1.0, 2.0 * s_lo)
            while solve(point, s_hi) > 0.0:
                s_lo, s_hi = s_hi, 2.0 * s_hi
                if s_hi > _MULTIPLIER_CAP:
                    raise InfeasibleBudgetError(
                        f"budget kappa={kappa:g} is below the minimum stationary cost ~{floor:.9g} "
                        f"(cost {trace[s_lo][0]:.9g} still exceeds it at multiplier {s_lo:g})", min_cost=floor,
                    )

        # The bracket keeps f(s_lo) > 0 >= f(s_hi); s_hi is the best feasible point.
        widths = [s_hi - s_lo]
        while abs(trace[s_hi][0] - kappa) > cost_tol and s_hi - s_lo > dual_tol:
            s = _inverse_interpolation(trace, kappa, cost_tol)
            # A step that lands just short of the root barely shrinks the
            # bracket and the next one usually crosses it, so the midpoint
            # waits until three steps have not halved the bracket.
            if not s_lo < s < s_hi or (len(widths) > 3 and widths[-1] > 0.5 * widths[-4]):
                s = 0.5 * (s_lo + s_hi)
            f = solve(point, s)
            if abs(f) <= cost_tol:
                return s
            if f > 0.0:
                s_lo = s
            else:
                s_hi = s
            widths.append(s_hi - s_lo)
        return s_hi

    def budget(kappa):
        point = CostSpec(cost.gamma, kappa)
        if kappa_max <= kappa + cost_tol:
            return _result(kappa, 0.0, unconstrained, kappa_max, cost_tol, kappa_max)
        if isinstance(floor, ConvergenceError):
            raise floor
        if kappa < floor - cost_tol:
            raise InfeasibleBudgetError(
                f"budget kappa={kappa:g} is below the minimum stationary cost {floor:.9g}", min_cost=floor
            )
        s_star = min(trace, key=lambda s: abs(trace[s][0] - kappa))  # met by the trace already?
        if abs(trace[s_star][0] - kappa) > cost_tol:
            s_star = root(point)
        # The dual trace must be monotone: achieved cost nonincreasing in s.
        # Slack at the cost tolerance absorbs per-solve policy noise; genuine
        # violations of duality would show up at the budget scale.
        points = sorted((s, achieved) for s, (achieved, _) in trace.items())
        increases = [b - a for (_, a), (_, b) in zip(points, points[1:])]
        if not all(increase <= cost_tol for increase in increases):  # a NaN fails too
            worst = max(increases)
            raise ConvergenceError(
                f"achieved cost not monotone in the multiplier (worst increase {worst:.3e}): {points}",
                residual=worst,
            )
        achieved, solution = trace[s_star]
        return _result(kappa, s_star, solution, achieved, cost_tol, kappa_max)

    outcomes = [None] * len(kappas)
    # Largest first; a NaN budget (not equal to itself) goes last, so it cannot reorder the rest.
    for i in sorted(range(len(kappas)), key=lambda i: (kappas[i] == kappas[i], kappas[i]), reverse=True):
        try:
            outcomes[i] = budget(kappas[i])
        except UmcoError as exc:  # this budget fails; the trace serves the rest
            outcomes[i] = exc
    return outcomes


def constrained_capacity(
    channel: UnitMemoryChannel,
    cost: CostSpec,
    dual_tol: float = DEFAULT_DUAL_TOL,
    cost_tol: float = DEFAULT_COST_TOL,
    solver_tol: float = 1e-10,
) -> ConstrainedResult:
    """Find the multiplier at which the achieved cost meets the budget.

    The multiplier is bracketed by doubling from 1, then located by inverse
    interpolation on f(s) = achieved cost - kappa: the next multiplier is the
    Lagrange polynomial s(c) through the four solves nearest kappa in
    achieved cost, evaluated at c = kappa (a solve whose cost lies within
    cost_tol of a nearer one is left out).  The step falls back to the
    midpoint when that point is not strictly inside the bracket or the
    bracket did not halve over the last three steps.  It stops once
    |f| <= cost_tol or the bracket is narrower than dual_tol.  dual_tol must
    be finite and positive, cost_tol and solver_tol finite and nonnegative;
    ValidationError otherwise.  A solve strictly between two earlier solves
    is warm-started from the convex combination of their policies and biases,
    weighted by where s falls between them; any other solve from the solve
    nearest in s.  This is a curve of one budget (see capacity_cost_curve).

    Returns the unconstrained solution (multiplier 0, binding False) when the
    budget is slack, and raises InfeasibleBudgetError when no multiplier can
    push the cost down to kappa.
    """
    (outcome,) = _solve_budgets(channel, cost, [cost.kappa], dual_tol, cost_tol, solver_tol)
    if isinstance(outcome, UmcoError):
        raise outcome
    return outcome


def capacity_cost_curve(
    channel: UnitMemoryChannel,
    cost: CostSpec,
    kappa_grid,
    dual_tol: float = DEFAULT_DUAL_TOL,
    cost_tol: float = DEFAULT_COST_TOL,
    solver_tol: float = 1e-10,
) -> list[ConstrainedResult]:
    """One ConstrainedResult per budget, in the order of kappa_grid.

    The budgets share one dual trace and are solved from the largest down.  A
    point that fails with one of the package's own errors (a stalled solve,
    an infeasible budget, a reducible chain, ...) is warned about and
    skipped; any other exception is a bug and propagates.
    """
    kappas = _float_grid(kappa_grid, "kappa grid").tolist()
    results = []
    for kappa, outcome in zip(kappas, _solve_budgets(channel, cost, kappas, dual_tol, cost_tol, solver_tol)):
        if isinstance(outcome, UmcoError):  # record and keep sweeping
            warnings.warn(f"kappa={kappa:g}: {outcome}")
        else:
            results.append(outcome)
    return results


def curve_csv(results) -> str:
    """CSV of the capacity-cost curve (capacity in bits, rest dimensionless)."""
    rows = ([r.kappa, r.capacity, r.multiplier, r.achieved_cost, r.binding] for r in results)
    return _csv(["kappa", "capacity_bits", "multiplier", "achieved_cost", "binding"], rows)
