"""Capacity-cost machinery: average cost, the multiplier search, curve properties."""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bssc, random_channel
import umco.constrained
from umco import (
    BSSCParams,
    ConstrainedResult,
    ConvergenceError,
    CostSpec,
    DimensionMismatchError,
    InfeasibleBudgetError,
    InputPolicy,
    ReducibleChainError,
    ValidationError,
    average_cost,
    bssc_constrained_closed_form,
    bssc_cost_function,
    bssc_optimal_policy,
    capacity_cost_curve,
    constrained_capacity,
    deterministic_policy,
    induced_output_kernel,
    minimum_average_cost,
    uniform_policy,
)
from umco.constrained import curve_csv

GAMMA = bssc_cost_function()
UNCONSTRAINED = 0.3219280948873623  # H(0.2) - 0.4


def test_average_cost_of_optimal_policy_is_occupancy():
    policy = InputPolicy([[0.6, 0.4], [0.4, 0.6]])
    cost = average_cost(bssc(1.0, 0.5), policy, CostSpec(GAMMA, 0.0))
    assert abs(cost - 0.6) < 1e-9


def test_average_cost_deterministic_policies():
    channel = bssc(0.9, 0.6)
    assert abs(average_cost(channel, deterministic_policy([0, 1], 2), CostSpec(GAMMA, 0.0)) - 1.0) < 1e-12
    assert abs(average_cost(channel, deterministic_policy([1, 0], 2), CostSpec(GAMMA, 0.0)) - 0.0) < 1e-12


def test_average_cost_rejects_reducible_chain():
    # noiseless diagonal: a = b_prev freezes the output at its initial value
    with pytest.raises(ReducibleChainError):
        average_cost(bssc(1.0, 0.5), deterministic_policy([0, 1], 2), CostSpec(GAMMA, 0.0))


@pytest.mark.parametrize(
    "kappa, expected",
    [
        (0.0, 0.0),
        (0.3, 0.23406796583135443),
        (0.5, 0.31127812445913283),
        (0.6, UNCONSTRAINED),
        (0.9, UNCONSTRAINED),
    ],
)
def test_constrained_capacity_matches_closed_form(kappa, expected):
    result = constrained_capacity(bssc(1.0, 0.5), CostSpec(GAMMA, kappa))
    assert abs(result.capacity - expected) < 1e-4
    assert result.capacity <= UNCONSTRAINED + 1e-9
    closed = bssc_constrained_closed_form(BSSCParams(1.0, 0.5), kappa)
    assert abs(result.capacity - closed.capacity) < 1e-4


def test_boundary_budget_binds():
    result = constrained_capacity(bssc(1.0, 0.5), CostSpec(GAMMA, 0.6))
    assert result.binding
    assert abs(result.kappa_max - 0.6) < 1e-4


def test_slack_budget_returns_unconstrained():
    result = constrained_capacity(bssc(1.0, 0.5), CostSpec(GAMMA, 0.9))
    assert not result.binding
    assert result.multiplier <= 1e-12
    assert abs(result.capacity - UNCONSTRAINED) < 1e-6


def test_capacity_cost_curve_shape():
    grid = [0.0, 0.3, 0.6, 0.9]
    results = capacity_cost_curve(bssc(1.0, 0.5), CostSpec(GAMMA, 0.0), grid)
    capacities = [r.capacity for r in results]
    expected = [0.0, 0.23406796583135443, UNCONSTRAINED, UNCONSTRAINED]
    assert np.allclose(capacities, expected, atol=1e-4)
    # nondecreasing
    assert all(b >= a - 1e-6 for a, b in zip(capacities, capacities[1:]))
    # concave chords on consecutive triples
    kappas = [r.kappa for r in results]
    for i in range(1, len(results) - 1):
        t = (kappas[i] - kappas[i - 1]) / (kappas[i + 1] - kappas[i - 1])
        chord = (1 - t) * capacities[i - 1] + t * capacities[i + 1]
        assert capacities[i] >= chord - 1e-6
    # saturation
    assert abs(capacities[3] - UNCONSTRAINED) < 1e-6
    assert not results[3].binding


def test_curve_agrees_with_closed_form_on_grid():
    kappas = np.round(np.arange(0.1, 0.95, 0.1), 10)
    results = capacity_cost_curve(bssc(1.0, 0.5), CostSpec(GAMMA, 0.0), kappas)
    for result in results:
        closed = bssc_constrained_closed_form(BSSCParams(1.0, 0.5), result.kappa)
        assert abs(result.capacity - closed.capacity) < 1e-4


def test_empty_grid():
    assert capacity_cost_curve(bssc(1.0, 0.5), CostSpec(GAMMA, 0.0), []) == []


def test_single_point_grid_at_saturation_budget():
    results = capacity_cost_curve(bssc(1.0, 0.5), CostSpec(GAMMA, 0.0), [0.6])
    assert len(results) == 1
    assert abs(results[0].capacity - UNCONSTRAINED) < 1e-6


def test_infeasible_budget_names_minimum():
    with pytest.raises(InfeasibleBudgetError) as exc_info:
        constrained_capacity(bssc(1.0, 0.5), CostSpec(np.ones((2, 2)), 0.5))
    assert abs(exc_info.value.min_cost - 1.0) < 1e-9


def test_doubling_cap_names_budget_and_cost_apart_from_the_floor():
    # A budget just inside the floor's cost tolerance passes the floor test
    # and is found infeasible only when the doubled multiplier passes the cap.
    gamma = np.array([[1.0, 0.2], [0.2, 1.0]])
    channel = bssc(0.9, 0.6)
    floor = minimum_average_cost(channel, gamma)
    kappa = floor - umco.constrained.DEFAULT_COST_TOL / 2
    with mock.patch.object(umco.constrained, "_MULTIPLIER_CAP", 8.0):
        with pytest.raises(InfeasibleBudgetError, match="at multiplier 8\\)") as exc_info:
            constrained_capacity(channel, CostSpec(gamma, kappa))
    assert str(exc_info.value).startswith("budget kappa=0.1999995 is below the minimum stationary cost ~0.2 ")
    assert exc_info.value.min_cost == floor


def test_floor_message_prints_the_budget_to_the_floor_precision():
    # At six digits this budget read 0.199999, indistinguishable from the floor's 0.2.
    gamma = np.array([[1.0, 0.2], [0.2, 1.0]])
    with pytest.raises(InfeasibleBudgetError, match="kappa=0.1999985 is below the minimum stationary cost 0.2$"):
        constrained_capacity(bssc(0.9, 0.6), CostSpec(gamma, 0.1999985))


def test_failed_unconstrained_solve_fails_every_budget_of_a_curve():
    def solve(channel, cost, s, solver_tol, warm=None):
        if s == 0.0:
            raise ConvergenceError("s = 0 stalled", residual=1.0)
        pytest.fail("only s = 0 is solved")

    with mock.patch.object(umco.constrained, "_solve_multiplier", solve):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = capacity_cost_curve(bssc(1.0, 0.5), CostSpec(GAMMA, 0.0), [0.2, 0.3, 0.4])
    assert results == []
    assert [str(w.message) for w in caught] == [f"kappa={k:g}: s = 0 stalled" for k in (0.2, 0.3, 0.4)]


def test_minimum_average_cost_binary():
    assert abs(minimum_average_cost(bssc(0.9, 0.6), GAMMA) - 0.0) < 1e-9
    assert abs(minimum_average_cost(bssc(0.9, 0.6), np.ones((2, 2))) - 1.0) < 1e-9


def _minimum_average_cost_per_state(channel, gamma, tol=1e-10, max_iter=200_000):
    """The damped minimum-cost value iteration, one state at a time."""
    value = np.zeros(channel.n_states)
    gain = 0.0
    for _ in range(max_iter):
        swept = np.array([(gamma[b] + channel.kernel[b] @ value).min() for b in range(channel.n_states)])
        diff = swept - value
        gain = float(0.5 * (diff.max() + diff.min()))
        value = 0.5 * (value + swept)
        value = value - value[0]
        if diff.max() - diff.min() <= tol:
            break
    return gain


def test_minimum_average_cost_matches_per_state_sweeps(rng):
    cases = [(bssc(a, b), GAMMA) for a, b in [(0.9, 0.6), (1.0, 0.5), (0.95, 0.8), (0.7, 0.2)]]
    for n_states, n_inputs in [(2, 2), (3, 2), (3, 4), (4, 3)]:
        cases.append((random_channel(rng, n_states, n_inputs), rng.random((n_states, n_inputs))))
    for channel, gamma in cases:
        assert abs(minimum_average_cost(channel, gamma) - _minimum_average_cost_per_state(channel, gamma)) <= 1e-12


def test_curve_skips_failing_points_with_warning():
    grid = [0.5, 1.0]
    with pytest.warns(UserWarning, match="kappa=0.5"):
        results = capacity_cost_curve(bssc(1.0, 0.5), CostSpec(np.ones((2, 2)), 0.0), grid)
    assert len(results) == 1
    assert results[0].kappa == 1.0


def test_non_monotone_dual_trace_is_a_typed_error(monkeypatch):
    # The achieved cost is about 0.6 at multiplier 0 and 0.0 at multiplier 1;
    # inflate the latter above the former.  The costs are the ones of the
    # solves constrained_capacity makes: its warm-started solve at 1 certifies
    # the same stage gap as a cold one but lands 1.1e-8 away from it in cost.
    real = umco.constrained._solve_multiplier
    bump, costs = 0.7, {}

    def skewed(channel, cost, s, solver_tol, warm=None):
        solution, costs[s] = real(channel, cost, s, solver_tol, warm=warm)
        return solution, costs[s] + (bump if s == 1.0 else 0.0)

    monkeypatch.setattr(umco.constrained, "_solve_multiplier", skewed)
    with pytest.raises(ConvergenceError, match="not monotone") as exc_info:
        constrained_capacity(bssc(1.0, 0.5), CostSpec(GAMMA, 0.5))
    assert exc_info.value.residual == pytest.approx(costs[1.0] + bump - costs[0.0], abs=1e-9)


def test_curve_lets_a_bug_propagate_instead_of_warning(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(umco.constrained, "_solve_multiplier", broken)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="not a solver failure"):
            capacity_cost_curve(bssc(1.0, 0.5), CostSpec(GAMMA, 0.0), [0.5])


def test_penalized_solves_recover_the_constrained_point():
    # at the optimal multiplier, gain + s*kappa reproduces C(kappa) for both
    # the stationary solver and the long-horizon penalized recursion
    from umco import Distribution, ftfi_capacity, relative_value_iteration, solve_finite_horizon

    channel = bssc(1.0, 0.5)
    kappa = 0.5
    result = constrained_capacity(channel, CostSpec(GAMMA, kappa))
    s_star = result.multiplier
    closed = bssc_constrained_closed_form(BSSCParams(1.0, 0.5), kappa).capacity

    stationary = relative_value_iteration(channel, cost=CostSpec(GAMMA, kappa), multiplier=s_star, tol=1e-10)
    assert abs(stationary.gain + s_star * kappa - closed) < 1e-4

    horizon = 200
    dp = solve_finite_horizon(channel, horizon, cost=CostSpec(GAMMA, kappa), multiplier=s_star)
    lagrangian = ftfi_capacity(dp, Distribution.uniform(2)) + s_star * (horizon + 1) * kappa
    assert abs(lagrangian / (horizon + 1) - closed) < 1e-4


def test_curve_csv_format():
    results = capacity_cost_curve(bssc(1.0, 0.5), CostSpec(GAMMA, 0.0), [0.6])
    text = curve_csv(results)
    lines = text.strip().splitlines()
    assert lines[0] == "kappa,capacity_bits,multiplier,achieved_cost,binding"
    assert len(lines) == 2
    assert lines[1].endswith("true")


def test_achieved_cost_reuses_the_invariant_distribution():
    channel, cost = bssc(0.9, 0.6), CostSpec(GAMMA, 0.3)
    for s in (0.0, 0.4, 1.0):
        solution, achieved = umco.constrained._solve_multiplier(channel, cost, s, 1e-10)
        assert solution.invariant_dist is not None
        assert achieved == average_cost(channel, solution.policy, cost)  # bit for bit


def test_achieved_cost_without_invariant_distribution_raises_reducible(monkeypatch):
    # A = b_prev on the noiseless BSSC freezes the output chain.
    channel = bssc(1.0, 0.5)
    solution = umco.constrained.relative_value_iteration(channel, tol=1e-10)
    policy = deterministic_policy([0, 1], 2)
    frozen = dataclasses.replace(solution, policy=policy, output_kernel=induced_output_kernel(channel, policy))
    monkeypatch.setattr(umco.constrained, "relative_value_iteration", lambda *args, **kwargs: frozen)
    with pytest.raises(ReducibleChainError) as exc_info:
        umco.constrained._solve_multiplier(channel, CostSpec(GAMMA, 0.3), 0.5, 1e-10)
    assert exc_info.value.closed_classes == ((0,), (1,))
    with pytest.raises(ReducibleChainError) as direct:
        average_cost(channel, policy, CostSpec(GAMMA, 0.3))
    assert str(direct.value) == str(exc_info.value)


STALLED_BSSC = BSSCParams(0.8275, 0.5769)


def test_curve_solves_every_point_where_a_warm_start_used_to_stall():
    # Bisection dropped every point of this curve: its first midpoint, 0.5,
    # warm-started from the solve at 1, stalls the inner solver (the letter
    # that solve leaves at ~2e-12 cannot regrow within the iteration budget).
    kappas = [0.2, 0.3, 0.4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = capacity_cost_curve(bssc(0.8275, 0.5769), CostSpec(GAMMA, 0.0), kappas)
    assert [r.kappa for r in results] == kappas
    for result in results:
        assert result.binding
        assert abs(result.capacity - bssc_constrained_closed_form(STALLED_BSSC, result.kappa).capacity) <= 1e-9


@given(
    alpha=st.floats(0.8, 0.99),
    beta=st.floats(0.6, 0.85),
    kappas=st.lists(st.floats(0.1, 0.6), min_size=3, max_size=3, unique=True).map(sorted),
)
def test_driver_properties_on_generated_bssc(alpha, beta, kappas):
    params = BSSCParams(alpha, beta)
    real = umco.constrained._solve_multiplier
    calls = []

    def counted(channel, cost, s, solver_tol, warm=None):
        calls.append(cost.kappa)
        return real(channel, cost, s, solver_tol, warm=warm)

    with mock.patch.object(umco.constrained, "_solve_multiplier", counted):
        results = capacity_cost_curve(bssc(alpha, beta), CostSpec(GAMMA, 0.0), kappas)
    assert [r.kappa for r in results] == kappas
    for result in results:
        assert abs(result.capacity - bssc_constrained_closed_form(params, result.kappa).capacity) <= 1e-6
        assert result.achieved_cost <= result.kappa + umco.constrained.DEFAULT_COST_TOL
        if result.kappa < result.kappa_max:
            assert result.binding
        assert calls.count(result.kappa) <= 7  # the most of 900 random budgets; 6 take 6
    capacities = [r.capacity for r in results]
    assert capacities[0] <= capacities[1] + 1e-9 and capacities[1] <= capacities[2] + 1e-9
    t = (kappas[1] - kappas[0]) / (kappas[2] - kappas[0])
    assert capacities[1] >= (1 - t) * capacities[0] + t * capacities[2] - 1e-9


@pytest.mark.parametrize(
    "achieved_at, jump",
    [
        (lambda s: 0.6 if s < 0.3 else 0.4, 0.3),  # step: false position sees equal |f| at both ends
        (lambda s: 0.5 + 1e-3 if s < 0.7 else 0.1, 0.7),  # flat just above the budget, then a cliff
        (lambda s: 0.6 if s == 0.0 else 0.2, 0.0),  # flat below the budget for every s > 0
    ],
)
def test_root_finder_terminates_on_flat_and_step_costs(monkeypatch, achieved_at, jump):
    # Every solve returns the same solution; only the achieved cost is shaped.
    solution, _ = umco.constrained._solve_multiplier(bssc(1.0, 0.5), CostSpec(GAMMA, 0.5), 0.0, 1e-10)
    multipliers = []

    def shaped(channel, cost, s, solver_tol, warm=None):
        multipliers.append(s)
        return solution, achieved_at(s)

    monkeypatch.setattr(umco.constrained, "_solve_multiplier", shaped)
    result = constrained_capacity(bssc(1.0, 0.5), CostSpec(GAMMA, 0.5))
    dual_tol = umco.constrained.DEFAULT_DUAL_TOL
    # The bracket closes on the jump; bisection alone needs 27 halvings of
    # [0, 1], and the midpoint fallback bounds the search by 3 steps a halving.
    assert jump <= result.multiplier <= jump + dual_tol
    assert not result.binding
    assert len(multipliers) <= 2 + 3 * 27


@pytest.mark.parametrize(
    "tolerances, message",
    [
        # A NaN width test stopped the search before its first step: C(0.3) of
        # BSSC(0.9, 0.7) read 0.3044, above the unconstrained 0.2967 (the
        # closed form is 0.2412).
        ({"dual_tol": float("nan")}, "dual_tol must be finite"),
        # The bracket of a jump in the achieved cost never closed.
        ({"dual_tol": 0.0}, "dual_tol must be positive"),
        ({"cost_tol": float("nan")}, "cost_tol must be finite"),  # was a bare TypeError
        ({"cost_tol": -1.0}, "cost_tol must be nonnegative"),  # was InfeasibleBudgetError
        ({"solver_tol": float("inf")}, "solver_tol must be finite"),
        ({"solver_tol": -1e-10}, "solver_tol must be nonnegative"),
    ],
    ids=["dual-nan", "dual-zero", "cost-nan", "cost-negative", "solver-inf", "solver-negative"],
)
def test_bad_tolerances_are_rejected_before_any_solve(monkeypatch, tolerances, message):
    multipliers, floors = _counting(monkeypatch)
    with pytest.raises(ValidationError, match=message):
        constrained_capacity(bssc(0.9, 0.7), CostSpec(GAMMA, 0.3), **tolerances)
    with pytest.raises(ValidationError, match=message):  # raised, not warned about per point
        capacity_cost_curve(bssc(0.9, 0.7), CostSpec(GAMMA, 0.0), [0.3], **tolerances)
    assert multipliers == [] and floors == []


def test_an_empty_budget_grid_does_no_solve(monkeypatch):
    # It returned [] only after one wasted s = 0 solve.
    multipliers, floors = _counting(monkeypatch)
    assert capacity_cost_curve(bssc(0.9, 0.7), CostSpec(GAMMA, 0.0), []) == []
    assert multipliers == [] and floors == []


@pytest.mark.parametrize("table", [[[1.0, 0.0]], [[1.0]]], ids=["one-row", "one-entry"])
def test_average_cost_refuses_a_table_that_does_not_fit_the_channel(table):
    # At BSSC(0.9, 0.6)'s optimum these broadcast to the costs 0.5 and 1.0.
    channel, policy = bssc(0.9, 0.6), bssc_optimal_policy(BSSCParams(0.9, 0.6))
    assert average_cost(channel, policy, CostSpec(GAMMA, 0.0)) == pytest.approx(0.5345373250522675, abs=1e-12)
    with pytest.raises(DimensionMismatchError, match=r"^cost table shape \(1, \d\) does not match \(2, 2\)"):
        average_cost(channel, policy, CostSpec(table, 0.0))


@pytest.mark.parametrize("kappas", [[0.2, 0.3], []], ids=["two-budgets", "no-budget"])
def test_the_curve_raises_for_a_table_that_does_not_fit_before_any_solve(monkeypatch, kappas):
    # It warned once per budget, with the s = 0 solve's error, and returned [].
    multipliers, floors = _counting(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError, match=r"^cost table shape \(1, 2\) does not match \(2, 2\)"):
            capacity_cost_curve(bssc(0.9, 0.6), CostSpec([[1.0, 0.0]], 0.0), kappas)
    assert multipliers == [] and floors == []


RESULT_FIELDS = dict(
    kappa=0.5, capacity=0.25, multiplier=0.125, achieved_cost=0.5, policy=uniform_policy(2, 2), binding=True
)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"kappa": float("nan")}, "kappa must be finite"),
        ({"kappa": [0.5]}, "kappa must be a single number"),
        ({"capacity": float("inf")}, "capacity must be finite"),
        ({"multiplier": -1.0}, "multiplier must be nonnegative"),
        ({"multiplier": None}, "multiplier must be finite"),
        ({"achieved_cost": "x"}, "achieved_cost must be numbers"),
        ({"policy": [[0.5, 0.5], [0.5, 0.5]]}, "policy must be an InputPolicy, got list"),
        ({"binding": 3}, "binding must be a bool, got 3"),
        ({"binding": "yes"}, "binding must be a bool"),
        ({"kappa_max": float("nan")}, "kappa_max must be finite"),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_constrained_result_rejects_each_malformed_field(changes, message):
    # Each was stored as given.
    with pytest.raises(ValidationError, match=message):
        ConstrainedResult(**{**RESULT_FIELDS, **changes})


def test_constrained_result_stores_floats_and_keeps_a_missing_kappa_max():
    result = ConstrainedResult(**{**RESULT_FIELDS, "kappa": 1, "multiplier": np.float64(0.0), "kappa_max": 2})
    assert [type(value) for value in (result.kappa, result.multiplier, result.kappa_max)] == [float] * 3
    assert (result.kappa, result.multiplier, result.kappa_max) == (1.0, 0.0, 2.0)
    assert ConstrainedResult(**RESULT_FIELDS).kappa_max is None


def _counting(monkeypatch):
    """Count the solves of the constrained module by multiplier, and its floor calls."""
    real_solve, real_floor = umco.constrained._solve_multiplier, umco.constrained.minimum_average_cost
    multipliers, floors = [], []

    def counted_solve(channel, cost, s, solver_tol, warm=None):
        multipliers.append(s)
        return real_solve(channel, cost, s, solver_tol, warm=warm)

    def counted_floor(*args, **kwargs):
        floors.append(args)
        return real_floor(*args, **kwargs)

    monkeypatch.setattr(umco.constrained, "_solve_multiplier", counted_solve)
    monkeypatch.setattr(umco.constrained, "minimum_average_cost", counted_floor)
    return multipliers, floors


def _same_point(curve_point, single, cost_tol=umco.constrained.DEFAULT_COST_TOL):
    assert curve_point.kappa == single.kappa
    assert abs(curve_point.capacity - single.capacity) <= 1e-9
    assert (curve_point.binding, curve_point.kappa_max) == (single.binding, single.kappa_max)
    if curve_point.kappa < curve_point.kappa_max:
        assert abs(curve_point.achieved_cost - curve_point.kappa) <= cost_tol


@given(
    alpha=st.floats(0.8, 0.99),
    beta=st.floats(0.6, 0.85),
    kappas=st.lists(st.floats(0.1, 0.9), min_size=3, max_size=5, unique=True),
)
def test_curve_on_one_trace_matches_single_budget_calls(alpha, beta, kappas):
    channel, cost = bssc(alpha, beta), CostSpec(GAMMA, 0.0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        multipliers, floors = _counting(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = capacity_cost_curve(channel, cost, kappas)
    assert multipliers.count(0.0) == 1
    assert len(floors) == (1 if any(r.multiplier > 0.0 for r in curve) else 0)
    for point in curve:
        _same_point(point, constrained_capacity(channel, CostSpec(GAMMA, point.kappa)))


def test_shuffled_grid_gives_the_same_points_in_request_order():
    channel, cost = bssc(0.9, 0.6), CostSpec(GAMMA, 0.0)
    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.7]
    reference = {r.kappa: r for r in capacity_cost_curve(channel, cost, grid)}
    shuffled = [0.4, 0.1, 0.7, 0.3, 0.5, 0.2, 0.4]  # a repeated budget too
    results = capacity_cost_curve(channel, cost, shuffled)
    assert [r.kappa for r in results] == shuffled
    for result in results:
        _same_point(result, reference[result.kappa])


def test_curve_solves_multiplier_zero_and_the_floor_once(monkeypatch):
    multipliers, floors = _counting(monkeypatch)
    # slack, binding, on the floor and below it
    with pytest.warns(UserWarning, match="kappa=-0.1"):
        results = capacity_cost_curve(bssc(0.9, 0.6), CostSpec(GAMMA, 0.0), [0.9, 0.3, 0.0, -0.1, 0.5])
    assert [r.kappa for r in results] == [0.9, 0.3, 0.0, 0.5]
    assert multipliers.count(0.0) == 1
    assert len(floors) == 1

    multipliers.clear()
    floors.clear()
    capacity_cost_curve(bssc(0.9, 0.6), CostSpec(GAMMA, 0.0), [0.9, 0.95, 1.0])
    assert multipliers == [0.0]
    assert floors == []  # every budget is slack


def test_a_floor_that_does_not_converge_drops_only_the_constrained_budgets(monkeypatch):
    calls = []

    def stalled(channel, gamma):
        calls.append(gamma)
        raise ConvergenceError("minimum-cost iteration did not converge", residual=1e-3)

    monkeypatch.setattr(umco.constrained, "minimum_average_cost", stalled)
    with pytest.warns(UserWarning, match="minimum-cost") as caught:
        results = capacity_cost_curve(bssc(1.0, 0.5), CostSpec(GAMMA, 0.0), [0.2, 0.9, 0.4])
    assert [r.kappa for r in results] == [0.9]
    assert len(caught) == 2
    assert len(calls) == 1
    with pytest.raises(ConvergenceError, match="minimum-cost"):
        constrained_capacity(bssc(1.0, 0.5), CostSpec(GAMMA, 0.3))


def test_minimum_average_cost_raises_when_it_does_not_converge(rng):
    channel = random_channel(rng, 3, 3)
    gamma = rng.random((3, 3))
    with pytest.raises(ConvergenceError) as exc_info:
        minimum_average_cost(channel, gamma, max_iter=3)
    assert exc_info.value.residual > 1e-10
    # the residual is the width of the last bracket, which the full run closes
    assert minimum_average_cost(channel, gamma, tol=exc_info.value.residual, max_iter=3) == pytest.approx(
        minimum_average_cost(channel, gamma), abs=exc_info.value.residual
    )


def test_readme_sweep_takes_fewer_solves_than_its_single_budget_calls(monkeypatch):
    channel, grid = bssc(1.0, 0.5), [0.05 * i for i in range(21)]  # kappa=0:1:0.05
    multipliers, _ = _counting(monkeypatch)
    singles = [constrained_capacity(channel, CostSpec(GAMMA, kappa)) for kappa in grid]
    single_solves = len(multipliers)
    multipliers.clear()
    curve = capacity_cost_curve(channel, CostSpec(GAMMA, 0.0), grid)
    assert len(multipliers) < single_solves
    for point, single in zip(curve, singles, strict=True):
        _same_point(point, single)


def test_readme_sweep_solve_count(monkeypatch):
    multipliers, _ = _counting(monkeypatch)
    capacity_cost_curve(bssc(1.0, 0.5), CostSpec(GAMMA, 0.0), [0.05 * i for i in range(21)])  # kappa=0:1:0.05
    assert len(multipliers) <= 25  # 46 with Illinois false position


@pytest.mark.parametrize("kappa", [0.1, 0.2, 0.3, 0.4, 0.5])
def test_a_smooth_cost_meets_its_budget_in_five_solves_after_the_bracket(monkeypatch, kappa):
    # Every solve returns the same solution; the achieved cost is 0.6 / (1 + s)^2.
    solution, _ = umco.constrained._solve_multiplier(bssc(1.0, 0.5), CostSpec(GAMMA, 0.5), 0.0, 1e-10)
    multipliers = []

    def smooth(channel, cost, s, solver_tol, warm=None):
        multipliers.append(s)
        return solution, 0.6 / (1.0 + s) ** 2

    monkeypatch.setattr(umco.constrained, "_solve_multiplier", smooth)
    result = constrained_capacity(bssc(1.0, 0.5), CostSpec(GAMMA, kappa))
    assert result.binding
    assert result.multiplier == pytest.approx((0.6 / kappa) ** 0.5 - 1.0, abs=1e-4)
    bracketed = 1 + next(i for i, s in enumerate(multipliers) if 0.6 / (1.0 + s) ** 2 <= kappa)
    assert len(multipliers) - bracketed <= 5  # up to 8 with Illinois false position


def test_a_budget_the_trace_already_meets_takes_no_new_solve(monkeypatch):
    channel, cost = bssc(0.9, 0.6), CostSpec(GAMMA, 0.0)
    multipliers, _ = _counting(monkeypatch)
    (first,) = capacity_cost_curve(channel, cost, [0.3])
    solves = len(multipliers)
    # Just below what the point achieved: met within cost_tol from the infeasible side.
    nearby = first.achieved_cost - 0.5 * umco.constrained.DEFAULT_COST_TOL
    multipliers.clear()
    results = capacity_cost_curve(channel, cost, [0.3, nearby])
    assert len(multipliers) == solves
    assert results[1].multiplier == first.multiplier
    assert results[1].binding


def test_a_failed_multiplier_is_solved_once_per_curve(monkeypatch):
    # Every budget of this curve reaches s = 1 first; its failure is kept on
    # the trace and re-raised for the later budgets instead of solved again.
    real = umco.constrained._solve_multiplier
    multipliers = []

    def stalls_at_one(channel, cost, s, solver_tol, warm=None):
        multipliers.append(s)
        if s == 1.0:
            raise ConvergenceError("stalled at s = 1", residual=1e-3)
        return real(channel, cost, s, solver_tol, warm=warm)

    monkeypatch.setattr(umco.constrained, "_solve_multiplier", stalls_at_one)
    with pytest.warns(UserWarning) as caught:
        results = capacity_cost_curve(bssc(0.9, 0.6), CostSpec(GAMMA, 0.0), [0.2, 0.3, 0.4])
    assert results == []
    assert multipliers == [0.0, 1.0]
    assert sorted(str(w.message) for w in caught) == [f"kappa={k}: stalled at s = 1" for k in (0.2, 0.3, 0.4)]


def test_warm_start_interpolates_strictly_inside_the_trace_and_is_nearest_outside():
    channel, cost = bssc(0.9, 0.6), CostSpec(GAMMA, 0.3)
    trace = {s: umco.constrained._solve_multiplier(channel, cost, s, 1e-10)[0] for s in (0.25, 0.75)}
    a, b = trace[0.25], trace[0.75]
    assert np.abs(a.policy.matrix - b.policy.matrix).max() > 1e-3  # distinct ends
    policy, bias = umco.constrained._warm_start(trace, 0.375)  # w = 1/4
    assert policy.matrix.tobytes() == (0.75 * a.policy.matrix + 0.25 * b.policy.matrix).tobytes()
    assert bias.tobytes() == (0.75 * a.bias + 0.25 * b.bias).tobytes()
    assert np.abs(policy.matrix.sum(axis=1) - 1.0).max() <= 1e-15 and policy.matrix.min() >= 0.0
    for s, nearest in ((0.0, a), (0.25, a), (0.75, b), (2.0, b)):
        policy, bias = umco.constrained._warm_start(trace, s)
        assert policy is nearest.policy and bias is nearest.bias


def test_each_solve_of_a_curve_is_warm_started_from_the_trace_before_it(monkeypatch):
    real = umco.constrained._solve_multiplier
    trace, calls = {}, []

    def recorded(channel, cost, s, solver_tol, warm=None):
        calls.append((s, warm, dict(trace)))
        solution, achieved = real(channel, cost, s, solver_tol, warm=warm)
        trace[s] = solution
        return solution, achieved

    monkeypatch.setattr(umco.constrained, "_solve_multiplier", recorded)
    capacity_cost_curve(bssc(0.9, 0.6), CostSpec(GAMMA, 0.0), [0.2, 0.3, 0.4])
    assert calls[0][:2] == (0.0, None)
    inside = 0
    for s, warm, before in calls[1:]:
        policy, bias = umco.constrained._warm_start(before, s)
        assert warm[0].matrix.tobytes() == policy.matrix.tobytes() and warm[1].tobytes() == bias.tobytes()
        inside += min(before) < s < max(before)
    assert inside >= 3  # the root searches run inside the trace, not only the doubling
