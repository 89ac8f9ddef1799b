"""Finite-horizon recursion, optimality-condition verifier, nestedness classifier."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bruteforce import dmc_capacity_grid, dp_grid_oracle
from conftest import bibo_channel, bsc_rows, bssc, embedded_dmc, random_channel
from umco import (
    ConvergenceError,
    CostSpec,
    DimensionMismatchError,
    DPSolution,
    Distribution,
    InfiniteHorizonSolution,
    InputPolicy,
    ValidationError,
    binary_entropy,
    bssc_closed_form,
    bssc_cost_function,
    BSSCParams,
    channel_from_kernel,
    classify_non_nested,
    ftfi_capacity,
    generalized_dp_check,
    induced_output_kernel,
    relative_value_iteration,
    solve_finite_horizon,
    verify_bellman_conditions,
    verify_optimality_conditions,
)
from umco.cli import dp_report
from umco.finite_dp import NESTED, NON_NESTED, NON_NESTED_TIME_INVARIANT, SUPPORT_EPS
from umco.onestage import letter_scores, maximize_stage_objective

CAP_105 = bssc_closed_form(BSSCParams(1.0, 0.5)).capacity  # = H(0.2) - 0.4


@pytest.mark.parametrize("horizon", [2.5, -1, np.nan, None, "3"], ids=repr)
def test_horizon_must_be_a_nonnegative_integer(horizon):
    with pytest.raises(ValidationError, match="horizon must be an integer"):
        solve_finite_horizon(bssc(1.0, 0.5), horizon)


def test_whole_float_horizon_is_accepted_as_int():
    solution = solve_finite_horizon(bssc(1.0, 0.5), 2.0)
    assert solution.horizon == 2 and isinstance(solution.horizon, int)


def test_bssc_horizon_four():
    solution = solve_finite_horizon(bssc(1.0, 0.5), 4)
    expected = np.array([[0.6, 0.4], [0.4, 0.6]])
    for t in range(5):
        assert np.allclose(solution.values[t], (5 - t) * CAP_105, atol=1e-3)
        assert np.abs(solution.policies[t] - expected).max() < 1e-4
    assert abs(solution.values[0, 0] - 1.6095) < 1e-3


def test_input_independent_channel_has_zero_value():
    row = np.array([0.25, 0.75])
    kernel = np.stack([np.stack([row, row]), np.stack([row[::-1], row[::-1]])])
    channel = channel_from_kernel(kernel)
    solution = solve_finite_horizon(channel, 3)
    assert np.abs(solution.values).max() <= 1e-12


def test_embedded_dmc_matches_grid_search():
    channel = embedded_dmc(bsc_rows(0.1))
    solution = solve_finite_horizon(channel, 2)
    per_stage = 1.0 - binary_entropy(0.1)
    # independent grid-search oracle for the per-stage optimum
    assert abs(dmc_capacity_grid(bsc_rows(0.1), step=0.001) - per_stage) < 1e-9
    assert np.allclose(solution.values[0], 3 * per_stage, atol=1e-3)
    assert solution.policies.shape == (3, 2, 2)
    assert np.abs(solution.policies - 0.5).max() < 1e-5


def test_ftfi_capacity_initial_distributions():
    solution = solve_finite_horizon(bssc(1.0, 0.5), 4)
    uniform = ftfi_capacity(solution, Distribution.uniform(2))
    assert abs(uniform - 5 * CAP_105) < 1e-3
    point = ftfi_capacity(solution, Distribution.point_mass(2, 0))
    assert point == solution.values[0, 0]
    with pytest.raises(DimensionMismatchError):
        ftfi_capacity(solution, Distribution.uniform(3))


def test_bibo_long_horizon_average_approaches_gain():
    channel = bibo_channel()
    solution = solve_finite_horizon(channel, 100)
    average = ftfi_capacity(solution, Distribution.uniform(2)) / 101
    assert abs(average - 0.215) < 2e-3
    gain = relative_value_iteration(channel, tol=1e-9).gain
    assert abs(average - gain) < 2e-3


def test_argument_validation():
    with pytest.raises(ValueError):
        solve_finite_horizon(bssc(0.9, 0.2), -1)
    with pytest.raises(ValueError):
        solve_finite_horizon(bssc(0.9, 0.2), 2, multiplier=0.5)  # multiplier without cost


def test_inner_nonconvergence_reports_achieved_gap():
    from umco import ConvergenceError

    with pytest.raises(ConvergenceError) as exc_info:
        solve_finite_horizon(bssc(1.0, 0.5), 1, inner_max_iter=1)
    assert exc_info.value.residual is not None
    assert exc_info.value.residual > 0.0


def test_conditions_pass_on_emitted_solutions():
    channel = bssc(1.0, 0.5)
    solution = solve_finite_horizon(channel, 4, inner_tol=1e-10)
    report = verify_optimality_conditions(channel, solution, tol=1e-9)
    assert report.passed
    assert report.worst_violation < 1e-6


def test_conditions_fail_on_perturbed_policy():
    channel = bssc(1.0, 0.5)
    solution = solve_finite_horizon(channel, 4)
    perturbed = solution.policies.copy()
    perturbed[0] = [[0.8, 0.2], [0.2, 0.8]]
    broken = DPSolution(
        values=solution.values,
        policies=perturbed,
        multiplier=solution.multiplier,
        inner_iterations=solution.inner_iterations,
        cost_gamma=solution.cost_gamma,
    )
    report = verify_optimality_conditions(channel, broken, tol=1e-6)
    assert not report.passed
    assert report.worst_violation > 1e-3


def test_conditions_pass_for_symmetric_dmc_uniform():
    channel = embedded_dmc(bsc_rows(0.1))
    solution = solve_finite_horizon(channel, 2)
    report = verify_optimality_conditions(channel, solution, tol=1e-9)
    assert report.passed


def test_conditions_pass_with_cost_multiplier():
    channel = bssc(1.0, 0.5)
    cost = CostSpec(bssc_cost_function(), 0.5)
    solution = solve_finite_horizon(channel, 3, cost=cost, multiplier=0.4)
    report = verify_optimality_conditions(channel, solution, tol=1e-9)
    assert report.passed


def test_conditions_pass_on_random_channels(rng):
    # every emitted solution satisfies its own conditions at ten times the
    # inner tolerance, including boundary-optimal instances
    for _ in range(8):
        channel = random_channel(rng)
        solution = solve_finite_horizon(channel, 2, inner_tol=1e-10)
        report = verify_optimality_conditions(channel, solution, tol=1e-9)
        assert report.passed, report.worst_violation


def test_classify_bssc_time_invariant():
    solution = solve_finite_horizon(bssc(0.95, 0.8), 4)
    verdict = classify_non_nested(solution, tol=1e-6)
    assert verdict.kind == NON_NESTED_TIME_INVARIANT
    assert verdict.state_spread.max() <= 1e-6


def test_classify_bibo_nested():
    solution = solve_finite_horizon(bibo_channel(), 4)
    verdict = classify_non_nested(solution, tol=1e-6)
    assert verdict.kind == NESTED
    assert verdict.state_spread.max() > 0.1


def test_classify_embedded_dmc_time_invariant():
    solution = solve_finite_horizon(embedded_dmc([[0.7, 0.3], [0.2, 0.8]]), 3)
    assert classify_non_nested(solution, tol=1e-6).kind == NON_NESTED_TIME_INVARIANT


def test_classify_stage_dependent_policies_non_nested():
    # Every V_t is constant across states, but the stage policies differ.
    solution = DPSolution(
        values=np.array([[2.0, 2.0], [1.0, 1.0]]),
        policies=[[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]],
        multiplier=None,
        inner_iterations=(1, 1),
    )
    verdict = classify_non_nested(solution, tol=1e-6)
    assert verdict.kind == NON_NESTED
    assert verdict.state_spread.tolist() == [0.0, 0.0]


def test_stage_objective_concave_at_every_stage(rng):
    channel = bibo_channel()
    solution = solve_finite_horizon(channel, 3)
    for t in range(4):
        continuation = solution.values[t + 1] if t < 3 else None

        def objective(row, b):
            scores = letter_scores(channel.kernel[b : b + 1], row[None], continuation=continuation)
            return float(row @ scores[0])

        for _ in range(10):
            p = rng.random(2)
            p /= p.sum()
            q = rng.random(2)
            q /= q.sum()
            t_mix = float(rng.random())
            for b in range(2):
                mixed = objective(t_mix * p + (1 - t_mix) * q, b)
                assert mixed >= t_mix * objective(p, b) + (1 - t_mix) * objective(q, b) - 1e-10


def test_value_monotone_in_horizon(rng):
    channels = [bssc(1.0, 0.5), bibo_channel(), random_channel(rng)]
    for channel in channels:
        previous = None
        for n in range(4):
            values = solve_finite_horizon(channel, n).values[0]
            if previous is not None:
                assert np.all(values >= previous - 1e-12)
            previous = values


def test_dp_matches_grid_oracle(rng):
    for _ in range(5):
        channel = random_channel(rng)
        for n in (0, 1, 2):
            solution = solve_finite_horizon(channel, n)
            oracle = dp_grid_oracle(channel.kernel, n, step=0.005)
            assert np.abs(solution.values[0] - oracle).max() < 5e-3


def test_zero_multiplier_equals_unconstrained_exactly():
    channel = bssc(0.95, 0.8)
    cost = CostSpec(bssc_cost_function(), 0.3)
    plain = solve_finite_horizon(channel, 3)
    with_cost = solve_finite_horizon(channel, 3, cost=cost, multiplier=0.0)
    assert np.array_equal(plain.values, with_cost.values)
    assert np.array_equal(plain.policies, with_cost.policies)
    assert with_cost.multiplier == 0.0


def test_terminal_values_nonnegative_without_cost(rng):
    for _ in range(5):
        solution = solve_finite_horizon(random_channel(rng), 2)
        assert np.all(solution.values[-1] >= 0.0)


def test_dp_report_mentions_stages():
    text = dp_report(solve_finite_horizon(bssc(1.0, 0.5), 2))
    assert "stage 0" in text and "stage 2" in text and "pi_1" in text


def test_raw_warm_start_revives_a_letter_zeroed_at_the_next_stage():
    # Letter 1 of state 0 is dead at stage 1, where the Newton step zeroes it
    # exactly, and carries 4% of the mass at stage 0.
    channel = channel_from_kernel([[[0.46, 0.54], [0.63, 0.37]], [[0.26, 0.74], [1.0, 0.0]]])
    solution = solve_finite_horizon(channel, 2)
    assert solution.policies[1, 0, 1] == 0.0
    assert solution.policies[0, 0, 1] > 0.04
    assert verify_optimality_conditions(channel, solution, tol=1e-9).passed
    cold = maximize_stage_objective(channel.kernel, continuation=solution.values[1])
    assert np.abs(cold.value - solution.values[0]).max() < 1e-12
    # Passed on raw, the exact-zero letter starts at the policy floor and
    # rejoins by its score: the solve reaches the cold value.
    raw = maximize_stage_objective(
        channel.kernel, continuation=solution.values[1], initial=solution.policies[1]
    )
    assert np.abs(raw.value - cold.value).max() < 1e-12
    assert raw.policy[0, 1] > 0.04


entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def sparse_channels(draw, max_states=3, max_inputs=4):
    """Small random channels whose kernel rows may hold zeros."""
    n_states = draw(st.integers(2, max_states))
    n_inputs = draw(st.integers(2, max_inputs))
    kernel = draw(hnp.arrays(float, (n_states, n_inputs, n_states), elements=entries))
    kernel[..., 0] += kernel.sum(axis=2) == 0.0  # no all-zero row
    kernel /= kernel.sum(axis=2, keepdims=True)
    return channel_from_kernel(kernel)


def _cold_recursion(channel, horizon):
    """The backward recursion with every stage started cold from uniform."""
    values = np.zeros((horizon + 1, channel.n_states))
    policies = np.zeros((horizon + 1, channel.n_states, channel.n_inputs))
    continuation = None
    for t in range(horizon, -1, -1):
        stage = maximize_stage_objective(channel.kernel, continuation=continuation)
        values[t], policies[t] = stage.value, stage.policy
        continuation = values[t]
    return DPSolution(values, policies, None, (0,) * (horizon + 1))


@given(sparse_channels(), st.integers(0, 6))
def test_warm_started_dp_equals_cold_recursion(channel, horizon):
    try:
        cold = _cold_recursion(channel, horizon)
    except ConvergenceError:
        return  # the cold start stalls: nothing to compare against
    warm = solve_finite_horizon(channel, horizon)
    assert np.abs(warm.values - cold.values).max() <= 1e-9 * (horizon + 1)
    assert classify_non_nested(warm, tol=1e-6).kind == classify_non_nested(cold, tol=1e-6).kind


def _per_state_conditions(channel, policy, continuations, targets, gamma, multiplier):
    """Violation rows, stage-major, and the worst violation from one letter_scores call per (stage, state)."""
    rows, worst = [], 0.0
    for t, continuation in enumerate(continuations):
        for b in range(channel.n_states):
            row = letter_scores(
                channel.kernel[b : b + 1],
                policy[t][b : b + 1],
                continuation=continuation,
                penalty=None if gamma is None else multiplier * gamma[b : b + 1],
            )[0]
            excess = row - targets[t][b]
            violation = np.where(policy[t][b] > SUPPORT_EPS, np.abs(excess), np.maximum(excess, 0.0))
            rows.append(violation)
            worst = max(worst, float(violation.max()))
    return rows, worst


def _assert_same_violations(report, rows, shape):
    assert report.violations.shape == shape
    assert np.abs(report.violations.reshape(len(rows), -1) - rows).max() <= 1e-12
    assert not report.violations.flags.writeable


@st.composite
def solved_problems(draw):
    channel = draw(sparse_channels())
    horizon = draw(st.integers(0, 4))
    cost = multiplier = None
    if draw(st.booleans()):
        gamma = draw(hnp.arrays(float, (channel.n_states, channel.n_inputs), elements=st.floats(0.0, 2.0)))
        cost, multiplier = CostSpec(gamma, 0.0), draw(st.floats(0.0, 2.0))
    return channel, horizon, cost, multiplier


@given(solved_problems())
def test_stacked_checker_equals_per_state_scores(problem):
    channel, horizon, cost, multiplier = problem
    try:
        solution = solve_finite_horizon(channel, horizon, cost=cost, multiplier=multiplier, inner_max_iter=20_000)
    except ConvergenceError:
        return  # slow to certify: the checker is on trial here, not the solver
    policy = solution.policies
    continuations = [*solution.values[1:], None]
    rows, worst = _per_state_conditions(
        channel, policy, continuations, solution.values, solution.cost_gamma, solution.multiplier
    )
    report = verify_optimality_conditions(channel, solution, tol=1e-8)
    _assert_same_violations(report, rows, (horizon + 1, channel.n_states, channel.n_inputs))
    assert abs(report.worst_violation - worst) <= 1e-12
    assert report.worst_violation == float(report.violations.max())

    # Shifting one stage's values breaks an equality at that stage (or, via
    # the continuation, at the stage before) by the shift.
    shift = np.zeros_like(solution.values)
    shift[horizon // 2] = 1e-3
    shifted = dataclasses.replace(solution, values=solution.values + shift)
    broken = verify_optimality_conditions(channel, shifted, tol=1e-8)
    assert not broken.passed and broken.worst_violation > 5e-4

    # The stationary checkers score a policy against a bias the same way.
    bias = solution.values[0] - solution.values[0, 0]
    stationary = InfiniteHorizonSolution(
        gain=float(solution.values[0].mean()),
        bias=bias,
        policy=InputPolicy(solution.policies[0]),
        output_kernel=induced_output_kernel(channel, InputPolicy(solution.policies[0])),
        iterations=0,
        gain_bracket=(float(solution.values[0].mean()),) * 2,
        multiplier=solution.multiplier,
        cost_gamma=solution.cost_gamma,
    )
    rows, worst = _per_state_conditions(
        channel, [policy[0]], [bias], [stationary.gain + bias], solution.cost_gamma, solution.multiplier
    )
    shape = (1, channel.n_states, channel.n_inputs)
    report = verify_bellman_conditions(channel, stationary, tol=1e-8)
    _assert_same_violations(report, rows, shape)
    assert abs(report.worst_violation - worst) <= 1e-12
    assert report.worst_violation == float(report.violations.max())
    try:
        general = generalized_dp_check(channel, stationary, tol=1e-8)
    except ConvergenceError:
        return
    _assert_same_violations(general, rows, shape)


def test_horizon_is_read_from_the_stage_policies():
    solution = solve_finite_horizon(bssc(0.9, 0.6), 4)
    assert solution.horizon == len(solution.policies) - 1 == 4
    tail = dataclasses.replace(
        solution, values=solution.values[1:], policies=solution.policies[1:], inner_iterations=solution.inner_iterations[1:]
    )
    assert tail.horizon == 3
    with pytest.raises(DimensionMismatchError):  # four stage policies cannot go with five rows of values
        dataclasses.replace(solution, policies=solution.policies[1:])
