"""Finite-horizon recursion, optimality-condition verifier, nestedness classifier."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bruteforce import dmc_capacity_grid, dp_grid_oracle
from conftest import bibo_channel, bsc_rows, bssc, embedded_dmc, random_channel
from perron_census import noisy_permutation_channel
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
from umco.onestage import DEFAULT_INNER_TOL, letter_scores, maximize_stage_objective

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


def test_inner_nonconvergence_reports_achieved_gap(monkeypatch):
    from umco import ConvergenceError

    # A Newton attempt without steps cannot certify the first update.
    monkeypatch.setattr("umco.onestage._NEWTON_STEPS", 0)
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
    plain = solve_finite_horizon(channel, 5)
    for multiplier in (0.0, None):  # a cost without a multiplier means s = 0
        with_cost = solve_finite_horizon(channel, 5, cost=cost, multiplier=multiplier)
        assert plain.values.tobytes() == with_cost.values.tobytes()
        assert plain.policies.tobytes() == with_cost.policies.tobytes()
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


def _full_recursion(channel, horizon, cost=None, multiplier=None, warm_start=True):
    """The backward recursion with every stage solved, each warm-started from the stage after it or cold.

    Warm, each stage tries Newton at its first update, as ``solve_finite_horizon`` does; cold, each
    stage runs the fixed point alone from uniform, the tie-breaker among optimal policies.
    """
    gamma = None if cost is None else np.asarray(cost.gamma, dtype=float)
    penalty = None if gamma is None or not multiplier else multiplier * gamma
    values = np.zeros((horizon + 1, channel.n_states))
    policies = np.zeros((horizon + 1, channel.n_states, channel.n_inputs))
    counts = [0] * (horizon + 1)
    continuation = warm = None
    for t in range(horizon, -1, -1):
        stage = maximize_stage_objective(channel.kernel, continuation, penalty, initial=warm, _newton_start=warm_start)
        values[t], policies[t], counts[t] = stage.value, stage.policy, stage.slowest_iterations
        continuation, warm = values[t], stage.policy if warm_start else None
    return DPSolution(values, policies, multiplier, counts, gamma)


@given(sparse_channels(), st.integers(0, 6))
def test_warm_started_dp_equals_cold_recursion(channel, horizon):
    try:
        cold = _full_recursion(channel, horizon, warm_start=False)
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


def _assert_tail_certificate(solution):
    """stationary_tail is None, or (k, delta) with stages 0..k filled, the rest solved and delta in the bound."""
    tail = solution.stationary_tail
    counts = np.array(solution.inner_iterations)
    if tail is None:
        assert np.all(counts > 0)
        return
    first_filled, delta = tail
    assert np.all(counts[: first_filled + 1] == 0) and np.all(counts[first_filled + 1 :] > 0)
    assert 0.0 <= delta <= DEFAULT_INNER_TOL / (solution.horizon + 1)
    assert delta == np.ptp(solution.values[first_filled + 1] - solution.values[first_filled + 2])


@pytest.mark.parametrize("with_cost", [False, True], ids=["no-cost", "cost"])
@pytest.mark.parametrize("kind", ["noisy-permutation", "full-support"])
def test_stationary_tail_matches_the_full_recursion(kind, with_cost):
    rng = np.random.default_rng(32)
    fired = 0
    for _ in range(6):
        n_states = int(rng.integers(2, 5))
        if kind == "noisy-permutation":
            channel = noisy_permutation_channel(rng, n_states)
        else:
            channel = random_channel(rng, n_states, int(rng.integers(2, 5)))
        horizon = int(rng.integers(10, 31))
        cost = multiplier = None
        if with_cost:
            cost = CostSpec(rng.random((channel.n_states, channel.n_inputs)), 0.0)
            multiplier = float(rng.uniform(0.1, 2.0))
        tail = solve_finite_horizon(channel, horizon, cost=cost, multiplier=multiplier)
        full = _full_recursion(channel, horizon, cost, multiplier)
        _assert_tail_certificate(tail)
        fired += tail.stationary_tail is not None
        assert np.abs(tail.values - full.values).max() <= (horizon + 1) * DEFAULT_INNER_TOL
        reference = verify_optimality_conditions(channel, full, tol=1e-8)
        report = verify_optimality_conditions(channel, tail, tol=1e-8)
        assert reference.passed and report.passed
        # A filled stage misses its targets by at most the last solved stage's miss plus delta / 2.
        assert report.worst_violation <= reference.worst_violation + DEFAULT_INNER_TOL
        assert classify_non_nested(tail, tol=1e-6).kind == classify_non_nested(full, tol=1e-6).kind
    assert fired  # the tail was exercised, not only the full recursion


@pytest.mark.parametrize("multiplier", [None, 0.5])
@pytest.mark.parametrize("horizon", [2, 10, 30])
@pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (0.9, 0.6), (0.95, 0.8)])
def test_bssc_solves_only_the_last_two_stages(alpha, beta, horizon, multiplier):
    params = BSSCParams(alpha, beta)
    cost = None if multiplier is None else CostSpec(bssc_cost_function(), 0.0)
    solution = solve_finite_horizon(bssc(alpha, beta), horizon, cost=cost, multiplier=multiplier)
    counts = solution.inner_iterations
    assert all(n == 0 for n in counts[:-2]) and all(n > 0 for n in counts[-2:])
    _assert_tail_certificate(solution)
    assert solution.stationary_tail[0] == horizon - 2
    if multiplier is None:
        stages = horizon + 1
        assert np.abs(solution.values[0] - stages * bssc_closed_form(params).capacity).max() <= 1e-9 * stages
    else:
        full = _full_recursion(bssc(alpha, beta), horizon, cost, multiplier)
        assert np.abs(solution.values - full.values).max() <= (horizon + 1) * DEFAULT_INNER_TOL


@pytest.mark.parametrize("horizon", [0, 1])
@pytest.mark.parametrize("channel", [bssc(1.0, 0.5), bibo_channel()], ids=["bssc", "bibo"])
def test_short_horizons_solve_every_stage(channel, horizon):
    solution = solve_finite_horizon(channel, horizon)
    assert len(solution.inner_iterations) == horizon + 1
    assert all(n > 0 for n in solution.inner_iterations)
    assert solution.stationary_tail is None


@pytest.mark.parametrize("n_states", [2, 3, 4, 5])
def test_every_solved_stage_of_a_noisy_permutation_dp_takes_one_update(n_states):
    # Each stage's Newton attempt at update 1 certifies every state: the
    # terminal stage from uniform, each earlier one from the stage after it.
    channel = noisy_permutation_channel(np.random.default_rng(n_states), n_states)
    for horizon in (10, 30):
        counts = solve_finite_horizon(channel, horizon).inner_iterations
        assert counts[-1] == 1 and {n for n in counts if n} == {1}


def test_a_step_that_never_flattens_solves_every_stage_as_the_full_recursion():
    # State 0 is absorbing and earns nothing; state 1 earns a positive amount
    # each stage, so V_t(1) - V_{t+1}(1) stays positive while state 0's step is 0.
    channel = channel_from_kernel([[[1.0, 0.0], [1.0, 0.0]], [[0.9, 0.1], [0.1, 0.9]]])
    solution = solve_finite_horizon(channel, 20)
    full = _full_recursion(channel, 20)
    assert solution.stationary_tail is None
    assert solution.values.tobytes() == full.values.tobytes()
    assert solution.policies.tobytes() == full.policies.tobytes()
    assert solution.inner_iterations == full.inner_iterations


def test_stationary_tail_reads_none_on_records_without_a_solved_step():
    policies = np.full((3, 2, 2), 0.5)
    for counts in [(0, 0, 0), (4, 4, 4), (0, 0, 4)]:
        record = DPSolution(np.zeros((3, 2)), policies, None, counts)
        assert record.stationary_tail is None
    record = DPSolution(np.array([[3.0, 3.5], [2.0, 2.25], [1.0, 1.0]]), policies, None, (0, 4, 4))
    assert record.stationary_tail == (0, 0.25)
