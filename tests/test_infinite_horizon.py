"""Average-reward solvers, stationary distributions, Bellman-condition verifiers."""

import dataclasses
from collections import deque
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import bibo_channel, bsc_rows, bssc, embedded_dmc
import umco.bssc
import umco.finite_dp
import umco.infinite_horizon
import umco.onestage
from umco import (
    BSSCParams,
    ConvergenceError,
    CostSpec,
    DimensionMismatchError,
    Distribution,
    InfiniteHorizonSolution,
    InputPolicy,
    OutputKernel,
    ReducibleChainError,
    ValidationError,
    bssc_closed_form,
    bssc_channel,
    bssc_cost_function,
    bssc_nofeedback_markov,
    bssc_optimal_policy,
    channel_from_kernel,
    classify_non_nested,
    deterministic_policy,
    generalized_dp_check,
    induced_output_kernel,
    is_irreducible,
    minimum_average_cost,
    policy_iteration,
    relative_value_iteration,
    solve_finite_horizon,
    stage_reward,
    stationary_distribution,
    uniform_policy,
    verify_bellman_conditions,
    verify_nofb_induces_fb,
    verify_optimality_conditions,
)
from sparse_stress import sparse_random_channel
from umco.cli import solution_csv, solution_report
from umco.infinite_horizon import EDGE_EPS, _policy_rewards


@pytest.mark.parametrize(
    "solve",
    [
        lambda channel, **kw: relative_value_iteration(channel, **kw),
        lambda channel, **kw: policy_iteration(channel, uniform_policy(2, 2), **kw),
        lambda channel, **kw: solve_finite_horizon(channel, 3, **kw),
    ],
    ids=["rvi", "policy-iteration", "finite-horizon"],
)
@pytest.mark.parametrize(
    "multiplier, message",
    [
        (-1.0, "multiplier must be nonnegative"),
        (float("nan"), "multiplier must be finite"),
        (float("inf"), "multiplier must be finite"),
        ("x", "multiplier must be numbers"),
    ],
    ids=["-1.0", "nan", "inf", "x"],
)
def test_every_solver_rejects_a_negative_or_nan_multiplier(solve, multiplier, message):
    # A negative multiplier rewards cost: RVI and PI once returned a "gain"
    # of 1.0009 bits from a binary input here.  An infinite one ran RVI into
    # a singular-matrix LinAlgError, and text raised a bare TypeError.
    cost = CostSpec(bssc_cost_function(), 0.0)
    with pytest.raises(ValidationError, match=message):
        solve(bssc(0.9, 0.6), cost=cost, multiplier=multiplier)


TOLERANCE_SOLVERS = pytest.mark.parametrize(
    "solve",
    [
        lambda channel, tol: relative_value_iteration(channel, tol=tol),
        lambda channel, tol: policy_iteration(channel, uniform_policy(2, 2), tol=tol),
        lambda channel, tol: solve_finite_horizon(channel, 3, inner_tol=tol),
    ],
    ids=["rvi", "policy-iteration", "finite-horizon"],
)


BAD_TOLERANCES = pytest.mark.parametrize(
    "tol", [float("nan"), -1e-9, float("inf")], ids=["nan", "negative", "inf"]
)


@TOLERANCE_SOLVERS
@BAD_TOLERANCES
def test_every_solver_rejects_a_bad_tolerance_before_any_stage_solve(monkeypatch, solve, tol):
    # A NaN tolerance passes no stopping test: RVI ran its 100k sweeps before
    # a ConvergenceError, and a negative one failed only after max_iter.
    def stage(*args, **kwargs):
        raise AssertionError("a stage was solved")

    for module in (umco.infinite_horizon, umco.finite_dp):
        monkeypatch.setattr(module, "maximize_stage_objective", stage)
    with pytest.raises(ValidationError, match="tol must be"):
        solve(bssc(0.9, 0.6), tol)


@TOLERANCE_SOLVERS
def test_a_zero_tolerance_stays_legal(solve):
    solve(bssc(0.9, 0.6), 0.0)


NOFB_PARAMS = BSSCParams(0.9, 0.6)

# Each entry solves what its checker needs and returns the checker as a
# function of tol alone, so the test can forbid every later stage solve.
TOLERANCE_CHECKERS = pytest.mark.parametrize(
    "prepare",
    [
        lambda channel: partial(verify_optimality_conditions, channel, solve_finite_horizon(channel, 3)),
        lambda channel: partial(verify_bellman_conditions, channel, relative_value_iteration(channel)),
        lambda channel: partial(generalized_dp_check, channel, relative_value_iteration(channel)),
        lambda channel: partial(classify_non_nested, solve_finite_horizon(channel, 3)),
        lambda channel: partial(
            verify_nofb_induces_fb,
            channel,
            bssc_nofeedback_markov(NOFB_PARAMS, bssc_closed_form(NOFB_PARAMS).nu),
            bssc_optimal_policy(NOFB_PARAMS),
            Distribution.uniform(2),
            10,
        ),
        lambda channel: partial(minimum_average_cost, channel, bssc_cost_function()),
    ],
    ids=["optimality", "bellman", "generalized", "classifier", "nofb", "minimum-cost"],
)


@TOLERANCE_CHECKERS
@BAD_TOLERANCES
def test_every_checker_rejects_a_bad_tolerance_before_any_stage_solve(monkeypatch, prepare, tol):
    # A NaN tolerance failed every comparison: the checkers reported a failed
    # check (or NESTED), generalized_dp_check handed the stage solver a NaN
    # inner tolerance, and minimum_average_cost ran its 200,000 sweeps before
    # a ConvergenceError.
    check = prepare(bssc(0.9, 0.6))

    def evaluate(*args, **kwargs):
        raise AssertionError("a stage was solved or scored")

    monkeypatch.setattr(umco.infinite_horizon, "maximize_stage_objective", evaluate)
    monkeypatch.setattr(umco.finite_dp, "letter_scores", evaluate)
    monkeypatch.setattr(umco.bssc, "nofb_induction_deviations", evaluate)
    with pytest.raises(ValidationError, match="tol must be"):
        check(tol=tol)


@TOLERANCE_CHECKERS
def test_a_zero_checker_tolerance_stays_legal(prepare):
    prepare(bssc(0.9, 0.6))(tol=0.0)


def test_rvi_bssc_best_worst():
    solution = relative_value_iteration(bssc(1.0, 0.5), tol=1e-10)
    assert abs(solution.gain - 0.3219) < 1e-4
    assert np.abs(solution.bias).max() < 1e-9
    assert np.abs(solution.policy.matrix - [[0.6, 0.4], [0.4, 0.6]]).max() < 1e-4
    assert solution.irreducible
    assert solution.span_residual <= 1e-10


def test_rvi_bibo():
    solution = relative_value_iteration(bibo_channel(), tol=1e-9)
    assert abs(solution.gain - 0.215) < 1e-3


def test_rvi_input_independent_channel():
    row = np.array([0.3, 0.7])
    kernel = np.stack([np.stack([row, row]), np.stack([row, row])])
    solution = relative_value_iteration(channel_from_kernel(kernel))
    assert abs(solution.gain) <= 1e-12
    assert np.abs(solution.bias).max() <= 1e-9


def test_rvi_nonconvergence_reports_span():
    with pytest.raises(ConvergenceError) as exc_info:
        relative_value_iteration(bibo_channel(), max_iter=1)
    assert exc_info.value.residual is not None


def test_policy_iteration_bibo():
    solution = policy_iteration(bibo_channel(), uniform_policy(2, 2))
    assert abs(solution.gain - 0.215) < 1e-3
    assert abs(solution.policy.matrix[0, 0] - 0.626) < 2e-3
    assert abs(solution.policy.matrix[1, 1] - 0.67) < 2e-3
    gains = np.array(solution.gain_trace)
    assert np.all(np.diff(gains) >= -1e-12)  # monotone improvement


def test_policy_iteration_bssc():
    solution = policy_iteration(bssc(1.0, 0.5), uniform_policy(2, 2))
    assert abs(solution.gain - 0.3219) < 1e-4
    assert np.abs(solution.policy.matrix - [[0.6, 0.4], [0.4, 0.6]]).max() < 1e-4


def test_policy_iteration_symmetric_dmc_fixed_after_one_improvement():
    solution = policy_iteration(embedded_dmc(bsc_rows(0.1)), uniform_policy(2, 2))
    assert solution.iterations == 1
    assert np.abs(solution.policy.matrix - 0.5).max() < 1e-9


def test_policy_iteration_rejects_an_initial_policy_of_another_shape():
    with pytest.raises(DimensionMismatchError, match="does not match channel"):
        policy_iteration(bssc(1.0, 0.5), uniform_policy(3, 2))


def _no_stage_solve(monkeypatch):
    def stage(*args, **kwargs):
        raise AssertionError("a stage was solved")

    monkeypatch.setattr(umco.infinite_horizon, "maximize_stage_objective", stage)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rvi_rejects_a_non_finite_initial_value_before_any_sweep(monkeypatch, bad):
    # Passed on, it made a RuntimeWarning and then a singular-matrix LinAlgError.
    _no_stage_solve(monkeypatch)
    with pytest.raises(ValidationError, match="initial value entries must be finite"):
        relative_value_iteration(bssc(0.9, 0.6), initial_value=[bad, 0.0])


@pytest.mark.parametrize("value", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]], ids=["short", "long", "matrix"])
def test_rvi_rejects_an_initial_value_of_another_shape_before_any_sweep(monkeypatch, value):
    _no_stage_solve(monkeypatch)
    with pytest.raises(DimensionMismatchError, match="does not match 2 states"):
        relative_value_iteration(bssc(0.9, 0.6), initial_value=value)


def test_rvi_rejects_an_initial_policy_of_another_shape_before_any_sweep(monkeypatch):
    _no_stage_solve(monkeypatch)
    with pytest.raises(DimensionMismatchError, match="does not match channel"):
        relative_value_iteration(bssc(0.9, 0.6), initial_policy=uniform_policy(3, 2))


def test_policy_iteration_rejects_reducible_start():
    # a = b_prev on the noiseless state makes the output chain the identity
    with pytest.raises(ReducibleChainError) as exc_info:
        policy_iteration(bssc(1.0, 0.5), deterministic_policy([0, 1], 2))
    assert "relative_value_iteration" in str(exc_info.value)


def test_rvi_and_policy_iteration_agree():
    channels = [bssc(1.0, 0.5), bssc(0.95, 0.8), bibo_channel()]
    for channel in channels:
        rvi = relative_value_iteration(channel, tol=1e-10)
        pi = policy_iteration(channel, uniform_policy(2, 2), tol=1e-10)
        assert abs(rvi.gain - pi.gain) < 1e-6


def test_three_state_channel_solvers_agree(rng):
    kernel = rng.random((3, 2, 3)) + 0.05
    kernel /= kernel.sum(axis=2, keepdims=True)
    channel = channel_from_kernel(kernel)
    rvi = relative_value_iteration(channel, tol=1e-10)
    pi = policy_iteration(channel, uniform_policy(3, 2), tol=1e-10)
    assert abs(rvi.gain - pi.gain) < 1e-6
    assert verify_bellman_conditions(channel, rvi, tol=1e-8).passed
    assert verify_bellman_conditions(channel, pi, tol=1e-8).passed
    # Each solver reports its own certificate under its own name.
    assert rvi.bellman_residual is None and 0.0 <= rvi.span_residual <= 1e-10
    assert pi.span_residual is None and 0.0 <= pi.bellman_residual <= 1e-8


def test_larger_alphabets_stay_consistent(rng):
    # a few wider instances: solvers agree, conditions hold, gain = nu . l
    for n_states, n_inputs in ((4, 3), (5, 2), (3, 4)):
        kernel = rng.random((n_states, n_inputs, n_states)) + 0.02
        kernel /= kernel.sum(axis=2, keepdims=True)
        channel = channel_from_kernel(kernel)
        rvi = relative_value_iteration(channel, tol=1e-9)
        pi = policy_iteration(channel, uniform_policy(n_states, n_inputs), tol=1e-9)
        assert abs(rvi.gain - pi.gain) < 1e-6
        assert verify_bellman_conditions(channel, pi, tol=1e-8).passed
        nu = pi.invariant_dist.weights
        rewards = np.array([stage_reward(channel, pi.policy, b) for b in range(n_states)])
        assert abs(pi.gain - float(nu @ rewards)) < 1e-9


@st.composite
def positive_channels(draw):
    """A channel with row-normalised rng.random + 0.01 kernel rows, S and A in {2, 3, 4}.

    Kernels come from a drawn seed, not from hnp.arrays: that strategy
    favours repeated entries, hence nearly input-independent rows, on which
    the inner Blahut-Arimoto solver stalls even at tolerance 1e-8.
    """
    n_states, n_inputs = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = rng.random((n_states, n_inputs, n_states)) + 0.01
    return channel_from_kernel(kernel / kernel.sum(axis=2, keepdims=True))


@settings(max_examples=15)
@given(positive_channels())
def test_policy_iteration_gain_lies_in_the_rvi_gain_bracket(channel):
    # At the default span tolerance (inner tolerance 1e-11) the inner solver
    # stalls on some of these channels, so both solvers run at 1e-6.
    tol = 1e-6
    rvi = relative_value_iteration(channel, tol=tol)
    pi = policy_iteration(channel, uniform_policy(channel.n_states, channel.n_inputs), tol=tol)
    lo, hi = rvi.gain_bracket
    assert rvi.gain == 0.5 * (lo + hi) and rvi.span_residual == hi - lo
    # The sweep's values are within RVI's inner tolerance of the exact operator.
    inner_tol = max(tol * 1e-2, 1e-12)
    assert lo - inner_tol <= pi.gain <= hi + inner_tol
    assert pi.gain_bracket is None


@settings(max_examples=15)
@given(positive_channels(), st.integers(0, 30))
def test_finite_horizon_value_tracks_horizon_times_gain(channel, n):
    # T is monotone and commutes with constants, so for the exact pair (J, h)
    # (n+1) J + h - max h <= V_0 = T^(n+1) 0 <= (n+1) J + h - min h, hence
    # |V_0 - (n+1) J| <= span(h); the slack covers RVI's tolerance on J over
    # n + 1 stages and the DP's inner tolerance.
    rvi = relative_value_iteration(channel, tol=1e-6)
    values = solve_finite_horizon(channel, n, inner_tol=1e-8).values[0]
    assert np.abs(values - (n + 1) * rvi.gain).max() <= np.ptp(rvi.bias) + (n + 2) * 1e-6


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_bssc_closed_form_equals_rvi_gain_off_the_singular_line(alpha, beta):
    assume(abs(alpha + beta - 1.0) >= 0.05)
    params = BSSCParams(alpha, beta)
    gain = relative_value_iteration(bssc_channel(params), tol=1e-9).gain
    assert abs(bssc_closed_form(params).capacity - gain) <= 1e-9


def test_stationary_distribution_values():
    doubly = OutputKernel([[0.8, 0.2], [0.2, 0.8]])
    assert np.allclose(stationary_distribution(doubly).weights, [0.5, 0.5], atol=1e-12)
    skewed = OutputKernel([[0.9, 0.1], [0.3, 0.7]])
    assert np.allclose(stationary_distribution(skewed).weights, [0.75, 0.25], atol=1e-12)


def test_stationary_distribution_exact_sum_and_residual(rng):
    for _ in range(10):
        matrix = rng.random((4, 4)) + 0.05
        matrix /= matrix.sum(axis=1, keepdims=True)
        kernel = OutputKernel(matrix)
        nu = stationary_distribution(kernel).weights
        assert float(nu.sum()) == 1.0
        assert np.abs(matrix.T @ nu - nu).max() <= 1e-12


def test_stationary_distribution_rejects_reducible():
    with pytest.raises(ReducibleChainError) as exc_info:
        stationary_distribution(OutputKernel(np.eye(2)))
    assert len(exc_info.value.closed_classes) == 2


def test_closed_classes_exclude_transient_states():
    # state 0 drains into the {1, 2} class and is not closed
    kernel = OutputKernel([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    with pytest.raises(ReducibleChainError) as exc_info:
        stationary_distribution(kernel)
    assert exc_info.value.closed_classes == ((1, 2),)


def test_is_irreducible():
    assert is_irreducible(OutputKernel([[0.5, 0.5], [0.5, 0.5]]))
    assert not is_irreducible(OutputKernel(np.eye(2)))
    assert not is_irreducible(OutputKernel([[0.5, 0.5], [0.0, 1.0]]))  # state 1 absorbing


@st.composite
def sparse_chains(draw):
    """A stochastic matrix on 1-8 states.

    Some rows have a single edge, others a few; entries of 1e-13 sit below
    EDGE_EPS and are no edges.
    """
    n = draw(st.integers(1, 8))
    weight = st.sampled_from([1e-13, 0.2, 0.5, 1.0])
    rows = []
    for _ in range(n):
        row = np.zeros(n)
        if draw(st.booleans()):
            row[draw(st.integers(0, n - 1))] = 1.0
        else:
            targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            row[targets] = draw(st.lists(weight, min_size=len(targets), max_size=len(targets)))
            if row.max() < 0.2:  # keep a real edge, so the 1e-13 entries stay below EDGE_EPS
                row[targets[0]] = 1.0
        rows.append(row / row.sum())
    return np.array(rows)


def _oracle_structure(matrix):
    """Irreducibility and closed classes by one breadth-first search per state."""
    n = len(matrix)
    reached = []
    for start in range(n):
        seen, queue = {start}, deque([start])
        while queue:
            i = queue.popleft()
            for j in range(n):
                if matrix[i][j] > EDGE_EPS and j not in seen:
                    seen.add(j)
                    queue.append(j)
        reached.append(seen)
    classes = {tuple(sorted(j for j in reached[i] if i in reached[j])) for i in range(n)}
    closed = sorted(c for c in classes if reached[c[0]] <= set(c))
    return all(len(r) == n for r in reached), tuple(closed)


@settings(max_examples=300)
@given(sparse_chains())
def test_chain_structure_matches_a_breadth_first_oracle(matrix):
    irreducible, closed = _oracle_structure(matrix)
    kernel = OutputKernel(matrix)
    assert is_irreducible(kernel) == irreducible
    if irreducible:
        stationary_distribution(kernel)
    else:
        with pytest.raises(ReducibleChainError) as exc_info:
            stationary_distribution(kernel)
        assert exc_info.value.closed_classes == closed


@st.composite
def sparse_policy_problems(draw):
    """Kernel, policy and cost with zero entries; every row keeps some mass."""
    n_states, n_inputs = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weights = st.sampled_from([0.0, 0.0, 0.3, 1.0])
    kernel = draw(hnp.arrays(float, (n_states, n_inputs, n_states), elements=weights))
    kernel[..., 0] += kernel.sum(axis=-1) == 0.0
    policy = draw(hnp.arrays(float, (n_states, n_inputs), elements=weights))
    policy[:, 0] += policy.sum(axis=-1) == 0.0
    gamma = draw(hnp.arrays(float, (n_states, n_inputs), elements=st.floats(0.0, 1.0)))
    s = draw(st.sampled_from([None, 0.0, 0.7, 3.0]))
    kernel /= kernel.sum(axis=-1, keepdims=True)
    return kernel, policy / policy.sum(axis=-1, keepdims=True), gamma, s


# the unused letter 1 puts mass on output 1, which letter 0 never produces
@example((np.array([[[1.0, 0.0], [0.5, 0.5]]] * 2), np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones((2, 2)), 0.5))
@given(sparse_policy_problems())
def test_policy_rewards_match_per_state_stage_rewards(problem):
    kernel, matrix, gamma, s = problem
    channel = channel_from_kernel(kernel)
    rewards = _policy_rewards(channel, matrix, gamma, s)
    for b in range(channel.n_states):
        expected = stage_reward(channel, InputPolicy(matrix), b) - (s or 0.0) * (matrix[b] @ gamma[b])
        assert abs(rewards[b] - expected) <= 1e-14


def test_bellman_conditions_pass_on_solver_output():
    channel = bssc(1.0, 0.5)
    solution = relative_value_iteration(channel, tol=1e-10)
    assert verify_bellman_conditions(channel, solution, tol=1e-9).passed

    channel = bibo_channel()
    solution = policy_iteration(channel, uniform_policy(2, 2))
    assert verify_bellman_conditions(channel, solution, tol=1e-5).passed


def test_bellman_conditions_fail_on_shifted_gain():
    channel = bssc(1.0, 0.5)
    solution = relative_value_iteration(channel, tol=1e-10)
    shifted = dataclasses.replace(solution, gain=solution.gain + 0.01)
    report = verify_bellman_conditions(channel, shifted, tol=1e-6)
    assert not report.passed
    assert report.worst_violation > 5e-3


def test_generalized_check_constant_gain():
    channel = bssc(1.0, 0.5)
    solution = relative_value_iteration(channel, tol=1e-10)
    report = generalized_dp_check(channel, solution, tol=1e-9)
    assert report.passed
    assert "constant gain" in report.message


def _block_channel():
    """Two closed classes: states {0,1} behave like bssc(1,0.5), {2,3} like bssc(0.9,0.9)."""
    top = bssc_channel(BSSCParams(1.0, 0.5)).kernel
    bottom = bssc_channel(BSSCParams(0.9, 0.9)).kernel
    kernel = np.zeros((4, 2, 4))
    kernel[:2, :, :2] = top
    kernel[2:, :, 2:] = bottom
    return channel_from_kernel(kernel)


def test_generalized_check_per_class_gains():
    channel = _block_channel()
    gain_top = bssc_closed_form(BSSCParams(1.0, 0.5)).capacity
    gain_bottom = bssc_closed_form(BSSCParams(0.9, 0.9)).capacity
    policy = InputPolicy([[0.6, 0.4], [0.4, 0.6], [0.5, 0.5], [0.5, 0.5]])
    solution = InfiniteHorizonSolution(
        gain=gain_top,
        bias=np.zeros(4),
        policy=policy,
        output_kernel=induced_output_kernel(channel, policy),
        invariant_dist=None,
        iterations=0,
    )
    report = generalized_dp_check(
        channel, solution, tol=1e-9, gain_by_state=[gain_top, gain_top, gain_bottom, gain_bottom]
    )
    assert report.passed
    assert "state-dependent gain" in report.message
    # a wrong per-class gain must be caught
    broken = generalized_dp_check(
        channel, solution, tol=1e-6, gain_by_state=[gain_top, gain_top, gain_top, gain_top]
    )
    assert not broken.passed


def test_generalized_check_two_state_frozen_outputs():
    # outputs frozen at the previous output: two trivial closed classes with
    # zero per-class gain, so the pair of generalized equations holds with
    # J identically zero
    kernel = np.zeros((2, 2, 2))
    kernel[0, :, 0] = 1.0
    kernel[1, :, 1] = 1.0
    channel = channel_from_kernel(kernel)
    policy = uniform_policy(2, 2)
    solution = InfiniteHorizonSolution(
        gain=0.0,
        bias=np.zeros(2),
        policy=policy,
        output_kernel=induced_output_kernel(channel, policy),
        invariant_dist=None,
        iterations=0,
    )
    report = generalized_dp_check(channel, solution, tol=1e-12, gain_by_state=[0.0, 0.0])
    assert report.passed


@pytest.mark.parametrize(
    "gains, error",
    [([0.1, np.nan], ValidationError), ([[0.1], [0.1, 0.2]], ValidationError), ([0.1, 0.1, 0.1], DimensionMismatchError)],
    ids=["nan", "ragged", "wrong-length"],
)
def test_generalized_check_rejects_a_malformed_gain_by_state_before_any_stage_solve(monkeypatch, gains, error):
    # A NaN gain read as a failed check with a NaN worst violation; the
    # ragged and wrong-length gains raised NumPy's bare ValueError.
    channel = bssc(0.9, 0.6)
    solution = relative_value_iteration(channel)
    _no_stage_solve(monkeypatch)
    with pytest.raises(error):
        generalized_dp_check(channel, solution, tol=1e-9, gain_by_state=gains)


@pytest.mark.parametrize(
    "gamma, error",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], ValidationError),
        ([[-1.0, 0.0], [0.0, 1.0]], ValidationError),
        (np.ones((3, 3)), DimensionMismatchError),
    ],
    ids=["nan", "negative", "wrong-shape"],
)
def test_minimum_average_cost_takes_the_cost_rules_at_entry(gamma, error):
    # A NaN cost ran all 200,000 sweeps before a ConvergenceError, a negative
    # one returned -1.0 and a (3, 3) table raised a bare broadcast ValueError.
    with pytest.raises(error):
        minimum_average_cost(bssc(0.9, 0.6), gamma)


def test_bellman_conditions_pass_with_cost_multiplier():
    channel = bssc(1.0, 0.5)
    from umco import CostSpec, bssc_cost_function

    cost = CostSpec(bssc_cost_function(), 0.5)
    solution = relative_value_iteration(channel, cost=cost, multiplier=0.3, tol=1e-10)
    assert verify_bellman_conditions(channel, solution, tol=1e-9).passed


def test_gain_matches_stationary_average_reward():
    for channel in (bssc(0.95, 0.8), bibo_channel()):
        for solution in (
            relative_value_iteration(channel, tol=1e-10),
            policy_iteration(channel, uniform_policy(2, 2)),
        ):
            nu = solution.invariant_dist.weights
            rewards = np.array([stage_reward(channel, solution.policy, b) for b in range(2)])
            assert abs(solution.gain - float(nu @ rewards)) < 1e-9


def test_finite_horizon_average_converges_to_gain():
    for channel in (bssc(0.95, 0.8), bibo_channel()):
        gain = relative_value_iteration(channel, tol=1e-10).gain
        gaps = []
        for n in (50, 100, 200):
            values = solve_finite_horizon(channel, n).values[0]
            gaps.append(np.abs(values / (n + 1) - gain).max())
        # shrinking 1/n tail; for state-independent values the gap is already
        # at machine precision for every horizon
        assert gaps[2] <= gaps[1] + 1e-12 and gaps[1] <= gaps[0] + 1e-12
        assert gaps[2] <= 2e-3  # bias-offset tail over n+1 = 201
    bibo_gaps = gaps
    assert bibo_gaps[0] > bibo_gaps[1] > bibo_gaps[2]


def test_solution_reports():
    solution = relative_value_iteration(bssc(1.0, 0.5), tol=1e-10)
    text = solution_report(solution)
    assert "gain" in text and "invariant dist" in text
    csv = solution_csv(solution)
    assert csv.splitlines()[0] == "state,bias_bits,invariant_mass,policy_a0,policy_a1"
    assert len(csv.splitlines()) == 3


def test_warm_start_lets_a_zeroed_letter_grow_back(monkeypatch):
    # At multiplier 1 the penalized letter of BSSC(0.9, 0.65) dies (the solve
    # gives it exactly 0); at 0.5 it carries mass again.  Passed on as is, it
    # starts at the 1e-280 policy floor, and the Newton attempt that a warm
    # start with an exact zero gets at iteration 1 lets it rejoin by its score.
    real = umco.infinite_horizon.maximize_stage_objective
    inner = []

    def counted(*args, **kwargs):
        solution = real(*args, **kwargs)
        inner.append(solution.iterations)
        return solution

    monkeypatch.setattr(umco.infinite_horizon, "maximize_stage_objective", counted)
    channel = bssc(0.9, 0.65)
    cost = CostSpec(bssc_cost_function(), 0.3)
    free = relative_value_iteration(channel, cost=cost, multiplier=0.0, tol=1e-10)
    dead = relative_value_iteration(
        channel, cost=cost, multiplier=1.0, tol=1e-10, initial_value=free.bias, initial_policy=free.policy
    )
    assert dead.policy.matrix.min() < 1e-200
    inner.clear()
    cold = relative_value_iteration(channel, cost=cost, multiplier=0.5, tol=1e-10)
    cold_inner = sum(inner)
    inner.clear()
    warm = relative_value_iteration(
        channel, cost=cost, multiplier=0.5, tol=1e-10, initial_value=dead.bias, initial_policy=dead.policy
    )
    assert abs(warm.gain - cold.gain) <= 1e-10
    assert warm.policy.matrix.min() > 1e-3
    assert sum(inner) <= cold_inner


def _newton_calls(monkeypatch):
    """Record every batched Newton pass: (states attempted, states certified)."""
    real, calls = umco.onestage._newton_pass, []

    def counted(*args):
        result = real(*args)
        calls.append((len(result[0]), int(result[0].sum())))
        return result

    monkeypatch.setattr(umco.onestage, "_newton_pass", counted)
    return calls


@pytest.mark.parametrize(
    "solve",
    [
        lambda: relative_value_iteration(bibo_channel(), tol=1e-10),
        lambda: relative_value_iteration(bssc(1.0, 0.5), tol=1e-10),
        lambda: policy_iteration(bibo_channel(), uniform_policy(2, 2)),
        lambda: solve_finite_horizon(bssc(0.9, 0.6), 20),
    ],
    ids=["rvi-bibo", "rvi-bssc", "policy-iteration", "finite-horizon"],
)
def test_only_a_callers_warm_start_brings_the_first_newton_attempt_forward(monkeypatch, solve):
    # With the periodic attempts out of reach, any attempt is an early one:
    # RVI without an initial policy, PI and the finite-horizon recursion make
    # none before iteration 256.
    monkeypatch.setattr(umco.onestage, "_NEWTON_PERIOD", 10**9)
    calls = _newton_calls(monkeypatch)
    solve()
    assert calls == []


def test_rvi_from_a_neighbouring_multiplier_certifies_its_first_sweep_by_newton(monkeypatch):
    real = umco.infinite_horizon.maximize_stage_objective
    sweeps = []

    def counted(*args, **kwargs):
        solution = real(*args, **kwargs)
        sweeps.append(solution)
        return solution

    monkeypatch.setattr(umco.infinite_horizon, "maximize_stage_objective", counted)
    channel = bssc(0.9, 0.65)
    cost = CostSpec(bssc_cost_function(), 0.3)
    neighbour = relative_value_iteration(channel, cost=cost, multiplier=0.3, tol=1e-10)
    sweeps.clear()
    cold = relative_value_iteration(channel, cost=cost, multiplier=0.32, tol=1e-10)
    cold_inner = sum(s.iterations for s in sweeps)
    sweeps.clear()
    calls = _newton_calls(monkeypatch)
    warm = relative_value_iteration(
        channel, cost=cost, multiplier=0.32, tol=1e-10,
        initial_value=neighbour.bias, initial_policy=neighbour.policy,
    )
    assert calls[0] == (2, 2) and sweeps[0].slowest_iterations == 1
    assert abs(warm.gain - cold.gain) <= 1e-10
    assert sum(s.iterations for s in sweeps) < cold_inner


def _normalised(kernel):
    return channel_from_kernel(kernel / kernel.sum(axis=2, keepdims=True))


def _dense_channel():
    rng = np.random.default_rng(4)
    n_states, n_inputs = rng.integers(2, 5, size=2)
    return _normalised(rng.random((n_states, n_inputs, n_states)) + 0.01)


def _sparse_stress_channel(index, seed=2024):
    """Channel ``index`` of ``tests/sparse_stress.py`` at its default seed."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        channel = sparse_random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
    return channel


# Nearly input-independent: every letter of state 1 and two of state 0 send
# the same row, so the optimum sits on a face where the update crawls.
NEAR_INDEPENDENT = [[[39 / 79, 40 / 79], [0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5]] * 3]


def _rvi_agrees_with_pi(channel, tol):
    rvi = relative_value_iteration(channel, tol=tol)
    pi = policy_iteration(channel, uniform_policy(channel.n_states, channel.n_inputs), tol=tol)
    assert rvi.gain_bracket[0] - tol <= pi.gain <= rvi.gain_bracket[1] + tol


def _fresh_rng_16():
    channel = _normalised(np.random.default_rng(0).random((16, 16, 16)))
    assert verify_bellman_conditions(channel, relative_value_iteration(channel), tol=1e-8).passed


def _sparse_190():
    channel = _sparse_stress_channel(190)
    assert not channel.kernel[1].any(axis=0).all()  # state 1 has outputs no letter reaches
    assert verify_optimality_conditions(channel, solve_finite_horizon(channel, 20), tol=1e-8).passed


@pytest.mark.parametrize(
    "solve",
    [
        lambda: _rvi_agrees_with_pi(_dense_channel(), 1e-9),
        lambda: _rvi_agrees_with_pi(channel_from_kernel(NEAR_INDEPENDENT), 1e-6),
        lambda: _rvi_agrees_with_pi(channel_from_kernel(NEAR_INDEPENDENT), 1e-9),
        _fresh_rng_16,
        _sparse_190,
    ],
    ids=["dense-rng4", "near-independent-1e-6", "near-independent-1e-9", "fresh-rng0-16x16", "sparse-stress-190"],
)
def test_channels_that_stalled_the_inner_solver_converge(solve):
    # On each of these the multiplicative update alone crawls past 100k inner
    # iterations (ConvergenceError); the Newton step certifies every state.
    solve()


def test_irreducible_and_span_residual_are_read_from_the_fields_they_derive_from():
    channel = bssc(0.9, 0.6)
    rvi = relative_value_iteration(channel)
    lo, hi = rvi.gain_bracket
    assert rvi.irreducible and rvi.span_residual == hi - lo  # bit for bit
    assert not dataclasses.replace(rvi, invariant_dist=None).irreducible
    pi = policy_iteration(channel, uniform_policy(2, 2))
    assert pi.irreducible and pi.gain_bracket is None and pi.span_residual is None
