"""The per-state concave program: a stacked call is the per-state calls, bit for bit,
up to a batched Newton pass's coupling, and it agrees with a plain per-letter
reference of the fixed point."""

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import bibo_channel, bssc, three_by_three_channel
from sparse_stress import sparse_random_channel
from umco import (
    ConvergenceError,
    ValidationError,
    onestage,
    policy_iteration,
    relative_value_iteration,
    solve_finite_horizon,
    uniform_policy,
)
from umco.channel import _policy_average, letter_divergences
from umco.onestage import _NEWTON_STEPS, _newton_pass, _prepare_kernel, letter_scores, maximize_stage_objective

# Small enough that every generated stack runs in milliseconds; states that
# need longer stall, which the property covers as well.
MAX_ITER = 600

entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def kernel_stacks(draw, max_states=6):
    """A kernel stack (S, A, B), some with a dominated letter, a repeated letter or a letter alone on an output."""
    n_states = draw(st.integers(1, max_states))
    n_inputs = draw(st.integers(2, 5))
    n_outputs = draw(st.integers(2, 5))
    rows = draw(hnp.arrays(float, (n_states, n_inputs, n_outputs), elements=entries))
    rows[..., 0] += rows.sum(axis=2) == 0.0  # no all-zero row
    rows /= rows.sum(axis=2, keepdims=True)
    if n_inputs > 2 and draw(st.booleans()):
        # A letter mixing two others is dominated, so the optimum sits on a
        # face of the simplex and is reached by the periodic Newton step.
        weight = draw(st.floats(0.1, 0.9))
        rows[:, -1] = weight * rows[:, 0] + (1.0 - weight) * rows[:, 1]
    if n_inputs > 2 and draw(st.booleans()):
        rows[:, -2] = rows[:, -3]  # dependent rows: the optimal policy is not unique
    if draw(st.booleans()):
        # Letter 0 alone reaches output 0: a Newton step keeps at least half
        # its mass and takes its length from the other falling letters.
        rows[:, 0, 0] += 0.5
        rows[:, 1:, 0] = 0.0
        rows[..., -1] += rows.sum(axis=2) == 0.0
        rows /= rows.sum(axis=2, keepdims=True)
    return rows


@st.composite
def stage_problems(draw):
    """A kernel stack (S, A, B), optional continuation, penalty (multiplier * cost), warm start and Newton flag."""
    rows = draw(kernel_stacks())
    n_states, n_inputs, n_outputs = rows.shape
    continuation = draw(st.none() | hnp.arrays(float, n_outputs, elements=st.floats(-5.0, 5.0)))
    cost = draw(st.none() | hnp.arrays(float, (n_states, n_inputs), elements=st.floats(0.0, 2.0)))
    multiplier = draw(st.floats(0.0, 3.0)) if cost is not None else 0.0
    initial = draw(st.none() | hnp.arrays(float, (n_states, n_inputs), elements=st.floats(0.0, 1.0)))
    if initial is not None:
        initial[:, 0] += initial.sum(axis=1) == 0.0
        initial /= initial.sum(axis=1, keepdims=True)
    penalty = None if cost is None else multiplier * cost
    return rows, continuation, penalty, initial, draw(st.booleans())


def _solve(rows, continuation, penalty, initial, newton_start):
    try:
        return maximize_stage_objective(
            rows, continuation, penalty, tol=1e-10, max_iter=MAX_ITER, initial=initial,
            _newton_start=newton_start,
        )
    except ConvergenceError as exc:
        return exc


@given(kernel_stacks())
@example(np.array([[[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]], [[0.2, 0.3, 0.5], [0.0, 1.0, 0.0]]]))  # state 0 misses output 1
def test_prepared_kernel_holds_the_invariants_of_its_stack(rows):
    # Computed here apart from _prepare_kernel, which both sides of the
    # prepared-against-raw comparison below share.
    kernel = _prepare_kernel(rows)
    information = [[sum(p * math.log2(p) for p in letter if p > 0.0) for letter in state] for state in rows]
    np.testing.assert_allclose(kernel.self_information, information, rtol=1e-13, atol=1e-15)
    assert kernel.rows_t.flags.c_contiguous
    np.testing.assert_array_equal(kernel.rows_t, np.swapaxes(rows, 1, 2))
    missed = [[[not any(letter[b] > 0.0 for letter in state) for b in range(rows.shape[2])]] for state in rows]
    if np.any(missed):
        np.testing.assert_array_equal(kernel.unreachable, missed)
    else:
        assert kernel.unreachable is None
    # A slice is a stack of one.
    assert all(np.array_equal(a, b) for a, b in zip(_prepare_kernel(rows[0]), _prepare_kernel(rows[:1])))


@given(stage_problems())
def test_stacked_call_equals_per_state_calls(problem):
    rows, continuation, penalty, initial, newton_start = problem
    stacked = _solve(*problem)
    # The prepared loop invariants a channel keeps give what the raw stack gives, bit for bit.
    prepared = _solve(_prepare_kernel(rows), *problem[1:])
    assert type(prepared) is type(stacked)
    if isinstance(stacked, ConvergenceError):
        assert prepared.residual == stacked.residual
    else:
        assert [a.tobytes() for a in prepared[:2]] == [a.tobytes() for a in stacked[:2]]
        assert prepared[2:] == stacked[2:]
    singles = [
        _solve(
            rows[b],
            continuation,
            None if penalty is None else penalty[b],
            None if initial is None else initial[b],
            newton_start,
        )
        for b in range(rows.shape[0])
    ]
    stalls = [s for s in singles if isinstance(s, ConvergenceError)]
    if stalls:
        assert isinstance(stacked, ConvergenceError)
        assert stacked.residual == max(s.residual for s in stalls)
        return
    assert stacked.policy.tobytes() == np.array([s.policy for s in singles]).tobytes()
    assert stacked.value.tobytes() == np.array([s.value for s in singles]).tobytes()
    assert stacked.iterations == sum(s.iterations for s in singles)
    assert stacked.slowest_iterations == max(s.iterations for s in singles)
    assert stacked.gap == max(s.gap for s in singles)


@given(stage_problems())
def test_skipping_the_certificate_on_the_jensen_bound_changes_nothing(problem):
    # With an infinite margin the bound never holds, so the certificate is
    # checked on every iteration, as it was before the bound.
    gated = _solve(*problem)
    with mock.patch.object(onestage, "_BOUND_MARGIN", np.inf):
        every = _solve(*problem)
    assert type(gated) is type(every)
    if isinstance(every, ConvergenceError):
        assert gated.residual == every.residual
        return
    assert gated.policy.tobytes() == every.policy.tobytes()
    assert gated.value.tobytes() == every.value.tobytes()
    assert gated[2:] == every[2:]


@given(stage_problems())
def test_deferring_the_update_weights_at_an_attempt_changes_nothing(problem):
    # With no step allowed a Newton attempt certifies no state, so asking for
    # one at iteration 1 must leave the iterates as they are without it; only
    # the update's weights move past the attempt.  A warm start without exact
    # zeros makes no attempt unless asked.
    rows, continuation, penalty, initial, _ = problem
    warm = np.ones(rows.shape[:2]) if initial is None else initial + 1e-3
    warm /= warm.sum(axis=1, keepdims=True)
    with mock.patch.object(onestage, "_NEWTON_STEPS", 0):
        attempted, plain = (_solve(rows, continuation, penalty, warm, asked) for asked in (True, False))
    assert type(attempted) is type(plain)
    if isinstance(plain, ConvergenceError):
        assert attempted.residual == plain.residual
        return
    assert attempted.policy.tobytes() == plain.policy.tobytes()
    assert attempted.value.tobytes() == plain.value.tobytes()
    assert attempted[2:] == plain[2:]


@given(stage_problems())
def test_solver_neither_writes_into_nor_aliases_its_inputs(problem):
    # The update works in buffers of its own; the returned arrays must not be
    # views of the caller's warm start either.
    rows, continuation, penalty, initial, _ = problem
    before = [None if a is None else a.tobytes() for a in (rows, continuation, penalty, initial)]
    solved = _solve(*problem)
    assert [None if a is None else a.tobytes() for a in (rows, continuation, penalty, initial)] == before
    if initial is not None and not isinstance(solved, ConvergenceError):
        assert not np.shares_memory(solved.policy, initial)
        assert not np.shares_memory(solved.value, initial)


def test_a_batched_newton_pass_may_move_a_full_support_state_along_its_optimal_face():
    # State 1's warm start holds exact zeros, so the pass at iteration 1 starts
    # it on a partial support and renormalises and rescores the whole batch;
    # state 0 keeps a full support over three identical letters.
    rows = np.array([[[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]] * 2)
    initial = np.array([[0.2, 0.4, 0.3, 0.1], [1.0, 0.0, 0.0, 0.0]])
    stacked = maximize_stage_objective(rows, initial=initial, _newton_start=True)
    singles = [maximize_stage_objective(rows[b], initial=initial[b], _newton_start=True) for b in range(2)]
    assert stacked.policy[1].tobytes() == singles[1].policy[0].tobytes()
    assert stacked.value[1].tobytes() == singles[1].value[0].tobytes()
    # State 0 is certified with the same value, on the face pi(0) = 1/2.
    assert stacked.gap <= onestage.DEFAULT_INNER_TOL
    assert abs(stacked.value[0] - singles[0].value[0]) <= 1e-15
    assert abs(stacked.policy[0, 0] - 0.5) <= 1e-12
    assert abs(stacked.policy[0, 1:].sum() - 0.5) <= 1e-12


def test_warm_start_at_the_optimum_certifies_every_state_at_once():
    # Warm-started from its own solution every state certifies at iteration
    # 1, so the call returns without building the per-state slots; it must
    # still return what the per-state calls return, bit for bit.
    rows = np.concatenate([bibo_channel().kernel, bssc(0.9, 0.6).kernel])
    continuation = np.array([0.3, -0.2])
    solved = maximize_stage_objective(rows, continuation).policy
    warm = maximize_stage_objective(rows, continuation, initial=solved)
    singles = [maximize_stage_objective(rows[b], continuation, initial=solved[b]) for b in range(len(rows))]
    assert warm.iterations == len(rows) and warm.slowest_iterations == 1
    assert warm.policy.tobytes() == np.concatenate([s.policy for s in singles]).tobytes()
    assert warm.value.tobytes() == np.concatenate([s.value for s in singles]).tobytes()
    assert warm.gap == max(s.gap for s in singles) <= 1e-10
    assert not np.shares_memory(warm.policy, solved)


def test_a_warm_start_with_an_exact_zero_tries_newton_at_the_first_update():
    # Each state's warm start puts a letter at exactly 0: without the first
    # attempt it sits at the floor and crawls for 256 updates.
    rows = [[[0.9, 0.1], [0.1, 0.9]], [[0.8, 0.2], [0.3, 0.7]]]
    assert maximize_stage_objective(rows, initial=[[0, 1], [1, 0]]).slowest_iterations == 1


def _newton_reference(rows, pi, bias, tol, steps=_NEWTON_STEPS):
    """One state's active-set Newton ascent in its plain form; (policy, value, gap) if certified, else None.

    The support and the bordered system [H_SS 1; 1^T 0] are built for this
    state alone, so each step solves a system of the support's size.
    """
    support = pi >= 1e-2 * pi.max()
    support |= rows @ (support @ rows == 0.0) > 0.0
    pi = np.where(support, pi, 0.0) / pi[support].sum()
    for _ in range(steps):
        output = pi @ rows
        scores = letter_divergences(rows, output) + bias
        value = float(_policy_average(pi, scores))
        gap = max(float(scores.max() - value), 0.0)
        if gap <= tol:
            return pi, value, gap
        if np.ptp(scores[support]) <= tol:
            support[np.argmax(np.where(support, -np.inf, scores))] = True
        live = rows[support]
        hessian = (live / np.where(output > 0.0, output, np.inf)) @ live.T / np.log(2.0)
        system = np.pad(hessian + 1e-12 * np.diag(np.diag(hessian)), (0, 1), constant_values=1.0)
        system[-1, -1] = 0.0
        step = np.linalg.solve(system, np.append(scores[support], 0.0))[:-1]
        if not np.all(np.isfinite(step)):
            return None
        reach = live > 0.0
        sole = (reach & (reach.sum(axis=0) == 1)).any(axis=1)  # alone on some output of the support
        falling = (step < 0.0) & ~sole
        ratios = np.where(falling, pi[support] / np.where(falling, -step, 1.0), np.inf)
        blocking = np.argmin(ratios)
        floor = np.where(sole, 0.5 * pi[support], 0.0)
        pi[support] = np.maximum(pi[support] + min(1.0, ratios[blocking]) * step, floor)
        if ratios[blocking] <= 1.0:
            pi[np.flatnonzero(support)[blocking]] = 0.0
        pi /= pi.sum()
        support = pi > 0.0
    return None


@st.composite
def newton_problems(draw):
    """A kernel stack, a centered letter bias, a start policy with a letter near or at 0 and a cap on the steps.

    A cap of one or three steps leaves many states uncertified, so both
    outcomes are compared.
    """
    rows = draw(kernel_stacks(max_states=8))
    n_states, n_inputs, _ = rows.shape
    bias = draw(hnp.arrays(float, (n_states, n_inputs), elements=st.floats(-3.0, 3.0)))
    pi = draw(hnp.arrays(float, (n_states, n_inputs), elements=st.floats(1e-3, 1.0)))
    pi[:, 0] *= draw(st.sampled_from([1.0, 1e-4, 1e-9, 0.0]))
    steps = draw(st.sampled_from([1, 3, _NEWTON_STEPS]))
    return rows, bias - bias.max(axis=1, keepdims=True), pi / pi.sum(axis=1, keepdims=True), steps


def _newton_inputs(rows, bias, pi):
    """The solver's arguments to a Newton pass: (rows, rows_t, pi, base, scores) with base = sum_b P log2 P + bias."""
    rows_t = np.ascontiguousarray(rows.transpose(0, 2, 1))
    base = np.where(rows > 0.0, rows * np.log2(np.where(rows > 0.0, rows, 1.0)), 0.0).sum(axis=2) + bias
    return rows, rows_t, pi, base, letter_scores(rows, pi, penalty=-bias)


def _stage_gap(rows, bias, pi):
    """max_a score - value at pi, scored by letter_divergences, independently of the pass's own formula."""
    scores = letter_scores(rows, pi, penalty=-bias)
    return scores.max(axis=-1) - _policy_average(pi, scores)


# Letter 1 alone reaches output 1 and starts at exactly 0: the support takes it in at q(1) = 0.
NEWTON_AT_AN_UNREACHED_OUTPUT = (np.array([[[1.0, 0.0], [0.5, 0.5]]]), np.zeros((1, 2)), np.array([[1.0, 0.0]]))
# Every letter of both states holds over 1% of the top mass: the pass starts from the scores it is given.
NEWTON_ON_A_FULL_SUPPORT = (
    bssc(0.95, 0.8).kernel, np.array([[-1.0, 0.0], [0.0, -0.5]]), np.array([[0.3, 0.7], [0.6, 0.4]])
)


@given(newton_problems())
@example((*NEWTON_AT_AN_UNREACHED_OUTPUT, _NEWTON_STEPS))
@example((*NEWTON_ON_A_FULL_SUPPORT, _NEWTON_STEPS))
def test_batched_newton_pass_matches_the_per_state_reference(problem):
    rows, bias, pi, steps = problem
    # The solver hands a pass only the states its own certificate rejects at pi.
    attempted = _stage_gap(rows, bias, pi) > 1e-10
    rows, bias, pi = rows[attempted], bias[attempted], pi[attempted]
    with mock.patch.object(onestage, "_NEWTON_STEPS", steps):
        certified, policy, value, gap = _newton_pass(*_newton_inputs(rows, bias, pi.copy()), 1e-10)
    references = [_newton_reference(rows[b], pi[b].copy(), bias[b], 1e-10, steps) for b in range(len(rows))]
    assert certified.tolist() == [r is not None for r in references]
    for b, (p, v, g), reference in zip(np.flatnonzero(certified), zip(policy, value, gap), filter(None, references)):
        assert ((p > 0.0) == (reference[0] > 0.0)).all()
        assert abs(v - reference[1]) <= 1e-12 and 0.0 <= g <= 1e-10
        assert _stage_gap(rows[b], bias[b], p) <= 1e-10
        np.testing.assert_allclose(p @ rows[b], reference[0] @ rows[b], rtol=0.0, atol=1e-12)
        live = rows[b][p > 0.0]
        if np.linalg.matrix_rank(live) == len(live):
            # Independent rows fix the policy by its output; on dependent
            # rows the optimum is a face, along which the shifted system's
            # flat direction turns last-bit differences into a long step.
            np.testing.assert_allclose(p, reference[0], rtol=0.0, atol=1e-12)
    assert not np.shares_memory(policy, pi)


def _first_newton_system(inputs):
    """The pass's result and the right-hand side of its first bordered system: the support's scores, then 0."""
    with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
        result = _newton_pass(*inputs, 1e-10)
    return result, solve.call_args_list[0].args[1][:, :-1, 0]


def test_newton_pass_scores_a_letter_on_an_unreached_output_plus_infinity():
    # letter_divergences scores letter 1 +inf at q(1) = 0; taken as it
    # stands, base - log2(q) @ R^T would give letter 0 a NaN (0 * -inf).
    rows, bias, pi = NEWTON_AT_AN_UNREACHED_OUTPUT
    (certified, *_), scores = _first_newton_system(_newton_inputs(rows, bias, pi.copy()))
    assert scores[0, 1] == np.inf and np.isfinite(scores[0, 0])
    assert certified.tolist() == [False] and _newton_reference(rows[0], pi[0].copy(), bias[0], 1e-10) is None


def test_newton_pass_on_a_full_support_starts_from_the_given_scores():
    # A common offset on every score moves no step (the border absorbs it),
    # so scores given 1 bit high still certify, and the first system shows them.
    rows, bias, pi = NEWTON_ON_A_FULL_SUPPORT
    *inputs, given = _newton_inputs(rows, bias, pi.copy())
    (certified, policy, _, gap), scores = _first_newton_system((*inputs, given + 1.0))
    assert scores.tobytes() == (given + 1.0).tobytes()
    assert certified.all() and (gap <= 1e-10).all() and (_stage_gap(rows, bias, policy) <= 1e-10).all()


def test_newton_shifts_each_letter_by_its_own_diagonal_entry():
    # Letter 1 holds 1e-12 of the mass and alone reaches output 1, so its
    # diagonal entry is about 7e11; a shift by 1e-12 of the trace would raise
    # letter 0's entry (about 1.4) by half and damp every step on it.
    rows, bias, pi = np.array([[[1.0, 0.0], [0.5, 0.5]]]), np.zeros((1, 2)), np.array([[1.0 - 1e-12, 1e-12]])
    with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
        certified, *_ = _newton_pass(*_newton_inputs(rows, bias, pi.copy()), 1e-10)
    system = solve.call_args_list[0].args[0][0, :-1, :-1]
    hessian = (rows[0] / (pi[0] @ rows[0])) @ rows[0].T / np.log(2.0)
    np.testing.assert_allclose(np.diag(system) / np.diag(hessian) - 1.0, 1e-12, rtol=1e-3)
    np.testing.assert_allclose(system[[0, 1], [1, 0]], hessian[[0, 1], [1, 0]], rtol=1e-14)
    assert certified.tolist() == [True]


def test_a_letter_alone_on_an_output_keeps_half_its_mass_and_sets_no_step_length():
    # Letter 1 alone reaches output 1, and the first step from (1/2, 1/2)
    # would take it below 0.  It keeps half its mass instead, and with no
    # other letter falling the step is taken in full; scaling the whole step
    # to stop halfway to 0 made it crawl.
    rows, bias, pi = np.array([[[1.0, 0.0], [0.5, 0.5]]]), np.array([[0.0, -2.0]]), np.array([[0.5, 0.5]])
    with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
        certified, *_ = _newton_pass(*_newton_inputs(rows, bias, pi.copy()), 1e-10)
    (system, rhs), (_, second) = [call.args for call in solve.call_args_list[:2]]
    step = np.linalg.solve(system, rhs)[0, :-1, 0]
    assert step[1] < -pi[0, 1]
    expected = np.array([pi[0, 0] + step[0], 0.5 * pi[0, 1]])
    expected /= expected.sum()
    # The second system's right-hand side holds the scores at the second iterate.
    scores = letter_scores(rows, expected, penalty=-bias)[0]
    np.testing.assert_allclose(second[0, :-1, 0], scores, rtol=0.0, atol=1e-12)
    assert certified.tolist() == [True]


def test_the_full_step_equals_the_ratio_test_where_no_letter_loses_half_its_mass():
    # Both states start on a full support.  State 0's first step moves each
    # letter by 3.5% of the mass; state 1's would take letter 1, alone on
    # output 1, below 0.  The batch takes the ratio test with the sole-reach
    # mask, state 0 alone the full step: the same bytes, in the scores at the
    # first iterate (the second system's right-hand side) and in the result.
    rows = np.array([[[0.9, 0.1], [0.2, 0.8]], [[1.0, 0.0], [0.5, 0.5]]])
    bias, pi = np.array([[0.0, 0.0], [0.0, -2.0]]), np.full((2, 2), 0.5)
    with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
        batched = _newton_pass(*_newton_inputs(rows, bias, pi.copy()), 1e-10)
    (system, rhs), (_, second) = [call.args for call in solve.call_args_list[:2]]
    step = np.linalg.solve(system, rhs)[:, :-1, 0]
    assert (pi[0] + 2.0 * step[0]).min() > 0.0 and pi[1, 1] + step[1, 1] < 0.0
    assert batched[0].tolist() == [True, True]
    for b in range(2):
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            alone = _newton_pass(*_newton_inputs(rows[b : b + 1], bias[b : b + 1], pi[b : b + 1].copy()), 1e-10)
        assert solve.call_args_list[1].args[1].tobytes() == second[b : b + 1].tobytes()
        assert alone[0].tolist() == [True]
        assert [a.tobytes() for a in alone[1:]] == [a[b : b + 1].tobytes() for a in batched[1:]]


# Channel 375 of tests/sparse_stress.py at seed 2024.  In state 0 letter 0
# alone reaches output 1, and its optimal mass is tiny: the fixed point
# leaves it at 6.1e-13 in the terminal stage.
SPARSE_375 = np.array([
    [[0.19555120040888255, 0.014088957507210694, 0.38082462835884473, 0.4095352137250621],
     [0.4675358929685804, 0.0, 0.5324641070314197, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]],
    [[0.3730859568905793, 0.30715065750869264, 0.08048909343163174, 0.23927429216909643],
     [0.5145222838928937, 0.4854777161071064, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
     [0.45741885783557784, 0.13371851648392147, 0.14911522077495046, 0.25974740490555026]],
    [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.5911899601336351, 0.4088100398663649, 0.0, 0.0],
     [0.0, 0.3113608506263698, 0.4662940307910433, 0.22234511858258688]],
    [[0.7913743735779613, 0.0, 0.08599930517319421, 0.12262632124884448], [0.0, 0.0, 1.0, 0.0],
     [0.0, 1.0, 0.0, 0.0], [0.0, 0.23128036391088605, 0.20065461330268056, 0.5680650227864334]],
])


@pytest.mark.parametrize("start", ["uniform", "warm"])
def test_sparse_census_channel_375_state_0_certifies_by_newton_at_update_1(start):
    # These are the first updates of the terminal stage and of stage 19 of
    # the census's horizon-20 recursion.  From uniform, a step halved at
    # letter 0 crawled for all 50 steps; from the fixed point's terminal
    # policy (letter 0 at 6.1e-13), a shift by 1e-12 of the trace, which
    # letter 0's entry swamps, stalled the gap.
    continuation = initial = None
    if start == "warm":
        terminal = maximize_stage_objective(SPARSE_375)  # the fixed point: no Newton attempt before update 256
        continuation, initial = terminal.value, terminal.policy[0]
        assert 0.0 < initial[0] < 1e-12
    solution = maximize_stage_objective(SPARSE_375[0], continuation, initial=initial, _newton_start=True)
    assert solution.iterations == 1 and solution.gap <= 1e-10
    # The per-letter conditions hold as the verifier reads them: letters
    # above 1e-9 of mass are level with the value, the rest lie below it.
    policy, value = solution.policy[0], solution.value[0]
    scores = letter_scores(SPARSE_375[0], policy, continuation)[0]
    supported = policy > 1e-9
    assert np.abs(scores[supported] - value).max() <= 1e-9
    assert scores[~supported].max() < value


def _reference_state(rows, bias, initial, newton_start, tol=1e-10):
    """One state's fixed point in its plain form, or None if it is not certified within MAX_ITER.

    Each update scores every letter by its own divergence plus the bias, then
    normalises, floors and normalises again; the Newton attempts run at the
    solver's cadence.  Returns (policy, value, gap).
    """
    pi = np.ones(rows.shape[0]) if initial is None else np.maximum(initial, 1e-280)
    pi = pi / pi.sum()
    zero_start = initial is not None and (initial == 0.0).any()
    for iteration in range(1, MAX_ITER + 1):
        scores = letter_divergences(rows, pi @ rows) + bias
        value = float(pi @ scores)
        gap = float(scores.max() - value)
        if gap <= tol:
            return pi, value, gap
        if iteration % 256 == 0 or (iteration == 1 and (newton_start or zero_start)):
            newton = _newton_reference(rows, pi.copy(), bias, tol)
            if newton is not None:
                return newton
        pi = pi * np.exp2(scores - scores.max())
        pi = np.maximum(pi / pi.sum(), 1e-280)
        pi /= pi.sum()
    return None


@given(stage_problems())
# One letter alone reaches output 1; the value rounds 2.2e-16 above the top score.
@example((np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]]), None, None, None, False))
def test_solver_matches_the_plain_fixed_point(problem):
    rows, continuation, penalty, initial, newton_start = problem
    bias = np.zeros(rows.shape[:2])
    if continuation is not None:
        bias += rows @ continuation
    if penalty is not None:
        bias -= penalty
    references = [
        _reference_state(rows[b], bias[b], None if initial is None else initial[b], newton_start)
        for b in range(rows.shape[0])
    ]
    solved = _solve(*problem)
    if any(r is None for r in references):
        return  # a state the reference cannot certify in MAX_ITER either
    assert not isinstance(solved, ConvergenceError)
    assert 0.0 <= solved.gap <= 1e-10
    assert max(r[2] for r in references) <= 1e-10
    np.testing.assert_allclose(solved.value, [r[1] for r in references], rtol=0.0, atol=1e-12)


def test_state_certified_by_the_newton_step_is_frozen_in_a_stack():
    # At multiplier 2 the costly letter of BSSC(0.95, 0.8) state 0 is just
    # dead, and state 1 at cost 0.95 keeps 0.7% on its costly letter: the
    # update crawls on both, and the Newton step at iteration 256 certifies
    # both, the first at an exact vertex.  State 1 at cost 0.5 reaches its
    # certificate early and is frozen before either.
    rows = bssc(0.95, 0.8).kernel[[0, 1, 1]]
    cost = np.array([[1.0, 0.0], [0.0, 0.95], [0.0, 0.5]])
    singles = [maximize_stage_objective(rows[b], penalty=2.0 * cost[b]) for b in range(3)]
    assert [s.iterations for s in singles[:2]] == [256, 256] and singles[2].iterations < 256
    assert singles[0].policy.tolist() == [[0.0, 1.0]] and singles[0].gap == 0.0
    assert 0.0 < singles[1].policy[0, 1] < 0.01 and singles[1].gap <= 1e-10
    stacked = maximize_stage_objective(rows, penalty=2.0 * cost)
    assert stacked.policy.tobytes() == np.concatenate([s.policy for s in singles]).tobytes()
    assert stacked.value.tobytes() == np.concatenate([s.value for s in singles]).tobytes()
    assert stacked.iterations == 512 + singles[2].iterations
    assert stacked.slowest_iterations == 256


def test_newton_step_keeps_the_only_letter_reaching_an_output(monkeypatch):
    # State 1 of channel 149 of the sparse census (seed 2024): letter 0 alone
    # reaches output 0 and holds 9e-5 of the mass at iteration 256.  The
    # Newton step's ratio test blocks at it; zeroed, it would leave output 0
    # at q = 0 and the attempt without a finite step, so the state would wait
    # for the next attempt at 512.  Kept at half its mass, it lets the
    # attempt certify.
    rng = np.random.default_rng(2024)
    for _ in range(150):
        channel = sparse_random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
    rows = channel.kernel[1]
    assert (rows[:, 0] > 0.0).tolist() == [True, False, False]
    real, results = onestage._newton_pass, []
    monkeypatch.setattr(onestage, "_newton_pass", lambda *args: results.append(real(*args)) or results[-1])
    solution = maximize_stage_objective(rows)
    assert len(results) == 1 and results[0][0].tolist() == [True]
    assert solution.iterations == 256 and solution.gap <= 1e-10
    assert 0.0 < solution.policy[0, 0] < 1e-4


def test_single_slice_is_a_stack_of_one():
    kernel = bibo_channel().kernel
    cost = np.array([[1.0, 0.0], [0.0, 0.5]])
    for b in range(2):
        kwargs = dict(continuation=[0.3, -0.2], initial=[[0.2, 0.8]])
        solution = maximize_stage_objective(kernel[b], penalty=0.7 * cost[b], **kwargs)
        stack = maximize_stage_objective(kernel[b : b + 1], penalty=0.7 * cost[b : b + 1], **kwargs)
        assert solution.policy.shape == (1, 2) and solution.value.shape == (1,)
        assert solution.policy.tobytes() == stack.policy.tobytes()
        assert solution.value.tobytes() == stack.value.tobytes()
        assert solution[2:] == stack[2:]
        assert solution.iterations == solution.slowest_iterations
        assert 0.0 <= solution.gap <= 1e-10
        scores = letter_scores(kernel[b], [0.2, 0.8], [0.3, -0.2], 0.7 * cost[b])
        stack_scores = letter_scores(kernel[b : b + 1], [[0.2, 0.8]], [0.3, -0.2], 0.7 * cost[b : b + 1])
        assert scores.shape == (1, 2) and scores.tobytes() == stack_scores.tobytes()


BAD_DIRECT_CALLS = {
    "kernel entry NaN": dict(rows=np.where(np.arange(8).reshape(2, 2, 2) == 0, np.nan, bibo_channel().kernel)),
    "tol inf": dict(tol=np.inf),
    "tol NaN": dict(tol=np.nan),
    "max_iter 2.5": dict(max_iter=2.5),
    "continuation NaN": dict(continuation=[np.nan, 0.0]),
    "penalty inf": dict(penalty=[[0.0, np.inf], [0.0, 0.0]]),
    "initial outside [0, 1]": dict(initial=[[0.5, 0.5], [2.0, -1.0]]),
}


@pytest.mark.parametrize("case", sorted(BAD_DIRECT_CALLS))
def test_a_direct_call_checks_its_arguments(case):
    # Unchecked, tol=inf certified the uniform policy after one update, a NaN
    # ran all 100,000 updates before a ConvergenceError, max_iter=2.5 raised a
    # bare TypeError and an initial policy outside [0, 1] was clipped.
    kwargs = {"rows": bibo_channel().kernel, **BAD_DIRECT_CALLS[case]}
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        maximize_stage_objective(**kwargs)
    assert time.perf_counter() - start < 0.1


def test_the_whole_stack_and_the_indexed_newton_hand_off_give_the_same_bytes(monkeypatch):
    # From uniform every state attempts Newton at update 1 and the pass takes
    # the stack's own arrays.  A 4th state warm-started at its optimum
    # certifies before the pass, so the other three are handed over by index.
    kernel = three_by_three_channel().kernel
    real, passed = onestage._newton_pass, []
    monkeypatch.setattr(onestage, "_newton_pass", lambda rows, *args: passed.append(len(rows)) or real(rows, *args))
    whole = maximize_stage_objective(kernel, _newton_start=True)
    rows = np.concatenate([kernel, kernel[:1]])
    initial = np.vstack([np.full((3, 3), 1.0 / 3.0), whole.policy[:1]])
    indexed = maximize_stage_objective(rows, initial=initial, _newton_start=True)
    assert passed == [3, 3]
    assert (whole.iterations, indexed.iterations) == (3, 4)
    assert whole.policy.tobytes() == indexed.policy[:3].tobytes()
    assert whole.value.tobytes() == indexed.value[:3].tobytes()


def test_stall_in_one_state_carries_that_states_gap():
    kernel = bibo_channel().kernel
    iterations = [maximize_stage_objective(kernel[b]).iterations for b in range(2)]
    fast, slow = np.argsort(iterations)
    budget = (iterations[fast] + iterations[slow]) // 2
    maximize_stage_objective(kernel[fast], max_iter=budget)  # the fast state alone fits
    with pytest.raises(ConvergenceError) as alone:
        maximize_stage_objective(kernel[slow], max_iter=budget)
    with pytest.raises(ConvergenceError) as stacked:
        maximize_stage_objective(kernel, max_iter=budget)
    assert stacked.value.residual == alone.value.residual > 1e-10


def test_a_channel_builds_its_prepared_kernel_once(monkeypatch):
    # RVI, PI and a 30-stage recursion on one channel share the invariants the first solve builds.
    real, built = onestage._prepare_kernel, []

    def counted(rows):
        built.append(rows.shape)
        return real(rows)

    monkeypatch.setattr(onestage, "_prepare_kernel", counted)
    channel = bssc(0.9, 0.6)
    relative_value_iteration(channel)
    policy_iteration(channel, uniform_policy(2, 2))
    solve_finite_horizon(channel, 30)
    assert built == [(2, 2, 2)]
