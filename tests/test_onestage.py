"""The per-state concave program: a stacked call is the per-state calls, bit for bit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import bibo_channel, bssc
from umco import ConvergenceError
from umco.onestage import letter_scores, maximize_stage_objective

# Small enough that every generated stack runs in milliseconds; states that
# need longer stall, which the property covers as well.
MAX_ITER = 600

entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def stage_problems(draw):
    """A kernel stack (S, A, B) and optional continuation, cost and warm start."""
    n_states = draw(st.integers(1, 6))
    n_inputs = draw(st.integers(2, 5))
    n_outputs = draw(st.integers(2, 5))
    rows = draw(hnp.arrays(float, (n_states, n_inputs, n_outputs), elements=entries))
    rows[..., 0] += rows.sum(axis=2) == 0.0  # no all-zero row
    rows /= rows.sum(axis=2, keepdims=True)
    if n_inputs > 2 and draw(st.booleans()):
        # A letter mixing two others is dominated, so the optimum sits on a
        # face of the simplex and is reached by the periodic snap.
        weight = draw(st.floats(0.1, 0.9))
        rows[:, -1] = weight * rows[:, 0] + (1.0 - weight) * rows[:, 1]
    continuation = draw(st.none() | hnp.arrays(float, n_outputs, elements=st.floats(-5.0, 5.0)))
    cost = draw(st.none() | hnp.arrays(float, (n_states, n_inputs), elements=st.floats(0.0, 2.0)))
    multiplier = draw(st.floats(0.0, 3.0)) if cost is not None else 0.0
    initial = draw(st.none() | hnp.arrays(float, (n_states, n_inputs), elements=st.floats(0.0, 1.0)))
    if initial is not None:
        initial[:, 0] += initial.sum(axis=1) == 0.0
        initial /= initial.sum(axis=1, keepdims=True)
    return rows, continuation, cost, multiplier, initial


def _solve(rows, continuation, cost, multiplier, initial):
    try:
        return maximize_stage_objective(
            rows, continuation, cost, multiplier, tol=1e-10, max_iter=MAX_ITER, initial=initial
        )
    except ConvergenceError as exc:
        return exc


@given(stage_problems())
def test_stacked_call_equals_per_state_calls(problem):
    rows, continuation, cost, multiplier, initial = problem
    stacked = _solve(rows, continuation, cost, multiplier, initial)
    singles = [
        _solve(
            rows[b],
            continuation,
            None if cost is None else cost[b],
            multiplier,
            None if initial is None else initial[b],
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


def test_state_certified_by_the_snap_is_frozen_in_a_stack():
    # At multiplier 2 the costly letter of BSSC(0.95, 0.8) state 0 is just
    # dead: the update crawls towards the vertex and only the periodic snap
    # certifies it.  State 1, the mirror image at an effective multiplier
    # of 1.9, keeps both letters and crawls on to a regular certificate.
    rows = bssc(0.95, 0.8).kernel
    cost = np.array([[1.0, 0.0], [0.0, 0.95]])
    singles = [maximize_stage_objective(rows[b], cost_row=cost[b], multiplier=2.0) for b in range(2)]
    assert (singles[0].iterations, singles[0].gap) == (256, 0.0)
    assert singles[1].iterations > 256 and singles[1].policy.min() > 0.0
    stacked = maximize_stage_objective(rows, cost_row=cost, multiplier=2.0)
    assert stacked.policy.tobytes() == np.array([s.policy for s in singles]).tobytes()
    assert stacked.value.tobytes() == np.array([s.value for s in singles]).tobytes()
    assert stacked.iterations == 256 + singles[1].iterations
    assert stacked.slowest_iterations == singles[1].iterations


def test_single_slice_is_a_stack_of_one():
    kernel = bibo_channel().kernel
    cost = np.array([[1.0, 0.0], [0.0, 0.5]])
    for b in range(2):
        kwargs = dict(continuation=[0.3, -0.2], multiplier=0.7, initial=[[0.2, 0.8]])
        solution = maximize_stage_objective(kernel[b], cost_row=cost[b], **kwargs)
        stack = maximize_stage_objective(kernel[b : b + 1], cost_row=cost[b : b + 1], **kwargs)
        assert solution.policy.shape == (1, 2) and solution.value.shape == (1,)
        assert solution.policy.tobytes() == stack.policy.tobytes()
        assert solution.value.tobytes() == stack.value.tobytes()
        assert solution[2:] == stack[2:]
        assert solution.iterations == solution.slowest_iterations
        assert 0.0 <= solution.gap <= 1e-10
        scores = letter_scores(kernel[b], [0.2, 0.8], [0.3, -0.2], cost[b], 0.7)
        stack_scores = letter_scores(kernel[b : b + 1], [[0.2, 0.8]], [0.3, -0.2], cost[b : b + 1], 0.7)
        assert scores.shape == (1, 2) and scores.tobytes() == stack_scores.tobytes()


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
