"""Per-state concave program: maximize stage information plus a linear bias.

Each dynamic-programming stage asks, for one fixed previous output, for the
input distribution maximizing

    sum_a pi(a) * [ D_a(pi) + sum_b W(b) P(b|a) - s * cost(a) ]

where D_a(pi) is the divergence of the letter's output row against the
pi-induced output.  This is a channel-capacity problem with a per-letter
bias, solved by the multiplicative fixed point

    pi'(a)  proportional to  pi(a) * 2^(D_a + bias_a)

starting from uniform.  The certificate max_a(D_a + bias_a) - objective
upper-bounds the remaining suboptimality, so iteration stops once it drops
below ``tol``.

The solver takes the kernel stack ``(S, A, B)``, one slice per previous
output, and runs one vectorised update for all S states per iteration; a
single slice ``(A, B)`` is a stack of one and gets stack-shaped results.
Each state stops at its own certificate, so it follows exactly the
trajectory (and returns exactly the policy, value, iteration count and gap)
it would follow if solved alone.  ``iterations`` is the sum of the
per-state counts (the work done, as if the states were solved one by one),
``slowest_iterations`` the count of the slowest state (the number of
vectorised updates run) and ``gap`` the worst state's gap.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import _policy_average, letter_divergences
from .errors import ConvergenceError

# Keep every letter strictly positive so induced outputs never lose support;
# mass at the floor is far below any tolerance in use.
_POLICY_FLOOR = 1e-280

# A warm start from another solve's policy (the next DP stage, a nearby cost
# multiplier) lifts every letter to this mass first.  A letter zeroed there
# would otherwise start at the 1e-280 floor and could not grow back within
# the iteration budget; from here it needs 40 bits of score excess, and a
# letter that stays dead stays far below the condition checker's support
# threshold (finite_dp.SUPPORT_EPS = 1e-9).
_WARM_START_FLOOR = 1e-12

# The multiplicative update crawls when the optimum sits on a face of the
# simplex (it only reaches the boundary asymptotically).  Every so often,
# test the candidate obtained by zeroing near-dead letters against the
# certificate, which is valid for any policy.
_SNAP_PERIOD = 256
_SNAP_THRESHOLDS = (1e-4, 1e-8)

DEFAULT_INNER_TOL = 1e-10
DEFAULT_INNER_MAX_ITER = 100_000


class StateSolution(NamedTuple):
    """Optimum of a stack of states: policy (S, A), value (S,), iterations summed and gap maximized."""

    policy: np.ndarray
    value: np.ndarray
    iterations: int
    gap: float
    slowest_iterations: int


def _letter_bias(rows, continuation, cost_row, multiplier):
    """E[continuation | b_prev, a] - multiplier * cost_row(b_prev, a) over a stack (S, A, B).

    continuation (..., B) broadcasts its leading axes (stages, say) over the
    states, giving a bias of shape (..., S, A); the cost term is skipped when
    the multiplier is None or 0.
    """
    bias = np.zeros(rows.shape[:-1])
    if continuation is not None:
        continuation = np.asarray(continuation, dtype=float)
        bias = bias + np.matmul(rows, continuation[..., None, :, None])[..., 0]
    if cost_row is not None and multiplier:
        bias = bias - multiplier * np.asarray(cost_row, dtype=float)
    return bias


def letter_scores(rows, policy, continuation=None, cost_row=None, multiplier=None) -> np.ndarray:
    """Per-letter score D_a + E[continuation | a] - s*cost(a) at a given policy.

    On the support of an optimal policy these scores all equal the stage
    value; off the support they cannot exceed it.

    rows is the kernel stack (S, A, B) only (a slice (A, B) is a stack of
    one), with policy (..., S, A), continuation (..., B) and cost_row (S, A);
    the leading axes (stages, say) broadcast and the scores are (..., S, A).
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, *np.shape(rows)[-2:])  # a slice is a stack of one
    output = np.matmul(np.asarray(policy, dtype=float)[..., None, :], rows)
    return letter_divergences(rows, output) + _letter_bias(rows, continuation, cost_row, multiplier)


def _snap(rows, pi, bias, tol):
    """Zero near-dead letters of one state's policy; return (policy, value, gap) if certified."""
    for threshold in _SNAP_THRESHOLDS:
        snapped = np.where(pi >= threshold * pi.max(), pi, 0.0)
        if np.all(snapped > 0.0):
            return None  # nothing to snap at this or any smaller threshold
        candidate = snapped / snapped.sum()
        scores = letter_divergences(rows, candidate @ rows) + bias
        value = float(_policy_average(candidate, scores))
        gap = float(scores.max() - value)
        if gap <= tol:
            return candidate, value, gap
    return None


def maximize_stage_objective(
    rows,
    continuation=None,
    cost_row=None,
    multiplier: float | None = None,
    tol: float = DEFAULT_INNER_TOL,
    max_iter: int = DEFAULT_INNER_MAX_ITER,
    initial=None,
) -> StateSolution:
    """Solve every state's concave program of a kernel stack over the input simplex.

    rows: the kernel stack P(b | b_prev, a) only, shape (n_states, n_inputs,
    n_outputs); a single slice (n_inputs, n_outputs) is a stack of one and
    gets a policy (1, n_inputs) and a value (1,).
    continuation: optional next-stage value vector W(b), shared by all states.
    cost_row, multiplier: optional linear penalty s * cost(a) of shape
    (n_states, n_inputs); skipped when the multiplier is None or 0.
    initial: optional warm-start policy, shaped like cost_row; default is
    uniform, which is also the tie-breaker among optimal policies.

    Raises ConvergenceError with the worst achieved gap if ``max_iter`` is
    hit before every state is certified.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, *np.shape(rows)[-2:])  # a slice is a stack of one
    n_states, n_inputs, _ = rows.shape
    bias = _letter_bias(rows, continuation, cost_row, multiplier)
    # Work with a centered bias: a common offset shifts every score and the
    # value alike, and removing it avoids cancellation when the offset is
    # large (e.g. a big cost multiplier).
    offset = bias.max(axis=1)
    bias = bias - offset[:, None]
    if initial is None:
        pi = np.full((n_states, n_inputs), 1.0 / n_inputs)
    else:
        pi = np.maximum(np.asarray(initial, dtype=float).reshape(n_states, n_inputs), _POLICY_FLOOR)
        pi = pi / pi.sum(axis=1, keepdims=True)
    # Loop invariants.  log2 P is 0 where P = 0, so those terms vanish as
    # long as q is finite and positive; q > 0 wherever some letter reaches
    # the output (the policy never drops below the floor), and outputs no
    # letter of a state reaches get q = 1 instead of 0.
    support = rows > 0.0
    log_rows = np.log2(np.where(support, rows, 1.0))
    unreachable = ~support.any(axis=1, keepdims=True)
    any_unreachable = bool(unreachable.any())

    policy = np.empty_like(pi)
    values = np.empty(n_states)
    gaps = np.empty(n_states)
    iterations = np.zeros(n_states, dtype=int)
    index = np.arange(n_states)  # output slot of each state still iterating
    gap = np.full(n_states, np.inf)
    for iteration in range(1, max_iter + 1):
        pi_rows = pi[:, None]
        output = np.matmul(pi_rows, rows)
        if any_unreachable:
            output += unreachable
        scores = np.add.reduce(rows * (log_rows - np.log2(output)), axis=2) + bias
        value = np.matmul(pi_rows, scores[:, :, None])[:, 0, 0]
        top = np.maximum.reduce(scores, axis=1)
        gap = top - value
        finished = gap <= tol
        if iteration % _SNAP_PERIOD == 0:
            for i in np.flatnonzero(~finished):
                snapped = _snap(rows[i], pi[i], bias[i], tol)
                if snapped is not None:
                    pi[i], value[i], gap[i] = snapped
                    finished[i] = True
        if finished.any():
            slots = index[finished]
            policy[slots] = pi[finished]
            values[slots] = value[finished] + offset[finished]
            gaps[slots] = gap[finished]
            iterations[slots] = iteration
            if finished.all():
                break
            # Freeze the certified states: the rest iterate on alone.
            running = ~finished
            rows, log_rows, unreachable, bias, offset, index, pi, scores, top = (
                a[running] for a in (rows, log_rows, unreachable, bias, offset, index, pi, scores, top)
            )
        pi = pi * np.exp2(scores - top[:, None])
        pi /= np.add.reduce(pi, axis=1, keepdims=True)
        np.maximum(pi, _POLICY_FLOOR, out=pi)
        pi /= np.add.reduce(pi, axis=1, keepdims=True)
    else:
        worst = float(gap.max())
        raise ConvergenceError(
            f"stage fixed point did not reach tol={tol:g} within {max_iter} iterations "
            f"(achieved gap {worst:.3e})",
            residual=worst,
        )
    return StateSolution(policy, values, int(iterations.sum()), float(gaps.max()), int(iterations.max()))
