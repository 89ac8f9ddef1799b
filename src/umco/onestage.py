"""Per-state concave program: maximize stage information plus a linear bias.

Each dynamic-programming stage asks, for one fixed previous output, for the
input distribution maximizing

    sum_a pi(a) * [ D_a(pi) + sum_b W(b) P(b|a) - penalty(a) ]

where D_a(pi) is the divergence of the letter's output row against the
pi-induced output and penalty(a) = s * cost(a) the solve's cost penalty (by
``channel._cost_penalty``).  This is a channel-capacity problem with a
per-letter bias, solved by the multiplicative fixed point

    pi'(a)  proportional to  pi(a) * 2^(D_a + bias_a)

starting from uniform.  By Blahut's identity

    D_a = sum_b P(b|a) log2 P(b|a) - sum_b P(b|a) log2 q(b),

so a letter's score is a loop invariant, sum_b P log2 P + bias_a, minus one
matrix product of log2 q with the kernel; each update then normalises once
and lifts any letter below a tiny floor back to it.  The certificate
max_a(D_a + bias_a) - objective upper-bounds the remaining suboptimality of
any policy, so iteration stops once it drops below ``tol``.  It is built only
when it can pass: by Jensen's inequality the update's normaliser
sum_a pi(a) 2^(score_a - top) is at least 2^-gap (Blahut's lower bound), so
while every state's normaliser is below 2^-(tol + 1e-13) no state can
certify, and the iteration skips the value and gap reductions; they still
run on Newton iterations and the last one.  The reported gap is clamped at 0,
since the value can round above the top score.  The update reaches a face of
the simplex only asymptotically, so every 256 iterations the states not yet
certified try an active-set Newton ascent from their iterates in one batched
pass, scoring letters by the same identity: it puts exact zeros on dead
letters, lets a letter at zero mass rejoin by its score, and a state keeps
its result only once the same certificate holds.  A state tries at iteration
1 when its warm start holds an exact zero (a letter that would sit at the
floor until iteration 256) or when the caller asks, as every finite-horizon
stage does and relative value iteration does from a caller's warm start:
near the optimum Newton converges quadratically.  ``tol`` is floored at
1e-14, the rounding of a centred value.

The solver takes the kernel stack ``(S, A, B)``, one slice per previous
output, and runs one vectorised update for all S states per iteration; a
single slice ``(A, B)`` is a stack of one and gets stack-shaped results.
A channel builds the kernel's invariants (sum_b P log2 P, the transposed
stack, the unreached outputs) once for the solvers to pass in, a raw stack on
the spot; a call builds only its letter bias, warm start and work buffers.
Each state stops at its own certificate and every fixed-point update treats
the states apart, so up to its first Newton pass a state follows exactly the
trajectory it would follow if solved alone.  A batched pass couples its states:
when any of them starts from a support that is not full, the pass renormalises
and rescores all of them, so a full-support state may round differently than
alone.  It still returns only a certified result, with the same value up to
rounding, but where its optimum is not unique (dependent rows) its policy may
sit elsewhere on the optimal face.  ``iterations`` is the sum of the per-state
counts (the work done, as if the states were solved one by one),
``slowest_iterations`` the count of the slowest state (the number of
vectorised updates run) and ``gap`` the worst state's gap.  At a few dozen
entries per array an update's cost is NumPy call overhead, so each update
writes into work buffers allocated once per call, reads its largest normaliser
for the pass test from a Python list, and a call whose states all certify on
the same iteration returns its arrays directly, without the per-state slots a
partial freeze needs.  An iteration with a Newton attempt computes the
update's weights only after the attempt, as a call whose states all certify
there never uses them.  The Newton pass, too, does only the work its case
needs: while every letter holds mass, a step solves the Hessian bordered by
ones against the scores, with no masks, and a step under which no letter
loses half its mass is taken in full; the ratio test and the mask of letters
alone on an output run only when some letter would lose half.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import _policy_average, letter_divergences
from .errors import ConvergenceError

# Keep every letter strictly positive so induced outputs never lose support;
# mass at the floor is far below any tolerance in use.
_POLICY_FLOOR = 1e-280

# Iterations between the Newton attempts of an uncertified state, and steps per attempt.
_NEWTON_PERIOD = 256
_NEWTON_STEPS = 50
_LN2 = np.log(2.0)

# Slack on the Jensen bound that lets an iteration skip the certificate, for
# the rounding of the normaliser (its measured excess stays below 1e-15).
_BOUND_MARGIN = 1e-13

DEFAULT_INNER_TOL = 1e-10
DEFAULT_INNER_MAX_ITER = 100_000


class StateSolution(NamedTuple):
    """Optimum of a stack of states: read-only policy (S, A) and value (S,), iterations summed and gap maximized."""

    policy: np.ndarray
    value: np.ndarray
    iterations: int
    gap: float
    slowest_iterations: int


class _PreparedKernel(NamedTuple):
    """The read-only loop invariants of a kernel stack (S, A, B)."""

    rows: np.ndarray
    rows_t: np.ndarray  # contiguous (S, B, A)
    self_information: np.ndarray  # sum_b P log2 P of each letter (S, A), with log2 P taken as 0 where P = 0
    unreachable: np.ndarray | None  # (S, 1, B): the outputs no letter of a state reaches, None if there are none


def _prepare_kernel(rows) -> _PreparedKernel:
    """The loop invariants of a stack (S, A, B), or of a slice (A, B) as a stack of one."""
    rows = np.asarray(rows, dtype=float).reshape(-1, *np.shape(rows)[-2:])
    support = rows > 0.0
    unreachable = ~support.any(axis=1, keepdims=True)
    information = np.add.reduce(rows * np.log2(np.where(support, rows, 1.0)), axis=2)
    rows_t = np.ascontiguousarray(rows.transpose(0, 2, 1))
    kernel = _PreparedKernel(rows, rows_t, information, unreachable if unreachable.any() else None)
    for array in kernel:
        if array is not None:
            array.setflags(write=False)
    return kernel


def _letter_bias(rows, continuation, penalty):
    """E[continuation | b_prev, a] - penalty(b_prev, a) over a stack (S, A, B).

    continuation (..., B) broadcasts its leading axes (stages, say) over the
    states, giving a bias of shape (..., S, A); a penalty of None is no cost.
    """
    if continuation is None:
        bias = np.zeros(rows.shape[:-1])
    else:
        bias = np.matmul(rows, np.asarray(continuation, dtype=float)[..., None, :, None])[..., 0]
    return bias if penalty is None else bias - penalty


def letter_scores(rows, policy, continuation=None, penalty=None) -> np.ndarray:
    """Per-letter score D_a + E[continuation | a] - penalty(a) at a given policy.

    On the support of an optimal policy these scores all equal the stage
    value; off the support they cannot exceed it.

    rows is the kernel stack (S, A, B) only (a slice (A, B) is a stack of
    one), with policy (..., S, A), continuation (..., B) and penalty (S, A) or
    None; the leading axes (stages, say) broadcast and the scores are (..., S, A).
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, *np.shape(rows)[-2:])  # a slice is a stack of one
    output = np.matmul(np.asarray(policy, dtype=float)[..., None, :], rows)
    return letter_divergences(rows, output) + _letter_bias(rows, continuation, penalty)


def _newton_pass(rows, rows_t, pi, base, scores, tol):
    """Active-set Newton ascent of a stack of states' programs; return (certified, policy, value, gap).

    Letters score base - log2(q) @ R^T as in the fixed point, or +inf on an
    output no supported letter reaches.  The support starts at the letters with
    1% of the top mass and any reaching an output those miss; if every letter
    of every state in the pass is in, the first step takes the solver's scores
    at pi (no state certified) as given; otherwise every state of the pass is
    renormalised and rescored.  Each step solves [H_SS 1; 1^T 0], H = R
    diag(1/q) R^T / ln 2 with each letter's diagonal entry raised by 1e-12 of
    itself, so a flat direction (dependent rows) takes a long step and a
    near-dead letter's H_aa ~ 1/q damps no other letter.  While every letter
    of every state in the pass holds mass, that is H bordered by ones with the
    scores as right-hand side, and the value is sum_a pi_a score_a, with no
    mask; otherwise identity rows and zero scores stand for the letters off
    the support, which decouples them and steps them by exactly 0.  A step
    under which no letter loses half its mass is taken in full.  Otherwise a
    support letter does, and the ratio test always applies the sole-letter
    rule: a step leaving the simplex drops its blocking letter at exactly 0,
    and a letter alone on some output of the support never blocks but keeps
    at least half its mass, the step length coming from the other falling
    letters.  Once the support's scores are level, the best letter off it
    joins.  A state leaves once certified, or uncertified after a step that is
    not finite or _NEWTON_STEPS steps; the results hold the certified rows.
    """
    n_states, n_inputs, _ = rows.shape
    support = pi >= 1e-2 * pi.max(axis=1, keepdims=True)
    # Every letter of every live state holds mass: the systems need no
    # identity rows and the value no mask.  False is always safe, as the
    # general path gives the same bytes on a full support.
    full = support.all()
    if not full:  # a full support leaves pi, and so the scores given, as they are
        support |= np.matmul(np.matmul(support[:, None], rows) == 0.0, rows_t)[:, 0] > 0.0
        pi = np.where(support, pi, 0.0)
        pi /= pi.sum(axis=1, keepdims=True)
        scores = None
    live = np.arange(n_states)  # stack index of each state still stepping
    certified, done = np.zeros(n_states, dtype=bool), np.zeros(n_states, dtype=bool)
    policy, value, gap = np.empty((n_states, n_inputs)), np.empty(n_states), np.empty(n_states)
    for _ in range(_NEWTON_STEPS):
        output = np.matmul(pi[:, None], rows)
        dead = None if output.all() else output == 0.0  # outputs no supported letter reaches
        if scores is None:
            scores = base - np.matmul(np.log2(output if dead is None else np.where(dead, 1.0, output)), rows_t)[:, 0]
            if dead is not None:
                scores[np.matmul(dead, rows_t)[:, 0] > 0.0] = np.inf
            values = (pi * scores).sum(axis=1) if full else _policy_average(pi, scores)
            gaps = np.maximum(scores.max(axis=1) - values, 0.0)
            done = gaps <= tol
            if done.any():
                won = live[done]
                certified[won], policy[won], value[won], gap[won] = True, pi[done], values[done], gaps[done]
                if done.all():
                    break
        if not full:  # no letter can join a full support
            spread = np.where(support, scores, -np.inf).max(axis=1) - np.where(support, scores, np.inf).min(axis=1)
            level = spread <= tol
            support[level, np.where(support, -np.inf, scores).argmax(axis=1)[level]] = True
        hessian = np.matmul(rows / (output if dead is None else np.where(dead, np.inf, output)), rows_t) / _LN2
        diagonal = hessian.reshape(len(live), n_inputs * n_inputs)[:, :: n_inputs + 1]  # a view
        diagonal += 1e-12 * diagonal
        system = np.ones((len(live), n_inputs + 1, n_inputs + 1))
        system[:, -1, -1] = 0.0
        rhs = np.zeros((len(live), n_inputs + 1, 1))
        if full:
            system[:, :-1, :-1], rhs[:, :-1, 0] = hessian, scores
        else:  # identity rows off the support decouple the states
            system[:, :-1, :-1] = np.where(support[:, :, None] & support[:, None, :], hessian, np.eye(n_inputs))
            system[:, :-1, -1] = system[:, -1, :-1] = support
            rhs[:, :-1, 0] = np.where(support, scores, 0.0)
        step = np.linalg.solve(system, rhs)[:, :-1, 0]
        stepping = ~done & np.isfinite(step).all(axis=1)
        if not stepping.all():
            live, rows, rows_t, base = live[stepping], rows[stepping], rows_t[stepping], base[stepping]
            pi, support, step = pi[stepping], support[stepping], step[stepping]
            if not len(live):
                break
        if (pi + 2.0 * step).min(initial=0.0) >= 0.0:
            # No letter loses half its mass: the ratio test, the sole-reach
            # mask and the floor below all leave the full step.
            pi = pi + step
        else:  # a support letter loses half its mass: one alone on an output keeps it
            falling = support & (step < 0.0)
            reach = (rows > 0.0) & support[:, :, None]
            sole = (reach & (reach.sum(axis=1, keepdims=True) == 1)).any(axis=2)
            ratios = np.where(falling & ~sole, pi / np.where(falling, -step, 1.0), np.inf)
            floor = np.where(sole, 0.5 * pi, 0.0)
            blocking = ratios.argmin(axis=1)
            states = np.arange(len(live))
            ratio = ratios[states, blocking]
            length, dropped = np.minimum(1.0, ratio), ratio <= 1.0
            pi = np.maximum(pi + length[:, None] * step, floor)
            pi[states[dropped], blocking[dropped]] = 0.0
        pi /= pi.sum(axis=1, keepdims=True)
        support, scores = pi > 0.0, None
        full = support.all()
    return certified, policy[certified], value[certified], gap[certified]


def maximize_stage_objective(
    rows,
    continuation=None,
    penalty=None,
    tol: float = DEFAULT_INNER_TOL,
    max_iter: int = DEFAULT_INNER_MAX_ITER,
    initial=None,
    *,
    _newton_start: bool = False,
) -> StateSolution:
    """Solve every state's concave program of a kernel stack over the input simplex.

    rows: the kernel stack P(b | b_prev, a) only, shape (n_states, n_inputs,
    n_outputs), or a channel's ``_prepared_kernel``; a single slice (n_inputs,
    n_outputs) is a stack of one and gets a policy (1, n_inputs) and a value (1,).
    continuation: optional next-stage value vector W(b), shared by all states.
    penalty: optional cost penalty s * cost(b_prev, a) of shape (n_states,
    n_inputs), subtracted from the letter bias; None is no cost.
    initial: optional warm-start policy, shaped like penalty; default is
    uniform, which is also the tie-breaker among optimal policies.
    _newton_start: internal; every state not certified at iteration 1 tries Newton there.

    Raises ConvergenceError with the worst achieved gap if ``max_iter`` is
    hit before every state is certified.
    """
    tol = max(tol, 1e-14)  # the rounding of a centred value: no state certifies below it
    kernel = rows if isinstance(rows, _PreparedKernel) else _prepare_kernel(rows)
    rows, rows_t, unreachable = kernel.rows, kernel.rows_t, kernel.unreachable
    n_states, n_inputs, _ = rows.shape
    bias = _letter_bias(rows, continuation, penalty)
    # Work with a centered bias: a common offset shifts every score and the
    # value alike, and removing it avoids cancellation when the offset is
    # large (e.g. a big cost multiplier).
    offset = bias.max(axis=1)
    bias -= offset[:, None]
    # Vectors are kept as (S, 1, n) rows so each product is one batched matmul.
    first_attempt = np.ones(n_states, dtype=bool) if _newton_start else None
    if initial is None:
        pi = np.full((n_states, 1, n_inputs), 1.0 / n_inputs)
    else:
        pi = np.asarray(initial, dtype=float).reshape(n_states, 1, n_inputs)
        if first_attempt is None:
            # A letter warm-started at exactly 0 would sit at the floor until
            # the first periodic Newton attempt; such a state tries one at once.
            zero = (pi == 0.0).any(axis=(1, 2))
            first_attempt = zero if zero.any() else None
        pi = np.maximum(pi, _POLICY_FLOOR)
        pi /= pi.sum(axis=2, keepdims=True)
    # By Blahut's identity a score is base_a - (log2 q @ R^T)_a, base = sum_b P log2 P
    # + bias: the P = 0 terms vanish as q > 0 wherever a letter reaches the output
    # (pi stays above the floor), and unreached outputs get q = 1 instead of 0.
    base = (kernel.self_information + bias)[:, None]
    # Work buffers, written in place by every update; after a freeze the
    # first rows hold the states still iterating.
    output = np.empty((n_states, 1, rows.shape[2]))
    scores = np.empty((n_states, 1, n_inputs))
    weights = np.empty((n_states, 1, n_inputs))
    top = np.empty((n_states, 1, 1))
    total = np.empty((n_states, 1, 1))
    floor = np.array(_POLICY_FLOOR)  # a Python float would be converted on every update

    index = None  # output slot of each state still iterating, from the first partial freeze on
    gap = np.inf
    # By Jensen's inequality the update's normaliser, sum_a pi_a 2^(score_a -
    # top), is at least 2^-gap, so no state can certify while every
    # normaliser stays below this.
    certifiable = 2.0 ** -(tol + _BOUND_MARGIN)
    for iteration in range(1, max_iter + 1):
        np.matmul(pi, rows, out=output)
        if unreachable is not None:
            output += unreachable
        np.log2(output, out=output)
        np.matmul(output, rows_t, out=scores)
        np.subtract(base, scores, out=scores)
        np.maximum.reduce(scores, axis=2, keepdims=True, out=top)
        newton_due = iteration % _NEWTON_PERIOD == 0 or (iteration == 1 and first_attempt is not None)
        if not newton_due:  # an attempt defers the update's weights until its states may all have certified
            np.subtract(scores, top, out=weights)
            np.exp2(weights, out=weights)
            np.multiply(pi, weights, out=weights)
            np.add.reduce(weights, axis=2, keepdims=True, out=total)
        # The largest normaliser is read from a list: on a few states that
        # costs a fraction of total.max(), and the test runs on every update.
        if newton_due or iteration == max_iter or max(total.ravel().tolist()) >= certifiable:
            # An elementwise sum, not a BLAS dot, whose rounding may depend on
            # the order of the letters: mirror-image states keep equal values.
            value = np.add.reduce(pi * scores, axis=2)[:, 0]
            gap = top[:, 0, 0] - value
            finished = gap <= tol
            if newton_due:
                attempts = np.flatnonzero(~finished if iteration > 1 else ~finished & first_attempt)
                if len(attempts):
                    newton = _newton_pass(
                        rows[attempts], rows_t[attempts], pi[attempts, 0], base[attempts, 0], scores[attempts, 0], tol
                    )
                    won = attempts[newton[0]]
                    pi[won, 0], value[won], gap[won] = newton[1:]
                    finished[won] = True
            certified = np.count_nonzero(finished)  # cheaper than .any() and .all() on a few states
            if index is None and certified == len(finished):
                # Every state certified together: no slots to fill.
                gap = np.maximum(gap, 0.0)  # the value may round above the top score
                policy, values = pi[:, 0], value + offset
                policy.setflags(write=False)  # a view of the work buffer pi
                values.setflags(write=False)
                return StateSolution(policy, values, iteration * n_states, float(gap.max()), iteration)
            if newton_due:  # the deferred weights: a won state's row is dropped by the freeze below
                np.multiply(pi, np.exp2(scores - top), out=weights)
                np.add.reduce(weights, axis=2, keepdims=True, out=total)
            if certified:
                if index is None:
                    index = np.arange(n_states)
                    policy = np.empty((n_states, n_inputs))
                    values = np.empty(n_states)
                    gaps = np.empty(n_states)
                    iterations = np.zeros(n_states, dtype=int)
                slots = index[finished]
                policy[slots] = pi[finished, 0]
                values[slots] = value[finished] + offset[finished]
                gaps[slots] = np.maximum(gap[finished], 0.0)
                iterations[slots] = iteration
                if certified == len(finished):
                    break
                # Freeze the certified states: the rest iterate on alone.
                running = ~finished
                rows, rows_t, base, offset, index, pi, weights, total = (
                    a[running] for a in (rows, rows_t, base, offset, index, pi, weights, total)
                )
                if unreachable is not None:
                    unreachable = unreachable[running]
                output, scores, top = output[: len(index)], scores[: len(index)], top[: len(index)]
        np.divide(weights, total, out=pi)
        np.maximum(pi, floor, out=pi)
    else:
        worst = float(np.max(gap))
        raise ConvergenceError(
            f"stage fixed point did not reach tol={tol:g} within {max_iter} iterations "
            f"(achieved gap {worst:.3e})",
            residual=worst,
        )
    policy.setflags(write=False)
    values.setflags(write=False)
    return StateSolution(policy, values, int(iterations.sum()), float(gaps.max()), int(iterations.max()))
