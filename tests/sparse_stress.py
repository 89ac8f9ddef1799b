"""Robustness census of the finite-horizon DP on sparse random channels.

Draws channels with S = 2-4 states, A = 2-5 inputs and kernel entries zeroed
with probability 0.4, solves the horizon-20 recursion and checks the
per-letter conditions at tol 1e-8.  Prints one JSON line: solver stalls
(ConvergenceError), channels the checker flags with the stage, state and
letter of each one's worst violation (and that letter's policy mass), the
summed slowest-state inner iterations, the number of stages the stationary
tail filled instead of solving (a count of 0), and the inner solver's per-state
Newton attempts, read from each batched Newton pass's result, with the
channel of every state one left uncertified.  Exits nonzero on any stall,
any such state, a census that counts no Newton attempt at all (the counter
no longer sees the solver's Newton pass), or more flagged channels than
MAX_FLAGGED.  That is 0: every stage tries Newton at its first update, which
takes a dying letter to 0 or far below the checker's 1e-9 support threshold
instead of leaving it in the fixed point's slow tail, so at seed 2024 over
600 channels no channel is flagged (the inner certificate alone does not
bound the per-letter conditions: the fixed point left 9 flagged, and seeds 7
and 11 still flag 0 and 2).  Run it against two source trees to compare them:

    PYTHONPATH=src python tests/sparse_stress.py --channels 600
"""

import argparse
import json
import sys

import numpy as np

import umco
import umco.onestage

# The flagged count at seed 2024 over 600 channels; more fail the census.
MAX_FLAGGED = 0


def sparse_random_channel(rng, n_states, n_inputs, density=0.6):
    """Random kernel whose entries are zero with probability 1 - density (no all-zero row)."""
    kernel = rng.random((n_states, n_inputs, n_states)) * (rng.random((n_states, n_inputs, n_states)) < density)
    kernel[..., 0] += kernel.sum(axis=2) == 0.0
    kernel /= kernel.sum(axis=2, keepdims=True)
    return umco.channel_from_kernel(kernel)


def census(n_channels, seed=2024, horizon=20, tol=1e-8):
    rng = np.random.default_rng(seed)
    stalls, flagged, worst, iterations, filled = [], [], [], 0, 0
    newton_attempts, uncertified = 0, []
    real = umco.onestage._newton_pass

    def counted(*args):
        nonlocal newton_attempts
        result = real(*args)
        certified = result[0]
        newton_attempts += len(certified)
        uncertified.extend([i] * int(np.count_nonzero(~certified)))
        return result

    umco.onestage._newton_pass = counted
    try:
        for i in range(n_channels):
            channel = sparse_random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
            try:
                solution = umco.solve_finite_horizon(channel, horizon)
            except umco.ConvergenceError:
                stalls.append(i)
                continue
            iterations += sum(solution.inner_iterations)
            filled += solution.inner_iterations.count(0)
            report = umco.verify_optimality_conditions(channel, solution, tol=tol)
            if not report.passed:
                flagged.append(i)
                stage, state, letter = np.unravel_index(report.violations.argmax(), report.violations.shape)
                worst.append({
                    "channel": i,
                    "stage": int(stage),
                    "state": int(state),
                    "letter": int(letter),
                    "violation": report.worst_violation,
                    "mass": float(solution.policies[stage, state, letter]),
                })
    finally:
        umco.onestage._newton_pass = real
    return {
        "channels": n_channels,
        "stalls": stalls,
        "flagged": flagged,
        "flagged_worst": worst,
        "slowest_state_iterations": iterations,
        "filled_stages": filled,
        "newton_attempts": newton_attempts,
        "newton_uncertified": uncertified,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--channels", type=int, default=600)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    result = census(args.channels, args.seed)
    counts = {f"n_{key}": len(result[key]) for key in ("stalls", "flagged", "newton_uncertified")}
    print(json.dumps({**result, **counts}))
    failed = result["stalls"] or result["newton_uncertified"] or not result["newton_attempts"]
    sys.exit(1 if failed or len(result["flagged"]) > MAX_FLAGGED else 0)
