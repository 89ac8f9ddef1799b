"""Accuracy census of the certified Perron solve behind the error exponent.

Draws channels with S = 2-6 states, alternating noisy-permutation kernels
(A = S) and row-normalised rng.random kernels (A = 2-4), each under the
uniform policy or a random positive one, and solves F(rho) on the grid
0:1:0.01 with one stacked ``_gallager_exponents`` call.  Each stack is
compared with a LAPACK ``np.linalg.eig`` reference.  Prints one JSON line:
max |dF| in bits, max relative deviation of the eigenvector ratio, max
relative Collatz-Wielandt bracket width and max squarings per stack.  It
also checks a 7-rate sweep (``rate_sweep_csv``, one rho search whose every
refinement level is one stacked solve over all its rates' grids) against the
CSV of its per-rate public calls, solved afresh, and counts the channels
where the two differ in any byte (``sweep_mismatches``).  Three of the rates
are slopes of the channel's own F, so their maximizers lie inside (0, 1) and
a refinement level stacks several distinct grids (5 or more at seed 2024).
Exits 1 when |dF| exceeds 1e-12 anywhere, a solve raises ConvergenceError or
a sweep mismatches:

    PYTHONPATH=src python tests/perron_census.py --channels 1000
"""

import argparse
import itertools
import json
import sys

import numpy as np

import umco
from umco.channel import _csv
from umco.exponent import _gallager_exponents, _perron_pair, _transposed_weights, rate_sweep_csv

F_TOL = 1e-12
RHOS = np.linspace(0.0, 1.0, 101)
# Rate 0, a fixed rate, one above capacity (at most log2(6) bits here), then the slopes of F
# at these rhos, whose maximizers lie near them, and a repeat of the first slope.
SWEEP_RATES = [0.0, 0.3, 3.0]
SLOPE_RHOS = (0.2, 0.5, 0.8)
SWEEP_N = 100


def noisy_permutation_channel(rng, size):
    """Each state's rows: a random permutation matrix mixed with Dirichlet noise of weight 0.02-0.3."""
    kernel = np.empty((size, size, size))
    for state in range(size):
        eps = rng.uniform(0.02, 0.3, size=(size, 1))
        kernel[state] = (1.0 - eps) * np.eye(size)[rng.permutation(size)] + eps * rng.dirichlet(np.ones(size), size)
    return umco.channel_from_kernel(kernel)


def random_channel(rng, size):
    kernel = rng.random((size, int(rng.integers(2, 5)), size))
    return umco.channel_from_kernel(kernel / kernel.sum(axis=2, keepdims=True))


def _squarings(stack):
    """Squarings the stack needs: the smallest cap under which no bracket stays open."""
    for cap in itertools.count():
        try:
            _perron_pair(stack, max_squarings=cap)
            return cap
        except umco.ConvergenceError:
            pass


def _sweep_rates(f_inf):
    """SWEEP_RATES, then the slope of F on RHOS at each of SLOPE_RHOS and that of the first again."""
    step = RHOS[1] - RHOS[0]
    slopes = [max(float(f_inf[i + 1] - f_inf[i]) / step, 0.0) for i in np.searchsorted(RHOS, SLOPE_RHOS)]
    return [*SWEEP_RATES, *slopes, slopes[0]]


def _sweep_mismatches(channel, policy, rates):
    """1 when the sweep's CSV differs in any byte from the per-rate calls', else 0."""
    rows = [
        [rate, *umco.random_coding_exponent(channel, policy, rate),
         umco.error_probability_bound(channel, policy, rate, SWEEP_N)]
        for rate in rates
    ]
    alone = _csv(["rate_bits", "E_r_bits", "rho_star", "bound_at_n"], rows)
    return int(rate_sweep_csv(channel, policy, rates, SWEEP_N) != alone)


def census(n_channels, seed=2024):
    rng = np.random.default_rng(seed)
    df = ratio_dev = width = 0.0
    squarings, failures, mismatches = 0, [], 0
    for i in range(n_channels):
        size = int(rng.integers(2, 7))
        channel = noisy_permutation_channel(rng, size) if i % 2 == 0 else random_channel(rng, size)
        if i % 4 < 2:
            policy = umco.uniform_policy(size, channel.n_inputs)
        else:
            matrix = rng.random((size, channel.n_inputs)) + 0.01
            policy = umco.InputPolicy(matrix / matrix.sum(axis=1, keepdims=True))
        try:
            f_inf, ratio, widths = _gallager_exponents(channel, policy, RHOS)
        except umco.ConvergenceError as exc:
            failures.append((i, str(exc)))
            continue
        stack = _transposed_weights(channel, policy, RHOS)
        values, vectors = np.linalg.eig(stack)
        top = values.real.argmax(axis=1)
        lam = values.real[np.arange(len(RHOS)), top]
        vec = np.abs(vectors.real[np.arange(len(RHOS)), :, top])
        ref_ratio = vec.max(axis=1) / vec.min(axis=1)
        df = max(df, float(np.abs(f_inf + np.log2(lam)).max()))
        ratio_dev = max(ratio_dev, float((np.abs(ratio - ref_ratio) / ref_ratio).max()))
        width = max(width, float(widths.max()))
        squarings = max(squarings, _squarings(stack))
        mismatches += _sweep_mismatches(channel, policy, _sweep_rates(f_inf))
    return {
        "channels": n_channels,
        "max_abs_dF": df,
        "max_ratio_rel_dev": ratio_dev,
        "max_bracket_width": width,
        "max_squarings": squarings,
        "convergence_errors": failures,
        "sweep_mismatches": mismatches,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--channels", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    result = census(args.channels, args.seed)
    print(json.dumps(result))
    sys.exit(1 if result["max_abs_dF"] > F_TOL or result["convergence_errors"] or result["sweep_mismatches"] else 0)
