"""Robustness census of the constrained driver on BSSC channels.

Draws BSSC(alpha, beta) channels uniformly from the box alpha in [0.8, 0.99],
beta in [0.6, 0.85], adds BSSC(0.8275, 0.5769), and solves the capacity-cost
curve of each at kappa = 0.2, 0.3 and 0.4 with one ``capacity_cost_curve``
call, the path of the benchmark and the CLI.  Prints one JSON line: stalls
(points the curve dropped, with the warning it gave), points off the closed
form by more than 1e-6, and the RVI solves per point.  Exits nonzero on any
stall or wrong point, or when the solves per point exceed
SOLVES_PER_POINT_GATE.  Run it against two source trees to compare them:

    PYTHONPATH=src python tests/constrained_stress.py --channels 100
"""

import argparse
import json
import sys
import warnings

import numpy as np

import umco
import umco.constrained

KAPPAS = (0.2, 0.3, 0.4)
ALPHA_RANGE = (0.8, 0.99)
BETA_RANGE = (0.6, 0.85)
# Bisection dropped every point of this BSSC: its first midpoint, 0.5,
# warm-started from the solve at 1, stalls the inner solver.
STALLED = (0.8275, 0.5769)
CLOSED_FORM_TOL = 1e-6
# Inverse interpolation on the dual trace reads 3.10 at 300 channels;
# Illinois false position, the search before it, read 4.36.
SOLVES_PER_POINT_GATE = 3.5


def census(n_channels, seed=2024):
    rng = np.random.default_rng(seed)
    low, high = (ALPHA_RANGE[0], BETA_RANGE[0]), (ALPHA_RANGE[1], BETA_RANGE[1])
    pairs = [tuple(rng.uniform(low, high).tolist()) for _ in range(n_channels)] + [STALLED]
    solves = 0
    real = umco.constrained._solve_multiplier

    def counted(*args, **kwargs):
        nonlocal solves
        solves += 1
        return real(*args, **kwargs)

    stalls, wrong = [], []
    gamma = umco.bssc_cost_function()
    umco.constrained._solve_multiplier = counted
    try:
        for alpha, beta in pairs:
            channel = umco.bssc_channel(umco.BSSCParams(alpha, beta))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                points = umco.capacity_cost_curve(channel, umco.CostSpec(gamma, 0.0), KAPPAS)
            solved = {point.kappa for point in points}
            messages = [str(w.message) for w in caught]
            for kappa in KAPPAS:
                if kappa not in solved:
                    stalls.append((alpha, beta, kappa, [m for m in messages if m.startswith(f"kappa={kappa:g}:")]))
            for point in points:
                exact = umco.bssc_constrained_closed_form(umco.BSSCParams(alpha, beta), point.kappa).capacity
                if abs(point.capacity - exact) > CLOSED_FORM_TOL:
                    wrong.append((alpha, beta, point.kappa, point.capacity - exact))
    finally:
        umco.constrained._solve_multiplier = real
    points = len(pairs) * len(KAPPAS)
    return {"points": points, "stalls": stalls, "wrong": wrong, "rvi_solves_per_point": solves / points}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--channels", type=int, default=300)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    result = census(args.channels, args.seed)
    print(json.dumps({**result, "n_stalls": len(result["stalls"]), "n_wrong": len(result["wrong"])}))
    slow = result["rvi_solves_per_point"] > SOLVES_PER_POINT_GATE
    sys.exit(1 if result["stalls"] or result["wrong"] or slow else 0)
