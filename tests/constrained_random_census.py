"""Robustness census of the capacity-cost solver on dense random cost channels.

Draws 60 channels with S and A from {2, 3}, row-normalised ``rng.random``
kernels and ``rng.random`` cost tables, all from ``np.random.default_rng(7)``,
and two budgets per channel, kappa = floor + q (kappa_max - floor) with
q ~ U(0.1, 0.9), where floor is the minimum stationary cost and kappa_max the
cost of the unconstrained optimum.  Each channel's two budgets are solved as
one capacity-cost curve.  Prints one JSON line: stalls (points the curve
dropped, with the warning it gave), points off their budget (not binding, or
over it by more than the cost tolerance), and the RVI solves per point.

Exits 1 on any stall or setup failure, or above SOLVES_PER_POINT_GATE RVI
solves per point (the 60-channel run reads 6.658).  Points off budget are
printed but do not fail the run: where the optimum at a multiplier is a
face, the achieved cost jumps past the budget, and meeting it needs a mix
of the two policies at that multiplier, which `capacity_cost_curve` does
not build yet (9 of the 120 points end off budget).  Run it against two
source trees to compare them:

    PYTHONPATH=src python tests/constrained_random_census.py --channels 60
"""

import argparse
import json
import sys
import warnings

import numpy as np

import umco
import umco.constrained

SOLVES_PER_POINT_GATE = 7.0


def census(n_channels=60, seed=7):
    rng = np.random.default_rng(seed)
    solves, points = 0, 0
    real = umco.constrained._solve_multiplier

    def counted(*args, **kwargs):
        nonlocal solves
        solves += 1
        return real(*args, **kwargs)

    setup_failures, stalls, off_budget = [], [], []
    for i in range(n_channels):
        n_states, n_inputs = (int(n) for n in rng.choice([2, 3], size=2))
        kernel = rng.random((n_states, n_inputs, n_states))
        channel = umco.channel_from_kernel(kernel / kernel.sum(axis=2, keepdims=True))
        cost = umco.CostSpec(rng.random((n_states, n_inputs)), 0.0)
        q = rng.uniform(0.1, 0.9, size=2)
        try:
            floor = umco.minimum_average_cost(channel, cost.gamma)
            kappa_max = real(channel, cost, 0.0, 1e-10)[1]
        except umco.UmcoError as exc:
            setup_failures.append((i, str(exc)))
            continue
        kappas = [float(k) for k in floor + q * (kappa_max - floor)]
        points += len(kappas)
        umco.constrained._solve_multiplier = counted
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results = umco.capacity_cost_curve(channel, cost, kappas)
        finally:
            umco.constrained._solve_multiplier = real
        solved = {result.kappa for result in results}
        messages = [str(w.message) for w in caught]
        for kappa in kappas:
            if kappa not in solved:
                stalls.append((i, kappa, [m for m in messages if m.startswith(f"kappa={kappa:g}:")]))
        for result in results:
            if not result.binding or result.achieved_cost > result.kappa + umco.constrained.DEFAULT_COST_TOL:
                off_budget.append((i, result.kappa, result.achieved_cost))
    return {
        "points": points,
        "setup_failures": setup_failures,
        "stalls": stalls,
        "off_budget": off_budget,
        "rvi_solves_per_point": solves / points if points else 0.0,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--channels", type=int, default=60)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    result = census(args.channels, args.seed)
    print(json.dumps({**result, "n_stalls": len(result["stalls"]), "n_off_budget": len(result["off_budget"])}))
    slow = result["rvi_solves_per_point"] > SOLVES_PER_POINT_GATE
    sys.exit(1 if result["stalls"] or result["setup_failures"] or slow else 0)
