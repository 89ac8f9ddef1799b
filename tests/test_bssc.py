"""Closed-form state-symmetric channel solutions and the no-feedback induction."""

import dataclasses
import warnings

import numpy as np
import pytest

import umco.bssc
from conftest import random_channel
from umco import (
    BSSCParams,
    BSSCSolution,
    CostSpec,
    DimensionMismatchError,
    Distribution,
    InputPolicy,
    MarkovInput,
    ValidationError,
    average_cost,
    binary_entropy,
    bssc_channel,
    bssc_closed_form,
    bssc_constrained_closed_form,
    bssc_cost_function,
    bssc_nofeedback_markov,
    bssc_optimal_policy,
    induced_output_kernel,
    nofb_induction_deviations,
    relative_value_iteration,
    uniform_policy,
    verify_nofb_induces_fb,
)
from umco.bssc import bssc_grid_csv, bssc_kappa_csv

GRID = [
    (a, b)
    for a in (0.55, 0.65, 0.75, 0.85, 0.95)
    for b in (0.55, 0.65, 0.75, 0.85, 0.95)
    if a != b
]


def test_channel_construction_best_worst():
    channel = bssc_channel(BSSCParams(1.0, 0.5))
    assert np.array_equal(channel.kernel[0, 0], [1.0, 0.0])
    assert np.array_equal(channel.kernel[0, 1], [0.5, 0.5])


def test_channel_construction_general():
    channel = bssc_channel(BSSCParams(0.9, 0.2))
    assert channel.kernel[0, 0, 0] == 0.9
    assert channel.kernel[0, 1, 0] == 0.8
    assert channel.kernel[1, 0, 0] == 0.2
    assert channel.kernel[1, 1, 0] == pytest.approx(0.1)


def test_params_validation():
    with pytest.raises(ValueError):
        BSSCParams(1.2, 0.5)
    with pytest.raises(ValueError):
        BSSCParams(0.5, -0.1)


def test_cost_function_table():
    gamma = bssc_cost_function()
    assert gamma[0, 0] == 1.0 and gamma[1, 1] == 1.0
    assert gamma[0, 1] == 0.0 and gamma[1, 0] == 0.0
    assert np.all(gamma.sum(axis=1) == 1.0)


def test_closed_form_best_worst():
    solution = bssc_closed_form(BSSCParams(1.0, 0.5))
    assert solution.bssc_exponent == -2.0
    assert solution.lam == 0.8
    assert solution.nu == 0.6
    assert abs(solution.capacity - 0.3219) < 1e-4
    assert abs(solution.capacity - (binary_entropy(0.2) - 0.4)) < 1e-15


def test_closed_form_memoryless_branch():
    solution = bssc_closed_form(BSSCParams(0.9, 0.9))
    assert solution.lam == 0.5 and solution.nu == 0.5 and solution.bssc_exponent == 0.0
    assert abs(solution.capacity - (1.0 - binary_entropy(0.9))) < 1e-15


def test_output_diagonal_is_derived_from_the_exponent_bit_for_bit():
    # lam is not stored: it is 1 / (1 + 2^mu), the expression the closed form always used.
    assert "lam" not in {field.name for field in dataclasses.fields(BSSCSolution)}
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 2).tolist()
    off_the_singular_line = [(a, b) for a in grid for b in grid if abs(a + b - 1.0) > 1e-9]
    assert len(off_the_singular_line) == 101 * 100
    for a, b in off_the_singular_line:
        params = BSSCParams(a, b)
        solution = bssc_closed_form(params)
        mu = 0.0 if a == b else (binary_entropy(b) - binary_entropy(a)) / (1.0 - a - b)
        assert solution.bssc_exponent == mu and solution.lam == 1.0 / (1.0 + 2.0**mu)
        for kappa in (0.2, solution.nu):  # 0.2 is slack where nu < 0.2; kappa = nu always binds
            assert bssc_constrained_closed_form(params, kappa).lam == solution.lam


def test_closed_form_singular_line_rejected():
    with pytest.raises(ValueError, match="denominator"):
        bssc_closed_form(BSSCParams(0.7, 0.3))


def test_closed_form_range_guard_names_the_cancellation_near_the_singular_line():
    # Past the exact-line test, nu = (1 - (1 - beta) * scale) / ((alpha + beta - 1) * scale)
    # loses every digit to cancellation; here it reads about -1127.
    with pytest.raises(ValidationError, match="near the singular line alpha \\+ beta = 1 .* cancels") as exc_info:
        bssc_closed_form(BSSCParams(0.3, 0.7 + 1e-10))
    assert "relabel" not in str(exc_info.value)


# nu of the closed form at |alpha + beta - 1| = 1.2e-3, just outside the refused band, evaluated from the
# same formula in 60-digit arithmetic (mpmath).
NEAR_LINE_NU = {
    (0.48, 0.5212): 0.49999174598215095475,
    (0.52, 0.4788): 0.49999174598215095475,
    (0.3, 0.7012): 0.49990436660560207085,
    (0.1, 0.9012): 0.49955249655874652403,
    (0.9, 0.0988): 0.49955249655874653431,
}


def test_closed_form_refuses_the_band_where_nu_cancels():
    # Inside |alpha + beta - 1| < 1e-3 the formula for nu lost up to 4e-9 at 1e-4, 4e-5 at 1e-6 and 0.44
    # at 1e-8 (worst over alpha = 0.01..0.99) with nu still in [0, 1], so no range guard saw it; just
    # outside the band it holds 1e-11.
    for (a, b), nu in NEAR_LINE_NU.items():
        assert abs(bssc_closed_form(BSSCParams(a, b)).nu - nu) <= 1e-11, (a, b)
    for delta in (9.9e-4, 2e-4, 1e-6, 1e-8, -1e-4, -9.9e-4):
        with pytest.raises(ValidationError, match="near the singular line alpha \\+ beta = 1 .* cancels"):
            bssc_closed_form(BSSCParams(0.3, 0.7 + delta))


def test_closed_form_matches_numerics():
    for a, b in [(0.95, 0.8), (0.1, 0.4), (0.85, 0.6)]:
        closed = bssc_closed_form(BSSCParams(a, b))
        numeric = relative_value_iteration(bssc_channel(BSSCParams(a, b)), tol=1e-9)
        assert abs(closed.capacity - numeric.gain) < 1e-6


def test_closed_form_matches_numerics_on_grid():
    for a, b in GRID:
        closed = bssc_closed_form(BSSCParams(a, b))
        numeric = relative_value_iteration(bssc_channel(BSSCParams(a, b)), tol=1e-9)
        assert abs(closed.capacity - numeric.gain) < 1e-6


def test_optimal_output_kernel_is_doubly_stochastic():
    for a, b in GRID:
        params = BSSCParams(a, b)
        kernel = induced_output_kernel(bssc_channel(params), bssc_optimal_policy(params)).matrix
        assert kernel[0, 0] == kernel[1, 1]
        assert kernel[0, 1] == kernel[1, 0]
        assert abs(kernel[0, 0] - bssc_closed_form(params).lam) < 1e-12
        assert np.abs(kernel.sum(axis=0) - 1.0).max() <= 1e-12


def test_occupancy_identity():
    for a, b in [(1.0, 0.5), (0.95, 0.8), (0.75, 0.55)]:
        params = BSSCParams(a, b)
        solution = bssc_closed_form(params)
        cost = average_cost(
            bssc_channel(params), bssc_optimal_policy(params), CostSpec(bssc_cost_function(), 0.0)
        )
        assert abs(cost - solution.nu) < 1e-9


def test_constrained_closed_form_boundary():
    solution = bssc_constrained_closed_form(BSSCParams(1.0, 0.5), 0.6)
    assert solution.constrained
    assert solution.lam_bar == pytest.approx(0.8, abs=1e-15)
    assert abs(solution.capacity - 0.3219) < 1e-4


def test_constrained_closed_form_zero_budget():
    solution = bssc_constrained_closed_form(BSSCParams(1.0, 0.5), 0.0)
    assert solution.lam_bar == 0.5
    assert abs(solution.capacity) < 1e-15


def test_constrained_closed_form_interior():
    solution = bssc_constrained_closed_form(BSSCParams(1.0, 0.5), 0.5)
    assert solution.lam_bar == 0.75
    assert abs(solution.capacity - 0.31128) < 1e-5


def test_constrained_closed_form_slack_budget():
    solution = bssc_constrained_closed_form(BSSCParams(1.0, 0.5), 0.9)
    assert not solution.constrained
    assert solution.kappa == 0.9
    assert abs(solution.capacity - 0.3219) < 1e-4


def test_a_point_is_constrained_exactly_when_it_carries_lam_bar():
    binding = bssc_constrained_closed_form(BSSCParams(1.0, 0.5), 0.5)
    assert binding.constrained and not dataclasses.replace(binding, lam_bar=None).constrained


def test_constrained_monotone_then_flat():
    params = BSSCParams(1.0, 0.5)
    curve = [bssc_constrained_closed_form(params, k).capacity for k in np.arange(0.0, 1.01, 0.05)]
    kappa_max = bssc_closed_form(params).nu
    for k, (c1, c2) in zip(np.arange(0.0, 1.0, 0.05), zip(curve, curve[1:])):
        if k + 0.05 <= kappa_max + 1e-12:
            assert c2 >= c1 - 1e-12
        if k >= kappa_max:
            assert abs(c2 - curve[-1]) < 1e-12


def test_constrained_budget_validation():
    with pytest.raises(ValueError):
        bssc_constrained_closed_form(BSSCParams(1.0, 0.5), 1.2)


def test_markov_input_best_worst():
    markov = bssc_nofeedback_markov(BSSCParams(1.0, 0.5), 0.6)
    assert markov.sigma == pytest.approx(0.8, abs=1e-15)
    assert abs(markov.matrix[0, 0] - 2.0 / 3.0) < 1e-12
    assert abs(markov.matrix[0, 1] - 1.0 / 3.0) < 1e-12


def test_markov_input_symmetric_params_memoryless():
    markov = bssc_nofeedback_markov(BSSCParams(0.9, 0.9), 0.5)
    assert markov.matrix[0, 0] == 0.5


def test_markov_input_degenerate_sigma():
    with pytest.raises(ValueError, match="sigma"):
        bssc_nofeedback_markov(BSSCParams(0.5, 0.5), 0.3)


def test_markov_input_validation():
    with pytest.raises(ValueError):
        MarkovInput(np.array([[0.7, 0.2], [0.3, 0.7]]), sigma=0.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MarkovInput([[0.7, 0.2], [0.3, 0.7]], sigma=0.5),
        lambda: MarkovInput([0.5, 0.5], sigma=0.5),
        lambda: MarkovInput([[1.0, 0.0], [0.5, 0.5]], sigma=1.5),
        lambda: BSSCParams(1.5, 0.5),
        lambda: BSSCParams(0.5, np.nan),
        lambda: bssc_closed_form(BSSCParams(0.6, 0.4)),
        lambda: bssc_constrained_closed_form(BSSCParams(1.0, 0.5), 1.2),
        lambda: bssc_nofeedback_markov(BSSCParams(0.5, 0.5), 0.3),
        lambda: bssc_nofeedback_markov(BSSCParams(0.9, 0.2), 0.3),
    ],
    ids=[
        "markov-row-sum",
        "markov-1d",
        "markov-sigma",
        "alpha",
        "beta-nan",
        "singular-line",
        "kappa",
        "sigma-half",
        "markov-entries",
    ],
)
def test_bssc_input_rules_raise_validation_error(build):
    with pytest.raises(ValidationError):
        build()


def test_markov_input_copies_the_callers_array():
    matrix = np.eye(2)
    markov = MarkovInput(matrix, sigma=0.0)
    assert matrix.flags.writeable and not markov.matrix.flags.writeable
    assert isinstance(markov.sigma, float)


def test_nofb_induces_fb_best_worst():
    params = BSSCParams(1.0, 0.5)
    channel = bssc_channel(params)
    target = bssc_optimal_policy(params)
    markov = bssc_nofeedback_markov(params, 0.6)
    assert verify_nofb_induces_fb(channel, markov, target, Distribution.uniform(2), 10, tol=1e-9)


def test_nofb_perturbed_markov_fails_by_stage_two():
    params = BSSCParams(1.0, 0.5)
    channel = bssc_channel(params)
    target = bssc_optimal_policy(params)
    perturbed = MarkovInput(np.array([[0.7, 0.3], [0.3, 0.7]]), sigma=0.8)
    assert not verify_nofb_induces_fb(channel, perturbed, target, Distribution.uniform(2), 10, tol=1e-9)
    records = nofb_induction_deviations(channel, perturbed, target, Distribution.uniform(2), 10)
    first_bad = min(stage for stage, dev, _ in records if dev > 1e-9)
    assert first_bad <= 2
    # deviation keeps growing past the tolerance: 0.020 at stage 1, 0.024 at stage 2
    assert records[1][1] > 0.02
    assert records[2][1] > records[1][1]


def test_nofb_horizon_zero_is_trivially_true():
    params = BSSCParams(1.0, 0.5)
    ok = verify_nofb_induces_fb(
        bssc_channel(params),
        bssc_nofeedback_markov(params, 0.6),
        bssc_optimal_policy(params),
        Distribution.uniform(2),
        0,
        tol=1e-12,
    )
    assert ok


def _nofb_records_per_state(channel, markov_input, target_policy, initial, horizon):
    """The per-state loop the masked expression replaced, kept as the oracle."""
    target = target_policy.matrix
    records = [(0, 0.0, ())]
    joint = np.einsum("m,ma,mab->ab", initial.weights, target, channel.kernel)
    for stage in range(1, horizon + 1):
        state_mass = joint.sum(axis=0)
        skipped = tuple(int(b) for b in np.nonzero(state_mass <= 0.0)[0])
        deviation = 0.0
        for b in range(channel.n_states):
            if state_mass[b] > 0.0:
                induced = (joint[:, b] / state_mass[b]) @ markov_input.matrix
                deviation = max(deviation, float(np.abs(induced - target[b]).max()))
        records.append((stage, deviation, skipped))
        joint = np.einsum("cb,bcd->cd", np.einsum("ab,ac->cb", joint, markov_input.matrix), channel.kernel)
    return records


def _random_stochastic(rng, shape):
    matrix = rng.random(shape)
    matrix[rng.random(shape) < 0.3] = 0.0
    matrix[..., 0] += 1e-3
    return matrix / matrix.sum(axis=-1, keepdims=True)


def test_nofb_records_match_the_per_state_loop(rng):
    for trial in range(40):
        n_states, n_inputs = rng.integers(2, 5, size=2)
        kernel = _random_stochastic(rng, (n_states, n_inputs, n_states))
        if trial % 2:
            kernel[:, :, -1] = 0.0  # the last output is never reached
            kernel[:, :, 0] += 1.0 - kernel.sum(axis=2)
        channel = umco.channel_from_kernel(kernel)
        markov = MarkovInput(_random_stochastic(rng, (n_inputs, n_inputs)), sigma=0.5)
        target = InputPolicy(_random_stochastic(rng, (n_states, n_inputs)))
        initial = Distribution.point_mass(n_states, 0) if trial % 3 else Distribution.uniform(n_states)
        got = nofb_induction_deviations(channel, markov, target, initial, 6)
        want = _nofb_records_per_state(channel, markov, target, initial, 6)
        assert [(s, k) for s, _, k in got] == [(s, k) for s, _, k in want]
        assert all(isinstance(b, int) for _, _, skipped in got for b in skipped)
        assert max(abs(g[1] - w[1]) for g, w in zip(got, want)) <= 1e-15
    assert any(skipped for _, _, skipped in got)


def test_nofb_rejects_mismatched_inputs():
    params = BSSCParams(1.0, 0.5)
    channel = bssc_channel(params)
    markov = bssc_nofeedback_markov(params, 0.6)
    target = bssc_optimal_policy(params)
    three_state = umco.channel_from_kernel(np.full((3, 2, 3), 1.0 / 3.0))
    uniform = Distribution.uniform(2)
    with pytest.raises(DimensionMismatchError):  # 2x2 target on a 3-state channel
        nofb_induction_deviations(three_state, markov, target, Distribution.uniform(3), 3)
    with pytest.raises(DimensionMismatchError):  # 2-state initial law on a 3-state channel
        nofb_induction_deviations(three_state, markov, uniform_policy(3, 2), uniform, 3)
    with pytest.raises(DimensionMismatchError):  # 3-letter Markov input on a binary channel
        nofb_induction_deviations(channel, MarkovInput(np.eye(3), sigma=0.5), target, uniform, 3)
    for horizon in (2.5, -1, None):
        with pytest.raises(ValidationError, match="horizon"):
            nofb_induction_deviations(channel, markov, target, uniform, horizon)


def test_nofb_point_mass_initial_flags_skipped_states():
    # a noiseless state keeps one output unreachable for a while
    params = BSSCParams(1.0, 0.0)
    channel = bssc_channel(params)
    target = InputPolicy([[1.0, 0.0], [0.0, 1.0]])
    markov = MarkovInput(np.eye(2), sigma=0.0)
    records = nofb_induction_deviations(channel, markov, target, Distribution.point_mass(2, 0), 3)
    assert any(skipped for _, _, skipped in records)


def test_nofb_verifier_warns_about_the_skipped_stages():
    params = BSSCParams(1.0, 0.0)
    target = InputPolicy([[1.0, 0.0], [0.0, 1.0]])
    markov = MarkovInput(np.eye(2), sigma=0.0)
    with pytest.warns(UserWarning, match=r"^\d+ stages had zero-probability states; their conditionals were skipped$"):
        assert verify_nofb_induces_fb(bssc_channel(params), markov, target, Distribution.point_mass(2, 0), 3, tol=1e-9)


def test_nofb_induction_across_grid():
    for a, b in GRID:
        params = BSSCParams(a, b)
        solution = bssc_closed_form(params)
        markov = bssc_nofeedback_markov(params, solution.nu)
        ok = verify_nofb_induces_fb(
            bssc_channel(params),
            markov,
            bssc_optimal_policy(params),
            Distribution.uniform(2),
            50,
            tol=1e-9,
        )
        assert ok, (a, b)


def test_grid_csv_skips_singular_points():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        text = bssc_grid_csv([0.6], [0.4, 0.8])
    assert len(caught) == 1  # (0.6, 0.4) sits on the singular line
    lines = text.strip().splitlines()
    assert lines[0].startswith("alpha,beta,kappa,capacity_bits")
    assert len(lines) == 2


def test_grid_csv_lets_errors_other_than_input_rules_through(monkeypatch):
    def broken(params):
        raise ValueError("not an input rule")

    monkeypatch.setattr(umco.bssc, "bssc_closed_form", broken)
    with pytest.raises(ValueError, match="not an input rule"):
        bssc_grid_csv([0.6], [0.8])


def test_kappa_csv_values():
    text = bssc_kappa_csv(BSSCParams(1.0, 0.5), [0.0, 0.5, 1.0])
    lines = text.strip().splitlines()
    assert lines[0] == "kappa,capacity_bits,policy_diagonal,output_diagonal,constrained"
    assert len(lines) == 4
    cells = lines[2].split(",")
    assert abs(float(cells[1]) - 0.31127812445913283) < 1e-12
    assert lines[3].endswith("false")


@pytest.mark.parametrize(
    "kappa, message", [(2.0, "kappa must lie in"), (-0.5, "kappa must lie in"), (np.nan, "kappa must be finite")]
)
def test_nofeedback_markov_names_kappa(kappa, message):
    with pytest.raises(ValidationError, match=message):
        bssc_nofeedback_markov(BSSCParams(0.0, 1.0), kappa)


def test_csvs_from_numpy_inputs_hold_plain_floats():
    assert bssc_grid_csv(np.array([0.9]), np.array([0.6])) == bssc_grid_csv([0.9], [0.6])
    assert "np." not in bssc_grid_csv(np.array([0.9]), np.array([0.6]))
    assert bssc_grid_csv([0.9], [0.6], np.float64(0.3)) == bssc_grid_csv([0.9], [0.6], 0.3)
    kappas = np.array([0.3, 0.9])
    numpy_params = BSSCParams(np.float64(0.9), np.float64(0.6))
    assert bssc_kappa_csv(numpy_params, kappas) == bssc_kappa_csv(BSSCParams(0.9, 0.6), [0.3, 0.9])
    assert type(numpy_params.alpha) is float and type(numpy_params.beta) is float
