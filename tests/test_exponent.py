"""State-weight matrices, Perron exponents, random-coding bounds, path-sum oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import bibo_channel, bsc_rows, bssc, embedded_dmc, random_channel
from umco import (
    BSSCParams,
    ConvergenceError,
    DimensionMismatchError,
    ExponentCurve,
    InputPolicy,
    LambdaMatrix,
    ReducibleChainError,
    ValidationError,
    bssc_closed_form,
    bssc_optimal_policy,
    channel_from_kernel,
    error_probability_bound,
    exponent_curve,
    finite_horizon_exponent_oracle,
    gallager_exponent_infinite,
    induced_output_kernel,
    lambda_matrix,
    policy_iteration,
    random_coding_exponent,
    uniform_policy,
)
from umco import exponent
from umco.channel import _csv
from umco.exponent import _RHO_GRID_STEP, _gallager_exponents, _perron_pair, exponent_csv, rate_sweep_csv

PARAMS = BSSCParams(0.95, 0.8)
CHANNEL = bssc(0.95, 0.8)
POLICY = bssc_optimal_policy(PARAMS)
NU = bssc_closed_form(PARAMS).nu


def _symmetric_lambda_entries(alpha, beta, nu, rho):
    """Hand evaluation of the symmetric 2x2 state-weight entries."""
    e = 1.0 / (1.0 + rho)
    diag = (nu * alpha**e + (1 - nu) * (1 - beta) ** e) ** (1 + rho)
    off = (nu * (1 - alpha) ** e + (1 - nu) * beta**e) ** (1 + rho)
    return diag, off


@pytest.mark.parametrize("rho", [0.25, 0.5, 1.0])
def test_lambda_matrix_matches_symmetric_formula(rho):
    matrix = lambda_matrix(CHANNEL, POLICY, rho).matrix
    diag, off = _symmetric_lambda_entries(0.95, 0.8, NU, rho)
    assert abs(matrix[0, 0] - diag) < 1e-14
    assert abs(matrix[1, 1] - diag) < 1e-14
    assert abs(matrix[0, 1] - off) < 1e-14
    assert abs(matrix[1, 0] - off) < 1e-14


def test_lambda_matrix_at_rho_zero_is_transposed_output_kernel(rng):
    for _ in range(5):
        channel = random_channel(rng, 3, 2)
        matrix = rng.random((3, 2))
        matrix /= matrix.sum(axis=1, keepdims=True)
        from umco import InputPolicy

        policy = InputPolicy(matrix)
        lam = lambda_matrix(channel, policy, 0.0).matrix
        assert np.abs(lam.sum(axis=0) - 1.0).max() <= 1e-12
        kernel = induced_output_kernel(channel, policy).matrix
        assert np.allclose(lam, kernel.T, atol=1e-15, rtol=0.0)


def test_lambda_matrix_rejects_bad_rho():
    with pytest.raises(ValueError):
        lambda_matrix(CHANNEL, POLICY, 1.5)


def test_exponent_vanishes_at_rho_zero():
    f_inf, ratio = gallager_exponent_infinite(CHANNEL, POLICY, 0.0)
    assert abs(f_inf) <= 1e-12
    assert ratio == 1.0


def test_perron_root_is_row_sum_for_symmetric_matrix():
    for rho in (0.25, 0.5, 1.0):
        matrix = lambda_matrix(CHANNEL, POLICY, rho).matrix
        f_inf, ratio = gallager_exponent_infinite(CHANNEL, POLICY, rho)
        assert abs(2.0 ** (-f_inf) - (matrix[0, 0] + matrix[0, 1])) < 1e-12
        assert ratio == 1.0


def test_embedded_dmc_reduces_to_single_letter_exponent():
    rows = bsc_rows(0.1)
    channel = embedded_dmc(rows)
    policy = uniform_policy(2, 2)
    for rho in (0.3, 0.7, 1.0):
        f_inf, _ = gallager_exponent_infinite(channel, policy, rho)
        e = 1.0 / (1.0 + rho)
        classical = -np.log2(((0.5 * rows**e).sum(axis=0) ** (1 + rho)).sum())
        assert abs(f_inf - classical) < 1e-12


def test_reducible_state_weight_matrix_rejected():
    # outputs frozen at the previous output: the weight matrix is diagonal
    kernel = np.zeros((2, 2, 2))
    kernel[0, :, 0] = 1.0
    kernel[1, :, 1] = 1.0
    frozen = channel_from_kernel(kernel)
    with pytest.raises(ReducibleChainError):
        gallager_exponent_infinite(frozen, uniform_policy(2, 2), 0.5)


def test_one_reducible_matrix_fails_the_whole_rho_stack():
    # From state 0 only letter 0 reaches output 1, with probability 3e-12.
    # Under the uniform policy the weight of that edge is 1.5e-12 at rho = 0,
    # 1.06e-12 at rho = 0.5 and 0.75e-12 at rho = 1, below EDGE_EPS = 1e-12:
    # only the rho = 1 matrix, the middle of the stack, is reducible.
    kernel = np.array([[[1.0 - 3e-12, 3e-12], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]])
    channel, policy = channel_from_kernel(kernel), uniform_policy(2, 2)
    _gallager_exponents(channel, policy, [0.0, 0.5])
    with pytest.raises(ReducibleChainError):
        _gallager_exponents(channel, policy, [0.0, 1.0, 0.5])


def test_exponent_nondecreasing_in_rho():
    for channel, policy in ((CHANNEL, POLICY), (bibo_channel(), _bibo_policy())):
        values = [
            gallager_exponent_infinite(channel, policy, float(r))[0]
            for r in np.arange(0.0, 1.0001, 0.01)
        ]
        assert np.min(np.diff(values)) >= -1e-12


def _bibo_policy():
    return policy_iteration(bibo_channel(), uniform_policy(2, 2)).policy


def test_random_coding_exponent_endpoints():
    f_one, _ = gallager_exponent_infinite(CHANNEL, POLICY, 1.0)
    exponent, rho_star = random_coding_exponent(CHANNEL, POLICY, 0.0)
    assert abs(exponent - f_one) < 1e-9
    assert rho_star >= 1.0 - 1e-6

    exponent, rho_star = random_coding_exponent(CHANNEL, POLICY, 1.5)
    assert exponent == 0.0
    assert rho_star == 0.0

    with pytest.raises(ValueError):
        random_coding_exponent(CHANNEL, POLICY, -0.1)


def test_random_coding_exponent_curve_shape():
    capacity = bssc_closed_form(PARAMS).capacity
    rates = np.arange(0.0, 0.62, 0.02)
    exponents = [random_coding_exponent(CHANNEL, POLICY, float(r))[0] for r in rates]
    diffs = np.diff(exponents)
    assert np.all(diffs <= 1e-12)  # nonincreasing
    # convex chords
    for i in range(1, len(rates) - 1):
        assert exponents[i] <= 0.5 * (exponents[i - 1] + exponents[i + 1]) + 1e-8
    # zero exactly from capacity onward, positive below
    for rate, exponent in zip(rates, exponents):
        if rate >= capacity:
            assert exponent <= 1e-9
        elif rate <= capacity - 0.05:
            assert exponent > 1e-4


def test_error_probability_bound_values():
    # vacuous above capacity
    assert error_probability_bound(CHANNEL, POLICY, 1.0, 100) == 1.0
    bound = error_probability_bound(CHANNEL, POLICY, 0.1, 1000)
    exponent, _ = random_coding_exponent(CHANNEL, POLICY, 0.1)
    assert abs(bound - 8.0 * 2.0 ** (-1000 * exponent)) <= 1e-12 * bound
    known = error_probability_bound(CHANNEL, POLICY, 0.1, 1000, state_known=True)
    assert known == pytest.approx(bound / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        error_probability_bound(CHANNEL, POLICY, 0.1, 0)


def test_oracle_single_step_is_column_sum():
    matrix = lambda_matrix(CHANNEL, POLICY, 0.5).matrix
    for b in (0, 1):
        oracle = finite_horizon_exponent_oracle(CHANNEL, POLICY, 0.5, 1, b)
        assert abs(oracle + np.log2(matrix[:, b].sum())) < 1e-14


def test_oracle_enumeration_matches_matrix_products():
    for rho in (0.25, 1.0):
        enum = finite_horizon_exponent_oracle(CHANNEL, POLICY, rho, 10, 0, method="enumerate")
        matrix = finite_horizon_exponent_oracle(CHANNEL, POLICY, rho, 10, 0, method="matrix")
        assert abs(enum - matrix) <= 1e-12 * max(1.0, abs(matrix))


def test_oracle_enumeration_range_guard():
    with pytest.raises(ValueError):
        finite_horizon_exponent_oracle(CHANNEL, POLICY, 0.5, 17, 0, method="enumerate")
    # matrix form handles long horizons without underflow
    value = finite_horizon_exponent_oracle(CHANNEL, POLICY, 1.0, 5000, 0, method="matrix")
    assert np.isfinite(value)


def test_frobenius_bracket_symmetric_and_asymmetric():
    cases = [(CHANNEL, POLICY), (bibo_channel(), _bibo_policy())]
    for channel, policy in cases:
        for rho in (0.25, 0.5, 1.0):
            f_inf, ratio = gallager_exponent_infinite(channel, policy, rho)
            for n in (4, 8, 12):
                for b in (0, 1):
                    oracle = finite_horizon_exponent_oracle(channel, policy, rho, n, b)
                    assert abs(oracle - f_inf) <= np.log2(ratio) / n + 1e-10


def test_frobenius_bracket_three_states(rng):
    channel = random_channel(rng, n_states=3, n_inputs=2)
    matrix = rng.random((3, 2))
    matrix /= matrix.sum(axis=1, keepdims=True)
    from umco import InputPolicy

    policy = InputPolicy(matrix)
    for rho in (0.4, 1.0):
        f_inf, ratio = gallager_exponent_infinite(channel, policy, rho)
        for n in (3, 6, 9):
            for b in range(3):
                oracle = finite_horizon_exponent_oracle(channel, policy, rho, n, b)
                assert abs(oracle - f_inf) <= np.log2(ratio) / n + 1e-10


def test_exponent_curve_records_samples():
    curve = exponent_curve(CHANNEL, POLICY, [0.0, 0.5, 1.0])
    assert curve.rho.tolist() == [0.0, 0.5, 1.0]
    assert abs(curve.f_infinity[1] - gallager_exponent_infinite(CHANNEL, POLICY, 0.5)[0]) < 1e-12
    assert curve.eigen_ratio.tolist() == [1.0, 1.0, 1.0]


def test_exponent_curve_stores_four_read_only_arrays_and_no_perron_root():
    fields = ["rho", "f_infinity", "eigen_ratio", "bracket_width"]
    assert [field.name for field in dataclasses.fields(ExponentCurve)] == fields
    rhos = [0.0, 0.5]
    curve = exponent_curve(CHANNEL, POLICY, rhos)
    for name in fields:
        array = getattr(curve, name)
        assert array.shape == (2,) and array.dtype == float and not array.flags.writeable
    # The arrays are copies: a caller's list or array stays its own.
    given_rho = np.array([0.25])
    copy = ExponentCurve(given_rho, [0.5], [1.0], [0.0])
    given_rho[0] = 0.75
    assert copy.rho[0] == 0.25 and given_rho.flags.writeable
    # lambda_max is derived in the CSV as 2^-F.
    rows = [line.split(",") for line in exponent_csv(CHANNEL, POLICY, rhos).splitlines()[1:]]
    assert [float(row[1]) for row in rows] == [2.0 ** -f for f in curve.f_infinity.tolist()]


@pytest.mark.parametrize(
    "rho, f_inf, ratio, width, error, message",
    [
        ([0.5], [0.7], [np.nan], [0.0], ValidationError, "eigen_ratio must be finite"),
        ([0.5], [0.7], [0.5], [0.0], ValidationError, "eigen_ratio must be at least 1$"),
        ([0.5, 0.6], [0.7, 0.8], [1.0, 1.0], [-1.0, 5, 7], ValidationError, "bracket_width must lie"),
        (
            [0.5, 0.6], [0.7, 0.8], [1.0, 1.0], [0.0, 0.0, 0.0], DimensionMismatchError,
            r"^bracket_width shape \(3,\) does not match \(2,\) \(rho samples\)$",
        ),
        (
            [0.5, 0.6], [0.7, 0.8], [1.0], [0.0, 0.0], DimensionMismatchError,
            r"^eigen_ratio shape \(1,\) does not match \(2,\) \(rho samples\)$",
        ),
        ([1.5], [0.7], [1.0], [0.0], ValidationError, "rho must lie"),
        ([0.0], [0.1], [1.0], [0.0], ValidationError, "the exponent at rho = 0"),
        ([[0.5, 0.25, 0.7]], [0.7], [1.0], [0.0], ValidationError, r"^rho must be 1-d, got shape \(1, 3\)$"),
        ([0.5], 0.7, [1.0], [0.0], ValidationError, r"^f_infinity must be 1-d, got shape \(\)$"),
    ],
    ids=[
        "nan-ratio",
        "ratio-below-one",
        "negative-and-wide-bracket",
        "three-widths-for-two-samples",
        "one-ratio-for-two-samples",
        "rho-above-one",
        "nonzero-exponent-at-rho-zero",
        "a-triple-with-lambda-max",
        "scalar-exponent",
    ],
)
def test_exponent_curve_rejects_each_contradictory_construction(rho, f_inf, ratio, width, error, message):
    with pytest.raises(error, match=message):
        ExponentCurve(rho, f_inf, ratio, width)


def test_csv_emitters():
    text = exponent_csv(CHANNEL, POLICY, [0.0, 0.5])
    assert text.splitlines()[0] == "rho,lambda_max,F_infinity_bits,eigen_ratio"
    assert len(text.strip().splitlines()) == 3
    sweep = rate_sweep_csv(CHANNEL, POLICY, [0.0, 0.1], n=100)
    assert sweep.splitlines()[0] == "rate_bits,E_r_bits,rho_star,bound_at_n"
    assert len(sweep.strip().splitlines()) == 3


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_non_finite_rate_rejected(rate):
    with pytest.raises(ValidationError):
        random_coding_exponent(CHANNEL, POLICY, rate)
    with pytest.raises(ValidationError):
        rate_sweep_csv(CHANNEL, POLICY, [0.1, rate], n=100)


def test_exponent_input_errors_are_typed():
    with pytest.raises(ValidationError):
        LambdaMatrix(0.5, -np.eye(2))
    with pytest.raises(ValidationError):
        LambdaMatrix(0.0, np.full((2, 2), 0.6))
    for rho in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValidationError):
            lambda_matrix(CHANNEL, POLICY, rho)
        with pytest.raises(ValidationError):
            exponent_curve(CHANNEL, POLICY, [0.5, rho])
    with pytest.raises(ValidationError):
        random_coding_exponent(CHANNEL, POLICY, -0.1)
    with pytest.raises(ValidationError):
        error_probability_bound(CHANNEL, POLICY, 0.1, 0)
    for n, method in ((0, "auto"), (17, "enumerate"), (3, "simulate")):
        with pytest.raises(ValidationError):
            finite_horizon_exponent_oracle(CHANNEL, POLICY, 0.5, n, 0, method=method)
    with pytest.raises(ValidationError):
        finite_horizon_exponent_oracle(random_channel(np.random.default_rng(0), 5, 2), uniform_policy(5, 2), 0.5, 11, 0)


def test_empty_rho_grid_gives_empty_curve():
    curve = exponent_curve(CHANNEL, POLICY, [])
    assert all(getattr(curve, name).shape == (0,) for name in ("rho", "f_infinity", "eigen_ratio", "bracket_width"))
    assert exponent_csv(CHANNEL, POLICY, []) == "rho,lambda_max,F_infinity_bits,eigen_ratio\n"


@st.composite
def irreducible_problems(draw):
    """A channel with a positive kernel and a positive policy, S in {2, 3, 4}."""
    n_states = draw(st.integers(2, 4))
    n_inputs = draw(st.integers(2, 3))
    kernel = draw(hnp.arrays(float, (n_states, n_inputs, n_states), elements=st.floats(1e-2, 1.0)))
    policy = draw(hnp.arrays(float, (n_states, n_inputs), elements=st.floats(1e-2, 1.0)))
    kernel /= kernel.sum(axis=2, keepdims=True)
    policy /= policy.sum(axis=1, keepdims=True)
    return channel_from_kernel(kernel), InputPolicy(policy)


@given(irreducible_problems(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_stacked_exponents_match_scalar_solves(problem, rhos):
    channel, policy = problem
    rhos = [0.0, 1.0, *rhos]
    curve = exponent_curve(channel, policy, rhos)
    assert curve.rho.tolist() == rhos
    for rho, f_inf, ratio in zip(rhos, curve.f_infinity.tolist(), curve.eigen_ratio.tolist()):
        f_one, ratio_one = gallager_exponent_infinite(channel, policy, rho)
        assert abs(f_inf - f_one) <= 1e-12
        assert abs(ratio - ratio_one) <= 1e-12 * ratio_one


@given(irreducible_problems(), st.floats(0.0, 1.0), st.integers(1, 6), st.data())
def test_oracle_enumeration_matches_matrix_method(problem, rho, n, data):
    channel, policy = problem
    b_init = data.draw(st.integers(0, channel.n_states - 1))
    enum = finite_horizon_exponent_oracle(channel, policy, rho, n, b_init, method="enumerate")
    matrix = finite_horizon_exponent_oracle(channel, policy, rho, n, b_init, method="matrix")
    assert abs(enum - matrix) <= 1e-12 * max(1.0, abs(matrix))


@given(irreducible_problems(), st.floats(0.0, 0.99), st.booleans())
def test_random_coding_exponent_beats_the_scalar_grid(problem, x, interior):
    """E_r against scalar solves, at rate x or at the slope of F near rho = x.

    The slope rate puts the maximizer inside (0, 1), where the refinement
    bracket decides the answer; a plain rate mostly lands on rho = 0 or 1.
    """
    channel, policy = problem

    def objective(rho, rate):
        return gallager_exponent_infinite(channel, policy, rho)[0] - rho * rate

    rate = max((objective(x + 0.01, 0.0) - objective(x, 0.0)) / 0.01, 0.0) if interior else x
    exponent, rho_star = random_coding_exponent(channel, policy, rate)
    grid = np.arange(0.0, 1.0 + _RHO_GRID_STEP / 2, _RHO_GRID_STEP)
    assert exponent >= max(objective(float(rho), rate) for rho in grid) - 1e-12
    # the value is the objective at the reported maximizer (up to the clamp at 0)
    assert abs(exponent - max(objective(rho_star, rate), 0.0)) <= 1e-12
    # and no nearby rho does better: the bracket held the maximum
    for offset in (-1e-2, -1e-3, 1e-3, 1e-2):
        if 0.0 <= rho_star + offset <= 1.0:
            assert objective(rho_star + offset, rate) <= exponent + 1e-12


@given(
    irreducible_problems(),
    st.booleans(),
    st.lists(st.floats(0.0, 2.5), min_size=1, max_size=3),
    st.integers(1, 500),
    st.booleans(),
)
def test_a_rate_sweep_prints_what_the_per_rate_calls_give(problem, uniform, rates, n, known):
    channel, policy = problem
    if uniform:
        policy = uniform_policy(channel.n_states, channel.n_inputs)
    # Rate 0 beside -0.0, a repeated rate and one above capacity, which is at most log2(4) = 2 bits here.
    rates = [0.0, -0.0, *rates, rates[-1], 3.0]
    rows = [
        [rate, *random_coding_exponent(channel, policy, rate), error_probability_bound(channel, policy, rate, n, known)]
        for rate in rates
    ]
    alone = _csv(["rate_bits", "E_r_bits", "rho_star", "bound_at_n"], rows)
    assert rate_sweep_csv(channel, policy, rates, n, known) == alone


def _count_perron_stacks(monkeypatch):
    """Record the stack size of every _perron_pair call made from here on."""
    sizes, solve = [], exponent._perron_pair

    def counting(matrices, *args, **kwargs):
        sizes.append(len(matrices))
        return solve(matrices, *args, **kwargs)

    monkeypatch.setattr(exponent, "_perron_pair", counting)
    return sizes


def test_a_rate_sweep_solves_each_grid_once(monkeypatch):
    stacks = _count_perron_stacks(monkeypatch)
    rate_sweep_csv(CHANNEL, POLICY, [0.0, 0.1, 0.2, 0.3], n=100)
    # The coarse grid once and one stacked solve per refinement level over every rate's grid; the
    # bound's ratio at rho* is read off the grid that picked rho*, where a stack of one per rate
    # solved it again (7 stacks here). One search per rate took up to 17, solving every call afresh 36.
    assert stacks[0] == 101
    assert len(stacks) == 4 and all(size % 57 == 0 and size > 57 for size in stacks[1:])


def test_no_memo_outlives_its_sweep(monkeypatch):
    stacks = _count_perron_stacks(monkeypatch)
    with pytest.raises(ValidationError):
        rate_sweep_csv(CHANNEL, POLICY, [0.1, np.nan], n=100)
    assert stacks == []  # every rate is checked before any solve
    rate_sweep_csv(CHANNEL, POLICY, [0.1], n=100)
    assert stacks == [101, 57, 57, 57]  # the coarse grid and the three refinements, no stack of one at rho*
    random_coding_exponent(CHANNEL, POLICY, 0.1)
    assert stacks == [101, 57, 57, 57] * 2  # solved again
    error_probability_bound(CHANNEL, POLICY, 0.1, 100)
    assert stacks == [101, 57, 57, 57] * 3


def test_a_sweep_keys_each_rate_by_its_bytes():
    # Output b_prev -> 1 - b_prev whatever the input: capacity 0, every Perron root exactly 1 and
    # F = -0.0 at every rho, so E_r(0.0) is -0.0 and E_r(-0.0), equal to it as a float, is 0.0.
    channel, policy = channel_from_kernel(np.array([[[0.0, 1.0]] * 2, [[1.0, 0.0]] * 2])), uniform_policy(2, 2)
    rates = [0.0, -0.0, 0.2, 0.2, -0.0, 0.0, 3.0]
    rows = [
        [rate, *random_coding_exponent(channel, policy, rate), error_probability_bound(channel, policy, rate, 50)]
        for rate in rates
    ]
    assert [repr(row[1]) for row in rows] == ["-0.0", "0.0", "-0.0", "-0.0", "0.0", "-0.0", "-0.0"]
    assert rate_sweep_csv(channel, policy, rates, 50) == _csv(["rate_bits", "E_r_bits", "rho_star", "bound_at_n"], rows)


@pytest.mark.parametrize("n_states", [2, 3, 4, 5, 6])
def test_a_stacked_level_gives_each_grid_the_bytes_it_gets_alone(n_states):
    """A refinement level's stacked solve matches each of its 57-point grids solved alone, bit for bit.

    A grid of one or two points is not covered: at rho = 1 NumPy's power takes
    its sqrt or square shortcut there, which can differ in the last bit.
    """
    rng = np.random.default_rng(n_states)
    channel, weights = random_channel(rng, n_states, 3), rng.random((n_states, 3)) + 0.01
    for policy in (uniform_policy(n_states, 3), InputPolicy(weights / weights.sum(axis=1, keepdims=True))):
        grids = [np.linspace(lo, hi, 57) for lo, hi in ((0.98, 1.0), (0.0, 0.01), (0.41, 0.43), (1.0 - 5e-7, 1.0))]
        stacked = _gallager_exponents(channel, policy, np.concatenate(grids))
        for k, grid in enumerate(grids):
            alone = _gallager_exponents(channel, policy, grid)
            for part, whole in zip(alone, stacked):
                assert part.tobytes() == whole[57 * k : 57 * (k + 1)].tobytes()


@pytest.mark.parametrize("rate, interior", [(0.0, False), (0.05, True)])
def test_the_bound_takes_the_ratio_at_rho_star_off_the_search_grid(rate, interior):
    # At rate 0, rho* = 1 and a stack of one at rho* gives this channel's ratio another last bit.
    channel, policy, n = random_channel(np.random.default_rng(3), 3, 3), uniform_policy(3, 3), 300
    exponent, rho_star = random_coding_exponent(channel, policy, rate)
    assert (0.0 < rho_star < 1.0) if interior else rho_star == 1.0
    grid = np.unique([0.0, 0.5, rho_star, 1.0])
    ratio = exponent_curve(channel, policy, grid).eigen_ratio[np.searchsorted(grid, rho_star)]

    def bound(ratio):
        return min(1.0, 4.0 * ratio * 2.0 ** (-n * exponent))

    assert bound(ratio) < 1.0 and bound(np.nextafter(ratio, np.inf)) != bound(ratio)  # the bound shows the last bit
    assert error_probability_bound(channel, policy, rate, n, state_known=True) == bound(ratio)


@pytest.mark.parametrize("n", [0, 2.5, None], ids=repr)
def test_a_rate_sweep_checks_the_block_length_before_any_solve(monkeypatch, n):
    # The bound checked n only after the first rate's E_r had solved 4 grids.
    stacks = _count_perron_stacks(monkeypatch)
    with pytest.raises(ValidationError, match="block length n"):
        rate_sweep_csv(CHANNEL, POLICY, [0.1], n=n)
    assert stacks == []


def test_a_block_length_beyond_float_range_is_a_validation_error():
    # -n * E_r raised a bare OverflowError for an n no float holds.
    with pytest.raises(ValidationError, match="block length n"):
        error_probability_bound(CHANNEL, POLICY, 0.1, 10**400)
    assert error_probability_bound(CHANNEL, POLICY, 0.1, int(np.finfo(float).max)) == 0.0


# The transposed state-weight matrix of a noisy 4-permutation channel under
# the uniform policy; its complex subdominant pair made the Rayleigh quotient
# of a power iteration oscillate, so a step test stopped 1.1e-9 off in F.
PERM4 = np.array(
    [
        [0.1845299455520149, 0.14235035253801148, 0.20947132417446415, 0.1322367566608187],
        [0.1370171319637355, 0.22533877972513064, 0.19803893908563755, 0.12835384664488964],
        [0.14266970393955689, 0.13344820473837557, 0.13789829869496545, 0.19079393610643158],
        [0.1592432493621669, 0.23512302878906308, 0.13766468023976408, 0.1337179034746096],
    ]
)
PERM4_ROOT = 0.65694703418845626  # 40-digit eigenvalue solve, rounded


def _bracket(root, width):
    """The Collatz-Wielandt bracket [lo, hi] behind a root (lo + hi) / 2 of relative width (hi - lo) / hi."""
    hi = root / (1.0 - 0.5 * width)
    return hi * (1.0 - width), hi


def test_perron_root_of_a_matrix_with_a_complex_subdominant_pair():
    roots, vecs, widths = _perron_pair(PERM4[None])
    assert abs(roots[0] - PERM4_ROOT) <= 1e-12 * PERM4_ROOT
    assert 0.0 <= widths[0] <= 1e-12
    lo, hi = _bracket(roots[0], widths[0])
    assert lo <= PERM4_ROOT <= hi
    assert np.abs(PERM4 @ vecs[0] - roots[0] * vecs[0]).max() <= 1e-12


@given(st.tuples(*[st.floats(0.01, 1.0)] * 4))
def test_perron_pair_matches_the_two_by_two_closed_form(entries):
    a, b, c, d = entries
    root = np.sqrt(((a - d) / 2) ** 2 + b * c)
    lam = (a + d) / 2 + root
    # lambda - a without cancellation: (lambda - a)(lambda - d) = bc.
    lam_minus_a = (d - a) / 2 + root if d >= a else b * c / ((a - d) / 2 + root)
    ratio = max(b, lam_minus_a) / min(b, lam_minus_a)
    f_inf, ratio_out, width = _perron_pair(np.array([[[a, b], [c, d]]]))
    f_inf, vec = -np.log2(f_inf[0]), ratio_out[0]
    assert abs(f_inf + np.log2(lam)) <= 1e-12
    assert abs(vec.max() / vec.min() - ratio) <= 1e-10 * ratio
    assert width[0] <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_perron_pair_closes_on_periodic_chains(n):
    # A weighted n-cycle: period n, root the geometric mean of the weights,
    # and v[i + 1] = lambda v[i] / w[i].
    weights = np.random.default_rng(n).uniform(0.2, 1.0, n)
    matrix = np.zeros((n, n))
    matrix[np.arange(n), (np.arange(n) + 1) % n] = weights
    lam = np.prod(weights) ** (1.0 / n)
    expected = np.cumprod(np.concatenate(([1.0], lam / weights[:-1])))
    roots, vecs, widths = _perron_pair(matrix[None])
    assert widths[0] <= 1e-12
    assert abs(roots[0] - lam) <= 1e-12 * lam
    assert np.allclose(vecs[0] / vecs[0, 0], expected, rtol=1e-10, atol=0.0)


def test_perron_pair_raises_with_the_open_bracket_width():
    # Eigenvalues 1 - eps/2 +- eps * sqrt(5)/2: about 2^15 power steps to mix.
    eps = 1e-3
    matrix = np.array([[1.0, eps], [eps, 1.0 - eps]])
    shifted = matrix + np.eye(2)
    vec = (shifted @ shifted).sum(axis=1)
    ratios = matrix @ vec / vec
    open_width = (ratios.max() - ratios.min()) / ratios.max()
    with pytest.raises(ConvergenceError) as failure:
        _perron_pair(matrix[None], max_squarings=1)
    assert open_width > 1e-12
    assert failure.value.residual == pytest.approx(open_width, rel=1e-9)
    roots, _, widths = _perron_pair(matrix[None])
    assert widths[0] <= 1e-12
    assert abs(roots[0] - (1.0 - eps / 2 + eps * np.sqrt(5.0) / 2)) <= 1e-12


def test_exponent_curve_records_the_bracket_widths():
    curve = exponent_curve(bibo_channel(), _bibo_policy(), np.linspace(0.0, 1.0, 11))
    assert len(curve.bracket_width) == 11
    assert all(0.0 <= width <= 1e-12 for width in curve.bracket_width)
    assert exponent_curve(CHANNEL, POLICY, []).bracket_width.shape == (0,)
    roots, vecs, widths = _perron_pair(np.empty((0, 3, 3)))
    assert roots.shape == (0,) and vecs.shape == (0, 3) and widths.shape == (0,)
