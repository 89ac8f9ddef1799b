"""Channel data model: validation, induced distributions, per-stage rewards."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import bibo_channel, bssc, embedded_dmc, random_channel
import umco.bssc
import umco.exponent
import umco.finite_dp
import umco.infinite_horizon
from umco import (
    BSSCParams,
    BSSCSolution,
    ChannelFormatError,
    CostSpec,
    DimensionMismatchError,
    DPSolution,
    Distribution,
    ExponentCurve,
    InfiniteHorizonSolution,
    InputPolicy,
    LambdaMatrix,
    MarkovInput,
    OutputKernel,
    UnitMemoryChannel,
    ValidationError,
    binary_entropy,
    bssc_closed_form,
    bssc_constrained_closed_form,
    bssc_cost_function,
    bssc_nofeedback_markov,
    bssc_optimal_policy,
    capacity_cost_curve,
    channel_from_kernel,
    classify_non_nested,
    constrained_capacity,
    deterministic_policy,
    error_probability_bound,
    exponent_curve,
    finite_horizon_exponent_oracle,
    gallager_exponent_infinite,
    generalized_dp_check,
    induced_output_kernel,
    lambda_matrix,
    load_channel,
    minimum_average_cost,
    parse_channel_document,
    policy_iteration,
    random_coding_exponent,
    relative_value_iteration,
    serialize_channel,
    solve_finite_horizon,
    stage_reward,
    uniform_policy,
    verify_bellman_conditions,
    verify_nofb_induces_fb,
    verify_optimality_conditions,
)
from umco.bssc import bssc_grid_csv, bssc_kappa_csv
from umco.channel import LOAD_ROW_TOL, resolve_cost
from umco.exponent import exponent_csv, rate_sweep_csv

BSSC_105_DOC = json.dumps(
    {
        "name": "bssc(1,0.5)",
        "input_size": 2,
        "output_size": 2,
        "kernel": [
            [[1.0, 0.0], [0.5, 0.5]],
            [[0.5, 0.5], [0.0, 1.0]],
        ],
    }
)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.2) - 0.72193) < 5e-6


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
def test_binary_entropy_domain(p):
    with pytest.raises(ValueError):
        binary_entropy(p)


@pytest.mark.parametrize("p", [-0.1, np.nan])
def test_binary_entropy_domain_error_is_typed(p):
    with pytest.raises(ValidationError):
        binary_entropy(p)


@pytest.mark.parametrize("size", [2.7, "x", None, 0])
def test_load_rejects_declared_sizes_that_are_not_positive_integers(size):
    doc = json.loads(BSSC_105_DOC)
    doc["input_size"] = size
    with pytest.raises(ValidationError, match="alphabet size"):
        load_channel(json.dumps(doc))


def _oracle(n=3, b_init=0):
    return finite_horizon_exponent_oracle(bibo_channel(), uniform_policy(2, 2), 0.5, n, b_init)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _oracle(n=2.5),
        lambda: _oracle(b_init=5),
        lambda: _oracle(b_init=-1),
        lambda: error_probability_bound(bibo_channel(), uniform_policy(2, 2), 0.1, n=2.5),
        lambda: Distribution.point_mass(2, -1),
        lambda: deterministic_policy([-1, 0], 2),
        lambda: stage_reward(bibo_channel(), uniform_policy(2, 2), -1),
        lambda: Distribution.point_mass(2, 2),
        lambda: deterministic_policy([0, 2], 2),
        lambda: stage_reward(bibo_channel(), uniform_policy(2, 2), 2),
        lambda: Distribution.uniform(0),
        lambda: Distribution.uniform(2.5),
        lambda: uniform_policy(2, 0),
        lambda: uniform_policy(0, 2),
        lambda: deterministic_policy([0, 1], 2.5),
    ],
    ids=[
        "oracle-n",
        "oracle-b-init-past-end",
        "oracle-b-init-negative",
        "bound-n",
        "point-mass-negative",
        "choice-negative",
        "stage-reward-negative",
        "point-mass-past-end",
        "choice-past-end",
        "stage-reward-past-end",
        "uniform-size-zero",
        "uniform-size-fractional",
        "uniform-policy-no-inputs",
        "uniform-policy-no-states",
        "choice-fractional-inputs",
    ],
)
def test_indices_and_lengths_pass_the_integer_rule(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


def test_load_rejects_infinite_declared_size():
    with pytest.raises(ValidationError, match="alphabet size"):
        load_channel(BSSC_105_DOC.replace('"output_size": 2', '"output_size": Infinity'))


def test_multiplier_rules_raise_typed_errors():
    channel = bssc(0.9, 0.2)
    with pytest.raises(ValidationError, match="requires a cost"):
        resolve_cost(channel, None, 1.0)
    with pytest.raises(ValidationError, match="multiplier must be nonnegative"):
        resolve_cost(channel, CostSpec(np.ones((2, 2)), 0.5), -1.0)
    with pytest.raises(ValidationError, match="multiplier must be finite"):
        resolve_cost(channel, CostSpec(np.ones((2, 2)), 0.5), np.nan)


def test_load_bssc_file():
    channel = load_channel(BSSC_105_DOC)
    assert channel.kernel[0][0][0] == 1.0
    assert channel.kernel[0][1][0] == 0.5
    assert channel.name == "bssc(1,0.5)"


def test_load_rejects_bad_row_sum():
    doc = json.loads(BSSC_105_DOC)
    doc["kernel"][0][0] = [0.5, 0.4]  # sums to 0.9
    with pytest.raises(ValidationError):
        load_channel(json.dumps(doc))


def test_load_rejects_negative_entry():
    doc = json.loads(BSSC_105_DOC)
    doc["kernel"][0][0] = [1.1, -0.1]
    with pytest.raises(ValidationError):
        load_channel(json.dumps(doc))


def test_load_rejects_shape_mismatch():
    doc = json.loads(BSSC_105_DOC)
    doc["input_size"] = 3
    with pytest.raises(ValidationError):
        load_channel(json.dumps(doc))


@pytest.mark.parametrize(
    "field, size",
    [
        ("input_size", 3),
        ("output_size", 3),
        ("input_size", 1),
        ("input_size", "2"),
        ("output_size", -3),
        ("input_size", np.nan),
    ],
)
def test_load_checks_each_declared_size_against_the_kernel(field, size):
    # The sizes are the kernel's shape; a declared size is a whole number >= 1 that agrees with it.
    doc = json.loads(BSSC_105_DOC)
    doc[field] = size
    with pytest.raises(ValidationError, match="alphabet size"):
        load_channel(json.dumps(doc))


def test_load_keeps_a_whole_declared_size_and_reads_the_sizes_from_the_kernel():
    doc = json.loads(BSSC_105_DOC)
    doc["input_size"] = 2.0
    channel = load_channel(json.dumps(doc))
    assert (channel.n_states, channel.n_inputs) == (2, 2) and isinstance(channel.n_inputs, int)


def test_each_record_stores_only_independent_facts():
    assert [field.name for field in dataclasses.fields(InputPolicy)] == ["matrix"]
    assert [field.name for field in dataclasses.fields(UnitMemoryChannel)] == ["kernel", "name"]
    derived = {
        InfiniteHorizonSolution: {"irreducible", "span_residual"},
        DPSolution: {"horizon"},
        BSSCSolution: {"constrained"},
    }
    for record, names in derived.items():
        assert names.isdisjoint(field.name for field in dataclasses.fields(record))
        assert all(isinstance(getattr(record, name), property) for name in names)


@pytest.mark.parametrize("shape", [(2, 2, 3), (0, 1, 0), (2, 0, 2)], ids=str)
def test_channel_sizes_are_the_kernel_shape(shape):
    with pytest.raises(ValidationError, match="kernel must have shape"):
        UnitMemoryChannel(np.full(shape, 1.0 / shape[2] if shape[2] else 0.0))
    channel = UnitMemoryChannel(np.full((3, 2, 3), 1.0 / 3))
    assert (channel.n_states, channel.n_inputs) == (3, 2)


def test_load_rejects_malformed_documents():
    with pytest.raises(ChannelFormatError):
        load_channel("{not json")
    with pytest.raises(ChannelFormatError):
        load_channel(json.dumps({"input_size": 2}))
    with pytest.raises(ChannelFormatError):
        load_channel(json.dumps([1, 2, 3]))


def _document_with(kernel_row=(1.0, 0.0), cost_entry=1.0):
    doc = json.loads(BSSC_105_DOC)
    doc["kernel"][0][0] = list(kernel_row)
    doc["cost"] = [[cost_entry, 0.0], [0.0, 1.0]]
    return json.dumps(doc)  # writes NaN / Infinity, which json.loads reads back


def _set_first(array, value):
    array = np.array(array, dtype=float)
    array.flat[0] = value
    return array


# Each builder puts one given value into an object that is valid when the
# value is 1.0.
NON_FINITE_BUILDERS = {
    "load_channel": lambda v: load_channel(_document_with(kernel_row=(v, 0.0))),
    "load_cost_table": lambda v: load_channel(_document_with(cost_entry=v)),
    "UnitMemoryChannel": lambda v: UnitMemoryChannel(_set_first(bssc(1.0, 0.5).kernel, v)),
    "InputPolicy": lambda v: InputPolicy(_set_first([[1.0, 0.0], [0.5, 0.5]], v)),
    "OutputKernel": lambda v: OutputKernel(_set_first([[1.0, 0.0], [0.5, 0.5]], v)),
    "Distribution": lambda v: Distribution(_set_first([1.0, 0.0], v)),
    "CostSpec.gamma": lambda v: CostSpec(_set_first(np.ones((2, 2)), v), 0.5),
    "CostSpec.kappa": lambda v: CostSpec(np.ones((2, 2)), v),
    "MarkovInput": lambda v: MarkovInput(_set_first([[1.0, 0.0], [0.5, 0.5]], v), sigma=0.5),
    "MarkovInput.sigma": lambda v: MarkovInput([[1.0, 0.0], [0.5, 0.5]], sigma=v),
    "LambdaMatrix": lambda v: LambdaMatrix(0.5, _set_first([[1.0, 0.0], [0.5, 0.5]], v)),
    "LambdaMatrix.rho": lambda v: LambdaMatrix(v, [[1.0, 0.0], [0.5, 0.5]]),
    "ExponentCurve.lambda_max": lambda v: ExponentCurve(((0.5, v, 0.5),), (1.0,)),
    "ExponentCurve.F": lambda v: ExponentCurve(((0.5, 0.5, v),), (1.0,)),
}


def test_non_finite_builders_accept_a_finite_value():
    for build in NON_FINITE_BUILDERS.values():
        build(1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("target", sorted(NON_FINITE_BUILDERS))
def test_non_finite_entry_is_rejected_at_construction(target, value):
    with pytest.raises(ValidationError, match="must be finite"):
        NON_FINITE_BUILDERS[target](value)


def test_identity_channel_is_valid():
    kernel = np.zeros((2, 2, 2))
    kernel[:, 0, 0] = 1.0
    kernel[:, 1, 1] = 1.0
    channel = channel_from_kernel(kernel)
    assert channel.n_inputs == 2 and channel.n_states == 2


def test_serialize_load_round_trip_is_identity(rng):
    for _ in range(5):
        channel = random_channel(rng, n_states=3, n_inputs=2)
        reloaded = load_channel(serialize_channel(channel))
        assert np.array_equal(reloaded.kernel, channel.kernel)
    # decimal-valued kernel with a cost table
    channel = bssc(0.9, 0.2)
    text = serialize_channel(channel, cost=bssc_cost_function())
    reloaded = load_channel(text)
    assert np.array_equal(reloaded.kernel, channel.kernel)


def test_loose_row_sums_are_renormalized():
    doc = json.loads(BSSC_105_DOC)
    doc["kernel"][0][1] = [0.5, 0.5 + 5e-10]
    channel = load_channel(json.dumps(doc))
    assert abs(channel.kernel[0][1].sum() - 1.0) <= 1e-12


@st.composite
def channel_documents(draw):
    """A channel with zeros allowed in its rows, an optional name and an optional cost table."""
    n_states, n_inputs = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    raw = draw(hnp.arrays(float, (n_states, n_inputs, n_states), elements=st.floats(0.0, 1.0)))
    raw += raw.sum(axis=2, keepdims=True) == 0.0  # an all-zero row becomes uniform
    name = draw(st.none() | st.text(max_size=12))
    channel = channel_from_kernel(raw / raw.sum(axis=2, keepdims=True), name=name)
    cost = draw(st.none() | hnp.arrays(float, (n_states, n_inputs), elements=st.floats(0.0, 1e6)))
    scale = draw(hnp.arrays(float, (n_states, n_inputs), elements=st.floats(-0.9, 0.9)))
    return channel, cost, 1.0 + scale * LOAD_ROW_TOL


@given(channel_documents())
def test_serialize_load_round_trip_property(case):
    channel, cost, row_scale = case
    reloaded, reloaded_cost = parse_channel_document(serialize_channel(channel, cost))
    assert np.array_equal(reloaded.kernel, channel.kernel)
    assert reloaded.name == channel.name
    assert (reloaded_cost is None) == (cost is None)
    if cost is not None:
        assert np.array_equal(reloaded_cost, cost)
    # rows scaled off 1 by less than LOAD_ROW_TOL still load, renormalized
    doc = json.loads(serialize_channel(channel, cost))
    doc["kernel"] = (channel.kernel * row_scale[:, :, None]).tolist()
    perturbed = load_channel(json.dumps(doc))
    assert np.abs(perturbed.kernel.sum(axis=2) - 1.0).max() <= 1e-12
    assert np.abs(perturbed.kernel - channel.kernel).max() <= 2 * LOAD_ROW_TOL


def test_induced_kernel_bssc_optimal_policy():
    channel = bssc(1.0, 0.5)
    policy = InputPolicy([[0.6, 0.4], [0.4, 0.6]])
    kernel = induced_output_kernel(channel, policy)
    assert abs(kernel.matrix[0, 0] - 0.8) < 1e-15
    assert abs(kernel.matrix[1, 1] - 0.8) < 1e-15


def test_induced_kernel_point_mass_policy_selects_row():
    channel = bssc(0.9, 0.2)
    policy = deterministic_policy([0, 0], 2)
    kernel = induced_output_kernel(channel, policy)
    assert np.array_equal(kernel.matrix[0], channel.kernel[0, 0])
    assert np.array_equal(kernel.matrix[1], channel.kernel[1, 0])
    # repeating the previous output picks out each state's matching row
    repeat = induced_output_kernel(channel, deterministic_policy([0, 1], 2))
    assert np.array_equal(repeat.matrix[0], channel.kernel[0, 0])
    assert np.array_equal(repeat.matrix[1], channel.kernel[1, 1])


def test_induced_kernel_uniform_on_symmetric_params():
    kernel = induced_output_kernel(bssc(0.9, 0.9), uniform_policy(2, 2))
    assert kernel.matrix[0, 0] == 0.5


def test_induced_kernel_rows_sum_to_one(rng):
    for _ in range(20):
        n_states = int(rng.integers(2, 6))
        n_inputs = int(rng.integers(2, 5))
        channel = random_channel(rng, n_states, n_inputs)
        matrix = rng.random((n_states, n_inputs))
        matrix /= matrix.sum(axis=1, keepdims=True)
        kernel = induced_output_kernel(channel, InputPolicy(matrix))
        assert np.all(np.abs(kernel.matrix.sum(axis=1) - 1.0) <= 1e-12)


def test_induced_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        induced_output_kernel(bssc(0.9, 0.2), uniform_policy(3, 2))


def test_stage_reward_bssc_optimal():
    channel = bssc(1.0, 0.5)
    policy = InputPolicy([[0.6, 0.4], [0.4, 0.6]])
    reward = stage_reward(channel, policy, 0)
    assert abs(reward - 0.3219) < 1e-4
    # equals the closed-form capacity H(0.2) - 0.4
    assert abs(reward - (binary_entropy(0.2) - 0.4)) < 1e-12


def test_stage_reward_deterministic_policy_is_zero(rng):
    for _ in range(10):
        channel = random_channel(rng, 3, 3)
        choices = rng.integers(0, 3, size=3)
        assert stage_reward(channel, deterministic_policy(choices, 3), 1) == 0.0


def test_stage_reward_uniform_on_symmetric_params():
    reward = stage_reward(bssc(0.9, 0.9), uniform_policy(2, 2), 0)
    assert abs(reward - (1.0 - binary_entropy(0.9))) < 1e-12


def test_stage_reward_nonnegative(rng):
    for _ in range(30):
        channel = random_channel(rng, 2, 2)
        matrix = rng.random((2, 2))
        matrix /= matrix.sum(axis=1, keepdims=True)
        policy = InputPolicy(matrix)
        for b in range(2):
            assert stage_reward(channel, policy, b) >= 0.0


def test_stage_reward_zero_iff_supported_rows_identical(rng):
    # identical rows: reward must vanish
    row = np.array([0.3, 0.7])
    kernel = np.stack([np.stack([row, row])] * 2)
    channel = channel_from_kernel(kernel)
    assert stage_reward(channel, uniform_policy(2, 2), 0) <= 1e-15
    # differing rows with full support: reward strictly positive
    for _ in range(10):
        channel = random_channel(rng, 2, 2)
        if np.abs(channel.kernel[0, 0] - channel.kernel[0, 1]).max() < 1e-3:
            continue
        assert stage_reward(channel, uniform_policy(2, 2), 0) > 0.0


def test_stage_reward_concave_in_policy_row(rng):
    channel = bibo_channel()
    for _ in range(40):
        p = rng.random(2)
        p /= p.sum()
        q = rng.random(2)
        q /= q.sum()
        t = float(rng.random())
        mix = t * p + (1 - t) * q

        def reward_with_row(row):
            return stage_reward(channel, InputPolicy([row, [0.5, 0.5]]), 0)

        assert reward_with_row(mix) >= t * reward_with_row(p) + (1 - t) * reward_with_row(q) - 1e-10


def test_embedded_dmc_builder_ignores_state():
    channel = embedded_dmc([[0.9, 0.1], [0.1, 0.9]])
    assert np.array_equal(channel.kernel[0], channel.kernel[1])


def test_distribution_constructors():
    assert np.array_equal(Distribution.uniform(4).weights, np.full(4, 0.25))
    assert np.array_equal(Distribution.point_mass(3, 1).weights, [0.0, 1.0, 0.0])
    with pytest.raises(ValidationError):
        Distribution([0.5, 0.4])


def test_cost_spec_validation():
    with pytest.raises(ValidationError):
        CostSpec(np.array([[1.0, -0.5], [0.0, 0.0]]), 0.5)
    with pytest.raises(ValidationError):
        CostSpec(np.zeros((2, 2)), -1.0)


def test_channel_arrays_are_frozen():
    channel = bssc(0.9, 0.2)
    with pytest.raises(ValueError):
        channel.kernel[0, 0, 0] = 0.5


def test_strict_constructor_tolerance():
    kernel = np.zeros((2, 2, 2))
    kernel[:, :, 0] = 0.5
    kernel[:, :, 1] = 0.5 + 1e-9  # off by far more than the strict tolerance
    with pytest.raises(ValidationError):
        UnitMemoryChannel(kernel)


# Each entry calls one public entry point with a malformed number in place of
# one of its arguments; None stands for the argument, or for one entry of it
# where None is the argument's default.
MALFORMED_NUMBERS = {
    "BSSCParams": lambda bad: BSSCParams(bad, 0.5),
    "binary_entropy": binary_entropy,
    "bssc_constrained_closed_form": lambda bad: bssc_constrained_closed_form(BSSCParams(0.9, 0.6), bad),
    "random_coding_exponent": lambda bad: random_coding_exponent(bssc(0.9, 0.6), uniform_policy(2, 2), bad),
    "exponent_curve": lambda bad: exponent_curve(bssc(0.9, 0.6), uniform_policy(2, 2), bad),
    "InputPolicy": InputPolicy,
    "channel_from_kernel": channel_from_kernel,
    "CostSpec": lambda bad: CostSpec(bad, 0.5),
    "CostSpec-kappa": lambda bad: CostSpec(np.eye(2), bad),
    "rvi-initial_value": lambda bad: relative_value_iteration(
        bssc(0.9, 0.6), initial_value=[None, 0.0] if bad is None else bad
    ),
}


@pytest.mark.parametrize("bad", [None, "x", [[0.0], [0.5, 1.0]]], ids=["none", "text", "ragged"])
@pytest.mark.parametrize("entry", list(MALFORMED_NUMBERS))
def test_every_malformed_number_raises_a_validation_error_before_any_solve(monkeypatch, entry, bad):
    # Each of these raised a bare TypeError or NumPy's ValueError.
    def solve(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(umco.infinite_horizon, "maximize_stage_objective", solve)
    monkeypatch.setattr(umco.exponent, "_perron_pair", solve)
    with pytest.raises(ValidationError):
        MALFORMED_NUMBERS[entry](bad)


# Each entry passes one scalar through ``wrap`` (a list of one or an array of
# two), given an RVI solution and a DP solution of BSSC_09_06.
BSSC_09_06 = bssc(0.9, 0.6)
GAMMA_03 = CostSpec(bssc_cost_function(), 0.3)
NOFB = BSSCParams(0.9, 0.6)
SCALAR_SITES = {
    "rvi-tol": lambda wrap, rvi, dp: relative_value_iteration(BSSC_09_06, tol=wrap(1e-9)),
    "rvi-multiplier": lambda wrap, rvi, dp: relative_value_iteration(BSSC_09_06, cost=GAMMA_03, multiplier=wrap(0.5)),
    "pi-tol": lambda wrap, rvi, dp: policy_iteration(BSSC_09_06, uniform_policy(2, 2), tol=wrap(1e-9)),
    "dp-inner_tol": lambda wrap, rvi, dp: solve_finite_horizon(BSSC_09_06, 3, inner_tol=wrap(1e-10)),
    "constrained-dual_tol": lambda wrap, rvi, dp: constrained_capacity(BSSC_09_06, GAMMA_03, dual_tol=wrap(1e-8)),
    "curve-cost_tol": lambda wrap, rvi, dp: capacity_cost_curve(BSSC_09_06, GAMMA_03, [0.3], cost_tol=wrap(1e-6)),
    "bellman-tol": lambda wrap, rvi, dp: verify_bellman_conditions(BSSC_09_06, rvi, wrap(1e-8)),
    "generalized-tol": lambda wrap, rvi, dp: generalized_dp_check(BSSC_09_06, rvi, wrap(1e-8)),
    "optimality-tol": lambda wrap, rvi, dp: verify_optimality_conditions(BSSC_09_06, dp, wrap(1e-8)),
    "classifier-tol": lambda wrap, rvi, dp: classify_non_nested(dp, wrap(1e-6)),
    "minimum-cost-tol": lambda wrap, rvi, dp: minimum_average_cost(BSSC_09_06, bssc_cost_function(), wrap(1e-10)),
    "nofb-tol": lambda wrap, rvi, dp: verify_nofb_induces_fb(
        BSSC_09_06,
        bssc_nofeedback_markov(NOFB, bssc_closed_form(NOFB).nu),
        bssc_optimal_policy(NOFB),
        Distribution.uniform(2),
        10,
        wrap(1e-9),
    ),
    "binary_entropy": lambda wrap, rvi, dp: binary_entropy(wrap(0.5)),
    "BSSCParams": lambda wrap, rvi, dp: BSSCParams(wrap(0.9), 0.5),
    "bssc-kappa": lambda wrap, rvi, dp: bssc_constrained_closed_form(NOFB, wrap(0.3)),
    "markov-kappa": lambda wrap, rvi, dp: bssc_nofeedback_markov(NOFB, wrap(0.3)),
    "MarkovInput-sigma": lambda wrap, rvi, dp: MarkovInput([[1.0, 0.0], [0.5, 0.5]], sigma=wrap(0.5)),
    "CostSpec-kappa": lambda wrap, rvi, dp: CostSpec(np.eye(2), wrap(0.5)),
    "bound-rate": lambda wrap, rvi, dp: error_probability_bound(BSSC_09_06, uniform_policy(2, 2), wrap(0.1), 100),
    "lambda_matrix-rho": lambda wrap, rvi, dp: lambda_matrix(BSSC_09_06, uniform_policy(2, 2), wrap(0.5)),
    "LambdaMatrix-rho": lambda wrap, rvi, dp: LambdaMatrix(wrap(0.5), [[0.5, 0.5], [0.5, 0.5]]),
    "gallager-rho": lambda wrap, rvi, dp: gallager_exponent_infinite(BSSC_09_06, uniform_policy(2, 2), wrap(0.5)),
}


@pytest.mark.parametrize(
    "wrap", [lambda x: [x], lambda x: np.array([x, x])], ids=["list-of-one", "array-of-two"]
)
@pytest.mark.parametrize("site", list(SCALAR_SITES))
def test_every_scalar_given_as_an_array_raises_a_validation_error_before_any_solve(monkeypatch, site, wrap):
    # Each of these raised NumPy's bare TypeError or ValueError, some of them
    # after a solve had run.
    rvi, dp = relative_value_iteration(BSSC_09_06), solve_finite_horizon(BSSC_09_06, 3)

    def solve(*args, **kwargs):
        raise AssertionError("a solver ran")

    for module in (umco.infinite_horizon, umco.finite_dp):
        monkeypatch.setattr(module, "maximize_stage_objective", solve)
    monkeypatch.setattr(umco.finite_dp, "letter_scores", solve)
    monkeypatch.setattr(umco.bssc, "nofb_induction_deviations", solve)
    monkeypatch.setattr(umco.exponent, "_perron_pair", solve)
    with pytest.raises(ValidationError, match="must be a single number"):
        SCALAR_SITES[site](wrap, rvi, dp)


# Each entry runs one sweep over the given grid.
GRID_TABLES = {
    "kappa_grid": lambda grid: capacity_cost_curve(BSSC_09_06, GAMMA_03, grid),
    "alphas": lambda grid: bssc_grid_csv(grid, [0.5]),
    "betas": lambda grid: bssc_grid_csv([0.9], grid),
    "rho_grid": lambda grid: exponent_csv(BSSC_09_06, uniform_policy(2, 2), grid),
    "bssc_kappas": lambda grid: bssc_kappa_csv(NOFB, grid),
    "rates": lambda grid: rate_sweep_csv(BSSC_09_06, uniform_policy(2, 2), grid, 100),
}


@pytest.mark.parametrize("grid", ["x", 0.3, [[0.2], [0.3]]], ids=["text", "scalar", "2-d"])
@pytest.mark.parametrize("table", list(GRID_TABLES))
def test_a_grid_that_is_not_one_row_of_numbers_raises_a_validation_error(table, grid):
    # A 2-d rho grid raised NumPy's einsum ValueError, a scalar grid a bare TypeError.
    with pytest.raises(ValidationError):
        GRID_TABLES[table](grid)


@pytest.mark.parametrize(
    "table, message, rows",
    [
        ("kappa_grid", "kappa=nan: budget kappa must be finite", 1),
        ("alphas", "alpha=nan, beta=0.5: alpha must be finite", 2),
        ("betas", "alpha=0.9, beta=nan: beta must be finite", 2),
    ],
)
def test_a_none_grid_point_reads_as_nan_and_is_warned_about_and_skipped(table, message, rows):
    # It raised a bare TypeError from float(None) or from formatting None in the warning.
    with pytest.warns(UserWarning, match=message):
        result = GRID_TABLES[table]([None, 0.3])
    assert len(result if table == "kappa_grid" else result.splitlines()) == rows


def test_a_nan_budget_leaves_the_other_budgets_of_a_curve_as_they_were():
    # Sorted largest first with a NaN key, the budgets were solved in grid order.
    expected = capacity_cost_curve(BSSC_09_06, GAMMA_03, [0.2, 0.4, 0.3])
    with pytest.warns(UserWarning, match="kappa=nan"):
        got = capacity_cost_curve(BSSC_09_06, GAMMA_03, [0.2, float("nan"), 0.4, 0.3])
    assert [(r.kappa, r.multiplier, r.capacity) for r in got] == [(r.kappa, r.multiplier, r.capacity) for r in expected]
