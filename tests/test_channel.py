"""Channel data model: validation, induced distributions, per-stage rewards."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import bibo_channel, bssc, embedded_dmc, random_channel
import umco.bssc
import umco.cli
import umco.exponent
import umco.finite_dp
import umco.infinite_horizon
from umco import (
    BSSCParams,
    BSSCSolution,
    ChannelFormatError,
    ConditionReport,
    CostSpec,
    DimensionMismatchError,
    DPSolution,
    Distribution,
    ExponentCurve,
    InfiniteHorizonSolution,
    InputPolicy,
    LambdaMatrix,
    MarkovInput,
    NestednessVerdict,
    OutputKernel,
    UnitMemoryChannel,
    ValidationError,
    average_cost,
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
    ftfi_capacity,
    gallager_exponent_infinite,
    generalized_dp_check,
    induced_output_kernel,
    lambda_matrix,
    load_channel,
    minimum_average_cost,
    nofb_induction_deviations,
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
from umco.onestage import StateSolution, maximize_stage_objective

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
    message = "kernel shape (2, 2, 2) does not match (2, 3, 2) (outputs, inputs, outputs: the declared alphabet sizes)"
    with pytest.raises(DimensionMismatchError) as exc_info:
        load_channel(json.dumps(doc))
    assert str(exc_info.value) == message


@pytest.mark.parametrize(
    "field, size, error",
    [
        ("input_size", 3, DimensionMismatchError),
        ("output_size", 3, DimensionMismatchError),
        ("input_size", 1, DimensionMismatchError),
        ("input_size", "2", ValidationError),
        ("output_size", -3, ValidationError),
        ("input_size", np.nan, ValidationError),
    ],
    ids=["input_size-3", "output_size-3", "input_size-1", "input_size-2", "output_size--3", "input_size-nan"],
)
def test_load_checks_each_declared_size_against_the_kernel(field, size, error):
    # The sizes are the kernel's shape; a declared size is a whole number >= 1 (the integer
    # rule) that agrees with it (the fit rule, as for a cost table in the same file).
    doc = json.loads(BSSC_105_DOC)
    doc[field] = size
    with pytest.raises(error, match="alphabet size"):
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
        InfiniteHorizonSolution: {"irreducible", "invariant_dist", "span_residual"},
        DPSolution: {"horizon"},
        BSSCSolution: {"constrained", "lam"},
    }
    for record, names in derived.items():
        assert names.isdisjoint(field.name for field in dataclasses.fields(record))
        assert all(isinstance(getattr(record, name), property) for name in names)


def _arrays(value):
    """Every array reachable from a result: its fields, the records they hold and the items of its tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))
    elif isinstance(value, tuple):  # StateSolution, gain brackets
        for item in value:
            yield from _arrays(item)


def _stationary_record(**changes):
    """An InfiniteHorizonSolution built by a caller on two states, with ``changes`` to its fields."""
    fields = dict(gain=0.5, bias=np.zeros(2), policy=uniform_policy(2, 2), iterations=0, gain_bracket=(0.5, 0.5))
    fields["output_kernel"] = OutputKernel(np.full((2, 2), 0.5))
    return InfiniteHorizonSolution(**{**fields, **changes})


def _dp_record(**changes):
    """A DPSolution built by a caller with two stages on two states, with ``changes`` to its fields."""
    fields = dict(values=np.zeros((2, 2)), policies=np.full((2, 2, 2), 0.5), multiplier=None, inner_iterations=(0, 0))
    return DPSolution(**{**fields, **changes})


def test_no_array_a_result_holds_is_writable():
    channel, params = bibo_channel(), BSSCParams(1.0, 0.5)
    rvi = relative_value_iteration(channel)
    dp = solve_finite_horizon(channel, 3)
    policy = bssc_optimal_policy(params)
    given = {"bias": np.ones(2), "values": np.ones((2, 2)), "violations": np.ones((1, 2, 2)), "state_spread": np.zeros(2)}
    given["policies"] = np.array([[[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0], [0.0, 1.0]]])  # stage t, state b, letter a
    given["violations"][0, 0, 1] = np.inf  # an off-support letter whose row reaches an output q misses
    given["cost_gamma"] = np.array([[0.0, 1.0], [1.0, 0.0]])  # held by both solution records
    results = {
        "StateSolution, slots filled": maximize_stage_objective(channel.kernel),
        "StateSolution, certified together": maximize_stage_objective(bssc(1.0, 0.5).kernel),
        "InfiniteHorizonSolution, RVI": rvi,
        "InfiniteHorizonSolution, PI": policy_iteration(channel, uniform_policy(2, 2)),
        "DPSolution": dp,
        "ConditionReport": verify_optimality_conditions(channel, dp, tol=1e-8),
        "ConditionReport, Bellman": verify_bellman_conditions(channel, rvi, tol=1e-8),
        "NestednessVerdict": classify_non_nested(dp, tol=1e-6),
        "ConstrainedResult": constrained_capacity(bssc(1.0, 0.5), CostSpec(bssc_cost_function(), 0.3)),
        "ExponentCurve": exponent_curve(bssc(1.0, 0.5), policy, [0.0, 0.5, 1.0]),
        "LambdaMatrix": lambda_matrix(bssc(1.0, 0.5), policy, 0.5),
        "BSSCSolution": bssc_constrained_closed_form(params, 0.3),
        "MarkovInput": bssc_nofeedback_markov(params, bssc_closed_form(params).nu),
        "InfiniteHorizonSolution, built by a caller": _stationary_record(
            bias=given["bias"], multiplier=0.5, cost_gamma=given["cost_gamma"]
        ),
        "DPSolution, built by a caller": _dp_record(
            values=given["values"], policies=given["policies"], multiplier=0.5, cost_gamma=given["cost_gamma"]
        ),
        "ConditionReport, built by a caller": ConditionReport(False, np.inf, given["violations"]),
        "NestednessVerdict, built by a caller": NestednessVerdict("nested", given["state_spread"]),
        # State 0 never reaches output 1, so the unreachable mask is an array too.
        "prepared kernel": channel_from_kernel([[[1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.2, 0.8]]])._prepared_kernel,
    }
    assert len(list(_arrays(results["prepared kernel"]))) == 4
    # The two exits of the stage solver: states certified apart fill slots, together they return the buffers.
    slots, together = results["StateSolution, slots filled"], results["StateSolution, certified together"]
    assert isinstance(slots, StateSolution) and slots.iterations != 2 * slots.slowest_iterations
    assert together.iterations == 2 * together.slowest_iterations
    for name, result in results.items():
        arrays = list(_arrays(result))
        assert arrays or name == "BSSCSolution", name
        for array in arrays:
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0
    # A record built by a caller holds its own frozen copy; the caller's array stays writable.
    for name, array in given.items():
        records = [r for key, r in results.items() if "by a caller" in key and hasattr(r, name)]
        assert records, name
        for held in (getattr(record, name) for record in records):
            assert array.flags.writeable and not np.shares_memory(held, array), name
            assert held.tobytes() == array.tobytes(), name


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: _stationary_record(gain=np.nan, iterations=-3), ValidationError),
        (lambda: _stationary_record(gain=[0.5]), ValidationError),
        (lambda: _stationary_record(iterations=-3), ValidationError),
        (lambda: _stationary_record(iterations=1.5), ValidationError),
        (lambda: _stationary_record(bias=[0.0, np.nan]), ValidationError),
        (lambda: _stationary_record(bias=np.zeros(3)), DimensionMismatchError),
        (lambda: _stationary_record(policy=uniform_policy(3, 2)), DimensionMismatchError),
        (lambda: _stationary_record(output_kernel=OutputKernel(np.eye(3))), DimensionMismatchError),
        (lambda: _dp_record(policies=np.full((1, 2, 2), 0.5), inner_iterations=(0,)), DimensionMismatchError),
        (lambda: _dp_record(inner_iterations=(0,)), DimensionMismatchError),
        (lambda: _dp_record(values=np.zeros(2)), ValidationError),
        (lambda: _dp_record(values=np.zeros((2, 3))), DimensionMismatchError),
        (lambda: _dp_record(policies=np.full((2, 3, 2), 0.5)), DimensionMismatchError),
        (
            lambda: _dp_record(values=np.zeros((0, 2)), policies=np.zeros((0, 2, 2)), inner_iterations=()),
            ValidationError,
        ),
        (lambda: _dp_record(policies=np.full((2, 2), 0.5)), ValidationError),
        (lambda: _dp_record(policies=[uniform_policy(2, 2).matrix, uniform_policy(2, 3).matrix]), ValidationError),
        (lambda: _dp_record(policies=np.full((2, 2, 2), 0.5 + 1e-9)), ValidationError),
        (lambda: _dp_record(policies=[[[0.5, 0.5], [1.5, -0.5]]] * 2), ValidationError),
        (lambda: _dp_record(values=[[0.0, 1.0], [np.inf, 0.0]]), ValidationError),
        (lambda: _dp_record(multiplier=0.5, cost_gamma=np.zeros((2, 3))), DimensionMismatchError),
        (lambda: _stationary_record(multiplier=0.5), ValidationError),
        (lambda: _dp_record(multiplier=0.5), ValidationError),
        (lambda: _stationary_record(multiplier=0.5, cost_gamma=[[np.nan, 0.0], [0.0, 0.0]]), ValidationError),
        (lambda: _dp_record(multiplier=0.5, cost_gamma=[[-1.0, 0.0], [0.0, 0.0]]), ValidationError),
        (lambda: _stationary_record(multiplier=0.5, cost_gamma=np.zeros((3, 3))), DimensionMismatchError),
        (lambda: _dp_record(multiplier=0.5, cost_gamma=np.zeros(2)), ValidationError),
        *[
            (lambda record=record, bad=bad: record(multiplier=bad, cost_gamma=np.ones((2, 2))), ValidationError)
            for record in (_stationary_record, _dp_record)
            for bad in (np.nan, np.inf, -1.0, "x")
        ],
        (lambda: _stationary_record(cost_gamma=np.ones((2, 2))), ValidationError),
        (lambda: _dp_record(cost_gamma=np.ones((2, 2))), ValidationError),
        (lambda: _dp_record(inner_iterations=(0, "a")), ValidationError),
        (lambda: _dp_record(inner_iterations=(-5, 0)), ValidationError),
        (lambda: _dp_record(inner_iterations=(1.5, 1)), ValidationError),
        (lambda: _stationary_record(gain_bracket=(np.nan, 1.0)), ValidationError),
        (lambda: _stationary_record(gain_bracket=(0.0, np.inf)), ValidationError),
        (lambda: _stationary_record(gain_bracket=(-np.inf, 1.0)), ValidationError),
        (lambda: _stationary_record(gain_bracket=(2.0, 1.0)), ValidationError),
        (lambda: _stationary_record(gain_bracket=(0.0, 0.5, 1.0)), DimensionMismatchError),
        (lambda: _stationary_record(gain_trace=(0.5, np.inf)), ValidationError),
        (lambda: InputPolicy(np.zeros((0, 3))), ValidationError),
        (lambda: OutputKernel(np.zeros((0, 0))), ValidationError),
        (lambda: _dp_record(values=np.zeros((2, 0)), policies=np.zeros((2, 0, 3))), ValidationError),
    ],
    ids=[
        "nan-gain-negative-iterations",
        "gain-list-of-one",
        "negative-iterations",
        "fractional-iterations",
        "nan-bias",
        "bias-of-three",
        "policy-of-three",
        "kernel-of-three",
        "horizon-0-values-of-two-stages",
        "one-iteration-count",
        "values-1d",
        "values-of-three-states",
        "policies-of-three-states",
        "no-stage",
        "policies-2d",
        "policies-of-two-shapes",
        "policy-rows-off-one",
        "negative-policy-entry",
        "infinite-value",
        "dp-cost-table-of-three-inputs",
        "stationary-multiplier-without-cost-table",
        "dp-multiplier-without-cost-table",
        "stationary-nan-cost-table",
        "dp-negative-cost-table",
        "stationary-cost-table-of-three",
        "dp-cost-table-1d",
        *[f"{record}-multiplier-{bad}" for record in ("stationary", "dp") for bad in ("nan", "inf", "minus-1", "text")],
        "stationary-cost-table-without-multiplier",
        "dp-cost-table-without-multiplier",
        "dp-text-inner-iterations",
        "dp-negative-inner-iterations",
        "dp-fractional-inner-iterations",
        "nan-gain-bracket",
        "infinite-gain-bracket",
        "minus-infinite-gain-bracket",
        "inverted-gain-bracket",
        "gain-bracket-of-three",
        "infinite-gain-trace",
        "policy-of-no-state",
        "output-kernel-of-no-state",
        "dp-of-no-state",
    ],
)
def test_result_records_reject_each_contradictory_construction(build, error):
    # The first and ninth rows were accepted before: a NaN gain with -3 iterations,
    # and horizon 0 against two stages of values.  So were the six cost-table rows: a
    # multiplier without the cost table it penalizes, which the verifiers dropped,
    # and a NaN, negative or misshapen table, which they replayed.  So were the
    # gain brackets and trace after them (an inverted bracket read a negative
    # span residual) and the records over zero states.  A multiplier of NaN,
    # inf, -1 or text, a cost table without a multiplier and inner-iteration
    # counts that are not whole numbers >= 0 were accepted too.
    with pytest.raises(error):
        build()


def test_result_records_store_the_cost_rule_values_and_whole_counts():
    # The multiplier and counts are kept as Python numbers, as gain_trace is.
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    for record in (_stationary_record, _dp_record):
        stored = record(multiplier=np.int64(1), cost_gamma=gamma).multiplier
        assert type(stored) is float and stored == 1.0
    dp = _dp_record(inner_iterations=[np.int64(3), 2.0])
    assert dp.inner_iterations == (3, 2) and all(type(n) is int for n in dp.inner_iterations)
    # The gain bracket is a required field after iterations, so every record has a span residual.
    names = [field.name for field in dataclasses.fields(InfiniteHorizonSolution)]
    assert names[names.index("iterations") + 1] == "gain_bracket"
    assert dataclasses.fields(InfiniteHorizonSolution)[names.index("gain_bracket")].default is dataclasses.MISSING
    with pytest.raises(TypeError, match="gain_bracket"):
        InfiniteHorizonSolution(0.5, np.zeros(2), uniform_policy(2, 2), OutputKernel(np.full((2, 2), 0.5)), 0)
    assert "span residual   = 0.000e+00 bits" in umco.cli.solution_report(_stationary_record())


@pytest.mark.parametrize(
    "shape, error, message",
    [
        ((2, 2, 3), DimensionMismatchError, "kernel shape (2, 2, 3) does not match (2, 2, 2) (states, inputs, states)"),
        ((0, 1, 0), ValidationError, "kernel must have shape with at least one row of at least one entry, got (0, 1, 0)"),
        ((2, 0, 2), ValidationError, "kernel must have shape with at least one row of at least one entry, got (2, 0, 2)"),
    ],
    ids=["(2, 2, 3)", "(0, 1, 0)", "(2, 0, 2)"],
)
def test_channel_sizes_are_the_kernel_shape(shape, error, message):
    with pytest.raises(error) as exc_info:
        UnitMemoryChannel(np.full(shape, 1.0 / shape[2] if shape[2] else 0.0))
    assert str(exc_info.value) == message
    channel = UnitMemoryChannel(np.full((3, 2, 3), 1.0 / 3))
    assert (channel.n_states, channel.n_inputs) == (3, 2)


def test_load_rejects_malformed_documents():
    with pytest.raises(ChannelFormatError):
        load_channel("{not json")
    with pytest.raises(ChannelFormatError):
        load_channel(json.dumps({"input_size": 2}))
    with pytest.raises(ChannelFormatError):
        load_channel(json.dumps([1, 2, 3]))


@pytest.mark.parametrize("field", ["input_size", "output_size"])
def test_load_size_message_names_the_field(field):
    doc = json.loads(BSSC_105_DOC)
    doc[field] = 2.7
    with pytest.raises(ValidationError, match=f"^'{field}' \\(alphabet size\\) must be an integer >= 1, got 2.7$"):
        load_channel(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda doc: doc["kernel"][0].append([1.0]), ChannelFormatError, "malformed channel document"),
        (lambda doc: doc.update(name=3), ChannelFormatError, "'name' must be a string"),
        (
            lambda doc: doc.update(cost=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            DimensionMismatchError,
            "cost table shape (2, 3) does not match (2, 2) (states, inputs)",
        ),
    ],
    ids=["ragged-kernel", "name-not-a-string", "cost-wrong-shape"],
)
def test_load_rejects_each_malformed_field(edit, error, message):
    doc = json.loads(BSSC_105_DOC)
    edit(doc)
    with pytest.raises(error) as exc_info:
        load_channel(json.dumps(doc))
    assert message in str(exc_info.value)


def test_output_kernel_must_be_square():
    with pytest.raises(DimensionMismatchError) as exc_info:
        OutputKernel(np.full((2, 3), 1.0 / 3))
    assert str(exc_info.value) == "output kernel shape (2, 3) does not match (2, 2) (states, states)"


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
    "ExponentCurve.F": lambda v: ExponentCurve([0.5], [v], [1.0], [0.0]),
    "ExponentCurve.eigen_ratio": lambda v: ExponentCurve([0.5], [0.5], [v], [0.0]),
    "ExponentCurve.bracket_width": lambda v: ExponentCurve([0.5], [0.5], [1.0], [v]),
    "InfiniteHorizonSolution.gain": lambda v: _stationary_record(gain=v),
    "InfiniteHorizonSolution.bias": lambda v: _stationary_record(bias=[0.0, v]),
    "DPSolution.values": lambda v: _dp_record(values=[[0.0, 0.0], [0.0, v]]),
    "DPSolution.policies": lambda v: _dp_record(policies=_set_first([[[1.0, 0.0], [0.5, 0.5]]] * 2, v)),
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


@pytest.mark.parametrize(
    "cost, error, message",
    [
        (np.ones((3, 3)), DimensionMismatchError, "cost table shape (3, 3) does not match (2, 2) (states, inputs)"),
        (np.ones(2), ValidationError, "cost table must be 2-d, got shape (2,)"),
        ([[np.nan, 0.0], [0.0, 1.0]], ValidationError, "cost entries must be finite"),
        ([[-1.0, 0.0], [0.0, 1.0]], ValidationError, "cost entries must be nonnegative"),
    ],
    ids=["3x3", "1-d", "nan-entry", "negative-entry"],
)
def test_serialize_refuses_a_cost_table_that_load_refuses(cost, error, message):
    # Each of these tables was written, NaN as a bare token that is not JSON, and refused on load.
    with pytest.raises(error) as exc_info:
        serialize_channel(bssc(0.9, 0.2), cost)
    assert str(exc_info.value) == message


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


# The fit rule's defects on the 2x2 channel BSSC_09_06, each built as
# np.full(shape, 1 / shape[-1]) so that its rows are probability vectors:
# shape, the one error type and the one message form every entry point gives.
FIT_DEFECTS = {
    "table-1d": ((2,), ValidationError, r"must be 2-d, got shape \(2,\)$"),
    "table-of-three-states": (
        (3, 2),
        DimensionMismatchError,
        r"shape \(3, 2\) does not match \(2, 2\) \((states|inputs), inputs\)$",
    ),
    "vector-short": ((1,), DimensionMismatchError, r"shape \(1,\) does not match \(2,\) \(states\)$"),
    "vector-long": ((3,), DimensionMismatchError, r"shape \(3,\) does not match \(2,\) \(states\)$"),
    "vector-2d": ((1, 2), ValidationError, r"must be 1-d, got shape \(1, 2\)$"),
}
# Entry points that take a [b_prev][a] (or, for the Markov input, [a_prev][a]) table.
TABLE_SITES = {
    "load-cost": lambda bad: parse_channel_document(json.dumps({**json.loads(BSSC_105_DOC), "cost": bad.tolist()})),
    "CostSpec": lambda bad: CostSpec(bad, 0.5),
    "induced-kernel-policy": lambda bad: induced_output_kernel(BSSC_09_06, InputPolicy(bad)),
    "rvi-initial-policy": lambda bad: relative_value_iteration(BSSC_09_06, initial_policy=InputPolicy(bad)),
    "pi-initial-policy": lambda bad: policy_iteration(BSSC_09_06, InputPolicy(bad)),
    "rvi-cost": lambda bad: relative_value_iteration(BSSC_09_06, cost=CostSpec(bad, 0.5), multiplier=0.5),
    "pi-cost": lambda bad: policy_iteration(BSSC_09_06, uniform_policy(2, 2), cost=CostSpec(bad, 0.5), multiplier=0.5),
    "dp-cost": lambda bad: solve_finite_horizon(BSSC_09_06, 2, cost=CostSpec(bad, 0.5), multiplier=0.5),
    "stationary-record-cost": lambda bad: _stationary_record(multiplier=0.5, cost_gamma=bad),
    "dp-record-cost": lambda bad: _dp_record(multiplier=0.5, cost_gamma=bad),
    "minimum_average_cost": lambda bad: minimum_average_cost(BSSC_09_06, bad),
    "average_cost": lambda bad: average_cost(BSSC_09_06, uniform_policy(2, 2), CostSpec(bad, 0.5)),
    "constrained_capacity": lambda bad: constrained_capacity(BSSC_09_06, CostSpec(bad, 0.5)),
    "capacity_cost_curve": lambda bad: capacity_cost_curve(BSSC_09_06, CostSpec(bad, 0.0), [0.3]),
    "nofb-markov-input": lambda bad: nofb_induction_deviations(
        BSSC_09_06, MarkovInput(bad, 0.5), uniform_policy(2, 2), Distribution.uniform(2), 3
    ),
}
# Entry points that take a vector over the states.
VECTOR_SITES = {
    "rvi-initial-value": lambda bad: relative_value_iteration(BSSC_09_06, initial_value=bad),
    "gain_by_state": lambda bad: generalized_dp_check(BSSC_09_06, _stationary_record(), 1e-9, gain_by_state=bad),
    "stationary-record-bias": lambda bad: _stationary_record(bias=bad),
    "ftfi-initial": lambda bad: ftfi_capacity(_dp_record(), Distribution(bad)),
    "nofb-initial": lambda bad: nofb_induction_deviations(
        BSSC_09_06, MarkovInput(np.full((2, 2), 0.5), 0.5), uniform_policy(2, 2), Distribution(bad), 3
    ),
}
FIT_CASES = [
    *[(site, defect) for site in TABLE_SITES for defect in ("table-1d", "table-of-three-states")],
    *[(site, defect) for site in VECTOR_SITES for defect in ("vector-short", "vector-long", "vector-2d")],
]


@pytest.mark.parametrize(
    "site, defect",
    [case for case in FIT_CASES if case != ("CostSpec", "table-of-three-states")],  # no channel: axes only
    ids=lambda value: value,
)
def test_every_array_that_must_fit_the_channel_fails_one_rule_before_any_solve(monkeypatch, site, defect):
    # These gave three error types, one of them NumPy's bare ValueError, and a
    # message form per site; a mis-shaped table returned a number from
    # average_cost and was warned about and skipped by capacity_cost_curve.
    def solve(*args, **kwargs):
        raise AssertionError("a solver ran")

    for module in (umco.infinite_horizon, umco.finite_dp):
        monkeypatch.setattr(module, "maximize_stage_objective", solve)
    shape, error, message = FIT_DEFECTS[defect]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            {**TABLE_SITES, **VECTOR_SITES}[site](np.full(shape, 1.0 / shape[-1]))


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
