"""Data model for unit-memory channels and the elementary induced-distribution math.

A channel here is a conditional distribution P(b | b_prev, a) over finite
alphabets, stored as a dense kernel indexed ``[b_prev][a][b]``.  Everything a
solver consumes -- input policies pi(a | b_prev), induced output kernels
P(b | b_prev), distributions over states, cost tables -- lives in this module
together with its validation (one rule, ``_check_entries``, for every number
a caller passes, ``_check_number`` on it for every scalar, ``_stochastic_array``
for every probability array, ``_fit`` for every shape -- the loader's kernel
against the declared sizes, a channel's and an output kernel's own, a record's
fields, grids and every array that goes with a channel or solution:
ValidationError for a wrong number of axes, DimensionMismatchError for sizes
that disagree) and ``_csv``, the one writer of the package's CSV tables.
All objects are immutable after construction (arrays are frozen), so they
are thread-safe.

Conventions: all logarithms are base 2 and every information quantity is in
bits; 0 * log 0 = 0 throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property

import numpy as np

from .errors import ChannelFormatError, DimensionMismatchError, ValidationError

# Row sums of textual inputs rarely hit 1.0 exactly; accept a loose tolerance
# at load time and renormalize, but keep constructed objects tight.
LOAD_ROW_TOL = 1e-9
STRICT_ROW_TOL = 1e-12
_RENORM_EPS = 1e-15
_FLOAT_MAX = float(np.finfo(float).max)


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) source in bits, with 0*log 0 = 0."""
    p = _check_number(p, "binary_entropy argument p", 0.0, 1.0)
    out = 0.0
    for x in (p, 1.0 - p):
        if x > 0.0:
            out -= x * math.log2(x)
    return out


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a float array, not copied when it is one; ValidationError for text or a ragged nest."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be numbers: {exc}") from None


def _check_entries(values, what: str, low: float | None = 0.0, high: float | None = None) -> np.ndarray:
    """``values`` as a float array; ValidationError unless every entry is a finite number in [low, high].

    A bound of None is no bound: low=None is any finite number.  None (read
    as NaN), text and a ragged nest fail too.  The range test is written so
    that NaN (which fails every comparison, and which minimum and maximum
    propagate) and +-inf fail it; a test for values *outside* the range
    would let NaN through.  The initial values let an empty array pass.
    """
    values = _float_array(values, what)
    lower, upper = -_FLOAT_MAX if low is None else low, _FLOAT_MAX if high is None else high
    lowest = np.minimum.reduce(values, axis=None, initial=np.inf)
    if not (lowest >= lower and np.maximum.reduce(values, axis=None, initial=-np.inf) <= upper):
        if not np.isfinite(values).all():
            raise ValidationError(f"{what} must be finite")
        bound = f"lie in [{low:g}, {high:g}]" if high is not None else f"be at least {low:g}" if low else "be nonnegative"
        raise ValidationError(f"{what} must {bound}")
    return values


def _check_number(value, what: str, low: float | None = 0.0, high: float | None = None) -> float:
    """``value`` as a float; ValidationError unless it is one finite number in [low, high], not a list of one."""
    value = _check_entries(value, what, low, high)
    if value.ndim:
        raise ValidationError(f"{what} must be a single number, got shape {value.shape}")
    return float(value)


def _fit(values, what: str, shape: tuple, axes: str) -> np.ndarray:
    """The one fit rule: ``values`` as a float array of ``shape`` (a size of None fits any), axes named by ``axes``.

    A wrong number of axes raises ValidationError, a size that disagrees with
    the channel, solution or record the array goes with DimensionMismatchError;
    only that message reads ``axes``, so it is empty where every size is None.
    """
    array = _float_array(values, what)
    if array.ndim != len(shape):
        raise ValidationError(f"{what} must be {len(shape)}-d, got shape {array.shape}")
    for size, n in zip(shape, array.shape):  # a loop, not a built tuple: this runs on every record a solve builds
        if size is not None and size != n:
            expected = tuple(n if size is None else size for size, n in zip(shape, array.shape))
            raise DimensionMismatchError(f"{what} shape {array.shape} does not match {expected} ({axes})")
    return array


def _float_grid(values, what: str) -> np.ndarray:
    """``values`` as a 1-d float array by ``_fit``, None read as NaN."""
    return _fit(values, what, (None,), "")


def _frozen_array(values, what: str) -> np.ndarray:
    array = _float_array(values, what).copy()
    array.setflags(write=False)
    return array


def _stochastic_array(values, what: str, ndim: int, tol: float = STRICT_ROW_TOL, high: float = 1.0) -> np.ndarray:
    """``values`` as a frozen float array of ``ndim`` axes (``_fit``) whose rows are probability vectors.

    No axis may be empty, every entry must be finite and in [0, high], and the
    sums along the last axis must equal 1 within tol.  Constructed objects use
    the defaults; the load path passes its looser tolerance before it renormalizes.
    """
    array = _fit(_frozen_array(values, what), what, (None,) * ndim, "")
    if 0 in array.shape:
        raise ValidationError(f"{what} must have shape with at least one row of at least one entry, got {array.shape}")
    _check_entries(array, f"{what} entries", 0.0, high)
    worst = np.maximum.reduce(abs(np.add.reduce(array, axis=-1) - 1.0), axis=None, initial=0.0)
    if worst > tol:
        rows = " rows" if ndim > 1 else ""
        raise ValidationError(f"{what}{rows} must sum to 1 within {tol:g}, worst defect {worst:.3e}")
    return array


def _shown(value) -> str:
    """repr(value), but an int of more than 15 digits as 1.79769e+308, or by its digit count past float range."""
    if not isinstance(value, int) or abs(value) < 10**15:
        return repr(value)
    try:
        return f"{float(value):g}"
    except OverflowError:
        return f"an integer of {Decimal(abs(value)).adjusted() + 1} digits"


def _check_integer(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` as an int; ValidationError unless it is a whole number in [low, high] (no upper bound by default)."""
    try:
        whole = int(value) == value >= low and (high is None or value <= high)
    except (TypeError, ValueError, OverflowError):  # None, "x", nan, inf
        whole = False
    if not whole:
        bound = f">= {_shown(low)}" if high is None else f"in [{_shown(low)}, {_shown(high)}]"
        raise ValidationError(f"{what} must be an integer {bound}, got {_shown(value)}")
    return int(value)


@dataclass(frozen=True, eq=False)
class UnitMemoryChannel:
    """Channel kernel P(b | b_prev, a) on finite alphabets.

    kernel[b_prev][a] is a probability row over the next output b; the alphabet sizes are its shape (S, A, S).
    """

    kernel: np.ndarray
    name: str | None = None

    def __post_init__(self):
        kernel = _stochastic_array(self.kernel, "kernel", 3)
        object.__setattr__(self, "kernel", _fit(kernel, "kernel", (None, None, len(kernel)), "states, inputs, states"))

    @property
    def n_inputs(self) -> int:
        return self.kernel.shape[1]

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @cached_property
    def _prepared_kernel(self):
        """The stage solver's read-only loop invariants of the kernel, built on first use."""
        from . import onestage  # onestage imports this module
        return onestage._prepare_kernel(self.kernel)


def channel_from_kernel(kernel, name: str | None = None) -> UnitMemoryChannel:
    """Build a channel from a raw [b_prev][a][b] array."""
    return UnitMemoryChannel(kernel, name)


@dataclass(frozen=True, eq=False)
class InputPolicy:
    """Conditional input distribution pi(a | b_prev); InputPolicy(dp.policies[t]) wraps stage t of a DPSolution."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _stochastic_array(self.matrix, "policy", 2))

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class OutputKernel:
    """Transition matrix of the induced output chain, matrix[b_prev][b] = P(b | b_prev)."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = _stochastic_array(self.matrix, "output kernel", 2)
        object.__setattr__(self, "matrix", _fit(matrix, "output kernel", (None, len(matrix)), "states, states"))

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector, e.g. the law of the initial output symbol."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _stochastic_array(self.weights, "distribution", 1))

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        n = _check_integer(n, "size", 1)
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, index: int) -> "Distribution":
        n = _check_integer(n, "size", 1)
        w = np.zeros(n)
        w[_check_integer(index, "point-mass index", 0, n - 1)] = 1.0
        return cls(w)


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Per-letter transmission cost gamma[b_prev][a] >= 0 with average budget kappa."""

    gamma: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _cost_table(self.gamma, (None, None)))  # no channel: axes only
        object.__setattr__(self, "kappa", _check_number(self.kappa, "budget kappa"))


def uniform_policy(n_states: int, n_inputs: int) -> InputPolicy:
    n_inputs = _check_integer(n_inputs, "number of inputs", 1)
    return InputPolicy(np.full((_check_integer(n_states, "number of states", 1), n_inputs), 1.0 / n_inputs))


def deterministic_policy(choices, n_inputs: int) -> InputPolicy:
    """Point-mass policy selecting input choices[b_prev] in each state."""
    n_inputs = _check_integer(n_inputs, "number of inputs", 1)
    matrix = np.zeros((len(choices), n_inputs))
    for b, a in enumerate(choices):
        matrix[b, _check_integer(a, "input choice", 0, n_inputs - 1)] = 1.0
    return InputPolicy(matrix)


def _check_compatible(channel: UnitMemoryChannel, table: np.ndarray) -> np.ndarray:
    """A [b_prev][a] policy matrix that ``_fit`` takes for the channel (cost tables: ``_cost_table``)."""
    return _fit(table, "policy", (channel.n_states, channel.n_inputs), "states, inputs")


def _cost_table(table, shape) -> np.ndarray:
    """A frozen copy of a [b_prev][a] cost table that ``_fit`` takes for ``shape``, its entries finite and >= 0."""
    table = _fit(_frozen_array(table, "cost table"), "cost table", shape, "states, inputs")
    return _check_entries(table, "cost entries")


def _cost_penalty(multiplier, table, shape):
    """The one cost rule: (s, frozen cost table, penalty s * table or None at s = 0), all None without a cost.

    s must be one finite number >= 0 and the table pass ``_cost_table`` for ``shape``; neither comes without the other.
    """
    if (multiplier is None) != (table is None):
        raise ValidationError("a multiplier requires a cost table, and a cost table a multiplier")
    if table is None:
        return None, None, None
    s = _check_number(multiplier, "multiplier")
    table = _cost_table(table, shape)
    return s, table, s * table if s else None


def resolve_cost(channel: UnitMemoryChannel, cost: CostSpec | None, multiplier: float | None):
    """(multiplier, cost table, penalty) of a solve by ``_cost_penalty``; with a cost the multiplier defaults to 0."""
    multiplier = 0.0 if multiplier is None and cost is not None else multiplier
    return _cost_penalty(multiplier, None if cost is None else cost.gamma, (channel.n_states, channel.n_inputs))


def induced_output_kernel(channel: UnitMemoryChannel, policy: InputPolicy) -> OutputKernel:
    """Mix the kernel with the policy: P(b | b_prev) = sum_a P(b | b_prev, a) pi(a | b_prev)."""
    _check_compatible(channel, policy.matrix)
    return OutputKernel(np.einsum("sab,sa->sb", channel.kernel, policy.matrix))


def letter_divergences(rows: np.ndarray, output_row: np.ndarray) -> np.ndarray:
    """Per-input-letter divergence sum_b P(b|a) log2(P(b|a) / q(b)) in bits.

    Terms with P(b|a) = 0 contribute nothing; a letter whose row puts mass
    where q vanishes scores +inf.  The outputs run along the last axis, and
    ``output_row`` broadcasts against ``rows``.
    """
    rows = np.asarray(rows, dtype=float)
    mask = rows > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rows = np.where(mask, np.log2(np.where(mask, rows, 1.0)), 0.0)
        log_out = np.log2(output_row)
        terms = np.where(mask, rows * (log_rows - log_out), 0.0)
    return terms.sum(axis=-1)


def _policy_average(policy, scores):
    """sum_a pi(a) * score(a) over the last axis; a letter without mass counts 0, even where it scores +inf."""
    return (policy * np.where(policy > 0.0, scores, 0.0)).sum(-1)


def stage_reward(channel: UnitMemoryChannel, policy: InputPolicy, b_prev: int) -> float:
    """Conditional mutual information I(A; B | B_prev = b_prev) under the policy, in bits.

    Input letters with zero policy mass are excluded, so a deterministic
    policy always scores 0.
    """
    _check_compatible(channel, policy.matrix)
    b_prev = _check_integer(b_prev, "b_prev", 0, channel.n_states - 1)
    rows = channel.kernel[b_prev]
    weights = policy.matrix[b_prev]
    return float(_policy_average(weights, letter_divergences(rows, weights @ rows)))


def parse_channel_document(document: str) -> tuple[UnitMemoryChannel, np.ndarray | None]:
    """Parse a channel file, returning the channel and the optional cost table."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"channel document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ChannelFormatError("channel document must be a JSON object")
    for field in ("input_size", "output_size", "kernel"):
        if field not in doc:
            raise ChannelFormatError(f"channel document is missing required field '{field}'")
    try:
        kernel = np.asarray(doc["kernel"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ChannelFormatError(f"malformed channel document: {exc}") from exc
    inputs, outputs = (
        _check_integer(doc[field], f"'{field}' (alphabet size)", 1) for field in ("input_size", "output_size")
    )
    kernel = _stochastic_array(kernel, "kernel", 3, LOAD_ROW_TOL, 1.0 + LOAD_ROW_TOL)
    _fit(kernel, "kernel", (outputs, inputs, outputs), "outputs, inputs, outputs: the declared alphabet sizes")
    # Renormalize textual rows to exact sums, but leave already-clean rows
    # untouched so serialize -> load is the identity.  The sums are taken
    # after the clip, so an entry just above 1 cannot leave its row short.
    if np.any(np.abs(kernel.sum(axis=2) - 1.0) > _RENORM_EPS):
        kernel = np.clip(kernel, 0.0, 1.0)
        kernel = kernel / kernel.sum(axis=2, keepdims=True)
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ChannelFormatError("'name' must be a string")
    channel = UnitMemoryChannel(kernel, name)
    cost = None if doc.get("cost") is None else _cost_table(doc["cost"], (outputs, inputs))
    return channel, cost


def load_channel(document: str) -> UnitMemoryChannel:
    """Parse and validate a channel document (see ``parse_channel_document``)."""
    return parse_channel_document(document)[0]


def serialize_channel(channel: UnitMemoryChannel, cost: np.ndarray | None = None) -> str:
    """Emit the self-describing JSON document for a channel (optionally with a cost table)."""
    doc = {
        "input_size": channel.n_inputs,
        "output_size": channel.n_states,
        "kernel": channel.kernel.tolist(),
    }
    if cost is not None:
        doc["cost"] = _cost_table(cost, (channel.n_states, channel.n_inputs)).tolist()
    if channel.name is not None:
        doc["name"] = channel.name
    return json.dumps(doc, indent=2)


def _cell(value) -> str:
    if value is None or isinstance(value, str):
        return value or ""
    return str(value).lower() if isinstance(value, (bool, np.bool_)) else repr(float(value))


def _csv(header, rows) -> str:
    """A table as CSV text, one line per row and each ending in a newline.

    Every number is written as repr(float), so an integer 1 reads 1.0; a
    boolean is written in lower case, None as an empty cell and text (the
    header, stage and state indices) as it is.
    """
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])
