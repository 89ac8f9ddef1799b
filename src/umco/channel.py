"""Data model for unit-memory channels and the elementary induced-distribution math.

A channel here is a conditional distribution P(b | b_prev, a) over finite
alphabets, stored as a dense kernel indexed ``[b_prev][a][b]``.  Everything a
solver consumes -- input policies pi(a | b_prev), induced output kernels
P(b | b_prev), distributions over states, cost tables -- lives in this module
together with its validation (one rule, ``_check_entries``, for every number
a caller passes, ``_check_number`` on it for every scalar, ``_stochastic_array``
for every probability array) and ``_csv``, the one writer of the package's CSV
tables.  All objects are immutable after construction (arrays are frozen), so
they are thread-safe.

Conventions: all logarithms are base 2 and every information quantity is in
bits; 0 * log 0 = 0 throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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


def _check_entries(values, what: str, low: float = 0.0, high: float | None = None) -> np.ndarray:
    """``values`` as a float array; ValidationError unless every entry is a finite number in [low, high].

    None (read as NaN), text and a ragged nest fail too.  The range test is
    written so that NaN (which fails every comparison, and which minimum and
    maximum propagate) and +-inf fail it; a test for values *outside* the
    range would let NaN through.  The initial values let an empty array pass.
    """
    values = _float_array(values, what)
    upper = _FLOAT_MAX if high is None else high
    lowest = np.minimum.reduce(values, axis=None, initial=np.inf)
    if not (lowest >= low and np.maximum.reduce(values, axis=None, initial=-np.inf) <= upper):
        if not np.isfinite(values).all():
            raise ValidationError(f"{what} must be finite")
        bound = "be nonnegative" if high is None else f"lie in [{low:g}, {high:g}]"
        raise ValidationError(f"{what} must {bound}")
    return values


def _check_number(value, what: str, low: float = 0.0, high: float | None = None) -> float:
    """``value`` as a float; ValidationError unless it is one finite number in [low, high], not a list of one."""
    value = _check_entries(value, what, low, high)
    if value.ndim:
        raise ValidationError(f"{what} must be a single number, got shape {value.shape}")
    return float(value)


def _float_grid(values, what: str) -> np.ndarray:
    """``values`` as a 1-d float array, None read as NaN; ValidationError for text, a scalar or a nested grid."""
    grid = _float_array(values, what)
    if grid.ndim != 1:
        raise ValidationError(f"{what} must be a 1-d grid, got shape {grid.shape}")
    return grid


def _frozen_array(values, what: str) -> np.ndarray:
    array = _float_array(values, what).copy()
    array.setflags(write=False)
    return array


def _stochastic_array(values, what: str, ndim: int, tol: float = STRICT_ROW_TOL, high: float = 1.0) -> np.ndarray:
    """``values`` as a frozen float array of ``ndim`` axes whose rows are probability vectors.

    Every entry must be finite and in [0, high], and the sums along the last
    axis must equal 1 within tol.  Constructed objects use the defaults; the
    load path passes its looser tolerance before it renormalizes.
    """
    array = _frozen_array(values, what)
    if array.ndim != ndim:
        raise ValidationError(f"{what} must be {ndim}-d, got shape {array.shape}")
    _check_entries(array, f"{what} entries", 0.0, high)
    worst = np.maximum.reduce(abs(np.add.reduce(array, axis=-1) - 1.0), axis=None, initial=0.0)
    if worst > tol:
        rows = " rows" if ndim > 1 else ""
        raise ValidationError(f"{what}{rows} must sum to 1 within {tol:g}, worst defect {worst:.3e}")
    return array


def _check_integer(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` as an int; ValidationError unless it is a whole number in [low, high] (no upper bound by default)."""
    try:
        whole = int(value) == value >= low and (high is None or value <= high)
    except (TypeError, ValueError, OverflowError):  # None, "x", nan, inf
        whole = False
    if not whole:
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{what} must be an integer {bound}, got {value!r}")
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
        if kernel.shape[0] != kernel.shape[2] or 0 in kernel.shape:
            raise ValidationError(f"kernel must have shape (S, A, S) with S, A >= 1, got {kernel.shape}")
        object.__setattr__(self, "kernel", kernel)

    @property
    def n_inputs(self) -> int:
        return self.kernel.shape[1]

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]


def channel_from_kernel(kernel, name: str | None = None) -> UnitMemoryChannel:
    """Build a channel from a raw [b_prev][a][b] array."""
    return UnitMemoryChannel(kernel, name)


@dataclass(frozen=True, eq=False)
class InputPolicy:
    """Conditional input distribution pi(a | b_prev); a stage policy's stage is its index in DPSolution.policies."""

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
        if matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"output kernel must be square, got shape {matrix.shape}")
        object.__setattr__(self, "matrix", matrix)

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
        gamma = _frozen_array(self.gamma, "cost table")
        if gamma.ndim != 2:
            raise ValidationError("cost table must be 2-d, indexed [b_prev][a]")
        _check_entries(gamma, "cost entries")
        object.__setattr__(self, "gamma", gamma)
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


def _check_compatible(channel: UnitMemoryChannel, table: np.ndarray, what: str = "policy"):
    """DimensionMismatchError unless a [b_prev][a] table (a policy or cost matrix) fits the channel."""
    if table.shape != (channel.n_states, channel.n_inputs):
        raise DimensionMismatchError(
            f"{what} shape {table.shape} does not match channel ({channel.n_states} states, {channel.n_inputs} inputs)"
        )


def resolve_cost(channel: UnitMemoryChannel, cost: CostSpec | None, multiplier: float | None):
    """(multiplier, cost table) of a solve: (None, None) without a cost, multiplier 0 by default."""
    if multiplier is not None and cost is None:
        raise ValidationError("a multiplier requires a cost specification")
    if cost is None:
        return None, None
    s = 0.0 if multiplier is None else _check_number(multiplier, "multiplier")
    _check_compatible(channel, cost.gamma, "cost")
    return s, cost.gamma


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
    with np.errstate(invalid="ignore"):
        return np.where(policy > 0.0, policy * scores, 0.0).sum(-1)


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
    inputs, outputs = (_check_integer(doc[field], "alphabet size", 1) for field in ("input_size", "output_size"))
    kernel = _stochastic_array(kernel, "kernel", 3, LOAD_ROW_TOL, 1.0 + LOAD_ROW_TOL)
    if kernel.shape != (outputs, inputs, outputs):
        raise ValidationError(f"kernel shape {kernel.shape} does not match alphabet sizes {outputs, inputs, outputs}")
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
    cost = None
    if doc.get("cost") is not None:
        cost = _float_array(doc["cost"], "cost table")
        if cost.shape != (outputs, inputs):
            raise ValidationError(f"cost shape {cost.shape} must be (output_size, input_size)")
        _check_entries(cost, "cost entries")
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
        doc["cost"] = np.asarray(cost, dtype=float).tolist()
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
