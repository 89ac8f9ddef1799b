"""Maximum-likelihood error-probability bounds for unit-memory channels with feedback.

The previous output acts as a known state, so the per-block exponent is a
path sum over the state-weight matrix

    M[s_next][s_prev] = [ sum_a pi(a | s_prev) P(b = s_next | s_prev, a)^(1/(1+rho)) ]^(1+rho)

whose Perron root lambda_max(rho) gives the asymptotic exponent
F_inf(rho) = -log2 lambda_max.  The roots of a whole rho grid come from one
stacked repeated squaring, each certified by a Collatz-Wielandt bracket at
most 1e-12 wide relative to lambda_max.  The random-coding exponent
E_r(R) = max_{0 <= rho <= 1} F_inf(rho) - rho R is taken on a 0.01 grid in
rho refined by batched grids to a 1e-6 bracket.  A rate sweep runs one rho
search for all its rates, each refinement level one stacked solve over
every rate's grid; the block-error bound

    P_err <= 4 * |B| * (v_max / v_min) * 2^(-n E_r(R))

with the eigenvector ratio of the Perron vector certifying the finite-n bracket
|E_n + log2 lambda_max| <= (1/n) log2(v_max / v_min), from the grid that picked rho*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import (
    InputPolicy, UnitMemoryChannel, _check_compatible, _check_entries, _check_integer, _check_number, _csv,
    _fit, _float_grid, _frozen_array,
)
from .errors import ConvergenceError, ReducibleChainError, ValidationError
from .infinite_horizon import _reach

ENUMERATION_LIMIT = 16
_RHO_GRID_STEP = 0.01
_COARSE_RHOS = np.arange(0.0, 1.0 + _RHO_GRID_STEP / 2, _RHO_GRID_STEP)
_RHO_TOL = 1e-6
# A batched solve has a fixed cost plus a cost per point, so three small
# refinements are cheaper than two large ones; three take a 0.02-wide bracket
# below _RHO_TOL: 0.02 * (2 / 56)^3 < 1e-6.
_REFINE_POINTS = 57
_MAX_BLOCK_LENGTH = int(np.finfo(float).max)  # the bound takes -n * E_r as a float


@dataclass(frozen=True, eq=False)
class LambdaMatrix:
    """State-weight matrix at a fixed rho, indexed [s_next][s_prev].

    At rho = 0 the entries collapse to the induced output kernel transposed,
    so every column must sum to 1.
    """

    rho: float
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _check_number(self.rho, "rho", 0.0, 1.0))
        matrix = _frozen_array(self.matrix, "state-weight matrix")
        _check_entries(matrix, "state-weight entries")
        if self.rho == 0.0 and np.abs(matrix.sum(axis=0) - 1.0).max() > 1e-9:
            raise ValidationError("at rho = 0 the state-weight columns must sum to 1")
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True, eq=False)
class ExponentCurve:
    """Read-only arrays of one length: rho, F_infinity = -log2 lambda_max, eigenvector ratio, bracket width.

    bracket_width holds, at each rho, the width of the Collatz-Wielandt
    bracket on lambda_max relative to its upper end: the certificate of the
    Perron root, at most 1e-12 for every sample a solve returns.
    """

    rho: np.ndarray
    f_infinity: np.ndarray
    eigen_ratio: np.ndarray
    bracket_width: np.ndarray

    def __post_init__(self):
        ranges = (0.0, 1.0), (None, None), (1.0, None), (0.0, 1.0)  # F may round just below 0
        samples = (None,)  # then rho's length, once rho is fitted
        for name, (low, high) in zip(("rho", "f_infinity", "eigen_ratio", "bracket_width"), ranges):
            array = _check_entries(_frozen_array(getattr(self, name), name), name, low, high)
            object.__setattr__(self, name, _fit(array, name, samples, "rho samples"))
            samples = self.rho.shape
        _check_entries(self.f_infinity[self.rho == 0.0], "the exponent at rho = 0", -1e-10, 1e-10)


def _transposed_weights(channel: UnitMemoryChannel, policy: InputPolicy, rhos) -> np.ndarray:
    """State-weight matrices transposed, [k][s_prev][s_next], for every rho at once.

    At rho = 1 a grid of one or two points may differ in the last bit from a
    longer grid: NumPy's power then takes its sqrt or square shortcut.
    """
    rhos = _check_entries(rhos, "rho", 0.0, 1.0)
    _check_compatible(channel, policy.matrix)
    power = (1.0 + rhos)[:, None, None]
    inner = np.einsum("sa,ksan->ksn", policy.matrix, np.power(channel.kernel, 1.0 / power[..., None]))
    return np.power(inner, power)


def lambda_matrix(channel: UnitMemoryChannel, policy: InputPolicy, rho: float) -> LambdaMatrix:
    """Build the state-weight matrix for a time-invariant policy at rho in [0, 1]."""
    rho = _check_number(rho, "rho", 0.0, 1.0)
    return LambdaMatrix(rho=rho, matrix=_transposed_weights(channel, policy, [rho])[0].T)


def _perron_pair(matrices: np.ndarray, tol: float = 1e-12, max_squarings: int = 64):
    """Perron roots, positive eigenvectors and relative bracket widths of a stack (k, n, n).

    The matrices must be nonnegative and irreducible.  Repeated squaring of
    P = M + I, scaled to unit total before each square: the identity shift
    makes P primitive, so periodic chains converge too, and j squares take
    2^j power steps.  Products of nonnegative matrices have no cancellation,
    so the squares are forward-stable.  The row sums of P^(2^j) are the
    candidate Perron vector v; with r = Mv / v elementwise,
    min r <= lambda_max <= max r (the Collatz-Wielandt bounds, Horn & Johnson,
    Matrix Analysis, section 8.1).  A matrix whose bracket is at most
    tol * max r wide is frozen with the midpoint as its root and
    (max r - min r) / max r as its width; its products are those of a solve
    of it alone, so its result does not depend on the rest of the stack.  A
    bracket still open after max_squarings squares raises ConvergenceError
    with the widest relative width as residual.
    """
    k, n, _ = matrices.shape
    roots, vecs, widths = np.empty(k), np.empty((k, n)), np.empty(k)
    live, power, ones = np.arange(k), matrices + np.eye(n), np.ones(n)
    for squarings in itertools.count():
        rows = power @ ones
        total = rows.sum(axis=1)
        vec = rows / total[:, None]
        # Stored (n, k): numpy reduces across n long rows far faster than along k short ones.
        ratios = np.ascontiguousarray(((matrices @ vec[:, :, None])[:, :, 0] / vec).T)
        lo, hi = ratios.min(axis=0), ratios.max(axis=0)
        width = (hi - lo) / hi
        done = width <= tol
        if done.any():
            frozen = live[done]
            roots[frozen], vecs[frozen], widths[frozen] = 0.5 * (lo + hi)[done], vec[done], width[done]
            live, matrices, power, total = live[~done], matrices[~done], power[~done], total[~done]
        if not live.size:
            return roots, vecs, widths
        if squarings == max_squarings:
            raise ConvergenceError(
                f"Perron bracket still open after {max_squarings} squarings", residual=float(width.max())
            )
        power = power / total[:, None, None]
        power = power @ power


def _gallager_exponents(
    channel: UnitMemoryChannel, policy: InputPolicy, rhos
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F_inf, the eigenvector ratio and the relative Perron bracket width at every rho, from one stacked solve."""
    stack = _transposed_weights(channel, policy, rhos)
    if not _reach(stack).all():
        raise ReducibleChainError("state-weight matrix is reducible at this policy; the bound is not certified")
    roots, vecs, widths = _perron_pair(stack)
    return -np.log2(roots), vecs.max(axis=1) / vecs.min(axis=1), widths


def gallager_exponent_infinite(channel: UnitMemoryChannel, policy: InputPolicy, rho: float) -> tuple[float, float]:
    """Asymptotic exponent F_inf(rho) = -log2 lambda_max and the eigenvector ratio.

    The ratio comes from the Perron vector of the transposed state-weight
    matrix, which is the one entering the finite-n bracket for path sums
    started from a known state.  A reducible matrix is rejected: the
    nonnegative-matrix theorem behind the bound needs irreducibility.
    """
    f_inf, ratio, _ = _gallager_exponents(channel, policy, [_check_number(rho, "rho", 0.0, 1.0)])
    return float(f_inf[0]), float(ratio[0])


def exponent_curve(channel: UnitMemoryChannel, policy: InputPolicy, rho_grid) -> ExponentCurve:
    """F_inf, the eigenvector ratio and the bracket width at every rho of rho_grid, in one stacked solve."""
    rhos = _float_grid(rho_grid, "rho grid")  # each rho is checked before the solve
    return ExponentCurve(rhos, *_gallager_exponents(channel, policy, rhos))


def _rho_search(channel: UnitMemoryChannel, policy: InputPolicy, rates, memo: dict) -> list[tuple[float, float, float]]:
    """(E_r, rho*, the eigenvector ratio at rho*) at every checked rate, with one stacked solve per level.

    Each rate memo lacks starts on the 0.01 grid; each level solves its
    distinct grids in one _gallager_exponents call on their concatenation.
    memo holds finished rates only, each under its bytes, not its value, so
    0.0 and -0.0 keep their own clamped E_r; the ratio is read off the grid
    that picked rho*.
    """
    keys = [np.float64(rate).tobytes() for rate in rates]
    pending = {key: (rate, _COARSE_RHOS) for key, rate in zip(keys, rates) if key not in memo}
    while pending:
        grids = {rhos.tobytes(): rhos for _, rhos in pending.values()}
        solved = _gallager_exponents(channel, policy, np.concatenate(list(grids.values())))
        stops = np.cumsum([len(rhos) for rhos in grids.values()])[:-1]
        slices = dict(zip(grids, zip(*(np.split(array, stops) for array in solved))))
        for key, (rate, rhos) in list(pending.items()):
            f_inf, ratios, _ = slices[rhos.tobytes()]
            values = f_inf - rhos * rate
            i = int(np.argmax(values))
            lo, hi = rhos[max(i - 1, 0)], rhos[min(i + 1, len(rhos) - 1)]
            if hi - lo <= _RHO_TOL:
                memo[key] = max(float(values[i]), 0.0), float(rhos[i]), float(ratios[i])
                del pending[key]
            else:
                pending[key] = rate, np.linspace(lo, hi, _REFINE_POINTS)
    return [memo[key] for key in keys]


def random_coding_exponent(
    channel: UnitMemoryChannel, policy: InputPolicy, rate: float, *, _memo: dict | None = None
) -> tuple[float, float]:
    """Maximize F_inf(rho) - rho * rate over rho in [0, 1].

    Coarse grid at step 0.01, then grids of _REFINE_POINTS points over the
    interval bracketing the best point until that bracket is at most 1e-6
    wide in rho (three refinements); each grid is one batched solve searched
    whole, so no unimodality is assumed.  The value is clamped at 0 (the
    rho = 0 endpoint always achieves 0).
    """
    rate = _check_number(rate, "rate")
    return _rho_search(channel, policy, [rate], {} if _memo is None else _memo)[0][:2]


def error_probability_bound(
    channel: UnitMemoryChannel,
    policy: InputPolicy,
    rate: float,
    n: int,
    state_known: bool = False,
    *,
    _memo: dict | None = None,
) -> float:
    """Block-error upper bound 4 |B| (v_max/v_min) 2^(-n E_r(rate)), capped at 1.

    With the initial state known at both ends the |B| factor drops.  The ratio
    at rho* is the one the rho search solved on the grid that picked rho*, read
    back from the search's memo: no Perron solve beyond the search's own.
    """
    n = _check_integer(n, "block length n", 1, _MAX_BLOCK_LENGTH)
    rate, memo = _check_number(rate, "rate"), {} if _memo is None else _memo
    # E_r through the public call: a sweep's pinned benchmark counter reads two such calls a rate.
    exponent, _ = random_coding_exponent(channel, policy, rate, _memo=memo)
    ratio = _rho_search(channel, policy, [rate], memo)[0][2]
    coefficient = 4.0 * (1 if state_known else channel.n_states) * ratio
    return float(min(1.0, coefficient * 2.0 ** (-n * exponent)))


def finite_horizon_exponent_oracle(
    channel: UnitMemoryChannel,
    policy: InputPolicy,
    rho: float,
    n: int,
    b_init: int,
    method: str = "auto",
) -> float:
    """Exact n-step exponent -(1/n) log2 of the state-path weight sum from b_init.

    Two interchangeable implementations: explicit path enumeration (n at most
    16) and repeated matrix-vector products with per-step rescaling (any n).
    """
    n = _check_integer(n, "n", 1)
    if method == "auto":
        method = "enumerate" if n <= ENUMERATION_LIMIT else "matrix"
    matrix = lambda_matrix(channel, policy, rho).matrix
    size = matrix.shape[0]
    b_init = _check_integer(b_init, "b_init", 0, size - 1)
    if method == "enumerate":
        if n > ENUMERATION_LIMIT:
            raise ValidationError(f"path enumeration is limited to n <= {ENUMERATION_LIMIT}")
        if size**n > 2**24:
            raise ValidationError(f"{size}^{n} paths is too many to enumerate; use method='matrix'")
        paths = np.array(list(itertools.product(range(size), repeat=n)), dtype=int)
        prev = np.concatenate([np.full((paths.shape[0], 1), b_init, dtype=int), paths[:, :-1]], axis=1)
        total = float(matrix[paths, prev].prod(axis=1).sum())
        return -np.log2(total) / n
    if method != "matrix":
        raise ValidationError(f"unknown method {method!r}")
    weights = np.zeros(size)
    weights[b_init] = 1.0
    log_total = 0.0
    for _ in range(n):
        weights = matrix @ weights
        scale = weights.sum()
        log_total += np.log2(scale)
        weights = weights / scale
    return float(-log_total / n)


def exponent_csv(channel: UnitMemoryChannel, policy: InputPolicy, rho_grid) -> str:
    """CSV of (rho, lambda_max, F_infinity in bits, eigenvector ratio)."""
    curve = exponent_curve(channel, policy, rho_grid)
    # lambda_max = 2^-F on Python floats: NumPy's vectorised power may differ in the last bit.
    samples = zip(curve.rho.tolist(), curve.f_infinity.tolist(), curve.eigen_ratio.tolist())
    rows = ([rho, 2.0 ** -f, f, ratio] for rho, f, ratio in samples)
    return _csv(["rho", "lambda_max", "F_infinity_bits", "eigen_ratio"], rows)


def rate_sweep_csv(
    channel: UnitMemoryChannel,
    policy: InputPolicy,
    rates,
    n: int,
    state_known: bool = False,
) -> str:
    """CSV of (rate in bits, E_r in bits, maximizing rho, error bound at block length n).

    Every rate is checked before any solve.  One rho search then serves the
    whole sweep: each refinement level is one stacked solve over every rate's
    grid, kept in a memo dropped with the sweep.  The two public calls per
    rate, the bound's ratio at rho* included, read the memo and solve nothing,
    so the table is byte for byte the one they give alone.
    """
    n, rows, memo = _check_integer(n, "block length n", 1, _MAX_BLOCK_LENGTH), [], {}
    rates = [_check_number(rate, "rate") for rate in _float_grid(rates, "rate grid").tolist()]
    _rho_search(channel, policy, rates, memo)
    for rate in rates:
        exponent, rho_star = random_coding_exponent(channel, policy, rate, _memo=memo)
        bound = error_probability_bound(channel, policy, rate, n, state_known, _memo=memo)
        rows.append([rate, exponent, rho_star, bound])
    return _csv(["rate_bits", "E_r_bits", "rho_star", "bound_at_n"], rows)
