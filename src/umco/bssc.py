"""Closed-form solutions for the binary state symmetric channel family.

A BSSC(alpha, beta) is a binary unit-memory channel that, conditioned on the
state s = a XOR b_prev, is a binary symmetric channel with crossover 1-alpha
(s = 0) or 1-beta (s = 1).  Its feedback capacity, the optimal input and
output distributions, the constrained variants, and the no-feedback Markov
input that reproduces them all have exact expressions:

    mu  = (H(beta) - H(alpha)) / (1 - alpha - beta)
    lam = 1 / (1 + 2^mu)                      (output-kernel diagonal)
    nu  = (1 - (1-beta)(1+2^mu)) / ((alpha+beta-1)(1+2^mu))   (policy diagonal)
    C   = H(lam) - nu H(alpha) - (1-nu) H(beta)

with the constrained curve obtained by pinning the policy diagonal at the
budget kappa and lam_bar = alpha*kappa + (1-kappa)(1-beta).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    Distribution,
    InputPolicy,
    UnitMemoryChannel,
    _check_compatible,
    _check_integer,
    _check_number,
    _csv,
    _fit,
    _float_grid,
    _stochastic_array,
    binary_entropy,
    channel_from_kernel,
)
from .errors import ValidationError

_SINGULAR_EPS = 1e-12
_CANCELLATION_DELTA = 1e-3  # nu's error grows like 4e-17 / (alpha + beta - 1)^2: 4e-11 here, 0.4 at 1e-8


@dataclass(frozen=True)
class BSSCParams:
    alpha: float
    beta: float

    def __post_init__(self):
        for label in ("alpha", "beta"):
            object.__setattr__(self, label, _check_number(getattr(self, label), label, 0.0, 1.0))


@dataclass(frozen=True)
class BSSCSolution:
    """Closed-form capacity point.

    nu is the input-policy diagonal (equal to the state-zero occupancy), lam
    the output-kernel diagonal 1/(1 + 2^mu) of the exponent mu = bssc_exponent.
    Constrained solutions carry the budget kappa and the diagonal lam_bar of
    the constrained output kernel; the occupancy is then kappa instead of nu.
    """

    nu: float
    bssc_exponent: float
    capacity: float
    kappa: float | None = None
    lam_bar: float | None = None

    @property
    def lam(self) -> float:
        return 1.0 / (1.0 + 2.0**self.bssc_exponent)

    @property
    def constrained(self) -> bool:
        return self.lam_bar is not None


@dataclass(frozen=True, eq=False)
class MarkovInput:
    """First-order Markov input law matrix[a_prev][a] = pi(a | a_prev), plus sigma."""

    matrix: np.ndarray
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", _stochastic_array(self.matrix, "Markov input", 2))
        object.__setattr__(self, "sigma", _check_number(self.sigma, "sigma", 0.0, 1.0))


def bssc_channel(params: BSSCParams) -> UnitMemoryChannel:
    """The 2x2x2 kernel with P(0|0,0)=alpha, P(0|1,0)=beta, P(0|0,1)=1-beta, P(0|1,1)=1-alpha."""
    a, b = params.alpha, params.beta
    kernel = np.empty((2, 2, 2))
    kernel[0, 0] = (a, 1.0 - a)
    kernel[1, 0] = (b, 1.0 - b)
    kernel[0, 1] = (1.0 - b, b)
    kernel[1, 1] = (1.0 - a, a)
    return channel_from_kernel(kernel, name=f"bssc({a:g},{b:g})")


def bssc_cost_function() -> np.ndarray:
    """Binary cost table gamma[b_prev][a] = 1 when a = b_prev (state-zero use), else 0."""
    return np.eye(2)


def _diagonal_policy(diag: float) -> InputPolicy:
    return InputPolicy([[diag, 1.0 - diag], [1.0 - diag, diag]])


def bssc_optimal_policy(params: BSSCParams) -> InputPolicy:
    """The capacity-achieving input policy (diagonal nu)."""
    return _diagonal_policy(bssc_closed_form(params).nu)


def bssc_closed_form(params: BSSCParams) -> BSSCSolution:
    """Exact unconstrained capacity point.

    alpha = beta reduces to a memoryless binary symmetric channel and is
    handled as an explicit branch (mu = 0, lam = nu = 1/2); alpha + beta = 1
    makes the exponent denominator vanish and the formula for nu cancels near
    it, so the band |alpha + beta - 1| < 1e-3 is rejected.
    """
    a, b = params.alpha, params.beta
    if a == b:
        mu, scale, nu = 0.0, 2.0, 0.5
    elif abs(a + b - 1.0) < _CANCELLATION_DELTA:
        raise ValidationError(
            f"alpha + beta - 1 = {a + b - 1.0:.3g} is on or so near the singular line alpha + beta = 1 (where the "
            "exponent denominator 1 - alpha - beta vanishes) that the formula for nu cancels; solve numerically instead"
        )
    else:
        mu = (binary_entropy(b) - binary_entropy(a)) / (1.0 - a - b)
        scale = 1.0 + 2.0**mu
        nu = min(max((1.0 - (1.0 - b) * scale) / ((a + b - 1.0) * scale), 0.0), 1.0)
    capacity = binary_entropy(1.0 / scale) - nu * binary_entropy(a) - (1.0 - nu) * binary_entropy(b)
    return BSSCSolution(nu=nu, bssc_exponent=mu, capacity=capacity)


def bssc_constrained_closed_form(params: BSSCParams, kappa: float) -> BSSCSolution:
    """Exact capacity under the binary cost with budget kappa.

    For kappa at most the unconstrained occupancy nu (= the saturation budget)
    the optimal policy diagonal is pinned at kappa; beyond that the constraint
    is slack and the unconstrained solution is returned unflagged.
    """
    kappa = _check_number(kappa, "kappa", 0.0, 1.0)
    base = bssc_closed_form(params)
    if kappa > base.nu:
        return replace(base, kappa=kappa)
    a, b = params.alpha, params.beta
    lam_bar = a * kappa + (1.0 - kappa) * (1.0 - b)
    capacity = binary_entropy(lam_bar) - kappa * binary_entropy(a) - (1.0 - kappa) * binary_entropy(b)
    return replace(base, capacity=capacity, kappa=kappa, lam_bar=lam_bar)


def bssc_nofeedback_markov(params: BSSCParams, kappa: float) -> MarkovInput:
    """First-order Markov input (no feedback) that induces the optimal conditionals.

    Pass kappa = nu from the unconstrained closed form for the unconstrained
    case.  Undefined when sigma = alpha*kappa + beta*(1-kappa) equals 1/2.
    """
    kappa = _check_number(kappa, "kappa", 0.0, 1.0)
    a, b = params.alpha, params.beta
    sigma = a * kappa + b * (1.0 - kappa)
    if abs(1.0 - 2.0 * sigma) < _SINGULAR_EPS:
        raise ValidationError(f"sigma = {sigma:g}: the denominator 1 - 2*sigma vanishes")
    diag = (1.0 - kappa - sigma) / (1.0 - 2.0 * sigma)
    off = (kappa - sigma) / (1.0 - 2.0 * sigma)
    if not -1e-12 <= diag <= 1.0 + 1e-12:
        raise ValidationError(
            f"no-feedback Markov entries leave [0, 1] (diagonal {diag:.6g}); "
            "the construction does not apply to these parameters"
        )
    diag = min(max(diag, 0.0), 1.0)
    off = min(max(off, 0.0), 1.0)
    return MarkovInput(np.array([[diag, off], [off, diag]]), sigma=sigma)


def nofb_induction_deviations(
    channel: UnitMemoryChannel,
    markov_input: MarkovInput,
    target_policy: InputPolicy,
    initial: Distribution,
    horizon: int,
) -> list[tuple[int, float, tuple[int, ...]]]:
    """Propagate the joint input/output law forward under the Markov input.

    Stage 0 uses the target policy as the initial conditional (it only sees
    the known initial state); afterwards inputs evolve by the Markov law.
    Returns (stage, max deviation of the induced conditional P(a_i | b_{i-1})
    from the target, states skipped for zero probability) per stage.
    """
    horizon = _check_integer(horizon, "horizon", 0)
    _fit(markov_input.matrix, "Markov input", (channel.n_inputs, channel.n_inputs), "inputs, inputs")
    _fit(initial.weights, "initial distribution", (channel.n_states,), "states")
    target = _check_compatible(channel, target_policy.matrix)
    records = [(0, 0.0, ())]
    # joint[a, b] = P(A_i = a, B_i = b)
    joint = np.einsum("m,ma,mab->ab", initial.weights, target, channel.kernel)
    for stage in range(1, horizon + 1):
        state_mass = joint.sum(axis=0)
        live = state_mass > 0.0
        # induced[b] = P(next input | B_i = b), for the states b of positive mass
        induced = (joint[:, live] / state_mass[live]).T @ markov_input.matrix
        deviation = float(np.abs(induced - target[live]).max(initial=0.0))
        records.append((stage, deviation, tuple(np.flatnonzero(~live).tolist())))
        # next joint: inputs step by the Markov law, outputs by the channel
        stepped = np.einsum("ab,ac->cb", joint, markov_input.matrix)  # P(A_i, B_{i-1})
        joint = np.einsum("cb,bcd->cd", stepped, channel.kernel)
    return records


def verify_nofb_induces_fb(
    channel: UnitMemoryChannel,
    markov_input: MarkovInput,
    target_policy: InputPolicy,
    initial: Distribution,
    horizon: int,
    tol: float,
) -> bool:
    """True iff the Markov input reproduces the target conditional at every stage."""
    _check_number(tol, "tol")
    records = nofb_induction_deviations(channel, markov_input, target_policy, initial, horizon)
    skipped = [r for r in records if r[2]]
    if skipped:
        warnings.warn(
            f"{len(skipped)} stages had zero-probability states; their conditionals were skipped"
        )
    return all(dev <= tol for _, dev, _ in records)


def _point_diagonals(solution: BSSCSolution) -> tuple[float, float]:
    """(policy, output) diagonals of a closed-form point: (kappa, lam_bar) if the budget binds, else (nu, lam)."""
    return (solution.kappa, solution.lam_bar) if solution.constrained else (solution.nu, solution.lam)


def bssc_grid_csv(alphas, betas, kappa: float | None = None) -> str:
    """CSV sweep over an (alpha, beta) grid; singular points are skipped with a warning."""
    rows, betas = [], _float_grid(betas, "betas").tolist()
    if kappa is not None:  # a bad budget fails every point: refuse it once, not point by point
        _check_number(kappa, "kappa", 0.0, 1.0)
    for a in _float_grid(alphas, "alphas").tolist():
        for b in betas:
            try:
                params = BSSCParams(a, b)
                sol = bssc_closed_form(params) if kappa is None else bssc_constrained_closed_form(params, kappa)
            except ValidationError as exc:
                warnings.warn(f"alpha={a:g}, beta={b:g}: {exc}")
                continue
            rows.append([a, b, kappa, sol.capacity, *_point_diagonals(sol)])
    return _csv(["alpha", "beta", "kappa", "capacity_bits", "policy_diagonal", "output_diagonal"], rows)


def bssc_kappa_csv(params: BSSCParams, kappas) -> str:
    """CSV of the constrained closed-form curve over a budget grid."""
    points = [bssc_constrained_closed_form(params, kappa) for kappa in _float_grid(kappas, "kappa grid").tolist()]
    rows = ([sol.kappa, sol.capacity, *_point_diagonals(sol), sol.constrained] for sol in points)
    return _csv(["kappa", "capacity_bits", "policy_diagonal", "output_diagonal", "constrained"], rows)
