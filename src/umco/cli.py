"""Command-line front end: load channel files, run solvers, emit reports and CSV sweeps.

Exit codes: 0 success, 1 validation/usage error, 2 solver non-convergence.
A command's whole result exists before run_command, the one emitter, prints it
and writes --out, so a failing command prints nothing to stdout. Iteration
orders are fixed: identical invocations give identical output byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bssc as bssc_mod
from . import constrained as constrained_mod
from . import exponent as exponent_mod
from .channel import (
    CostSpec,
    Distribution,
    InputPolicy,
    _check_number,
    _csv,
    parse_channel_document,
    uniform_policy,
)
from .errors import ConvergenceError, ReducibleChainError, ValidationError
from .finite_dp import classify_non_nested, ftfi_capacity, solve_finite_horizon, verify_optimality_conditions
from .infinite_horizon import DEFAULT_SPAN_TOL, policy_iteration, relative_value_iteration, verify_bellman_conditions
from .onestage import DEFAULT_INNER_TOL

# A range is built point by point; one with more points than this is a typo
# (a step off by orders of magnitude) and is refused before the loop starts.
_MAX_RANGE_POINTS = 10**6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def parse_range(text: str) -> list[float]:
    """Parse 'start:stop:step' into a grid inclusive of endpoints within half a step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"range '{text}' must have the form start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"range '{text}': {exc}") from exc
    if not np.all(np.isfinite((start, stop, step))):
        raise _UsageError(f"range '{text}': start, stop and step must be finite")
    if step <= 0:
        raise _UsageError(f"range '{text}': step must be positive")
    if (stop - start) / step + 1 > _MAX_RANGE_POINTS:
        raise _UsageError(f"range '{text}' has more than {_MAX_RANGE_POINTS} points")
    values = []
    while (v := start + len(values) * step) <= stop + step / 2:
        values.append(v)
    return values


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    if "=" not in text:
        raise _UsageError(f"sweep '{text}' must have the form name=start:stop:step")
    key, rng = text.split("=", 1)
    return key.strip(), parse_range(rng)


def _row(values) -> str:
    """A probability row as printed in every report: [0.600000000, 0.400000000]."""
    return f"[{', '.join(f'{x:.9f}' for x in values)}]"


def solution_report(solution) -> str:
    """Plain-text report of an InfiniteHorizonSolution."""
    nu = solution.invariant_dist
    lines = [
        f"gain            = {solution.gain:.10f} bits/channel use",
        f"iterations      = {solution.iterations}",
        f"span residual   = {solution.span_residual:.3e} bits",
        f"irreducible     = {nu is not None}",
    ]
    for b, v in enumerate(solution.bias):
        lines.append(f"bias V({b})       = {v:.10f}")
    for b, row in enumerate(solution.policy.matrix):
        lines.append(f"policy pi(.|{b})  = {_row(row)}")
    for b, row in enumerate(solution.output_kernel.matrix):
        lines.append(f"output P(.|{b})   = {_row(row)}")
    if nu is not None:
        lines.append(f"invariant dist  = {_row(nu.weights)}")
    return "\n".join(lines)


def solution_csv(solution) -> str:
    """Per-state CSV table of an InfiniteHorizonSolution (bias in bits, invariant mass, policy rows)."""
    policy = solution.policy
    header = ["state", "bias_bits", "invariant_mass"] + [f"policy_a{a}" for a in range(policy.n_inputs)]
    mass = [None] * policy.n_states if (nu := solution.invariant_dist) is None else nu.weights
    return _csv(header, ([str(b), solution.bias[b], mass[b], *policy.matrix[b]] for b in range(policy.n_states)))


def dp_report(solution) -> str:
    """Human-readable per-stage table of the values and policies of a DPSolution."""
    lines = [f"horizon n = {solution.horizon}"]
    if solution.multiplier is not None:
        lines.append(f"cost multiplier s = {solution.multiplier:.10g}")
    for t in range(solution.horizon + 1):
        vals = "  ".join(f"V_{t}({b})={v:.9f}" for b, v in enumerate(solution.values[t]))
        lines.append(f"stage {t}: {vals}")
        for b, row in enumerate(solution.policies[t]):
            lines.append(f"  pi_{t}(.|{b}) = {_row(row)}")
    return "\n".join(lines)


def _read_channel(path: str, need_cost: bool = False):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read channel file {path}: {exc}") from exc
    channel, gamma = parse_channel_document(text)
    if need_cost and gamma is None:
        raise ValidationError(f"channel file {path} carries no 'cost' table")
    return channel, gamma


def _cmd_fb_capacity(args) -> tuple[list[str], str | None, int]:
    channel, _ = _read_channel(args.channel)
    if args.method == "policy-iteration":
        policy = uniform_policy(channel.n_states, channel.n_inputs)
        solution = policy_iteration(channel, policy, tol=args.tol, max_iter=args.max_iter)
    else:
        solution = relative_value_iteration(channel, tol=args.tol, max_iter=args.max_iter)
    lines = [f"channel: {channel.name}"] if channel.name else []
    return [*lines, solution_report(solution)], solution_csv(solution), 0


def _cmd_finite_horizon(args) -> tuple[list[str], str | None, int]:
    if args.kappa is not None and args.multiplier is None:
        raise _UsageError("finite-horizon --kappa needs --multiplier")
    channel, gamma = _read_channel(args.channel, need_cost=args.multiplier is not None)
    cost = CostSpec(gamma, args.kappa or 0.0) if args.multiplier is not None else None
    solution = solve_finite_horizon(
        channel, args.horizon, cost=cost, multiplier=args.multiplier, inner_tol=args.tol
    )
    value = ftfi_capacity(solution, Distribution.uniform(channel.n_states))
    lines = [
        dp_report(solution),
        f"value under uniform initial distribution = {value:.10f} bits",
        f"per-stage average = {value / (args.horizon + 1):.10f} bits/channel use",
    ]
    if args.kappa is not None:
        lagrangian = value + args.kappa * ((args.horizon + 1) * args.multiplier)
        lines.append(f"Lagrangian value at kappa={args.kappa:g} = {lagrangian:.10f} bits")
    verdict = classify_non_nested(solution, tol=1e-6)
    lines.append(f"stage coupling: {verdict.kind} (max value spread {verdict.state_spread.max():.3e} bits)")
    header = ["stage", "state", "value_bits"] + [f"policy_a{a}" for a in range(channel.n_inputs)]
    stage_states = [(t, b) for t in range(solution.horizon + 1) for b in range(channel.n_states)]
    rows = ([str(t), str(b), solution.values[t, b], *solution.policies[t, b]] for t, b in stage_states)
    return lines, _csv(header, rows), 0


def _cmd_constrained(args) -> tuple[list[str], str | None, int]:
    if (args.kappa is None) == (not args.sweep):
        raise _UsageError("constrained needs --kappa or --sweep kappa=start:stop:step, not both")
    channel, gamma = _read_channel(args.channel, need_cost=True)
    if args.sweep:
        key, grid = _parse_sweep(args.sweep)
        if key != "kappa":
            raise _UsageError("constrained sweeps support only kappa=start:stop:step")
        results = constrained_mod.capacity_cost_curve(
            channel, CostSpec(gamma, 0.0), grid, dual_tol=args.dual_tol, cost_tol=args.cost_tol
        )
        lines = [
            f"kappa={r.kappa:g}: capacity={r.capacity:.9f} bits, multiplier={r.multiplier:.6g}, "
            f"achieved cost={r.achieved_cost:.9f}, binding={str(r.binding).lower()}"
            for r in results
        ]
        return lines, constrained_mod.curve_csv(results), 0
    result = constrained_mod.constrained_capacity(
        channel, CostSpec(gamma, args.kappa), dual_tol=args.dual_tol, cost_tol=args.cost_tol
    )
    lines = [
        f"capacity       = {result.capacity:.10f} bits",
        f"multiplier     = {result.multiplier:.10g}",
        f"achieved cost  = {result.achieved_cost:.10f}",
        f"binding        = {str(result.binding).lower()}",
        f"kappa_max      = {result.kappa_max:.10f}",
    ]
    lines += [f"policy pi(.|{b}) = {_row(row)}" for b, row in enumerate(result.policy.matrix)]
    return lines, constrained_mod.curve_csv([result]), 0


def _cmd_bssc(args) -> tuple[list[str], str | None, int]:
    params = bssc_mod.BSSCParams(args.alpha, args.beta)
    if args.sweep:
        key, grid = _parse_sweep(args.sweep)
        if key == "kappa" and args.kappa is not None:
            raise _UsageError("bssc --kappa cannot be combined with --sweep kappa=start:stop:step")
        if key == "kappa":
            text = bssc_mod.bssc_kappa_csv(params, grid)
        elif key == "alpha":
            text = bssc_mod.bssc_grid_csv(grid, [args.beta], kappa=args.kappa)
        elif key == "beta":
            text = bssc_mod.bssc_grid_csv([args.alpha], grid, kappa=args.kappa)
        else:
            raise _UsageError(f"unknown sweep variable '{key}' (use kappa, alpha, or beta)")
        return text.splitlines(), text, 0
    solution = bssc_mod.bssc_closed_form(params)
    lines = [
        f"capacity (unconstrained) = {solution.capacity:.10f} bits",
        f"policy diagonal nu       = {solution.nu:.10f}",
        f"output diagonal          = {solution.lam:.10f}",
        f"exponent                 = {solution.bssc_exponent:.10f}",
    ]
    if args.kappa is not None:
        solution = bssc_mod.bssc_constrained_closed_form(params, args.kappa)
        lines.append(f"capacity at kappa={args.kappa:g}  = {solution.capacity:.10f} bits")
        if solution.constrained:
            lines.append(f"constrained output diag  = {solution.lam_bar:.10f}")
        else:
            lines.append("budget is slack (kappa above the saturation point)")
    try:
        markov = bssc_mod.bssc_nofeedback_markov(params, bssc_mod._point_diagonals(solution)[0])
        lines.append(f"no-feedback Markov input diagonal = {markov.matrix[0, 0]:.10f} (sigma {markov.sigma:.6f})")
    except ValidationError as exc:
        lines.append(f"no-feedback Markov input undefined: {exc}")
    return lines, None, 0


def _cmd_nofb_verify(args) -> tuple[list[str], str | None, int]:
    _check_number(args.tol, "tol")
    params = bssc_mod.BSSCParams(args.alpha, args.beta)
    solution = bssc_mod.bssc_closed_form(params)
    if args.kappa is not None:
        solution = bssc_mod.bssc_constrained_closed_form(params, args.kappa)
    occupancy = bssc_mod._point_diagonals(solution)[0]
    target = bssc_mod._diagonal_policy(occupancy)
    markov = bssc_mod.bssc_nofeedback_markov(params, occupancy)
    channel = bssc_mod.bssc_channel(params)
    records = bssc_mod.nofb_induction_deviations(channel, markov, target, Distribution.uniform(2), args.horizon)
    worst = max(dev for _, dev, _ in records)
    ok = worst <= args.tol
    lines = [
        f"Markov input diagonal = {markov.matrix[0, 0]:.10f}",
        f"worst stage deviation over {args.horizon} stages = {worst:.3e}",
        "induces the feedback-optimal conditional" if ok else "does NOT induce the target conditional",
    ]
    return lines, None, 0 if ok else 1


def _resolve_exponent_policy(args, channel) -> InputPolicy:
    if args.policy == "uniform":
        return uniform_policy(channel.n_states, channel.n_inputs)
    if args.policy == "closed-form":
        if channel.n_inputs != 2 or channel.n_states != 2:
            raise ValidationError("--policy closed-form needs a binary channel")
        params = bssc_mod.BSSCParams(float(channel.kernel[0, 0, 0]), float(channel.kernel[1, 0, 0]))
        if not np.allclose(channel.kernel, bssc_mod.bssc_channel(params).kernel, atol=1e-9):
            raise ValidationError(
                "--policy closed-form needs a state-symmetric kernel; this channel is not one"
            )
        return bssc_mod.bssc_optimal_policy(params)
    # otherwise: a JSON file holding the policy matrix
    try:
        matrix = json.loads(Path(args.policy).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read policy file {args.policy}: {exc}") from exc
    return InputPolicy(matrix)


def _cmd_error_exponent(args) -> tuple[list[str], str | None, int]:
    if not args.rates and (args.n is not None or args.state_known):
        raise _UsageError(f"error-exponent {'--n' if args.n is not None else '--state-known'} needs --rates")
    channel, _ = _read_channel(args.channel)
    policy = _resolve_exponent_policy(args, channel)
    if args.rates:
        rates = parse_range(args.rates)
        text = exponent_mod.rate_sweep_csv(channel, policy, rates, 1000 if args.n is None else args.n, args.state_known)
    else:
        grid = parse_range(args.rho_grid or "0:1:0.01")
        text = exponent_mod.exponent_csv(channel, policy, grid)
    return text.splitlines(), text, 0


def _cmd_check_conditions(args) -> tuple[list[str], str | None, int]:
    _check_number(args.tol, "tol")  # before the solve: the checker would test it only after
    channel, gamma = _read_channel(args.channel, need_cost=args.multiplier is not None)
    cost = CostSpec(gamma, 0.0) if args.multiplier is not None else None
    if args.horizon is not None:
        solution = solve_finite_horizon(channel, args.horizon, cost=cost, multiplier=args.multiplier)
        report = verify_optimality_conditions(channel, solution, tol=args.tol)
        label = f"finite horizon n={args.horizon}"
    else:
        solution = relative_value_iteration(channel, cost=cost, multiplier=args.multiplier)
        report = verify_bellman_conditions(channel, solution, tol=args.tol)
        label = "infinite horizon"
    verdict = f"{label}: conditions {'PASS' if report.passed else 'FAIL'}"
    lines = [verdict, f"worst violation = {report.worst_violation:.3e} bits (tol {args.tol:g})"]
    return lines, None, 0 if report.passed else 1


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(prog="umco", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    tolerance = "tolerance (default %(default)g)"  # every tolerance option shows its default

    p = sub.add_parser("fb-capacity", help="feedback capacity of a channel file")
    p.add_argument("--channel", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_SPAN_TOL, help=f"span {tolerance}")
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--method", choices=["rvi", "policy-iteration"], default="rvi")
    p.add_argument("--out", help="write the per-state solution CSV here")
    p.set_defaults(func=_cmd_fb_capacity)

    p = sub.add_parser("finite-horizon", help="finite-horizon value functions and policies")
    p.add_argument("--channel", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--multiplier", type=float, help="cost multiplier (requires a cost table)")
    p.add_argument("--tol", type=float, default=DEFAULT_INNER_TOL, help=f"inner solver {tolerance}")
    p.add_argument("--out", help="write the per-stage CSV here")
    p.set_defaults(func=_cmd_finite_horizon)

    p = sub.add_parser("constrained", help="capacity under an average cost budget")
    p.add_argument("--channel", required=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--sweep", help="kappa=start:stop:step")
    p.add_argument("--dual-tol", type=float, default=constrained_mod.DEFAULT_DUAL_TOL, help=f"multiplier {tolerance}")
    p.add_argument("--cost-tol", type=float, default=constrained_mod.DEFAULT_COST_TOL, help=f"budget {tolerance}")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_constrained)

    p = sub.add_parser("bssc", help="closed-form state-symmetric channel solutions")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--sweep", help="kappa|alpha|beta=start:stop:step")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bssc)

    p = sub.add_parser("nofb-verify", help="check the no-feedback Markov input induction")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9, help=f"stage deviation {tolerance}")
    p.set_defaults(func=_cmd_nofb_verify)

    p = sub.add_parser("error-exponent", help="exponent curves and error-probability bounds")
    p.add_argument("--channel", required=True)
    p.add_argument("--policy", default="closed-form", help="closed-form, uniform, or a JSON matrix file")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--rates", help="rate sweep start:stop:step (bits)")
    grid.add_argument("--rho-grid", help="rho grid start:stop:step (default 0:1:0.01)")
    p.add_argument("--n", type=int, help="block length for the bound (default 1000)")
    p.add_argument("--state-known", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_error_exponent)

    p = sub.add_parser("check-conditions", help="verify optimality conditions of a fresh solve")
    p.add_argument("--channel", required=True)
    p.add_argument("--horizon", type=int, help="check the finite-horizon recursion (default: infinite)")
    p.add_argument("--multiplier", type=float)
    p.add_argument("--tol", type=float, default=1e-8, help=f"condition {tolerance}")
    p.set_defaults(func=_cmd_check_conditions)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    # A UserWarning (a sweep point skipped, say) is recorded and printed as one
    # "warning:" line, not as Python's report of its source file and line; the
    # other categories keep the filters in force, an "error" filter included.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            args = parser.parse_args(argv)
            lines, table, code = args.func(args)
            if getattr(args, "out", None):
                if table is None:
                    raise _UsageError(f"{args.command} --out: no table in this result to write")
                try:
                    Path(args.out).write_text(table)
                except OSError as exc:
                    raise ValidationError(f"cannot write {args.out}: {exc}") from exc
                lines.append(f"wrote {args.out}")
            stream = sys.stdout
        except _UsageError as exc:
            lines, code, stream = [str(exc)], 1, sys.stderr
        except ValueError as exc:  # ValidationError and the other input errors derive from it
            lines, code, stream = [f"error: {exc}"], 1, sys.stderr
        except (ConvergenceError, ReducibleChainError) as exc:
            lines, code, stream = [f"solver failure: {exc}"], 2, sys.stderr
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    print("\n".join(lines), file=stream)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
