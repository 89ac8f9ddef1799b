"""Command-line interface: dispatch, exit codes, CSV output, determinism."""

import argparse
import json
import re

import numpy as np
import pytest

import umco.bssc
import umco.cli
from umco import (
    BSSCParams,
    ChannelFormatError,
    ConvergenceError,
    DimensionMismatchError,
    InfeasibleBudgetError,
    ReducibleChainError,
    ValidationError,
    bssc_channel,
    bssc_cost_function,
    channel_from_kernel,
    serialize_channel,
)
from umco.cli import _UsageError, build_parser, parse_range, run_command
from umco.constrained import DEFAULT_COST_TOL, DEFAULT_DUAL_TOL
from umco.infinite_horizon import DEFAULT_SPAN_TOL
from umco.onestage import DEFAULT_INNER_TOL

SUBCOMMANDS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.fixture
def bssc_file(tmp_path):
    path = tmp_path / "bssc_1_05.json"
    path.write_text(serialize_channel(bssc_channel(BSSCParams(1.0, 0.5)), cost=bssc_cost_function()))
    return str(path)


@pytest.fixture
def bibo_file(tmp_path):
    doc = {
        "input_size": 2,
        "output_size": 2,
        "kernel": [
            [[0.9, 0.1], [0.2, 0.8]],
            [[0.1, 0.9], [0.4, 0.6]],
        ],
    }
    path = tmp_path / "bibo.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_range_inclusive_endpoints():
    assert parse_range("0:1:0.25") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert parse_range("0:0.4:0.1")[-1] == pytest.approx(0.4)


@pytest.mark.parametrize("text", ["nan:1:0.1", "0:1:nan", "0:nan:0.1", "0:inf:0.1", "-inf:1:0.1", "0:1:inf"])
def test_parse_range_rejects_non_finite(text):
    # A non-finite start, stop or step never ends the grid loop: reject it up front.
    with pytest.raises(_UsageError, match="must be finite"):
        parse_range(text)


def test_error_exponent_non_finite_rates_exit_one(bssc_file, capsys):
    assert run_command(["error-exponent", "--channel", bssc_file, "--rates", "0:inf:0.1"]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_error_exponent_block_length_beyond_float_range_exits_one(bssc_file, capsys):
    # Such an n overflowed -n * E_r and left through a traceback.
    assert run_command(["error-exponent", "--channel", bssc_file, "--rates", "0:0.2:0.1", "--n", "1" + "0" * 400]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "block length n" in err and "Traceback" not in err


def test_parse_range_rejects_oversized_grids():
    # 1e12 points would take hours to list before any solve; refused up front.
    with pytest.raises(_UsageError, match="more than 1000000 points"):
        parse_range("0:1:1e-12")
    with pytest.raises(_UsageError, match="more than 1000000 points"):
        parse_range("0:1000000:1")
    assert len(parse_range("0:999999:1")) == 1_000_000


def test_constrained_oversized_sweep_exits_one(bssc_file, capsys):
    assert run_command(["constrained", "--channel", bssc_file, "--sweep", "kappa=0:1:1e-12"]) == 1
    assert "more than 1000000 points" in capsys.readouterr().err


def test_fb_capacity_prints_gain(bssc_file, capsys):
    assert run_command(["fb-capacity", "--channel", bssc_file]) == 0
    out = capsys.readouterr().out
    assert "0.3219280949" in out
    assert "policy" in out


def test_fb_capacity_policy_iteration_method(bibo_file, capsys):
    assert run_command(["fb-capacity", "--channel", bibo_file, "--method", "policy-iteration"]) == 0
    out = capsys.readouterr().out
    assert "0.21497" in out
    # Policy iteration certifies by the gain bracket of one Bellman sweep, as RVI does.
    (line,) = [line for line in out.splitlines() if "residual" in line]
    assert line.startswith("span residual   = ") and 0.0 <= float(line.split()[3]) <= 1e-8


def test_identical_invocations_are_bit_identical(bssc_file, capsys):
    run_command(["fb-capacity", "--channel", bssc_file])
    first = capsys.readouterr().out
    run_command(["fb-capacity", "--channel", bssc_file])
    second = capsys.readouterr().out
    assert first == second


def test_parser_is_built_once_and_reused(bssc_file, capsys):
    # A usage error between two good calls leaves the shared parser as it was.
    good = ["error-exponent", "--channel", bssc_file, "--rho-grid", "0:1:0.5"]
    runs = []
    for argv in (good, ["error-exponent", "--rates"], good, ["error-exponent", "--rates"]):
        code = run_command(argv)
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    assert [code for code, _, _ in runs] == [0, 1, 0, 1]
    assert runs[:2] == runs[2:]
    assert "expected one argument" in runs[1][2]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command", ["", *SUBCOMMANDS])
def test_every_help_text_prints_and_exits_zero(command, capsys):
    # argparse fills help strings by %-formatting, so a stray % in one fails here.
    with pytest.raises(SystemExit) as exc_info:
        run_command([command, "--help"] if command else ["--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: umco")


TOLERANCE_DEFAULTS = {
    ("fb-capacity", "--tol"): DEFAULT_SPAN_TOL,
    ("finite-horizon", "--tol"): DEFAULT_INNER_TOL,
    ("nofb-verify", "--tol"): 1e-9,
    ("check-conditions", "--tol"): 1e-8,
    ("constrained", "--dual-tol"): DEFAULT_DUAL_TOL,
    ("constrained", "--cost-tol"): DEFAULT_COST_TOL,
}


def test_every_tolerance_option_is_listed():
    options = {
        (command, action.option_strings[0])
        for command, sub in SUBCOMMANDS.items()
        for action in sub._actions
        if action.dest.endswith("tol")
    }
    assert options == set(TOLERANCE_DEFAULTS)


@pytest.mark.parametrize("command, option", list(TOLERANCE_DEFAULTS), ids=[" ".join(key) for key in TOLERANCE_DEFAULTS])
def test_help_shows_the_default_tolerance(command, option, capsys):
    with pytest.raises(SystemExit):
        run_command([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    default = TOLERANCE_DEFAULTS[command, option]
    # the option's own help, up to the next option, ends with its default
    assert re.search(rf"{option} \S+ (?:(?!--)[^()])*\(default {re.escape(f'{default:g}')}\)", text), text


def test_unknown_command_exits_one(capsys):
    assert run_command(["no-such-command"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    assert run_command(["fb-capacity", "--channel", "/does/not/exist.json"]) == 1


def test_invalid_channel_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"input_size": 2, "output_size": 2, "kernel": [[[0.5, 0.4], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]}))
    assert run_command(["fb-capacity", "--channel", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_a_kernel_that_disagrees_with_a_declared_size_exits_one(tmp_path, capsys):
    doc = json.loads(serialize_channel(bssc_channel(BSSCParams(0.9, 0.6))))
    doc["input_size"] = 3
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    assert run_command(["fb-capacity", "--channel", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: kernel shape (2, 2, 2) does not match (2, 3, 2)") and "Traceback" not in err


@pytest.mark.parametrize(
    "error, code",
    [
        (ChannelFormatError, 1),
        (ValidationError, 1),
        (DimensionMismatchError, 1),
        (InfeasibleBudgetError, 1),
        (ConvergenceError, 2),
        (ReducibleChainError, 2),
    ],
)
def test_every_typed_error_keeps_its_exit_code(bssc_file, monkeypatch, capsys, error, code):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(umco.cli, "relative_value_iteration", fail)
    assert run_command(["fb-capacity", "--channel", bssc_file]) == code
    assert "injected" in capsys.readouterr().err


def test_nonconvergence_exits_two(bibo_file, capsys):
    assert run_command(["fb-capacity", "--channel", bibo_file, "--max-iter", "1"]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_policy_iteration_honours_max_iter(bibo_file, capsys):
    argv = ["fb-capacity", "--channel", bibo_file, "--method", "policy-iteration", "--max-iter", "1"]
    assert run_command(argv) == 2
    assert "policy iteration still moving" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-conditions", "--channel", "{bssc_file}", "--tol", "nan"],
        ["check-conditions", "--channel", "{bssc_file}", "--horizon", "3", "--tol=-1e-9"],
        ["nofb-verify", "--alpha", "1.0", "--beta", "0.5", "--tol", "inf"],
    ],
    ids=["check-conditions", "check-conditions-finite", "nofb-verify"],
)
def test_checker_commands_reject_a_bad_tolerance_before_any_solve(bssc_file, monkeypatch, capsys, argv):
    # A NaN tolerance once read as a failed check: "conditions FAIL", exit 1.
    def solve(*args, **kwargs):
        raise AssertionError("a solver ran")

    for name in ("solve_finite_horizon", "relative_value_iteration"):
        monkeypatch.setattr(umco.cli, name, solve)
    monkeypatch.setattr(umco.bssc, "nofb_induction_deviations", solve)
    assert run_command([arg.format(bssc_file=bssc_file) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tol must be")
    assert captured.out == ""


def test_finite_horizon_with_multiplier_reports_lagrangian(bssc_file, capsys):
    code = run_command(
        ["finite-horizon", "--channel", bssc_file, "--horizon", "2", "--multiplier", "0.2", "--kappa", "0.5"]
    )
    assert code == 0
    assert "Lagrangian value" in capsys.readouterr().out


def test_finite_horizon_writes_csv(bssc_file, tmp_path, capsys):
    out = tmp_path / "dp.csv"
    code = run_command(["finite-horizon", "--channel", bssc_file, "--horizon", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "stage,state,value_bits,policy_a0,policy_a1"
    assert len(lines) == 1 + 4 * 2
    assert "non_nested_time_invariant" in capsys.readouterr().out


def test_constrained_command(bssc_file, capsys):
    assert run_command(["constrained", "--channel", bssc_file, "--kappa", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "0.3112781" in out
    assert "binding        = true" in out


def test_constrained_requires_cost_table(bibo_file, capsys):
    assert run_command(["constrained", "--channel", bibo_file, "--kappa", "0.5"]) == 1
    assert "cost" in capsys.readouterr().err


def test_constrained_sweep_csv(bssc_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run_command(
        ["constrained", "--channel", bssc_file, "--sweep", "kappa=0.5:0.7:0.1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kappa,capacity_bits,multiplier,achieved_cost,binding"
    assert len(lines) == 4


def test_constrained_sweep_over_an_empty_range_does_no_solve(bssc_file, tmp_path, capsys, monkeypatch):
    # An empty kappa range wrote its header only after one wasted s = 0 solve.
    def solve(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(umco.constrained, "_solve_multiplier", solve)
    out = tmp_path / "curve.csv"
    code = run_command(["constrained", "--channel", bssc_file, "--sweep", "kappa=0.5:0.4:0.1", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines() == ["kappa,capacity_bits,multiplier,achieved_cost,binding"]


def test_bssc_command_reports_closed_form(capsys):
    assert run_command(["bssc", "--alpha", "1.0", "--beta", "0.5", "--kappa", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "0.3219280949" in out
    assert "0.3112781" in out
    assert "0.6666666667" not in out  # Markov input at kappa=0.5, not 0.6


def test_bssc_kappa_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_command(
        ["bssc", "--alpha", "1.0", "--beta", "0.5", "--sweep", "kappa=0:1:0.5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kappa,capacity_bits,policy_diagonal,output_diagonal,constrained"
    assert len(lines) == 4


def test_bssc_singular_params_exit_one(capsys):
    assert run_command(["bssc", "--alpha", "0.7", "--beta", "0.3"]) == 1


def test_bssc_command_reports_an_undefined_markov_input(capsys):
    assert run_command(["bssc", "--alpha", "0.9", "--beta", "0.2", "--kappa", "0.3"]) == 0
    assert "no-feedback Markov input undefined: no-feedback Markov entries leave [0, 1]" in capsys.readouterr().out


def test_bssc_command_lets_errors_other_than_input_rules_through(monkeypatch, capsys):
    def broken(params, kappa):
        raise ValueError("not an input rule")

    monkeypatch.setattr(umco.bssc, "bssc_nofeedback_markov", broken)
    assert run_command(["bssc", "--alpha", "1.0", "--beta", "0.5"]) == 1
    captured = capsys.readouterr()
    assert "undefined" not in captured.out
    assert "error: not an input rule" in captured.err


def test_nofb_verify_passes(capsys):
    assert run_command(["nofb-verify", "--alpha", "1.0", "--beta", "0.5", "--horizon", "20"]) == 0
    assert "induces the feedback-optimal conditional" in capsys.readouterr().out


def test_bssc_slack_budget_prints_the_markov_input_of_the_unconstrained_optimum(capsys):
    # nu = 0.5323894180 < kappa = 0.9: the Markov input is the one for
    # occupancy nu, not for 0.9 (diagonal 0.9597701149, sigma 0.935).
    assert run_command(["bssc", "--alpha", "0.95", "--beta", "0.8", "--kappa", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "budget is slack" in out
    assert out.endswith("no-feedback Markov input diagonal = 0.5426335404 (sigma 0.879858)\n")


def test_nofb_verify_slack_budget_checks_the_unconstrained_target(capsys):
    argv = ["nofb-verify", "--alpha", "0.95", "--beta", "0.8"]
    assert run_command(argv) == 0
    unconstrained = capsys.readouterr().out
    assert run_command([*argv, "--kappa", "0.9"]) == 0
    assert capsys.readouterr().out == unconstrained
    assert unconstrained.startswith("Markov input diagonal = 0.5426335404\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bssc", "--alpha", "1", "--beta", "0.5", "--sweep", "gamma=0:1:0.5"], "unknown sweep variable 'gamma'"),
        (["constrained", "--channel", "{bssc_file}"], "constrained needs --kappa or --sweep"),
        (["constrained", "--channel", "{bssc_file}", "--sweep", "alpha=0:1:0.5"], "support only kappa"),
        (["bssc", "--alpha", "1", "--beta", "0.5", "--sweep", "kappa0:1:0.5"], "form name=start:stop:step"),
        (["bssc", "--alpha", "1", "--beta", "0.5", "--sweep", "kappa=0:1"], "must have the form start:stop:step"),
        (["bssc", "--alpha", "1", "--beta", "0.5", "--sweep", "kappa=0:x:0.5"], "could not convert string to float"),
        (["bssc", "--alpha", "1", "--beta", "0.5", "--sweep", "kappa=0:1:0"], "step must be positive"),
        (["bssc", "--alpha", "1", "--beta", "0.5", "--sweep", "kappa=0:1:-0.5"], "step must be positive"),
        (["error-exponent", "--channel", "{perm3_file}"], "--policy closed-form needs a binary channel"),
        (["error-exponent", "--channel", "{bssc_file}", "--policy", "{missing}"], "cannot read policy file"),
        (
            ["constrained", "--channel", "{bssc_file}", "--kappa", "0.3", "--sweep", "kappa=0.2:0.3:0.1"],
            "constrained needs --kappa or --sweep kappa=start:stop:step, not both",
        ),
        (
            ["error-exponent", "--channel", "{bssc_file}", "--rates", "0:0.2:0.1", "--rho-grid", "0:1:0.5"],
            "argument --rho-grid: not allowed with argument --rates",
        ),
        (
            ["bssc", "--alpha", "0.9", "--beta", "0.6", "--sweep", "kappa=0:0.2:0.1", "--kappa", "0.3"],
            "bssc --kappa cannot be combined with --sweep kappa=start:stop:step",
        ),
        (["finite-horizon", "--channel", "{bssc_file}", "--horizon", "2", "--kappa", "0.3"], "--kappa needs --multiplier"),
    ],
    ids=[
        "bssc-sweep-gamma",
        "constrained-no-budget",
        "constrained-sweep-alpha",
        "sweep-without-name",
        "range-two-fields",
        "range-not-a-number",
        "range-zero-step",
        "range-negative-step",
        "closed-form-three-states",
        "missing-policy-file",
        "constrained-kappa-and-sweep",
        "error-exponent-rates-and-rho-grid",
        "bssc-kappa-and-kappa-sweep",
        "finite-horizon-kappa-without-multiplier",
    ],
)
def test_cli_edge_branches_exit_one_with_their_message(bssc_file, tmp_path, capsys, argv, message):
    perm3 = tmp_path / "perm3.json"
    perm3.write_text(serialize_channel(channel_from_kernel(np.eye(3)[[[0, 1, 2], [1, 2, 0], [2, 0, 1]]])))
    paths = {"bssc_file": bssc_file, "perm3_file": str(perm3), "missing": str(tmp_path / "missing.json")}
    assert run_command([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_error_exponent_defaults_to_the_rho_grid_0_1_0_01(bssc_file, capsys):
    argv = ["error-exponent", "--channel", bssc_file, "--policy", "uniform"]
    assert run_command(argv) == 0
    default = capsys.readouterr().out
    assert run_command([*argv, "--rho-grid", "0:1:0.01"]) == 0
    assert capsys.readouterr().out == default
    rows = default.splitlines()
    assert len(rows) == 102 and rows[1].startswith("0.0,") and rows[-1].startswith("1.0,")


def test_error_exponent_rate_sweep(bssc_file, tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code = run_command(
        [
            "error-exponent",
            "--channel",
            bssc_file,
            "--policy",
            "closed-form",
            "--rates",
            "0:0.3:0.1",
            "--n",
            "1000",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rate_bits,E_r_bits,rho_star,bound_at_n"
    assert len(lines) == 5


def test_error_exponent_rho_curve(bssc_file, capsys):
    assert run_command(
        ["error-exponent", "--channel", bssc_file, "--policy", "uniform", "--rho-grid", "0:1:0.5"]
    ) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "rho,lambda_max,F_infinity_bits,eigen_ratio"


def test_error_exponent_closed_form_needs_state_symmetry(bibo_file, capsys):
    assert run_command(["error-exponent", "--channel", bibo_file, "--policy", "closed-form"]) == 1
    assert "state-symmetric" in capsys.readouterr().err


def test_error_exponent_policy_from_file(bibo_file, tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps([[0.626, 0.374], [0.33, 0.67]]))
    code = run_command(
        ["error-exponent", "--channel", bibo_file, "--policy", str(policy_path), "--rho-grid", "0:1:0.5"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("rho,lambda_max")


def test_check_conditions(bssc_file, capsys):
    assert run_command(["check-conditions", "--channel", bssc_file, "--horizon", "3"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert run_command(["check-conditions", "--channel", bssc_file]) == 0


# stdout of the README examples on bssc_1_05.json, byte for byte.  Reports
# round to at most 10 decimals, so the solver's last bits do not show.
README_GOLDENS = {
    ('fb-capacity',): """\
channel: bssc(1,0.5)
gain            = 0.3219280949 bits/channel use
iterations      = 1
span residual   = 0.000e+00 bits
irreducible     = True
bias V(0)       = 0.0000000000
bias V(1)       = 0.0000000000
policy pi(.|0)  = [0.600000000, 0.400000000]
policy pi(.|1)  = [0.400000000, 0.600000000]
output P(.|0)   = [0.800000000, 0.200000000]
output P(.|1)   = [0.200000000, 0.800000000]
invariant dist  = [0.500000000, 0.500000000]
""",
    ('finite-horizon', '--horizon', '10'): """\
horizon n = 10
stage 0: V_0(0)=3.541209044  V_0(1)=3.541209044
  pi_0(.|0) = [0.600000000, 0.400000000]
  pi_0(.|1) = [0.400000000, 0.600000000]
stage 1: V_1(0)=3.219280949  V_1(1)=3.219280949
  pi_1(.|0) = [0.600000000, 0.400000000]
  pi_1(.|1) = [0.400000000, 0.600000000]
stage 2: V_2(0)=2.897352854  V_2(1)=2.897352854
  pi_2(.|0) = [0.600000000, 0.400000000]
  pi_2(.|1) = [0.400000000, 0.600000000]
stage 3: V_3(0)=2.575424759  V_3(1)=2.575424759
  pi_3(.|0) = [0.600000000, 0.400000000]
  pi_3(.|1) = [0.400000000, 0.600000000]
stage 4: V_4(0)=2.253496664  V_4(1)=2.253496664
  pi_4(.|0) = [0.600000000, 0.400000000]
  pi_4(.|1) = [0.400000000, 0.600000000]
stage 5: V_5(0)=1.931568569  V_5(1)=1.931568569
  pi_5(.|0) = [0.600000000, 0.400000000]
  pi_5(.|1) = [0.400000000, 0.600000000]
stage 6: V_6(0)=1.609640474  V_6(1)=1.609640474
  pi_6(.|0) = [0.600000000, 0.400000000]
  pi_6(.|1) = [0.400000000, 0.600000000]
stage 7: V_7(0)=1.287712380  V_7(1)=1.287712380
  pi_7(.|0) = [0.600000000, 0.400000000]
  pi_7(.|1) = [0.400000000, 0.600000000]
stage 8: V_8(0)=0.965784285  V_8(1)=0.965784285
  pi_8(.|0) = [0.600000000, 0.400000000]
  pi_8(.|1) = [0.400000000, 0.600000000]
stage 9: V_9(0)=0.643856190  V_9(1)=0.643856190
  pi_9(.|0) = [0.600000000, 0.400000000]
  pi_9(.|1) = [0.400000000, 0.600000000]
stage 10: V_10(0)=0.321928095  V_10(1)=0.321928095
  pi_10(.|0) = [0.600000000, 0.400000000]
  pi_10(.|1) = [0.400000000, 0.600000000]
value under uniform initial distribution = 3.5412090438 bits
per-stage average = 0.3219280949 bits/channel use
stage coupling: non_nested_time_invariant (max value spread 0.000e+00 bits)
""",
    ('constrained', '--kappa', '0.5'): """\
capacity       = 0.3112781245 bits
multiplier     = 0.2075203394
achieved cost  = 0.4999991735
binding        = true
kappa_max      = 0.6000000000
policy pi(.|0) = [0.499999174, 0.500000826]
policy pi(.|1) = [0.500000826, 0.499999174]
""",
    ('check-conditions', '--horizon', '10'): """\
finite horizon n=10: conditions PASS
worst violation = 4.441e-16 bits (tol 1e-08)
""",
}


@pytest.mark.parametrize("command", list(README_GOLDENS))
def test_readme_examples_print_the_golden_output(bssc_file, capsys, command):
    assert run_command([command[0], "--channel", bssc_file, *command[1:]]) == 0
    assert capsys.readouterr().out == README_GOLDENS[command]
