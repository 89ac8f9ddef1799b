"""Golden bytes of every CSV table the package writes, on small fixed inputs.

Each case pins the exact text of one emitter: the seven table writers called
directly and through the CLI, including the reducible chain whose invariant
mass cells are empty and integer inputs that must print as floats.
"""

import numpy as np
import pytest

from umco import BSSCParams, bssc_channel, bssc_cost_function, channel_from_kernel, relative_value_iteration
from umco import serialize_channel, uniform_policy
from umco.bssc import bssc_grid_csv, bssc_kappa_csv
from umco.cli import run_command, solution_csv
from umco.constrained import ConstrainedResult, curve_csv
from umco.exponent import exponent_csv, rate_sweep_csv

BSSC_1_05 = bssc_channel(BSSCParams(1.0, 0.5))
# State 0 is absorbing, so the output chain is reducible and has no invariant law.
REDUCIBLE = channel_from_kernel(np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.3, 0.7], [0.6, 0.4]]]))


def _grid_with_a_singular_point():
    with pytest.warns(UserWarning, match="alpha=0.7, beta=0.3"):
        return bssc_grid_csv([0.95, 0.7], [0.8, 0.3], kappa=0.3)


def _cli(tmp_path, argv, channel=None):
    """The table one CLI run writes with --out, on ``channel`` when given (with the BSSC cost table)."""
    if channel is not None:
        path = tmp_path / "channel.json"
        path.write_text(serialize_channel(channel, cost=bssc_cost_function()))
        argv = [argv[0], "--channel", str(path), *argv[1:]]
    target = tmp_path / "table.csv"
    assert run_command([*argv, "--out", str(target)]) == 0
    return target.read_text()


DIRECT = {
    "solution_csv-irreducible": lambda: solution_csv(relative_value_iteration(BSSC_1_05)),
    "solution_csv-reducible": lambda: solution_csv(relative_value_iteration(REDUCIBLE)),
    "bssc_grid_csv-integer": lambda: bssc_grid_csv([1], [0.5]),
    "bssc_grid_csv-kappa": _grid_with_a_singular_point,
    "bssc_kappa_csv": lambda: bssc_kappa_csv(BSSCParams(0.95, 0.8), [0, 0.3, 0.9]),
    "curve_csv": lambda: curve_csv(
        [
            ConstrainedResult(0.5, 0.25, 0.125, 0.5, uniform_policy(2, 2), True, 0.75),
            ConstrainedResult(1.0, 0.5, 0.0, 0.75, uniform_policy(2, 2), False),
        ]
    ),
    "exponent_csv": lambda: exponent_csv(BSSC_1_05, uniform_policy(2, 2), [0, 0.5, 1]),
    "rate_sweep_csv-integer": lambda: rate_sweep_csv(BSSC_1_05, uniform_policy(2, 2), [0, 1], 100),
}

CLI = {
    "bssc-sweep-alpha": ["bssc", "--alpha", "0.95", "--beta", "0.8", "--sweep", "alpha=0.9:1:0.05"],
    "bssc-sweep-alpha-kappa": ["bssc", "--alpha", "0.95", "--beta", "0.8", "--kappa", "0.3", "--sweep", "alpha=0.9:1:0.05"],
    "bssc-sweep-beta": ["bssc", "--alpha", "0.95", "--beta", "0.8", "--sweep", "beta=0.7:0.8:0.05"],
    "bssc-sweep-beta-kappa": ["bssc", "--alpha", "0.95", "--beta", "0.8", "--kappa", "0.54", "--sweep", "beta=0.7:0.8:0.05"],
    "bssc-sweep-kappa": ["bssc", "--alpha", "0.95", "--beta", "0.8", "--sweep", "kappa=0:1:0.5"],
}
CLI_ON_CHANNEL = {
    "finite-horizon-out": (BSSC_1_05, ["finite-horizon", "--horizon", "2"]),
    "fb-capacity-out-reducible": (REDUCIBLE, ["fb-capacity"]),
    "constrained-sweep-out": (BSSC_1_05, ["constrained", "--sweep", "kappa=0.4:0.5:0.1"]),
    "error-exponent-rates-out": (BSSC_1_05, ["error-exponent", "--rates", "0:0.2:0.1", "--n", "50"]),
    "error-exponent-rho-out": (BSSC_1_05, ["error-exponent", "--policy", "uniform", "--rho-grid", "0:1:0.5"]),
}

GOLDEN = {
    "bssc-sweep-alpha": (
        "alpha,beta,kappa,capacity_bits,policy_diagonal,output_diagonal\n"
        "0.9,0.8,,0.3977543465685295,0.5175554611358605,0.5622888227951024\n"
        "0.9500000000000001,0.8,,0.4813072787911129,0.5323894179566144,0.5992920634674607\n"
        "1.0,0.8,,0.618231365954921,0.5643363622203165,0.6514690897762532\n"
    ),
    "bssc-sweep-alpha-kappa": (
        "alpha,beta,kappa,capacity_bits,policy_diagonal,output_diagonal\n"
        "0.9,0.8,0.3,0.3304521242598859,0.3,0.41\n"
        "0.9500000000000001,0.8,0.3,0.39243950906724545,0.3,0.425\n"
        "1.0,0.8,0.3,0.484237854800902,0.3,0.43999999999999995\n"
    ),
    "bssc-sweep-beta": (
        "alpha,beta,kappa,capacity_bits,policy_diagonal,output_diagonal\n"
        "0.95,0.7,,0.37314324064610543,0.5438194871122206,0.6534826666229434\n"
        "0.95,0.75,,0.42435565127893,0.5386965753793705,0.6270876027655594\n"
        "0.95,0.7999999999999999,,0.48130727879111246,0.5323894179566142,0.5992920634674607\n"
    ),
    "bssc-sweep-beta-kappa": (
        "alpha,beta,kappa,capacity_bits,policy_diagonal,output_diagonal\n"
        "0.95,0.7,0.54,0.3731236279353547,0.54,0.651\n"
        "0.95,0.75,0.54,0.42435565127893,0.5386965753793705,0.6270876027655594\n"
        "0.95,0.7999999999999999,0.54,0.48130727879111246,0.5323894179566142,0.5992920634674607\n"
    ),
    "bssc-sweep-kappa": (
        "kappa,capacity_bits,policy_diagonal,output_diagonal,constrained\n"
        "0.0,0.0,0.0,0.19999999999999996,true\n"
        "0.5,0.47954573662152633,0.5,0.575,true\n"
        "1.0,0.48130727879111257,0.5323894179566144,0.5992920634674607,false\n"
    ),
    "bssc_grid_csv-integer": (
        "alpha,beta,kappa,capacity_bits,policy_diagonal,output_diagonal\n"
        "1.0,0.5,,0.3219280948873623,0.6,0.8\n"
    ),
    "bssc_grid_csv-kappa": (
        "alpha,beta,kappa,capacity_bits,policy_diagonal,output_diagonal\n"
        "0.95,0.8,0.3,0.3924395090672451,0.3,0.42499999999999993\n"
        "0.95,0.3,0.3,0.06637011241674218,0.3,0.7749999999999999\n"
        "0.7,0.8,0.3,0.16433111918512955,0.3,0.35\n"
    ),
    "bssc_kappa_csv": (
        "kappa,capacity_bits,policy_diagonal,output_diagonal,constrained\n"
        "0.0,0.0,0.0,0.19999999999999996,true\n"
        "0.3,0.3924395090672451,0.3,0.42499999999999993,true\n"
        "0.9,0.48130727879111257,0.5323894179566144,0.5992920634674607,false\n"
    ),
    "constrained-sweep-out": (
        "kappa,capacity_bits,multiplier,achieved_cost,binding\n"
        "0.4,0.28129089923104933,0.38880268223893655,0.4000006445975577,true\n"
        "0.5,0.31127812445978975,0.20752033940461706,0.4999991735435976,true\n"
    ),
    "curve_csv": (
        "kappa,capacity_bits,multiplier,achieved_cost,binding\n"
        "0.5,0.25,0.125,0.5,true\n"
        "1.0,0.5,0.0,0.75,false\n"
    ),
    "error-exponent-rates-out": (
        "rate_bits,E_r_bits,rho_star,bound_at_n\n"
        "0.0,0.21857942391651602,1.0,0.004103380925407887\n"
        "0.1,0.11857942391651602,1.0,0.13130818961305238\n"
        "0.2,0.03192431879287587,0.5733482142857143,1.0\n"
    ),
    "error-exponent-rho-out": (
        "rho,lambda_max,F_infinity_bits,eigen_ratio\n"
        "0.0,1.0,-0.0,1.0\n"
        "0.5,0.9125103736594719,0.13208713497500899,1.0\n"
        "1.0,0.8535533905932737,0.22844669683638807,1.0\n"
    ),
    "exponent_csv": (
        "rho,lambda_max,F_infinity_bits,eigen_ratio\n"
        "0.0,1.0,-0.0,1.0\n"
        "0.5,0.9125103736594719,0.13208713497500899,1.0\n"
        "1.0,0.8535533905932737,0.22844669683638807,1.0\n"
    ),
    "fb-capacity-out-reducible": (
        "state,bias_bits,invariant_mass,policy_a0,policy_a1\n"
        "0,0.0,,0.5,0.5\n"
        "1,0.1531307028354299,,0.5923018267770768,0.4076981732229233\n"
    ),
    "finite-horizon-out": (
        "stage,state,value_bits,policy_a0,policy_a1\n"
        "0,0,0.965784284662087,0.6000000000000001,0.3999999999999999\n"
        "0,1,0.965784284662087,0.39999999999999997,0.6000000000000001\n"
        "1,0,0.6438561897747247,0.6000000000000001,0.3999999999999999\n"
        "1,1,0.6438561897747247,0.39999999999999997,0.6000000000000001\n"
        "2,0,0.32192809488736235,0.6000000000000001,0.3999999999999999\n"
        "2,1,0.32192809488736235,0.39999999999999997,0.6000000000000001\n"
    ),
    "rate_sweep_csv-integer": (
        "rate_bits,E_r_bits,rho_star,bound_at_n\n"
        "0.0,0.22844669683638807,1.0,1.0620847454447302e-06\n"
        "1.0,-0.0,0.0,1.0\n"
    ),
    "solution_csv-irreducible": (
        "state,bias_bits,invariant_mass,policy_a0,policy_a1\n"
        "0,0.0,0.5,0.5999999999894368,0.4000000000105633\n"
        "1,0.0,0.5,0.4000000000105633,0.5999999999894368\n"
    ),
    "solution_csv-reducible": (
        "state,bias_bits,invariant_mass,policy_a0,policy_a1\n"
        "0,0.0,,0.5,0.5\n"
        "1,0.1531307028354299,,0.5923018267770768,0.4076981732229233\n"
    ),
}


@pytest.mark.parametrize("case", sorted(DIRECT))
def test_direct_emitters_print_the_golden_bytes(case):
    assert DIRECT[case]() == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CLI))
def test_bssc_sweeps_print_and_write_the_golden_bytes(case, tmp_path, capsys):
    text = _cli(tmp_path, CLI[case])
    assert text == GOLDEN[case]
    assert capsys.readouterr().out == text + f"wrote {tmp_path / 'table.csv'}\n"


@pytest.mark.parametrize("case", sorted(CLI_ON_CHANNEL))
def test_cli_tables_are_the_golden_bytes(case, tmp_path):
    channel, argv = CLI_ON_CHANNEL[case]
    assert _cli(tmp_path, argv, channel) == GOLDEN[case]
