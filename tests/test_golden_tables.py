"""Golden bytes of every CSV table the package writes, on small fixed inputs.

Each case pins the exact text of one emitter: the seven table writers called
directly and through the CLI, including the reducible chain whose invariant
mass cells are empty, integer inputs that must print as floats and two
finite-horizon tables on the Newton path.
"""

import numpy as np
import pytest

from conftest import three_by_three_channel
from umco import BSSCParams, bssc_channel, bssc_cost_function, channel_from_kernel, relative_value_iteration
from umco import serialize_channel, uniform_policy
from umco.bssc import bssc_grid_csv, bssc_kappa_csv
from umco.cli import run_command, solution_csv
from umco.constrained import ConstrainedResult, curve_csv
from umco.exponent import exponent_csv, rate_sweep_csv

BSSC_1_05 = bssc_channel(BSSCParams(1.0, 0.5))
# State 0 is absorbing, so the output chain is reducible and has no invariant law.
REDUCIBLE = channel_from_kernel(np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.3, 0.7], [0.6, 0.4]]]))
# Finite-horizon stages on the Newton path: over nine stages the passes on
# THREE_BY_THREE take 4, 3, 3, 2, 2, 2, 2, 1 and 1 solves.
THREE_BY_THREE = three_by_three_channel()
# Channel 116 of tests/sparse_stress.py's generator at seed 2024 (2 states, 5
# inputs): passes from supports that are not full, 66 policy entries at
# exactly 0 over eleven stages, and a stationary tail that fills stages 0-2.
SPARSE_116 = channel_from_kernel(
    np.array(
        [
            [
                [0.8453085127684006, 0.1546914872315994],
                [0.269765031560832, 0.730234968439168],
                [0.9386777385874998, 0.06132226141250015],
                [1.0, 0.0],
                [0.0, 1.0],
            ],
            [
                [0.0, 1.0],
                [0.9683870827019608, 0.031612917298039306],
                [0.4563402189205926, 0.5436597810794074],
                [0.4267166430583954, 0.5732833569416045],
                [0.623101054637754, 0.37689894536224594],
            ],
        ]
    )
)


def _grid_with_a_singular_point():
    with pytest.warns(UserWarning, match="alpha=0.7, beta=0.3"):
        return bssc_grid_csv([0.95, 0.7], [0.8, 0.3], kappa=0.3)


def _cli(tmp_path, argv, channel=None):
    """The table one CLI run writes with --out, on ``channel`` when given (a 2x2 one with the BSSC cost table)."""
    if channel is not None:
        path = tmp_path / "channel.json"
        cost = bssc_cost_function() if channel.kernel.shape == (2, 2, 2) else None
        path.write_text(serialize_channel(channel, cost=cost))
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
    "finite-horizon-out-3x3": (THREE_BY_THREE, ["finite-horizon", "--horizon", "8"]),
    "finite-horizon-out-sparse": (SPARSE_116, ["finite-horizon", "--horizon", "10"]),
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
    "finite-horizon-out-3x3": (
        "stage,state,value_bits,policy_a0,policy_a1,policy_a2\n"
        "0,0,3.983514556971755,0.4458066489253685,0.4873083353111238,0.06688501576350764\n"
        "0,1,4.122714311304834,0.5398920591174001,0.4601079408825999,0.0\n"
        "0,2,3.860826827094662,0.3329376010546782,0.42616918790267033,0.2408932110426515\n"
        "1,0,3.536824310613176,0.4458063427396181,0.4873081310027132,0.06688552625766875\n"
        "1,1,3.676024120846399,0.5398919580015451,0.46010804199845484,0.0\n"
        "1,2,3.4141370513290656,0.3329381421180236,0.426168543865537,0.24089331401643943\n"
        "2,0,3.0901335934122525,0.44580484018396055,0.4873070668966478,0.0668880929193917\n"
        "2,1,3.2293336661836194,0.5398914252770917,0.4601085747229083,0.0\n"
        "2,2,2.9674486797739,0.3329408732690506,0.4261653526472265,0.2408937740837229\n"
        "3,0,2.6434405971789365,0.44579758316430595,0.4873013790760735,0.06690103775962049\n"
        "3,1,2.7826418327893543,0.5398885266305218,0.4601114733694783,0.0\n"
        "3,2,2.520767336421741,0.33295474181305346,0.42614966566351564,0.24089559252343098\n"
        "4,0,2.1967368748116627,0.4457635680301262,0.4872697581954324,0.06696667377444149\n"
        "4,1,2.3359426072250167,0.5398719944744858,0.4601280055255142,0.0\n"
        "4,2,2.074121162458859,0.3330258742184126,0.42607366074090713,0.24090046504068025\n"
        "5,0,1.749985419305061,0.44561341039528024,0.48708415365825264,0.06730243594646713\n"
        "5,1,1.8892021028553077,0.5397717136378177,0.46022828636218227,0.0\n"
        "5,2,1.6276508982797706,0.333396665625952,0.4257152193905749,0.24088811498347312\n"
        "6,0,1.3030468262235617,0.4450349265555184,0.48592105846910816,0.06904401497537345\n"
        "6,1,1.4422179117759515,0.5391199144394885,0.4608800855605115,0.0\n"
        "6,2,1.1820594588391917,0.3353765413154287,0.4241121936420373,0.24051126504253403\n"
        "7,0,0.855616903607296,0.44359970331010373,0.4781466059799847,0.07825369070991159\n"
        "7,1,0.9936967347686223,0.5346079288967994,0.4653920711032007,0.0\n"
        "7,2,0.7408412603020278,0.3462671162486625,0.41772885715367414,0.23600402659766342\n"
        "8,0,0.40947492173965233,0.448454202232936,0.4234830446063853,0.12806275316067872\n"
        "8,1,0.5348101744527864,0.5016207096534743,0.4983792903465257,0.0\n"
        "8,2,0.32105255486028494,0.4075310952327027,0.3995803404222957,0.1928885643450017\n"
    ),
    "finite-horizon-out-sparse": (
        "stage,state,value_bits,policy_a0,policy_a1,policy_a2,policy_a3,policy_a4\n"
        "0,0,10.48879161818319,0.0,0.0,0.0,0.518102724641911,0.48189727535808907\n"
        "0,1,10.384279091720796,0.5023712274119075,0.4976287725880924,0.0,0.0,0.0\n"
        "1,0,9.540101693873137,0.0,0.0,0.0,0.518102724641911,0.48189727535808907\n"
        "1,1,9.435589167410743,0.5023712274119075,0.4976287725880924,0.0,0.0,0.0\n"
        "2,0,8.591411769563084,0.0,0.0,0.0,0.518102724641911,0.48189727535808907\n"
        "2,1,8.486899243100689,0.5023712274119075,0.4976287725880924,0.0,0.0,0.0\n"
        "3,0,7.64272184525303,0.0,0.0,0.0,0.518102724641911,0.48189727535808907\n"
        "3,1,7.538209318790635,0.5023712274119075,0.4976287725880924,0.0,0.0,0.0\n"
        "4,0,6.694031920938871,0.0,0.0,0.0,0.5181027246026643,0.4818972753973357\n"
        "4,1,6.589519394484687,0.5023712274524353,0.4976287725475646,0.0,0.0,0.0\n"
        "5,0,5.745341996515426,0.0,0.0,0.0,0.5181027235186666,0.48189727648133346\n"
        "5,1,5.640829470288024,0.5023712285718204,0.4976287714281796,0.0,0.0,0.0\n"
        "6,0,4.796652069073511,0.0,0.0,0.0,0.5181026935785286,0.4818973064214714\n"
        "6,1,4.692139549109832,0.5023712594894539,0.4976287405105462,0.0,0.0,0.0\n"
        "7,0,3.847962058260945,0.0,0.0,0.0,0.518101866625908,0.4818981333740921\n"
        "7,1,3.7434497113022864,0.502372113437663,0.4976278865623371,0.0,0.0,0.0\n"
        "8,0,2.8992697447363094,0.0,0.0,0.0,0.5180790260312876,0.4819209739687124\n"
        "8,1,2.7947621762025614,0.5023956995776406,0.49760430042235937,0.0,0.0,0.0\n"
        "9,0,1.9505138283932304,0.0,0.0,0.0,0.5174481354451068,0.48255186455489324\n"
        "9,1,1.8461382406802809,0.5030471214652199,0.49695287853478004,0.0,0.0,0.0\n"
        "10,0,1.0,0.0,0.0,0.0,0.5,0.5\n"
        "10,1,0.8992697447363092,0.5210159695199272,0.4789840304800729,0.0,0.0,0.0\n"
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
