"""Feedback capacity and error exponents for channels with unit memory on the previous output."""

from .bssc import (
    BSSCParams,
    BSSCSolution,
    MarkovInput,
    bssc_channel,
    bssc_closed_form,
    bssc_constrained_closed_form,
    bssc_cost_function,
    bssc_nofeedback_markov,
    bssc_optimal_policy,
    nofb_induction_deviations,
    verify_nofb_induces_fb,
)
from .channel import (
    CostSpec,
    Distribution,
    InputPolicy,
    OutputKernel,
    UnitMemoryChannel,
    binary_entropy,
    channel_from_kernel,
    deterministic_policy,
    induced_output_kernel,
    letter_divergences,
    load_channel,
    parse_channel_document,
    serialize_channel,
    stage_reward,
    uniform_policy,
)
from .constrained import (
    ConstrainedResult,
    average_cost,
    capacity_cost_curve,
    constrained_capacity,
    curve_csv,
)
from .errors import (
    ChannelFormatError,
    ConvergenceError,
    DimensionMismatchError,
    InfeasibleBudgetError,
    ReducibleChainError,
    UmcoError,
    ValidationError,
)
from .exponent import (
    ExponentCurve,
    LambdaMatrix,
    error_probability_bound,
    exponent_curve,
    finite_horizon_exponent_oracle,
    gallager_exponent_infinite,
    lambda_matrix,
    random_coding_exponent,
)
from .finite_dp import (
    ConditionReport,
    DPSolution,
    NestednessVerdict,
    classify_non_nested,
    ftfi_capacity,
    solve_finite_horizon,
    verify_optimality_conditions,
)
from .infinite_horizon import (
    InfiniteHorizonSolution,
    generalized_dp_check,
    is_irreducible,
    minimum_average_cost,
    policy_iteration,
    relative_value_iteration,
    stationary_distribution,
    verify_bellman_conditions,
)

__version__ = "0.1.0"
