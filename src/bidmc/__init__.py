"""Symmetric binary-input DMCs as BSC mixtures: degradation order,
minimum-error and capacity-optimal alphabet reduction, and polar-code
construction experiments."""

from .blackwell import (
    IntermediateRealization,
    OneMatrix,
    bayes_risk_curve,
    find_degradation_witness,
    intermediate_output,
    is_degradation,
    is_p_degradation,
    is_pair_p_degradation,
    mean_degradation,
    realize_intermediate,
    risk_dominates,
)
from .channel import (
    Channel,
    InvalidDistributionError,
    LrProfile,
    Particle,
    binary_entropy,
    bsc,
    canonicalize,
    capacity,
    capacity_loss_rate,
    equivalent,
    error_probability,
    lr_functional,
    lr_profile,
    mix,
)
from .ensembles import instance_rng, random_channel
from .polar import (
    BranchRecord,
    ConstructionRun,
    arikan_minus,
    arikan_plus,
    construct,
    diamond,
    star,
)
from .refine import (
    DegradationOrderError,
    InvalidPlanError,
    PPlusPlan,
    PStarPlan,
    improving_moves,
    is_c_degradation,
    plan_witness,
    pplus_as_pstar,
    realize_pplus,
    realize_pstar,
    refine_cuts,
    split_threshold,
    to_pstar_plan,
)
from .search import (
    DpTable,
    StageMatrix,
    brute_force_c_optimal,
    c_optimal_degradation,
    enumerate_c_degradations,
    iota_band,
    tv_greedy_degrade,
    tv_greedy_plan,
)
from .smawk import CountingMatrix, smawk_row_maxima

__version__ = "0.1.0"
