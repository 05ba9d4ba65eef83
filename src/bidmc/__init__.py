"""Symmetric binary-input DMCs as BSC mixtures: degradation order,
minimum-error and capacity-optimal alphabet reduction, and polar-code
construction experiments."""

from .blackwell import (
    OneMatrix,
    bayes_risk_curve,
    find_degradation_witness,
    is_p_degradation,
    mean_degradation,
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
    error_probability,
    lr_functional,
    lr_profile,
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
    is_c_degradation,
    plan_witness,
    realize_pplus,
    realize_pstar,
    refine_cuts,
    split_threshold,
    to_pstar_plan,
)
from .search import (
    DpTable,
    brute_force_c_optimal,
    c_optimal_degradation,
    c_optimal_degradations,
    dp_tables,
    enumerate_c_degradations,
    tv_greedy_plan,
)

__version__ = "0.1.0"
