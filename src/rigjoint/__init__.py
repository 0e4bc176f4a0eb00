"""Exact joint degree distribution of the active and passive projections of a
random bipartite graph, with a seeded Monte Carlo cross-check."""

from .bipartite import (
    ENUMERATION_CAP,
    EmpiricalJointDistribution,
    derive_trial_seed,
    empirical_joint,
    exhaustive_joint,
)
from .exact import (
    Mode,
    Scalar,
    SizeCapError,
    as_scalar,
    binom,
    parse_probability,
)
from .pgf import (
    JointDegreeDistribution,
    MarginalDistribution,
    ModelParams,
    MomentTable,
    Side,
    cond_nonadjacency_given_edge,
    cond_nonadjacency_given_nonedge,
    eval_joint_pgf,
    eval_marginal_pgf,
    joint_pmf,
    marginal_pmf,
    moment_entry,
    moment_table,
    recombination_check,
    sieve_invert,
)
from .stats import (
    MomentSummary,
    chi_square,
    default_independence_grid,
    edge_count_correlation,
    independence_gap,
    moments,
    tv_distance,
)

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_CAP",
    "EmpiricalJointDistribution",
    "JointDegreeDistribution",
    "MarginalDistribution",
    "Mode",
    "ModelParams",
    "MomentSummary",
    "MomentTable",
    "Scalar",
    "Side",
    "SizeCapError",
    "as_scalar",
    "binom",
    "chi_square",
    "cond_nonadjacency_given_edge",
    "cond_nonadjacency_given_nonedge",
    "default_independence_grid",
    "derive_trial_seed",
    "edge_count_correlation",
    "empirical_joint",
    "eval_joint_pgf",
    "eval_marginal_pgf",
    "exhaustive_joint",
    "independence_gap",
    "joint_pmf",
    "marginal_pmf",
    "moment_entry",
    "moment_table",
    "moments",
    "parse_probability",
    "recombination_check",
    "sieve_invert",
    "tv_distance",
]
