"""Exact joint degree distribution of the active and passive projections of a
random bipartite graph, with a seeded Monte Carlo cross-check."""

from .bipartite import (
    EmpiricalJointDistribution,
    empirical_joint,
    exhaustive_joint,
)
from .exact import (
    Mode,
    Scalar,
    SizeCapError,
    as_scalar,
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
    moment_table,
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
    "chi_square",
    "cond_nonadjacency_given_edge",
    "cond_nonadjacency_given_nonedge",
    "default_independence_grid",
    "edge_count_correlation",
    "empirical_joint",
    "eval_joint_pgf",
    "eval_marginal_pgf",
    "exhaustive_joint",
    "independence_gap",
    "joint_pmf",
    "marginal_pmf",
    "moment_table",
    "moments",
    "parse_probability",
    "sieve_invert",
    "tv_distance",
]
