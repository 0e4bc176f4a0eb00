"""Derived statistics: moments of the degree pair, dependence diagnostics,
and goodness-of-fit metrics for Monte Carlo output.

Means, variances, and the covariance come straight from the falling moments:
with Y1 = n-1-X and Y2 = m-1-Y, E[Y1] = N[1][0], E[Y1(Y1-1)] = 2 N[2][0],
E[Y1 Y2] = N[1][1], and shifting by constants leaves variances and the
covariance unchanged. X and Y are both increasing functions of the edge set,
so cov(X, Y) >= 0 by Harris's inequality; float mode can still print a
negative value at tiny p, where N11 - N10 N01 cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .bipartite import EmpiricalJointDistribution, _adjacency_batch
from .exact import Mode, Scalar, zero
from .pgf import (
    JointDegreeDistribution,
    ModelParams,
    Side,
    eval_joint_pgf,  # noqa: F401 (unused; benchmarks/test_smoke.py reads stats.eval_joint_pgf)
    eval_marginal_pgf,
    moment_entry,
    moment_table,
)


@dataclass(frozen=True)
class MomentSummary:
    """First and second moments of (X, Y).

    ``corr`` is always a float (it involves a square root) and is None when
    either variance vanishes; the other fields stay exact in exact mode.
    """

    mode: Mode
    mean_x: Scalar
    mean_y: Scalar
    var_x: Scalar
    var_y: Scalar
    cov: Scalar
    corr: Optional[float]


def moments(params: ModelParams, mode: Mode = Mode.EXACT) -> MomentSummary:
    """Moment summary of the degree pair from five falling moments."""
    n, m = params.n, params.m

    def entry(k, l):
        # orders beyond the table range correspond to empty falling products
        if k > n - 1 or l > m - 1:
            return zero(mode)
        return moment_entry(params, k, l, mode)

    n10, n01 = entry(1, 0), entry(0, 1)
    n20, n02, n11 = entry(2, 0), entry(0, 2), entry(1, 1)
    mean_x = (n - 1) - n10
    mean_y = (m - 1) - n01
    var_x = 2 * n20 + n10 - n10 * n10
    var_y = 2 * n02 + n01 - n01 * n01
    cov = n11 - n10 * n01
    if var_x <= 0 or var_y <= 0:
        corr = None
    elif mode is Mode.FLOAT:
        corr = cov / math.sqrt(var_x) / math.sqrt(var_y)
    else:
        # float(var_x) * float(var_y) can underflow to 0, so the exact ratio
        # cov^2 / (var_x var_y) is scaled by 4^-e before the root, 2^e after.
        ratio = (cov / var_x) * (cov / var_y)
        e = (ratio.numerator.bit_length() - ratio.denominator.bit_length()) // 2
        corr = math.copysign(math.ldexp(math.sqrt(ratio / Fraction(4) ** e), e), cov)
    return MomentSummary(mode, mean_x, mean_y, var_x, var_y, cov, corr)


def default_independence_grid() -> tuple:
    """The 121 rational points {0, 1/10, ..., 1}^2."""
    ticks = [Fraction(i, 10) for i in range(11)]
    return tuple((x, y) for x in ticks for y in ticks)


def independence_gap(params: ModelParams, grid: Sequence[Tuple[Scalar, Scalar]]) -> Fraction:
    """Exact max over the grid of |F(x,y) - F_X(x) F_Y(y)|.

    Zero on a coefficient-determining grid certifies independence of X and Y;
    a positive gap anywhere certifies dependence. The moment table is built
    once and F read off it at every point.
    """
    if not grid:
        raise ValueError("independence grid must be nonempty")
    table = moment_table(params)
    gap = Fraction(0)
    for x, y in grid:
        split = eval_marginal_pgf(params, Side.ACTIVE, x) * eval_marginal_pgf(
            params, Side.PASSIVE, y
        )
        gap = max(gap, abs(table.eval_pgf(x, y) - split))
    return gap


def _check_dims(dist: JointDegreeDistribution, emp: EmpiricalJointDistribution) -> None:
    n, m = dist.params.n, dist.params.m
    if len(emp.counts) != n or any(len(row) != m for row in emp.counts):
        raise ValueError("empirical table dimensions do not match the exact law")


def tv_distance(dist: JointDegreeDistribution, emp: EmpiricalJointDistribution) -> float:
    """Total variation distance between the exact law and empirical frequencies."""
    _check_dims(dist, emp)
    cells = [
        (dist.pmf[a][b], emp.counts[a][b])
        for a in range(dist.params.n)
        for b in range(dist.params.m)
    ]
    total = sum(abs(prob - Fraction(count, emp.trials)) for prob, count in cells)
    return float(total) / 2.0


def chi_square(
    dist: JointDegreeDistribution, emp: EmpiricalJointDistribution
) -> Tuple[float, int]:
    """Pearson statistic against the exact law, with small-cell pooling.

    Cells with expected count below 5 are merged into one remainder cell
    (dropped when both its expectation and observation are zero); degrees of
    freedom are the remaining cells minus one. Raises ValueError when fewer
    than two cells survive.
    """
    _check_dims(dist, emp)
    if emp.trials < 1:
        raise ValueError("empirical distribution has no trials")
    kept = []
    pooled_expected, pooled_observed = Fraction(0), 0
    for a in range(dist.params.n):
        for b in range(dist.params.m):
            expected = emp.trials * dist.pmf[a][b]
            observed = emp.counts[a][b]
            if expected < 5:
                pooled_expected += expected
                pooled_observed += observed
            else:
                kept.append((expected, observed))
    if pooled_expected > 0 or pooled_observed > 0:
        kept.append((pooled_expected, pooled_observed))
    if len(kept) < 2:
        raise ValueError("fewer than 2 cells after pooling; chi-square undefined")
    statistic = 0.0
    for expected, observed in kept:
        if expected == 0:
            statistic = math.inf  # observations in a zero-probability region
        else:
            diff = float(observed) - float(expected)
            statistic += diff * diff / float(expected)
    return statistic, len(kept) - 1


def _linked_pairs(gram: np.ndarray) -> np.ndarray:
    """Per batch entry, the pairs i < i' with gram[i, i'] > 0.

    The Gram matrix is symmetric, so the positive entries off its diagonal
    count each linked pair twice.
    """
    diagonal = np.diagonal(gram, axis1=1, axis2=2)
    return (np.count_nonzero(gram, axis=(1, 2)) - np.count_nonzero(diagonal, axis=1)) // 2


def edge_count_correlation(
    params: ModelParams, trials: int, seed: int, batch_size: int = 4096
) -> Optional[float]:
    """Sample correlation between active and passive edge totals.

    Monte Carlo check of the folklore that the two projections' sizes move
    together; no closed form is known. Returns None when either total is
    constant across the sample (e.g. p = 0 or p = 1). Per trial, two vertices
    are linked iff their entry of A A^T is positive and two objects iff theirs
    of A^T A is; the entries count shared neighbours exactly in float32.
    """
    if trials < 2:
        raise ValueError("correlation needs at least 2 trials")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    active = np.empty(trials, dtype=np.float64)
    passive = np.empty(trials, dtype=np.float64)
    for start in range(0, trials, batch_size):
        size = min(batch_size, trials - start)
        adj = _adjacency_batch(params, seed, start, size).astype(np.float32)
        adj_t = adj.transpose(0, 2, 1)
        active[start : start + size] = _linked_pairs(adj @ adj_t)
        passive[start : start + size] = _linked_pairs(adj_t @ adj)
    if active.std() == 0.0 or passive.std() == 0.0:
        return None
    return float(np.corrcoef(active, passive)[0, 1])
