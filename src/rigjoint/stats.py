"""Derived statistics: moments of the degree pair, dependence diagnostics,
and goodness-of-fit metrics for Monte Carlo output.

Means, variances and the covariance come from their closed forms (ROADMAP
item 1). With s = 1-p^2, q = 1-p and r = 1-2p^2+p^3 = q(1+pq): another vertex
shares none of the tracked vertex's objects with probability s per object,
and two others both share none with probability r per object, so
E[X] = (n-1)(1-s^m), Var X = (n-1) s^m (1-s^m) + (n-1)(n-2)(r^m - s^(2m)),
Y swaps n and m, and cov(X, Y) = (n-1)(m-1) s^(n+m-4) q^2 p^3 (4+p-2p^2-p^3).
Each is written once, and only ``_bases``, which raises s and r to powers,
knows the mode: log1p and expm1 in float mode and, in exact mode, the carrier
``_Scaled``, an integer numerator over a power of b = den(p). With p = a/b,
s = (b^2 - a^2) / b^2 and r = (b - a)(b^2 + ab - a^2) / b^3, so every closed
form is integer products and sums over powers of b, with no gcd until each
moment is reduced once into the Fraction that ``MomentSummary`` holds; the
exact corr is read off the same integers. X and Y are both increasing
functions of the edge set, so cov(X, Y) >= 0 by Harris's inequality (Harris
1960); the closed form is a product of nonnegative factors (4+p-2p^2-p^3 >= 2
on [0, 1]) in either mode.

Only ``edge_count_correlation`` and its helpers use numpy, and they import
it when called; moments, the independence gap, TV distance and chi-square run without
it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .bipartite import EmpiricalJointDistribution, _adjacency_batch, batch_trials, run_batches
from .exact import Mode, Scalar, as_scalar
from .pgf import (
    JointDegreeDistribution,
    ModelParams,
    Side,
    eval_joint_pgf,  # noqa: F401 (unused; benchmarks/test_smoke.py reads stats.eval_joint_pgf)
    eval_marginal_pgf,
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


class _Scaled:
    """Exact mode's carrier: the value num / base^exp, with base = den(p).

    Products multiply numerators and add exponents, and sums first lift the
    smaller exponent by a power of base, so no operation takes a gcd: a
    moment is reduced once, by ``fraction``. Plain ints enter at exponent 0.
    """

    __slots__ = ("num", "exp", "base")

    def __init__(self, num: int, exp: int, base: int):
        self.num, self.exp, self.base = num, exp, base

    def __add__(self, other) -> "_Scaled":
        if not isinstance(other, _Scaled):
            other = _Scaled(other, 0, self.base)
        shift = self.exp - other.exp
        if shift >= 0:
            return _Scaled(self.num + other.num * self.base**shift, self.exp, self.base)
        return _Scaled(self.num * self.base**-shift + other.num, other.exp, self.base)

    __radd__ = __add__

    def __mul__(self, other) -> "_Scaled":
        if isinstance(other, _Scaled):
            return _Scaled(self.num * other.num, self.exp + other.exp, self.base)
        return _Scaled(self.num * other, self.exp, self.base)

    __rmul__ = __mul__

    def __sub__(self, other) -> "_Scaled":
        return self + -1 * other

    def __pow__(self, e: int) -> "_Scaled":
        return _Scaled(self.num**e, self.exp * e, self.base)

    def fraction(self) -> Fraction:
        return Fraction(self.num, self.base**self.exp)


def _bases(p: Fraction, mode: Mode) -> tuple:
    """(p, q, s_pow, gap) in ``mode``'s carrier, for 0 < p < 1.

    s_pow(e) = (s^e, 1 - s^e) and gap(e) = r^e - s^(2e). Exact mode keeps
    integers over powers of b, p = a/b: s = S / b^2 and r = R / b^3 with
    S = b^2 - a^2 and R = (b-a)(b^2 + ab - a^2), so s_pow(e) is S^e and
    b^(2e) - S^e over b^(2e), and gap(e) is R^e b^e - S^(2e) over b^(4e).
    Float mode takes exp and -expm1 of e log s, and gap(e) = r^e (1 - t^e)
    with t = s^2/r = 1 - p^3/(1+pq), so nothing cancels. Above p = 1/2, where
    s = q(1+p) and r = q(1+pq), each log is summed around log q, q rounded
    once from the exact 1-p (or, below the normal doubles, logged from its
    integers).
    """
    if mode is Mode.EXACT:
        a, b = p.numerator, p.denominator
        s, r = b * b - a * a, (b - a) * (b * b + a * b - a * a)

        def s_pow(e):
            power = s**e
            return _Scaled(power, 2 * e, b), _Scaled(b ** (2 * e) - power, 2 * e, b)

        return (_Scaled(a, 1, b), _Scaled(b - a, 1, b), s_pow,
                lambda e: _Scaled(r**e * b**e - s ** (2 * e), 4 * e, b))
    f, q = float(p), float(1 - p)
    if f <= 0.5:
        log_s, log_r, log_t = (math.log1p(-f * f * x) for x in (1, 1 + q, f / (1 + f * q)))
    else:
        a, b = p.numerator, p.denominator
        log_q = math.log(q) if q >= sys.float_info.min else math.log(b - a) - math.log(b)
        log_s, log_r = log_q + math.log1p(f), log_q + math.log1p(f * q)
        log_t = 2 * log_s - log_r
    return (f, q, lambda e: (math.exp(e * log_s), -math.expm1(e * log_s)),
            lambda e: math.exp(e * log_r) * -math.expm1(e * log_t))


def _side(size: int, other: int, s_pow, gap) -> tuple:
    """(E, Var) of the degree on the side of ``size``, the other side having ``other``.

    A factor size-1 or size-2 of 0 skips its powers.
    """
    if size == 1:
        return 0, 0
    power, complement = s_pow(other)
    var = (size - 1) * (power * complement)
    if size > 2:  # (size-1) times ((size-2) gap) keeps a double in range
        var += (size - 1) * ((size - 2) * gap(other))
    return (size - 1) * complement, var


def moments(params: ModelParams, mode: Mode = Mode.EXACT) -> MomentSummary:
    """Moment summary of the degree pair from the closed forms."""
    n, m, p = params.n, params.m, params.p
    if p in (0, 1):  # a point mass at (0, 0) or (n-1, m-1)
        values = (n - 1) * p, (m - 1) * p, 0, 0, 0
    else:
        p, q, s_pow, gap = _bases(p, mode)
        mean_x, var_x = _side(n, m, s_pow, gap)
        mean_y, var_y = _side(m, n, s_pow, gap)
        cov = 0
        if n > 1 and m > 1:
            cov = (n - 1) * ((m - 1) * (s_pow(n + m - 4)[0] * q * q * p**3
                                        * (4 + p - 2 * p * p - p**3)))
        values = mean_x, mean_y, var_x, var_y, cov
    fields = (v.fraction() if isinstance(v, _Scaled) else as_scalar(v, mode) for v in values)
    mean_x, mean_y, var_x, var_y, cov = fields
    if var_x <= 0 or var_y <= 0:
        corr = None
    elif mode is Mode.FLOAT:
        corr = cov / math.sqrt(var_x) / math.sqrt(var_y)
    else:
        # float(var_x) * float(var_y) can underflow to 0, so the exact ratio
        # cov^2 / (var_x var_y), num / den from the carriers' integers, is
        # scaled by 4^-e before the root, 2^e after. Both variances are
        # positive, so n, m > 1 and all three values are carriers.
        x, y, c = values[2:]
        top, bottom = c * c, x * y
        num, den = top.num * c.base**bottom.exp, bottom.num * c.base**top.exp
        e = (num.bit_length() - den.bit_length()) // 2
        num, den = (num, den << 2 * e) if e >= 0 else (num << -2 * e, den)
        corr = math.copysign(math.ldexp(math.sqrt(num / den), e), cov)
    return MomentSummary(mode, mean_x, mean_y, var_x, var_y, cov, corr)


def default_independence_grid() -> tuple:
    """The 121 rational points {0, 1/10, ..., 1}^2."""
    ticks = [Fraction(i, 10) for i in range(11)]
    return tuple((x, y) for x in ticks for y in ticks)


def independence_gap(params: ModelParams, grid: Sequence[Tuple[Scalar, Scalar]]) -> Fraction:
    """Exact max over the grid of |F(x,y) - F_X(x) F_Y(y)|.

    Zero on a coefficient-determining grid certifies independence of X and Y;
    a positive gap anywhere certifies dependence. The moment table is built
    once and F read off it at every point; F_X is evaluated once per distinct
    x and F_Y once per distinct y.
    """
    if not grid:
        raise ValueError("independence grid must be nonempty")
    table = moment_table(params)
    f_x = {x: eval_marginal_pgf(params, Side.ACTIVE, x) for x in {x for x, _ in grid}}
    f_y = {y: eval_marginal_pgf(params, Side.PASSIVE, y) for y in {y for _, y in grid}}
    return max(abs(table.eval_pgf(x, y) - f_x[x] * f_y[y]) for x, y in grid)


def _check_dims(dist: JointDegreeDistribution, emp: EmpiricalJointDistribution) -> None:
    n, m = dist.params.n, dist.params.m
    if len(emp.counts) != n or any(len(row) != m for row in emp.counts):
        raise ValueError("empirical table dimensions do not match the exact law")


def tv_distance(dist: JointDegreeDistribution, emp: EmpiricalJointDistribution) -> float:
    """Total variation distance between the exact law and empirical frequencies."""
    _check_dims(dist, emp)
    cells = (pair for row, tally in zip(dist.counts, emp.counts) for pair in zip(row, tally))
    total = sum(abs(c * emp.trials - e * dist.scale) for c, e in cells)
    return float(Fraction(total, dist.scale * emp.trials)) / 2.0


def chi_square(
    dist: JointDegreeDistribution, emp: EmpiricalJointDistribution
) -> Tuple[float, int]:
    """Pearson statistic against the exact law, with small-cell pooling.

    Cells with expected count below 5 are merged into one remainder cell
    (dropped when both its expectation and observation are zero); degrees of
    freedom are the remaining cells minus one. Raises ValueError when fewer
    than two cells survive. Expectations are read from the law's integer
    counts over its scale: trials * c < 5 * scale decides the pooling, and
    each kept or pooled expectation is one correctly rounded int/int division.
    """
    _check_dims(dist, emp)
    kept = []
    pooled_expected, pooled_observed = 0, 0  # expectations times dist.scale
    small = 5 * dist.scale
    for row, tally in zip(dist.counts, emp.counts):
        for c, observed in zip(row, tally):
            expected = emp.trials * c
            if expected < small:
                pooled_expected += expected
                pooled_observed += observed
            else:
                kept.append((expected / dist.scale, observed))
    if pooled_expected > 0 or pooled_observed > 0:
        kept.append((pooled_expected / dist.scale, pooled_observed))
    if len(kept) < 2:
        raise ValueError("fewer than 2 cells after pooling; chi-square undefined")
    statistic = 0.0
    for expected, observed in kept:
        if expected == 0.0:  # or below the doubles: inf with observations, else nothing
            statistic += math.inf if observed else 0.0
        else:
            diff = float(observed) - expected
            statistic += diff * diff / expected
    return statistic, len(kept) - 1


def _words(width: int) -> int:
    """uint64 words that hold a line of ``width`` bits, 52 to a word."""
    return -(-width // 52)


def _packed_lines(adj: np.ndarray) -> np.ndarray:
    """Lines along the last axis of 0/1 matrices (count, lines, width), packed.

    Returns uint64 words (lines, words, count): bit j of a line is bit j % 52
    of word j // 52. One float64 matmul against powers of two below 2^52 packs
    them, so every sum is an exact integer. The batch axis goes last, so that
    gathering a line copies one contiguous block.
    """
    import numpy as np
    width = adj.shape[-1]
    bit = np.arange(width)
    weights = np.zeros((width, _words(width)))
    weights[bit, bit // 52] = np.ldexp(1.0, bit % 52)
    return np.ascontiguousarray((adj @ weights).astype(np.uint64).transpose(1, 2, 0))


def _linked_pairs(lines: np.ndarray, pairs: tuple) -> np.ndarray:
    """Per batch entry, how many line pairs (i, i') share a set bit.

    ``lines`` is laid out as ``_packed_lines`` returns it, and ``pairs`` is
    two index arrays, as ``np.triu_indices`` gives them.
    """
    import numpy as np
    first, second = pairs
    shared = lines[first]
    shared &= lines[second]
    return np.count_nonzero(shared.any(axis=1), axis=0)


def edge_count_correlation(params: ModelParams, trials: int, seed: int) -> Optional[float]:
    """Sample correlation between active and passive edge totals.

    Monte Carlo check that the two projections' sizes move together; ROADMAP
    item 4 gives the exact correlation in closed form. Returns None when
    either total is constant across the sample (e.g. p = 0 or p = 1). Per
    trial, each row and each column of the adjacency is packed into 52-bit
    words (``_packed_lines``), and two vertices (objects) are linked iff their
    rows (columns) share a set bit. A batch's largest array, the edge
    counters or a gathered set of line pairs, holds about ``BATCH_BYTES``.
    The lanes of ``run_batches`` write their batches' totals into disjoint
    slices of one pair of arrays, so the result is the same double for any
    ``BATCH_BYTES`` and lane count.
    """
    import numpy as np
    if trials < 2:
        raise ValueError("correlation needs at least 2 trials")
    n, m = params.n, params.m
    vertex_pairs, object_pairs = np.triu_indices(n, 1), np.triu_indices(m, 1)
    words = max(n * m, len(vertex_pairs[0]) * _words(m), len(object_pairs[0]) * _words(n))
    batch_size = batch_trials(8 * words)
    active = np.empty(trials, dtype=np.float64)
    passive = np.empty(trials, dtype=np.float64)

    def totals(batches):
        for start, size in batches:
            adj = _adjacency_batch(params, seed, start, size).astype(np.float64)
            rows, columns = _packed_lines(adj), _packed_lines(adj.transpose(0, 2, 1))
            del adj  # free the batch's largest array before the line pairs are gathered
            active[start : start + size] = _linked_pairs(rows, vertex_pairs)
            passive[start : start + size] = _linked_pairs(columns, object_pairs)

    run_batches(totals, trials, batch_size)
    if active.std() == 0.0 or passive.std() == 0.0:
        return None
    return float(np.corrcoef(active, passive)[0, 1])
