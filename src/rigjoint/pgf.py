"""Joint degree law of the two one-mode projections of a random bipartite graph.

The model: a vertex set of size n, an object set of size m, and each of the
n*m cross edges present independently with probability p. Projecting onto the
vertex side links two vertices when they share at least one object (the
"active" graph); projecting onto the object side links two objects when they
share at least one vertex (the "passive" graph). X is the degree of a tracked
vertex in the active graph and Y the degree of a tracked object in the
passive graph; this module computes the exact joint law of (X, Y).

The route goes through the non-neighbor counts Y1 = n-1-X and Y2 = m-1-Y.
Their binomial falling moments

    N[k][l] = E[ C(Y1, k) * C(Y2, l) ]

equal a sum over k marked vertices and l marked objects of the probability
that the tracked pair avoids all of them, and that probability splits on
whether the tracked vertex-object edge is present (``*_given_edge`` /
``*_given_nonedge`` below). The split collapses into a closed product form
(``_closed_form``), and the pmf of (Y1, Y2) is recovered from the table by a
signed binomial transform along each axis, i.e. inclusion-exclusion
(``sieve_invert``); reversing indices gives the law of (X, Y). The joint PGF
is F(x, y) = u(x)^T N v(y) with u_k = x^(n-1-k) (1-x)^k and v_l likewise in y.

Exact mode runs in integers. With p = a/b, every table cell is an integer
over the common denominator b^(n*m) (``MomentTable``), the transform only
adds and subtracts those integers, and each probability becomes a Fraction
at the end. The marginal moments (``_marginal_form``) are integers over the
same denominator, and exact PGFs are integer dot products with the basis
u or v. The transform cancels catastrophically in floating point, so there
is no float pmf: float mode covers PGF point evaluation (``eval_joint_pgf``,
``eval_marginal_pgf``) and moments (``moment_entry``).

The float joint PGF sums the closed form's triple sum in numpy without
forming the table (``_eval_joint_float``). Its binomial weights, u(x), v(y)
and the inner Binomial(l, p) law, are built in log space, so no binomial
coefficient overflows at any size; Horner's rule in k runs over blocks of l
at once; and the duality F_{n,m}(x, y) = F_{m,n}(y, x) puts the quadratic
(l, i) triangle on the shorter side. On [0,1]^2 every term is nonnegative,
and the result agrees with exact mode to a relative 1e-9; outside [0,1]^2
the terms alternate in sign and only small sizes stay accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .exact import Mode, Scalar, as_scalar, binom

# l values per block of the float joint PGF. Larger blocks mean fewer Horner
# passes over k, hence fewer numpy calls; smaller ones mean less padding above
# the i <= l triangle and a smaller Horner state, a (_L_BLOCK, l+1) array.
# On one core at 500x500 and 700x700, 64 and 128 ran about equally fast and
# 16 about 1.35 times slower.
_L_BLOCK = 64


class Side(Enum):
    """Which one-mode projection a marginal quantity refers to."""

    ACTIVE = "active"
    PASSIVE = "passive"


@dataclass(frozen=True)
class ModelParams:
    """Parameters (n, m, p) of the random bipartite graph."""

    n: int
    m: int
    p: Fraction

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"n and m must be at least 1, got n={self.n}, m={self.m}")
        if isinstance(self.p, float):
            raise TypeError("p must be exact; pass a Fraction, int, or string like '1/3'")
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


def _basis(t: Fraction, size: int) -> list:
    """Numerators of t^(size-1-k) (1-t)^k, k = 0..size-1, over den(t)^(size-1)."""
    a, b = t.numerator, t.denominator
    return [a ** (size - 1 - k) * (b - a) ** k for k in range(size)]


def _dot(values, basis) -> int:
    """Integer dot product of falling-moment numerators with a basis from ``_basis``."""
    return sum(e * w for e, w in zip(values, basis))


@dataclass(frozen=True)
class MomentTable:
    """Falling moments over one denominator: N[k][l] = numerators[k][l] / scale."""

    params: ModelParams
    scale: int
    numerators: tuple

    def __post_init__(self):
        n, m = self.params.n, self.params.m
        if len(self.numerators) != n or any(len(row) != m for row in self.numerators):
            raise ValueError("moment table dimensions do not match params")
        if self.scale < 1:
            raise ValueError(f"scale must be a positive integer, got {self.scale}")
        if any(e < 0 for row in self.numerators for e in row):
            raise ValueError("moment entries must be nonnegative")
        if self.numerators[0][0] != self.scale:
            raise ValueError(f"entry (0,0) must equal 1, got {self.entry(0, 0)}")

    def entry(self, k: int, l: int) -> Fraction:
        return Fraction(self.numerators[k][l], self.scale)

    def eval_pgf(self, x: Scalar, y: Scalar) -> Fraction:
        """Exact joint PGF F(x, y) = u(x)^T N v(y), summed in integers.

        u_k = x^(n-1-k) (1-x)^k and v_l = y^(m-1-l) (1-y)^l.
        """
        x, y = as_scalar(x, Mode.EXACT), as_scalar(y, Mode.EXACT)
        n, m = self.params.n, self.params.m
        v = _basis(y, m)
        total = _dot((_dot(row, v) for row in self.numerators), _basis(x, n))
        return Fraction(total, self.scale * x.denominator ** (n - 1) * y.denominator ** (m - 1))


@dataclass(frozen=True)
class JointDegreeDistribution:
    """Joint pmf of the degree pair; ``pmf[a][b]`` = P(X=a, Y=b)."""

    params: ModelParams
    pmf: tuple

    def __post_init__(self):
        n, m = self.params.n, self.params.m
        if len(self.pmf) != n or any(len(row) != m for row in self.pmf):
            raise ValueError("pmf dimensions do not match params")
        if any(v < 0 for row in self.pmf for v in row):
            raise ValueError("pmf entries must be nonnegative")
        total = sum(v for row in self.pmf for v in row)
        if total != 1:
            raise ValueError(f"pmf must sum to exactly 1, got {total}")

    def prob(self, a: int, b: int) -> Fraction:
        return self.pmf[a][b]

    def marginal(self, side: Side) -> tuple:
        """Row sums (active side) or column sums (passive side) of the pmf."""
        if side is Side.ACTIVE:
            return tuple(sum(row) for row in self.pmf)
        return tuple(sum(row[b] for row in self.pmf) for b in range(self.params.m))


@dataclass(frozen=True)
class MarginalDistribution:
    """One-dimensional degree law on one side of the projection pair."""

    side: Side
    pmf: tuple

    def __post_init__(self):
        if any(v < 0 for v in self.pmf):
            raise ValueError("pmf entries must be nonnegative")
        total = sum(self.pmf)
        if total != 1:
            raise ValueError(f"pmf must sum to exactly 1, got {total}")


def _check_orders(params: ModelParams, k: int, l: int) -> None:
    if not 0 <= k <= params.n - 1:
        raise ValueError(f"k must lie in [0, {params.n - 1}], got {k}")
    if not 0 <= l <= params.m - 1:
        raise ValueError(f"l must lie in [0, {params.m - 1}], got {l}")


def cond_nonadjacency_given_edge(params: ModelParams, k: int, l: int) -> Fraction:
    """P(tracked pair avoids k marked vertices and l marked objects | edge).

    Conditioned on the tracked vertex-object edge being present. The index i
    runs over the number of vertices attached to the tracked object, j over
    the number of objects attached to the tracked vertex; marked vertices and
    objects must avoid everything attached to the opposite anchor.
    """
    _check_orders(params, k, l)
    n, m = params.n, params.m
    p = params.p
    q = 1 - p
    total = Fraction(0)
    for i in range(1, n - k + 1):
        for j in range(1, m - l + 1):
            total += (
                binom(m - 1 - l, j - 1)
                * binom(n - 1 - k, i - 1)
                * p ** (j - 1)
                * q ** (m - j)
                * q ** ((j - 1) * k)
                * p ** (i - 1)
                * q ** (n - i)
                * q ** ((i - 1) * l)
            )
    return total


def cond_nonadjacency_given_nonedge(params: ModelParams, k: int, l: int) -> Fraction:
    """P(tracked pair avoids k marked vertices and l marked objects | no edge).

    Conditioned on the tracked vertex-object edge being absent, marked
    vertices may now attach to the tracked object (and marked objects to the
    tracked vertex), so attachment counts split into an outside part (i_o,
    j_o) and a marked part (i_s, j_s). Avoidance constraints between the two
    attached sets overlap on i_s*j_s cross pairs, hence the correction in the
    last exponent.
    """
    _check_orders(params, k, l)
    n, m = params.n, params.m
    p = params.p
    q = 1 - p
    total = Fraction(0)
    for i_s in range(k + 1):
        for i_o in range(n - k):
            for j_s in range(l + 1):
                for j_o in range(m - l):
                    total += (
                        binom(m - 1 - l, j_o)
                        * binom(l, j_s)
                        * binom(n - 1 - k, i_o)
                        * binom(k, i_s)
                        * p ** (j_o + j_s)
                        * q ** (m - 1 - j_o - j_s)
                        * p ** (i_o + i_s)
                        * q ** (n - 1 - i_o - i_s)
                        * q ** ((j_o + j_s) * k + (i_o + i_s) * l - i_s * j_s)
                    )
    return total


def _closed_form(n: int, m: int, a, c, b, k: int, l: int):
    """Closed product form of N[k][l] for p = a/b and q = c/b.

    Returns the numerator over b^(n*m - (n-1-k)*(m-1-l)). Exact mode passes
    integers with c = b - a; float mode passes (p, 1-p, 1.0), so the result is
    N[k][l] itself.
    """
    inner = sum(
        binom(l, i) * a**i * c ** (l - i) * (c ** (i + 1) * b ** (l - i) + a * c**l) ** k
        for i in range(l + 1)
    )
    bracket = a * c ** (k + l) * b ** (k * l) + c * inner  # over b^((k+1)(l+1))
    per_object = c * b**k + a * c**k  # one object misses all k marked vertices
    per_vertex = c * b**l + a * c**l
    return (
        binom(n - 1, k)
        * binom(m - 1, l)
        * per_object ** (m - 1 - l)
        * per_vertex ** (n - 1 - k)
        * bracket
    )


def moment_entry(params: ModelParams, k: int, l: int, mode: Mode = Mode.EXACT) -> Scalar:
    """Falling moment N[k][l] = E[C(Y1,k) C(Y2,l)] of the non-neighbor counts."""
    _check_orders(params, k, l)
    n, m = params.n, params.m
    if mode is Mode.FLOAT:
        p = float(params.p)
        return _closed_form(n, m, p, 1.0 - p, 1.0, k, l)
    a, b = params.p.numerator, params.p.denominator
    return Fraction(_closed_form(n, m, a, b - a, b, k, l), b ** (n * m - (n - 1 - k) * (m - 1 - l)))


def moment_table(params: ModelParams) -> MomentTable:
    """Dense table of all falling moments N[k][l], 0 <= k < n, 0 <= l < m.

    Every cell is an integer over den(p)^(n*m).
    """
    n, m = params.n, params.m
    a, b = params.p.numerator, params.p.denominator
    numerators = tuple(
        tuple(
            _closed_form(n, m, a, b - a, b, k, l) * b ** ((n - 1 - k) * (m - 1 - l))
            for l in range(m)
        )
        for k in range(n)
    )
    return MomentTable(params, b ** (n * m), numerators)


def _sieve(values) -> list:
    """c[k] = sum over k' >= k of (-1)^(k'-k) C(k',k) values[k'].

    These are the coefficients of P(z-1) for P(z) = sum values[k] z^k: a Taylor
    shift by -1, done with O(s^2) subtractions and no multiplications.
    """
    c = list(values)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] -= c[j + 1]
    return c


def _reversed_pmf(counts, scale: int) -> tuple:
    """Probabilities counts[s-1-d] / scale for d = 0..s-1; rejects negative counts."""
    if any(c < 0 for c in counts):
        raise ValueError("not a valid falling-moment table (negative probability)")
    return tuple(Fraction(c, scale) for c in reversed(counts))


def sieve_invert(table: MomentTable) -> JointDegreeDistribution:
    """Recover the joint pmf of (X, Y) from the falling-moment table.

    The signed binomial transform along l and then along k gives the pmf of
    the non-neighbor pair (Y1, Y2); reversing both indices gives (X, Y). All
    of it runs over the table's integers, so the result is exact, and any
    negative probability means the table came from no model (ValueError).
    """
    by_l = [_sieve(row) for row in table.numerators]
    counts = zip(*(_sieve(col) for col in zip(*by_l)))
    pmf = tuple(_reversed_pmf(row, table.scale) for row in reversed(list(counts)))
    return JointDegreeDistribution(table.params, pmf)


def joint_pmf(params: ModelParams) -> JointDegreeDistribution:
    """Exact joint pmf of (X, Y): moment table followed by sieve inversion."""
    return sieve_invert(moment_table(params))


def eval_joint_pgf(params: ModelParams, x: Scalar, y: Scalar, mode: Mode = Mode.EXACT) -> Scalar:
    """Evaluate the joint PGF F(x, y) = E[x^X y^Y] at one point.

    Exact mode reads F off the moment table (``MomentTable.eval_pgf``). Float
    mode sums the closed form vectorized (see _eval_joint_float).
    """
    if mode is Mode.FLOAT:
        return _eval_joint_float(params, float(x), float(y))
    return moment_table(params).eval_pgf(x, y)


def _binomial_weights(t: float, top, k) -> np.ndarray:
    """C(top, k) t^(top-k) (1-t)^k, broadcast over integer arrays ``top`` and ``k``.

    Zero where k > top. Built in log space from a log-factorial table, so
    neither the binomial coefficient nor the powers overflow; the sign is put
    back for t outside [0, 1], and t = 0 or 1 gives exact zeros and ones.
    """
    top, k = np.broadcast_arrays(top, k)
    if t == 0.0 or t == 1.0:
        return (k == (top if t == 0.0 else 0)).astype(float)
    j = np.maximum(top - k, 0)
    log_fact = np.array([math.lgamma(v + 1) for v in range(int(max(top.max(), k.max())) + 1)])
    logs = (
        log_fact[top] - log_fact[k] - log_fact[j]
        + j * math.log(abs(t)) + k * math.log(abs(1.0 - t))
    )
    odd = j * (t < 0) + k * (t > 1)
    return np.where(k <= top, np.where(odd % 2, -1.0, 1.0) * np.exp(logs), 0.0)


def _eval_joint_float(params: ModelParams, x: float, y: float) -> float:
    """Float-mode joint PGF: the closed form's triple sum over k, l and i.

    F = sum_l v_l sum_k g[k,l] (p q^(k+l) + q sum_i w[l,i] base[l,i]^k), with
    g[k,l] = u_k per_object[k]^(m-1-l) per_vertex[l]^(n-1-k), the inner
    Binomial(l, p) weights w[l,i] = C(l,i) p^i q^(l-i) and
    base[l,i] = q^(i+1) + p q^l. All three weight vectors come from
    ``_binomial_weights``, so nothing overflows and p = 0 or 1 works. l runs in
    blocks of ``_L_BLOCK``; within a block, Horner's rule in k evaluates the
    polynomial sum_k g[k,l] z^k at every base[l,i], i <= l, at once. By the
    duality F_{n,m}(x, y) = F_{m,n}(y, x) the l side is the shorter one, so
    the cost is about max(n,m) min(n,m)^2 / 2 multiply-adds. On [0,1]^2 every
    term is nonnegative and the result keeps its relative accuracy; outside
    it the terms alternate in sign and can cancel.
    """
    n, m = params.n, params.m
    if m > n:
        n, m, x, y = m, n, y, x
    p = float(params.p)
    q = 1.0 - p
    u = _binomial_weights(x, n - 1, np.arange(n))
    v = _binomial_weights(y, m - 1, np.arange(m))
    # Exact zeros at the top of u and v (x or y equal to 1, or underflow) add
    # nothing, so the sums stop at the last nonzero weight.
    u = u[: np.flatnonzero(u)[-1] + 1]
    v = v[: np.flatnonzero(v)[-1] + 1]
    k = np.arange(len(u))
    q_pow = q**k
    per_object = 1.0 - p + p * q_pow
    total = 0.0
    for start in range(0, len(v), _L_BLOCK):
        l = np.arange(start, min(start + _L_BLOCK, len(v)))
        per_vertex = 1.0 - p + p * q**l
        g = u[:, None] * per_object[:, None] ** (m - 1 - l) * per_vertex ** (n - 1 - k)[:, None]
        i = np.arange(l[-1] + 1)
        base = q ** (i + 1) + p * q**l[:, None]
        acc = np.repeat(g[-1][:, None], len(i), axis=1)
        for row in g[-2::-1]:
            acc *= base
            acc += row[:, None]
        inner = np.sum(_binomial_weights(q, l[:, None], i) * acc, axis=1)
        total += v[l] @ (p * q**l * (q_pow @ g) + q * inner)
    return float(total)


def _marginal_form(size: int, other: int, a, c, b, k: int):
    """Marginal falling moment C(size-1, k) (q + p q^k)^other for p = a/b, q = c/b.

    Returns the numerator over b^(other*(k+1)). Exact mode passes integers with
    c = b - a; float mode passes (p, 1-p, 1.0), so the result is the moment.
    """
    return binom(size - 1, k) * (c * b**k + a * c**k) ** other


def _marginal_moments(size: int, other: int, p: Fraction) -> tuple:
    """Marginal falling moments as integer numerators over den(p)^(n*m), and that scale."""
    a, b = p.numerator, p.denominator
    numerators = [
        _marginal_form(size, other, a, b - a, b, k) * b ** (other * (size - 1 - k))
        for k in range(size)
    ]
    return numerators, b ** (size * other)


def eval_marginal_pgf(
    params: ModelParams, side: Side, t: Scalar, mode: Mode = Mode.EXACT
) -> Scalar:
    """Evaluate the marginal PGF E[t^X] (active) or E[t^Y] (passive).

    F(t) = sum_k t^(s-1-k) (1-t)^k M[k] over the marginal falling moments M,
    with s the side's size. Exact mode reads F off the integer vector that
    ``marginal_pmf`` sieves; float mode sums the same form in floats.
    """
    t = as_scalar(t, mode)
    size, other = (params.n, params.m) if side is Side.ACTIVE else (params.m, params.n)
    if mode is Mode.EXACT:
        numerators, scale = _marginal_moments(size, other, params.p)
        return Fraction(_dot(numerators, _basis(t, size)), scale * t.denominator ** (size - 1))
    p = float(params.p)
    return sum(
        t ** (size - 1 - k) * (1 - t) ** k * _marginal_form(size, other, p, 1.0 - p, 1.0, k)
        for k in range(size)
    )


def marginal_pmf(params: ModelParams, side: Side) -> MarginalDistribution:
    """Degree law on one side, by the one-dimensional sieve.

    The marginal falling moments (``_marginal_form``) are integers over
    den(p)^(n*m) like the joint table. The result equals the row or column
    sums of ``joint_pmf``.
    """
    size, other = (params.n, params.m) if side is Side.ACTIVE else (params.m, params.n)
    numerators, scale = _marginal_moments(size, other, params.p)
    return MarginalDistribution(side, _reversed_pmf(_sieve(numerators), scale))


def recombination_check(params: ModelParams, k: int, l: int) -> tuple:
    """Rebuild N[k][l] from the edge/non-edge conditionals; return (lhs, rhs).

    lhs multiplies the subset count C(n-1,k) C(m-1,l) into the edge-split
    mixture p * P(avoid | edge) + (1-p) * P(avoid | no edge); rhs is the
    closed form. Callers assert lhs == rhs.
    """
    _check_orders(params, k, l)
    p = params.p
    lhs = (
        binom(params.n - 1, k)
        * binom(params.m - 1, l)
        * (
            p * cond_nonadjacency_given_edge(params, k, l)
            + (1 - p) * cond_nonadjacency_given_nonedge(params, k, l)
        )
    )
    return lhs, moment_entry(params, k, l)
