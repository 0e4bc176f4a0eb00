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

Exact mode runs in integers. With p = a/b, every table cell is born an integer
over the common denominator b^(n*m) (``MomentTable``): the closed form emits
each numerator over that one scale, and nothing pads it later. There is one
way to evaluate the form, a column at a time from a first row (k = 0, or
k = l when n = m): along a column only k moves, so the closed form's powers
in k are running products, each term times a fixed step per cell instead of
a fresh big-integer power. At n = m the table is symmetric, so only the
cells with k >= l are built and the rest are mirrored. The
transform only adds and subtracts the table's integers, and a law keeps the
results as integer ``counts`` over that ``scale``, with ``.pmf`` a Fraction
view built on first access. The marginal moments are the closed form's edge
column N[k][0] (column 0 of the transposed model for the passive side), born
over the same denominator; each edge-split conditional sums its terms as one
integer over b^(n*m-1) (``_EdgeSplit``), so ``verify`` compares the edge split
with the table by cross-multiplying integers, and exact PGFs are integer dot
products with the basis u or v. The transform cancels catastrophically in
floating point, so there is no float pmf: float mode here covers PGF point
evaluation (``eval_joint_pgf``, ``eval_marginal_pgf``).

The float joint PGF sums the closed form's triple sum in numpy without
forming the table (``_eval_joint_float``). Its binomial weights, u(x), v(y)
and the inner Binomial(l, p) law, are built in log space, so no binomial
coefficient overflows at any size; Horner's rule in k runs over blocks of l
at once; and the duality F_{n,m}(x, y) = F_{m,n}(y, x) puts the quadratic
(l, i) triangle on the shorter side. It is evaluated on [0,1]^2 only, where
every term is nonnegative; off the square the terms alternate in sign and
cancel, so one domain gate for both float PGFs (``_unit_point``) refuses a
point there with ValueError, and exact mode evaluates it. The sum runs only
over a window of k, l and i: F = sum u_k v_l pi(k, l) with u and v binomial
laws and 0 <= pi <= 1, so the mass each cut drops bounds its error, and each
cut drops at most _CUT_TOLERANCE / 3 = 2^-60 / 3 times a lower bound on F:
the larger of Jensen's x^E[X] y^E[Y] and (1-p)^(n+m-1) <= P(X=0, Y=0). The
cost is then the window's size, about the product of the three tails'
widths, instead of max(n,m) min(n,m)^2 / 2 multiply-adds, and the result
agrees with exact mode to a relative 1e-9 (1e-12 at 40x40 and 60x60).

The float joint PGF is the only route here that uses numpy, and its three
functions import it when called. The exact routes (the table, the sieve,
the laws and the exact PGFs) and the float marginal PGF never load it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import comb

from .exact import Mode, Scalar, as_scalar

# l values per block of the float joint PGF. Larger blocks mean fewer Horner
# passes over k, hence fewer numpy calls; smaller ones mean less padding above
# the i <= min(I, l) triangle and a smaller Horner state, a
# (_L_BLOCK, min(I, l)+1) array. Measured on the full sum (no window): on
# one core at 500x500 and 700x700, 64 and 128 ran about equally fast and
# 16 about 1.35 times slower.
_L_BLOCK = 64

# Largest relative change the float joint PGF's window may make on [0,1]^2:
# the terms it skips weigh at most 2^-60 (about 8.7e-19) times F, far below
# the double rounding of the sum itself. See ``_eval_joint_float``.
_CUT_TOLERANCE = 2.0**-60


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


def _check_counts(counts, scale: int) -> None:
    """The one validation of a law: nonnegative integer counts summing to ``scale``."""
    if any(c < 0 for c in counts):
        raise ValueError("not a valid falling-moment table (negative probability)")
    if sum(counts) != scale:
        raise ValueError("law counts do not sum to their scale (probabilities must sum to 1)")


@dataclass(frozen=True)
class JointDegreeDistribution:
    """Joint law of the degree pair: P(X=a, Y=b) = counts[a][b] / scale."""

    params: ModelParams
    scale: int
    counts: tuple

    def __post_init__(self):
        n, m = self.params.n, self.params.m
        if len(self.counts) != n or any(len(row) != m for row in self.counts):
            raise ValueError("pmf dimensions do not match params")
        _check_counts([c for row in self.counts for c in row], self.scale)

    @cached_property
    def pmf(self) -> tuple:
        """``pmf[a][b]`` = P(X=a, Y=b) as a Fraction."""
        return tuple(tuple(Fraction(c, self.scale) for c in row) for row in self.counts)

    def prob(self, a: int, b: int) -> Fraction:
        return Fraction(self.counts[a][b], self.scale)

    def marginal(self, side: Side) -> tuple:
        """Row sums (active side) or column sums (passive side) of the pmf."""
        lines = self.counts if side is Side.ACTIVE else zip(*self.counts)
        return tuple(Fraction(sum(line), self.scale) for line in lines)


@dataclass(frozen=True)
class MarginalDistribution:
    """Degree law on one side of the projection pair: P(degree d) = counts[d] / scale."""

    side: Side
    scale: int
    counts: tuple

    def __post_init__(self):
        _check_counts(self.counts, self.scale)

    @cached_property
    def pmf(self) -> tuple:
        """``pmf[d]`` = P(degree d) as a Fraction."""
        return tuple(Fraction(c, self.scale) for c in self.counts)


def _check_orders(params: ModelParams, k: int, l: int) -> None:
    if not 0 <= k <= params.n - 1:
        raise ValueError(f"k must lie in [0, {params.n - 1}], got {k}")
    if not 0 <= l <= params.m - 1:
        raise ValueError(f"l must lie in [0, {params.m - 1}], got {l}")


def _powers(base: int, top: int) -> list:
    """base^e for e = 0..top, each one multiplication from the last."""
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * base)
    return powers


class _EdgeSplit:
    """The edge-split conditionals of one model, as integers over powers of b = den(p).

    With p = a/b and c = b - a, a term w p^x (1-p)^y of a conditional is
    w a^x c^y b^(T-x-y) over b^T, T = n*m - 1: the term fixes the state of
    x + y distinct edges other than the tracked one, so x + y <= T, and each
    conditional is one integer over b^T. Every term of both sums has
    x <= n + m - 2 <= x + y, so ``power[x][y]`` = a^x c^y b^(T-x-y) is tabled
    over that range, once per model with the binomial rows, and shared by
    every (k, l): a term costs one product of a big and a small integer. The
    entries left of the range are 0 and never read. Every sum runs term by
    term and shares no formula with ``_closed_form``, so the two stay
    independent routes to N[k][l].
    """

    def __init__(self, params: ModelParams):
        self.n, self.m = params.n, params.m
        self.a, self.b = params.p.numerator, params.p.denominator
        self.top = top = self.n * self.m - 1
        a_pow, c_pow, b_pow = (_powers(base, top) for base in (self.a, self.b - self.a, self.b))
        self.b_pow = b_pow
        least = self.n + self.m - 2
        self.power = [[0] * (least - x) + [a_pow[x] * c_pow[y] * b_pow[top - x - y]
                                           for y in range(least - x, top - x + 1)]
                      for x in range(least + 1)]
        sizes = range(max(self.n, self.m))
        self.rows = [[comb(size, r) for r in range(size + 1)] for size in sizes]

    def edge(self, k: int, l: int) -> int:
        """Numerator of ``cond_nonadjacency_given_edge`` over b^T."""
        n, m, power, rows = self.n, self.m, self.power, self.rows
        objects, vertices = rows[m - 1 - l], rows[n - 1 - k]
        total = 0
        for i in range(1, n - k + 1):
            for j in range(1, m - l + 1):
                x, y = i + j - 2, (m - j) + (j - 1) * k + (n - i) + (i - 1) * l
                total += vertices[i - 1] * objects[j - 1] * power[x][y]
        return total

    def nonedge(self, k: int, l: int) -> int:
        """Numerator of ``cond_nonadjacency_given_nonedge`` over b^T."""
        n, m, power, rows = self.n, self.m, self.power, self.rows
        objects, marked_objects = rows[m - 1 - l], rows[l]
        vertices, marked_vertices = rows[n - 1 - k], rows[k]
        total = 0
        for i_s in range(k + 1):
            for i_o in range(n - k):
                for j_s in range(l + 1):
                    w = marked_vertices[i_s] * vertices[i_o] * marked_objects[j_s]
                    for j_o in range(m - l):
                        x = j_o + j_s + i_o + i_s
                        y = ((m - 1 - j_o - j_s) + (n - 1 - i_o - i_s)
                             + (j_o + j_s) * k + (i_o + i_s) * l - i_s * j_s)
                        total += w * objects[j_o] * power[x][y]
        return total

    def recombined(self, k: int, l: int) -> int:
        """Numerator over b^(T+1) of C(n-1,k) C(m-1,l) (p edge(k, l) + (1-p) nonedge(k, l))."""
        weight = self.rows[self.n - 1][k] * self.rows[self.m - 1][l]
        return weight * (self.a * self.edge(k, l) + (self.b - self.a) * self.nonedge(k, l))


def cond_nonadjacency_given_edge(params: ModelParams, k: int, l: int) -> Fraction:
    """P(tracked pair avoids k marked vertices and l marked objects | edge).

    Conditioned on the tracked vertex-object edge being present. The index i
    runs over the number of vertices attached to the tracked object, j over
    the number of objects attached to the tracked vertex; marked vertices and
    objects must avoid everything attached to the opposite anchor. The sum is
    one integer over den(p)^(n*m-1) (``_EdgeSplit.edge``), reduced once here.
    """
    _check_orders(params, k, l)
    split = _EdgeSplit(params)
    return Fraction(split.edge(k, l), split.b_pow[split.top])


def cond_nonadjacency_given_nonedge(params: ModelParams, k: int, l: int) -> Fraction:
    """P(tracked pair avoids k marked vertices and l marked objects | no edge).

    Conditioned on the tracked vertex-object edge being absent, marked
    vertices may now attach to the tracked object (and marked objects to the
    tracked vertex), so attachment counts split into an outside part (i_o,
    j_o) and a marked part (i_s, j_s). Avoidance constraints between the two
    attached sets overlap on i_s*j_s cross pairs, hence the correction in the
    power of 1-p. The sum is one integer over den(p)^(n*m-1)
    (``_EdgeSplit.nonedge``), reduced once here.
    """
    _check_orders(params, k, l)
    split = _EdgeSplit(params)
    return Fraction(split.nonedge(k, l), split.b_pow[split.top])


def _closed_form(n: int, m: int, p: Fraction, l: int, first: int = 0) -> list:
    """Column l of the closed product form: N[k][l] for k = first..n-1, p = a/b, q = c/b.

    Returns one numerator per k, each over the table's one scale b^(n*m). Along
    the column only k moves: the weighted powers w_i base_i^k and the leading
    term a c^(k+l) b^(kl) start at k = ``first`` with one power each
    (base_i^first, (c b^l)^first) and are carried as running products, times
    base_i and c b^l per step in k; the per-vertex powers are tabled once.
    """
    a, b, c = p.numerator, p.denominator, p.denominator - p.numerator
    bases = [c ** (i + 1) * b ** (l - i) + a * c**l for i in range(l + 1)]
    powers = [comb(l, i) * a**i * c ** (l - i) * base**first for i, base in enumerate(bases)]
    lead_step = c * b**l
    lead = a * c**l * lead_step**first
    # one vertex misses all l marked objects; padded to b^m, so every cell is over b^(n*m)
    per_vertex = (c * b**l + a * c**l) * b ** (m - 1 - l)
    vertex_pow = _powers(per_vertex, n - 1 - first)
    column = []
    for k in range(first, n):
        if k > first:
            powers = [w * base for w, base in zip(powers, bases)]
            lead *= lead_step
        bracket = lead + c * sum(powers)  # over b^((k+1)(l+1))
        per_object = c * b**k + a * c**k  # one object misses all k marked vertices
        column.append(
            comb(n - 1, k)
            * comb(m - 1, l)
            * per_object ** (m - 1 - l)
            * vertex_pow[n - 1 - k]
            * bracket
        )
    return column


def moment_table(params: ModelParams) -> MomentTable:
    """Dense table of all falling moments N[k][l], 0 <= k < n, 0 <= l < m.

    Every cell is born an integer over den(p)^(n*m): ``_closed_form`` emits
    its numerators over that one scale. Its inner sum runs over l, so the
    table is built with n >= m and transposed when m > n, by the duality
    N_{n,m}[k][l] = N_{m,n}[l][k]. It is built a column (one l, every k) per
    ``_closed_form`` call, so the powers in k are running products rather
    than a fresh big-integer power per cell. At n = m the duality makes the
    table symmetric, N[k][l] = N[l][k], so column l is built from k = l only
    and its cells above the diagonal are read from column k.
    """
    rows, cols = max(params.n, params.m), min(params.n, params.m)
    if rows == cols:
        half = [_closed_form(rows, cols, params.p, l, l) for l in range(cols)]
        columns = [[half[k][l - k] for k in range(l)] + half[l] for l in range(cols)]
    else:
        columns = [_closed_form(rows, cols, params.p, l) for l in range(cols)]
    numerators = tuple(map(tuple, columns if params.n < params.m else zip(*columns)))
    return MomentTable(params, params.p.denominator ** (params.n * params.m), numerators)


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


def sieve_invert(table: MomentTable) -> JointDegreeDistribution:
    """Recover the joint pmf of (X, Y) from the falling-moment table.

    The signed binomial transform along l and then along k gives the pmf of
    the non-neighbor pair (Y1, Y2); reversing both indices gives (X, Y). The
    law keeps the resulting integers over the table's scale, so it is exact,
    and any negative count means the table came from no model (ValueError).
    """
    by_l = [_sieve(row) for row in table.numerators]
    by_k = [_sieve(col) for col in zip(*by_l)]
    counts = tuple(row[::-1] for row in zip(*by_k))[::-1]
    return JointDegreeDistribution(table.params, table.scale, counts)


def joint_pmf(params: ModelParams) -> JointDegreeDistribution:
    """Exact joint pmf of (X, Y): moment table followed by sieve inversion."""
    return sieve_invert(moment_table(params))


def eval_joint_pgf(params: ModelParams, x: Scalar, y: Scalar, mode: Mode = Mode.EXACT) -> Scalar:
    """Evaluate the joint PGF F(x, y) = E[x^X y^Y] at one point.

    Exact mode reads F off the moment table (``MomentTable.eval_pgf``). Float
    mode sums the closed form vectorized (see _eval_joint_float), and only on
    [0,1]^2: a point off the square fails ``_unit_point`` with ValueError, and
    exact mode evaluates it.
    """
    if mode is Mode.FLOAT:
        return _eval_joint_float(params, *_unit_point("joint", x, y))
    return moment_table(params).eval_pgf(x, y)


def _unit_point(pgf_name: str, *values) -> tuple:
    """``values`` as doubles, after testing that each, as given, lies in [0, 1] (NaN fails).

    The float PGFs' one domain gate. It tests before float(), so a value past
    the doubles is refused too, and its message never calls str() on a value,
    which fails past 4300 digits: each shows as a double, or by its sign alone.
    """
    if all(0 <= v <= 1 for v in values):
        return tuple(map(float, values))
    shown = [f"{'+' if v > 0 else '-'}(past the doubles)" if abs(v) > sys.float_info.max
             else repr(float(v)) for v in values]
    square, point = ("[0,1]^2", f"({', '.join(shown)})") if len(shown) > 1 else ("[0,1]", shown[0])
    raise ValueError(f"float {pgf_name} PGF is evaluated on {square} only, got {point}; "
                     "use exact mode there")


def _binomial_weights(t: float, top, k) -> np.ndarray:
    """C(top, k) t^(top-k) (1-t)^k for t in [0, 1], broadcast over integer arrays top and k.

    Zero where k > top. Built in log space from a log-factorial table, so
    neither the binomial coefficient nor the powers overflow; t = 0 or 1 gives
    exact zeros and ones.
    """
    import numpy as np
    top, k = np.broadcast_arrays(top, k)
    if t == 0.0 or t == 1.0:
        return (k == (top if t == 0.0 else 0)).astype(float)
    j = np.maximum(top - k, 0)
    log_fact = np.array([math.lgamma(v + 1) for v in range(int(max(top.max(), k.max())) + 1)])
    logs = (
        log_fact[top] - log_fact[k] - log_fact[j]
        + j * math.log(t) + k * math.log(1.0 - t)
    )
    return np.where(k <= top, np.exp(logs), 0.0)


def _window(weights: np.ndarray, budget: float) -> tuple:
    """Index range [lo, hi) outside which nonnegative ``weights`` sum to at most ``budget``.

    Each tail may drop up to budget / 2.
    """
    import numpy as np
    half = budget / 2
    lo = np.count_nonzero(np.cumsum(weights) <= half)
    hi = len(weights) - np.count_nonzero(np.cumsum(weights[::-1]) <= half)
    return lo, hi


def _eval_joint_float(params: ModelParams, x: float, y: float) -> float:
    """Float-mode joint PGF: the closed form's triple sum over k, l and i.

    F = sum_l v_l sum_k g[k,l] (p q^(k+l) + q sum_i w[l,i] base[l,i]^k), with
    g[k,l] = u_k per_object[k]^(m-1-l) per_vertex[l]^(n-1-k), the inner
    Binomial(l, p) weights w[l,i] = C(l,i) p^i q^(l-i) and
    base[l,i] = q^(i+1) + p q^l. All three weight vectors come from
    ``_binomial_weights``, so nothing overflows and p = 0 or 1 works. l runs in
    blocks of ``_L_BLOCK``; within a block, Horner's rule in k evaluates the
    polynomial sum_k g[k,l] z^k at every base[l,i] at once, from k1-1 down to
    k0, and then multiplies by base^k0. By the duality
    F_{n,m}(x, y) = F_{m,n}(y, x) the l side is the shorter one.

    The sum runs only over a window: k in [k0, k1), trimming both
    tails of u = Binomial(n-1, 1-x); l in [l0, l1), likewise for
    v = Binomial(m-1, 1-y); and i <= I. Write F = sum u_k v_l pi(k, l), where
    pi, the probability that the tracked pair avoids k marked vertices and l
    marked objects, lies in [0, 1], and sum u = sum v = 1. So the k cut drops
    at most the u mass outside its window, the l cut the v mass outside its
    window, and the i cut at most the Binomial(l, p) mass above I, which grows
    with l and is taken at l1-1. Each cut drops at most _CUT_TOLERANCE / 3
    times the larger of two lower bounds on F: Jensen's x^E[X] y^E[Y], with
    E[X] = (n-1)(1-(1-p^2)^m), and P(X=0, Y=0) >= (1-p)^(n+m-1), the chance
    that neither the tracked vertex nor the tracked object has an edge. The
    second holds on all of [0,1]^2 and keeps the window where the first is 0
    (x = 0 or y = 0) or underflows. So the result moves by at most
    _CUT_TOLERANCE relative (up to the float rounding of the tail sums). Then
    the cost is the window's size, not the max(n,m) min(n,m)^2 / 2
    multiply-adds of the full sum. Where the tolerance times the bound is
    below the smallest normal double, subnormal weights would make the tail
    sums inexact, so there nothing is cut but exact zeros at the top of u and
    v, and the full sum runs.
    """
    import numpy as np
    n, m = params.n, params.m
    if m > n:
        n, m, x, y = m, n, y, x
    p = float(params.p)
    q = 1.0 - p
    u = _binomial_weights(x, n - 1, np.arange(n))
    v = _binomial_weights(y, m - 1, np.arange(m))
    s = 1.0 - p * p
    jensen = x ** ((n - 1) * (1.0 - s**m)) * y ** ((m - 1) * (1.0 - s**n))
    budget = _CUT_TOLERANCE / 3 * max(jensen, q ** (n + m - 1))
    if budget >= sys.float_info.min:
        k0, k1 = _window(u, budget)
        l0, l1 = _window(v, budget)
        top_i = _window(_binomial_weights(q, l1 - 1, np.arange(l1)), budget)[1] - 1
    else:
        # Exact zeros at the top of u and v (x or y equal to 1, or underflow)
        # add nothing, so the sums stop at the last nonzero weight.
        k0, k1 = 0, np.flatnonzero(u)[-1] + 1
        l0, l1 = 0, np.flatnonzero(v)[-1] + 1
        top_i = l1 - 1
    k = np.arange(k0, k1)
    q_pow = q**k
    per_object = 1.0 - p + p * q_pow
    total = 0.0
    for start in range(l0, l1, _L_BLOCK):
        l = np.arange(start, min(start + _L_BLOCK, l1))
        per_vertex = 1.0 - p + p * q**l
        g = u[k0:k1, None] * per_object[:, None] ** (m - 1 - l) * per_vertex ** (n - 1 - k)[:, None]
        i = np.arange(min(top_i, l[-1]) + 1)
        base = q ** (i + 1) + p * q**l[:, None]
        acc = np.repeat(g[-1][:, None], len(i), axis=1)
        for row in g[-2::-1]:
            acc *= base
            acc += row[:, None]
        if k0:
            acc *= base**k0
        inner = np.sum(_binomial_weights(q, l[:, None], i) * acc, axis=1)
        total += v[l] @ (p * q**l * (q_pow @ g) + q * inner)
    return float(total)


def eval_marginal_pgf(
    params: ModelParams, side: Side, t: Scalar, mode: Mode = Mode.EXACT
) -> Scalar:
    """Evaluate the marginal PGF E[t^X] (active) or E[t^Y] (passive).

    F(t) = sum_k t^(s-1-k) (1-t)^k M[k], with s the side's size and o the
    other's. The marginal falling moments M[k] = C(s-1, k) (q + p q^k)^o are
    the closed form's edge column N[k][0], the column ``marginal_pmf`` sieves.
    Exact mode reads F off that integer column; float mode sums the same form
    in floats, on [0, 1] only: a t off it fails ``_unit_point`` with
    ValueError, and exact mode evaluates it.
    """
    size, other = (params.n, params.m) if side is Side.ACTIVE else (params.m, params.n)
    if mode is Mode.EXACT:
        t = as_scalar(t, Mode.EXACT)
        column = _closed_form(size, other, params.p, 0)
        scale = params.p.denominator ** (size * other) * t.denominator ** (size - 1)
        return Fraction(_dot(column, _basis(t, size)), scale)
    (t,), p = _unit_point("marginal", t), float(params.p)
    q = 1.0 - p
    return sum(
        t ** (size - 1 - k) * (1 - t) ** k * (comb(size - 1, k) * (q + p * q**k) ** other)
        for k in range(size)
    )


def marginal_pmf(params: ModelParams, side: Side) -> MarginalDistribution:
    """Degree law on one side, by the one-dimensional sieve.

    The marginal falling moments are the closed form's edge column, N[k][0]
    for the active side and, by the duality N_{n,m}[k][l] = N_{m,n}[l][k],
    column 0 of the (m, n) model for the passive side: one ``_closed_form``
    call, O(size) cells, never the whole table. They are integers over
    den(p)^(n*m) like the joint table, and the sieve's counts stay over that
    scale. They equal the row or column sums of ``joint_pmf``'s counts.
    """
    size, other = (params.n, params.m) if side is Side.ACTIVE else (params.m, params.n)
    column = _closed_form(size, other, params.p, 0)
    scale = params.p.denominator ** (size * other)
    return MarginalDistribution(side, scale, tuple(_sieve(column))[::-1])


def recombination_check(table: MomentTable, k: int, l: int) -> tuple:
    """Rebuild N[k][l] from the edge/non-edge conditionals; return (lhs, rhs).

    lhs multiplies the subset count C(n-1,k) C(m-1,l) into the edge-split
    mixture p * P(avoid | edge) + (1-p) * P(avoid | no edge), one integer over
    den(p)^(n*m) (``_EdgeSplit.recombined``); rhs is the table's cell
    ``table.entry(k, l)``. Callers assert lhs == rhs.
    """
    params = table.params
    _check_orders(params, k, l)
    split = _EdgeSplit(params)
    return Fraction(split.recombined(k, l), split.b_pow[split.top] * split.b), table.entry(k, l)


def recombination_mismatches(table: MomentTable):
    """Yield (k, l, lhs, rhs) for each cell where the edge split disagrees with the table.

    The sweep of ``recombination_check`` over every (k, l), in integers: the
    powers and binomial rows are built once, and each lhs, an integer over
    den(p)^(n*m), is compared with the table's numerator over ``table.scale``
    by cross-multiplication. Fractions are built only for a mismatch.
    """
    split = _EdgeSplit(table.params)
    scale = split.b_pow[split.top] * split.b
    for k, row in enumerate(table.numerators):
        for l, numerator in enumerate(row):
            lhs = split.recombined(k, l)
            if lhs * table.scale != numerator * scale:
                yield k, l, Fraction(lhs, scale), table.entry(k, l)
