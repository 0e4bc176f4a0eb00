"""Independent brute-force reference implementations.

Everything here enumerates all 2^(n*m) bipartite graphs in plain Python with
exact Fraction weights, except the two ``pgf_from_*`` helpers, which evaluate
a given table term by term, the scalar sampler, which draws one graph edge by
edge, and ``joint_pgf_float_full`` at the end. No closed forms, no sieve, no
numpy elsewhere: these are the oracles the library is checked against, so
they must stay dumb. ``moments_from_falling_moments`` and
``moment_entry_float`` at the end are the exception: the route by which
``stats.moments`` once read the moments off five falling moments, kept as a
cross-check of its closed forms.

``chi_square`` is the Pearson statistic computed from the law's Fraction
pmf, cell by cell; the library reads the integer counts over the scale
instead, and is checked equal to it.

``joint_pgf_float_full`` is the float joint PGF summed over every (k, l, i)
term, with no window. The library's windowed sum is checked against it. It
uses the library's binomial weights and block size, so at points where the
library cuts nothing (its window's budget below the smallest normal double)
the two agree bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from rigjoint.pgf import _L_BLOCK, _binomial_weights, moment_table


def all_graphs(n, m):
    """Yield every adjacency table as a tuple of n row bitmasks over m objects."""
    for code in range(1 << (n * m)):
        yield tuple((code >> (i * m)) & ((1 << m) - 1) for i in range(n))


def graph_weight(rows, n, m, p):
    edges = sum(bin(r).count("1") for r in rows)
    return p**edges * (1 - p) ** (n * m - edges)


def columns(rows, n, m):
    return [sum(((rows[i] >> j) & 1) << i for i in range(n)) for j in range(m)]


def active_deg(rows, v):
    return sum(1 for i in range(len(rows)) if i != v and rows[i] & rows[v])


def passive_deg(rows, n, m, w):
    cols = columns(rows, n, m)
    return sum(1 for j in range(m) if j != w and cols[j] & cols[w])


def joint_law(n, m, p, vertex=0, obj=0):
    """Exact joint degree law as a dict {(x, y): Fraction}."""
    pmf = {}
    for rows in all_graphs(n, m):
        key = (active_deg(rows, vertex), passive_deg(rows, n, m, obj))
        pmf[key] = pmf.get(key, Fraction(0)) + graph_weight(rows, n, m, p)
    return pmf


def marginal_law(n, m, p, active=True):
    law = {}
    for (x, y), w in joint_law(n, m, p).items():
        key = x if active else y
        law[key] = law.get(key, Fraction(0)) + w
    return law


def cond_nonadjacency(n, m, p, k, l, edge):
    """P(vertex 0 avoids vertices 1..k and object 0 avoids objects 1..l,
    conditioned on the (vertex 0, object 0) edge being present/absent)."""
    hit = Fraction(0)
    mass = Fraction(0)
    for rows in all_graphs(n, m):
        if bool(rows[0] & 1) != edge:
            continue
        w = graph_weight(rows, n, m, p)
        mass += w
        cols = columns(rows, n, m)
        avoids_vertices = all(not (rows[0] & rows[i]) for i in range(1, k + 1))
        avoids_objects = all(not (cols[0] & cols[j]) for j in range(1, l + 1))
        if avoids_vertices and avoids_objects:
            hit += w
    return hit / mass


def falling_moment(n, m, p, k, l):
    """E[C(Y1,k) C(Y2,l)] where Y1, Y2 count non-adjacent others."""
    total = Fraction(0)
    for rows in all_graphs(n, m):
        y1 = (n - 1) - active_deg(rows, 0)
        y2 = (m - 1) - passive_deg(rows, n, m, 0)
        total += graph_weight(rows, n, m, p) * math.comb(y1, k) * math.comb(y2, l)
    return total


def law_as_table(law, n, m):
    """Dict law -> dense tuple-of-tuples table matching the library layout."""
    return tuple(tuple(law.get((a, b), Fraction(0)) for b in range(m)) for a in range(n))


def pgf_from_pmf(pmf, x, y):
    """F(x, y) = sum of pmf[a][b] x^a y^b over a dense pmf table."""
    ys = [y**b for b in range(len(pmf[0]))]
    return sum(x**a * sum(prob * yb for prob, yb in zip(row, ys)) for a, row in enumerate(pmf))


def pgf_from_moments(table, x, y):
    """F(x, y) = sum of N[k][l] x^(n-1-k) (1-x)^k y^(m-1-l) (1-y)^l over a dense
    falling-moment table N, the binomial transform that links N to the pmf."""
    n, m = len(table), len(table[0])
    vs = [y ** (m - 1 - l) * (1 - y) ** l for l in range(m)]
    return sum(
        x ** (n - 1 - k) * (1 - x) ** k * sum(e * v for e, v in zip(row, vs))
        for k, row in enumerate(table)
    )


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    """Split-mix finalizer on 64-bit integers."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_seed(seed, index):
    """Seed of trial ``index``: output ``index`` of the split-mix stream over ``seed``."""
    return mix64(seed + (index + 1) * _GAMMA)


def sample_rows(n, m, p, trial_seed):
    """One sampled graph as n row bitmasks over m objects.

    Edge (i, j) is present iff word i*m + j of the trial's split-mix stream
    lies below floor(p * 2^64).
    """
    threshold = (p.numerator << 64) // p.denominator
    return tuple(
        sum(
            1 << j
            for j in range(m)
            if mix64(trial_seed + (i * m + j + 1) * _GAMMA) < threshold
        )
        for i in range(n)
    )


def projection_edge_counts(rows, n, m):
    """Edge counts (active, passive) of the two projections, pair by pair."""
    cols = columns(rows, n, m)
    active = sum(1 for i in range(n) for i2 in range(i + 1, n) if rows[i] & rows[i2])
    passive = sum(1 for j in range(m) for j2 in range(j + 1, m) if cols[j] & cols[j2])
    return active, passive


def chi_square(pmf, counts, trials):
    """(statistic, dof) of observed ``counts`` against the Fraction table ``pmf``.

    Cells with expected count below 5 pool into one remainder cell, dropped
    when its expectation and observation are both zero. An expectation whose
    float is 0.0 adds inf with observations and nothing without. Raises
    ValueError when fewer than two cells remain.
    """
    kept = []
    pooled_expected, pooled_observed = Fraction(0), 0
    for prob_row, count_row in zip(pmf, counts):
        for prob, observed in zip(prob_row, count_row):
            expected = trials * prob
            if expected < 5:
                pooled_expected += expected
                pooled_observed += observed
            else:
                kept.append((float(expected), observed))
    if pooled_expected > 0 or pooled_observed > 0:
        kept.append((float(pooled_expected), pooled_observed))
    if len(kept) < 2:
        raise ValueError("fewer than 2 cells after pooling")
    statistic = 0.0
    for expected, observed in kept:
        if expected == 0.0:
            statistic += math.inf if observed else 0.0
        else:
            diff = float(observed) - expected
            statistic += diff * diff / expected
    return statistic, len(kept) - 1


def joint_pgf_float_full(params, x, y):
    """Float F(x, y): the closed form's triple sum over every k, l and i.

    F = sum_l v_l sum_k g[k,l] (p q^(k+l) + q sum_i w[l,i] base[l,i]^k), with
    g[k,l] = u_k per_object[k]^(m-1-l) per_vertex[l]^(n-1-k), evaluated by
    Horner's rule in k over blocks of l, with l on the shorter side.
    """
    n, m = params.n, params.m
    if m > n:
        n, m, x, y = m, n, y, x
    p = float(params.p)
    q = 1.0 - p
    u = _binomial_weights(x, n - 1, np.arange(n))
    v = _binomial_weights(y, m - 1, np.arange(m))
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


def moment_entry_float(params, k, l):
    """Float N[k][l] from the closed product form, evaluated as written for one cell.

    ``pgf._closed_form`` for the single k, run on (p, 1-p, 1.0) in place of
    the integers (a, b-a, b), with every operation in its order.
    """
    n, m = params.n, params.m
    a = float(params.p)
    c, b = 1.0 - a, 1.0
    bases = [c ** (i + 1) * b ** (l - i) + a * c**l for i in range(l + 1)]
    powers = [math.comb(l, i) * a**i * c ** (l - i) * base**k for i, base in enumerate(bases)]
    lead = a * c ** (k + l) * b ** (k * l)
    per_vertex = c * b**l + a * c**l
    bracket = lead + c * sum(powers)
    per_object = c * b**k + a * c**k
    return (
        math.comb(n - 1, k)
        * math.comb(m - 1, l)
        * per_object ** (m - 1 - l)
        * per_vertex ** (n - 1 - k)
        * bracket
    )


def moments_from_falling_moments(params, exact=True):
    """(mean_x, mean_y, var_x, var_y, cov) from the falling moments N[k][l], k + l <= 2.

    With Y1 = n-1-X and Y2 = m-1-Y, E[Y1] = N[1][0], E[Y1(Y1-1)] = 2 N[2][0]
    and E[Y1 Y2] = N[1][1]; shifting by constants leaves the variances and the
    covariance unchanged. Exact cells are read off ``pgf.moment_table``, float
    cells come from ``moment_entry_float``. In float mode var and cov cancel.
    """
    n, m = params.n, params.m
    table = moment_table(params) if exact else None

    def entry(k, l):
        if k > n - 1 or l > m - 1:  # an empty falling product
            return Fraction(0) if exact else 0.0
        return table.entry(k, l) if exact else moment_entry_float(params, k, l)

    n10, n01 = entry(1, 0), entry(0, 1)
    n20, n02, n11 = entry(2, 0), entry(0, 2), entry(1, 1)
    return (
        (n - 1) - n10,
        (m - 1) - n01,
        2 * n20 + n10 - n10 * n10,
        2 * n02 + n01 - n01 * n01,
        n11 - n10 * n01,
    )
