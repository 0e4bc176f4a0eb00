"""Sampling and enumeration of the underlying random bipartite graph.

Monte Carlo trials use a counter-based generator: trial seed i is output i of
a split-mix stream over the master seed, and edge word j of a trial is output
j of a second-level stream over the trial seed. Every random bit is a pure
function of (master seed, trial index, edge index), so tallies are identical
under any batching or parallel partition of the trial range. An edge is
present when its 64-bit word falls below a fixed-point threshold computed
once from p.

``exhaustive_joint`` is the ground-truth oracle: it walks all 2^(n*m)
adjacency tables, weighting each by p^edges (1-p)^(non-edges) in exact
rationals. It exists to validate the closed-form route and is capped at
n*m <= 22.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import SizeCapError
from .pgf import JointDegreeDistribution, ModelParams

# Walking all 2^(n*m) graphs stays under a few seconds up to this bound.
ENUMERATION_CAP = 22

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """Split-mix finalizer on 64-bit integers."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def derive_trial_seed(seed: int, index: int) -> int:
    """Seed for trial ``index`` of the stream rooted at the master ``seed``."""
    if index < 0:
        raise ValueError("trial index must be nonnegative")
    return _mix64(seed + (index + 1) * _GAMMA)


def _edge_threshold(p: Fraction) -> int:
    """Edge present iff its 64-bit word is strictly below this threshold."""
    return (p.numerator << 64) // p.denominator


def _adjacency_batch(params: ModelParams, seed: int, start: int, count: int) -> np.ndarray:
    """Adjacency of trials [start, start+count) as a bool array (count, n, m)."""
    n, m = params.n, params.m
    gamma = np.uint64(_GAMMA)
    idx = np.arange(start, start + count, dtype=np.uint64)
    trial_seeds = _mix64_np(np.uint64(seed & _MASK) + (idx + np.uint64(1)) * gamma)
    offsets = np.arange(1, n * m + 1, dtype=np.uint64) * gamma
    words = _mix64_np(trial_seeds[:, None] + offsets[None, :])
    threshold = _edge_threshold(params.p)
    if threshold > _MASK:
        adj = np.ones((count, n * m), dtype=bool)
    else:
        adj = words < np.uint64(threshold)
    return adj.reshape(count, n, m)


@dataclass(frozen=True)
class BipartiteGraph:
    """One realization; ``rows[i]`` is an m-bit mask of vertex i's objects."""

    n: int
    m: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError("row count does not match n")
        if any(not 0 <= r < (1 << self.m) for r in self.rows):
            raise ValueError("row mask exceeds m bits")

    def edge(self, vertex: int, obj: int) -> bool:
        return bool((self.rows[vertex] >> obj) & 1)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def columns(self) -> tuple:
        """n-bit masks per object; the transpose view of ``rows``."""
        return tuple(
            sum(((self.rows[i] >> j) & 1) << i for i in range(self.n)) for j in range(self.m)
        )

    def transpose(self) -> "BipartiteGraph":
        return BipartiteGraph(self.m, self.n, self.columns())


class DegreePair(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class EmpiricalJointDistribution:
    """Monte Carlo tallies of the degree pair; ``counts[x][y]`` over trials."""

    counts: tuple
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if sum(c for row in self.counts for c in row) != self.trials:
            raise ValueError("counts must sum to trials")


def sample_bipartite(params: ModelParams, trial_seed: int) -> BipartiteGraph:
    """Sample one graph; fully determined by ``trial_seed``."""
    n, m = params.n, params.m
    threshold = _edge_threshold(params.p)
    base = trial_seed & _MASK
    rows = []
    for i in range(n):
        bits = 0
        for j in range(m):
            word = _mix64(base + (i * m + j + 1) * _GAMMA)
            if word < threshold:
                bits |= 1 << j
        rows.append(bits)
    return BipartiteGraph(n, m, tuple(rows))


def active_degree(graph: BipartiteGraph, vertex: int) -> int:
    """Number of other vertices sharing at least one object with ``vertex``."""
    if not 0 <= vertex < graph.n:
        raise IndexError(f"vertex {vertex} out of range for n={graph.n}")
    mine = graph.rows[vertex]
    return sum(1 for i in range(graph.n) if i != vertex and graph.rows[i] & mine)


def passive_degree(graph: BipartiteGraph, obj: int) -> int:
    """Number of other objects sharing at least one vertex with ``obj``."""
    if not 0 <= obj < graph.m:
        raise IndexError(f"object {obj} out of range for m={graph.m}")
    cols = graph.columns()
    mine = cols[obj]
    return sum(1 for j in range(graph.m) if j != obj and cols[j] & mine)


def sample_degree_pair(params: ModelParams, trial_seed: int) -> DegreePair:
    """Degree pair of the tracked vertex 0 and object 0 in one sampled graph."""
    graph = sample_bipartite(params, trial_seed)
    return DegreePair(active_degree(graph, 0), passive_degree(graph, 0))


def empirical_joint(
    params: ModelParams, trials: int, seed: int, batch_size: int = 4096
) -> EmpiricalJointDistribution:
    """Tally the degree pair over ``trials`` seeded Monte Carlo realizations.

    Trial i uses ``derive_trial_seed(seed, i)``; the result is identical for
    any ``batch_size`` and matches a plain loop over ``sample_degree_pair``.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    n, m = params.n, params.m
    counts = np.zeros(n * m, dtype=np.int64)
    for start in range(0, trials, batch_size):
        size = min(batch_size, trials - start)
        adj = _adjacency_batch(params, seed, start, size)
        x = (adj[:, 1:, :] & adj[:, :1, :]).any(axis=2).sum(axis=1)
        y = (adj[:, :, 1:] & adj[:, :, :1]).any(axis=1).sum(axis=1)
        counts += np.bincount(x * m + y, minlength=n * m)
    table = tuple(tuple(int(c) for c in counts[i * m : (i + 1) * m]) for i in range(n))
    return EmpiricalJointDistribution(table, trials, seed)


def exhaustive_joint(
    params: ModelParams, vertex: int = 0, obj: int = 0
) -> JointDegreeDistribution:
    """Exact joint law by enumerating every bipartite graph.

    Tallies how many graphs with each edge count produce each degree pair,
    then folds in the exact rational weight p^e (1-p)^(nm-e) per edge count.
    The tracked pair defaults to (vertex 0, object 0); exchangeability makes
    the choice immaterial, and the optional arguments exist to test that.
    """
    n, m = params.n, params.m
    nm = n * m
    if nm > ENUMERATION_CAP:
        raise SizeCapError(f"enumeration needs n*m <= {ENUMERATION_CAP}, got {nm}")
    if not 0 <= vertex < n:
        raise IndexError(f"vertex {vertex} out of range for n={n}")
    if not 0 <= obj < m:
        raise IndexError(f"object {obj} out of range for m={m}")

    row_mask = np.uint64((1 << m) - 1)
    obj_clear = np.uint64(((1 << m) - 1) ^ (1 << obj))
    counts = np.zeros(n * m * (nm + 1), dtype=np.int64)
    batch = 1 << 20
    for lo in range(0, 1 << nm, batch):
        hi = min(lo + batch, 1 << nm)
        codes = np.arange(lo, hi, dtype=np.uint64)
        tracked_row = (codes >> np.uint64(vertex * m)) & row_mask
        x = np.zeros(len(codes), dtype=np.int64)
        covered = np.zeros(len(codes), dtype=np.uint64)
        for i in range(n):
            row_i = (codes >> np.uint64(i * m)) & row_mask
            if i != vertex:
                x += (row_i & tracked_row) != 0
            attached = (row_i >> np.uint64(obj)) & np.uint64(1)
            covered |= row_i * attached
        y = np.bitwise_count(covered & obj_clear).astype(np.int64)
        edges = np.bitwise_count(codes).astype(np.int64)
        counts += np.bincount((x * m + y) * (nm + 1) + edges, minlength=len(counts))

    p, q = params.p, 1 - params.p
    weights = [p**e * q ** (nm - e) for e in range(nm + 1)]
    grid = counts.reshape(n, m, nm + 1)
    pmf = tuple(
        tuple(sum(int(grid[a, b, e]) * weights[e] for e in range(nm + 1)) for b in range(m))
        for a in range(n)
    )
    return JointDegreeDistribution(params, pmf)
