"""Sampling and enumeration of the underlying random bipartite graph.

Monte Carlo trials use a counter-based generator: trial seed i is output i of
a split-mix stream over the master seed, and edge word j of a trial is output
j of a second-level stream over the trial seed. Both levels run through one
copy of the split-mix finalizer, ``_mix64_np``. Every random bit is a pure
function of (master seed, trial index, edge index), so tallies are identical
under any batching or parallel partition of the trial range. An edge is
present when its 64-bit word falls below a fixed-point threshold computed
once from p.

Because any word can be computed on its own, ``empirical_joint`` draws only
the edges the degree pair reads: row 0 and column 0, then the columns of the
objects adjacent to vertex 0 and the rows of the vertices adjacent to object
0. Those are the same words the full adjacency would hold at those cells, so
the tallies equal those of whole sampled graphs. ``_adjacency_batch`` draws
every edge; ``stats.edge_count_correlation`` needs the whole graph.

Both samplers run the trial range in batches sized in bytes, not trials
(``batch_trials``): a batch's largest array holds about ``BATCH_BYTES``
whatever the shape, so its temporaries stay in cache. ``run_batches`` deals
the batches out to parallel lanes, one per available CPU up to ``MAX_LANES``,
run by the calling thread and a ``concurrent.futures.ThreadPoolExecutor``:
lane w runs batches w, w + L, w + 2L, ... numpy's ufuncs, fancy indexing and
``nonzero`` release the GIL, so the lanes overlap. Each lane holds one
batch's temporaries at a time, so memory is about the lane count times one
batch. The tallies are the same for any ``BATCH_BYTES`` and lane count.

``exhaustive_joint`` is the ground-truth oracle: it counts every one of the
2^(n*m) adjacency tables exactly, row by row (a transfer-matrix count), by
degree pair and edge count. Each added row moves only the live states, those
that hold a count, through one step table of 2^w x 4^w index moves, w the
shorter side, so a row's largest arrays hold 2^w entries per live state, not
per state of the grid. It weights each count by p^edges (1-p)^(non-edges) in integers over
den(p)^(n*m), the scale the closed-form route uses too. Two guards make a
miscount raise instead of passing quietly: the counts total 2^(n*m), and
those with e edges total C(n*m, e). It uses no closed form and exists to
validate the closed-form route. ``enumeration_refusal`` bounds it by its
moves per row, 8^w * lines * (n*m + 1), and by n*m <= 62, where the int64
counts still total 2^(n*m) without wrapping.

The samplers and the enumeration are the only users of numpy here; each
function that uses it or ``concurrent.futures`` imports it when called, so
importing this module, as every ``rigjoint`` process does, loads neither.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from .exact import SizeCapError
from .pgf import JointDegreeDistribution, ModelParams

# Bounds of exhaustive_joint, and so of `verify` (``enumeration_refusal``). A row may gather
# 8^w * lines * (n*m + 1) moves at most, with w the shorter side: 2^w per state of the grid, as
# if every state were live. On 2 vCPUs the largest shapes admitted took, in-process, 5x10 0.17 s
# and 52 MB (tracemalloc peak), 4x15 0.06 s and 16 MB, 3x20 0.014 s and 2x31 0.008 s; 6x6,
# the first square refused, 0.22 s and 110 MB. Past 62 cells the int64 counts wrap.
MAX_ENUMERATION_MOVES = 1 << 24
MAX_ENUMERATION_CELLS = 62

# Bytes of the largest array a Monte Carlo batch holds (768 KB). A batch
# holds a few arrays about that size, and this keeps them in a 2 MB L2
# cache. On 2 vCPUs, every benchmark sampler job ran at least as fast with
# it as with 4096 trials per batch, and the 20x20 correlation more than
# twice as fast.
BATCH_BYTES = 3 << 18

# Most lanes (threads) a sampler runs its batches on; fewer when the process
# may use fewer CPUs or the trials fill fewer batches. Each lane holds one
# batch of about BATCH_BYTES, so the cap bounds the extra memory. Only 1 and
# 2 lanes have been measured (on 2 vCPUs): 2 lanes cut the benchmark's
# sampler jobs by about a third.
MAX_LANES = 4

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """Split-mix finalizer on a uint64 array, in place, with one scratch array; returns ``z``."""
    import numpy as np
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _edge_threshold(params: ModelParams) -> int:
    """Edge present iff its 64-bit word is strictly below this threshold."""
    return (params.p.numerator << 64) // params.p.denominator


def sample_words(params: ModelParams) -> float:
    """Expected words ``empirical_joint`` draws per trial: n + m + 2p*n*m."""
    n, m = params.n, params.m
    return n + m + 2 * float(params.p) * n * m


def batch_trials(bytes_per_trial: float) -> int:
    """Trials per batch: as many as fit ``BATCH_BYTES``, and at least one.

    ``bytes_per_trial`` is what one trial adds to the batch's largest array.
    """
    return max(1, int(BATCH_BYTES // bytes_per_trial))


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def run_batches(work: Callable[[Iterator], object], trials: int, batch_size: int) -> list:
    """Run ``work`` once per lane over its share of the batches of [0, trials).

    The batches are (start, count) pairs of ``batch_size`` trials, the last
    one shorter. Lane w of L receives batches w, w + L, w + 2L, ... as an
    iterator; the calling thread runs lane 0 and a ``ThreadPoolExecutor`` the
    others, and every pool thread is joined before this returns or raises.
    Returns the lanes' results in lane order. ``work`` runs on several
    threads at once, so it may write only to its own lane's state or to
    disjoint slices of shared arrays, and must call only private helpers: a
    tracer that wraps public functions is not thread-safe.

    When any lane raises, including on an interrupt in the calling thread,
    the other lanes stop before their next batch. The calling thread's own
    exception is re-raised; failing that, the lowest-numbered failing lane's.
    """
    from concurrent.futures import ThreadPoolExecutor
    starts = range(0, trials, batch_size)
    lanes = min(_cpus(), len(starts), MAX_LANES)
    stop = threading.Event()

    def run(lane):
        try:
            return work((start, min(batch_size, trials - start))
                        for start in starts[lane::lanes] if not stop.is_set())
        except BaseException:  # stop the other lanes, and let the exception through
            stop.set()
            raise

    # the pool refuses 0 workers; it starts a thread only when given a task
    with ThreadPoolExecutor(max(lanes - 1, 1), thread_name_prefix="rigjoint-lane") as pool:
        try:
            futures = [pool.submit(run, lane) for lane in range(1, lanes)]
            return [run(0)] + [future.result() for future in futures]
        finally:  # a no-op once every lane is done; otherwise stops the lanes before the join
            stop.set()


def _trial_seeds(seed: int, start: int, count: int) -> np.ndarray:
    """Seeds of trials [start, start+count): trial i mixes (seed + (i+1)*gamma) mod 2^64."""
    import numpy as np
    first = (seed + (start + 1) * _GAMMA) & _MASK
    return _mix64_np(np.uint64(first) + np.arange(count, dtype=np.uint64) * np.uint64(_GAMMA))


def _edges_present(counters: np.ndarray, threshold: int) -> np.ndarray:
    """Edge indicators for an array of counters trial_seed + (edge_index + 1)*gamma.

    The counters are mixed in place, so the array no longer holds them afterwards.
    """
    import numpy as np
    if threshold > _MASK:
        return np.ones(counters.shape, dtype=bool)
    return _mix64_np(counters) < np.uint64(threshold)


def _adjacency_batch(params: ModelParams, seed: int, start: int, count: int) -> np.ndarray:
    """Adjacency of trials [start, start+count) as a bool array (count, n, m)."""
    import numpy as np
    n, m = params.n, params.m
    offsets = np.arange(1, n * m + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    counters = _trial_seeds(seed, start, count)[:, None] + offsets[None, :]
    return _edges_present(counters, _edge_threshold(params)).reshape(count, n, m)


@dataclass(frozen=True)
class EmpiricalJointDistribution:
    """Monte Carlo tallies of the degree pair; ``counts[x][y]`` over trials."""

    counts: tuple
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if sum(map(sum, self.counts)) != self.trials:
            raise ValueError("counts must sum to trials")


def _unravel(flat: np.ndarray, width: int) -> tuple:
    """(row, column) of flat indices into rows of ``width``; faster than np.divmod."""
    row = flat // width
    return row, flat - row * width


def _degree_batch(params: ModelParams, seed: int, start: int, count: int) -> tuple:
    """Degrees (X, Y) of vertex 0 and object 0 for trials [start, start+count).

    Vertex i >= 1 is an active neighbour of v0 iff row i has an edge in some
    column of N(v0); object j >= 1 is a passive neighbour of o0 iff column j
    has an edge in some row of N(o0).
    """
    import numpy as np
    n, m = params.n, params.m
    threshold = _edge_threshold(params)
    seeds = _trial_seeds(seed, start, count)
    # edge (i, j) has counter trial_seed + (i*m + j + 1)*gamma = trial_seed + row[i] + col[j]
    gamma = np.uint64(_GAMMA)
    row = np.arange(n, dtype=np.uint64) * np.uint64(m) * gamma
    col = np.arange(1, m + 1, dtype=np.uint64) * gamma

    def degree(cells, across):
        # cells[k] + seeds[t] is the counter of cell k of trial t's tracked row
        # or column; across[r] steps from any cell to the cell r+1 places along
        # the line crossing it. Position r+1 is a neighbour in trial t iff
        # some tracked cell and its crossing cell r+1 are both edges.
        present = _edges_present(cells[:, None] + seeds[None, :], threshold)
        cell, trial = _unravel(np.flatnonzero(present), count)
        crossing = _edges_present(across[:, None] + (cells[cell] + seeds[trial])[None, :], threshold)
        pos, hit = _unravel(np.flatnonzero(crossing), len(trial))
        marks = np.zeros((len(across), count), dtype=bool)
        marks.ravel()[pos * count + trial[hit]] = True
        return np.count_nonzero(marks, axis=0)

    x = degree(col, row[1:])
    y = degree(row + col[0], col[1:] - col[0])
    return x, y


def empirical_joint(params: ModelParams, trials: int, seed: int) -> EmpiricalJointDistribution:
    """Tally the degree pair over ``trials`` seeded Monte Carlo realizations.

    Trial i uses seed ``_trial_seeds(seed, i, 1)[0]``, and edge (a, b) of a
    trial is word a*m + b of its stream. A trial draws only the words its
    degree pair reads: row 0, column 0, the columns of the objects in N(v0)
    and the rows of the vertices in N(o0), about n + m + 2p*n*m words instead
    of n*m.
    Each word drawn is the one the full adjacency would hold, so the tallies
    equal those of whole sampled graphs and are the same for any
    ``BATCH_BYTES`` and lane count. A batch's largest array holds about
    ``BATCH_BYTES``: the counters of the cells that cross the tracked
    row's or column's edges, about p*n*m words per trial, or the tracked row
    or column itself. Each lane of ``run_batches`` tallies into its own
    array, and the lanes' tallies are summed.
    """
    import numpy as np
    if trials < 1:
        raise ValueError("trials must be positive")
    n, m = params.n, params.m
    batch_size = batch_trials(8 * max(n, m, float(params.p) * n * m))

    def tally(batches):
        counts = np.zeros(n * m, dtype=np.int64)
        for start, count in batches:
            x, y = _degree_batch(params, seed, start, count)
            np.add.at(counts, x * m + y, 1)  # O(batch), where a bincount is O(n*m)
        return counts

    counts = sum(run_batches(tally, trials, batch_size))
    table = tuple(map(tuple, counts.reshape(n, m).tolist()))
    return EmpiricalJointDistribution(table, trials, seed)


def _add_line(state: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Counts after one more line: line value r moves state i to i + step[r, i mod 4^w].

    Only live states, those holding a count, move; most states of the grid
    are unreachable or already empty, and moving their zeros changes nothing.
    """
    import numpy as np
    live = state.nonzero()[0]
    moves = step[:, live & (step.shape[1] - 1)]
    moves += live
    moved = np.zeros(len(state), dtype=np.int64)
    # tiled, not broadcast: numpy 2.4's add.at adds wrong values when a 1-D
    # value array is broadcast over a 2-D index array
    np.add.at(moved, moves.ravel(), np.tile(state[live], len(step)))
    return moved


def _line_counts(lines: int, width: int) -> np.ndarray:
    """counts[x, y, e] over all tables of ``lines`` lines of ``width`` bits.

    The tracked line is line 0 and the tracked bit is bit 0. x counts the
    other lines that share a set bit with the tracked line, y the bits other
    than bit 0 set in some line that has bit 0 set, and e the set bits.
    """
    import numpy as np
    size, cells = 1 << width, lines * width
    shape = (lines, cells + 1, size, size)  # x, e, tracked line, covered
    # step[r, tracked * size + covered] is how far a state moves in the flat
    # grid when the next line has bits r: x grows by one if the line meets the
    # tracked line, covered takes r's bits if r has bit 0, and e grows by r's
    # bit count. x and e stay in range, as lines - 1 lines are added.
    line, tracked, covered = np.ix_(*[np.arange(size)] * 3)
    step = ((((tracked & line) != 0) * (cells + 1) + np.bitwise_count(line)) * size * size
            + np.where(line & 1, covered | line, covered) - covered).reshape(size, -1)

    values = np.arange(size)
    state = np.zeros(shape, dtype=np.int64)
    state[0, np.bitwise_count(values), values, np.where(values & 1, values, 0)] = 1
    state = state.ravel()
    for _ in range(lines - 1):
        state = _add_line(state, step)

    by_covered = state.reshape(shape).sum(axis=2).transpose(0, 2, 1)
    counts = np.zeros((lines, width, cells + 1), dtype=np.int64)
    np.add.at(counts, (slice(None), np.bitwise_count(values & ~1)), by_covered)
    return counts


def enumeration_refusal(n: int, m: int) -> SizeCapError | None:
    """Why ``exhaustive_joint`` refuses an n x m model, or None where it admits it.

    n*m <= ``MAX_ENUMERATION_CELLS``, checked first so that the shorter side w
    is small, and 8^w * lines * (n*m + 1) <= ``MAX_ENUMERATION_MOVES``, the
    most moves a row can gather.
    """
    cells = n * m
    if cells > MAX_ENUMERATION_CELLS:
        return SizeCapError(f"enumeration needs n*m <= {MAX_ENUMERATION_CELLS}")
    moves = 8 ** min(n, m) * max(n, m) * (cells + 1)
    if moves > MAX_ENUMERATION_MOVES:
        return SizeCapError(
            f"enumeration needs 8^min(n,m) * max(n,m) * (n*m+1) <= {MAX_ENUMERATION_MOVES} "
            f"moves a row, got {moves}"
        )
    return None


def exhaustive_joint(params: ModelParams) -> JointDegreeDistribution:
    """Exact joint law by counting every bipartite graph, row by row.

    A transfer-matrix count (Stanley, Enumerative Combinatorics I, 4.7): the
    tracked line takes each of its values, then the other lines are added one
    at a time over the state (x so far, objects covered through the tracked
    object, edges so far). That gives the number of adjacency tables with
    each degree pair and edge count. Two guards raise ValueError on a
    miscount: the counts must total 2^(n*m), and those with e edges C(n*m, e).
    The weight p^e (1-p)^(nm-e) is folded in integers over den(p)^(n*m).

    Lines are rows. Transposing a table keeps its edge count and swaps
    vertices with objects and X with Y, so when m > n the lines are columns
    and the result is transposed: a line is the shorter side, at most 5 bits
    wide under ``enumeration_refusal``, which raises SizeCapError past it. The
    tracked pair is (vertex 0, object 0); by exchangeability any other pair
    has the same law.
    """
    n, m = params.n, params.m
    nm = n * m
    refusal = enumeration_refusal(n, m)
    if refusal:
        raise refusal

    if m > n:
        counts = _line_counts(m, n).transpose(1, 0, 2)
    else:
        counts = _line_counts(n, m)
    total = int(counts.sum())
    if total != 1 << nm:
        raise ValueError(f"enumeration counted {total} tables, not 2^{nm}")
    for e, tables in enumerate(counts.sum(axis=(0, 1)).tolist()):
        if tables != comb(nm, e):
            raise ValueError(
                f"enumeration counted {tables} tables with {e} edges, not C({nm},{e})"
            )

    a, b = params.p.numerator, params.p.denominator
    weights = [a**e * (b - a) ** (nm - e) for e in range(nm + 1)]
    cells = tuple(
        tuple(sum(c * w for c, w in zip(cell, weights)) for cell in row) for row in counts.tolist()
    )
    return JointDegreeDistribution(params, b**nm, cells)
