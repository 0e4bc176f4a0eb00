import math
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from rigjoint import (
    EmpiricalJointDistribution,
    ModelParams,
    SizeCapError,
    empirical_joint,
    exhaustive_joint,
    joint_pmf,
    tv_distance,
)
from rigjoint import bipartite
from rigjoint.bipartite import _adjacency_batch

from tests import reference

HALF = Fraction(1, 2)
P22 = ModelParams(2, 2, HALF)
DEFAULT_BATCH_BYTES = bipartite.BATCH_BYTES


def batch_bytes(params, trials_per_batch):
    """A ``BATCH_BYTES`` at which ``empirical_joint`` on ``params`` runs
    ``trials_per_batch`` trials per batch; None gives the default. One trial
    adds 8 max(n, m, p n m) bytes to a batch's largest array."""
    if trials_per_batch is None:
        return DEFAULT_BATCH_BYTES
    n, m = params.n, params.m
    return (trials_per_batch + 0.5) * 8 * max(n, m, float(params.p) * n * m)


class TestDegrees:
    def test_empty_graph(self):
        rows = (0, 0, 0, 0)
        assert reference.active_deg(rows, 0) == 0
        assert reference.passive_deg(rows, 4, 3, 2) == 0

    def test_full_graph(self):
        rows = (0b11111,) * 4
        assert reference.active_deg(rows, 2) == 3
        assert reference.passive_deg(rows, 4, 5, 0) == 4

    def test_small_examples(self):
        # rows {w1}, {w1}, {w2}: vertex 0 shares w1 with vertex 1 only
        assert reference.active_deg((0b01, 0b01, 0b10), 0) == 1
        # columns {v1}, {v1,v2}, {v3}: object 0 shares v1 with object 1 only
        assert reference.passive_deg((0b011, 0b010, 0b100), 3, 3, 0) == 1

    def test_projection_symmetry(self):
        n, m = 4, 3
        for seed in range(30):
            rows = reference.sample_rows(n, m, Fraction(2, 5), seed)
            cols = reference.columns(rows, n, m)
            for i in range(n):
                assert reference.active_deg(rows, i) == reference.passive_deg(cols, m, n, i)
            for j in range(m):
                assert reference.passive_deg(rows, n, m, j) == reference.active_deg(cols, j)


class TestSampler:
    def test_degenerate_probabilities(self):
        assert reference.sample_rows(3, 4, Fraction(0), 99) == (0, 0, 0)
        assert reference.sample_rows(3, 4, Fraction(1), 99) == (0b1111,) * 3

    def test_deterministic_in_trial_seed(self):
        third = Fraction(1, 3)
        assert reference.sample_rows(5, 5, third, 1234) == reference.sample_rows(5, 5, third, 1234)
        assert reference.sample_rows(5, 5, third, 1234) != reference.sample_rows(5, 5, third, 1235)

    def test_mean_edge_count(self):
        params = ModelParams(10, 10, Fraction(1, 5))
        trials = 100_000
        total = 0
        for start in range(0, trials, 8192):
            size = min(8192, trials - start)
            adj = _adjacency_batch(params, 7, start, size)
            total += int(adj.sum())
        mean = total / trials
        se = math.sqrt(100 * 0.2 * 0.8 / trials)
        assert abs(mean - 20.0) < 3 * se

    def test_degree_pair_degenerate(self):
        empty = reference.sample_rows(4, 6, Fraction(0), 5)
        assert (reference.active_deg(empty, 0), reference.passive_deg(empty, 4, 6, 0)) == (0, 0)
        full = reference.sample_rows(3, 4, Fraction(1), 5)
        assert (reference.active_deg(full, 0), reference.passive_deg(full, 3, 4, 0)) == (2, 3)

    def test_bipartite_degree_is_binomial(self):
        # chi-square fit of deg(vertex 0) in the bipartite graph against
        # Bin(m, p), at significance 1e-3
        params = ModelParams(10, 10, Fraction(1, 5))
        trials = 100_000
        deg_counts = np.zeros(11, dtype=np.int64)
        for start in range(0, trials, 8192):
            size = min(8192, trials - start)
            adj = _adjacency_batch(params, 42, start, size)
            deg_counts += np.bincount(adj[:, 0, :].sum(axis=1), minlength=11)
        expected = np.array(
            [float(math.comb(10, k)) * 0.2**k * 0.8 ** (10 - k) * trials for k in range(11)]
        )
        keep = expected >= 5
        statistic = float(((deg_counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        pool_e, pool_o = expected[~keep].sum(), deg_counts[~keep].sum()
        statistic += (pool_o - pool_e) ** 2 / pool_e
        dof = int(keep.sum())  # kept cells + pooled cell - 1
        assert statistic < scipy.stats.chi2.ppf(1 - 1e-3, dof)


class TestTrialSeeds:
    def test_matches_the_reference_mixer(self):
        # negative seeds and indices past 2^64 wrap modulo 2^64, as in the reference
        rng = random.Random(7)
        cases = [(0, 0), (-1, 0), (11, 399), (-(2**70), 5), (3, 2**64), (2**64 - 1, 2**66 + 9)]
        cases += [(rng.randrange(-(2**80), 2**80), rng.randrange(2**70)) for _ in range(200)]
        for seed, index in cases:
            got = int(bipartite._trial_seeds(seed, index, 1)[0])
            assert got == reference.trial_seed(seed, index), (seed, index)


class TestEmpiricalJoint:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            empirical_joint(P22, 0, seed=0)

    @pytest.mark.parametrize(
        "counts, trials, message",
        [(((0, 0), (0, 0)), 0, "positive"), (((1, 2), (0, 0)), 4, "sum")],
    )
    def test_distribution_rejects_invalid_tallies(self, counts, trials, message):
        with pytest.raises(ValueError, match=message):
            EmpiricalJointDistribution(counts, trials, seed=0)

    def test_point_mass_at_p_zero(self):
        emp = empirical_joint(ModelParams(3, 3, Fraction(0)), trials=100, seed=1)
        assert emp.counts[0][0] == 100
        assert sum(c for row in emp.counts for c in row) == 100

    def test_bit_identical_across_runs(self):
        params = ModelParams(4, 5, Fraction(2, 7))
        a = empirical_joint(params, trials=2000, seed=42)
        b = empirical_joint(params, trials=2000, seed=42)
        assert a == b

    def test_independent_of_batch_partition(self, monkeypatch):
        params = ModelParams(3, 4, Fraction(1, 3))
        tallies = []
        for trials_per_batch in (1, 17, None):  # None: all 500 trials in one batch
            monkeypatch.setattr(bipartite, "BATCH_BYTES", batch_bytes(params, trials_per_batch))
            assert bipartite.batch_trials(32) == (trials_per_batch or DEFAULT_BATCH_BYTES // 32)
            tallies.append(empirical_joint(params, trials=500, seed=9).counts)
        assert tallies[0] == tallies[1] == tallies[2]

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_independent_of_lane_count(self, monkeypatch, lanes):
        # _cpus is raised so that 3 lanes run even on fewer CPUs; a short
        # switch interval makes the lanes interleave often
        cases = [
            (ModelParams(3, 4, Fraction(1, 3)), 500),
            (ModelParams(12, 9, Fraction(2, 5)), 300),
            (ModelParams(5, 5, HALF), 2),  # fewer batches than 3 lanes at 1 trial per batch
        ]

        def sample(params, trials, trials_per_batch):
            monkeypatch.setattr(bipartite, "BATCH_BYTES", batch_bytes(params, trials_per_batch))
            return empirical_joint(params, trials, 9)

        serial = {}
        monkeypatch.setattr(bipartite, "MAX_LANES", 1)
        for params, trials in cases:
            for size in (1, 17, None):  # None: a single batch for all cases
                serial[params, size] = sample(params, trials, size)
        monkeypatch.setattr(bipartite, "MAX_LANES", lanes)
        monkeypatch.setattr(bipartite, "_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for params, trials in cases:
                for size in (1, 17, None):
                    assert sample(params, trials, size) == serial[params, size], (params, size)
        finally:
            sys.setswitchinterval(interval)

    def test_matches_scalar_sampling_path(self, monkeypatch):
        # the lean sampler draws only the words the degree pair reads; its
        # tallies must equal those of whole graphs, drawn edge by edge by the
        # reference sampler and in one batch by _adjacency_batch
        trials, seed = 400, 11
        shapes = [(1, 1), (1, 6), (6, 1), (7, 3), (3, 7), (12, 9), (3, 3)]
        probabilities = [Fraction(0), Fraction(1), HALF, Fraction(2, 5)]
        for n, m in shapes:
            for p in probabilities:
                params = ModelParams(n, m, p)
                scalar = [[0] * m for _ in range(n)]
                for t in range(trials):
                    rows = reference.sample_rows(n, m, p, reference.trial_seed(seed, t))
                    a, b = reference.active_deg(rows, 0), reference.passive_deg(rows, n, m, 0)
                    scalar[a][b] += 1
                adj = _adjacency_batch(params, seed, 0, trials)
                x = (adj[:, 1:, :] & adj[:, :1, :]).any(axis=2).sum(axis=1)
                y = (adj[:, :, 1:] & adj[:, :, :1]).any(axis=1).sum(axis=1)
                dense = np.bincount(x * m + y, minlength=n * m).reshape(n, m)
                expect = tuple(tuple(row) for row in scalar)
                assert tuple(tuple(int(c) for c in row) for row in dense) == expect
                for size in (1, 17, None):
                    monkeypatch.setattr(bipartite, "BATCH_BYTES", batch_bytes(params, size))
                    emp = empirical_joint(params, trials, seed)
                    assert emp.counts == expect, (n, m, p, size)

    def test_cell_frequency_concentrates(self):
        emp = empirical_joint(P22, trials=100_000, seed=42)
        freq = emp.counts[1][1] / emp.trials
        se = math.sqrt(float(Fraction(5, 16) * Fraction(11, 16)) / emp.trials)
        assert abs(freq - 5 / 16) < 3 * se

    def test_tv_to_exact_law(self):
        emp = empirical_joint(P22, trials=100_000, seed=42)
        assert tv_distance(joint_pmf(P22), emp) < 0.01


class TestRunBatches:
    def test_lanes_take_strided_batches(self, monkeypatch):
        monkeypatch.setattr(bipartite, "_cpus", lambda: 8)
        monkeypatch.setattr(bipartite, "MAX_LANES", 2)
        assert bipartite.run_batches(list, 10, 3) == [[(0, 3), (6, 3)], [(3, 3), (9, 1)]]
        monkeypatch.setattr(bipartite, "MAX_LANES", 3)
        assert bipartite.run_batches(list, 10, 3) == [[(0, 3), (9, 1)], [(3, 3)], [(6, 3)]]
        # never more lanes than batches or CPUs
        assert bipartite.run_batches(list, 5, 3) == [[(0, 3)], [(3, 2)]]
        monkeypatch.setattr(bipartite, "_cpus", lambda: 1)
        assert bipartite.run_batches(list, 10, 3) == [[(0, 3), (3, 3), (6, 3), (9, 1)]]

    def test_lane_0_runs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(bipartite, "_cpus", lambda: 8)
        monkeypatch.setattr(bipartite, "MAX_LANES", 2)
        before = threading.active_count()
        lanes = bipartite.run_batches(lambda batches: (threading.get_ident(), list(batches)), 4, 1)
        assert lanes[0] == (threading.get_ident(), [(0, 1), (2, 1)])
        assert lanes[1][0] != threading.get_ident() and lanes[1][1] == [(1, 1), (3, 1)]
        assert threading.active_count() == before

    @pytest.mark.parametrize("error, failing_lane", [(RuntimeError, 1), (KeyboardInterrupt, 0)])
    def test_failure_stops_every_lane(self, monkeypatch, error, failing_lane):
        # a batch of one lane raises; the error leaves empirical_joint, the
        # other lane stops before its next batch, and no thread is left
        monkeypatch.setattr(bipartite, "_cpus", lambda: 8)
        monkeypatch.setattr(bipartite, "MAX_LANES", 2)
        original, calls = bipartite._degree_batch, []

        def failing(params, seed, start, count):
            calls.append(start)
            if start == 40 + failing_lane:  # the 21st batch of the failing lane
                raise error("batch failed")
            time.sleep(0.001)  # so that a lane left running would still be alive
            return original(params, seed, start, count)

        monkeypatch.setattr(bipartite, "_degree_batch", failing)
        monkeypatch.setattr(bipartite, "BATCH_BYTES", 1)  # one trial per batch
        before = threading.active_count()
        with pytest.raises(error, match="batch failed"):
            empirical_joint(ModelParams(4, 4, HALF), 20_000, 3)
        assert threading.active_count() == before
        assert len(calls) < 1000


class TestExhaustiveJoint:
    def test_pinned_2x2(self):
        dist = exhaustive_joint(P22)
        assert dist.pmf == (
            (Fraction(7, 16), Fraction(1, 8)),
            (Fraction(1, 8), Fraction(5, 16)),
        )

    def test_pinned_2x1(self):
        dist = exhaustive_joint(ModelParams(2, 1, HALF))
        assert dist.pmf == ((Fraction(3, 4),), (Fraction(1, 4),))

    def test_single_cell(self):
        assert exhaustive_joint(ModelParams(1, 1, Fraction(3, 7))).pmf == ((Fraction(1),),)

    @pytest.mark.parametrize(
        "n,m",
        [
            (1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (1, 4),
            (1, 5), (5, 1), (2, 5), (5, 2), (3, 4), (4, 3),
        ],
    )
    @pytest.mark.parametrize("p", [Fraction(1, 3), HALF, Fraction(0), Fraction(1)])
    def test_matches_pure_python_enumeration(self, n, m, p):
        got = exhaustive_joint(ModelParams(n, m, p))
        expect = reference.law_as_table(reference.joint_law(n, m, p), n, m)
        assert got.pmf == expect

    @pytest.mark.parametrize("n,m", [(3, 3), (2, 4), (4, 2), (2, 5), (5, 2)])
    def test_exchangeable_in_tracked_pair(self, n, m):
        # exhaustive_joint tracks (vertex 0, object 0); every other pair has its law
        p = Fraction(2, 5)
        base = exhaustive_joint(ModelParams(n, m, p)).pmf
        for vertex in range(n):
            for obj in range(m):
                law = reference.joint_law(n, m, p, vertex, obj)
                assert reference.law_as_table(law, n, m) == base

    def test_size_cap(self):
        # 6x6 would gather 8^6 * 6 * 37 moves a row; 2x32 has more than 62 cells
        with pytest.raises(SizeCapError, match="moves a row"):
            exhaustive_joint(ModelParams(6, 6, HALF))
        with pytest.raises(SizeCapError, match="n\\*m <= 62"):
            exhaustive_joint(ModelParams(2, 32, HALF))

    def test_memory_peak(self):
        # a row holds 2^w moves per live state, never 2^w per state of the grid
        tracemalloc.start()
        try:
            exhaustive_joint(ModelParams(5, 4, Fraction(2, 5)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak

    @pytest.mark.parametrize(
        "wrong_line, guard",
        [
            # forgets the line with every bit set: too few tables
            (lambda step: step[:-1], "tables, not 2"),
            # counts the line with bit 0 alone as the empty line: right total,
            # wrong edge counts
            (lambda step: step[[0, 0, *range(2, len(step))]], "edges, not C"),
        ],
    )
    @pytest.mark.parametrize("n,m", [(3, 2), (2, 3)])
    def test_counting_guards(self, monkeypatch, wrong_line, guard, n, m):
        # each added line moves the states by one row of the step table per line value
        original = bipartite._add_line
        monkeypatch.setattr(
            bipartite, "_add_line", lambda state, step: original(state, wrong_line(step))
        )
        with pytest.raises(ValueError, match=guard):
            exhaustive_joint(ModelParams(n, m, HALF))

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (4, 4), (2, 8)])
    @pytest.mark.parametrize("p", [Fraction(1, 4), HALF, Fraction(2, 3)])
    def test_formula_route_agrees(self, n, m, p):
        params = ModelParams(n, m, p)
        formula, oracle = joint_pmf(params), exhaustive_joint(params)
        assert formula.pmf == oracle.pmf
        assert formula.scale == oracle.scale == p.denominator ** (n * m)
        assert formula.counts == oracle.counts
