import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rigjoint import (
    EmpiricalJointDistribution,
    JointDegreeDistribution,
    Mode,
    ModelParams,
    Side,
    bipartite,
    chi_square,
    default_independence_grid,
    edge_count_correlation,
    empirical_joint,
    eval_joint_pgf,
    eval_marginal_pgf,
    independence_gap,
    joint_pmf,
    moments,
    stats,
    tv_distance,
)

from tests import reference

HALF = Fraction(1, 2)
P22 = ModelParams(2, 2, HALF)
DEFAULT_BATCH_BYTES = bipartite.BATCH_BYTES


def batch_bytes(params, trials_per_batch):
    """A ``BATCH_BYTES`` at which ``edge_count_correlation`` on ``params`` runs
    ``trials_per_batch`` trials per batch; None gives the default. One trial
    adds 8 words per adjacency cell or per packed word of a line pair."""
    if trials_per_batch is None:
        return DEFAULT_BATCH_BYTES
    n, m = params.n, params.m
    words = max(n * m, n * (n - 1) // 2 * stats._words(m), m * (m - 1) // 2 * stats._words(n))
    return (trials_per_batch + 0.5) * 8 * words


def summary_from_pmf(dist):
    """Recompute the moment summary directly from the joint pmf."""
    n, m = dist.params.n, dist.params.m
    cells = [(a, b, dist.pmf[a][b]) for a in range(n) for b in range(m)]
    ex = sum(a * w for a, b, w in cells)
    ey = sum(b * w for a, b, w in cells)
    exx = sum(a * a * w for a, b, w in cells)
    eyy = sum(b * b * w for a, b, w in cells)
    exy = sum(a * b * w for a, b, w in cells)
    return ex, ey, exx - ex * ex, eyy - ey * ey, exy - ex * ey


class TestMoments:
    def test_pinned_2x2(self):
        s = moments(P22)
        assert s.mean_x == Fraction(7, 16)
        assert s.mean_y == Fraction(7, 16)
        assert s.cov == Fraction(31, 256)
        assert s.var_x == Fraction(63, 256)

    def test_degenerate_p_zero(self):
        s = moments(ModelParams(5, 5, Fraction(0)))
        assert s.mean_x == s.mean_y == s.var_x == s.var_y == s.cov == 0
        assert s.corr is None

    def test_degenerate_p_one(self):
        s = moments(ModelParams(3, 4, Fraction(1)))
        assert (s.mean_x, s.mean_y) == (2, 3)
        assert s.var_x == s.var_y == 0
        assert s.corr is None

    def test_mean_identity(self):
        p = Fraction(1, 3)
        s = moments(ModelParams(5, 7, p))
        assert s.mean_x == 4 * (1 - (1 - p * p) ** 7)
        assert s.mean_x == Fraction(10743268, 4782969)

    @pytest.mark.parametrize("n,m", [(2, 2), (1, 6), (7, 13), (20, 20)])
    @pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(17, 20)])
    def test_mean_identities_general(self, n, m, p):
        s = moments(ModelParams(n, m, p))
        assert s.mean_x == (n - 1) * (1 - (1 - p * p) ** m)
        assert s.mean_y == (m - 1) * (1 - (1 - p * p) ** n)

    @pytest.mark.parametrize(
        "n,m,p",
        [
            (2, 2, HALF),
            (3, 5, Fraction(2, 7)),
            (6, 4, Fraction(4, 5)),
            (10, 10, Fraction(1, 9)),
        ],
    )
    def test_agrees_with_pmf_summation(self, n, m, p):
        params = ModelParams(n, m, p)
        s = moments(params)
        ex, ey, vx, vy, cov = summary_from_pmf(joint_pmf(params))
        assert (s.mean_x, s.mean_y, s.var_x, s.var_y, s.cov) == (ex, ey, vx, vy, cov)

    def test_correlation_bounded(self):
        for n, m, p in [(2, 2, HALF), (4, 9, Fraction(3, 10)), (6, 6, Fraction(9, 10))]:
            s = moments(ModelParams(n, m, p))
            assert s.var_x >= 0 and s.var_y >= 0
            assert s.corr is not None and abs(s.corr) <= 1

    def test_float_mode_tracks_exact(self):
        params = ModelParams(15, 11, Fraction(3, 7))
        se = moments(params)
        sf = moments(params, Mode.FLOAT)
        assert sf.cov == pytest.approx(float(se.cov), rel=1e-9)
        assert sf.corr == pytest.approx(se.corr, rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(0, 1, max_denominator=60),
    )
    def test_closed_forms_equal_the_falling_moment_route(self, n, m, p):
        params = ModelParams(n, m, p)
        s = moments(params)
        fields = (s.mean_x, s.mean_y, s.var_x, s.var_y, s.cov)
        assert fields == reference.moments_from_falling_moments(params)
        assert all(type(value) is Fraction for value in fields)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.fractions(0, 1, max_denominator=1000))
    def test_cov_nonnegative_exact(self, n, m, p):
        assert moments(ModelParams(n, m, p)).cov >= 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 10**150),
        st.integers(1, 10**150),
        st.fractions(0, 1, max_denominator=10**12) | st.fractions(0, 1).map(lambda p: p / 10**300),
    )
    def test_cov_nonnegative_float(self, n, m, p):
        s = moments(ModelParams(n, m, p), Mode.FLOAT)
        assert s.cov >= 0 and s.var_x >= 0 and s.var_y >= 0

    # Float mean, var and cov against exact mode, from the sparse to the dense
    # end; below the normal doubles the rounding is absolute.
    @pytest.mark.parametrize(
        "p",
        [Fraction(1, 10**6), Fraction(1, 1000), Fraction(1, 3), Fraction(9, 10),
         Fraction(999, 1000), 1 - Fraction(1, 10**6)],
        ids=str,
    )
    def test_float_within_1e12_of_exact(self, p):
        sizes = [2, 3, 40, 500, 2000]
        for n in sizes:
            for m in sizes:
                params = ModelParams(n, m, p)
                exact, approx = moments(params), moments(params, Mode.FLOAT)
                for name in ("mean_x", "mean_y", "var_x", "var_y", "cov"):
                    want, got = float(getattr(exact, name)), getattr(approx, name)
                    assert abs(got - want) <= 1e-12 * abs(want) + sys.float_info.min, (n, m, name)

    @pytest.mark.parametrize("n,m", [(2, 3), (5, 2), (40, 40)])
    def test_float_where_1_minus_p_is_below_the_doubles(self, n, m):
        # float(1 - p) is 0.0, so log q comes from the integers of 1 - p
        params = ModelParams(n, m, 1 - Fraction(1, 10**400))
        exact, approx = moments(params), moments(params, Mode.FLOAT)
        for name in ("mean_x", "mean_y", "var_x", "var_y", "cov"):
            assert getattr(approx, name) == float(getattr(exact, name)), name

    @pytest.mark.parametrize("n", [2, 3])
    def test_float_relative_where_1_minus_p_is_subnormal(self, n):
        # q = 1.5e-308 is subnormal, but Var X (3e-308 at n = 2, 9e-308 at n = 3) is a
        # normal double, so the gate is relative: log q comes from the integers of 1 - p
        params = ModelParams(n, 1, 1 - Fraction(3, 2 * 10**308))
        want = float(moments(params).var_x)
        assert want > sys.float_info.min
        assert moments(params, Mode.FLOAT).var_x == pytest.approx(want, rel=1e-12, abs=0)

    def test_float_right_where_falling_moments_cancelled(self):
        params = ModelParams(2000, 2000, Fraction(1, 10**6))
        _, _, var_x, var_y, cov = reference.moments_from_falling_moments(params, exact=False)
        assert cov < 0 and var_x != var_y
        s = moments(params, Mode.FLOAT)
        assert s.cov > 0 and s.var_x == s.var_y
        # the falling moments gave var_x = -3.6e280 here
        s = moments(ModelParams(15 * 10**147, 5, Fraction(0)), Mode.FLOAT)
        assert s.var_x == 0.0

    def test_exact_at_a_side_of_one(self):
        # X = 0, and Y counts the objects linked through the tracked object's vertex
        n, m, p = 1, 10**8, Fraction(1, 3)
        q = 1 - p
        s = moments(ModelParams(n, m, p))
        assert (s.mean_x, s.var_x, s.cov, s.corr) == (0, 0, 0, None)
        assert s.mean_y == (m - 1) * p * p
        assert s.var_y == (m - 1) * p * p * q + (m - 1) ** 2 * p**3 * q


class TestIndependenceGap:
    def test_zero_when_one_side_trivial(self):
        assert independence_gap(ModelParams(1, 5, Fraction(2, 3)), default_independence_grid()) == 0
        assert independence_gap(ModelParams(6, 1, HALF), default_independence_grid()) == 0

    def test_pinned_gap_at_origin(self):
        # F(0,0) - F_X(0) F_Y(0) = 7/16 - (9/16)^2
        assert independence_gap(P22, [(Fraction(0), Fraction(0))]) == Fraction(31, 256)
        grid = default_independence_grid()
        assert independence_gap(P22, grid) >= Fraction(31, 256)

    def test_zero_at_normalization_point(self):
        assert independence_gap(P22, [(Fraction(1), Fraction(1))]) == 0

    @pytest.mark.parametrize("n,m,p", [(2, 2, Fraction(1, 10)), (3, 4, HALF), (5, 2, Fraction(9, 10))])
    def test_positive_for_nondegenerate_models(self, n, m, p):
        assert independence_gap(ModelParams(n, m, p), default_independence_grid()) > 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            independence_gap(P22, [])

    def test_marginal_pgf_once_per_distinct_coordinate(self, monkeypatch):
        params = ModelParams(3, 4, Fraction(2, 5))
        grid = default_independence_grid()
        expect = max(
            abs(
                eval_joint_pgf(params, x, y)
                - eval_marginal_pgf(params, Side.ACTIVE, x)
                * eval_marginal_pgf(params, Side.PASSIVE, y)
            )
            for x, y in grid
        )
        calls = []

        def counted(params, side, t, *args):
            calls.append((side, t))
            return eval_marginal_pgf(params, side, t, *args)

        monkeypatch.setattr(stats, "eval_marginal_pgf", counted)
        assert independence_gap(params, grid) == expect
        assert len(calls) == 22
        assert len(set(calls)) == 22


def emp_from_counts(counts, seed=0):
    trials = sum(c for row in counts for c in row)
    return EmpiricalJointDistribution(tuple(tuple(r) for r in counts), trials, seed)


class TestTvDistance:
    def test_zero_on_matching_frequencies(self):
        # counts exactly proportional to the pmf: 16k trials of (2,2,1/2)
        emp = emp_from_counts([[7000, 2000], [2000, 5000]])
        assert tv_distance(joint_pmf(P22), emp) == 0.0

    def test_disjoint_point_masses(self):
        dist = joint_pmf(ModelParams(2, 2, Fraction(0)))  # mass at (0,0)
        emp = emp_from_counts([[0, 0], [100, 0]])  # mass at (1,0)
        assert tv_distance(dist, emp) == 1.0

    def test_dimension_mismatch(self):
        emp = emp_from_counts([[5, 5, 5], [5, 5, 5]])
        with pytest.raises(ValueError):
            tv_distance(joint_pmf(P22), emp)


class TestChiSquare:
    def test_zero_on_matching_frequencies(self):
        emp = emp_from_counts([[7000, 2000], [2000, 5000]])
        statistic, dof = chi_square(joint_pmf(P22), emp)
        assert statistic == 0.0
        assert dof == 3

    def test_correct_sampler_below_999_quantile(self):
        emp = empirical_joint(P22, trials=100_000, seed=42)
        statistic, dof = chi_square(joint_pmf(P22), emp)
        assert dof == 3
        assert statistic < scipy.stats.chi2.ppf(0.999, dof)

    def test_wrong_model_detected(self):
        # samples from p=1/2 scored against the p=2/5 law
        emp = empirical_joint(P22, trials=100_000, seed=42)
        wrong = joint_pmf(ModelParams(2, 2, Fraction(2, 5)))
        statistic, dof = chi_square(wrong, emp)
        assert statistic > scipy.stats.chi2.ppf(0.999, dof)

    def test_pooling_small_cells(self):
        # 20 trials of (2,2,1/2): expectations 8.75, 2.5, 2.5, 6.25 pool the
        # two middle cells into one remainder, leaving 3 categories
        emp = emp_from_counts([[9, 2], [3, 6]])
        statistic, dof = chi_square(joint_pmf(P22), emp)
        assert dof == 2
        assert statistic > 0

    @pytest.mark.parametrize("counts,expected", [([[100, 0], [0, 0]], 0.0),
                                                 ([[99, 1], [0, 0]], float("inf"))])
    def test_pooled_expectation_below_the_doubles(self, counts, expected):
        # at p = 10^-300 the pooled expectation, about 200 p^2, is a positive
        # Fraction whose float is 0.0
        dist = joint_pmf(ModelParams(2, 2, Fraction(1, 10**300)))
        statistic, dof = chi_square(dist, emp_from_counts(counts))
        assert (statistic, dof) == (expected, 1)

    def test_expectation_of_exactly_five_is_kept(self):
        dist = JointDegreeDistribution(P22, 4, ((1, 1), (1, 1)))
        emp = emp_from_counts([[5, 7], [3, 5]])
        assert chi_square(dist, emp) == reference.chi_square(dist.pmf, emp.counts, 20)
        assert chi_square(dist, emp) == (1.6, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_the_fraction_reference(self, data):
        # random laws and tallies, with expectations on both sides of 5 and
        # pooled ones whose float underflows
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        cell_counts = st.lists(st.integers(0, 10**6), min_size=n * m, max_size=n * m)
        law = data.draw(cell_counts.filter(any))
        scale = sum(law) * 10 ** data.draw(st.sampled_from([0, 0, 1, 400]))
        law[0] += scale - sum(law)
        tallies = data.draw(st.lists(st.integers(0, 40), min_size=n * m, max_size=n * m))
        tallies[0] += 1
        dist = JointDegreeDistribution(
            ModelParams(n, m, HALF), scale, tuple(zip(*[iter(law)] * m))
        )
        emp = emp_from_counts(list(zip(*[iter(tallies)] * m)))
        try:
            expected = reference.chi_square(dist.pmf, emp.counts, emp.trials)
        except ValueError:
            with pytest.raises(ValueError):
                chi_square(dist, emp)
        else:
            assert chi_square(dist, emp) == expected

    def test_single_cell_rejected(self):
        dist = joint_pmf(ModelParams(1, 1, HALF))
        emp = emp_from_counts([[10]])
        with pytest.raises(ValueError):
            chi_square(dist, emp)


class TestEdgeCountCorrelation:
    def test_undefined_when_constant(self):
        assert edge_count_correlation(ModelParams(4, 4, Fraction(1)), 500, seed=3) is None
        assert edge_count_correlation(ModelParams(4, 4, Fraction(0)), 500, seed=3) is None

    def test_positive_at_moderate_density(self):
        r = edge_count_correlation(ModelParams(6, 6, Fraction(3, 10)), 10_000, seed=5)
        assert r is not None and r > 0

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            edge_count_correlation(P22, 1, seed=0)

    # (3, 70) and (70, 3) pack each 70-bit row or column into two 52-bit words
    @pytest.mark.parametrize(
        "n,m,p",
        [(20, 20, Fraction(1, 10)), (7, 3, HALF), (3, 7, Fraction(2, 5)), (1, 4, HALF),
         (4, 4, Fraction(1)), (3, 70, Fraction(1, 5)), (70, 3, Fraction(1, 5))],
    )
    def test_matches_pair_loop_reference(self, monkeypatch, n, m, p):
        trials, seed = 200, 17
        totals = [
            reference.projection_edge_counts(
                reference.sample_rows(n, m, p, reference.trial_seed(seed, t)), n, m
            )
            for t in range(trials)
        ]
        active = np.array([a for a, _ in totals], dtype=np.float64)
        passive = np.array([b for _, b in totals], dtype=np.float64)
        if active.std() == 0.0 or passive.std() == 0.0:
            expect = None
        else:
            expect = float(np.corrcoef(active, passive)[0, 1])
        params = ModelParams(n, m, p)
        for size in (1, 33, None):
            monkeypatch.setattr(bipartite, "BATCH_BYTES", batch_bytes(params, size))
            assert edge_count_correlation(params, trials, seed) == expect, size
        assert (expect is None) == (n == 1 or p == 1)

    def test_pinned_value(self):
        got = edge_count_correlation(ModelParams(20, 20, Fraction(1, 10)), 40_000, seed=901)
        assert got == 0.7370328408714293

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_independent_of_lane_count(self, monkeypatch, lanes):
        # trials=2 at 1 trial per batch has fewer batches than 3 lanes, and
        # the default puts each case in a single batch
        cases = [(ModelParams(7, 3, HALF), 200), (ModelParams(20, 20, Fraction(1, 10)), 600),
                 (ModelParams(4, 4, HALF), 2)]

        def correlation(params, trials, trials_per_batch):
            monkeypatch.setattr(bipartite, "BATCH_BYTES", batch_bytes(params, trials_per_batch))
            return edge_count_correlation(params, trials, 17)

        monkeypatch.setattr(bipartite, "MAX_LANES", 1)
        serial = {
            (params, size): correlation(params, trials, size)
            for params, trials in cases
            for size in (1, 17, None)
        }
        monkeypatch.setattr(bipartite, "MAX_LANES", lanes)
        monkeypatch.setattr(bipartite, "_cpus", lambda: 8)
        for params, trials in cases:
            for size in (1, 17, None):
                assert correlation(params, trials, size) == serial[params, size], (params, size)

    def test_failure_stops_every_lane(self, monkeypatch):
        monkeypatch.setattr(bipartite, "_cpus", lambda: 8)
        monkeypatch.setattr(bipartite, "MAX_LANES", 2)
        original, calls = stats._adjacency_batch, []

        def failing(params, seed, start, count):
            calls.append(start)
            if start == 41:  # the 21st batch of lane 1
                raise RuntimeError("batch failed")
            time.sleep(0.001)  # so that a lane left running would still be alive
            return original(params, seed, start, count)

        monkeypatch.setattr(stats, "_adjacency_batch", failing)
        monkeypatch.setattr(bipartite, "BATCH_BYTES", 1)  # one trial per batch
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="batch failed"):
            edge_count_correlation(ModelParams(4, 4, HALF), 20_000, 3)
        assert threading.active_count() == before
        assert len(calls) < 1000


class TestCovarianceSweepSmall:
    def test_small_models_match_enumeration(self):
        # spot-check the falling-moment covariance against the dumb oracle
        for n, m, p in [(2, 3, Fraction(3, 10)), (3, 3, Fraction(7, 10))]:
            law = reference.joint_law(n, m, p)
            ex = sum(x * w for (x, y), w in law.items())
            ey = sum(y * w for (x, y), w in law.items())
            exy = sum(x * y * w for (x, y), w in law.items())
            assert moments(ModelParams(n, m, p)).cov == exy - ex * ey
