import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigjoint import (
    Mode,
    ModelParams,
    Side,
    cond_nonadjacency_given_edge,
    cond_nonadjacency_given_nonedge,
    eval_joint_pgf,
    exhaustive_joint,
    eval_marginal_pgf,
    joint_pmf,
    marginal_pmf,
    moment_entry,
    moment_table,
    recombination_check,
    sieve_invert,
)
from rigjoint.pgf import MomentTable

from tests import reference

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

P22 = ModelParams(2, 2, HALF)

# Joint law of (2,2,1/2), from enumerating all 16 graphs by hand.
PMF_22 = (
    (Fraction(7, 16), Fraction(1, 8)),
    (Fraction(1, 8), Fraction(5, 16)),
)


@st.composite
def small_models(draw):
    """(n, m, p) with n*m <= 12 and p = i/d for d <= 9, 0 and 1 included."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12 // n))
    den = draw(st.integers(1, 9))
    return n, m, Fraction(draw(st.integers(0, den)), den)


def pmf_as_dict(dist):
    return {
        (a, b): dist.pmf[a][b]
        for a in range(dist.params.n)
        for b in range(dist.params.m)
        if dist.pmf[a][b] != 0
    }


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0, 2, HALF)
        with pytest.raises(ValueError):
            ModelParams(2, 0, HALF)
        with pytest.raises(ValueError):
            ModelParams(2, 2, Fraction(3, 2))
        with pytest.raises(TypeError):
            ModelParams(2, 2, 0.5)

    def test_string_and_int_p_normalize(self):
        assert ModelParams(2, 2, "1/2").p == HALF
        assert ModelParams(2, 2, 1).p == Fraction(1)


class TestConditionals:
    def test_edge_case_pinned(self):
        # 8 graphs containing the tracked edge, each weighted 1/8
        assert cond_nonadjacency_given_edge(P22, 1, 1) == Fraction(1, 4)

    def test_edge_empty_property_sets(self):
        assert cond_nonadjacency_given_edge(P22, 0, 0) == 1
        assert cond_nonadjacency_given_nonedge(P22, 0, 0) == 1

    def test_edge_against_enumeration(self):
        params = ModelParams(3, 2, HALF)
        # 32 graphs containing the tracked edge
        assert cond_nonadjacency_given_edge(params, 1, 0) == Fraction(3, 8)
        assert cond_nonadjacency_given_edge(params, 1, 0) == reference.cond_nonadjacency(
            3, 2, HALF, 1, 0, edge=True
        )

    def test_nonedge_case_pinned(self):
        assert cond_nonadjacency_given_nonedge(P22, 1, 1) == Fraction(5, 8)

    def test_nonedge_against_enumeration(self):
        params = ModelParams(2, 3, THIRD)
        got = cond_nonadjacency_given_nonedge(params, 1, 2)
        assert got == Fraction(164, 243)
        assert got == reference.cond_nonadjacency(2, 3, THIRD, 1, 2, edge=False)

    @pytest.mark.parametrize("n,m,p", [(2, 2, HALF), (3, 2, THIRD), (2, 3, Fraction(2, 5))])
    def test_full_sweep_against_enumeration(self, n, m, p):
        params = ModelParams(n, m, p)
        for k in range(n):
            for l in range(m):
                assert cond_nonadjacency_given_edge(params, k, l) == reference.cond_nonadjacency(
                    n, m, p, k, l, edge=True
                )
                assert cond_nonadjacency_given_nonedge(
                    params, k, l
                ) == reference.cond_nonadjacency(n, m, p, k, l, edge=False)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            cond_nonadjacency_given_edge(P22, 2, 0)
        with pytest.raises(ValueError):
            cond_nonadjacency_given_nonedge(P22, 0, -1)


class TestMomentEntry:
    def test_trivial_order_zero(self):
        assert moment_entry(P22, 0, 0) == 1

    def test_pinned_entries(self):
        assert moment_entry(ModelParams(3, 2, HALF), 1, 0) == Fraction(9, 8)
        assert moment_entry(P22, 1, 1) == Fraction(7, 16)

    def test_first_order_closed_forms(self):
        # N[1][0] = (n-1)(1-p^2)^m and N[0][1] = (m-1)(1-p^2)^n, both
        # pre-validated against the enumeration oracle at small sizes.
        for n, m, p in [(2, 2, HALF), (3, 2, HALF), (2, 3, THIRD)]:
            params = ModelParams(n, m, p)
            if n >= 2:
                expect = (n - 1) * (1 - p * p) ** m
                assert moment_entry(params, 1, 0) == expect
                assert reference.falling_moment(n, m, p, 1, 0) == expect
            if m >= 2:
                expect = (m - 1) * (1 - p * p) ** n
                assert moment_entry(params, 0, 1) == expect
                assert reference.falling_moment(n, m, p, 0, 1) == expect
        for n, m, p in [(12, 17, Fraction(2, 7)), (20, 20, Fraction(9, 10))]:
            params = ModelParams(n, m, p)
            assert moment_entry(params, 1, 0) == (n - 1) * (1 - p * p) ** m
            assert moment_entry(params, 0, 1) == (m - 1) * (1 - p * p) ** n


class TestMomentTable:
    def test_2x2_pinned(self):
        # Off-diagonal entries are (n-1)(1-p^2)^m = 9/16, confirmed by
        # enumeration; N[1][1] = 7/16 equals P(X=0, Y=0) here.
        table = moment_table(P22)
        assert table.scale == 2**4
        assert [[table.entry(k, l) for l in range(2)] for k in range(2)] == [
            [Fraction(1), Fraction(9, 16)],
            [Fraction(9, 16), Fraction(7, 16)],
        ]

    def test_single_cell_model(self):
        for p in [Fraction(0), THIRD, Fraction(1)]:
            assert moment_table(ModelParams(1, 1, p)).entry(0, 0) == 1

    def test_3x3_against_enumerated_falling_moments(self):
        p = Fraction(1, 4)
        table = moment_table(ModelParams(3, 3, p))
        for k in range(3):
            for l in range(3):
                assert table.entry(k, l) == reference.falling_moment(3, 3, p, k, l)

    def test_entries_nonnegative_and_anchored(self):
        for n, m, p in [(4, 6, Fraction(3, 7)), (7, 2, Fraction(1, 9))]:
            table = moment_table(ModelParams(n, m, p))
            assert table.entry(0, 0) == 1
            assert all(table.entry(k, l) >= 0 for k in range(n) for l in range(m))


class TestSieveInvert:
    def test_2x2_pinned(self):
        dist = sieve_invert(moment_table(P22))
        assert dist.pmf == PMF_22

    @pytest.mark.parametrize("n,m", [(2, 3), (4, 2), (3, 3)])
    def test_degenerate_p(self, n, m):
        at_zero = joint_pmf(ModelParams(n, m, Fraction(0)))
        assert at_zero.pmf[0][0] == 1
        at_one = joint_pmf(ModelParams(n, m, Fraction(1)))
        assert at_one.pmf[n - 1][m - 1] == 1

    def test_rejects_inconsistent_table(self):
        # valid-looking entries 1, 1/2, 1/2, 5/8 over den(p)^(n*m) = 16 that
        # are not falling moments of any model
        bad = MomentTable(P22, 16, ((16, 8), (8, 10)))
        with pytest.raises(ValueError):
            sieve_invert(bad)


class TestJointPmf:
    def test_single_object_side(self):
        dist = joint_pmf(ModelParams(2, 1, HALF))
        assert pmf_as_dict(dist) == {(0, 0): Fraction(3, 4), (1, 0): Fraction(1, 4)}

    def test_single_cell(self):
        for p in [Fraction(0), Fraction(4, 7), Fraction(1)]:
            assert joint_pmf(ModelParams(1, 1, p)).pmf == ((Fraction(1),),)

    def test_against_enumeration(self):
        params = ModelParams(3, 2, THIRD)
        expect = reference.law_as_table(reference.joint_law(3, 2, THIRD), 3, 2)
        assert joint_pmf(params).pmf == expect

    @pytest.mark.parametrize(
        "n,m", [(2, 2), (3, 3), (5, 4), (12, 9), (30, 4), (8, 25)]
    )
    @pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(7, 10)])
    def test_normalization_and_nonnegativity(self, n, m, p):
        dist = joint_pmf(ModelParams(n, m, p))
        assert sum(v for row in dist.pmf for v in row) == 1
        assert all(v >= 0 for row in dist.pmf for v in row)

    @pytest.mark.parametrize("n,m", [(2, 5), (4, 4), (7, 3)])
    def test_duality(self, n, m):
        p = Fraction(2, 7)
        fwd = joint_pmf(ModelParams(n, m, p))
        rev = joint_pmf(ModelParams(m, n, p))
        for a in range(n):
            for b in range(m):
                assert fwd.pmf[a][b] == rev.pmf[b][a]


class TestEvalJointPgf:
    def test_normalization_point(self):
        for params in [P22, ModelParams(5, 3, THIRD), ModelParams(1, 4, Fraction(9, 10))]:
            assert eval_joint_pgf(params, 1, 1) == 1

    def test_pinned_values(self):
        assert eval_joint_pgf(P22, 0, 0) == Fraction(7, 16)
        assert eval_joint_pgf(P22, 2, 1) == Fraction(23, 16)

    def test_matches_pmf_polynomial(self):
        rnd = random.Random(7)
        for n, m, p in [(3, 4, Fraction(2, 5)), (5, 2, Fraction(1, 6)), (4, 4, HALF)]:
            params = ModelParams(n, m, p)
            dist = joint_pmf(params)
            for _ in range(10):
                x = Fraction(rnd.randint(-8, 8), rnd.randint(1, 5))
                y = Fraction(rnd.randint(-8, 8), rnd.randint(1, 5))
                poly = sum(
                    dist.pmf[a][b] * x**a * y**b for a in range(n) for b in range(m)
                )
                assert eval_joint_pgf(params, x, y) == poly

    def test_specializes_to_marginals(self):
        rnd = random.Random(11)
        for n, m, p in [(4, 3, Fraction(3, 8)), (2, 6, Fraction(5, 9))]:
            params = ModelParams(n, m, p)
            for _ in range(6):
                t = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
                assert eval_joint_pgf(params, t, 1) == eval_marginal_pgf(
                    params, Side.ACTIVE, t
                )
                assert eval_joint_pgf(params, 1, t) == eval_marginal_pgf(
                    params, Side.PASSIVE, t
                )

    def test_transform_identity_at_nonzero_points(self):
        # Exact F is read off the moment table, so it is checked against routes
        # that bypass the table: the enumerated pmf's polynomial, and the
        # transform of the moments rebuilt from the edge-split conditionals.
        rnd = random.Random(13)
        for n, m, p in [(3, 3, Fraction(2, 3)), (5, 4, Fraction(1, 5)), (2, 7, HALF)]:
            params = ModelParams(n, m, p)
            enumerated = exhaustive_joint(params).pmf
            rebuilt = [
                [recombination_check(params, k, l)[0] for l in range(m)] for k in range(n)
            ]
            for _ in range(8):
                x = Fraction(rnd.choice([-9, -5, -2, -1, 1, 2, 4, 9]), rnd.randint(1, 6))
                y = Fraction(rnd.choice([-7, -3, -1, 1, 3, 8]), rnd.randint(1, 6))
                value = eval_joint_pgf(params, x, y)
                assert value == reference.pgf_from_pmf(joint_pmf(params).pmf, x, y)
                assert value == reference.pgf_from_pmf(enumerated, x, y)
                assert value == reference.pgf_from_moments(rebuilt, x, y)

    def test_float_mode_tracks_exact(self):
        corners = [(0, 0), (0, 1), (1, 0), (1, 1)]
        points = [(HALF, Fraction(5, 4)), (Fraction(9, 10), Fraction(3, 10))] + corners
        outside = [(Fraction(3, 2), -HALF), (-HALF, Fraction(7, 4))]
        grid = [(Fraction(i, 4), Fraction(j, 5)) for i in range(5) for j in range(6)]
        cases = [
            (2, 2, HALF, points + outside),
            (9, 14, Fraction(3, 10), points + outside),
            (14, 9, Fraction(3, 10), points + outside),
            (20, 20, Fraction(1, 7), points),
            (1, 1, THIRD, points + outside),
            (1, 6, Fraction(2, 5), points + outside),
            (6, 1, Fraction(2, 5), points + outside),
            (5, 7, Fraction(0), points + outside),
            (7, 5, Fraction(1), points + outside),
            # Binomial(l, p) weights spread out: the accuracy gate on [0,1]^2.
            (40, 40, HALF, grid),
            (40, 40, Fraction(3, 7), grid),
            # Past n = 1030, where C(n-1, k) no longer fits a float.
            (1100, 3, Fraction(1, 8), corners + grid[7::7]),
            (3, 1100, Fraction(1, 8), corners + grid[7::7]),
        ]
        # Exact F comes from the orientation with n >= m, by the duality
        # F_{n,m}(x, y) = F_{m,n}(y, x): exact mode takes about a minute at 3x1100.
        tables = {}
        for n, m, p, xys in cases:
            params = ModelParams(n, m, p)
            tall = (max(n, m), min(n, m), p)
            if tall not in tables:
                tables[tall] = moment_table(ModelParams(*tall))
            for x, y in xys:
                exact = tables[tall].eval_pgf(x, y) if n >= m else tables[tall].eval_pgf(y, x)
                approx = eval_joint_pgf(params, float(x), float(y), Mode.FLOAT)
                # On [0,1]^2 every term is nonnegative, so the gate is purely
                # relative; outside it the terms cancel.
                inside = 0 <= x <= 1 and 0 <= y <= 1
                assert approx == pytest.approx(float(exact), rel=1e-9, abs=0 if inside else 1e-12)

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(TypeError):
            eval_joint_pgf(P22, 0.5, 0.5)


class TestMarginals:
    def test_pinned_active_law(self):
        assert marginal_pmf(P22, Side.ACTIVE).pmf == (Fraction(9, 16), Fraction(7, 16))

    def test_marginal_pgf_values(self):
        assert eval_marginal_pgf(P22, Side.ACTIVE, 1) == 1
        assert eval_marginal_pgf(P22, Side.PASSIVE, 1) == 1
        assert eval_marginal_pgf(P22, Side.ACTIVE, 0) == Fraction(9, 16)

    def test_square_model_sides_agree(self):
        rnd = random.Random(3)
        params = ModelParams(4, 4, Fraction(2, 9))
        for _ in range(6):
            t = Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
            assert eval_marginal_pgf(params, Side.ACTIVE, t) == eval_marginal_pgf(
                params, Side.PASSIVE, t
            )

    def test_float_mode_tracks_exact(self):
        # On [0, 1] every term is nonnegative, so the gate is purely relative.
        ts = [Fraction(i, 10) for i in range(11)]
        for n, m in [(40, 40), (1, 6), (6, 1), (9, 14), (14, 9)]:
            for p in [Fraction(0), Fraction(1), HALF, Fraction(3, 7), Fraction(1, 100)]:
                params = ModelParams(n, m, p)
                for side in Side:
                    for t in ts:
                        exact = eval_marginal_pgf(params, side, t)
                        approx = eval_marginal_pgf(params, side, float(t), Mode.FLOAT)
                        assert approx == pytest.approx(float(exact), rel=1e-12, abs=0)

    def test_point_mass_at_zero_when_p_zero(self):
        law = marginal_pmf(ModelParams(5, 3, Fraction(0)), Side.ACTIVE)
        assert law.pmf == (1, 0, 0, 0, 0)

    def test_passive_against_enumeration(self):
        got = marginal_pmf(ModelParams(4, 3, HALF), Side.PASSIVE)
        expect = reference.marginal_law(4, 3, HALF, active=False)
        assert list(got.pmf) == [expect.get(b, Fraction(0)) for b in range(3)]

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 5), (6, 4), (10, 7)])
    def test_consistent_with_joint(self, n, m):
        params = ModelParams(n, m, Fraction(4, 5))
        dist = joint_pmf(params)
        assert dist.marginal(Side.ACTIVE) == marginal_pmf(params, Side.ACTIVE).pmf
        assert dist.marginal(Side.PASSIVE) == marginal_pmf(params, Side.PASSIVE).pmf


class TestRecombination:
    def test_pinned(self):
        lhs, rhs = recombination_check(P22, 1, 1)
        assert lhs == rhs == Fraction(7, 16)
        lhs, rhs = recombination_check(P22, 0, 0)
        assert lhs == rhs == 1

    def test_exact_equality_including_enumeration(self):
        params = ModelParams(3, 3, Fraction(2, 3))
        lhs, rhs = recombination_check(params, 2, 1)
        assert lhs == rhs
        assert rhs == reference.falling_moment(3, 3, Fraction(2, 3), 2, 1)

    @pytest.mark.parametrize("n,m,p", [(4, 3, THIRD), (2, 5, Fraction(3, 4))])
    def test_all_orders(self, n, m, p):
        params = ModelParams(n, m, p)
        for k in range(n):
            for l in range(m):
                lhs, rhs = recombination_check(params, k, l)
                assert lhs == rhs


class TestExactPipelineProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_models())
    @example((3, 4, Fraction(0)))
    @example((4, 3, Fraction(1)))
    def test_joint_pmf_equals_enumeration(self, model):
        n, m, p = model
        expect = reference.law_as_table(reference.joint_law(n, m, p), n, m)
        assert joint_pmf(ModelParams(n, m, p)).pmf == expect

    @settings(max_examples=40, deadline=None)
    @given(small_models())
    def test_swapping_sides_transposes(self, model):
        n, m, p = model
        fwd = joint_pmf(ModelParams(n, m, p)).pmf
        rev = joint_pmf(ModelParams(m, n, p)).pmf
        assert tuple(zip(*fwd)) == rev

    @settings(max_examples=40, deadline=None)
    @given(small_models(), st.fractions(-3, 3, max_denominator=7), st.booleans())
    @example((3, 4, Fraction(2, 5)), Fraction(-3, 2), True)
    @example((4, 3, Fraction(2, 5)), Fraction(7, 3), False)
    def test_marginal_pgf_equals_enumerated_polynomial(self, model, t, active):
        n, m, p = model
        law = reference.marginal_law(n, m, p, active=active)
        side = Side.ACTIVE if active else Side.PASSIVE
        assert eval_marginal_pgf(ModelParams(n, m, p), side, t) == sum(
            w * t**d for d, w in law.items()
        )

    @settings(max_examples=40, deadline=None)
    @given(small_models())
    def test_marginals_are_row_and_column_sums(self, model):
        n, m, p = model
        params = ModelParams(n, m, p)
        pmf = joint_pmf(params).pmf
        assert marginal_pmf(params, Side.ACTIVE).pmf == tuple(sum(row) for row in pmf)
        assert marginal_pmf(params, Side.PASSIVE).pmf == tuple(sum(col) for col in zip(*pmf))
