import hashlib
import math
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
    moment_table,
    recombination_check,
    sieve_invert,
)
from rigjoint import pgf
from rigjoint.pgf import JointDegreeDistribution, MarginalDistribution, MomentTable

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


class TestTableEntries:
    def test_trivial_order_zero(self):
        assert moment_table(P22).entry(0, 0) == 1

    def test_pinned_entries(self):
        assert moment_table(ModelParams(3, 2, HALF)).entry(1, 0) == Fraction(9, 8)
        assert moment_table(P22).entry(1, 1) == Fraction(7, 16)

    def test_first_order_closed_forms(self):
        # N[1][0] = (n-1)(1-p^2)^m and N[0][1] = (m-1)(1-p^2)^n, both
        # pre-validated against the enumeration oracle at small sizes.
        for n, m, p in [(2, 2, HALF), (3, 2, HALF), (2, 3, THIRD)]:
            table = moment_table(ModelParams(n, m, p))
            if n >= 2:
                expect = (n - 1) * (1 - p * p) ** m
                assert table.entry(1, 0) == expect
                assert reference.falling_moment(n, m, p, 1, 0) == expect
            if m >= 2:
                expect = (m - 1) * (1 - p * p) ** n
                assert table.entry(0, 1) == expect
                assert reference.falling_moment(n, m, p, 0, 1) == expect
        for n, m, p in [(12, 17, Fraction(2, 7)), (20, 20, Fraction(9, 10))]:
            table = moment_table(ModelParams(n, m, p))
            assert table.entry(1, 0) == (n - 1) * (1 - p * p) ** m
            assert table.entry(0, 1) == (m - 1) * (1 - p * p) ** n

    # float.hex() of float N[k][l] at (1,0), (0,1), (2,0), (0,2), (1,1), pinned
    # from the one-entry expressions as they stood before the table moved to
    # running products in k. The float closed form now lives only in
    # tests/reference.py, as the cross-check of stats.moments, and keeps every bit.
    @pytest.mark.parametrize(
        "n,m,p,expected",
        [
            (50, 60, Fraction(1, 50),
             ["0x1.7eb3c0cebe115p+5", "0x1.cea6e467e1c3ap+5", "0x1.1859c07e77c44p+10",
              "0x1.9b22ba572f326p+10", "0x1.59d3aef4cac30p+11"]),
            (500, 500, Fraction(1, 5),
             ["0x1.6e16d710f0b6dp-21", "0x1.6e16d710f0b6dp-21", "0x1.03cc9847141a8p-37",
              "0x1.03cc9847141a9p-37", "0x1.0c3fb49fa2cdep-41"]),
            (2000, 2000, HALF,
             ["0x1.da6f27aea82e6p-820", "0x1.da6f27aea82e6p-820", "0x0.0p+0",
              "0x0.0p+0", "0x0.0p+0"]),
        ],
        ids=["50x60", "500x500", "2000x2000"],
    )
    def test_float_entries_keep_their_bits(self, n, m, p, expected):
        params = ModelParams(n, m, p)
        orders = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
        assert [reference.moment_entry_float(params, k, l).hex() for k, l in orders] == expected


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

    # sha256 of the numerators, comma-joined row by row, at 40x17, 17x40 and
    # 40x40, pinned when each cell was still formed over its own power of
    # den(p) and padded to den(p)^(n*m) afterwards.
    @pytest.mark.parametrize(
        "p, digests",
        [
            (Fraction(0),
             ["5761eb56405bd2539c7ea356d9abbdeee01060f96978ecaa157a965984a224dd",
              "815dac6d6002fa642da48180e893e6b0b3190ec08643127b8f960ce421f8c5dc",
              "7133e9ad898274af02371aae811f60a41e27eabecd600f38b7fe8e99cf81af7e"]),
            (Fraction(1),
             ["21fa1bf6c4916b1b7561c7c9bdbdadee0c7b05f739a7eccf2958c4d6c8f1552a",
              "21fa1bf6c4916b1b7561c7c9bdbdadee0c7b05f739a7eccf2958c4d6c8f1552a",
              "7c74f19265d3bab6d6845537969d8d021767fc7b8246d881a16c161030fcb734"]),
            (HALF,
             ["698b856012107f4587bbf580c6ba6bbe5590d70e9e768719e1d4d4552ee05976",
              "047d76832f46f668d4299abcb3bd438ee06a58f9a8860ecf573b77cefdedcca6",
              "f15d85b53e2c2ee848b4fec082b8cd53c3f2037f35ff83fcc18809365ded142f"]),
            (Fraction(3, 7),
             ["96ef292b45e7fc7ef417fcdaf964fca4fde44deac6df4c07c8bc6db9a35cb044",
              "492ebb1a02a6c1436502e995bacceb99c8b14e567a3be7ed269a701595f598b2",
              "392e5ee63c1441d97da333028b751201adf593d0ad3ec4e29b6c62e83f9a712d"]),
            (Fraction(5, 12),
             ["01571b2101b4ea2d451d2c4ecc6809b6065d88882fdf629ab0ef9b2759e3c451",
              "0d9ba2df5f8891dedbff69aa856de4eee6650d6ce75f704c3688ac2554a0a610",
              "75b7d522b70984d481eef12ba2742cfa2b6f107e99c648111ff5c7c32fbe4da9"]),
        ],
        ids=["0", "1", "1/2", "3/7", "5/12"],
    )
    def test_numerators_keep_their_digests(self, p, digests):
        got = []
        for n, m in [(40, 17), (17, 40), (40, 40)]:
            table = moment_table(ModelParams(n, m, p))
            assert table.scale == p.denominator ** (n * m)
            text = ",".join(str(e) for row in table.numerators for e in row)
            got.append(hashlib.sha256(text.encode()).hexdigest())
        assert got == digests


    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(1, 1000), Fraction(3, 7),
                                   HALF, Fraction(999, 1000)])
    def test_square_table_equals_the_unmirrored_build(self, p):
        # at n = m the table builds only k >= l and mirrors the rest
        for n in range(1, 13):
            full = [pgf._closed_form(n, n, p, l) for l in range(n)]
            assert moment_table(ModelParams(n, n, p)).numerators == tuple(zip(*full))

    @pytest.mark.parametrize("n, m", [(1, 1), (5, 5), (7, 3), (3, 7), (12, 9)])
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(1, 1000), Fraction(3, 7)])
    def test_closed_form_from_any_first_row(self, n, m, p):
        for l in range(m):
            column = pgf._closed_form(n, m, p, l)
            for first in range(n):
                assert pgf._closed_form(n, m, p, l, first) == column[first:]


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


class TestLawContainers:
    def test_integer_counts_over_one_scale(self):
        dist = joint_pmf(P22)
        assert (dist.scale, dist.counts) == (16, ((7, 2), (2, 5)))
        assert dist.pmf == PMF_22 and dist.pmf is dist.pmf
        assert dist.prob(1, 1) == Fraction(5, 16)
        assert dist.marginal(Side.PASSIVE) == (Fraction(9, 16), Fraction(7, 16))
        law = marginal_pmf(P22, Side.ACTIVE)
        assert (law.scale, law.counts) == (16, (9, 7))
        assert law.pmf == (Fraction(9, 16), Fraction(7, 16))

    @pytest.mark.parametrize(
        "counts, message",
        [
            (((9, -2), (2, 7)), "negative"),  # sums to 16
            (((7, 2), (3, 5)), "sum"),
            (((7, 2), (2, 4)), "sum"),
            (((7, 2, 0), (2, 5, 0)), "dimensions"),
            (((16,),), "dimensions"),
            (((7, 2), (2, 5), (0, 0)), "dimensions"),
        ],
    )
    def test_joint_rejects_invalid_counts(self, counts, message):
        with pytest.raises(ValueError, match=message):
            JointDegreeDistribution(P22, 16, counts)

    @pytest.mark.parametrize(
        "counts, message",
        [((17, -1), "negative"), ((9, 8), "sum"), ((9, 6), "sum")],
    )
    def test_marginal_rejects_invalid_counts(self, counts, message):
        with pytest.raises(ValueError, match=message):
            MarginalDistribution(Side.ACTIVE, 16, counts)

    @pytest.mark.parametrize(
        "scale, numerators, message",
        [
            (16, ((16, 9),), "dimensions"),
            (16, ((16, 9, 0), (9, 7, 0)), "dimensions"),
            (0, ((0, 0), (0, 0)), "scale"),
            (16, ((16, -1), (9, 7)), "nonnegative"),
            (16, ((15, 9), (9, 7)), r"entry \(0,0\) must equal 1, got 15/16"),
        ],
    )
    def test_moment_table_rejects_invalid_numerators(self, scale, numerators, message):
        with pytest.raises(ValueError, match=message):
            MomentTable(P22, scale, numerators)


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
            table = moment_table(params)
            rebuilt = [[recombination_check(table, k, l)[0] for l in range(m)] for k in range(n)]
            for _ in range(8):
                x = Fraction(rnd.choice([-9, -5, -2, -1, 1, 2, 4, 9]), rnd.randint(1, 6))
                y = Fraction(rnd.choice([-7, -3, -1, 1, 3, 8]), rnd.randint(1, 6))
                value = eval_joint_pgf(params, x, y)
                assert value == reference.pgf_from_pmf(joint_pmf(params).pmf, x, y)
                assert value == reference.pgf_from_pmf(enumerated, x, y)
                assert value == reference.pgf_from_moments(rebuilt, x, y)

    def test_float_mode_tracks_exact(self):
        corners = [(0, 0), (0, 1), (1, 0), (1, 1)]
        points = [(HALF, Fraction(4, 5)), (Fraction(9, 10), Fraction(3, 10))] + corners
        grid = [(Fraction(i, 4), Fraction(j, 5)) for i in range(5) for j in range(6)]
        cases = [
            (2, 2, HALF, points),
            (9, 14, Fraction(3, 10), points),
            (14, 9, Fraction(3, 10), points),
            (20, 20, Fraction(1, 7), points),
            (1, 1, THIRD, points),
            (1, 6, Fraction(2, 5), points),
            (6, 1, Fraction(2, 5), points),
            (5, 7, Fraction(0), points),
            (7, 5, Fraction(1), points),
            # Binomial(l, p) weights spread out: the accuracy gate on [0,1]^2.
            (40, 40, HALF, grid),
            # Past n = 1030, where C(n-1, k) no longer fits a float.
            (1100, 3, Fraction(1, 8), corners + grid[7::7]),
            (3, 1100, Fraction(1, 8), corners + grid[7::7]),
        ]
        for n, m, p, xys in cases:
            params = ModelParams(n, m, p)
            table = moment_table(params)
            for x, y in xys:
                exact = table.eval_pgf(x, y)
                approx = eval_joint_pgf(params, float(x), float(y), Mode.FLOAT)
                # On [0,1]^2 every term is nonnegative, so the gate is purely relative.
                assert approx == pytest.approx(float(exact), rel=1e-9, abs=0)

    # On [0,1]^2 the float joint PGF sums only a window of its (k, l, i) terms,
    # dropping at most 2^-60 of F; reference.joint_pgf_float_full sums them all.
    # 60x60 runs at one p: its exact table takes 0.4 s at p=3/7 and 1.6 s at
    # p=1/100 on one core.
    @pytest.mark.parametrize(
        "n, p",
        [(40, Fraction(1, 100)), (40, Fraction(3, 7)), (40, Fraction(9, 10)), (60, Fraction(3, 7))],
    )
    def test_float_window_tracks_exact(self, n, p):
        params = ModelParams(n, n, p)
        table = moment_table(params)
        ticks = [Fraction(i, 4) for i in range(5)]
        for x in ticks:
            for y in ticks:
                approx = eval_joint_pgf(params, float(x), float(y), Mode.FLOAT)
                assert approx == pytest.approx(float(table.eval_pgf(x, y)), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "n, x, y", [(500, 0.2, 0.95), (500, 0.65, 0.8), (500, 0.95, 0.2), (700, 0.2, 0.95)]
    )
    def test_float_window_tracks_full_sum(self, n, x, y):
        params = ModelParams(n, n, Fraction(1, 100))
        full = reference.joint_pgf_float_full(params, x, y)
        assert eval_joint_pgf(params, x, y, Mode.FLOAT) == pytest.approx(full, rel=1e-13, abs=0)

    def test_float_off_square_is_refused(self):
        # Off [0,1]^2 the terms alternate in sign and cancel: at 40x40, p=3/7,
        # (3/2, -1/2) the float sum was 3.3e-4 relative off the exact value.
        points = [(1.5, -0.5), (-0.5, 1.75), (0.5, 1.25), (-0.25, 0.5), (2.0, 0.9),
                  (0.3, -1.0), (Fraction(3, 2), -HALF), (-HALF, Fraction(7, 4)),
                  (1.0 + 2.0**-52, 0.5), (0.5, -(2.0**-1074)), (math.nan, 0.5), (0.5, math.inf),
                  # past the doubles: refused before float() could overflow
                  (10**400, 0.5), (0.5, -(10**400)), (Fraction(10**400, 3), HALF),
                  # past the int-to-str limit: the message must not call str() on them
                  (10**5000, 0.5), (0.5, -(10**5000))]
        for n, m, p in [(40, 40, Fraction(3, 7)), (9, 14, Fraction(3, 10)),
                        (14, 9, Fraction(3, 10)), (25, 70, Fraction(1, 100)), (1, 1, THIRD),
                        (5, 7, Fraction(0)), (7, 5, Fraction(1))]:
            params = ModelParams(n, m, p)
            for x, y in points:
                with pytest.raises(ValueError, match=r"\[0,1\]\^2 only.*exact mode"):
                    eval_joint_pgf(params, x, y, Mode.FLOAT)
        # exact mode still evaluates a point past the doubles
        assert eval_joint_pgf(ModelParams(4, 5, THIRD), 10**400, HALF) > 0

    def test_float_refusal_shows_the_point_as_doubles(self):
        # a value past the doubles shows by its sign alone, never by str()
        cases = [
            (lambda: eval_joint_pgf(P22, Fraction(3, 2), -(10**5000), Mode.FLOAT),
             "float joint PGF is evaluated on [0,1]^2 only, got (1.5, -(past the doubles)); "
             "use exact mode there"),
            (lambda: eval_marginal_pgf(P22, Side.PASSIVE, 10**5000, Mode.FLOAT),
             "float marginal PGF is evaluated on [0,1] only, got +(past the doubles); "
             "use exact mode there"),
            (lambda: eval_marginal_pgf(P22, Side.ACTIVE, math.nan, Mode.FLOAT),
             "float marginal PGF is evaluated on [0,1] only, got nan; use exact mode there"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message

    def test_float_window_edge_cases(self):
        edges = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                 (0.0, 0.3), (0.3, 0.0), (1.0, 0.3), (0.3, 1.0)]
        for p in [Fraction(0), Fraction(1), Fraction(1, 100), Fraction(3, 7)]:
            for n, m in [(60, 45), (45, 60)]:
                params = ModelParams(n, m, p)
                for x, y in edges:
                    full = reference.joint_pgf_float_full(params, x, y)
                    approx = eval_joint_pgf(params, x, y, Mode.FLOAT)
                    assert approx == pytest.approx(full, rel=1e-13, abs=0)
        # Jensen's bound x^E[X] y^E[Y] underflows here (E[X] = E[Y] is about
        # 172, and 1e-3^172 is below the smallest double) although F is about
        # 7.5e-17; (1-p)^(n+m-1), about 5.5e-19, keeps the window, and the
        # sum still rounds to the full one.
        params = ModelParams(200, 200, Fraction(1, 10))
        value = eval_joint_pgf(params, 1e-3, 0.9, Mode.FLOAT)
        assert value > 0 and value == reference.joint_pgf_float_full(params, 1e-3, 0.9)

    def test_float_window_kept_where_jensen_bound_is_zero(self):
        # x = 0 makes Jensen's bound 0; F >= P(X=0, Y=0) >= (1-p)^(n+m-1), about
        # 7.9e-7 here, keeps the window (criterion 11 times this point)
        params = ModelParams(700, 700, Fraction(1, 100))
        full = reference.joint_pgf_float_full(params, 0.0, 0.7)
        assert eval_joint_pgf(params, 0.0, 0.7, Mode.FLOAT) == pytest.approx(full, rel=1e-13, abs=0)

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

    def test_float_off_unit_interval_is_refused(self):
        # Off [0, 1] the terms alternate in sign and cancel: at 40x40, p=3/7, t=-1/2
        # the float sum was 1.880705e-10 against 1.881150e-10, and at 300x300,
        # p=1/10, t=3/2 it was -5.6e61 against 1.9e51.
        points = [-0.5, 1.5, -HALF, Fraction(3, 2), 1.0 + 2.0**-52, -(2.0**-1074),
                  math.nan, math.inf, -math.inf, 10**400, -(10**400), Fraction(10**400, 3),
                  10**5000, -(10**5000)]
        for n, m, p in [(40, 40, Fraction(3, 7)), (300, 300, Fraction(1, 10)),
                        (1, 6, HALF), (6, 1, Fraction(0)), (7, 5, Fraction(1))]:
            for side in Side:
                for t in points:
                    with pytest.raises(ValueError, match=r"\[0,1\] only.*exact mode"):
                        eval_marginal_pgf(ModelParams(n, m, p), side, t, Mode.FLOAT)
        # exact mode still evaluates those points
        assert eval_marginal_pgf(ModelParams(40, 40, Fraction(3, 7)), Side.ACTIVE, -HALF) > 0
        assert eval_marginal_pgf(ModelParams(4, 5, THIRD), Side.ACTIVE, 10**400) > 0

    def test_point_mass_at_zero_when_p_zero(self):
        law = marginal_pmf(ModelParams(5, 3, Fraction(0)), Side.ACTIVE)
        assert law.pmf == (1, 0, 0, 0, 0)

    def test_passive_against_enumeration(self):
        got = marginal_pmf(ModelParams(4, 3, HALF), Side.PASSIVE)
        expect = reference.marginal_law(4, 3, HALF, active=False)
        assert list(got.pmf) == [expect.get(b, Fraction(0)) for b in range(3)]

    # `pmf`'s up-front digit bound (cli._exact_law_refusal) rests on this:
    # P(X=0) for n >= 2, and P(Y=0) for m >= 2, keep the whole scale den(p)^(n*m)
    # as their reduced denominator.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.fractions(0, 1, max_denominator=60))
    def test_zero_degree_keeps_the_whole_scale(self, n, m, p):
        params = ModelParams(n, m, p)
        for side, size in ((Side.ACTIVE, n), (Side.PASSIVE, m)):
            if size >= 2 and p.denominator >= 2:
                assert marginal_pmf(params, side).pmf[0].denominator == p.denominator ** (n * m)

    def test_never_builds_the_table(self, monkeypatch):
        # A marginal is one column of the closed form, O(size) cells; building
        # the n x m table to read that column would pass every other test.
        def refuse(params):
            raise AssertionError("moment_table called for a marginal")

        monkeypatch.setattr(pgf, "moment_table", refuse)
        for n, m in [(3, 4), (4, 3), (1, 5), (6, 2)]:
            params = ModelParams(n, m, Fraction(2, 7))
            for side, active in ((Side.ACTIVE, True), (Side.PASSIVE, False)):
                law = reference.marginal_law(n, m, params.p, active=active)
                assert marginal_pmf(params, side).pmf == tuple(
                    law.get(d, 0) for d in range(n if active else m)
                )
                assert eval_marginal_pgf(params, side, -THIRD) == sum(
                    w * (-THIRD) ** d for d, w in law.items()
                )

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 5), (6, 4), (10, 7)])
    def test_consistent_with_joint(self, n, m):
        params = ModelParams(n, m, Fraction(4, 5))
        dist = joint_pmf(params)
        assert dist.marginal(Side.ACTIVE) == marginal_pmf(params, Side.ACTIVE).pmf
        assert dist.marginal(Side.PASSIVE) == marginal_pmf(params, Side.PASSIVE).pmf


class TestRecombination:
    def test_pinned(self):
        table = moment_table(P22)
        lhs, rhs = recombination_check(table, 1, 1)
        assert lhs == rhs == Fraction(7, 16)
        lhs, rhs = recombination_check(table, 0, 0)
        assert lhs == rhs == 1

    def test_exact_equality_including_enumeration(self):
        table = moment_table(ModelParams(3, 3, Fraction(2, 3)))
        lhs, rhs = recombination_check(table, 2, 1)
        assert lhs == rhs
        assert rhs == reference.falling_moment(3, 3, Fraction(2, 3), 2, 1)

    def test_reads_the_table(self):
        # the law at 1-p is a valid table, just the wrong one
        params = ModelParams(3, 4, Fraction(2, 5))
        swapped = moment_table(ModelParams(3, 4, Fraction(3, 5)))
        table = MomentTable(params, swapped.scale, swapped.numerators)
        lhs, rhs = recombination_check(table, 0, 1)
        assert rhs == swapped.entry(0, 1)
        assert lhs == moment_table(params).entry(0, 1) != rhs

    @pytest.mark.parametrize(
        "n,m,p",
        [
            (4, 3, THIRD),
            (2, 5, Fraction(3, 4)),
            # p = 0 or 1 puts 0**0 into the integer sums.
            (3, 4, Fraction(0)),
            (4, 3, Fraction(1)),
            (1, 5, Fraction(0)),
            (5, 1, Fraction(1)),
            (1, 4, Fraction(1)),
            (4, 1, Fraction(0)),
            # p near 0 and 1: each term's power of b pads a power of a or b - a of 1 or 999.
            (3, 4, Fraction(1, 1000)),
            (4, 3, Fraction(999, 1000)),
            (1, 6, Fraction(1, 1000)),
            (6, 1, Fraction(1, 1000)),
            (1, 6, Fraction(999, 1000)),
            (6, 1, Fraction(999, 1000)),
        ],
    )
    def test_all_orders(self, n, m, p):
        table = moment_table(ModelParams(n, m, p))
        for k in range(n):
            for l in range(m):
                lhs, rhs = recombination_check(table, k, l)
                assert lhs == rhs
        assert list(pgf.recombination_mismatches(table)) == []

    @pytest.mark.parametrize(
        "n,m,p,k,l",
        [(3, 4, Fraction(2, 5), 2, 1), (4, 3, Fraction(1, 1000), 0, 2),
         (1, 5, Fraction(999, 1000), 0, 3), (5, 1, Fraction(2, 5), 4, 0)],
    )
    def test_sweep_reports_an_off_by_one_numerator(self, n, m, p, k, l):
        params = ModelParams(n, m, p)
        table = moment_table(params)
        numerators = [list(row) for row in table.numerators]
        numerators[k][l] += 1
        wrong = MomentTable(params, table.scale, tuple(map(tuple, numerators)))
        assert list(pgf.recombination_mismatches(wrong)) == [
            (k, l, table.entry(k, l), table.entry(k, l) + Fraction(1, table.scale))
        ]

    def test_sweep_compares_values_over_any_scale(self):
        # the same table over 3 times its scale: every value is unchanged
        params = ModelParams(3, 4, Fraction(2, 5))
        table = moment_table(params)
        tripled = tuple(tuple(3 * e for e in row) for row in table.numerators)
        same = MomentTable(params, 3 * table.scale, tripled)
        assert list(pgf.recombination_mismatches(same)) == []


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
        # the pmf against enumeration too, not only against the joint law's sums
        size = n if active else m
        pmf = marginal_pmf(ModelParams(n, m, p), side).pmf
        assert pmf == tuple(law.get(d, 0) for d in range(size))

    @settings(max_examples=40, deadline=None)
    @given(small_models())
    def test_marginals_are_row_and_column_sums(self, model):
        n, m, p = model
        params = ModelParams(n, m, p)
        pmf = joint_pmf(params).pmf
        assert marginal_pmf(params, Side.ACTIVE).pmf == tuple(sum(row) for row in pmf)
        assert marginal_pmf(params, Side.PASSIVE).pmf == tuple(sum(col) for col in zip(*pmf))
