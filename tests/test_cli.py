import hashlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigjoint
from rigjoint import cli, pgf, stats
from rigjoint.cli import _law_cells, main
from tests import reference


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPmfCommand:
    def test_csv_table(self, capsys):
        code, out, err = run(capsys, ["pmf", "--n", "2", "--m", "2", "--p", "1/2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,prob_rational,prob_decimal"
        assert "0,0,7/16,0.4375" in lines
        assert "0,1,1/8,0.125" in lines
        assert "1,0,1/8,0.125" in lines
        assert "1,1,5/16,0.3125" in lines
        assert "active,0,9/16,0.5625" in lines
        assert "passive,1,7/16,0.4375" in lines

    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, ["pmf", "--n", "1", "--m", "1", "--p", "3/4"])
        assert code == 0
        assert "0,0,1/1,1" in out.splitlines()

    def test_p_zero_point_mass(self, capsys):
        code, out, _ = run(capsys, ["pmf", "--n", "2", "--m", "2", "--p", "0"])
        assert code == 0
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        nonzero = [r for r in rows if not r.endswith(",0/1,0")]
        assert nonzero == ["0,0,1/1,1"]

    def test_json_roundtrip_sums_to_one(self, capsys):
        code, out, _ = run(
            capsys, ["pmf", "--n", "3", "--m", "4", "--p", "2/7", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exact"
        assert doc["params"] == {"n": 3, "m": 4, "p": {"num": "2", "den": "7"}}
        total = sum(
            Fraction(int(cell["prob"]["num"]), int(cell["prob"]["den"]))
            for cell in doc["result"]["joint"]
        )
        assert total == 1
        for key in ("marginal_active", "marginal_passive"):
            total = sum(
                Fraction(int(c["prob"]["num"]), int(c["prob"]["den"]))
                for c in doc["result"][key]
            )
            assert total == 1

    def test_refuses_float_mode(self, capsys):
        code, _, err = run(
            capsys, ["pmf", "--n", "2", "--m", "2", "--p", "1/2", "--mode", "float"]
        )
        assert code == 2
        assert err.strip().count("\n") == 0 and "error" in err

    def test_size_cap_default(self, capsys):
        code, out, err = run(capsys, ["pmf", "--n", "41", "--m", "2", "--p", "1/2"])
        assert code == 3
        assert out == ""

    def test_size_cap_is_exact_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "EXACT_CAP", 5)
        code, _, err = run(capsys, ["pmf", "--n", "6", "--m", "2", "--p", "1/2"])
        assert (code, err) == (3, "error: exact pmf capped at n, m <= 5\n")
        monkeypatch.setattr(cli, "EXACT_CAP", 50)
        code, _, _ = run(capsys, ["pmf", "--n", "41", "--m", "2", "--p", "1/2"])
        assert code == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rational_past_int_str_limit_exits_3(self, capsys, tmp_path, fmt):
        # valid arguments whose common denominator (10^11)^400 has 4401 digits
        target = tmp_path / "pmf.out"
        argv = ["pmf", "--n", "20", "--m", "20", "--p", "1/100000000000", "--format", fmt]
        code, out, err = run(capsys, argv + ["--output", str(target)])
        assert code == 3
        assert out == "" and not target.exists()
        assert "4300 digits" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "pmf.csv"
        code, out, _ = run(
            capsys,
            ["pmf", "--n", "2", "--m", "2", "--p", "1/2", "--output", str(target)],
        )
        assert code == 0
        assert out == ""
        assert "0,0,7/16,0.4375" in target.read_text()


@pytest.fixture
def digit_limit_640():
    """Python's int-to-str limit lowered to its least allowed value, 640 digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestPmfDigitBound:
    """``pmf`` refuses up front exactly what its renderer would refuse.

    With the limit at 640 digits, the shapes below straddle scale = 10^640:
    every printed integer is at most the scale, and P(X=0) (n >= 2) or
    P(Y=0) (m >= 2) prints the whole scale as its denominator.
    """

    # scales 10^640, 10^640, 10^640 and 13^575 > 10^640.4
    PAST = [(40, 16, "1/10"), (16, 40, "1/10"), (1, 40, "1/10000000000000000"), (23, 25, "1/13")]
    # scales 10^638, 10^624 and 13^572 < 10^637.2
    WITHIN = [(11, 29, "1/100"), (39, 1, "1/10000000000000000"), (22, 26, "1/13")]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n,m,p", PAST)
    def test_refuses_before_any_work(self, capsys, monkeypatch, digit_limit_640, n, m, p, fmt):
        argv = ["pmf", "--n", str(n), "--m", str(m), "--p", p, "--format", fmt]
        with monkeypatch.context() as unbounded:
            unbounded.setattr(cli, "_exact_law_refusal", lambda params: None)
            rendered = run(capsys, argv)
        assert rendered[0] == 3 and rendered[1] == ""
        assert "640 digits" in rendered[2]

        def must_not_run(*args, **kwargs):
            raise AssertionError("the law was computed although pmf refuses it")

        monkeypatch.setattr(cli, "joint_pmf", must_not_run)
        assert run(capsys, argv) == rendered

    @pytest.mark.parametrize("n,m,p", WITHIN)
    def test_accepts_and_prints_the_whole_scale(self, capsys, digit_limit_640, n, m, p):
        code, out, _ = run(capsys, ["pmf", "--n", str(n), "--m", str(m), "--p", p])
        assert code == 0
        side = "active" if n >= 2 else "passive"
        zero = next(line for line in out.splitlines() if line.startswith(f"{side},0,"))
        den = Fraction(p).denominator
        assert zero.split(",")[2].split("/")[1] == str(den ** (n * m))

    def test_no_limit_refuses_nothing(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        params = pgf.ModelParams(40, 40, Fraction(1, 10**12))
        assert cli._exact_law_refusal(params) is None

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2)])
    def test_single_cell_and_lines(self, n, m):
        # n*m = 1 prints only 1/1; a single line still prints the whole scale
        params = pgf.ModelParams(n, m, Fraction(1, 10**4300))
        assert (cli._exact_law_refusal(params) is not None) is (n * m >= 2)


# Bases den(p) of the law's scale: 1 (p = 0 or 1), primes, prime powers and
# composites whose primes a count can hold in different amounts.
LAW_BASES = [1, 2, 6, 7, 12, 30, 2**5 * 3**3]


def fraction_cells(counts, scale):
    fractions = [Fraction(c, scale) for c in counts]
    return [(str(f.numerator), str(f.denominator), f"{float(f):.17g}") for f in fractions]


class TestLawCells:
    @pytest.mark.parametrize("exponent", [0, 1, 2, 5, 17])
    @pytest.mark.parametrize("base", LAW_BASES)
    def test_matches_fraction(self, base, exponent):
        scale = base**exponent
        counts = [0, 1, scale, scale - 1 or 1]
        counts += [r * base**j for j in range(exponent + 1) for r in (1, 5, 7, 11, 13, 35)]
        # more of one prime of a composite base than the scale holds
        for prime in (q for q in (2, 3, 5) if base % q == 0):
            share = exponent * next(v for v in range(1, 8) if base % prime ** (v + 1))
            counts += [prime ** (share + extra) for extra in (1, 2, 9)]
        assert list(_law_cells(counts, scale, base)) == fraction_cells(counts, scale)

    @pytest.mark.parametrize("base", LAW_BASES)
    def test_repeated_counts(self, base):
        # each count at several positions, interleaved with the others, as the
        # mirror cells of a symmetric law are
        scale = base**9
        distinct = [0, 1, scale, 5 * base**3, 7 * base**8, 2**40]
        counts = [distinct[i % len(distinct)] for i in range(4 * len(distinct))]
        counts += counts[::-3]
        assert list(_law_cells(counts, scale, base)) == fraction_cells(counts, scale)

    def test_reduces_past_the_scales_share_of_a_prime(self):
        # 4/6: doubling the exponent to 6^2 would wrongly cancel 2^2
        assert list(_law_cells([4, 9], 6, 6)) == [
            ("2", "3", "0.66666666666666663"),
            ("3", "2", "1.5"),
        ]

    @given(
        base=st.sampled_from(LAW_BASES),
        exponent=st.integers(0, 60),
        data=st.data(),
    )
    def test_matches_fraction_on_random_counts(self, base, exponent, data):
        scale = base**exponent
        counts = [
            data.draw(st.integers(0, scale)) * base ** data.draw(st.integers(0, exponent))
            for _ in range(6)
        ]
        assert list(_law_cells(counts, scale, base)) == fraction_cells(counts, scale)


class TestInvalidInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pmf", "--n", "0", "--m", "2", "--p", "1/2"],
            ["pmf", "--n", "2", "--m", "2", "--p", "1.5"],
            ["pmf", "--n", "2", "--m", "2", "--p", "-0.25"],
            ["pmf", "--n", "2", "--m", "2", "--p", "-1/2"],  # not a plain negative number
            ["pmf", "--n", "2", "--m", "2", "--p", "-1e-3"],
            ["pmf", "--n", "2", "--m", "2", "--p", "one half"],
            ["moments", "--n", "2", "--m", "-3", "--p", "1/2"],
            ["simulate", "--n", "2", "--m", "2", "--p", "1/2", "--trials", "0"],
            ["scan", "--n", "2", "--m", "2", "--p-grid", "0-1-0.1"],
            ["scan", "--n", "2", "--m", "2", "--p-grid", "0:1:0"],
            ["scan", "--n", "2", "--m", "2", "--p-grid", "0.9:0.1:0.1"],
            ["scan", "--n", "2", "--m", "2", "--p-grid", "0:half:0.1"],
            ["scan", "--n", "2", "--m", "2", "--p-grid=-0.1:1:0.1"],
            ["scan", "--n", "2", "--m", "2", "--p-grid", "-0.1:1:0.1"],
            ["scan", "--n", "2", "--m", "2", "--p-grid", "0:1.5:0.1"],
        ],
    )
    def test_exit_2_with_one_line_diagnostic(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""  # never a partial result
        assert len(err.strip().splitlines()) == 1

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            ["simulate", "--n", "2", "--m", "2", "--p", "1/2", "--trials", "5", "--mode", "float"],
        )
        assert code == 2

    def test_missing_command_exits_2(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "pmf"])
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, command, target):
        # exit 1 would read as a failed verification
        path = tmp_path if target == "directory" else tmp_path / "missing" / "out.csv"
        argv = [command, "--n", "2", "--m", "2", "--p", "1/2", "--output", str(path)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write --output {path}")


# SHA-256 of stdout for fixed invocations: any change to the exact pipeline
# or the renderers must leave every output byte as it was.
STDOUT_DIGESTS = [
    pytest.param(
        ["pmf", "--n", "40", "--m", "40", "--p", "3/7"],
        "77463ea69248ab677fd81b47f2dca08a3e06a32c08e70734186c84fed2963217",
        id="pmf-csv",
    ),
    pytest.param(
        ["pmf", "--n", "40", "--m", "40", "--p", "3/7", "--format", "json"],
        "ac10cd75944d35bcbf75060216d4d71105d2f101a9994d42bd0e957521059567",
        id="pmf-json",
    ),
    pytest.param(
        ["verify", "--n", "4", "--m", "5", "--p", "2/5"],
        "29fbf902abd5bb10552b8522d51217fbf3766a6c07c9e76ceec7a454e488bc3b",
        id="verify-csv",
    ),
    pytest.param(
        ["verify", "--n", "4", "--m", "5", "--p", "2/5", "--format", "json"],
        "bf738179a03dc0fd33c1ec0285ae13e511d795c23b61eeedcb0927c8f2501743",
        id="verify-json",
    ),
    pytest.param(
        ["simulate", "--n", "10", "--m", "10", "--p", "1/5", "--trials", "20000", "--seed", "3"],
        "1539f9be7995b8d18513ac53d9f20cf414c8b43c13be0f305e23539d8c0f7f69",
        id="simulate-csv",
    ),
    pytest.param(
        ["pmf", "--n", "12", "--m", "9", "--p", "5/12"],
        "bb6acb414ee836473a8f01a5fe24ad8bb53b5621b260bcfaba82024638b34eff",
        id="pmf-composite-den",
    ),
    pytest.param(
        ["pmf", "--n", "7", "--m", "3", "--p", "0"],
        "a530bad752d6439b23e89543b3e9ea535810377ed08671ce14df5e87b896e21b",
        id="pmf-p-zero",
    ),
    pytest.param(
        ["pmf", "--n", "3", "--m", "7", "--p", "1"],
        "cedc3dea9d192a39e357ec40a4e9bbcba3faba717814044b908a7c44de3df42a",
        id="pmf-p-one",
    ),
    pytest.param(
        ["pmf", "--n", "40", "--m", "40", "--p", "1/2"],
        "3fa5b8c2f22dd3a7b4c6d991a7f732e2fb8d6c3ffd58b0a0cb29c40a61db789d",
        id="pmf-power-of-two-den",
    ),
    pytest.param(
        ["simulate", "--n", "10", "--m", "10", "--p", "1/5", "--trials", "20000", "--seed", "3",
         "--format", "json"],
        "5eb1cd1f3a16744ca78057f4ac2af9a786b571751a710ac694272cb840e44eb3",
        id="simulate-json",
    ),
    # chi-square "undefined": every draw lands in the one cell of the law
    pytest.param(
        ["simulate", "--n", "4", "--m", "3", "--p", "0", "--trials", "500"],
        "42cfe7365f2260d6d8d2a52712ead359b2c554ce4a15cf1f709fbdd707b30b48",
        id="simulate-p-zero-csv",
    ),
    pytest.param(
        ["simulate", "--n", "4", "--m", "3", "--p", "0", "--trials", "500", "--format", "json"],
        "df6650d01507a752d7a56eda76df7bcbb229237ee2effbc277f9dc1fc500fb1c",
        id="simulate-p-zero-json",
    ),
    pytest.param(
        ["moments", "--n", "7", "--m", "5", "--p", "2/7"],
        "9d2941a9f56b09240315f5473a4ea1b66e3066f50aa91d96d86d787c3bbe19cb",
        id="moments-exact-csv",
    ),
    pytest.param(
        ["moments", "--n", "7", "--m", "5", "--p", "2/7", "--format", "json"],
        "b8eeb358befbf117933516870fe4d0ee3ca17318f2646bf354861c19248d9e52",
        id="moments-exact-json",
    ),
    pytest.param(
        ["moments", "--n", "7", "--m", "5", "--p", "2/7", "--mode", "float"],
        "33c47a7827ebfd864cc3e04dab888b5f4e36a4ee227d0c516f804a63c43c9348",
        id="moments-float-csv",
    ),
    pytest.param(
        ["moments", "--n", "7", "--m", "5", "--p", "2/7", "--mode", "float", "--format", "json"],
        "194521f771104e2a2e00f94c7e68d3542748d074c47b26f490102d7abc6f8a5a",
        id="moments-float-json",
    ),
    # the grid's ends p = 0 and p = 1 have corr "undefined"
    pytest.param(
        ["scan", "--n", "6", "--m", "4", "--p-grid", "0:1:1/4"],
        "56fe6104643d43bec41b8c3b953cab3dc3224d5dfd04dc9196a8323ac805022b",
        id="scan-exact-csv",
    ),
    pytest.param(
        ["scan", "--n", "6", "--m", "4", "--p-grid", "0:1:1/4", "--format", "json"],
        "468e82d6533e0425f476e41386bbd03e776fa2a0cdb73a35cb2a3a957abd9209",
        id="scan-exact-json",
    ),
    pytest.param(
        ["scan", "--n", "6", "--m", "4", "--p-grid", "0:1:1/4", "--mode", "float"],
        "a95190cb972d41b19e7cb2e749872c3426d0035b365aee76f8831cb7742eae0d",
        id="scan-float-csv",
    ),
    pytest.param(
        ["scan", "--n", "6", "--m", "4", "--p-grid", "0:1:1/4", "--mode", "float",
         "--format", "json"],
        "252630e8bc1c08413d288e748909abf7ce2cffda9893f8609d3f14978c4dfc56",
        id="scan-float-json",
    ),
    pytest.param(
        ["verify", "--n", "1", "--m", "1", "--p", "1"],
        "29fbf902abd5bb10552b8522d51217fbf3766a6c07c9e76ceec7a454e488bc3b",
        id="verify-single-cell-csv",
    ),
    # a side of one: X = 0, and no power of den(p) past the fourth is built
    pytest.param(
        ["moments", "--n", "1", "--m", "100000", "--p", "1/3"],
        "d619ba73977bff512daebf2ed3d260b420180006a0f52815661b0d50f2d9392b",
        id="moments-side-of-one-csv",
    ),
    pytest.param(
        ["verify", "--n", "1", "--m", "1", "--p", "1", "--format", "json"],
        "db32badd388629029780962f9e4921f43e5215eebb1611ccff9ba73daf2233e9",
        id="verify-single-cell-json",
    ),
]


@pytest.mark.parametrize("argv,digest", STDOUT_DIGESTS)
def test_stdout_is_byte_identical(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["pmf", "--n", "3", "--m", "2", "--p", "1/3"],
        ["moments", "--n", "3", "--m", "2", "--p", "1/3"],
        ["simulate", "--n", "3", "--m", "2", "--p", "1/3", "--trials", "200"],
        ["verify", "--n", "3", "--m", "2", "--p", "1/3"],
        ["scan", "--n", "3", "--m", "2", "--p-grid", "0:1:1/2"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_file_holds_what_stdout_would(capsys, tmp_path, argv, fmt):
    argv = argv + ["--format", fmt]
    code, out, _ = run(capsys, argv)
    assert code == 0
    target = tmp_path / "out"
    code, written, _ = run(capsys, argv + ["--output", str(target)])
    assert code == 0 and written == ""
    assert target.read_bytes() == out.encode()


class TestMomentsCommand:
    def test_pinned_covariance(self, capsys):
        code, out, _ = run(capsys, ["moments", "--n", "2", "--m", "2", "--p", "1/2"])
        assert code == 0
        assert "cov,31/256,0.12109375" in out.splitlines()

    def test_degenerate_all_zero(self, capsys):
        code, out, _ = run(capsys, ["moments", "--n", "5", "--m", "5", "--p", "0"])
        assert code == 0
        lines = out.splitlines()
        assert "mean_x,0/1,0" in lines
        assert "corr,,undefined" in lines

    def test_p_one_variances_vanish(self, capsys):
        code, out, _ = run(capsys, ["moments", "--n", "3", "--m", "4", "--p", "1"])
        assert code == 0
        lines = out.splitlines()
        assert "var_x,0/1,0" in lines
        assert "var_y,0/1,0" in lines
        assert "corr,,undefined" in lines

    def test_float_mode(self, capsys):
        code, out, _ = run(
            capsys, ["moments", "--n", "50", "--m", "60", "--p", "0.02", "--mode", "float"]
        )
        assert code == 0
        assert out.splitlines()[1].startswith("mean_x,,")

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, ["moments", "--n", "2", "--m", "2", "--p", "1/2", "--format", "json"]
        )
        doc = json.loads(out)
        assert doc["result"]["cov"] == {"num": "31", "den": "256"}

    @pytest.mark.parametrize("n,m,p", [(2000, 2000, "1/2"), (7, 5, "2/7")])
    def test_corr_matches_log_space_closed_form(self, capsys, n, m, p):
        # At 2000x2000 the variances are about 1e-247 each, so their float
        # product underflows to 0; 7x5 checks the log-space value itself.
        code, out, _ = run(capsys, ["moments", "--n", str(n), "--m", str(m), "--p", p,
                                    "--format", "json"])
        assert code == 0
        corr = json.loads(out)["result"]["corr"]
        assert corr == pytest.approx(log_space_corr(n, m, float(Fraction(p))), rel=1e-12, abs=0)

    def test_float_mode_survives_variance_underflow(self, capsys):
        argv = ["moments", "--n", "2000", "--m", "2000", "--p", "1/2", "--mode", "float"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[-1].startswith("corr,,")

    def test_rational_past_int_str_limit_exits_3(self, capsys):
        code, out, err = run(capsys, ["moments", "--n", "2000", "--m", "2000", "--p", "1/100"])
        assert code == 3
        assert out == ""
        assert "4300 digits" in err

    # Both would print integers past the limit, and the work bound refuses both first:
    # D = 4 * 10^5 * log10(7) digits of den(p) powers, and at 10**400, past the float
    # range, more squared digits than a double holds.
    @pytest.mark.parametrize(
        "n,m,p,work",
        [(10**5, 10**5, "3/7", "1.14e+11"), (10**400, 2, "1/2", "more than 1.8e+308")],
        ids=["1e5x1e5", "1e400x2"],
    )
    def test_past_int_str_limit_exits_3_before_computing(self, capsys, monkeypatch, n, m, p,
                                                         work):
        def must_not_run(*args, **kwargs):
            raise AssertionError("moments was computed although its work is past the bound")

        monkeypatch.setattr(cli, "moments", must_not_run)
        code, out, err = run(capsys, ["moments", "--n", str(n), "--m", str(m), "--p", p])
        assert code == 3
        assert out == ""
        assert err == (f"error: exact moments need {work} squared digits of den(p) powers "
                       "(summed over the grid in scan); capped at 2e+09\n")


def log_space_corr(n, m, p):
    """corr(X, Y) from closed forms of the covariance and variances, in logs.

    With q = 1-p and s = 1-p^2:
    cov = (n-1)(m-1) s^(n+m-4) q^2 p^3 (4 + p - 2p^2 - p^3) and
    Var X = (n-1) s^m ((1 - s^m) + (n-2) s^m expm1(m log1p(p^3 q / s^2))),
    Var Y likewise with n and m swapped.
    """
    q, s = 1 - p, 1 - p * p
    log_cov = (math.log((n - 1) * (m - 1)) + (n + m - 4) * math.log(s) + 2 * math.log(q)
               + 3 * math.log(p) + math.log(4 + p - 2 * p * p - p**3))

    def log_var(a, b):
        sb = s**b
        rest = -sb + (a - 2) * sb * math.expm1(b * math.log1p(p**3 * q / s**2))
        return math.log(a - 1) + b * math.log(s) + math.log1p(rest)

    return math.exp(log_cov - (log_var(n, m) + log_var(m, n)) / 2)


class TestSimulateCommand:
    def test_byte_identical_reruns(self, capsys):
        argv = ["simulate", "--n", "2", "--m", "2", "--p", "1/2", "--trials", "20000", "--seed", "42"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_metrics_appended(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--n", "2", "--m", "2", "--p", "1/2", "--trials", "100000", "--seed", "42"],
        )
        assert code == 0
        metrics = dict(
            line.split(",", 1) for line in out.splitlines() if line and "," in line
        )
        assert float(metrics["tv_distance"]) < 0.01
        assert metrics["chi_square_dof"] == "3"

    def test_p_zero_all_mass_at_origin(self, capsys):
        code, out, _ = run(
            capsys, ["simulate", "--n", "2", "--m", "2", "--p", "0", "--trials", "10"]
        )
        assert code == 0
        lines = out.splitlines()
        assert "0,0,10" in lines
        assert "chi_square_statistic,undefined" in lines

    def test_json_counts_sum_to_trials(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--n", "3", "--m", "3", "--p", "1/3", "--trials", "777",
             "--seed", "1", "--format", "json"],
        )
        doc = json.loads(out)
        assert sum(sum(row) for row in doc["result"]["counts"]) == 777
        assert doc["result"]["seed"] == 1

    def test_table_size_capped(self, capsys):
        code, out, err = run(
            capsys,
            ["simulate", "--n", "100000", "--m", "100000", "--p", "1/2", "--trials", "1",
             "--seed", "1"],
        )
        assert code == 3
        assert out == ""
        assert "capped at 1000000" in err

    @pytest.mark.parametrize(
        "n,m,p,trials", [("1000", "1000", "1/2", "1000000"), ("1", "1", "0", "500000001")]
    )
    def test_work_capped_before_sampling(self, capsys, n, m, p, trials):
        # trials * (n + m + 2p*n*m) words past MAX_SIMULATE_WORDS is refused at once
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["simulate", "--n", n, "--m", m, "--p", p, "--trials", trials]
        )
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert "capped at 1e+09" in err


class TestVerifyCommand:
    @pytest.mark.parametrize("n,m,p", [(2, 2, "1/2"), (3, 3, "2/3"), (2, 4, "0.3")])
    def test_passes_on_valid_models(self, capsys, n, m, p):
        code, out, _ = run(capsys, ["verify", "--n", str(n), "--m", str(m), "--p", p])
        assert code == 0
        lines = out.splitlines()
        assert "enumeration_vs_formula,PASS" in lines
        assert "edge_split_recombination,PASS" in lines
        assert "pgf_transform_identity,PASS" in lines
        assert "FAIL" not in out

    def test_size_cap(self, capsys, monkeypatch):
        # 6x6 would gather 8^6 * 6 * 37 moves a row, 1x63 has more than 62 cells
        monkeypatch.setattr(cli, "exhaustive_joint", must_not_run)
        for n, m in [(6, 6), (1, 63)]:
            code, out, err = run(capsys, ["verify", "--n", str(n), "--m", str(m), "--p", "1/2"])
            assert (code, out) == (3, ""), (n, m)
            assert err.startswith("error: enumeration needs ") and err.count("\n") == 1, err

    def test_refuses_float_mode(self, capsys):
        code, _, _ = run(
            capsys, ["verify", "--n", "2", "--m", "2", "--p", "1/2", "--mode", "float"]
        )
        assert code == 2

    def test_json_checks_array(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--n", "2", "--m", "3", "--p", "1/4", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "PASS"
        assert [c["status"] for c in doc["checks"]] == ["PASS", "PASS", "PASS"]

    @pytest.fixture
    def wrong_closed_form(self, monkeypatch):
        original = pgf._closed_form

        def per_vertex_exponent_n_minus_k(n, m, p, l):
            # _closed_form with the per-vertex exponent n-1-k changed to n-k,
            # the extra factor c b^l + a c^l left off the common scale
            a, b = p.numerator, p.denominator
            c = b - a
            return [e * (c * b**l + a * c**l) for e in original(n, m, p, l)]

        monkeypatch.setattr(pgf, "_closed_form", per_vertex_exponent_n_minus_k)

    def test_wrong_closed_form_fails_instead_of_usage_error(self, capsys, wrong_closed_form):
        argv = ["verify", "--n", "4", "--m", "5", "--p", "2/5"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert "enumeration_vs_formula,FAIL" in out.splitlines()
        assert "enumeration_vs_formula: entry (0,0) must equal 1, got 5" in err.splitlines()
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 1
        doc = json.loads(out)
        assert doc["result"] == "FAIL"
        assert doc["checks"][0] == {"name": "enumeration_vs_formula", "status": "FAIL"}

    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("csv", "36080fa3dd7ec16b3e03878bae21fdae1cfd29825fceddc5876cd5c3b17d029c"),
            ("json", "78e52d6cd83baf1524aac7429fc60a69ab37c3ee52bd4c641fdd1624755c3af1"),
        ],
    )
    def test_failure_output_is_byte_identical(self, capsys, wrong_closed_form, fmt, digest):
        argv = ["verify", "--n", "4", "--m", "5", "--p", "2/5", "--format", fmt]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert err == (
            "enumeration_vs_formula: entry (0,0) must equal 1, got 5\n"
            "edge_split_recombination: entry (0,0) must equal 1, got 5\n"
            "pgf_transform_identity: entry (0,0) must equal 1, got 5\n"
        )

    def test_wrong_running_product_in_k_fails(self, capsys, monkeypatch):
        # _closed_form with the leading term's step in k changed from c b^l to
        # c b^(l+1). Each column run's first cell stays right and only its later
        # cells go wrong; the edge split reads the same table, so it fails too.
        # At 4x5 the table is built 5x4 and transposed, so (0,1) is the first.
        step, wrong_step = "lead_step = c * b**l\n", "lead_step = c * b ** (l + 1)\n"
        source = textwrap.dedent(inspect.getsource(pgf._closed_form))
        assert source.count(step) == 1
        scope = dict(vars(pgf))
        exec(source.replace(step, wrong_step), scope)
        monkeypatch.setattr(pgf, "_closed_form", scope["_closed_form"])
        argv = ["verify", "--n", "4", "--m", "5", "--p", "2/5"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out.splitlines() == [
            "check,status",
            "enumeration_vs_formula,FAIL",
            "edge_split_recombination,FAIL",
            "pgf_transform_identity,FAIL",
        ]
        lines = err.splitlines()
        assert lines[0] == (
            "enumeration_vs_formula: not a valid falling-moment table (negative probability)"
        )
        assert lines[1].startswith(
            "edge_split_recombination: first mismatch at (k,l) = (0,1): edge split "
        )
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 1
        assert json.loads(out)["result"] == "FAIL"


    def test_failure_names_first_mismatch(self, capsys, monkeypatch):
        original = pgf.moment_table

        def table_with_p_and_q_swapped(params):
            # the law at 1-p is a valid law, just the wrong one
            swapped = original(pgf.ModelParams(params.n, params.m, 1 - params.p))
            return pgf.MomentTable(params, swapped.scale, swapped.numerators)

        monkeypatch.setattr(pgf, "moment_table", table_with_p_and_q_swapped)
        code, out, err = run(capsys, ["verify", "--n", "3", "--m", "4", "--p", "2/5"])
        assert code == 1
        assert out.splitlines() == [
            "check,status",
            "enumeration_vs_formula,FAIL",
            "edge_split_recombination,FAIL",
            "pgf_transform_identity,FAIL",
        ]
        lines = err.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("enumeration_vs_formula: first mismatch at (a,b) = (0,0): ")
        assert lines[1].startswith("edge_split_recombination: first mismatch at (k,l) = (0,1): ")
        assert lines[2].startswith(
            "pgf_transform_identity: first mismatch at (x,y) = (2/3,3/5): PGF "
        )
        assert "enumerated polynomial" in lines[2]

    @pytest.mark.parametrize(
        "cell,err",
        [
            ((0, 0), "".join(
                f"{name}: entry (0,0) must equal 1, got 1, difference -1e-15994\n" for name in (
                    "enumeration_vs_formula", "edge_split_recombination", "pgf_transform_identity"))),
            ((1, 1), "enumeration_vs_formula: first mismatch at (a,b) = (0,9): "
                     "formula 2e-7269, enumeration 2e-7269, difference 1e-15994\n"
                     "edge_split_recombination: first mismatch at (k,l) = (1,1): "
                     "edge split 10, closed form 10, difference -1e-15994\n"
                     "pgf_transform_identity: first mismatch at (x,y) = (2/3,3/5): "
                     "PGF 1, enumerated polynomial 1, difference 1.3436928e-15997\n"),
        ],
        ids=["guard", "mismatch"],
    )
    def test_failure_past_the_int_to_str_limit(self, capsys, monkeypatch, cell, err):
        # den(p)^(n*m) = 10^15994: each value a message shows has a numerator or
        # denominator past 4300 digits, so it prints as a 17-digit decimal, which keeps
        # the exponent of a value below the doubles; two values that print alike also
        # show their difference
        original = pgf.moment_table

        def one_count_too_high(params):
            table = original(params)
            numerators = [list(row) for row in table.numerators]
            numerators[cell[0]][cell[1]] += 1
            return pgf.MomentTable(params, table.scale, tuple(map(tuple, numerators)))

        monkeypatch.setattr(pgf, "moment_table", one_count_too_high)
        code, out, got = run(capsys, ["verify", "--n", "2", "--m", "11", "--p", "1e-727"])
        assert (code, got) == (1, err)
        assert out.count(",FAIL") == 3

    def test_pgf_identity_fails_on_its_own(self, capsys, monkeypatch):
        # the table and its sieved law stay right; only F as read off the table is off
        original = pgf.MomentTable.eval_pgf

        def off_by_one_count(table, x, y):
            return original(table, x, y) + Fraction(1, table.scale)

        monkeypatch.setattr(pgf.MomentTable, "eval_pgf", off_by_one_count)
        code, out, err = run(capsys, ["verify", "--n", "3", "--m", "4", "--p", "2/5"])
        assert code == 1
        assert out.splitlines() == [
            "check,status",
            "enumeration_vs_formula,PASS",
            "edge_split_recombination,PASS",
            "pgf_transform_identity,FAIL",
        ]
        law = reference.law_as_table(reference.joint_law(3, 4, Fraction(2, 5)), 3, 4)
        true_f = reference.pgf_from_pmf(law, Fraction(2, 3), Fraction(3, 5))
        assert err == (
            f"pgf_transform_identity: first mismatch at (x,y) = (2/3,3/5): "
            f"PGF {true_f + Fraction(1, 5**12)}, enumerated polynomial {true_f}\n"
        )


class TestVerifyDigitBound:
    """``verify`` refuses den(p)^(n*m) >= 10^MAX_VERIFY_DIGITS before it enumerates."""

    # 10^16000 three ways, 7^18940 > 10^16006, and past 22 cells 10^16058 and 10^16020
    PAST = [(2, 8, "1e-1000"), (16, 1, "1e-1000"), (1, 1, "1e-16000"), (4, 5, f"1/{7**947}"),
            (2, 31, "1e-259"), (4, 15, "1e-267")]
    # 10^15984, 10^15999, 7^18920 < 10^15990, and past 22 cells 10^15996 and 10^15960
    WITHIN = [(2, 8, "1e-999"), (1, 1, "1e-15999"), (4, 5, f"1/{7**946}"),
              (2, 31, "1e-258"), (4, 15, "1e-266")]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n,m,p", PAST)
    def test_refuses_before_any_work(self, capsys, monkeypatch, n, m, p, fmt):
        monkeypatch.setattr(cli, "exhaustive_joint", must_not_run)
        argv = ["verify", "--n", str(n), "--m", str(m), "--p", p, "--format", fmt]
        assert run(capsys, argv) == (3, "", "error: verify needs den(p)^(n*m) below 10^16000\n")

    @pytest.mark.parametrize("n,m,p", WITHIN)
    def test_admits_below_the_bound(self, capsys, monkeypatch, n, m, p):
        class Admitted(Exception):
            pass

        def admitted(params):
            raise Admitted

        monkeypatch.setattr(cli, "exhaustive_joint", admitted)
        with pytest.raises(Admitted):
            main(["verify", "--n", str(n), "--m", str(m), "--p", p])


class TestScanCommand:
    def test_grid_rows(self, capsys):
        code, out, _ = run(capsys, ["scan", "--n", "2", "--m", "2", "--p-grid", "0:1:0.25"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,mean_x,mean_y,cov,corr"
        assert len(lines) == 6
        assert lines[1] == "0,0,0,0,undefined"
        assert lines[5] == "1,1,1,0,undefined"
        midpoint = lines[3].split(",")
        assert midpoint[0] == "0.5"
        assert midpoint[3] == "0.12109375"

    def test_covariance_nonnegative_along_grid(self, capsys):
        for n, m in [(2, 2), (5, 5), (10, 2)]:
            code, out, _ = run(
                capsys, ["scan", "--n", str(n), "--m", str(m), "--p-grid", "0.05:0.95:0.09"]
            )
            assert code == 0
            for line in out.splitlines()[1:]:
                assert float(line.split(",")[3]) >= 0

    def test_grid_length_capped(self, capsys):
        code, out, err = run(
            capsys, ["scan", "--n", "1", "--m", "1", "--p-grid", "0:1:1/100000000"]
        )
        assert code == 3
        assert out == ""
        assert "100000001 points" in err

    # Exact E[X] and E[Y] have fractions past the int-to-str limit; the second
    # grid's first point (p = 0) is within it, its second is not. The work bound
    # refuses both first, with D = 4 * 10000 * 10 digits of den(p) powers at
    # p = 1234567/10^10 and 1/10^10, whatever the format and in exact `moments` too.
    PAST_LIMIT_GRIDS = pytest.mark.parametrize(
        "grid",
        [
            "1234567/10000000000:1234567/10000000000:1",
            "0:1/10000000000:1/10000000000",
        ],
        ids=["one-point", "last-point"],
    )

    @staticmethod
    def _refused_before_computing(capsys, monkeypatch, argv):
        def must_not_run(*args, **kwargs):
            raise AssertionError("moments was computed although exact mode refuses it")

        monkeypatch.setattr(cli, "moments", must_not_run)
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "exact moments need 1.6e+11 squared digits of den(p) powers" in err

    @PAST_LIMIT_GRIDS
    def test_json_past_int_str_limit_exits_3_before_computing(self, capsys, monkeypatch, grid):
        argv = ["scan", "--n", "10000", "--m", "10000", "--p-grid", grid, "--format", "json"]
        self._refused_before_computing(capsys, monkeypatch, argv)

    @PAST_LIMIT_GRIDS
    def test_csv_past_int_str_limit_exits_3_before_computing(self, capsys, monkeypatch, grid):
        argv = ["scan", "--n", "10000", "--m", "10000", "--p-grid", grid]
        self._refused_before_computing(capsys, monkeypatch, argv)
        p = grid.split(":")[1]
        moments_argv = ["moments", "--n", "10000", "--m", "10000", "--p", p]
        self._refused_before_computing(capsys, monkeypatch, moments_argv)

    # E[X]'s denominator is den(p)^(2m) / gcd(n - 1, den(p)^(2m)): 10^5600 at 2 x 700,
    # p = 10^-4, and 10^4800 at 400 x 400, p = 10^-6, past 4300 digits, so JSON scan and
    # moments exit 3 as they print it, after one call of moments. CSV prints it only as
    # a decimal.
    @pytest.mark.parametrize(
        "n,m,p", [(2, 700, "1e-4"), (400, 400, "0.000001")], ids=["2x700", "400x400"]
    )
    def test_csv_prints_decimals_past_int_str_limit(self, capsys, monkeypatch, n, m, p):
        shape, grid = ["--n", str(n), "--m", str(m)], ["--p-grid", f"{p}:{p}:1"]
        code, out, err = run(capsys, ["scan", *shape, *grid])
        assert (code, err) == (0, "")
        s = stats.moments(pgf.ModelParams(n, m, Fraction(p)))
        row = ",".join(map(cli._dec, [Fraction(p), s.mean_x, s.mean_y, s.cov, s.corr]))
        assert out.splitlines() == ["p,mean_x,mean_y,cov,corr", row]
        refused_after_one_call(capsys, monkeypatch, ["scan", *shape, *grid, "--format", "json"])
        refused_after_one_call(capsys, monkeypatch, ["moments", *shape, "--p", p])

    def test_byte_identical_reruns(self, capsys):
        argv = ["scan", "--n", "3", "--m", "4", "--p-grid", "0:1:0.2"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_count_past_int_str_limit_exits_3(self, capsys, fmt):
        # the grid has 10^5000 + 1 points, whose digits str() refuses to make
        argv = ["scan", "--n", "1", "--m", "1", "--p-grid", "0:1:1e-5000", "--format", fmt]
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == "error: --p-grid has at least 10^4300 points; scan is capped at 10000\n"


# Float moments multiply each weight C(n-1,k) C(m-1,l), k + l <= 2, into a double.
# For n = m the largest, (n-1)^2, leaves the double range between n = 1.34e154 and
# 1.35e154; for m = 2 the largest, C(n-1,2), leaves it between 1.89e154 and 1.90e154.
@pytest.mark.parametrize(
    "n,m,code",
    [
        (134 * 10**152, 134 * 10**152, 0),
        (135 * 10**152, 135 * 10**152, 3),
        (189 * 10**152, 2, 0),
        (190 * 10**152, 2, 3),
    ],
    ids=["square-in", "square-out", "m2-in", "m2-out"],
)
@pytest.mark.parametrize(
    "command", [["moments", "--p", "1/2"], ["scan", "--p-grid", "1/2:1/2:1"]], ids=lambda c: c[0]
)
def test_float_moments_refuse_weights_past_double(capsys, monkeypatch, command, n, m, code):
    if code == 3:
        def must_not_run(*args, **kwargs):
            raise AssertionError("moments was computed although float mode refuses it")

        monkeypatch.setattr(cli, "moments", must_not_run)
    argv = command + ["--n", str(n), "--m", str(m), "--mode", "float"]
    got, out, err = run(capsys, argv)
    assert got == code
    if code == 3:
        assert out == ""
        assert err == (
            "error: float moments need C(n-1,2), C(m-1,2) and (n-1)(m-1) within a double's range\n"
        )
    else:
        assert err == "" and out.count("\n") > 1
        if command[0] == "moments" and m == 2:
            # (n-1)(n-2) alone is past the doubles; (n-1)((n-2) x) is not
            assert "var_x,,2.6511679687500005e+307" in out.splitlines()


def must_not_run(*args, **kwargs):
    raise AssertionError("work ran although the admission gate refuses the input")


def counted_moments(monkeypatch) -> list:
    """Record the model of each call of ``cli.moments``, which still computes."""
    calls = []

    def counted(params, mode):
        calls.append(params)
        return stats.moments(params, mode)

    monkeypatch.setattr(cli, "moments", counted)
    return calls


def refused_after_one_call(capsys, monkeypatch, argv):
    """argv calls moments once, then exits 3 with nothing on stdout as it prints an
    integer past the int-to-str limit."""
    calls = counted_moments(monkeypatch)
    assert run(capsys, argv) == (3, "", f"error: {cli._too_many_digits()}\n")
    assert len(calls) == 1


class TestAdmission:
    """Input classes that ``cli._admit`` bounds: refused before any work, or answered, or
    for exact moments past the int-to-str limit, refused as they are printed."""

    # Answered now that the closed forms skip the powers a factor n-1 = 0 multiplies.
    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--n", "1", "--m", "100000000", "--p", "1/3"],
            ["moments", "--n", "100000000", "--m", "1", "--p", "1/3", "--format", "json"],
            ["scan", "--n", "1", "--m", "1000000", "--p-grid", "0:1:1/3"],
        ],
        ids=["n1", "m1", "scan-total"],
    )
    def test_exact_moments_at_a_side_of_one(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        size = int(argv[argv.index("--n") + 1]) * int(argv[argv.index("--m") + 1])
        if argv[0] == "scan":
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert [row[0] for row in rows] == ["0", "0.33333333333333331", "0.66666666666666663", "1"]
            for row, p in zip(rows, [Fraction(i, 3) for i in range(4)]):
                assert row[1:] == ["0", cli._dec((size - 1) * p * p), "0", "undefined"]
            return
        p, q = Fraction(1, 3), Fraction(2, 3)
        var = (size - 1) * p * p * q + (size - 1) ** 2 * p**3 * q
        if "json" in argv:
            result = json.loads(out)["result"]
            assert Fraction(int(result["var_x"]["num"]), int(result["var_x"]["den"])) == var
            assert result["var_y"] == result["cov"] == {"num": "0", "den": "1"}
        else:
            assert f"var_y,{var.numerator}/{var.denominator},{cli._dec(var)}" in out.splitlines()
            assert "cov,0/1,0" in out.splitlines()

    # Every grid point is within the means' digit bound; the whole grid is not. Its work
    # is 5.134e11 squared digits of powers plus 10000 points of cli.MOMENT_POINT_WORK.
    @pytest.mark.parametrize("n", [2, 500])
    def test_exact_scan_bounded_by_its_whole_grid(self, capsys, monkeypatch, n):
        monkeypatch.setattr(cli, "moments", must_not_run)
        argv = ["scan", "--n", str(n), "--m", "500", "--p-grid", "1/10000:1:1/10000"]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == (
            "error: exact moments need 5.14e+11 squared digits of den(p) powers "
            "(summed over the grid in scan); capped at 2e+09\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--n", "2", "--m", "2", "--p", "1e-10000000", "--mode", "float"],
            ["pmf", "--n", "2", "--m", "2", "--p", "1E+100001"],
            ["scan", "--n", "2", "--m", "2", "--p-grid", "0:1:1e-10000000"],
        ],
        ids=["p", "p-positive", "p-grid"],
    )
    def test_decimal_exponent_capped_before_parsing(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert err == "error: --p and --p-grid take decimal exponents up to 100000\n"

    def test_decimal_exponent_at_the_cap_is_accepted(self, capsys):
        argv = ["moments", "--n", "2", "--m", "2", "--p", "1e-100000", "--mode", "float"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and "cov,," in out

    # Var X (Var Y) has denominator 7^5200, over 4300 digits, and so has cov in the scan;
    # the means' denominators, 7^2600 and 7^6, are within the limit. In the last two only
    # a numerator passes it: Var Y's is 4302 digits over a 4300-digit denominator, and at
    # n = 10^2200, m = 1, Var X is about n^2 / 16, a 4400-digit numerator over 16. Each
    # is within the work bound, and is refused as it is printed.
    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--n", "3", "--m", "1300", "--p", "1/7"],
            ["moments", "--n", "1300", "--m", "3", "--p", "1/7", "--format", "json"],
            ["scan", "--n", "1300", "--m", "1300", "--p-grid", "1/7:1/7:1", "--format", "json"],
            ["moments", "--n", "541", "--m", "500", "--p", "8/97"],
            ["moments", "--n", str(10**2200), "--m", "1", "--p", "1/2"],
        ],
        ids=["var_x", "var_y", "scan-cov", "numerator", "numerator-n-past-2200-digits"],
    )
    def test_exact_moment_digits_refused(self, capsys, monkeypatch, argv):
        refused_after_one_call(capsys, monkeypatch, argv)

    # Each prints a 4300-digit integer, just within the limit: Var Y's denominator at
    # 541 x 500, p = 96/97 (at p = 8/97, above, its numerator has 4302 digits), Var X's
    # numerator and denominator at 20 x 541, and cov's denominator at 541 x 541.
    @pytest.mark.parametrize(
        "command,n,m,p,fmt",
        [("moments", 541, 500, "96/97", "csv"), ("moments", 20, 541, "8/97", "json"),
         ("scan", 541, 541, "8/97", "json")],
        ids=["moments", "moments-json", "scan-json"],
    )
    def test_exact_moments_printed_up_to_the_limit(self, capsys, command, n, m, p, fmt):
        point = ["--p", p] if command == "moments" else ["--p-grid", f"{p}:{p}:1"]
        argv = [command, "--n", str(n), "--m", str(m), *point, "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        fields = {"p": Fraction(p), **vars(stats.moments(pgf.ModelParams(n, m, Fraction(p))))}
        if fmt == "csv":
            rows = [line.split(",")[:2] for line in out.splitlines()[1:6]]
            assert rows == [[name, cli._frac(fields[name])]
                            for name in ("mean_x", "mean_y", "var_x", "var_y", "cov")]
            return
        result = json.loads(out)["result"]
        if command == "scan":
            (result,) = result
        del result["corr"]
        assert result == {name: cli._json_value(fields[name]) for name in result}

    # a side of 10^400 is past the doubles, and so is the work's figure; the exact
    # moments twin is TestMomentsCommand's 1e400x2
    def test_exact_scan_side_past_the_doubles(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "moments", must_not_run)
        argv = ["scan", "--n", str(10**400), "--m", "2", "--p-grid", "1/2:1/2:1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == ("error: exact moments need more than 1.8e+308 squared digits of den(p) "
                       "powers (summed over the grid in scan); capped at 2e+09\n")

    def test_variance_bound_only_where_its_form_is_exact(self, capsys, digit_limit_640):
        # n = 1, b = 10^320 and m - 1 = 10^320: Var Y's denominator, 10^640 / 2, prints,
        # though b^(4n) / gcd((m-1)^2, b^(4n)) = 10^640 would not
        big = 10**320
        argv = ["moments", "--n", "1", "--m", str(big + 1), "--p", f"1/{big}", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["result"]["var_y"]["den"] == str(10**640 // 2)

    def test_mean_bound_divides_out_n_minus_1(self, capsys, digit_limit_640):
        # b = 10^320 and n - 1 = 10: E[X]'s denominator is b^(2m) / 10 = 10^639, below
        # 10^640, though b^(2m) is not; at m = 1 JSON scan prints no cov
        argv = ["scan", "--n", "11", "--m", "1", "--p-grid", "1e-320:1e-320:1", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["result"][0]["mean_x"] == {"num": "1", "den": str(10**639)}

    def test_csv_scan_prints_cov_past_the_limit_as_a_decimal(self, capsys):
        code, out, _ = run(capsys, ["scan", "--n", "1300", "--m", "1300", "--p-grid", "1/7:1/7:1"])
        assert code == 0 and out.splitlines()[1].startswith("0.14285714285714285,")

    @pytest.mark.parametrize(
        "n,m,p",
        [(3, 2, "1/3"), (40, 40, "0.000001"), (20, 20, "1/" + "7" * 200), (41, 2, "1/2"),
         (1, 40, "1e-300")],
    )
    def test_simulate_fits_exactly_where_pmf_admits_the_law(self, capsys, monkeypatch, n, m, p):
        shape = ["--n", str(n), "--m", str(m), "--p", p]
        admitted = run(capsys, ["pmf", *shape])[0] == 0
        if not admitted:
            monkeypatch.setattr(cli, "joint_pmf", must_not_run)
        code, out, _ = run(capsys, ["simulate", *shape, "--trials", "1"])
        assert code == 0
        assert ("\ntv_distance," in out) is admitted

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exact_means_past_a_double(self, capsys, fmt):
        # at p = 1 the moments are integers, E[X] = n - 1 = 10^400 - 1
        big = 10**400
        code, out, _ = run(capsys, ["moments", "--n", str(big), "--m", "2", "--p", "1",
                                    "--format", fmt])
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["result"]["mean_x"] == {"num": str(big - 1), "den": "1"}
        else:
            assert f"mean_x,{big - 1}/1,1e+400" in out.splitlines()
        code, out, _ = run(capsys, ["scan", "--n", str(big), "--m", "2", "--p-grid", "1:1:1"])
        assert code == 0 and out.splitlines()[1] == "1,1e+400,1,0,undefined"


# The reduced denominators of exact moments, with p = a/b in lowest terms: each printed
# moment has denominator b^e / gcd(f, b^e), E[X] with (e, f) = (2m, n-1), cov with
# (2(n+m), (n-1)(m-1)), and Var X with (4m, (n-1)^2) where n-1 has at most m bits;
# E[Y] and Var Y swap n and m.
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12), st.fractions(0, 1, max_denominator=60))
def test_moment_denominators_as_admission_states(n, m, p):
    summary, b = stats.moments(pgf.ModelParams(n, m, p)), p.denominator
    forms = [("mean_x", 2 * m, n - 1), ("mean_y", 2 * n, m - 1)]
    if min(n, m) >= 2:
        forms.append(("cov", 2 * (n + m), (n - 1) * (m - 1)))
    forms += [(name, 4 * other, (size - 1) ** 2)
              for name, size, other in (("var_x", n, m), ("var_y", m, n))
              if (size - 1).bit_length() <= other]
    for name, e, f in forms:
        if f and b > 1:
            assert getattr(summary, name).denominator == b**e // math.gcd(f, b**e), name


# Sizes around the int-to-str limit at 640 digits: at p = 3/10, Var X at m = 160 has
# denominator exactly 10^640, and 40 x 160 prints means and cov within it.
MOMENT_GRID_SIZES = [1, 2, 3, 40, 160, 1300]


def test_exact_moment_digit_bounds_on_a_grid(capsys, monkeypatch, digit_limit_640):
    """Each run calls moments once. Exact moments and JSON scan then exit 3, with
    nothing on stdout, if and only if a fraction they print has an integer of more
    than 640 digits; CSV scan prints only decimals, and exits 0 on every point."""
    calls = counted_moments(monkeypatch)
    codes = []
    for n, m in itertools.product(MOMENT_GRID_SIZES, repeat=2):
        for p in ("1/2", "1/7", "3/10"):
            summary = stats.moments(pgf.ModelParams(n, m, Fraction(p)))
            grid = ["scan", "--p-grid", f"{p}:{p}:1"]
            for command, printed in [
                (["moments", "--p", p], ("mean_x", "mean_y", "var_x", "var_y", "cov")),
                ([*grid, "--format", "json"], ("mean_x", "mean_y", "cov")),
                (grid, ()),
            ]:
                calls.clear()
                code, out, err = run(capsys, command + ["--n", str(n), "--m", str(m)])
                codes.append(code)
                assert len(calls) == 1, (n, m, p, command)
                values = [Fraction(p), *(getattr(summary, name) for name in printed)]
                past = max(max(abs(v.numerator), v.denominator) for v in values) >= 10**640
                assert code == (3 if past else 0), (n, m, p, command, err)
                if past:
                    assert (out, err) == ("", f"error: {cli._too_many_digits()}\n")
    assert len(codes) == 324 and codes.count(0) > 158 and codes.count(3) > 50


# Magnitudes from here on round past the largest double, (2^53 - 1) 2^971.
_PAST_DOUBLE = 2**1024 - 2**970


class TestDec:
    @pytest.mark.parametrize(
        "value,text",
        [
            # within the doubles: the digits of the nearest double, as pinned outputs print
            (Fraction(1, 3), "0.33333333333333331"),
            (2**53 + 1, "9007199254740992"),
            (_PAST_DOUBLE - 1, "1.7976931348623157e+308"),
            # past them: the exact integer rounded half to even
            (_PAST_DOUBLE, "1.7976931348623158e+308"),
            (10**400 - 1, "1e+400"),
            (Fraction(-3 * 10**400 + 5), "-3e+400"),
            (123456789012345645 * 10**299, "1.2345678901234564e+316"),
            (123456789012345655 * 10**299, "1.2345678901234566e+316"),
            (123456789012345645 * 10**299 + 1, "1.2345678901234565e+316"),
        ],
    )
    def test_pinned(self, value, text):
        assert cli._dec(value) == text

    @given(st.integers(_PAST_DOUBLE, 10**6000))
    def test_within_half_a_unit_of_the_17th_digit(self, value):
        text = cli._dec(value)
        exponent = int(text.split("e+")[1])
        assert abs(Fraction(text) - value) <= Fraction(10 ** (exponent - 16), 2)


# Run in a fresh interpreter with numpy blocked: each argv's exit code and stdout digest.
_BLOCKED_NUMPY_RUN = textwrap.dedent(
    """
    import contextlib, hashlib, io, json, sys
    sys.modules["numpy"] = None
    from rigjoint import cli
    results = []
    for argv in json.loads(sys.argv[1]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
    print(json.dumps(results))
    """
)


def fresh_python(code, *args):
    """stdout of ``code`` run by a new interpreter that imports this rigjoint."""
    src = str(Path(rigjoint.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestStartUp:
    """The exact routes never load numpy; only float PGFs, samplers and enumeration do."""

    def test_import_leaves_numpy_unloaded(self):
        code = "import sys, rigjoint, rigjoint.cli; print('numpy' in sys.modules)"
        assert fresh_python(code) == "False\n"

    def test_exact_commands_run_without_numpy(self, capsys):
        pinned = [(p.values[0], p.values[1]) for p in STDOUT_DIGESTS if p.values[0][0] == "pmf"]
        unpinned = [
            ["moments", "--n", "40", "--m", "40", "--p", "1/2"],
            ["moments", "--n", "2000", "--m", "2000", "--p", "1/2", "--mode", "float"],
            ["scan", "--n", "5", "--m", "5", "--p-grid", "0:1:1/20", "--format", "json"],
            ["scan", "--n", "40", "--m", "30", "--p-grid", "0:1:1/20", "--mode", "float"],
        ]
        for argv in unpinned:
            code, out, _ = run(capsys, argv)
            assert code == 0
            pinned.append((argv, hashlib.sha256(out.encode()).hexdigest()))
        argvs = [argv for argv, _ in pinned]
        results = json.loads(fresh_python(_BLOCKED_NUMPY_RUN, json.dumps(argvs)))
        assert results == [[0, digest] for _, digest in pinned]
