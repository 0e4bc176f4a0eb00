import json
import math
from fractions import Fraction

import pytest

from rigjoint import pgf
from rigjoint.cli import main


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

    def test_size_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RIGJOINT_EXACT_CAP", "5")
        code, _, _ = run(capsys, ["pmf", "--n", "6", "--m", "2", "--p", "1/2"])
        assert code == 3
        monkeypatch.setenv("RIGJOINT_EXACT_CAP", "50")
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


class TestInvalidInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pmf", "--n", "0", "--m", "2", "--p", "1/2"],
            ["pmf", "--n", "2", "--m", "2", "--p", "1.5"],
            ["pmf", "--n", "2", "--m", "2", "--p", "-0.25"],
            ["pmf", "--n", "2", "--m", "2", "--p", "one half"],
            ["moments", "--n", "2", "--m", "-3", "--p", "1/2"],
            ["simulate", "--n", "2", "--m", "2", "--p", "1/2", "--trials", "0"],
            ["scan", "--n", "2", "--m", "2", "--p-grid", "0-1-0.1"],
            ["scan", "--n", "2", "--m", "2", "--p-grid", "0:1:0"],
            ["scan", "--n", "2", "--m", "2", "--p-grid", "0.9:0.1:0.1"],
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

    def test_size_cap(self, capsys):
        code, _, err = run(capsys, ["verify", "--n", "5", "--m", "5", "--p", "1/2"])
        assert code == 3

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

    def test_wrong_closed_form_fails_instead_of_usage_error(self, capsys, monkeypatch):
        original = pgf._closed_form

        def per_vertex_exponent_n_minus_k(n, m, a, c, b, k, l):
            # _closed_form with the per-vertex exponent n-1-k changed to n-k
            return original(n, m, a, c, b, k, l) * (c * b**l + a * c**l)

        monkeypatch.setattr(pgf, "_closed_form", per_vertex_exponent_n_minus_k)
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
            "edge_split_recombination,PASS",
            "pgf_transform_identity,FAIL",
        ]
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("enumeration_vs_formula: first mismatch at (a,b) = (0,0): ")
        assert lines[1].startswith(
            "pgf_transform_identity: first mismatch at (x,y) = (2/3,3/5): PGF "
        )
        assert "enumerated polynomial" in lines[1]


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

    def test_byte_identical_reruns(self, capsys):
        argv = ["scan", "--n", "3", "--m", "4", "--p-grid", "0:1:0.2"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
