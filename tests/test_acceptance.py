"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Tolerances are pinned here; exact means exact rational equality.
"""

import contextlib
import io
import random
import time
from fractions import Fraction

import scipy.stats

from rigjoint import (
    Mode,
    ModelParams,
    Side,
    chi_square,
    edge_count_correlation,
    empirical_joint,
    eval_joint_pgf,
    exhaustive_joint,
    joint_pmf,
    marginal_pmf,
    moment_table,
    moments,
    bipartite,
    pgf,
    tv_distance,
)
from rigjoint.cli import main

from tests import reference


def _report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for n, m in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (4, 4)]:
        for p in [Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)]:
            params = ModelParams(n, m, p)
            ok = ok and joint_pmf(params).pmf == exhaustive_joint(params).pmf
    elapsed = time.perf_counter() - start
    _report(1, "oracle equivalence", ok and elapsed < 30, f"{elapsed:.2f}s < 30s")


def test_criterion_02_pinned_table():
    params = ModelParams(2, 2, Fraction(1, 2))
    dist = joint_pmf(params)
    expect = {
        (0, 0): Fraction(7, 16),
        (1, 0): Fraction(1, 8),
        (0, 1): Fraction(1, 8),
        (1, 1): Fraction(5, 16),
    }
    ok = all(dist.pmf[a][b] == v for (a, b), v in expect.items())
    ok = ok and moments(params).cov == Fraction(31, 256)
    _report(2, "pinned (2,2,1/2) table and covariance", ok)


def test_criterion_03_marginal_consistency():
    ok = True
    for n in range(1, 11):
        for m in range(1, 11):
            for p in [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)]:
                params = ModelParams(n, m, p)
                dist = joint_pmf(params)
                ok = ok and dist.marginal(Side.ACTIVE) == marginal_pmf(params, Side.ACTIVE).pmf
                ok = ok and dist.marginal(Side.PASSIVE) == marginal_pmf(params, Side.PASSIVE).pmf
    _report(3, "marginal formulas match joint sums (n,m <= 10)", ok)


def test_criterion_04_transform_identity():
    # Exact F is read off the moment table, so it is compared with routes that
    # do not go through the table: (i) the polynomial of the sieved pmf,
    # (ii) the polynomial of the enumerated pmf, and (iii) the transform of the
    # moments rebuilt from the edge-split conditionals. The enumeration runs up
    # to 22 cells on the grid, and on four thin shapes of up to 62 cells.
    rnd = random.Random(2024)
    nonzero = [v for v in range(-9, 10) if v != 0]
    p_cycle = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 5)]
    thin = {(3, 20): Fraction(0), (20, 3): Fraction(1), (4, 15): Fraction(3, 7),
            (2, 31): Fraction(1, 2)}
    ok = True
    shapes = [(n, m, p_cycle[(n + m) % 3]) for n in range(1, 13) for m in range(1, 13)]
    for n, m, p in shapes + [(n, m, p) for (n, m), p in thin.items()]:
        params = ModelParams(n, m, p)
        polynomials = [joint_pmf(params).pmf]
        if n * m <= 22 or (n, m) in thin:
            polynomials.append(exhaustive_joint(params).pmf)
        rebuilt = None
        if n <= 6 and m <= 6:
            split = pgf.edge_split_table(params)
            rebuilt = [[split.entry(k, l) for l in range(m)] for k in range(n)]
        for _ in range(20):
            x = Fraction(rnd.choice(nonzero), rnd.randint(1, 6))
            y = Fraction(rnd.choice(nonzero), rnd.randint(1, 6))
            value = eval_joint_pgf(params, x, y)
            ok = ok and all(value == reference.pgf_from_pmf(pmf, x, y) for pmf in polynomials)
            ok = ok and (rebuilt is None or value == reference.pgf_from_moments(rebuilt, x, y))
    _report(
        4,
        "PGF equals the sieved and enumerated pmf polynomials and the edge-split "
        "transform at 20 random points (n,m <= 12; 3x20, 20x3, 4x15, 2x31)",
        ok,
    )


def test_criterion_05_recombination():
    # the same numerators over the same scale, also at p = 0 and 1, where 0**0
    # enters the edge split's sums, and near them, where b pads every term
    ok = True
    shapes = [(n, m) for n in range(1, 7) for m in range(1, 7)]
    shapes += [(1, 22), (22, 1), (2, 11), (4, 5), (5, 4)]
    for n, m in shapes:
        for p in [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2), Fraction(1, 1000),
                  Fraction(999, 1000)]:
            params = ModelParams(n, m, p)
            ok = ok and pgf.edge_split_table(params) == moment_table(params)
    _report(5, "edge-split table equals the moment table (n,m <= 6; 1x22, 22x1, 2x11, "
            "4x5, 5x4)", ok)


def test_criterion_06_moment_identities():
    ok = True
    for n in range(1, 11):
        for m in range(1, 11):
            for p in [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)]:
                params = ModelParams(n, m, p)
                s = moments(params)
                ok = ok and s.mean_x == (n - 1) * (1 - (1 - p * p) ** m)
                dist = joint_pmf(params)
                cells = [
                    (a, b, dist.pmf[a][b]) for a in range(n) for b in range(m)
                ]
                ex = sum(a * w for a, b, w in cells)
                ey = sum(b * w for a, b, w in cells)
                exx = sum(a * a * w for a, b, w in cells)
                eyy = sum(b * b * w for a, b, w in cells)
                exy = sum(a * b * w for a, b, w in cells)
                ok = ok and (s.mean_x, s.mean_y) == (ex, ey)
                ok = ok and (s.var_x, s.var_y) == (exx - ex * ex, eyy - ey * ey)
                ok = ok and s.cov == exy - ex * ey
    _report(6, "moment-table route equals pmf summation (n,m <= 10)", ok)


def test_criterion_07_monte_carlo_fit():
    start = time.perf_counter()
    params = ModelParams(10, 10, Fraction(1, 5))
    emp = empirical_joint(params, trials=200_000, seed=42)
    dist = joint_pmf(params)
    tv = tv_distance(dist, emp)
    statistic, dof = chi_square(dist, emp)
    quantile = scipy.stats.chi2.ppf(0.999, dof)
    elapsed = time.perf_counter() - start
    ok = tv < 0.01 and statistic < quantile and elapsed < 30
    _report(
        7,
        "Monte Carlo fit at (10,10,1/5) with 2e5 trials",
        ok,
        f"tv={tv:.4f} chi2={statistic:.1f} < {quantile:.1f} at dof={dof}, {elapsed:.2f}s < 30s",
    )


def test_criterion_08_duality():
    ok = True
    for n in range(1, 9):
        for m in range(1, 9):
            for p in [Fraction(1, 4), Fraction(3, 5)]:
                fwd = joint_pmf(ModelParams(n, m, p))
                rev = joint_pmf(ModelParams(m, n, p))
                ok = ok and all(
                    fwd.pmf[a][b] == rev.pmf[b][a] for a in range(n) for b in range(m)
                )
    _report(8, "swapping sides transposes the law (n,m <= 8)", ok)


def test_criterion_09_boundary_laws():
    ok = True
    for n, m in [(1, 1), (2, 5), (4, 3), (7, 7)]:
        zero_p = joint_pmf(ModelParams(n, m, Fraction(0)))
        ok = ok and zero_p.pmf[0][0] == 1
        one_p = joint_pmf(ModelParams(n, m, Fraction(1)))
        ok = ok and one_p.pmf[n - 1][m - 1] == 1
    for m in range(1, 6):
        dist = joint_pmf(ModelParams(1, m, Fraction(2, 3)))
        ok = ok and sum(dist.pmf[0]) == 1  # X has only degree 0
    for n in range(1, 6):
        dist = joint_pmf(ModelParams(n, 1, Fraction(2, 3)))
        ok = ok and sum(row[0] for row in dist.pmf) == 1  # Y has only degree 0
    _report(9, "boundary laws at p=0, p=1, n=1, m=1", ok)


def test_criterion_10_covariance_sweep():
    ok = True
    worst = None
    for n in (2, 5, 10, 20):
        for m in (2, 5, 10, 20):
            for step in range(1, 20):
                p = Fraction(step, 20)
                cov = moments(ModelParams(n, m, p)).cov
                if worst is None or cov < worst:
                    worst = cov
                ok = ok and cov >= 0
    _report(
        10,
        "covariance nonnegative over the scanned grid (empirical check only)",
        ok,
        f"min cov = {float(worst):.3e}",
    )


def test_criterion_11_performance():
    start = time.perf_counter()
    dist = joint_pmf(ModelParams(40, 40, Fraction(1, 2)))
    exact_elapsed = time.perf_counter() - start
    ok = sum(v for row in dist.pmf for v in row) == 1 and exact_elapsed < 0.25

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["pmf", "--n", "40", "--m", "40", "--p", "3/7"])
    cli_elapsed = time.perf_counter() - start
    ok = ok and code == 0 and out.getvalue().startswith("a,b,") and cli_elapsed < 0.5

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["scan", "--n", "3", "--m", "3", "--p-grid", "1/10000:1:1/10000"])
    scan_elapsed = time.perf_counter() - start
    ok = ok and code == 0 and out.getvalue().count("\n") == 10001 and scan_elapsed < 1.5

    start = time.perf_counter()
    big = ModelParams(500, 500, Fraction(1, 5))
    value = eval_joint_pgf(big, 0.97, 0.5, Mode.FLOAT)
    summary = moments(big, Mode.FLOAT)
    float_elapsed = time.perf_counter() - start
    ok = ok and value >= 0 and summary.mean_x > 0 and float_elapsed < 0.3

    start = time.perf_counter()
    edge = eval_joint_pgf(ModelParams(700, 700, Fraction(1, 100)), 0.0, 0.7, Mode.FLOAT)
    edge_elapsed = time.perf_counter() - start
    ok = ok and edge > 0 and edge_elapsed < 0.05

    start = time.perf_counter()
    emp = empirical_joint(ModelParams(50, 50, Fraction(1, 20)), 40_000, seed=11)
    sample_elapsed = time.perf_counter() - start
    ok = ok and emp.trials == 40_000 and sample_elapsed < 0.5

    start = time.perf_counter()
    corr = edge_count_correlation(ModelParams(20, 20, Fraction(1, 10)), 40_000, seed=11)
    corr_elapsed = time.perf_counter() - start
    ok = ok and corr is not None and corr > 0 and corr_elapsed < 0.5

    start = time.perf_counter()
    for n, m, p in [(11, 2, Fraction(1, 3)), (2, 11, Fraction(1, 3)), (1, 22, Fraction(1, 2)),
                    (4, 5, Fraction(2, 5)), (5, 4, Fraction(2, 5))]:
        exhaustive_joint(ModelParams(n, m, p))  # its law is checked to sum to 1
    enumeration_elapsed = time.perf_counter() - start
    ok = ok and enumeration_elapsed < 0.1
    _report(
        11,
        "performance envelopes",
        ok,
        f"exact 40x40 pmf {exact_elapsed:.3f}s < 0.25s; "
        f"CLI pmf 40x40 at 3/7 {cli_elapsed:.3f}s < 0.5s; "
        f"CLI scan 3x3 at 10000 points {scan_elapsed:.2f}s < 1.5s; float 500x500 {float_elapsed:.2f}s < 0.3s; "
        f"float 700x700 at (0, 0.7) {edge_elapsed:.3f}s < 0.05s; "
        f"Monte Carlo 50x50 40000 trials {sample_elapsed:.2f}s < 0.5s; "
        f"edge-count correlation 20x20 40000 trials {corr_elapsed:.2f}s < 0.5s; "
        f"enumeration 11x2, 2x11, 1x22, 4x5, 5x4 {enumeration_elapsed:.3f}s < 0.1s",
    )


def test_criterion_12_determinism(capsys, monkeypatch):
    argv = [
        "simulate", "--n", "6", "--m", "4", "--p", "3/10",
        "--trials", "50000", "--seed", "271828",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out

    # tallies must not depend on how the trial range is split into batches,
    # nor, since the batches run on parallel lanes of threads
    # (bipartite.run_batches), on how the batches are dealt to the lanes. One
    # trial adds 8 max(6, 4, 0.3 * 24) = 57.6 bytes to a batch, so these
    # BATCH_BYTES give batches of 1 trial, of 37, and the default single batch.
    params = ModelParams(6, 4, Fraction(3, 10))
    partitions = []
    for batch_bytes in (1, 37.5 * 57.6, bipartite.BATCH_BYTES):
        monkeypatch.setattr(bipartite, "BATCH_BYTES", batch_bytes)
        partitions.append(empirical_joint(params, 10_000, seed=271828))
    ok = first == second and all(e.counts == partitions[0].counts for e in partitions)
    with capsys.disabled():
        _report(12, "simulate is byte-identical and partition-independent", ok)
