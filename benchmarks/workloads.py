"""Job lists and output checks for the four benchmark workloads.

A job is one call into rigjoint: a CLI invocation run in-process through
``rigjoint.cli.main`` with stdout captured, or a public library function.
Every job carries a check that decodes its output into values and tests
them, so a change of rendering alone never reads as a failure. Checks run
outside the timed region.

Sizes follow the workload design in README.md; ``smoke=True`` swaps in tiny
sizes that exercise the same jobs and checks in well under two seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from rigjoint import cli, pgf, stats
from rigjoint.exact import Mode
from rigjoint.pgf import ModelParams, Side

# sha256 (first 16 hex digits) of the decoded pmf: every joint cell, then the
# active and passive marginals, each as "index,num/den" in lowest terms.
PMF_DIGESTS = {
    (40, 40, "3/7"): "d9d1525b0a365577",
    (40, 40, "1/2"): "b85d77670a5e8df1",
    (6, 6, "3/7"): "3653603c5b9d03b0",
    (6, 6, "1/2"): "85c3715e41ced9d5",
}

# Exact independence_gap on the default 121-point grid.
GAP_VALUES = {
    (10, 10, "1/5"): Fraction(
        "334361324043487340053253283125098578505465537668744488167156634749590964"
        "645677249534032587423073511706886285035707107703029787017510950193543643"
        "7651456"
        "/"
        "237389193643994968686831056739048928855524145840498624156994499770725205"
        "766120278975827973294285340002325690824704074177731172312633134424686431"
        "884765625"
    ),
    (3, 3, "1/5"): Fraction(184103677184, 3814697265625),
}

# Criterion 7 of tests/test_acceptance.py: TV distance and the chi-square
# survival probability of the 10x10 simulate fit.
TV_BOUND = 0.01
FIT_ALPHA = 1e-3
# Marginal goodness of fit for the pure-sampling job. Runs see many seeds, so
# a stricter level keeps false alarms negligible while a wrong sampler still
# fails by a wide margin.
MARGINAL_ALPHA = 1e-6
# Float path against references on [0,1]^2, where every term is nonnegative.
FLOAT_RTOL = 1e-9
# Float moments against exact mode; var and cov cancel, measured <= 9e-11.
MOMENT_RTOL = 1e-7


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]  # returns the problems found; empty means correct
    trials: int = 0  # Monte Carlo trials the job draws
    # A documented defect (ROADMAP open items) the job hits today: raising it
    # is reported as a known defect, not as a failed job. Any other exception,
    # or a returned value that fails the check, is a failure.
    known_defect: Optional[type] = None


def run_cli(argv: list) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def _cli_job(label: str, argv: list, check: Callable[[CliOutput], list], trials: int = 0) -> Job:
    def checked(out: CliOutput) -> list:
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr.strip()[:200]}"]
        return check(out.stdout)

    return Job(label, lambda: run_cli(argv), checked, trials)


def _digest(joint: dict, active: dict, passive: dict) -> str:
    h = hashlib.sha256()
    for (a, b), value in sorted(joint.items()):
        h.update(f"{a},{b},{value}\n".encode())
    for marginal in (active, passive):
        for degree, value in sorted(marginal.items()):
            h.update(f"{degree},{value}\n".encode())
    return h.hexdigest()[:16]


# --- exact_pmf ---------------------------------------------------------------

def _decode_pmf(text: str, fmt: str):
    if fmt == "json":
        result = json.loads(text)["result"]

        def frac(prob):
            return Fraction(int(prob["num"]), int(prob["den"]))

        joint = {(c["a"], c["b"]): frac(c["prob"]) for c in result["joint"]}
        active = {c["degree"]: frac(c["prob"]) for c in result["marginal_active"]}
        passive = {c["degree"]: frac(c["prob"]) for c in result["marginal_passive"]}
        return joint, active, passive
    joint, marginals = {}, {"active": {}, "passive": {}}
    for line in text.splitlines():
        fields = line.split(",")
        if len(fields) != 4 or fields[0] in ("a", "side"):
            continue
        if fields[0] in marginals:
            marginals[fields[0]][int(fields[1])] = Fraction(fields[2])
        else:
            joint[int(fields[0]), int(fields[1])] = Fraction(fields[2])
    return joint, marginals["active"], marginals["passive"]


def _pmf_job(n: int, m: int, p: str, fmt: str) -> Job:
    def check(text: str) -> list:
        joint, active, passive = _decode_pmf(text, fmt)
        if set(joint) != {(a, b) for a in range(n) for b in range(m)}:
            return ["joint cells do not cover the n x m grid"]
        if set(active) != set(range(n)) or set(passive) != set(range(m)):
            return ["marginals do not cover the degree ranges"]
        problems = []
        if sum(joint.values()) != 1:
            problems.append("joint pmf does not sum to exactly 1")
        if any(sum(joint[a, b] for b in range(m)) != active[a] for a in range(n)):
            problems.append("row sums differ from the active marginal")
        if any(sum(joint[a, b] for a in range(n)) != passive[b] for b in range(m)):
            problems.append("column sums differ from the passive marginal")
        digest = _digest(joint, active, passive)
        if digest != PMF_DIGESTS[n, m, p]:
            problems.append(f"pmf digest {digest} != pinned {PMF_DIGESTS[n, m, p]}")
        return problems

    argv = ["pmf", "--n", str(n), "--m", str(m), "--p", p, "--format", fmt]
    return _cli_job(f"pmf {n}x{m} p={p} {fmt}", argv, check)


def exact_pmf(seed: int, smoke: bool) -> list:
    size = 6 if smoke else 40
    return [_pmf_job(size, size, "3/7", "csv"), _pmf_job(size, size, "3/7", "json"),
            _pmf_job(size, size, "1/2", "csv")]


# --- monte_carlo -------------------------------------------------------------

def _decode_simulate(text: str, fmt: str):
    """Tallies as a list of rows, and the metric fields as strings."""
    if fmt == "json":
        result = json.loads(text)["result"]
        fields = {k: str(v) for k, v in result.items() if k != "counts"}
        return result["counts"], fields
    cells, fields = {}, {}
    for line in text.splitlines():
        parts = line.split(",")
        if len(parts) == 3 and parts[0] != "x":
            cells[int(parts[0]), int(parts[1])] = int(parts[2])
        elif len(parts) == 2 and parts[0] != "metric":
            fields[parts[0]] = parts[1]
    n = 1 + max(x for x, _ in cells)
    m = 1 + max(y for _, y in cells)
    return [[cells.get((x, y), 0) for y in range(m)] for x in range(n)], fields


def _chi2_sf(statistic: float, dof: int) -> float:
    from scipy.special import chdtrc  # imported lazily: checks run outside the timed region

    return float(chdtrc(dof, statistic))


def _pooled_chi_square(observed: list, probs: list, trials: int):
    """Pearson statistic with cells of expectation below 5 pooled; (stat, dof)."""
    kept, pooled_e, pooled_o = [], 0.0, 0
    for o, prob in zip(observed, probs):
        e = trials * prob
        if e < 5:
            pooled_e, pooled_o = pooled_e + e, pooled_o + o
        else:
            kept.append((e, o))
    if pooled_e > 0 or pooled_o > 0:
        kept.append((pooled_e, pooled_o))
    stat = sum((o - e) ** 2 / e if e > 0 else math.inf for e, o in kept)
    return stat, len(kept) - 1


def _simulate_job(n: int, m: int, p: str, trials: int, seed: int, fmt: str, fit: str) -> Job:
    params = ModelParams(n, m, Fraction(p))

    def check(text: str) -> list:
        counts, fields = _decode_simulate(text, fmt)
        if len(counts) != n or any(len(row) != m for row in counts):
            return ["tally table does not match n x m"]
        problems = []
        if sum(map(sum, counts)) != trials or fields.get("trials") != str(trials):
            problems.append("tallies do not sum to the trial count")
        if fields.get("seed") != str(seed):
            problems.append("reported seed differs from the requested seed")
        if fit == "joint":
            problems += _joint_fit_problems(params, counts, fields, trials)
        else:
            problems += _marginal_fit_problems(params, counts, trials)
        return problems

    argv = ["simulate", "--n", str(n), "--m", str(m), "--p", p, "--trials", str(trials),
            "--seed", str(seed), "--format", fmt]
    return _cli_job(f"simulate {n}x{m} p={p} trials={trials} {fmt}", argv, check, trials)


def _joint_fit_problems(params, counts, fields, trials) -> list:
    """Criterion-7 bounds on the reported fit, and the reported TV recomputed."""
    try:
        tv = float(fields["tv_distance"])
        statistic, dof = float(fields["chi_square_statistic"]), int(fields["chi_square_dof"])
    except (KeyError, ValueError):
        return ["fit metrics missing or undefined"]
    exact = pgf.joint_pmf(params).pmf
    recomputed = sum(abs(exact[a][b] - Fraction(counts[a][b], trials))
                     for a in range(params.n) for b in range(params.m)) / 2
    problems = []
    if abs(tv - float(recomputed)) > 1e-12:
        problems.append(f"reported tv {tv} != recomputed {float(recomputed)}")
    if tv >= TV_BOUND:
        problems.append(f"tv {tv} >= {TV_BOUND}")
    if _chi2_sf(statistic, dof) <= FIT_ALPHA:
        problems.append(f"chi2 {statistic} at dof {dof} beyond the {1 - FIT_ALPHA} quantile")
    return problems


def _marginal_fit_problems(params, counts, trials) -> list:
    """Both marginal tallies against exact marginal_pmf, chi-square per side."""
    problems = []
    sides = ((Side.ACTIVE, [sum(row) for row in counts]),
             (Side.PASSIVE, [sum(col) for col in zip(*counts)]))
    for side, observed in sides:
        probs = [float(v) for v in pgf.marginal_pmf(params, side).pmf]
        statistic, dof = _pooled_chi_square(observed, probs, trials)
        if dof < 1 or _chi2_sf(statistic, dof) <= MARGINAL_ALPHA:
            problems.append(f"{side.value} marginal chi2 {statistic} at dof {dof} fails")
    return problems


# The counter-based edge stream documented in rigjoint.bipartite: trial seed
# i is mix(seed + (i+1) G), edge word j is mix(trial seed + (j+1) G), and an
# edge is present when its word is below floor(p * 2^64). Re-derived here so
# the correlation check does not lean on the package's private sampler.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _linked_pairs(gram):
    """Pairs with a shared neighbour, from a batch of Gram matrices."""
    linked = (gram > 0).sum(axis=(1, 2)) - (np.diagonal(gram, axis1=1, axis2=2) > 0).sum(axis=1)
    return linked // 2


def reference_edge_totals(params: ModelParams, trials: int, seed: int, batch: int = 2048):
    """Per trial, the edge counts of the active and passive projections."""
    n, m = params.n, params.m
    threshold = (params.p.numerator << 64) // params.p.denominator
    offsets = np.arange(1, n * m + 1, dtype=np.uint64) * _GAMMA
    active, passive = [], []
    with np.errstate(over="ignore"):
        for start in range(0, trials, batch):
            idx = np.arange(start, min(start + batch, trials), dtype=np.uint64)
            trial_seeds = _mix(np.uint64(seed % (1 << 64)) + (idx + np.uint64(1)) * _GAMMA)
            words = _mix(trial_seeds[:, None] + offsets[None, :])
            if threshold >> 64:
                edges = np.ones(words.shape, dtype=bool)
            else:
                edges = words < np.uint64(threshold)
            adj = edges.reshape(-1, n, m).astype(np.float32)
            active.append(_linked_pairs(adj @ adj.transpose(0, 2, 1)))
            passive.append(_linked_pairs(adj.transpose(0, 2, 1) @ adj))
    return np.concatenate(active).astype(np.float64), np.concatenate(passive).astype(np.float64)


def _correlation_job(n: int, m: int, p: str, trials: int, seed: int) -> Job:
    params = ModelParams(n, m, Fraction(p))

    def check(value) -> list:
        active, passive = reference_edge_totals(params, trials, seed)
        constant = active.std() == 0.0 or passive.std() == 0.0
        expected = None if constant else float(np.corrcoef(active, passive)[0, 1])
        if value is None or expected is None:
            ok = value is expected
        else:
            ok = abs(value - expected) <= 1e-12
        return [] if ok else [f"correlation {value} != reference {expected}"]

    return Job(f"edge_count_correlation {n}x{m} p={p} trials={trials}",
               lambda: stats.edge_count_correlation(params, trials, seed), check, trials)


def monte_carlo(seed: int, smoke: bool) -> list:
    if smoke:
        return [_simulate_job(45, 45, "1/20", 300, seed, "csv", "marginal"),
                _simulate_job(4, 4, "1/5", 100_000, seed, "json", "joint"),
                _correlation_job(6, 6, "1/5", 2_000, seed)]
    # 50x50 is above the exact cap (40), so the CLI only samples.
    return [_simulate_job(50, 50, "1/20", 40_000, seed, "csv", "marginal"),
            _simulate_job(10, 10, "1/5", 1_000_000, seed, "json", "joint"),
            _correlation_job(20, 20, "1/10", 40_000, seed)]


# --- float_pgf ---------------------------------------------------------------

FLOAT_P = Fraction(1, 100)


def marginal_pgf_reference(size: int, other: int, p: float, t: float) -> float:
    """E[t^X] on a side with ``size`` vertices and ``other`` opposite ones.

    Sums the nonnegative closed-form terms
    C(size-1,k) t^(size-1-k) (1-t)^k (1-p+p q^k)^other in log space, so it
    neither overflows nor loses relative accuracy at any size.
    """
    if t == 1.0:
        return 1.0
    q = 1.0 - p
    logs = [
        math.lgamma(size) - math.lgamma(k + 1) - math.lgamma(size - k)
        + (size - 1 - k) * math.log(t) + k * math.log1p(-t)
        + other * math.log1p(-p + p * q**k)
        for k in range(size)
    ]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def _close(value, reference, rtol) -> bool:
    return isinstance(value, float) and abs(value - reference) <= rtol * abs(reference)


def _joint_float_job(size: int, x: float, y: float) -> Job:
    params = ModelParams(size, size, FLOAT_P)
    p = float(FLOAT_P)

    def check(value) -> list:
        fx = marginal_pgf_reference(size, size, p, x)
        fy = marginal_pgf_reference(size, size, p, y)
        if not isinstance(value, float) or not 0.0 <= value <= min(fx, fy) * (1 + FLOAT_RTOL):
            return [f"F({x},{y}) = {value} outside [0, min(F_X(x), F_Y(y))]"]
        mean = (size - 1) * (1 - (1 - p * p) ** size)  # E[X] = E[Y] on a square
        # Jensen: E[x^X y^Y] >= x^E[X] y^E[Y]
        if value < x**mean * y**mean * (1 - FLOAT_RTOL):
            return [f"F({x},{y}) = {value} below the Jensen bound"]
        if y == 1.0 and not _close(value, pgf.eval_marginal_pgf(params, Side.ACTIVE, x, Mode.FLOAT),
                                   FLOAT_RTOL):
            return [f"F({x},1) = {value} differs from the float marginal F_X({x})"]
        if x == 1.0 and not _close(value, pgf.eval_marginal_pgf(params, Side.PASSIVE, y, Mode.FLOAT),
                                   FLOAT_RTOL):
            return [f"F(1,{y}) = {value} differs from the float marginal F_Y({y})"]
        if x == y == 1.0 and abs(value - 1.0) > 1e-12:
            return [f"F(1,1) = {value} != 1"]
        return []

    return Job(f"eval_joint_pgf float {size}x{size} at ({x}, {y})",
               lambda: pgf.eval_joint_pgf(params, x, y, Mode.FLOAT), check)


def _marginal_float_job(size: int, side: Side, t: float, known_defect=None) -> Job:
    params = ModelParams(size, size, FLOAT_P)

    def check(value) -> list:
        reference = marginal_pgf_reference(size, size, float(FLOAT_P), t)
        if not _close(value, reference, FLOAT_RTOL):
            return [f"F_{side.value}({t}) = {value} != log-space reference {reference}"]
        return []

    return Job(f"eval_marginal_pgf float {size}x{size} {side.value} at {t}",
               lambda: pgf.eval_marginal_pgf(params, side, t, Mode.FLOAT), check,
               known_defect=known_defect)


def _moments_float_job(size: int) -> Job:
    params = ModelParams(size, size, FLOAT_P)

    def check(summary) -> list:
        exact = stats.moments(params)
        scale = math.sqrt(float(exact.var_x) * float(exact.var_y))
        problems = [f"{name} {getattr(summary, name)} != exact {float(getattr(exact, name))}"
                    for name in ("mean_x", "mean_y", "var_x", "var_y")
                    if not _close(getattr(summary, name), float(getattr(exact, name)), MOMENT_RTOL)]
        if not abs(summary.cov - float(exact.cov)) <= MOMENT_RTOL * scale:
            problems.append(f"cov {summary.cov} != exact {float(exact.cov)}")
        return problems

    return Job(f"moments float {size}x{size}", lambda: stats.moments(params, Mode.FLOAT), check)


def float_pgf(seed: int, smoke: bool) -> list:
    rng = random.Random(seed)
    x, y = (rng.randint(4, 19) / 20 for _ in range(2))
    small, large = (60, 80) if smoke else (500, 700)
    jobs = [
        _joint_float_job(small, x, 1.0),
        _joint_float_job(small, 1.0, y),
        _joint_float_job(small, 1.0, 1.0),
        _joint_float_job(large, x, y),
    ]
    for size in (small, large):
        jobs += [_marginal_float_job(size, Side.ACTIVE, x),
                 _marginal_float_job(size, Side.PASSIVE, y),
                 _moments_float_job(size)]
    # Float marginal PGFs overflow converting C(n-1, k) to float above about
    # n = 1030 (ROADMAP open item 2). They stay in the job list so the defect
    # shows, and their values are checked once it is fixed.
    jobs += [_marginal_float_job(2000, Side.ACTIVE, x, known_defect=OverflowError),
             _marginal_float_job(2000, Side.PASSIVE, y, known_defect=OverflowError),
             _moments_float_job(2000)]
    return jobs


# --- oracle_verify -----------------------------------------------------------

# n*m <= 22 so enumeration stays feasible; both orientations of each shape,
# since the edge-split recombination loops are not symmetric in n and m.
VERIFY_CASES = [
    (2, 11, "1/3"), (11, 2, "1/3"), (4, 5, "2/5"), (5, 4, "2/5"),
    (3, 7, "1/2"), (7, 3, "1/2"), (2, 10, "3/4"), (10, 2, "3/4"),
    (3, 6, "2/7"), (6, 3, "2/7"), (4, 4, "1/5"), (2, 9, "5/9"),
    (9, 2, "5/9"), (3, 5, "1/4"), (5, 3, "1/4"), (1, 22, "1/2"),
]
SMOKE_VERIFY_CASES = [(2, 3, "1/3"), (3, 2, "2/5")]


def _verify_job(n: int, m: int, p: str, fmt: str) -> Job:
    def check(text: str) -> list:
        if fmt == "json":
            statuses = {c["name"]: c["status"] for c in json.loads(text)["checks"]}
        else:
            statuses = dict(line.split(",") for line in text.splitlines()[1:] if line)
        if not statuses or any(status != "PASS" for status in statuses.values()):
            return [f"verify reported {statuses}"]
        return []

    argv = ["verify", "--n", str(n), "--m", str(m), "--p", p, "--format", fmt]
    return _cli_job(f"verify {n}x{m} p={p} {fmt}", argv, check)


def _gap_job(n: int, m: int, p: str) -> Job:
    params = ModelParams(n, m, Fraction(p))
    pinned = GAP_VALUES[n, m, p]

    def check(value) -> list:
        return [] if value == pinned else [f"gap {value} != pinned {pinned}"]

    return Job(f"independence_gap exact {n}x{m} p={p}",
               lambda: stats.independence_gap(params, stats.default_independence_grid()), check)


def _scan_job(n: int, m: int, grid: str) -> Job:
    start, stop, step = (Fraction(v) for v in grid.split(":"))
    expected_p = [start + i * step for i in range(int((stop - start) / step) + 1)]

    def check(text: str) -> list:
        rows = json.loads(text)["result"]

        def frac(value):
            return Fraction(int(value["num"]), int(value["den"]))

        if [frac(row["p"]) for row in rows] != expected_p:
            return ["scan p values differ from the grid"]
        problems = []
        for row in rows:
            p = frac(row["p"])
            # P(two given vertices share an object) = 1 - (1 - p^2)^m
            if frac(row["mean_x"]) != (n - 1) * (1 - (1 - p * p) ** m):
                problems.append(f"mean_x wrong at p={p}")
            if frac(row["mean_y"]) != (m - 1) * (1 - (1 - p * p) ** n):
                problems.append(f"mean_y wrong at p={p}")
            corr = row["corr"]
            if corr != "undefined" and not -1.0 <= corr <= 1.0:
                problems.append(f"corr {corr} outside [-1, 1] at p={p}")
        return problems

    argv = ["scan", "--n", str(n), "--m", str(m), "--p-grid", grid, "--format", "json"]
    return _cli_job(f"scan {n}x{m} {grid}", argv, check)


def oracle_verify(seed: int, smoke: bool) -> list:
    cases = SMOKE_VERIFY_CASES if smoke else VERIFY_CASES
    jobs = [_verify_job(n, m, p, ("csv", "json")[i % 2]) for i, (n, m, p) in enumerate(cases)]
    if smoke:
        return jobs + [_gap_job(3, 3, "1/5"), _scan_job(5, 5, "0:1:1/10")]
    return jobs + [_gap_job(10, 10, "1/5"), _scan_job(40, 40, "0:1:1/100")]


WORKLOADS = {
    "exact_pmf": exact_pmf,
    "monte_carlo": monte_carlo,
    "float_pgf": float_pgf,
    "oracle_verify": oracle_verify,
}


def jobs(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's job list for ``seed``.

    The order is fixed: repetitions keep earlier outputs until their checks
    run, so the order decides which outputs are alive at the peak of RSS.
    """
    return WORKLOADS[workload](seed, smoke)
