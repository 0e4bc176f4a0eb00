"""Mutation gate: every mutant listed here must make the test suite fail.

A mutant is (file, old text, new text, reason, killer), where killer is the
test file that killed it when it was added. For each one the runner:

- copies ``src/`` and ``tests/`` to a temporary directory;
- checks that the old text occurs exactly once in the file, so a refactor that
  removes the site fails the gate instead of silently dropping the mutant;
- applies the mutant, and checks that a fresh interpreter imports ``rigjoint``
  from the mutated copy, not from an installed or editable one;
- runs ``python -m pytest -x -q`` on the killer file there, and on the whole
  of ``tests`` only when that file passes, and requires a test to fail
  (pytest's exit code 1; a collection or usage error does not count).

It presumes a passing suite, so run it after the tier-1 tests, from any
directory:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 3 12     # mutants by number
    python tests/mutants.py --list

A mutant that survives either gets a test that kills it or, if it cannot
change any result, is removed here with the reason stated in CHANGES.md. A
mutant killed only by the whole suite gets that failing test's file as its
killer.
Mutation testing as a check of a suite's power: DeMillo, Lipton and Sayward,
"Hints on Test Data Selection", IEEE Computer, 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BIPARTITE = "src/rigjoint/bipartite.py"
PGF = "src/rigjoint/pgf.py"
STATS = "src/rigjoint/stats.py"
CLI = "src/rigjoint/cli.py"

BIPARTITE_TESTS = "tests/test_bipartite.py"
CLI_TESTS = "tests/test_cli.py"
PGF_TESTS = "tests/test_pgf.py"
STATS_TESTS = "tests/test_stats.py"
TOTALITY_TESTS = "tests/test_totality.py"

# _law_cells's memo, from its lookup to its store, for a mutant that changes both keys
_LAW_MEMO = """cell = cells.get(c)
        if cell is None:
            g = 0
            for power in powers:
                step = math.gcd(c, power)
                if step == g:
                    break
                g = step
            if g not in den_digits:
                den_digits[g] = _digits(scale // g)
            cell = cells[c] ="""

MUTANTS = [
    (PGF, "lead_step = c * b**l", "lead_step = c * b ** (l + 1)",
     "closed form: the lead term's step in k has exponent l", TOTALITY_TESTS),
    (PGF, "c[j] -= c[j + 1]", "c[j] += c[j + 1]",
     "sieve: the binomial transform's sign", TOTALITY_TESTS),
    (STATS, "* (4 + p - 2 * p * p - p**3)", "* (4 + p - 2 * p * p + p**3)",
     "moments: the sign of p^3 in cov's polynomial", CLI_TESTS),
    (PGF, "            * bracket\n        )", "            * bracket\n            + (k == 3 and l == 0)\n        )",
     "closed form: +1 on the edge column N[3][0], which the marginals read", CLI_TESTS),
    (PGF, "_CUT_TOLERANCE = 2.0**-60", "_CUT_TOLERANCE = 2.0**-30",
     "float joint PGF: a window 2^30 times too wide", PGF_TESTS),
    (STATS, "small = 5 * dist.scale", "small = 4 * dist.scale",
     "chi-square: pooling threshold 5 -> 4", CLI_TESTS),
    (STATS, "dist.scale * emp.trials)) / 2.0", "dist.scale * emp.trials)) / 2.5",
     "TV distance: divisor 2 -> 2.5", CLI_TESTS),
    (PGF, "lo = np.count_nonzero(np.cumsum(weights) <= half)",
     "lo = np.count_nonzero(np.cumsum(weights) <= 4 * budget)",
     "float joint PGF: the window's lower cut at 4x its budget", PGF_TESTS),
    (PGF, "budget = _CUT_TOLERANCE / 3 * max(jensen, q ** (n + m - 1))",
     "budget = max(1e-8, _CUT_TOLERANCE / 3 * max(jensen, q ** (n + m - 1)))",
     "float joint PGF: a floor of 1e-8 on the window budget", PGF_TESTS),
    (PGF, "per_vertex = (c * b**l + a * c**l) * b ** (m - 1 - l)",
     "per_vertex = (c * b**l + a * c**l) * b ** (m - 1 - l) if l else b ** (m - 1)",
     "closed form: a wrong padding in column l = 0 only, the marginals' edge column",
     TOTALITY_TESTS),
    (PGF, "else (params.m, params.n)\n    column = _closed_form",
     "else (params.n, params.m)\n    column = _closed_form",
     "marginal_pmf: the passive side reads the (n, m) model, not (m, n)", CLI_TESTS),
    (PGF, "else (params.m, params.n)\n    if mode is Mode.EXACT:",
     "else (params.n, params.m)\n    if mode is Mode.EXACT:",
     "eval_marginal_pgf: the passive side reads the (n, m) model, not (m, n)", PGF_TESTS),
    (PGF, "for i in range(len(c) - 1):", "for i in range(len(c) - 2):",
     "sieve: one pass of the Taylor shift too few", TOTALITY_TESTS),
    (PGF, "(comb(size - 1, k) * (q + p * q**k) ** other)",
     "(comb(size - 1, k) * (q + p * q ** (k + 1)) ** other)",
     "float marginal PGF: q^(k+1) for q^k in the moment", PGF_TESTS),
    (PGF, "        if k > first:\n            powers", "        if k > first + 1:\n            powers",
     "closed form: the running product in k skips its first step", TOTALITY_TESTS),
    (PGF, "a_pow[x] * c_pow[y] * b_pow[top - x - y]", "a_pow[x] * c_pow[y] * b_pow[top - x - y - 1]",
     "edge-split power table: a term padded by one power of b too few", TOTALITY_TESTS),
    (PGF, "(m - j) + (j - 1) * k + (n - i)", "(m - j) + j * k + (n - i)",
     "edge conditional: the tracked object's objects also avoid the marked vertices",
     TOTALITY_TESTS),
    (PGF, "(i_o + i_s) * l - i_s * j_s)", "(i_o + i_s) * l + i_s * j_s)",
     "non-edge conditional: the overlap correction's sign", TOTALITY_TESTS),
    (STATS, "var = (size - 1) * (power * complement)", "var = size * (power * complement)",
     "moments: _side's binomial variance term has factor size, not size-1", CLI_TESTS),
    (PGF, "    column = _closed_form(size, other, params.p, 0)\n    scale",
     "    column = [row[0] for row in moment_table(ModelParams(size, other, params.p)).numerators]"
     "\n    scale",
     "marginal_pmf: the right column, read off the whole size x other table", PGF_TESTS),
    (STATS, "log_q = math.log(q) if q >= sys.float_info.min else math.log(b - a) - math.log(b)",
     "log_q = math.log(max(q, sys.float_info.min))",
     "float moments: no fallback where 1-p is below the normal doubles", STATS_TESTS),
    (STATS, "if f <= 0.5:", "if f < 1:",
     "float moments: log1p(-p^2) up to p near 1, not the logs factored around log q", CLI_TESTS),
    (CLI, "_power_past(params.p.denominator, cells, sys.get_int_max_str_digits())",
     "_power_past(params.p.denominator, cells - 1, sys.get_int_max_str_digits())",
     "pmf admission: the scale's digits bounded one power of den(p) short", CLI_TESTS),
    (CLI, "- math.log2(factor.numerator)\n              + math.log2(factor.denominator))",
     "- math.log2(factor.numerator))",
     "_power_past: the factor's denominator ignored by the log-space test", CLI_TESTS),
    (CLI, "        power *= power\n    powers.append(scale)", "        power *= power",
     "_law_cells: the last gcd against the whole scale dropped", TOTALITY_TESTS),
    (BIPARTITE, "z ^= np.right_shift(z, np.uint64(27), out=shifted)",
     "z ^= np.right_shift(z, np.uint64(28), out=shifted)",
     "split-mix finalizer: the second xor-shift by 28, not 27", CLI_TESTS),
    (PGF, "if all(0 <= v <= 1 for v in values):", "if all(-1 <= v <= 1 for v in values):",
     "float PGFs' domain gate: admits [-1, 1], not [0, 1]", PGF_TESTS),
    (BIPARTITE, " if not stop.is_set())", ")",
     "run_batches: a lane runs on after another lane fails", BIPARTITE_TESTS),
    (BIPARTITE, "first = (seed + (start + 1) * _GAMMA) & _MASK",
     "first = (seed + start * _GAMMA) & _MASK",
     "trial seeds: trial i mixes seed + i*gamma, not seed + (i+1)*gamma", BIPARTITE_TESTS),
    (PGF, "half[k][l - k]", "half[k][0]",
     "square table: the cells above the diagonal read from the wrong place in column k",
     TOTALITY_TESTS),
    (CLI, _LAW_MEMO, _LAW_MEMO.replace("cells.get(c)", "cells.get(c.bit_length())")
     .replace("cells[c]", "cells[c.bit_length()]"),
     "_law_cells: the memo keyed by bit length, coarser than the count", CLI_TESTS),
    (STATS, "+ other.num, other.exp, self.base)", "+ other.num, self.exp, self.base)",
     "exact moments: a sum lifted to the larger exponent kept at the smaller", STATS_TESTS),
    (PGF, "if lhs * table.scale != numerator * scale:", "if lhs != numerator:",
     "edge-split sweep: numerators compared without cross-multiplying the scales", PGF_TESTS),
    (BIPARTITE, "((tracked & line) != 0)", "((tracked & line) >= 0)",
     "enumeration step: x also grows for a line that misses the tracked line", BIPARTITE_TESTS),
    (BIPARTITE, "np.where(line & 1, covered | line, covered)", "(covered | line)",
     "enumeration step: a line without bit 0 also covers its bits", BIPARTITE_TESTS),
]


def _describe(number: int) -> str:
    file, _, _, reason, killer = MUTANTS[number - 1]
    return f"{number:2d} {file}: {reason} [{killer}]"


def run_mutant(number: int) -> tuple:
    """(killed, seconds, target) for one mutant; SystemExit if it cannot be judged.

    ``target`` is what was run last: the killer file, or ``tests`` when that
    file passed and the whole suite ran.
    """
    file, old, new, _, killer = MUTANTS[number - 1]
    with tempfile.TemporaryDirectory(prefix="rigjoint-mutant-") as tmp:
        tmp = Path(tmp).resolve()
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = tmp / file
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"mutant {number}: its old text occurs {text.count(old)} times "
                             f"in {file}, not once: {old!r}")
        target.write_text(text.replace(old, new))
        path = os.pathsep.join(filter(None, [str(tmp / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        where = subprocess.run(
            [sys.executable, "-c", "import rigjoint; print(rigjoint.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(tmp):
            raise SystemExit(f"mutant {number}: rigjoint was imported from {where}, "
                             "not from the mutated copy")
        start = time.perf_counter()
        for target in (killer, "tests"):
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", target],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            if done.returncode not in (0, 1):
                raise SystemExit(f"mutant {number}: pytest {target} exited {done.returncode}, "
                                 f"so no test ran to judge it:\n"
                                 f"{done.stdout[-3000:]}{done.stderr[-3000:]}")
            if done.returncode == 1:
                break
        seconds = time.perf_counter() - start
    return done.returncode == 1, seconds, target


def main(argv: list) -> int:
    if argv == ["--list"]:
        print("\n".join(_describe(number) for number in range(1, len(MUTANTS) + 1)))
        return 0
    numbers = [int(arg) for arg in argv] or range(1, len(MUTANTS) + 1)
    survivors = []
    for number in numbers:
        killed, seconds, target = run_mutant(number)
        verdict = "killed  " if killed else "SURVIVED"
        if killed and target == "tests":
            verdict = "killed by the whole suite, not its killer file:"
        print(f"{verdict} {seconds:6.1f} s  {_describe(number)}", flush=True)
        if not killed:
            survivors.append(number)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {survivors}")
        return 1
    print(f"all {len(numbers)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
