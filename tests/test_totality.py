"""Every CLI command is total over a grid of sizes, probabilities, modes and formats.

Each invocation exits 0, 1, 2 or 3 without a traceback, in under 2 s, and a
refusal prints nothing on stdout and exactly one line on stderr. The grid
holds n, m in SIZES and the shapes 2x31 and 2x32, p in PROBABILITIES, both
modes and both formats, and simulate with 1 and 100 trials. The shapes with a
side in WORKING_SIZES, and 2x31, do real work (about 10 s together on 2
vCPUs, against 1 s for the rest), so they run only with
RIGJOINT_TOTALITY=full, which CI's "Totality grid" step sets.

An operation on one big integer does not yield to a signal, so an input the
CLI fails to bound shows up as a hang here: to find it, run the grid one
invocation at a time under a timeout from outside the process.
"""

import os
import time

import pytest

from rigjoint import cli

SIZES = [1, 2, 20, 40, 41, 10**20, 10**160, 10**400]
WORKING_SIZES = {20, 40, 41}
PROBABILITIES = [
    "0", "1", "1/2", "0.000001", "1e-300", "1e-3000", "1/" + "7" * 200, "1e-10000000",
]
FULL = os.environ.get("RIGJOINT_TOTALITY") == "full"
FULL_ONLY = pytest.mark.skipif(not FULL, reason="set RIGJOINT_TOTALITY=full")


def invocations(n, m):
    for p in PROBABILITIES:
        for fmt in ("csv", "json"):
            shape = ["--n", str(n), "--m", str(m), "--format", fmt]
            for mode in ("exact", "float"):
                for command in ("pmf", "moments", "verify"):
                    yield [command, "--p", p, *shape, "--mode", mode]
                yield ["scan", "--p-grid", f"{p}:{p}:1", *shape, "--mode", mode]
            for trials in ("1", "100"):
                yield ["simulate", "--p", p, *shape, "--trials", trials]


def label(size):
    return str(size) if size < 100 else f"1e{len(str(size)) - 1}"


SHAPES = [
    pytest.param(
        n, m, id=f"{label(n)}x{label(m)}", marks=[FULL_ONLY] if {n, m} & WORKING_SIZES else []
    )
    for n in SIZES
    for m in SIZES
]
# past 22 cells: the last 2-wide shape that verify enumerates, and the first it refuses
SHAPES += [pytest.param(2, 31, id="2x31", marks=FULL_ONLY), pytest.param(2, 32, id="2x32")]


@pytest.mark.parametrize("n,m", SHAPES)
def test_every_invocation_exits_as_documented(capsys, n, m):
    for argv in invocations(n, m):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, code, err)
        if code:
            assert out == "" and err.endswith("\n") and err.count("\n") == 1, (argv, err)
        assert elapsed < 2, (argv, elapsed)
