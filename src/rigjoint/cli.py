"""Command line surface: exact pmf tables, moments, Monte Carlo, verification.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments, 3 size
cap exceeded. ``_admit`` states every bound and refuses before any work but
for one: the int-to-str limit on the integers that exact ``moments`` and JSON
``scan`` print, which ``_digits`` checks as each is printed, after bounded
work. Each ``cmd_*`` function gets the admitted model from ``_admit`` and only
computes and renders. Every command writes its output once, through
``_write``, to stdout or --output, and identical invocations write identical
bytes. CSV, the default, is one or more blocks, each a header line and its
rows, with one blank line between blocks. --format json writes one object
{"params", "mode"[, "checks"], "result"}, indented by 2, in which an exact
fraction is {"num", "den"} as decimal digit strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import pgf
from .bipartite import empirical_joint, enumeration_refusal, exhaustive_joint, sample_words
from .exact import Mode, SizeCapError, _dec, _pair, parse_probability
from .pgf import ModelParams, Side, joint_pmf, marginal_pmf
from .stats import chi_square, moments, tv_distance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3

# Largest n and m at which pmf prints the exact law and simulate fits it.
EXACT_CAP = 40

# Longest --p-grid that scan accepts.
MAX_GRID_POINTS = 10_000

# Most n*m cells that simulate tallies and prints.
MAX_SIMULATE_CELLS = 1_000_000

# Most words simulate may draw: trials times bipartite.sample_words, the
# expected n + m + 2p*n*m per trial. On 2 vCPUs the sampler drew 80-214 M
# words/s on two lanes and 44-140 M on one CPU (slowest at 1000x1000 p=9/10,
# fastest at 10x10 p=1/5), so an accepted run samples for at most about 13 s,
# or 23 s on one CPU.
MAX_SIMULATE_WORDS = 10**9

# Largest decimal exponent, of either sign, in --p or a --p-grid part, where Fraction()
# builds 10^|exponent|: on 2 vCPUs 1e-100000 parsed in 0.01 s, 1e-1000000 in 0.33 s.
MAX_P_EXPONENT = 100_000

# Most exact work that moments and scan may do: the sum over grid points of D^2 +
# MOMENT_POINT_WORK, with D the digits of den(p)^(4 max(n, m)), or den(p)^4 at n = 1 or
# m = 1, which bounds the powers the closed forms build. A point's big-integer products and
# the five reductions of its moments cost about D^2, and any point costs about 30 us more,
# which MOMENT_POINT_WORK counts as squared digits. On 2 vCPUs, with stats.moments called
# directly, 2000x2000 at p = 1/9999 (D = 32000, int-to-str limit lifted) took 0.06 s and
# 100x100 at 600 points of den(p) = 10007 0.26 s, 0.6e-10 to 1.7e-10 s per squared digit.
# The slowest grids found at the bound, 10000 points with D near 300 (19x19 and 20x20 at
# --p-grid 1e-4:1:1e-4, 3x3 at 1e-26:1e-22:1e-26), took 0.75-0.85 s as in-process CSV scans.
MAX_MOMENT_WORK = 2 * 10**9
MOMENT_POINT_WORK = 10**5

# Most digits of den(p)^(n*m), the scale of every integer verify compares, that exact
# verify may reach. On 2 vCPUs, in-process, min of 3, verify took 0.11-0.18 s just below
# 16000 digits at 2x11, 11x2, 1x22, 22x1, 4x5, 5x4, 3x7 and 4x4, and 0.39-0.92 s at 5x10,
# 4x15, 3x20, 2x31 and 1x62 and their transposes, at p = 1/(10^d - 1) and p near 1/2.
MAX_VERIFY_DIGITS = 16_000

# A decimal with an exponent, as Fraction() reads one.
_EXPONENT = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?e[-+]?(\d+(?:_\d+)*)\s*",
    re.IGNORECASE,
)

# Fixed rational probes at which verify compares the joint PGF with the
# enumerated pmf's polynomial.
_VERIFY_POINTS = [
    (Fraction(2, 3), Fraction(3, 5)),
    (Fraction(-1, 2), Fraction(5, 4)),
    (Fraction(7, 4), Fraction(-2, 3)),
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(5, 2), Fraction(9, 7)),
]


def _too_many_digits() -> SizeCapError:
    return SizeCapError(
        f"result has an integer of more than {sys.get_int_max_str_digits()} digits, "
        "over Python's integer-to-string limit"
    )


def _digits(value: int) -> str:
    """Decimal digits of an integer; SizeCapError past Python's int-to-str limit."""
    try:
        return str(value)
    except ValueError as exc:  # str(int) raises only at the limit, a process-wide setting
        raise _too_many_digits() from exc


def _power_past(base: int, exp: int, digits: int) -> bool:
    """Whether base^exp >= 10^digits, for exp >= 1; False if base < 2.

    digits = 0, Python's int-to-str setting for no limit, bounds nothing. The
    test compares log2(exp) + log2(log2(base)) with log2(digits log2(10)), which
    overflows at no size argparse accepts, and is exact where the two are too
    close to call.
    """
    if digits == 0 or base < 2:
        return False
    gap = math.log2(exp) + math.log2(math.log2(base)) - math.log2(digits * math.log2(10))
    if abs(gap) > 1e-9:
        return gap > 0
    return base**exp >= 10**digits


def _exact_law_refusal(params: ModelParams) -> SizeCapError | None:
    """Why ``pmf`` cannot compute and print the exact law of ``params``, or None.

    n, m <= ``EXACT_CAP``. Every integer ``pmf`` prints is at most its
    scale b^(n*m), b = den(p). With p = a/b in lowest terms, c = b - a and n >= 2,
    P(X=0) = sum_d C(m,d) a^d c^(m-d+d(n-1)) b^((m-d)(n-1)) / b^(n*m): each term
    with d < m carries a factor b and the d = m term a^m c^(m(n-1)) is coprime
    to b, so P(X=0) in lowest terms has the whole scale as its denominator; so
    has P(Y=0) when m >= 2. Hence for n*m >= 2 the int-to-str limit is passed
    iff scale >= 10^limit. ``simulate`` fits the exact law where this is None.
    """
    if params.n > EXACT_CAP or params.m > EXACT_CAP:
        return SizeCapError(f"exact pmf capped at n, m <= {EXACT_CAP}")
    cells = params.n * params.m
    if cells >= 2 and _power_past(params.p.denominator, cells, sys.get_int_max_str_digits()):
        return _too_many_digits()
    return None


def _frac(value: Fraction) -> str:
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _json_value(value) -> dict:
    """JSON for the two types json cannot encode: a model and a fraction."""
    if isinstance(value, ModelParams):
        return {"n": value.n, "m": value.m, "p": value.p}
    return {"num": _digits(value.numerator), "den": _digits(value.denominator)}


def _moment_fields(summary, names) -> dict:
    """The named fields of a MomentSummary, then corr, "undefined" where it is None."""
    values = {name: getattr(summary, name) for name in names}
    values["corr"] = "undefined" if summary.corr is None else summary.corr
    return values


def _write(args, head: dict, result, blocks) -> None:
    """Write one command's output in --format to --output, as the module docstring says.

    JSON is ``{**head, "result": result()}``; CSV joins the blocks of
    ``blocks()``, each a list of lines. Only the requested format's callable runs.
    """
    if args.format == "json":
        text = json.dumps({**head, "result": result()}, indent=2, default=_json_value) + "\n"
    else:
        text = "\n\n".join("\n".join(block) for block in blocks()) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:  # a usage error (exit 2), not a failed check (exit 1)
        raise ValueError(f"cannot write --output {args.output}: {exc.strerror or exc}") from exc


def _law_cells(counts, scale: int, base: int):
    """Yield (numerator digits, denominator digits, decimal) of each count / scale.

    ``scale`` is a power of ``base`` = den(p). Once gcd(c, base^j) equals
    gcd(c, base^(2j)), c holds no more of any prime of ``base`` than base^j
    does, so that gcd is gcd(c, scale). The exponent doubles from 1 and the
    last step is the scale itself, so a count with few factors of ``base``
    costs a few gcds against small powers instead of one against the whole
    scale. Each distinct count is rendered once per call, and the digits of
    each distinct denominator are made once: a repeated count, such as the
    mirror cell of a symmetric law, costs one lookup. The decimal is the
    correctly rounded int/int division, the same double as
    ``float(Fraction(c, scale))``.
    """
    powers = []
    power = base
    while power < scale:
        powers.append(power)
        power *= power
    powers.append(scale)
    cells = {}  # count -> its rendered cell
    den_digits = {}  # gcd -> digits of scale // gcd
    for c in counts:
        cell = cells.get(c)
        if cell is None:
            g = 0
            for power in powers:
                step = math.gcd(c, power)
                if step == g:
                    break
                g = step
            if g not in den_digits:
                den_digits[g] = _digits(scale // g)
            cell = cells[c] = _digits(c // g), den_digits[g], f"{c / scale:.17g}"
        yield cell


def cmd_pmf(args, params: ModelParams) -> int:
    """Print the exact joint law and both marginals in lowest terms.

    Rendered straight from each law's integer counts and scale (``_law_cells``);
    the ``Fraction`` view ``.pmf`` is for library callers.
    """
    dist = joint_pmf(params)
    base = params.p.denominator
    joint = zip(
        ((a, b) for a in range(params.n) for b in range(params.m)),
        _law_cells([c for row in dist.counts for c in row], dist.scale, base),
    )
    marginals = [
        (law.side.value, enumerate(_law_cells(law.counts, law.scale, base)))
        for law in [marginal_pmf(params, side) for side in Side]
    ]
    _write(
        args,
        {"params": params, "mode": "exact"},
        lambda: {
            "joint": [
                {"a": a, "b": b, "prob": {"num": num, "den": den}}
                for (a, b), (num, den, _) in joint
            ],
            **{
                f"marginal_{name}": [
                    {"degree": degree, "prob": {"num": num, "den": den}}
                    for degree, (num, den, _) in cells
                ]
                for name, cells in marginals
            },
        },
        lambda: [
            ["a,b,prob_rational,prob_decimal",
             *(f"{a},{b},{num}/{den},{dec}" for (a, b), (num, den, dec) in joint)],
            ["side,degree,prob_rational,prob_decimal",
             *(f"{name},{degree},{num}/{den},{dec}"
               for name, cells in marginals for degree, (num, den, dec) in cells)],
        ],
    )
    return EXIT_OK


def cmd_moments(args, params: ModelParams) -> int:
    mode = Mode(args.mode)
    values = _moment_fields(moments(params, mode), ("mean_x", "mean_y", "var_x", "var_y", "cov"))
    _write(
        args,
        {"params": params, "mode": mode.value},
        lambda: values,
        lambda: [[
            "quantity,value_rational,value_decimal",
            *(f"{name},{_frac(value) if isinstance(value, Fraction) else ''},{_dec(value)}"
              for name, value in values.items()),
        ]],
    )
    return EXIT_OK


def cmd_simulate(args, params: ModelParams, fit: bool) -> int:
    emp = empirical_joint(params, args.trials, args.seed)
    metrics = {}
    if fit:
        dist = joint_pmf(params)
        metrics["tv_distance"] = tv_distance(dist, emp)
        try:
            statistic, dof = chi_square(dist, emp)
            chi = (_dec(statistic), str(dof))
        except ValueError:
            chi = ("undefined", "undefined")
        metrics["chi_square_statistic"], metrics["chi_square_dof"] = chi

    _write(
        args,
        {"params": params, "mode": "exact"},
        lambda: {
            "counts": [list(row) for row in emp.counts],
            "trials": emp.trials,
            "seed": emp.seed,
            **metrics,
        },
        lambda: [
            ["x,y,count", *(f"{x},{y},{count}" for x, row in enumerate(emp.counts)
                            for y, count in enumerate(row))],
            ["metric,value", f"trials,{emp.trials}", f"seed,{emp.seed}",
             *(f"{name},{_dec(value)}" for name, value in metrics.items())],
        ],
    )
    return EXIT_OK


def _formula_check(name: str, mismatches) -> tuple:
    """(name, "PASS" or "FAIL") for one comparison of the closed forms with enumeration.

    ``mismatches`` yields a description of each disagreement; the first one,
    if any, goes to stderr. A wrong closed form can yield a table that no
    model has, which makes the pipeline raise ValueError; that is a failed
    check, not a usage error.
    """
    try:
        first = next(mismatches(), None)
    except ValueError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return name, "FAIL"
    if first is not None:
        print(f"{name}: first mismatch at {first}", file=sys.stderr)
    return name, "PASS" if first is None else "FAIL"


def _cell_mismatches(cell: str, left: tuple, right: tuple):
    """Describe each cell where two tables differ: "(cell) = (i,j): name value, name value".

    ``left`` and ``right`` are (name, rows, scale): integer rows over one scale
    each, compared cell by cell by cross-multiplication. Fractions are formed,
    and shown by ``_pair``, only for a mismatch.
    """
    (name, rows, scale), (other_name, other_rows, other_scale) = left, right
    for i, (row, other_row) in enumerate(zip(rows, other_rows)):
        for j, (c, d) in enumerate(zip(row, other_row)):
            if c * other_scale != d * scale:
                yield f"({cell}) = ({i},{j}): " + _pair(
                    name, Fraction(c, scale), other_name, Fraction(d, other_scale))


def cmd_verify(args, params: ModelParams) -> int:
    """Check the closed forms against enumeration, on one moment table per invocation.

    The table is built when a check first reads it, through ``pgf.moment_table``
    as it is looked up then; a table that raises ValueError fails each check
    that reads it, with the same message. ``enumeration_vs_formula`` compares
    its sieved law with the enumerated one, and ``edge_split_recombination``
    it with ``pgf.edge_split_table``, both cell by cell (``_cell_mismatches``).
    ``pgf_transform_identity`` compares in integers: at each probe point the
    enumerated polynomial is one integer over scale * den(x)^(n-1) *
    den(y)^(m-1), cross-multiplied with the table's F, and Fractions are
    formed only to report a mismatch. So all three checks test the table that
    ``pmf`` sieves.
    """
    n, m = params.n, params.m
    oracle = exhaustive_joint(params)

    @functools.cache
    def table():
        return pgf.moment_table(params)

    def formula_mismatches():
        law = pgf.sieve_invert(table())
        return _cell_mismatches("a,b", ("formula", law.counts, law.scale),
                                ("enumeration", oracle.counts, oracle.scale))

    def edge_split_mismatches():
        split = pgf.edge_split_table(params)
        return _cell_mismatches("k,l", ("edge split", split.numerators, split.scale),
                                ("closed form", table().numerators, table().scale))

    def transform_mismatches():
        for x, y in _VERIFY_POINTS:
            value = table().eval_pgf(x, y)
            # x^a y^b = xs[a] ys[b] / (den(x)^(n-1) den(y)^(m-1))
            xs = [x.numerator**a * x.denominator ** (n - 1 - a) for a in range(n)]
            ys = [y.numerator**b * y.denominator ** (m - 1 - b) for b in range(m)]
            numerator = sum(
                xa * sum(c * yb for c, yb in zip(row, ys)) for xa, row in zip(xs, oracle.counts)
            )
            denominator = oracle.scale * x.denominator ** (n - 1) * y.denominator ** (m - 1)
            if value.numerator * denominator != numerator * value.denominator:
                yield f"(x,y) = ({x},{y}): " + _pair(
                    "PGF", value, "enumerated polynomial", Fraction(numerator, denominator))

    checks = [
        _formula_check("enumeration_vs_formula", formula_mismatches),
        _formula_check("edge_split_recombination", edge_split_mismatches),
        _formula_check("pgf_transform_identity", transform_mismatches),
    ]

    verdict = "PASS" if all(status == "PASS" for _, status in checks) else "FAIL"
    _write(
        args,
        {
            "params": params,
            "mode": "exact",
            "checks": [{"name": name, "status": status} for name, status in checks],
        },
        lambda: verdict,
        lambda: [["check,status", *(f"{name},{status}" for name, status in checks)]],
    )
    return EXIT_OK if verdict == "PASS" else EXIT_CHECK_FAILED


def cmd_scan(args, points: list) -> int:
    mode = Mode(args.mode)
    rows = [
        {"p": params.p, **_moment_fields(moments(params, mode), ("mean_x", "mean_y", "cov"))}
        for params in points
    ]
    _write(
        args,
        {"params": {"n": args.n, "m": args.m, "p_grid": args.p_grid}, "mode": mode.value},
        lambda: rows,
        lambda: [["p,mean_x,mean_y,cov,corr", *(",".join(map(_dec, r.values())) for r in rows)]],
    )
    return EXIT_OK


def _admit(args) -> dict:
    """Refuse, before any work, an input past any bound; else ``args.func``'s arguments.

    Every bound is stated here once: SizeCapError exits 3, ValueError 2. Exact
    moments are admitted by their work alone; ``_digits`` refuses a printed
    integer past the int-to-str limit after that work. The arguments are
    ``params``, the model, or for scan ``points``, one model per grid point;
    simulate also gets ``fit``, whether pmf admits the exact law.
    """
    command, n, m = args.command, args.n, args.m
    mode = Mode(getattr(args, "mode", "exact"))
    if command in ("pmf", "verify") and mode is Mode.FLOAT:
        raise ValueError(f"{command} requires exact mode; float pmf extraction is unsupported")
    if n < 1 or m < 1:
        raise ValueError("--n and --m must be at least 1")
    texts = args.p_grid.split(":") if command == "scan" else [args.p]
    if command == "scan" and len(texts) != 3:
        raise ValueError(f"--p-grid must be start:stop:step, got {args.p_grid!r}")
    for text in texts:
        exponent = _EXPONENT.fullmatch(text)
        try:
            past = exponent is not None and int(exponent[1]) > MAX_P_EXPONENT
        except ValueError:  # past the int-to-str limit; Fraction() refuses the text too
            past = False
        if past:
            raise SizeCapError(f"--p and --p-grid take decimal exponents up to {MAX_P_EXPONENT}")
    if command != "scan":
        points = [ModelParams(n, m, parse_probability(args.p))]
    else:
        try:
            start, stop, step = map(Fraction, texts)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--p-grid has a non-numeric component: {args.p_grid!r}")
        if step <= 0:
            raise ValueError("--p-grid step must be positive")
        if start > stop:
            raise ValueError("--p-grid start must not exceed stop")
        if start < 0 or stop > 1:
            raise ValueError("--p-grid must stay within [0, 1]")
        count = (stop - start) // step + 1
        if count > MAX_GRID_POINTS:
            limit = sys.get_int_max_str_digits()
            size = f"at least 10^{limit}" if _power_past(count, 1, limit) else str(count)
            raise SizeCapError(f"--p-grid has {size} points; scan is capped at {MAX_GRID_POINTS}")
        points = [ModelParams(n, m, start + i * step) for i in range(count)]
    params = points[0]

    if command == "simulate":
        if n * m > MAX_SIMULATE_CELLS:
            raise SizeCapError(
                f"simulate tallies n*m = {n * m} cells; capped at {MAX_SIMULATE_CELLS}"
            )
        if args.trials < 1:
            raise ValueError("--trials must be at least 1")
        words = args.trials * sample_words(params)
        if words > MAX_SIMULATE_WORDS:
            raise SizeCapError(
                f"simulate would draw about {words:.3g} words; capped at {MAX_SIMULATE_WORDS:.0e}"
            )
    if command in ("pmf", "simulate"):
        refusal = _exact_law_refusal(params)
        if command == "simulate":
            return {"params": params, "fit": refusal is None}
        if refusal:
            raise refusal
    if command == "verify":
        refusal = enumeration_refusal(n, m)
        if refusal:
            raise refusal
        if _power_past(params.p.denominator, n * m, MAX_VERIFY_DIGITS):
            raise SizeCapError(f"verify needs den(p)^(n*m) below 10^{MAX_VERIFY_DIGITS}")
    if command in ("moments", "scan") and mode is Mode.FLOAT:
        # the closed forms multiply n-1, n-2 and m-1 into doubles, as (n-1)((n-2) x) and
        # (n-1)((m-1) x) with 0 <= x <= 1, and each product is at most a variance or the
        # covariance: below C(n-1,2), C(m-1,2) or (n-1)(m-1)
        try:
            float(max(n - 1, m - 1, math.comb(n - 1, 2), math.comb(m - 1, 2), (n - 1) * (m - 1)))
        except OverflowError:
            raise SizeCapError(
                "float moments need C(n-1,2), C(m-1,2) and (n-1)(m-1) within a double's range"
            ) from None
    elif command in ("moments", "scan"):
        side = max(n, m) if min(n, m) > 1 else 1
        try:  # p = 0 and p = 1 are point masses and build no powers
            work = sum((4 * side * math.log10(point.p.denominator)) ** 2 + MOMENT_POINT_WORK
                       for point in points if point.p.denominator > 1)
        except OverflowError:  # a side, or its powers' digits squared, past the doubles
            work = math.inf
        if work > MAX_MOMENT_WORK:
            size = f"more than {sys.float_info.max:.3g}" if work == math.inf else f"{work:.3g}"
            raise SizeCapError(f"exact moments need {size} squared digits of den(p) powers "
                               f"(summed over the grid in scan); capped at {MAX_MOMENT_WORK:.0e}")
    return {"points": points} if command == "scan" else {"params": params}


@functools.cache  # parse_args leaves the parser as it was, so every main() call shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigjoint",
        description="Exact joint degree law of the two projections of a random bipartite graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for func, text in [
        (cmd_pmf, "exact joint pmf with both marginals"),
        (cmd_moments, "means, variances, covariance, correlation"),
        (cmd_simulate, "seeded Monte Carlo tallies plus fit metrics"),
        (cmd_verify, "check the formulas against full enumeration"),
        (cmd_scan, "sweep moments over a grid of p values"),
    ]:
        command = sub.add_parser(func.__name__[len("cmd_"):], help=text)
        command.set_defaults(func=func)
        command.add_argument("--n", type=int, required=True, help="number of vertices")
        command.add_argument("--m", type=int, required=True, help="number of objects")
        if func is not cmd_scan:
            command.add_argument("--p", required=True, help="edge probability, 'a/b' or decimal")
        if func is not cmd_simulate:
            command.add_argument("--mode", choices=["exact", "float"], default="exact")
        command.add_argument("--format", choices=["csv", "json"], default="csv")
        command.add_argument("--output", default=None, help="write to file instead of stdout")
        if func is cmd_simulate:
            command.add_argument("--trials", type=int, required=True)
            command.add_argument("--seed", type=int, default=0)
        if func is cmd_scan:
            command.add_argument("--p-grid", required=True, help="start:stop:step, e.g. 0:1:0.05")
    return parser


def main(argv=None) -> int:
    # argparse takes -1/2 or -0.1:1:0.1 for an option; joined to its flag, _admit refuses it
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and re.fullmatch(r"--\w[\w-]*", tokens[-1]) and re.match(r"-\.?\d", token):
            token = f"{tokens.pop()}={token}"
        tokens.append(token)
    try:
        args = build_parser().parse_args(tokens)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args, **_admit(args))
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
