"""Span tracer that times calls into rigjoint's public functions from outside.

Each traced function is replaced, in every ``rigjoint`` module namespace that
holds it, by a wrapper that records a span (name, start, end, parent, error)
in memory. Callers resolve functions through their own module's globals, so
``cli`` reaches ``rigjoint.cli.joint_pmf`` while ``joint_pmf`` reaches
``rigjoint.pgf.moment_table``; patching every namespace that holds the same
function object catches both without touching the package's source. The
patches are undone when ``Tracer.installed`` exits.

The size hooks (``_table_sizes`` and the others named in ``TIMED``) derive
their counts from call arguments: they are computed from input sizes, not
measured inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span in Tracer.spans; -1 for a job root
    error: str = ""  # exception type name when the call raised


def _exact(args) -> bool:
    mode = args.get("mode")
    return mode is None or getattr(mode, "value", mode) == "exact"


def _scale_bits(params) -> int:
    """Bit length of the exact pipeline's common denominator den(p)^(n*m)."""
    return (params.p.denominator ** (params.n * params.m)).bit_length()


def _table_sizes(tracer, args):
    params = args["params"]
    tracer.totals["pgf.moment_table.cells"] += params.n * params.m
    if _exact(args):
        tracer.peak("pgf.scale_bits", _scale_bits(params))


def _marginal_sizes(tracer, args):
    if _exact(args):
        tracer.peak("pgf.scale_bits", _scale_bits(args["params"]))


def _sampler_sizes(tracer, args):
    params = args["params"]
    tracer.totals["bipartite.words_drawn"] += args["trials"] * params.n * params.m


def _empirical_sizes(tracer, args):
    tracer.totals["bipartite.empirical_joint.trials"] += args["trials"]
    _sampler_sizes(tracer, args)


def _enumeration_sizes(tracer, args):
    params = args["params"]
    tracer.totals["bipartite.graphs_enumerated"] += 1 << (params.n * params.m)


# Functions timed with a span, each with the hook that records its computed
# sizes. Keys are "<module>.<function>" under the rigjoint package.
TIMED = {
    "cli.main": None,
    "pgf.moment_table": _table_sizes,
    "pgf.sieve_invert": None,
    "pgf.marginal_pmf": _marginal_sizes,
    "pgf.eval_joint_pgf": None,
    "pgf.eval_marginal_pgf": None,
    "pgf.recombination_check": None,
    "bipartite.empirical_joint": _empirical_sizes,
    "bipartite.exhaustive_joint": _enumeration_sizes,
    "stats.moments": None,
    "stats.independence_gap": None,
    "stats.tv_distance": None,
    "stats.chi_square": None,
    "stats.edge_count_correlation": _sampler_sizes,
}
# Called too often, with too little work per call, for a span to be cheap.
COUNTED = ("pgf.moment_entry",)

# Every per-layer metric in report order, with its unit. BENCHMARK.json's
# per_layer list names exactly these.
_CALL_FIELDS = (("s", "s"), ("calls", "count"), ("errors", "count"))
PER_LAYER = (
    [(f"cli.main.{field}", unit) for field, unit in _CALL_FIELDS]
    + [("cli.main.self_s", "s"), ("cli.output_bytes", "bytes")]
    + [(f"{name}.{field}", unit) for name in TIMED if name != "cli.main"
       for field, unit in _CALL_FIELDS]
    + [
        ("pgf.moment_table.cells", "count"),
        ("pgf.moment_entry.calls", "count"),
        ("pgf.scale_bits", "bits"),
        ("bipartite.empirical_joint.trials", "count"),
        ("bipartite.words_drawn", "count"),
        ("bipartite.graphs_enumerated", "count"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """In-memory spans and counters for one traced repetition of a job list."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: Counter = Counter()
        self._stack: list[int] = []

    def peak(self, name: str, value: int) -> None:
        self.totals[name] = max(self.totals[name], value)

    @contextlib.contextmanager
    def job(self, label: str):
        """Root span around one job; every span it causes shares its root."""
        with self._span(f"job:{label}"):
            yield

    @contextlib.contextmanager
    def _span(self, name: str):
        span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def _timed(self, name, fn, sizes):
        signature = inspect.signature(fn) if sizes else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sizes is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                except TypeError:
                    pass  # the call itself raises; nothing to size
                else:
                    bound.apply_defaults()
                    sizes(self, bound.arguments)
            with self._span(name):
                return fn(*args, **kwargs)

        return traced

    def _counted(self, name, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.totals[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every rigjoint namespace that holds a traced function."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "rigjoint" or key.startswith("rigjoint.")]
        saved = []
        wrappers = [self._timed(name, fn, sizes) for name, sizes in TIMED.items()
                    if (fn := _lookup(name)) is not None]
        wrappers += [self._counted(name, fn) for name in COUNTED
                     if (fn := _lookup(name)) is not None]
        for wrapper in wrappers:
            original = wrapper.__wrapped__
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def layer_metrics(self) -> dict:
        """Per-function seconds, calls and errors, cli self time and counters.

        ``cli.output_bytes`` and ``trace.overhead_s`` are measured by the
        runner and filled in there.
        """
        values = {name: 0 for name, _ in PER_LAYER}
        values.update(self.totals)
        in_children = Counter()
        for span in self.spans:
            if span.parent >= 0:
                in_children[span.parent] += span.end - span.start
        for index, span in enumerate(self.spans):
            if span.parent < 0:
                continue  # job root
            values[f"{span.name}.s"] += span.end - span.start
            values[f"{span.name}.calls"] += 1
            values[f"{span.name}.errors"] += bool(span.error)
            if span.name == "cli.main":
                values["cli.main.self_s"] += span.end - span.start - in_children[index]
        return values

    def job_breakdown(self) -> list:
        """For each job root: its seconds, and seconds and calls of every span under it."""
        jobs, root = [], []
        for span in self.spans:
            if span.parent < 0:
                root.append(len(jobs))
                jobs.append({"job": span.name.removeprefix("job:"), "s": span.end - span.start,
                             "error": span.error, "seconds": Counter(), "calls": Counter()})
                continue
            root.append(root[span.parent])
            entry = jobs[root[-1]]
            entry["seconds"][span.name] += span.end - span.start
            entry["calls"][span.name] += 1
        return jobs

    def dump(self, origin: float) -> list:
        """Spans as [name, start, end, parent, error], times relative to ``origin``."""
        return [[s.name, s.start - origin, s.end - origin, s.parent, s.error] for s in self.spans]


def _lookup(qualname: str):
    module, attr = qualname.split(".")
    return getattr(sys.modules.get(f"rigjoint.{module}"), attr, None)
