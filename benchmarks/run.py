#!/usr/bin/env python3
"""rigjoint benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 benchmarks/run.py --workload exact_pmf --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke

Run from the repository root or anywhere else; the package is imported from
the ``src`` directory next to this one. One run repeats the workload's fixed
job list (see README.md) for ``--seconds`` seconds in this process, checks
every job's output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``);
with ``--trace 1`` untraced and traced repetitions alternate and the metrics
are the per-layer ones (``tracer.PER_LAYER``). A line above it records the
environment, stderr carries a readable summary, and the full record, spans
included, goes to ``benchmarks/out/<workload>-seed<seed>-trace<t>.json``.

``--smoke`` runs every workload's job list once untraced and once traced at
tiny sizes, with every check, and prints one result line per workload.
"""

import os

# BLAS and OpenMP size their thread pools when numpy loads, so pin them before
# anything imports it: the float PGF mat-vec would otherwise pick its own
# thread count, while every other job runs on one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import PER_LAYER, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("exact_pmf", "monte_carlo", "float_pgf", "oracle_verify")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 7
# What a fresh interpreter does before the first job: import the package and
# the CLI module. Interpreter start-up is part of what a CLI user waits for.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import rigjoint, rigjoint.cli; "
              "print('ready', flush=True)")


@dataclass
class Tally:
    """Outcome of every job attempted in one run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    known_defects: Counter = field(default_factory=Counter)
    verified: dict = field(default_factory=dict)  # job label -> output that passed its check

    def settle(self, results) -> None:
        for job, output, error, _ in results:
            self.attempted += 1
            if error is not None:
                if job.known_defect is not None and isinstance(error, job.known_defect):
                    self.known_defects[f"{job.label}: {type(error).__name__}: {error}"] += 1
                else:
                    self._fail(job, [f"raised {type(error).__name__}: {error}"])
                continue
            if job.label in self.verified and self.verified[job.label] == output:
                continue  # identical to an output that already passed
            try:
                problems = job.check(output)
            except Exception as exc:  # an undecodable output is a failed job
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(job, problems)
            else:
                self.verified[job.label] = output

    def _fail(self, job, problems) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(f"{job.label}: {'; '.join(problems)}")


def run_rep(job_list, tracer=None):
    """Run the job list once; (wall seconds, [(job, output, error, seconds)])."""
    gc.collect()
    results = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for job in job_list:
            began = time.perf_counter()
            output = error = None
            try:
                with tracer.job(job.label) if tracer else contextlib.nullcontext():
                    output = job.run()
            except Exception as exc:  # a failing job is counted and the run goes on
                error = exc
            results.append((job, output, error, time.perf_counter() - began))
        wall = time.perf_counter() - start
    return wall, results


def output_bytes(results) -> int:
    return sum(len(out.stdout.encode()) for _, out, _, _ in results if hasattr(out, "stdout"))


def setup_seconds() -> float:
    """Seconds from spawning a fresh interpreter until it can run the first job."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - start
    if not ready or proc.returncode != 0:
        raise RuntimeError("set-up interpreter failed to import rigjoint")
    return elapsed


def measure(job_list, seconds: float, trace: bool, tally: Tally):
    """Repeat the job list until the next repetition would overrun ``seconds``.

    With ``trace`` untraced and traced repetitions alternate, at least one
    of each. Peak RSS is read after the first repetition, before any check
    allocates.
    """
    deadline = time.perf_counter() + seconds
    walls = {False: [], True: []}
    job_seconds = {job.label: [] for job in job_list}  # untraced repetitions only
    traced_reps = []
    peak_rss_mb = None
    while True:
        began = time.perf_counter()
        tracer = Tracer() if trace and len(walls[True]) < len(walls[False]) else None
        wall, results = run_rep(job_list, tracer)
        walls[tracer is not None].append(wall)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            traced_reps.append((tracer, began, output_bytes(results)))
        else:
            for job, _, _, took in results:
                job_seconds[job.label].append(took)
        tally.settle(results)
        last = time.perf_counter() - began
        if walls[False] and (walls[True] or not trace) and time.perf_counter() + last > deadline:
            return walls, job_seconds, peak_rss_mb, traced_reps, output_bytes(results)


def layer_metrics(walls, traced_reps) -> dict:
    """Median over traced repetitions of every per-layer metric."""
    per_rep = []
    for tracer, _, cli_bytes in traced_reps:
        values = tracer.layer_metrics()
        values["cli.output_bytes"] = cli_bytes
        per_rep.append(values)
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics = {}
    for name, unit in PER_LAYER:
        median = statistics.median if unit == "s" else statistics.median_low  # counts stay whole
        value = overhead if name == "trace.overhead_s" else median(v[name] for v in per_rep)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; the result line plus the record kept on disk."""
    import workloads  # imports rigjoint, so only after _import_package put src/ on the path

    job_list = workloads.jobs(workload, seed, smoke)
    measure_setup = not (trace or smoke)
    setup = [setup_seconds() for _ in range(SETUP_SAMPLES if measure_setup else 0)]
    tally = Tally()
    walls, job_seconds, peak_rss_mb, traced_reps, cli_bytes = measure(
        job_list, seconds, trace or smoke, tally)
    wall_s = statistics.median(walls[False])
    values = {"setup_s": statistics.median(setup) if setup else None, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb}
    end_to_end = {name: {"value": values[name], "unit": unit}
                  for name, unit in END_TO_END if values[name] is not None}
    trials = sum(job.trials for job in job_list)
    extras = {
        "fail_ratio": {"value": tally.failed / tally.attempted, "unit": "1"},
        "output_bytes": {"value": cli_bytes, "unit": "bytes"},
        "trials_per_s": {"value": trials / wall_s, "unit": "1/s"},
    }
    if trace or smoke:
        metrics = layer_metrics(walls, traced_reps)
        if smoke:
            metrics = {**end_to_end, **metrics}
    else:
        metrics = end_to_end
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "result": result, "end_to_end": {**end_to_end, **extras},
        "walls": {"untraced": walls[False], "traced": walls[True]},
        "job_seconds": job_seconds,
        "setup_samples": setup, "problems": tally.problems,
        "known_defects": dict(tally.known_defects),
    }
    if traced_reps:
        record["traced"] = [{"jobs": tracer.job_breakdown(), "spans": tracer.dump(began)}
                            for tracer, began, _ in traced_reps]
    return record


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _summary(record: dict) -> str:
    lines = [f"== {record['workload']} seed={record['seed']} trace={record['trace']}: "
             f"attempted={record['result']['attempted']} failed={record['result']['failed']}"]
    shown = record["end_to_end"] if not record["trace"] else {}
    shown = {**shown, **record["result"]["metrics"]}
    lines += [f"  {name:<40} {m['value']:>16.6g} {m['unit']}" for name, m in shown.items()]
    lines += [f"  known defect x{count}: {what}" for what, count in record["known_defects"].items()]
    lines += [f"  FAILED {problem}" for problem in record["problems"]]
    for rep in record.get("traced", [])[:1]:
        for job in rep["jobs"]:
            top = ", ".join(f"{name} {s:.3f}s/{job['calls'][name]}"
                            for name, s in Counter(job["seconds"]).most_common(3))
            lines.append(f"  job {job['job']}: {job['s']:.3f}s [{top}]")
    return "\n".join(lines)


def _import_package() -> bool:
    if not (SRC / "rigjoint" / "__init__.py").is_file():
        print(f"error: rigjoint sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import rigjoint

    if Path(rigjoint.__file__).resolve().parent != SRC / "rigjoint":
        print(f"error: imported rigjoint from {rigjoint.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def smoke(seed: int = 0) -> dict:
    """Every workload's job list at tiny sizes, untraced then traced; records by workload."""
    return {name: run_workload(name, seed, 0, trace=True, smoke=True) for name in WORKLOADS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _import_package():
        return 2
    env = environment()
    if args.smoke:
        records = smoke(args.seed)
        for record in records.values():
            print(_summary(record), file=sys.stderr)
            print(json.dumps({"workload": record["workload"], **record["result"]}))
        return 0 if all(r["result"]["correct"] for r in records.values()) else 1
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = env
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(_summary(record), file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
