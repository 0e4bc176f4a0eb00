"""Tests of the benchmark itself, on its smoke sizes.

Run with ``python3 -m pytest benchmarks``. The repository's test paths are
``tests/`` only, so none of this adds to the main suite's time.
"""

import json

import pytest

import run

assert run._import_package()

import tracer  # noqa: E402
import workloads  # noqa: E402
from rigjoint import cli, pgf, stats  # noqa: E402


@pytest.fixture(scope="module")
def records():
    return run.smoke(seed=3)


def _layer(record, name):
    return record["result"]["metrics"][name]["value"]


def test_every_workload_runs_and_passes_its_checks(records):
    assert set(records) == set(run.WORKLOADS) == set(workloads.WORKLOADS)
    for record in records.values():
        result = record["result"]
        assert result["correct"] and result["failed"] == 0, record["problems"]
        assert result["attempted"] == 2 * len(record["job_seconds"])
        names = [name for name, _ in tracer.PER_LAYER] + ["wall_s", "peak_rss_mb"]
        assert set(result["metrics"]) == set(names)


def test_trace_attributes_calls_to_the_resolving_layer(records):
    pmf = records["exact_pmf"]
    assert _layer(pmf, "cli.main.calls") == 3
    assert _layer(pmf, "pgf.moment_table.calls") == 3
    assert _layer(pmf, "pgf.sieve_invert.calls") == 3
    assert _layer(pmf, "pgf.moment_table.cells") == 3 * 36
    assert _layer(pmf, "pgf.scale_bits") == (7**36).bit_length()
    assert 0 < _layer(pmf, "cli.main.self_s") < _layer(pmf, "cli.main.s")
    assert _layer(pmf, "cli.output_bytes") > 0

    # The pure-sampling simulate job never builds a moment table.
    (sampling,) = [job for job in records["monte_carlo"]["traced"][0]["jobs"]
                   if job["job"].startswith("simulate 45x45")]
    assert sampling["calls"]["bipartite.empirical_joint"] == 1
    assert "pgf.moment_table" not in sampling["calls"]


def test_known_defect_is_reported_not_failed(records):
    record = records["float_pgf"]
    assert _layer(record, "pgf.eval_marginal_pgf.errors") == 2
    assert sum(record["known_defects"].values()) == 4  # two jobs, two repetitions
    assert record["result"]["failed"] == 0


def test_patches_are_undone_after_tracing(records):
    for module, name in ((cli, "main"), (cli, "joint_pmf"), (pgf, "moment_table"),
                         (stats, "eval_joint_pgf")):
        assert not hasattr(getattr(module, name), "__wrapped__")


def test_checks_reject_a_wrong_output():
    job = next(j for j in workloads.jobs("exact_pmf", 0, smoke=True) if j.label.endswith("csv"))
    out = job.run()
    assert job.check(out) == []
    # Move probability mass between two cells: still sums to 1, wrong law.
    lines = out.stdout.splitlines()
    a, b = (lines[1].split(","), lines[2].split(","))
    lines[1], lines[2] = ",".join(a[:2] + b[2:]), ",".join(b[:2] + a[2:])
    broken = workloads.CliOutput(0, "\n".join(lines) + "\n", "")
    assert job.check(broken)


def test_reference_sampler_matches_the_package_stream():
    params = pgf.ModelParams(5, 4, workloads.Fraction(3, 10))
    active, passive = workloads.reference_edge_totals(params, 300, seed=11, batch=64)
    expected = stats.edge_count_correlation(params, 300, 11)
    assert float(workloads.np.corrcoef(active, passive)[0, 1]) == pytest.approx(expected, abs=1e-12)


def test_benchmark_json_names_the_runner_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
