"""Tests of the benchmark harness itself (not of qjc).

Run with the rest of the suite, or alone:  python3 -m pytest perfbench
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import qjc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Job, Runner, _cell, sweep_jobs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def runner(tmp_path):
    r = Runner(tmp_path)
    yield r
    r.close()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_job_list(workload):
    first = [sweep_jobs(workload, 7, s) for s in range(3)]
    again = [sweep_jobs(workload, 7, s) for s in range(3)]
    other = [sweep_jobs(workload, 8, s) for s in range(3)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_sweep_runs_each_pool_job_once(workload):
    pool_ids = Counter(job.id for job in workloads.all_jobs(workload))
    assert max(pool_ids.values()) == 1
    for seed in (1, 2):
        for s in range(3):
            assert Counter(job.id for job in sweep_jobs(workload, seed, s)) == pool_ids


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_pool_job_has_a_reference(workload):
    reference = workloads.load_reference(workload)
    assert {job.id for job in workloads.all_jobs(workload)} == set(reference)


def test_seed_reference_keeps_the_reconstruction_failures():
    summary = json.loads(workloads.reference_path("ht-exact").read_text())["summary"]
    assert summary["failed_jobs"] > 0 and summary["root_failures"] > 0


def _functions(modules):
    return {
        (module.__name__, attr): obj
        for module in modules
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
    }


def _ht_job():
    return Job("test", _cell("ht-routes", "ht", 64, 1, N=2), {"rho": 0.7, "theta": 1.2})


def _cli_job(command, model, **params):
    return Job("test", _cell(command, model, 16), params)


def test_tracer_records_spans_and_restores_every_function(runner):
    modules = tracing.qjc_modules(qjc)
    before = _functions(modules)
    builders = dict(qjc.cli._BUILDERS)
    scipy_module = qjc._linalg.scipy
    tracer = tracing.Tracer(qjc)
    tracer.install()
    try:
        assert qjc.cli.main is not before[("qjc.cli", "main")]
        assert qjc.cli._BUILDERS["h2"] is not builders["h2"]
        tracer.job_id = 0
        assert not runner.run(_cli_job("spectrum", "h2", rho=0.5)).failed
        tracer.job_id = 1
        assert not runner.run(_ht_job()).failed
    finally:
        tracer.restore()
    assert _functions(modules) == before
    assert qjc.cli._BUILDERS == builders
    assert qjc._linalg.scipy is scipy_module

    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    assert names[0] == "cli.main" and spans["parent"][0] == -1
    assert set(spans["job"]) == {0, 1}
    assert tracing.LAPACK in names and "recurrence.reconstruct_eigenvector" in names
    # a child span lies inside its parent
    child = names.index("linalg.eig_checked")
    parent = spans["parent"][child]
    assert spans["start"][parent] <= spans["start"][child] <= spans["end"][child] <= spans["end"][parent]


def test_every_metric_is_printed_and_declared(runner):
    tracer = tracing.Tracer(qjc)
    jobs = [_cli_job("spectrum", "h2", rho=0.5), _ht_job()]
    untraced = [(job, runner.run(job)) for job in jobs]
    tracer.install()
    try:
        traced = [(job, runner.run(job)) for job in jobs]
    finally:
        tracer.restore()
    layers = run.per_layer_metrics(tracer, untraced, traced)
    e2e = run.end_to_end_metrics([0.5, 0.6], untraced, [0.1, 0.2], 80.0, 75)

    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in layers.items()} == declared
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in e2e.items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in [*layers.values(), *e2e.values()])
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    # library calls made by the harness itself are traced too
    assert layers["recurrence.reconstruct_calls"]["value"] > 0
    assert layers["linalg.mismatch_s"]["value"] > 0
    assert layers["cli.jobs"]["value"] == 1


def test_failed_ratio_counts_a_job_whose_gate_raises(runner):
    # the recurrence reconstruction gate fails here and the CLI exits 3
    job = Job("gate", _cell("spectrum", "ht", 64, 1, N=6), {"rho": 0.7, "theta": 1.2})
    outcome = runner.run(job)
    assert outcome.failed and outcome.payload is None and outcome.reason.startswith("exit 3")
    ok = _cli_job("spectrum", "h2", rho=0.5)
    records = [(job, outcome), (ok, runner.run(ok))]
    reference = {"gate": {"failed": "exit 3"}, "test": workloads.reference_entry(records[1][1])}
    summary = run.summarize(records, reference)
    assert summary["failed"] == 1 and summary["failed_ratio"] == 0.5
    assert summary["mismatch_ratio"] == 0.0


def test_changed_output_is_a_mismatch(runner):
    job = _cli_job("spectrum", "h2", rho=0.5)
    outcome = runner.run(job)
    expected = dict(workloads.reference_entry(outcome), sha256="0" * 64)
    assert workloads.check(job, outcome, expected).startswith("output bytes differ")


def test_failure_where_the_reference_completed_is_a_mismatch(runner, monkeypatch):
    job = _cli_job("spectrum", "h2", rho=0.5)
    reference = {"test": workloads.reference_entry(runner.run(job))}
    monkeypatch.setattr(qjc.cli, "main", lambda argv: 3)
    outcome = runner.run(job)
    assert outcome.failed and outcome.payload is None
    summary = run.summarize([(job, outcome)], reference)
    assert summary["n_mismatched"] == 1 and summary["mismatch_ratio"] == 1.0
    assert summary["mismatches"][0][1].startswith("failed (exit 3")


def test_more_gate_failures_than_the_reference_is_a_mismatch(runner, monkeypatch):
    # the seed program fails 2 of this job's 13 reconstructions
    job = next(j for j in workloads.all_jobs("ht-exact") if j.id == "ht-routes:ht:N5:D64:phi+#0")
    expected = workloads.load_reference("ht-exact")[job.id]
    assert expected["failed"] and expected["root_failures"] == 2

    def give_up(*args, **kwargs):
        raise workloads.NumericalError("gave up")

    monkeypatch.setattr(workloads.recurrence, "reconstruct_eigenvector", give_up)
    outcome = runner.run(job)
    assert outcome.failed and outcome.root_failures == 13
    assert workloads.check(job, outcome, expected).startswith("13 reconstructions failed")

    # a job that now raises before giving any output differs as well
    monkeypatch.setattr(workloads.recurrence, "critical_roots", give_up)
    outcome = runner.run(job)
    assert outcome.failed and outcome.payload is None
    assert workloads.check(job, outcome, expected).startswith("produced no output")


def test_job_time_is_scaled_by_the_kernel_samples_around_it(monkeypatch):
    host = run.HostSpeed(64)
    host.samples = [3 * host.reference]  # taken just before the job
    monkeypatch.setattr(host, "sample", lambda: host.reference)  # just after it
    # the host ran the kernel at half its reference speed, so the job is
    # worth half its measured time
    assert host.reference_seconds(0.8) == pytest.approx(0.4)


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
