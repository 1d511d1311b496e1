"""Tests of the benchmark itself (run with: python3 -m pytest perfbench/tests)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_listed_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for entry, metric in zip(result["metrics"].values(), listed):
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)


@pytest.fixture()
def runner():
    return run.Runner(run._import_package())


def _one_pass(workload, runner, work):
    _, results, _ = run._run_jobs(runner, workload)
    return results, run._check(runner, workload, results, work)


def test_wrong_reference_answer_counts_as_failed(runner, tmp_path):
    workload = workloads.build_select(5, tmp_path, runner.call, tiny=True)
    wrong = {job.info["key"]: [1] for job in workload.jobs}
    workload = workloads.build_select(5, tmp_path, runner.call, tiny=True, reference=wrong)
    results, reasons = _one_pass(workload, runner, tmp_path)
    assert all(r.code == 0 for r in results)
    assert all(reason and "reference" in reason for reason in reasons)


def test_wrong_output_is_caught_per_job(runner, tmp_path):
    workload = workloads.build_validate(5, tmp_path, runner.call, ROOT, tiny=True)
    _, results, _ = run._run_jobs(runner, workload)
    victim = next(i for i, job in enumerate(workload.jobs) if job.info["role"] == "lyapunov")
    payload = json.loads(results[victim].stdout)
    payload["value"] *= 1.0 + 1e-4
    results[victim].stdout = json.dumps(payload)
    reasons = run._check(runner, workload, results, tmp_path)
    assert [i for i, reason in enumerate(reasons) if reason] == [victim]


def test_failed_job_is_counted(runner, tmp_path):
    workload = workloads.build_certify(5, tmp_path, runner.call, tiny=True)
    workload.jobs[0].argv = ["experiment", str(tmp_path / "no_such_config.json")]
    results, reasons = _one_pass(workload, runner, tmp_path)
    assert results[0].code == 2 and reasons[0] == "exit code 2"
    assert reasons[1] is None


def test_tracer_restores_originals_and_reports_missing_names(runner):
    import leadersel.coherence as coherence
    import leadersel.linalg as linalg
    import leadersel.selection as selection

    original = linalg.sym_eigenvalues
    method = coherence.SystemContext.normalized_coherence
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert selection.sym_eigenvalues is not original  # every binding is wrapped
        assert coherence.SystemContext.normalized_coherence is not method
        code, _ = runner.call(["select", str(ROOT / "src/leadersel/data/six_node_example.json"),
                               "--order", "2", "--auto-gains", "--k", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert selection.sym_eigenvalues is original and linalg.sym_eigenvalues is original
    assert coherence.SystemContext.normalized_coherence is method
    snap = tracer.snapshot()
    assert tracer.value(snap, "selection.greedy_select.calls") == 1
    assert tracer.value(snap, "linalg.sym_eigenvalues.n3_sum") > 0
    assert tracer.value(snap, "selection.exhaustive_select.calls") == 0
    assert tracer.value(snap, "selection.exhaustive_select.us_per_subset") == 0
    assert tracer.value(snap, "stability.no_such_function.calls") is None
    assert tracer.value(snap, "linalg.spd_inverse.no_such_counter") is None


def test_exits_nonzero_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "select", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_minimum_passes_leave_ten_jobs_beyond_the_tail(runner, tmp_path, name):
    workload = workloads.build(name, 0, tmp_path, runner.call, ROOT)
    count = len(workload.jobs) * workload.min_passes
    assert count - run.tail_rank(count, workload.tail_percentile) >= run.TAIL_BEYOND
