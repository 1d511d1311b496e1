#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of leadersel.

Usage (from the repository root):

    python3 perfbench/run.py --workload select --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

Each workload is a closed loop with one caller: the jobs of its fixed
list run one after another through ``leadersel.cli.main``, and the list
is repeated ("passes") until ``--seconds`` have passed and the workload's
minimum pass count is reached.  Every job's output is checked after its
pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics (setup_s, run_s, job_s_p50,
job_s_tail, peak_rss_mb).  Its times are scaled to a reference host speed
measured by a fixed numpy calibration kernel run between jobs, because
the shared host's speed drifts by tens of percent from minute to minute;
the raw times are kept in the detail line.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics listed in
BENCHMARK.json plus the tracing overhead.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread (nproc is 2 on the reference machine): steadier timings
# on a shared host.  Set before numpy is imported; recorded in every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_SAMPLES = 5       # setups per run: this process plus four probe processes
TAIL_BEYOND = 10        # jobs required beyond the tail percentile
CHILD_TIMEOUT_S = 170
# Host-speed calibration (see calibrate()): the kernel's repetitions, and its
# median time on the reference machine (2-core Xeon at 2.1 GHz, numpy 2.4.6).
CALIBRATION_REPS = 200
CALIBRATION_REF_S = 0.030
OVERHEAD_METRIC = "trace.overhead_s"  # traced minus untraced pass wall time


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "select", "certify", "validate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one pass; for smoke tests only")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import leadersel from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "leadersel" / "cli.py").is_file():
        raise SystemExit(f"error: no leadersel sources under {src}")
    sys.path.insert(0, str(src))
    import leadersel.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "leadersel").resolve():
        raise SystemExit(f"error: imported leadersel from {cli.__file__}, not {src}")
    return cli


def _machine() -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


class Runner:
    """Runs jobs in-process through the package's command-line entry point."""

    def __init__(self, cli_module):
        self.cli = cli_module

    def call(self, argv):
        """Untimed helper call: (exit code, stdout)."""
        result = self.run(argv)
        return (result.code if result.error is None else None), result.stdout

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))  # looked up per call, so tracing sees it
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a raising job counts as failed; the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        return workloads.JobResult(elapsed=elapsed, code=code, stdout=out.getvalue(), error=error)


def _setup(args, work: Path):
    """Import, input generation and one untimed warm-up job."""
    runner = Runner(_import_package())
    reference = None
    if args.workload == "select" and args.seed == DEFAULT_SEED and not args.tiny:
        reference = json.loads((HERE / "reference_select.json").read_text())["chosen"]
    workload = workloads.build(args.workload, args.seed, work, runner.call, ROOT,
                               tiny=args.tiny, reference=reference)
    warm = runner.run(workload.jobs[0].argv)
    workloads.clear_outputs(work)
    return runner, workload, warm


def calibrate() -> float:
    """Seconds taken by a fixed mix of LAPACK, small BLAS and interpreter work.

    It uses numpy only, never the package, so it measures the host's speed
    at the moment and nothing a change to leadersel can move.
    """
    rng = np.random.Generator(np.random.PCG64(12345))
    m = rng.standard_normal((48, 48))
    m = m + m.T
    v = rng.standard_normal((48, 16))
    acc = 0.0
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        acc += float(np.linalg.eigvalsh(m)[0])
        v = (m @ v) * 0.01
        acc += sum(j * 0.5 for j in range(200))
    return time.perf_counter() - start


def _run_jobs(runner, workload, tracer=None, calibrated=False):
    """One pass over the fixed job list; returns (wall time, results, calibrations).

    With ``calibrated``, a calibration runs before the first job and after
    every job, sampling the host's speed throughout the pass; the wall time
    then includes them and is not used.
    """
    gc.collect()  # every pass starts from the same collector state
    cals = [calibrate()] if calibrated else []
    start = time.perf_counter()
    results = []
    for index, job in enumerate(workload.jobs):
        if tracer is not None:
            tracer.job = index
        results.append(runner.run(job.argv))
        if calibrated:
            cals.append(calibrate())
    return time.perf_counter() - start, results, cals


def _check(runner, workload, results, work: Path) -> list:
    """Failure reason per job (None = ok), computed outside the timed region."""
    try:
        reasons = workload.check(workload.jobs, results, runner.call)
    except Exception as exc:  # a check that cannot run fails every job of the pass
        reasons = [f"check raised {type(exc).__name__}: {exc}"] * len(results)
    workloads.clear_outputs(work)
    return reasons


def tail_rank(count: int, percentile: float) -> int:
    """1-based nearest rank of ``percentile`` in ``count`` sorted samples."""
    return max(1, math.ceil(percentile / 100.0 * count))


def _summarize_jobs(times, percentile):
    ordered = sorted(times)
    rank = tail_rank(len(ordered), percentile)
    return {
        "job_s_p50": statistics.median(ordered),
        "job_s_tail": ordered[rank - 1],
        "tail_percentile": percentile,
        "jobs_beyond_tail": len(ordered) - rank,
        "job_samples": len(ordered),
    }


def _probe_setups(args) -> list:
    """Set-up time of fresh processes of this workload (import, inputs, warm-up)."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _compare_with_previous(record_path: Path, counts: dict) -> list:
    """Exact counters that differ from an earlier run of the same seed here."""
    bad = []
    if record_path.exists():
        previous = json.loads(record_path.read_text())
        for name, value in counts.items():
            if name in previous and previous[name] != value:
                bad.append(f"{name} is {value}, was {previous[name]} in an earlier run")
    record_path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return bad


def _measure(args, runner, workload, work):
    """Timed passes, each with its job times scaled to the reference host speed.

    A pass's scale is CALIBRATION_REF_S over the mean of the calibrations
    taken between its jobs.  Returns the scaled and the raw job times per
    pass, the calibrations, and the failure reasons.
    """
    scaled, raw, calibrations, failures = [], [], [], []
    start = time.perf_counter()
    while len(scaled) < workload.min_passes or time.perf_counter() - start < args.seconds:
        _, results, cals = _run_jobs(runner, workload, calibrated=True)
        times = [r.elapsed for r in results]
        scale = CALIBRATION_REF_S / statistics.mean(cals)
        scaled.append([t * scale for t in times])
        raw.append(times)
        calibrations.append(cals)
        failures.extend(_check(runner, workload, results, work))
    return scaled, raw, calibrations, failures


def _measure_traced(args, runner, workload, work, per_layer):
    """Untraced and traced passes in turn; per-layer values are medians per pass."""
    tracer = tracer_mod.Tracer()
    plain_walls, traced_walls, snapshots, failures = [], [], [], []
    start = time.perf_counter()
    minimum = max(2, workload.min_passes // 2)
    while len(traced_walls) < minimum or time.perf_counter() - start < args.seconds:
        wall, results, _ = _run_jobs(runner, workload)
        plain_walls.append(wall)
        failures.extend(_check(runner, workload, results, work))
        tracer.reset()
        tracer.keep_spans = not snapshots  # spans of the first traced pass only
        tracer.install()
        try:
            wall, results, _ = _run_jobs(runner, workload, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        snapshots.append(tracer.snapshot())
        failures.extend(_check(runner, workload, results, work))

    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics, missing, flags, exact = {}, [], [], {}
    for name, unit in per_layer:
        if name == OVERHEAD_METRIC:
            metrics[name] = {"value": overhead, "unit": unit}
            continue
        values = [tracer.value(snap, name) for snap in snapshots]
        if any(v is None for v in values):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
            missing.append(name)
            continue
        value = statistics.median(values)
        if tracer_mod.is_exact(name):
            value = exact[name] = values[0]
            if len(set(values)) > 1:
                flags.append(f"{name} differs between traced passes: {values}")
        metrics[name] = {"value": value, "unit": unit}
    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    tiny = "-tiny" if args.tiny else ""
    flags += _compare_with_previous(
        out_dir / f"counts-{workload.name}-seed{args.seed}{tiny}.json", exact)
    spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}{tiny}.json"
    tracer.write_spans(spans_path)
    detail = {
        "run_s_untraced": statistics.median(plain_walls),
        "run_s_traced": statistics.median(traced_walls),
        "trace_overhead_s": overhead,
        "traced_passes": len(traced_walls),
        "untraced_passes": len(plain_walls),
        "missing_metrics": missing,
        "count_mismatches": flags,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }
    attempted = len(workload.jobs) * (len(plain_walls) + len(traced_walls))
    return metrics, detail, attempted, failures


def _benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    return end_to_end, per_layer


def run_workload(args) -> int:
    work = ROOT / ".perfbench_runs" / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner, workload, warm = _setup(args, work)
        setup_raw = time.perf_counter() - _STARTED
        setup_cal = statistics.mean(calibrate() for _ in range(3))
        setup_s = setup_raw * CALIBRATION_REF_S / setup_cal
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return 0
        if warm.error is not None or warm.code != 0:
            print(f"warm-up job failed: {warm.error or warm.code}", file=sys.stderr)
        end_to_end, per_layer = _benchmark_metrics()
        detail = {"workload": workload.name, "why": workload.why, "seed": args.seed,
                  "jobs_per_pass": len(workload.jobs), "machine": _machine()}
        if args.trace:
            metrics, extra, attempted, failures = _measure_traced(
                args, runner, workload, work, per_layer)
            detail.update(extra)
        else:
            scaled, raw, calibrations, failures = _measure(args, runner, workload, work)
            times = [t for one_pass in scaled for t in one_pass]
            attempted = len(times)
            setups = [setup_s] + _probe_setups(args)
            jobs = _summarize_jobs(times, workload.tail_percentile)
            values = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(sum(one_pass) for one_pass in scaled),
                "job_s_p50": jobs["job_s_p50"],
                "job_s_tail": jobs["job_s_tail"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end}
            detail.update(jobs, passes=len(scaled), setup_samples_s=setups,
                          setup_raw_s=setup_raw, setup_calibration_s=setup_cal,
                          raw_job_times_s=raw, calibrations_s=calibrations,
                          calibration_ref_s=CALIBRATION_REF_S)
            if jobs["jobs_beyond_tail"] < TAIL_BEYOND:
                detail["tail_warning"] = (f"only {jobs['jobs_beyond_tail']} jobs beyond "
                                          f"p{jobs['tail_percentile']:g}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r is not None for r in failures)
    detail["failed_frac"] = failed / attempted
    detail["failures"] = sorted({r for r in failures if r is not None})[:20]
    _print_table(workload.name, metrics, detail, attempted, failed)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_table(name, metrics, detail, attempted, failed) -> None:
    print(f"== {name}  seed={detail['seed']}  jobs/pass={detail['jobs_per_pass']}  "
          f"blas_threads={BLAS_THREADS}")
    for metric, entry in metrics.items():
        value = entry["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {metric:<52} {shown:>14} {entry['unit']}")
    if "tail_percentile" in detail:
        print(f"  (job_s_tail is p{detail['tail_percentile']:g} of {detail['job_samples']} "
              f"jobs, {detail['jobs_beyond_tail']} beyond it)")
    print(f"  {'failed_frac':<52} {failed / attempted:>14.6g} 1   ({failed}/{attempted})")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=2 * CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "leadersel" / "cli.py").is_file():
        print(f"error: no leadersel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
