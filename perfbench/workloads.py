"""The benchmark's three workloads: inputs, fixed job lists and output checks.

Inputs come from the workload seed alone and are written as graph and
config files; each job is one ``leadersel`` command line run in-process
through ``leadersel.cli.main``.  Checks run after a pass, outside the
timed and traced regions, and use only the command-line surface too, so
they keep working when the package is refactored underneath.

Job sizes are chosen so that one pass of a workload takes a few seconds
on a 2-core machine and the work done does not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Relative agreement required between the greedy's reported h and the
# closed form recomputed on its chosen set (Tolerances.path_agreement_rtol).
PATH_AGREEMENT_RTOL = 1e-8
# Closed form versus Lyapunov Gramian (Tolerances.oracle_agreement_rtol).
ORACLE_AGREEMENT_RTOL = 1e-6
# The simulation mean must lie within this many of its own standard
# errors of the closed form.  With 16 runs the error has 15 degrees of
# freedom, so a correct integrator exceeds 6 with probability ~2e-5.
SIM_STANDARD_ERRORS = 6.0
SIM_ENSEMBLE = 16
# dt * ||A||_2 used for simulation; the package refuses 0.1 and above.
SIM_STEP_NORM = 0.09
# Gains for orders 2-4, in units of 1/lambda_min of the grounded matrix.
# They are stable with margin for every leader set and keep the ratio of
# fastest to slowest mode small enough (below ~350 on these graphs) that
# a fixed step count spans several mixing times of the slowest mode.
VALIDATE_GAINS = {2: (0.125, 0.5), 3: (0.25, 1.0, 1.0), 4: (0.125, 0.25, 1.0, 0.5)}

Cli = Callable[[list], tuple]  # argv -> (exit code, stdout)


@dataclass
class Job:
    """One command line; ``info`` holds what the output check needs."""

    label: str
    argv: list
    info: dict = field(default_factory=dict)


@dataclass
class JobResult:
    elapsed: float
    code: int | None
    stdout: str
    error: str | None = None


@dataclass
class Workload:
    name: str
    why: str
    jobs: list
    tail_percentile: float   # fixed per workload; see run.py
    min_passes: int          # guarantees >= 10 jobs beyond the tail percentile
    check: Callable          # (jobs, results, cli) -> list of failure reasons (None = ok)


def _seeds(seed: int, count: int) -> list:
    rng = np.random.Generator(np.random.PCG64(seed))
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _gen(cli: Cli, path: Path, n: int, p: float, seed: int) -> None:
    code, out = cli(["gen", "--n", str(n), "--p", repr(p), "--seed", str(seed),
                     "--connected", "--output", str(path)])
    if code != 0:
        raise RuntimeError(f"graph generation failed ({code}): {out}")


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _parse(result: JobResult):
    """Decoded stdout of a successful job, or a failure reason string."""
    if result.error is not None:
        return f"raised {result.error}"
    if result.code != 0:
        return f"exit code {result.code}"
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- select ------------------------------------------------------------------

SELECT_WHY = ("scale path: greedy select, k=10, on G(96,0.5) at orders 1-4; "
              "auto_gains and the singleton phase dominate, rank-one rounds are the rest")


def build_select(seed: int, work: Path, cli: Cli, tiny: bool = False,
                 reference: dict | None = None) -> Workload:
    n, k = (16, 4) if tiny else (96, 10)
    jobs = []
    for g, graph_seed in enumerate(_seeds(seed, 1 if tiny else 2)):
        path = work / f"select_g{g}.json"
        _gen(cli, path, n, 0.5, graph_seed)
        for m in (1, 2, 3, 4):
            jobs.append(Job(f"select g{g} m{m}",
                            ["select", str(path), "--order", str(m), "--auto-gains", "--k", str(k)],
                            {"graph": str(path), "order": m, "k": k, "key": f"g{g}-m{m}"}))

    def check(jobs, results, cli):
        return [_check_select(job, res, cli, reference) for job, res in zip(jobs, results)]

    return Workload("select", SELECT_WHY, jobs, tail_percentile=75.0,
                    min_passes=1 if tiny else 5, check=check)


def _check_select(job: Job, result: JobResult, cli: Cli, reference: dict | None):
    data = _parse(result)
    if isinstance(data, str):
        return data
    greedy = data["greedy"]
    chosen, f_values, h_values = greedy["chosen"], greedy["f_values"], greedy["h_values"]
    if not 1 <= len(chosen) <= job.info["k"] or len(h_values) != len(chosen):
        return f"bad chosen set {chosen}"
    if any(later < earlier for earlier, later in zip(f_values, f_values[1:])):
        return f"f_values decrease: {f_values}"
    code, out = cli(["coherence", job.info["graph"], "--order", str(job.info["order"]),
                     "--gains", _floats(data["gains"]),
                     "--leaders", ",".join(str(v) for v in chosen)])
    if code != 0:
        return f"closed-form recheck exited {code}"
    closed = json.loads(out)["value"]
    if _rel_gap(h_values[-1], closed) > PATH_AGREEMENT_RTOL:
        return f"reported h {h_values[-1]!r} != closed form {closed!r}"
    if reference is not None and chosen != reference.get(job.info["key"]):
        return f"chosen {chosen} != reference {reference.get(job.info['key'])}"
    return None


# -- certify -----------------------------------------------------------------

CERTIFY_WHY = ("small-scale certification: fig1/fig2 experiments at n=20, k<=3, orders 1-4; "
               "exhaustive search makes thousands of 20x20 eigensolves per job")


def build_certify(seed: int, work: Path, cli: Cli, tiny: bool = False) -> Workload:
    n, k_max = (8, 2) if tiny else (20, 3)
    jobs = []
    for i, config_seed in enumerate(_seeds(seed, 1 if tiny else 4)):
        for experiment in ("fig1", "fig2"):
            config = {"experiment": experiment, "n": n, "p": 0.5, "trials": 1,
                      "k_max": k_max, "orders": [1, 2, 3, 4], "seed": config_seed,
                      "gain_rule": "auto"}
            path = work / f"certify_{experiment}_{i}.json"
            path.write_text(json.dumps(config) + "\n")
            out = work / f"certify_{experiment}_{i}_out"
            jobs.append(Job(f"experiment {experiment} seed{i}",
                            ["experiment", str(path), "--out", str(out)],
                            {"config": config, "out": out, "work": work}))

    def check(jobs, results, cli):
        return [_check_certify(job, res, cli) for job, res in zip(jobs, results)]

    return Workload("certify", CERTIFY_WHY, jobs, tail_percentile=75.0,
                    min_passes=1 if tiny else 5, check=check)


def _read_rows(path: Path) -> list:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _check_certify(job: Job, result: JobResult, cli: Cli):
    data = _parse(result)
    if isinstance(data, str):
        return data
    config, out = job.info["config"], Path(job.info["out"])
    experiment = config["experiment"]
    rows = _read_rows(out / f"{experiment}_trials.csv")
    if len(rows) != config["k_max"] * len(config["orders"]):
        return f"{len(rows)} trial rows"
    if experiment == "fig2":
        for row in rows:
            ratio = float(row["ratio"])
            if not (math.isfinite(ratio) and ratio <= 1.0 / math.e):
                return f"ratio {ratio!r} above 1/e at k={row['k']} order={row['order']}"
        return None
    # fig1: the exact optimum can never be worse than the greedy's h on
    # the same graph and gains, recomputed through the select command.
    summary = json.loads((out / "summary.json").read_text())
    trial = summary["trials"][0]
    graph = Path(job.info["work"]) / f"check_{out.name}.json"
    _gen(cli, graph, config["n"], config["p"], trial["seed"])
    greedy_h = {}
    for m in config["orders"]:
        code, text = cli(["select", str(graph), "--order", str(m),
                          "--gains", _floats(trial["gains"][str(m)]),
                          "--k", str(config["k_max"])])
        if code != 0:
            return f"greedy recheck exited {code}"
        greedy_h[m] = json.loads(text)["greedy"]["h_values"]
    for row in rows:
        k, m, optimum = int(row["k"]), int(row["order"]), float(row["optimal_h"])
        h = greedy_h[m][min(k, len(greedy_h[m])) - 1]
        if not optimum <= h * (1.0 + PATH_AGREEMENT_RTOL):
            return f"optimum {optimum!r} above greedy h {h!r} at k={k} order={m}"
    return None


# -- validate ----------------------------------------------------------------

VALIDATE_WHY = ("closed-form validation: closed vs Lyapunov vs spectral oracle vs Euler "
                "simulation on n<=15 systems at orders 2-4; never selects leaders")


def _laplacian(graph_file: Path) -> np.ndarray:
    payload = json.loads(graph_file.read_text())
    base, n = payload.get("label_base", 1), payload["n"]
    lap = np.zeros((n, n))
    for u, v, w in payload["edges"]:
        u, v = u - base, v - base
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def _companion(q: np.ndarray, gains) -> np.ndarray:
    n, m = q.shape[0], len(gains)
    a = np.zeros((n * m, n * m))
    for j in range(m - 1):
        a[j * n:(j + 1) * n, (j + 1) * n:(j + 2) * n] = np.eye(n)
    for j, g in enumerate(gains):
        a[(m - 1) * n:, j * n:(j + 1) * n] = -g * q
    return a


def build_validate(seed: int, work: Path, cli: Cli, root: Path, tiny: bool = False) -> Workload:
    steps = 20000 if tiny else 30000
    stride = 100
    seeds = _seeds(seed, 8)
    rng = np.random.Generator(np.random.PCG64(seeds[0]))
    graphs = [("six", root / "src" / "leadersel" / "data" / "six_node_example.json")]
    if not tiny:
        for n, graph_seed in ((10, seeds[1]), (15, seeds[2])):
            path = work / f"validate_g{n}.json"
            _gen(cli, path, n, 0.5, graph_seed)
            graphs.append((f"g{n}", path))
    orders = (2, 3) if tiny else (2, 3, 4)
    jobs = []
    for name, path in graphs:
        lap = _laplacian(path)
        n = lap.shape[0]
        leaders = sorted(int(v) for v in rng.choice(n, (n + 1) // 2, replace=False))
        q = lap.copy()
        q[leaders, leaders] += 1.0  # unit kappa, as written by `gen`
        lam_min = float(np.linalg.eigvalsh(q)[0])
        labels = ",".join(str(v + 1) for v in leaders)
        for m in orders:
            gains = [g / lam_min for g in VALIDATE_GAINS[m]]
            dt = SIM_STEP_NORM / float(np.linalg.norm(_companion(q, gains), 2))
            total = steps * dt
            key = f"{name}-m{m}"
            system = [str(path), "--order", str(m), "--gains", _floats(gains),
                      "--leaders", labels]
            info = {"key": key, "n": n}
            jobs.append(Job(f"coherence closed {key}", ["coherence", *system],
                            {**info, "role": "closed"}))
            jobs.append(Job(f"coherence lyapunov {key}",
                            ["coherence", *system, "--method", "lyapunov"],
                            {**info, "role": "lyapunov"}))
            jobs.append(Job(f"stability oracle {key}", ["stability", *system, "--oracle"],
                            {**info, "role": "stability"}))
            simulate = ["simulate", *system, "--dt", repr(dt), "--total-time", repr(total),
                        "--burn-in", repr(total / 4), "--ensemble", str(SIM_ENSEMBLE),
                        "--seed", str(seeds[3 + m])]
            sim_info = {**info, "role": "simulate"}
            if name == "six" and m == 2:
                trajectory = work / "trajectory.csv"
                simulate += ["--trajectory", str(trajectory), "--stride", str(stride)]
                sim_info.update(trajectory=str(trajectory), rows=steps // stride + 1)
            jobs.append(Job(f"simulate {key}", simulate, sim_info))

    return Workload("validate", VALIDATE_WHY, jobs, tail_percentile=90.0,
                    min_passes=1 if tiny else 4, check=_check_validate)


def _check_validate(jobs, results, cli):
    parsed = [_parse(res) for res in results]
    closed = {job.info["key"]: data["value"] for job, data in zip(jobs, parsed)
              if job.info["role"] == "closed" and isinstance(data, dict)}
    reasons = []
    for job, data in zip(jobs, parsed):
        if isinstance(data, str):
            reasons.append(data)
            continue
        role, h = job.info["role"], closed.get(job.info["key"])
        if h is None or not (math.isfinite(h) and h > 0):
            reasons.append(f"no usable closed form for {job.info['key']}")
        elif role == "lyapunov" and _rel_gap(data["value"], h) > ORACLE_AGREEMENT_RTOL:
            reasons.append(f"lyapunov {data['value']!r} != closed {h!r}")
        elif role == "stability" and not (data["stable"] is True
                                          and data["oracle"]["stable"] is True):
            reasons.append(f"verdicts: hurwitz {data['stable']}, oracle {data['oracle']}")
        elif role == "simulate":
            reasons.append(_check_simulation(job, data, h))
        else:
            reasons.append(None)
    return reasons


def _check_simulation(job: Job, data: dict, h: float):
    estimate, stderr = data["estimate"], data["standard_error"]
    if not (math.isfinite(estimate) and stderr > 0):
        return f"estimate {estimate!r} with standard error {stderr!r}"
    if abs(estimate - h) > SIM_STANDARD_ERRORS * stderr:
        return (f"estimate {estimate!r} is {abs(estimate - h) / stderr:.1f} standard "
                f"errors from closed form {h!r}")
    if "trajectory" in job.info:
        with open(job.info["trajectory"], newline="") as handle:
            rows = list(csv.reader(handle))
        header = ["t", *(f"y_{i}" for i in range(job.info["n"]))]
        if rows[0] != header or len(rows) - 1 != job.info["rows"]:
            return f"trajectory has header {rows[0][:3]}... and {len(rows) - 1} rows"
        if not all(math.isfinite(float(v)) for row in rows[1:] for v in row):
            return "trajectory has non-finite values"
    return None


WORKLOADS = ("select", "certify", "validate")


def build(name: str, seed: int, work: Path, cli: Cli, root: Path, tiny: bool = False,
          reference: dict | None = None) -> Workload:
    if name == "select":
        return build_select(seed, work, cli, tiny, reference)
    if name == "certify":
        return build_certify(seed, work, cli, tiny)
    if name == "validate":
        return build_validate(seed, work, cli, root, tiny)
    raise ValueError(f"unknown workload {name!r}")


def clear_outputs(work: Path) -> None:
    """Remove job outputs between passes so each pass writes afresh."""
    for path in work.glob("*_out"):
        shutil.rmtree(path, ignore_errors=True)
    (work / "trajectory.csv").unlink(missing_ok=True)
