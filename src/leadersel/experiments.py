"""Seeded experiment runners behind the ``experiment`` CLI subcommand.

Three canned protocols plus a custom one, all emitting plot-ready CSV:

* fig1 - optimal coherence per order and budget k on connected random
  graphs, averaged over trials; per graph, one singleton phase and one
  exhaustive sweep serve every order and every k, and fig2 reads the
  same sweep.
* fig2 - greedy-vs-optimal surrogate ratio per order and k, same graphs;
  one greedy run at k_max per order serves every k.
* fig3 - per-node single-leader coherence table on the bundled six-node
  network (whose best leader differs between orders).
* custom - the fig3-style singleton table on a user-supplied graph file.

Per-trial seeds derive from SeedSequence([master_seed, trial]); random
graphs are resampled (seed offset +1) until connected, with the resample
count recorded in the summary.  Means are written alongside per-trial
rows so downstream checks never need to re-run the protocol.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .coherence import SystemContext
from .errors import SchemaError
from .graphs import GraphFile, erdos_renyi_connected, read_graph_file, six_node_example
from .graphs import _integer, _numbers
from .selection import certify_bound, exhaustive_select, exhaustive_sweep, greedy_select
from .stability import auto_gains
from .system import GainVector, SingletonPhase, singleton_phase

EXPERIMENTS = ("fig1", "fig2", "fig3", "custom")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 12
    p: float = 0.5
    trials: int = 3
    k_max: int = 3
    orders: tuple[int, ...] = (1, 2, 3)
    seed: int = 0
    gain_rule: str | dict = "auto"
    output_dir: str = "."
    graph_file: str | None = None

    def __post_init__(self) -> None:
        # Types first, field by field, so a config with one bad field names it.
        for name in ("n", "trials", "k_max", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if not isinstance(self.orders, (list, tuple)):
            raise SchemaError(f"orders must be a list of integers, got {self.orders!r}")
        object.__setattr__(
            self, "orders", tuple(_integer(m, f"orders[{i}]") for i, m in enumerate(self.orders))
        )
        if isinstance(self.p, bool) or not isinstance(self.p, (int, float)):
            raise SchemaError(f"p must be a number, got {self.p!r}")
        for name, allowed in (("output_dir", str), ("graph_file", (str, type(None)))):
            if not isinstance(getattr(self, name), allowed):
                raise SchemaError(f"{name} must be a path string, got {getattr(self, name)!r}")
        if self.experiment not in EXPERIMENTS:
            raise SchemaError(f"experiment must be one of {EXPERIMENTS}")
        if (not self.orders or any(m not in (1, 2, 3, 4) for m in self.orders)
                or len(set(self.orders)) < len(self.orders)):  # a repeat writes its rows twice
            raise SchemaError(f"orders must be a nonempty subset of {{1, 2, 3, 4}}, "
                              f"each order once, got {list(self.orders)}")
        if self.n < 1:
            raise SchemaError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.p <= 1:
            raise SchemaError(f"p={self.p} outside [0, 1]")
        if self.trials < 1:
            raise SchemaError("trials must be >= 1")
        if self.k_max < 1:
            raise SchemaError("k_max must be >= 1")
        if self.seed < 0:
            raise SchemaError(f"seed must be >= 0, got {self.seed}")
        if self.experiment == "custom" and not self.graph_file:
            raise SchemaError("custom experiments need a graph_file")
        if self.experiment != "custom" and self.graph_file is not None:
            raise SchemaError(f"only custom experiments read graph_file, not {self.experiment}")
        if isinstance(self.gain_rule, dict):
            for m in self.orders:
                if str(m) not in self.gain_rule:
                    raise SchemaError(f"gain_rule has no entry for order {m}")
                values = _numbers(self.gain_rule[str(m)], f"gain_rule for order {m}")
                if len(values) != m:
                    raise SchemaError(
                        f"gain_rule for order {m} must hold {m} numbers, got {len(values)}")
                GainVector(tuple(values.tolist()))
            if unread := sorted(set(self.gain_rule) - {str(m) for m in self.orders}):
                raise SchemaError(f"gain_rule keys {unread} name no configured order")
        elif self.gain_rule != "auto":
            raise SchemaError(f"gain_rule must be 'auto' or a mapping, got {self.gain_rule!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise SchemaError("experiment config must be a JSON object")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise SchemaError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise SchemaError(str(exc)) from exc


def derive_seed(master: int, *key: int) -> int:
    """Stable 64-bit child seed for (master, key...)."""
    ss = np.random.SeedSequence([int(master), *[int(k) for k in key]])
    return int(ss.generate_state(1, np.uint64)[0])


def context_for(config: ExperimentConfig, phase: SingletonPhase, m: int) -> SystemContext:
    """Context with the configured gain rule for order m on the graph's ``phase``."""
    if config.gain_rule == "auto":
        return SystemContext(phase, auto_gains(phase, m))
    return SystemContext(phase, GainVector(tuple(config.gain_rule[str(m)])))


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def _run_graph_trials(config: ExperimentConfig, out: Path, metric: str) -> dict:
    """Shared driver for fig1 (metric='optimal_h') and fig2 (metric='ratio')."""
    per_trial_rows: list[str] = []
    values: dict[tuple[int, int], list[float]] = {}
    trials_meta: list[dict] = []
    for trial in range(config.trials):
        trial_seed = derive_seed(config.seed, trial)
        graph, resamples = erdos_renyi_connected(config.n, config.p, trial_seed)
        phase = singleton_phase(graph)
        contexts = [context_for(config, phase, m) for m in config.orders]
        gains = {str(m): list(c.gains.values) for m, c in zip(config.orders, contexts)}
        trials_meta.append(
            {"trial": trial, "seed": trial_seed, "resamples": resamples, "gains": gains}
        )
        sweeps = exhaustive_sweep(contexts, config.k_max)  # every order's optimum at every budget
        for m, context, sweep in zip(config.orders, contexts, sweeps):
            if metric == "ratio":
                greedy = greedy_select(context, config.k_max)
            for k in range(1, config.k_max + 1):
                optimal = sweep[min(k, len(sweep)) - 1]
                if metric == "optimal_h":
                    value = optimal.h_values[-1]
                else:
                    # the greedy at budget k is the first k rounds at k_max (same
                    # picks, same early stop); certify_bound reads only the last round
                    rounds = replace(greedy, chosen=greedy.chosen[:k],
                                     f_values=greedy.f_values[:k], h_values=greedy.h_values[:k])
                    value = certify_bound(context, rounds, optimal).ratio
                values.setdefault((k, m), []).append(value)
                per_trial_rows.append(f"{k},{m},{trial},{value!r}")

    name = config.experiment
    if metric == "optimal_h":
        header = "k,order,mean_optimal_h,trials"
        trial_header = "k,order,trial,optimal_h"
    else:
        header = "k,order,mean_ratio"
        trial_header = "k,order,trial,ratio"
    mean_rows = []
    for (k, m) in sorted(values):
        mean = float(np.mean(values[(k, m)]))
        row = f"{k},{m},{mean!r}"
        if metric == "optimal_h":
            row += f",{config.trials}"
        mean_rows.append(row)
    _write_csv(out / f"{name}.csv", header, mean_rows)
    _write_csv(out / f"{name}_trials.csv", trial_header, per_trial_rows)
    return {"trials": trials_meta}


def _run_singleton_table(config: ExperimentConfig, out: Path, gf: GraphFile) -> dict:
    phase = singleton_phase(gf.graph)
    rows: list[str] = []
    gains_used: dict[str, list[float]] = {}
    argmin: dict[str, int] = {}
    for m in config.orders:
        context = context_for(config, phase, m)
        gains_used[str(m)] = list(context.gains.values)
        best = exhaustive_select(context, 1)
        rho = context.gains.form.rho
        for v, norm in enumerate(context.singleton_normalized):
            rows.append(f"{gf.to_label(v)},{m},{norm / rho!r}")
        argmin[str(m)] = gf.to_label(best.chosen[0])
    name = config.experiment
    _write_csv(out / f"{name}.csv", "node,order,coherence", rows)
    return {"gains": gains_used, "argmin_node": argmin}


def run_experiment(config: ExperimentConfig, output_dir: str | Path | None = None) -> Path:
    """Run the configured experiment; returns the output directory.

    Writes the protocol CSVs plus a summary.json recording the seeds and
    the gain values actually used, so a rerun is fully reproducible.
    """
    out = Path(output_dir if output_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.experiment == "fig1":
        detail = _run_graph_trials(config, out, "optimal_h")
    elif config.experiment == "fig2":
        detail = _run_graph_trials(config, out, "ratio")
    elif config.experiment == "fig3":
        detail = _run_singleton_table(config, out, six_node_example())
    else:
        detail = _run_singleton_table(config, out, read_graph_file(config.graph_file))
    summary = {
        "experiment": config.experiment,
        "config": {k: v for k, v in asdict(config).items()
                   if k not in ("experiment", "output_dir")},
        **detail,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return out
