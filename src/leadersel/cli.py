"""Command-line surface.

Subcommands: gen, stability, coherence, select, experiment, simulate.
Results print as JSON (or flattened CSV with --format csv) on stdout.

Exit codes: 0 success (also when the reader closes stdout early), 1 usage
error, 2 input/config error (or the Lyapunov oracle cannot meet its
residual bound, or the input does not fit in memory), 3 the system
under test is unstable.  Node ids on the command line and in outputs
are in the graph file's label space (``label_base``, default 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .coherence import (
    SystemContext,
    coherence_closed,
    coherence_lyapunov_oracle,
)
from .errors import LeaderSelError, LyapunovAccuracyError, UnstableSystemError
from .experiments import ExperimentConfig, run_experiment
from .graphs import (
    GraphFile,
    erdos_renyi,
    erdos_renyi_connected,
    graph_payload,
    read_graph_file,
    write_graph,
)
from .selection import certify_bound, exhaustive_select, greedy_select
from .simulate import SimulationSpec, simulate_coherence, simulate_trajectory
from .stability import (
    auto_gains,
    check_stability,
    companion_state_matrix,
    spectral_stability_oracle,
)
from .system import GainVector, GroundedSystem, singleton_phase

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_UNSTABLE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1.

    Flags must be spelled in full: with prefix matching, ``gen --out`` would
    silently mean ``gen --output``.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, seed: bool = False, out: bool = False) -> None:
    """Common flags; only the subcommands that read ``--seed`` or ``--out`` take them."""
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="master random seed")
    if out:
        parser.add_argument("--out", default=None, help="output directory for written files")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="stdout payload format")


def _add_system_args(parser: argparse.ArgumentParser, with_leaders: bool = True) -> None:
    parser.add_argument("graph", help="graph JSON file")
    parser.add_argument("--order", type=int, required=True, choices=(1, 2, 3, 4),
                        help="dynamic order m")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--gains", help="comma-separated gains a1,..,am")
    group.add_argument("--auto-gains", action="store_true",
                       help="derive gains from the smallest grounded eigenvalue")
    if with_leaders:
        parser.add_argument("--leaders", help="comma-separated leader labels")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after.

    ``parse_args`` never changes the parser and returns a fresh namespace,
    and ``_Parser.error`` and help look up ``sys.stderr``/``sys.stdout``
    when they print, so one parser serves every ``main`` call in a process.
    """
    parser = _Parser(prog="leadersel", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="sample a random graph file")
    _add_common(p_gen, seed=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, required=True)
    p_gen.add_argument("--weight", type=float, default=1.0)
    p_gen.add_argument("--connected", action="store_true",
                       help="resample (seed offset +1) until connected")
    p_gen.add_argument("--label-base", type=int, default=1)
    p_gen.add_argument("--output", help="write the graph here instead of stdout")

    p_stab = sub.add_parser("stability", help="stability verdict for a leader set")
    _add_common(p_stab)
    _add_system_args(p_stab)
    p_stab.add_argument("--oracle", action="store_true",
                        help="cross-check against the state-matrix spectrum")

    p_coh = sub.add_parser("coherence", help="coherence of a leader set")
    _add_common(p_coh)
    _add_system_args(p_coh)
    p_coh.add_argument("--method", choices=("closed", "lyapunov"), default="closed")

    p_sel = sub.add_parser("select", help="choose a leader set of size <= k")
    _add_common(p_sel)
    _add_system_args(p_sel, with_leaders=False)
    p_sel.add_argument("--k", type=int, required=True)
    p_sel.add_argument("--algorithm", choices=("greedy", "exhaustive", "both"),
                       default="greedy")

    p_exp = sub.add_parser("experiment", help="run a configured experiment")
    _add_common(p_exp, out=True)
    p_exp.add_argument("config", help="experiment config JSON file")

    p_sim = sub.add_parser("simulate", help="empirical coherence via integration")
    _add_common(p_sim, seed=True, out=True)
    _add_system_args(p_sim)
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument("--total-time", type=float, default=500.0)
    p_sim.add_argument("--burn-in", type=float, default=20.0)
    p_sim.add_argument("--ensemble", type=int, default=2)
    p_sim.add_argument("--trajectory", help="also write a trajectory CSV to this file")
    p_sim.add_argument("--stride", type=int, default=None,
                       help="record every this many steps in the trajectory (default 100)")

    return parser


def _load_graph(path: str) -> GraphFile:
    p = Path(path)
    if not p.exists():
        raise LeaderSelError(f"graph file not found: {path}")
    return read_graph_file(p)


def _parse_leaders(gf: GraphFile, raw: str | None) -> list[int]:
    if raw is None:
        raise UsageError("--leaders is required for this command")
    labels = [tok for tok in raw.split(",") if tok.strip() != ""]
    if not labels:
        raise LeaderSelError("leader list is empty")
    try:
        ids = [gf.to_id(int(tok)) for tok in labels]
    except ValueError as exc:
        raise LeaderSelError(f"leader labels must be integers: {exc}") from exc
    for ident, tok in zip(ids, labels):
        if not 0 <= ident < gf.graph.n:
            raise LeaderSelError(f"leader label {tok} outside the graph's label range")
    return ids


def _parse_gains(args, gf: GraphFile) -> GainVector:
    if args.auto_gains:
        return auto_gains(singleton_phase(gf.graph), args.order)
    if args.gains is None:
        raise UsageError("provide --gains or --auto-gains")
    try:
        values = tuple(float(tok) for tok in args.gains.split(","))
    except ValueError as exc:
        raise UsageError(f"gains must be numbers: {exc}") from exc
    if len(values) != args.order:
        raise UsageError(f"expected {args.order} gains, got {len(values)}")
    return GainVector(values)


def _load_system(args) -> tuple[GraphFile, GroundedSystem]:
    """The graph file and the system its ``--leaders`` and gains flags name."""
    gf = _load_graph(args.graph)
    leaders = _parse_leaders(gf, args.leaders)
    gains = _parse_gains(args, gf)
    return gf, GroundedSystem.create(gf.graph, leaders, gains)


def _emit(payload: dict, fmt: str) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)  # NaN or inf: ValueError, exit 2
    if fmt == "json":
        print(text)
        return
    rows = ["key,value"]

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), sub)
        elif isinstance(value, (list, tuple)):
            for i, sub in enumerate(value):
                walk(f"{prefix}[{i}]", sub)
        else:
            rows.append(f"{prefix},{value!r}" if isinstance(value, float) else f"{prefix},{value}")

    walk("", payload)
    print("\n".join(rows))


def _cmd_gen(args) -> int:
    if args.connected:
        graph, resamples = erdos_renyi_connected(args.n, args.p, args.seed, args.weight)
    else:
        graph, resamples = erdos_renyi(args.n, args.p, args.seed, args.weight), 0
    if args.output:
        write_graph(graph, args.output, args.label_base)
        _emit({"written": args.output, "edges": len(graph.w), "resamples": resamples},
              args.format)
    else:
        print(json.dumps(graph_payload(graph, args.label_base)))
    return EXIT_OK


def _cmd_stability(args) -> int:
    gf, system = _load_system(args)
    report = check_stability(system)
    payload = asdict(report)
    payload["leaders"] = [gf.to_label(v) for v in system.leaders]
    payload["gains"] = list(system.gains.values)
    if args.oracle:
        a = companion_state_matrix(system.matrix, system.gains.values)
        stable, max_real = spectral_stability_oracle(a)
        payload["oracle"] = {"stable": stable, "max_real_part": max_real}
    _emit(payload, args.format)
    return EXIT_OK if report.stable else EXIT_UNSTABLE


def _cmd_coherence(args) -> int:
    gf, system = _load_system(args)
    if args.method == "closed":
        report = coherence_closed(system)
    else:
        report = coherence_lyapunov_oracle(system)
    payload = asdict(report)
    payload["leaders"] = [gf.to_label(v) for v in report.leaders]
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_select(args) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    gf = _load_graph(args.graph)
    if args.auto_gains:
        context = SystemContext.auto(gf.graph, args.order)
    else:
        gains = _parse_gains(args, gf)  # usage errors come before the eigendecomposition
        context = SystemContext(singleton_phase(gf.graph), gains)
    payload: dict = {"order": args.order, "gains": list(context.gains.values)}

    def labelled(result) -> dict:
        data = asdict(result)
        data["chosen"] = [gf.to_label(v) for v in result.chosen]
        return data

    if args.algorithm in ("greedy", "both"):
        greedy = greedy_select(context, args.k)
        payload["greedy"] = labelled(greedy)
    if args.algorithm in ("exhaustive", "both"):
        optimal = exhaustive_select(context, args.k)
        payload["exhaustive"] = labelled(optimal)
    if args.algorithm == "both":
        payload["certificate"] = asdict(certify_bound(context, greedy, optimal))
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise LeaderSelError(f"config file not found: {args.config}")
    config = ExperimentConfig.from_file(path)
    out = run_experiment(config, args.out)
    _emit({"experiment": config.experiment, "output_dir": str(out)}, args.format)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if not args.trajectory:
        for flag, value in (("--stride", args.stride), ("--out", args.out)):
            if value is not None:
                raise UsageError(f"{flag} is read only with --trajectory")
    gf, system = _load_system(args)
    spec = SimulationSpec(system=system, dt=args.dt, total_time=args.total_time,
                          burn_in=args.burn_in, seed=args.seed, ensemble=args.ensemble)
    if args.trajectory:
        target = Path(args.out) / args.trajectory if args.out else Path(args.trajectory)
        stride = 100 if args.stride is None else args.stride
        estimate, stderr = simulate_trajectory(spec, target, stride)
    else:
        estimate, stderr, _ = simulate_coherence(spec)
    payload = {
        "order": system.m,
        "estimate": estimate,
        "standard_error": stderr,
        "dt": args.dt,
        "total_time": args.total_time,
        "burn_in": args.burn_in,
        "ensemble": args.ensemble,
        "seed": args.seed,
        "leaders": [gf.to_label(v) for v in system.leaders],
    }
    if args.trajectory:
        payload["trajectory"] = str(target)
    _emit(payload, args.format)
    return EXIT_OK


_HANDLERS = {
    "gen": _cmd_gen,
    "stability": _cmd_stability,
    "coherence": _cmd_coherence,
    "select": _cmd_select,
    "experiment": _cmd_experiment,
    "simulate": _cmd_simulate,
}

def main(argv=None) -> int:
    """Run one command (``argv``, default ``sys.argv[1:]``) and return its exit code.

    It may be called repeatedly in one process: the parser is built once,
    on the first call, and each call pays only for its own command.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # The reader closed stdout (say `leadersel gen ... | head`): not an
        # input error.  Point stdout at devnull so the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnstableSystemError as exc:
        print(f"unstable system: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except LyapunovAccuracyError as exc:
        print(f"oracle accuracy limit: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, LeaderSelError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
