import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

import leadersel.cli as cli
import leadersel.errors as errors
import leadersel.selection as selection
from leadersel.cli import main
from leadersel.coherence import SystemContext, coherence_closed
from leadersel.experiments import ExperimentConfig
from leadersel.graphs import build_graph, write_graph
from leadersel.selection import exhaustive_select, greedy_select
from leadersel.stability import check_stability
from leadersel.system import GroundedSystem, singleton_phase

from conftest import cliques, edge_list, gain_vector, set_value

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "leadersel" / "data" / "schemas"
FIXTURE = Path(__file__).resolve().parents[1] / "src" / "leadersel" / "data" / "six_node_example.json"


def schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "leadersel", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture()
def k2_file(tmp_path):
    path = tmp_path / "k2.json"
    write_graph(build_graph(2, [(0, 1, 1.0)]), path, label_base=0)
    return path


# -- stability ---------------------------------------------------------------

def test_stability_stable_exit_zero(k2_file):
    proc = run_cli("stability", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "0")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    validate(payload, schema("stability"))
    assert payload["stable"] is True


def test_stability_equal_gain_fourth_order_exit_three(k2_file):
    proc = run_cli("stability", str(k2_file), "--order", "4", "--gains", "1,1,1,1",
                   "--leaders", "0", "--oracle")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    validate(payload, schema("stability"))
    assert payload["stable"] is False
    assert payload["oracle"]["stable"] is False


def test_stability_missing_leaders_usage_error(k2_file):
    proc = run_cli("stability", str(k2_file), "--order", "2", "--gains", "1,1")
    assert proc.returncode == 1


def test_stability_bad_file_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    proc = run_cli("stability", str(bad), "--order", "2", "--gains", "1,1",
                   "--leaders", "0")
    assert proc.returncode == 2
    assert proc.stderr == (f"input error: {bad}: Expecting property name enclosed in "
                           "double quotes: line 1 column 2 (char 1)\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("command, text, message", [
    ("select", '{"n": 2, "edges": [[1, 2, 1.0]], "kapp\u00e9": [1, 1]}',
     "graph fields ['edges', 'kapp\\xe9', 'n'] are not n, edges[, label_base, kappa]"),
    ("experiment", '{"experiment": "fig3", "\u00e9": 1}', "unknown config fields: ['\\xe9']"),
], ids=["graph", "config"])
def test_input_files_are_utf8_under_an_ascii_locale(tmp_path, command, text, message):
    """Graph and config files are UTF-8 (RFC 8259) whatever the locale, and an
    undecodable one is named.  Under this environment the default encoding is
    ASCII; stderr writes the non-ASCII character as its escape."""
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    args = ["--order", "1", "--auto-gains", "--k", "1"] if command == "select" else []
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(text, encoding="utf-8")
    bad.write_bytes(b'{"n": 2, "edges": [[1, 2, 1.0]]}\xff')
    proc = run_cli(command, str(good), *args, env=env)
    assert (proc.returncode, proc.stderr) == (2, f"input error: {message}\n")
    proc = run_cli(command, str(bad), *args, env=env)
    assert (proc.returncode, proc.stderr) == (2, (
        f"input error: {bad}: 'utf-8' codec can't decode byte 0xff in position 32: "
        "invalid start byte\n"))


def test_stability_wrong_gain_count_usage_error(k2_file):
    proc = run_cli("stability", str(k2_file), "--order", "3", "--gains", "1,1",
                   "--leaders", "0")
    assert proc.returncode == 1


# -- coherence ----------------------------------------------------------------

def test_coherence_closed_value(k2_file):
    proc = run_cli("coherence", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "0")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    validate(payload, schema("coherence"))
    assert payload["value"] == pytest.approx(3.5, rel=1e-10)


def test_coherence_lyapunov_agrees(k2_file):
    proc = run_cli("coherence", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "0", "--method", "lyapunov")
    payload = json.loads(proc.stdout)
    validate(payload, schema("coherence"))
    assert payload["value"] == pytest.approx(3.5, rel=1e-6)


def test_coherence_empty_leaders_input_error(k2_file):
    proc = run_cli("coherence", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "")
    assert proc.returncode == 2


def test_coherence_unstable_exit_three(k2_file):
    proc = run_cli("coherence", str(k2_file), "--order", "3", "--gains", "1,1,1",
                   "--leaders", "0")
    assert proc.returncode == 3


# The stability checks are scale-free: each slack is relative to its own
# inequality, the closed forms' margin reads that dimensionless slack, and
# the spectral oracle decides on the sign of max Re.  So a Hurwitz-stable
# system keeps its verdict in any units; these three were refused while the
# checks compared quantities with units against absolute tolerances.

def test_stability_calls_a_tiny_gain_stable(k2_file, capsys):
    """a1 = 1e-13 is Hurwitz-stable; its gain condition reads a slack of 1."""
    assert main(["stability", str(k2_file), "--order", "1", "--gains", "1e-13",
                 "--leaders", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is True and payload["marginal"] is False
    assert payload["margin"] == 1.0
    assert [c["slack"] for c in payload["conditions"]] == [1.0]


def test_coherence_accepts_a_small_gain(k2_file, capsys):
    """a1 = 1e-10: H = tr(Q^-1) / (2 a1), and tr(Q^-1) = 3 on K2 grounded at 0."""
    assert main(["coherence", str(k2_file), "--order", "1", "--gains", "1e-10",
                 "--leaders", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.5e10, rel=1e-12)


def test_spectral_oracle_calls_small_weights_stable(tmp_path, capsys):
    """K2 with weights and kappa times 2^-30: max Re is -lambda_min(Q_{0}),
    about -3.6e-10, negative, so the oracle agrees with the conditions."""
    s = 2.0**-30
    path = tmp_path / "k2.json"
    write_graph(build_graph(2, [(0, 1, s)], kappa=[s, s]), path, label_base=0)
    assert main(["stability", str(path), "--order", "1", "--gains", "1", "--leaders", "0",
                 "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is True and payload["oracle"]["stable"] is True
    lam = (3.0 - 5.0**0.5) / 2.0 * s
    assert payload["oracle"]["max_real_part"] == pytest.approx(-lam, rel=1e-9)


# Known defect, pinned as it stands (ROADMAP "Hurwitz minors overflow"): the
# first two systems are stable, but their last Hurwitz minor exceeds the
# float range (1e200 * 0.38 * 3.8e199 at order 2, 1e150 * 0.38 * 1.5e299 at
# order 3), so the payload holds inf and they exit 2 instead of 0.
@pytest.mark.parametrize("argv", [
    ("stability", "--order", "2", "--gains", "1e200,1e200"),  # a Hurwitz determinant is inf
    ("stability", "--order", "3", "--gains", "1e150,1e150,1e150"),  # a Hurwitz determinant is inf
    ("coherence", "--order", "1", "--gains", "1e-320"),  # H = 1.5 / 1e-320 overflows
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_result_is_refused(k2_file, capsys, argv, fmt):
    """JSON has no NaN or Infinity: such a payload exits 2 and prints nothing."""
    command, *rest = argv
    assert main([command, str(k2_file), *rest, "--leaders", "0", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"input error: Out of range float values are not JSON compliant"
                        r": (inf|nan)\n", captured.err)


def test_huge_equal_order_four_gains_keep_finite_minors(k2_file, capsys):
    """Factored, the minors stay finite where the raw polynomial forms gave
    inf - inf = NaN: equal order-4 gains are unstable, exit 3 with a payload,
    and the third minor is -a2^2 lambda^2 once a2 a3 a4 and a1 a4^2 cancel."""
    assert main(["stability", str(k2_file), "--order", "4", "--gains",
                 "1e100,1e100,1e100,1e100", "--leaders", "1"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is False
    dets = payload["hurwitz_determinants"]
    assert dets[2] == pytest.approx(-1e200 * payload["lambda_min"] ** 2, rel=1e-12)
    assert dets[3] == pytest.approx(1e100 * payload["lambda_min"] * dets[2], rel=1e-12)


# Known defect, pinned as it stands (ROADMAP item 3, "Open"): the Woodbury
# scorer loses accuracy when L has an eigenvalue far below the chosen set's
# lambda_min(Q_S), a weakly attached node that S already grounds.  On the
# path 0-2-1 with weights 0.42 and 2.9e-6 the greedy's last value misses the
# confirming eigensolve at every order, so `select` refuses; a scorer that
# keeps the weak direction out of A should turn this around.

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_known_defect_weakly_attached_path_is_refused(tmp_path, capsys, m):
    path = tmp_path / "weak.json"
    write_graph(build_graph(3, [(0, 2, 0.42), (1, 2, 2.9e-6)]), path,
                label_base=0)
    assert main(["select", str(path), "--order", str(m), "--auto-gains", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    match = re.fullmatch(r"input error: greedy value (\S+) of 3 leaders disagrees with the "
                         r"eigensolve's (\S+) \(condition number \S+\)\n", captured.err)
    assert match, captured.err
    if m == 2:
        assert float(match[1]) == pytest.approx(2.4269, rel=1e-3)
        assert float(match[2]) == pytest.approx(2.2954, rel=1e-3)


def test_coherence_has_no_simulate_method(k2_file):
    # the estimator is reached through the simulate subcommand only
    proc = run_cli("coherence", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "0", "--method", "simulate")
    assert proc.returncode == 1


# -- select ----------------------------------------------------------------------

def test_select_six_node_first_order_label_two():
    proc = run_cli("select", str(FIXTURE), "--order", "1", "--auto-gains", "--k", "1")
    payload = json.loads(proc.stdout)
    validate(payload, schema("select"))
    assert payload["greedy"]["chosen"] == [2]


def test_select_six_node_second_order_both():
    proc = run_cli("select", str(FIXTURE), "--order", "2", "--auto-gains", "--k", "1",
                   "--algorithm", "both")
    payload = json.loads(proc.stdout)
    validate(payload, schema("select"))
    assert payload["greedy"]["chosen"] == [4]
    assert payload["exhaustive"]["chosen"] == [4]
    assert payload["certificate"]["ratio"] == 0.0
    assert payload["certificate"]["holds"] is True


def test_select_both_runs_each_algorithm_once(monkeypatch, capsys):
    calls = {"greedy_select": 0, "exhaustive_select": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, selection):
        for name, fn in (("greedy_select", greedy_select), ("exhaustive_select", exhaustive_select)):
            monkeypatch.setattr(module, name, counted(name, fn))
    assert main(["select", str(FIXTURE), "--order", "3", "--auto-gains", "--k", "3",
                 "--algorithm", "both"]) == 0
    assert "certificate" in json.loads(capsys.readouterr().out)
    assert calls == {"greedy_select": 1, "exhaustive_select": 1}


def test_select_k_zero_usage_error(k2_file):
    proc = run_cli("select", str(k2_file), "--order", "2", "--gains", "1,1", "--k", "0")
    assert proc.returncode == 1


def test_select_exhaustive_budget_above_cap_exits_two(tmp_path, capsys):
    path = tmp_path / "g40.json"
    assert main(["gen", "--n", "40", "--p", "0.5", "--seed", "3", "--connected",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    code = main(["select", str(path), "--order", "1", "--auto-gains", "--k", "6",
                 "--algorithm", "exhaustive"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "input error: 4598478 subsets exceed the cap of 1000000\n"
    assert captured.out == ""


DISCONNECTED = {
    "2xK2": cliques(2, 2),
    "K3+K3": cliques(3, 3),
    "K2+isolated": cliques(2, 1),
    "dense10": cliques(5, 5),
    "dense30": cliques(15, 15),
    # connected by its edges, but lambda_1(L) ~ 1e-20 is lost in rounding
    "K5~K5": build_graph(10, [*edge_list(cliques(5, 5)), (4, 5, 1e-20)]),
}
GAINS = {1: "1", 2: "1,1", 3: "2,2,2", 4: "2,4,4,4"}


@pytest.mark.parametrize("name", sorted(DISCONNECTED))
@pytest.mark.parametrize("gains", ["auto", "explicit"])
def test_select_refuses_disconnected_graph(tmp_path, capsys, name, gains):
    graph = DISCONNECTED[name]
    path = tmp_path / "g.json"
    write_graph(graph, path)
    for m in (1, 2, 3, 4):
        chosen = ["--auto-gains"] if gains == "auto" else ["--gains", GAINS[m]]
        code = main(["select", str(path), "--order", str(m), *chosen, "--k", "2"])
        err = capsys.readouterr().err
        assert code == 2, (m, err)
        assert "not connected" in err


@pytest.mark.parametrize("name", sorted(DISCONNECTED))
def test_one_leader_on_disconnected_graph_is_refused(tmp_path, capsys, name):
    """One leader leaves a component ungrounded, so Q_S is singular and its
    computed lambda_min is rounding noise: every command that reads it
    refuses, whatever sign the noise has."""
    graph = DISCONNECTED[name]
    path = tmp_path / "g.json"
    write_graph(graph, path)
    for m in (1, 2, 3, 4):
        system = [str(path), "--order", str(m), "--gains", GAINS[m], "--leaders", "1"]
        for command in (["stability"], ["coherence"], ["coherence", "--method", "lyapunov"],
                        ["simulate", "--total-time", "1", "--burn-in", "0.5"]):
            code = main([*command, *system])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), (m, command, captured.err)
            assert "lambda_min(Q_S) = " in captured.err
            assert "is within rounding of zero" in captured.err


def test_unresolved_lambda_min_names_its_cause(tmp_path, capsys):
    """K2 with kappa 1e16 on both nodes and one leader: lambda_min(Q_S) is
    about 1, but lambda_max(Q_S) = 1e16 puts the rounding floor
    n * eps * lambda_max at 4.44, so the set is refused (exit 2).  Every node
    is in reach of the leader, so the message does not blame a missing one;
    one leader on two K2 blocks keeps that wording."""
    path = tmp_path / "g.json"
    argv = ["coherence", str(path), "--order", "1", "--gains", "1", "--leaders", "1"]
    write_graph(build_graph(2, [(0, 1, 1.0)], kappa=[1e16, 1e16]), path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", (
        "input error: lambda_min(Q_S) = 1 is within rounding of zero (n * eps * "
        "lambda_max(Q_S) = 4.44): Q_S is beyond the eigensolve's resolution, though every "
        "component has a leader\n"))
    write_graph(cliques(2, 2), path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith("): a component lacks a leader\n")


# P3 with kappa 1e16 on node 0: the greedy picks 0, then 2, then 1, and
# lambda_max(Q_S) ~ 1e16 puts every such set's rounding floor
# n * eps * lambda_max at 6.66, above its lambda_min(Q_S) of 1 or 1.38.
UNRESOLVED_P3 = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)], kappa=[1e16, 1.0, 1.0])


@pytest.mark.parametrize("m, gains", [(1, "1"), (2, "1,1")])
@pytest.mark.parametrize("k, leaders", [(2, "0,2"), (3, "0,2,1")])
def test_select_refuses_unresolved_lambda_min_as_coherence_does(tmp_path, capsys, monkeypatch,
                                                                m, gains, k, leaders):
    """The final check reads lambda_min(Q_S) by the rule ``coherence`` reads
    it by: both refuse the greedy's set, exit 2, with one message."""
    path = tmp_path / "p3.json"
    write_graph(UNRESOLVED_P3, path, label_base=0)
    flags = ["--order", str(m), "--gains", gains]
    assert main(["select", str(path), *flags, "--k", str(k)]) == 2
    refusal = capsys.readouterr()
    assert main(["coherence", str(path), *flags, "--leaders", leaders]) == 2
    assert capsys.readouterr() == refusal
    assert refusal.out == "" and refusal.err.startswith("input error: lambda_min(Q_S) = ")
    assert refusal.err.endswith("is within rounding of zero (n * eps * lambda_max(Q_S) = 6.66): "
                                "Q_S is beyond the eigensolve's resolution, though every "
                                "component has a leader\n")
    monkeypatch.setattr(selection, "_require_confirmed", lambda *args: None)
    ctx = SystemContext(singleton_phase(UNRESOLVED_P3), gain_vector(*map(float, gains.split(","))))
    assert greedy_select(ctx, k).chosen == tuple(map(int, leaders.split(",")))


def test_one_leader_per_component_grounds_a_disconnected_graph(tmp_path, capsys):
    """Two K2 blocks, each with its own leader: Q_S is block diagonal and
    positive definite, and H is the sum of the blocks' 1.5 each."""
    path = tmp_path / "g.json"
    write_graph(cliques(2, 2), path)
    for method in ("closed", "lyapunov"):
        assert main(["coherence", str(path), "--order", "1", "--gains", "1",
                     "--leaders", "1,3", "--method", method]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(3.0, rel=1e-12)
    assert main(["stability", str(path), "--order", "1", "--gains", "1",
                 "--leaders", "1,3"]) == 0
    assert json.loads(capsys.readouterr().out)["lambda_min"] == pytest.approx(
        (3 - 5**0.5) / 2, rel=1e-14)


def test_large_leader_kappa_is_not_taken_for_an_ungrounded_set(tmp_path, capsys):
    """K2 with kappa 1e11 on the leader: lambda_max(Q_S) is 1e11 but
    lambda_min(Q_S) = 1 - 1e-11 stands far above the rounding floor
    n * eps * lambda_max = 4.4e-5, so the set is accepted."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"label_base": 1, "n": 2, "edges": [[1, 2, 1.0]],
                                "kappa": [1e11, 1.0]}))
    system = [str(path), "--order", "1", "--gains", "1", "--leaders", "1"]
    assert main(["stability", *system]) == 0
    assert json.loads(capsys.readouterr().out)["lambda_min"] == pytest.approx(1.0, rel=1e-10)
    for method in ("closed", "lyapunov"):
        assert main(["coherence", *system, "--method", method]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.5, rel=1e-10)


def test_grounded_eigenvalues_past_the_float_range_are_refused(tmp_path, capsys):
    """Weight and kappa 8e307 on K2 are finite, but lambda_max(Q_S) = 2.1e308
    is not: the eigensolve refuses it, so inf never stands in for the
    spectrum's scale or enters H."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"label_base": 1, "n": 2, "edges": [[1, 2, 8e307]],
                                "kappa": [8e307, 8e307]}))
    for command in ("stability", "coherence"):
        assert main([command, str(path), "--order", "1", "--gains", "1", "--leaders", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "input error: eigenvalues overflow the float range\n")


# On G(1000, 0.5) the order-3 auto gains leave c lambda* - 1 = 7.6e-4, so
# cond(c Q - I) is about 5e8: the greedy's last value must still match the
# closed form on the set it chose.  CI runs the same graph at orders 1-4.
def test_select_order_three_at_n1000_matches_closed_form(tmp_path, capsys):
    path = tmp_path / "g1000.json"
    assert main(["gen", "--n", "1000", "--p", "0.5", "--seed", "1", "--connected",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    assert main(["select", str(path), "--order", "3", "--auto-gains", "--k", "5"]) == 0
    greedy = json.loads(capsys.readouterr().out)["greedy"]
    assert len(greedy["chosen"]) == 5
    leaders = ",".join(map(str, greedy["chosen"]))
    assert main(["coherence", str(path), "--order", "3", "--auto-gains", "--leaders", leaders,
                 "--method", "closed"]) == 0
    closed = json.loads(capsys.readouterr().out)["value"]
    assert greedy["h_values"][-1] == pytest.approx(closed, rel=1e-8)


# -- gen ---------------------------------------------------------------------------

def test_gen_writes_deterministic_file(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run_cli("gen", "--n", "8", "--p", "0.5", "--seed", "3", "--output", str(out1))
    r2 = run_cli("gen", "--n", "8", "--p", "0.5", "--seed", "3", "--output", str(out2))
    assert r1.returncode == r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    validate(json.loads(out1.read_text()), schema("graph"))


def test_gen_stdout_round_trips(tmp_path):
    proc = run_cli("gen", "--n", "5", "--p", "1.0", "--seed", "0")
    payload = json.loads(proc.stdout)
    validate(payload, schema("graph"))
    assert len(payload["edges"]) == 10


def test_gen_rejects_bad_probability():
    proc = run_cli("gen", "--n", "5", "--p", "2.0", "--seed", "0")
    assert proc.returncode == 2
    assert proc.stderr == "input error: p=2.0 outside [0, 1]\n"
    assert proc.stdout == ""


def test_gen_into_closed_pipe_exits_zero_quietly():
    # about 1 MB of JSON: the write outlasts the pipe buffer and meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "leadersel", "gen", "--n", "400", "--p", "0.5", "--seed", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


def test_gen_into_missing_directory_is_input_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "g.json"
    assert main(["gen", "--n", "5", "--p", "0.5", "--output", str(target)]) == 2
    assert "input error" in capsys.readouterr().err


# -- experiment ----------------------------------------------------------------------

def test_experiment_fig3_reproduces_leader_split(tmp_path):
    config = tmp_path / "fig3.json"
    config.write_text(json.dumps({
        "experiment": "fig3",
        "orders": [1, 2, 3],
        "gain_rule": "auto",
        "output_dir": str(tmp_path / "out"),
    }))
    proc = run_cli("experiment", str(config))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    validate(summary, schema("experiment_summary"))
    assert summary["argmin_node"] == {"1": 2, "2": 4, "3": 4}
    table = (tmp_path / "out" / "fig3.csv").read_text().splitlines()
    assert table[0] == "node,order,coherence"
    assert len(table) == 1 + 18


def test_experiment_rejects_bad_config(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"experiment": "fig9"}))
    proc = run_cli("experiment", str(config))
    assert proc.returncode == 2


def test_experiment_fig1_per_trial_ordering(tmp_path):
    config = tmp_path / "fig1.json"
    config.write_text(json.dumps({
        "experiment": "fig1",
        "n": 7,
        "p": 0.5,
        "trials": 2,
        "k_max": 2,
        "orders": [1, 2, 3],
        "seed": 19,
        "gain_rule": "auto",
        "output_dir": str(tmp_path / "out"),
    }))
    assert run_cli("experiment", str(config)).returncode == 0
    rows = (tmp_path / "out" / "fig1_trials.csv").read_text().splitlines()[1:]
    table = {}
    for row in rows:
        k, order, trial, value = row.split(",")
        table[(int(k), int(order), int(trial))] = float(value)
    for k in (1, 2):
        for trial in (0, 1):
            assert table[(k, 1, trial)] > table[(k, 2, trial)]
            assert table[(k, 3, trial)] > table[(k, 2, trial)]
    means = (tmp_path / "out" / "fig1.csv").read_text().splitlines()
    assert means[0] == "k,order,mean_optimal_h,trials"


def test_experiment_custom_graph(tmp_path, k2_file):
    config = tmp_path / "custom.json"
    config.write_text(json.dumps({
        "experiment": "custom",
        "orders": [2],
        "gain_rule": {"2": [1.0, 1.0]},
        "graph_file": str(k2_file),
        "output_dir": str(tmp_path / "out"),
    }))
    assert run_cli("experiment", str(config)).returncode == 0
    rows = (tmp_path / "out" / "custom.csv").read_text().splitlines()
    assert rows[0] == "node,order,coherence"
    assert len(rows) == 3
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["gains"] == {"2": [1.0, 1.0]}


@pytest.mark.parametrize("experiment", ["fig1", "fig2", "fig3"])
def test_experiment_graph_file_only_for_custom(tmp_path, capsys, k2_file, experiment):
    """The canned protocols would ignore graph_file, so naming one is refused."""
    out = tmp_path / "out"
    for graph_file in (str(k2_file), str(tmp_path / "missing.json")):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": experiment, "n": 8, "orders": [1],
                                      "trials": 1, "k_max": 1, "graph_file": graph_file}))
        assert main(["experiment", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"input error: only custom experiments read graph_file, not {experiment}\n")
        assert not out.exists()


def test_experiment_outputs_are_deterministic(tmp_path):
    config = tmp_path / "fig2.json"
    config.write_text(json.dumps({
        "experiment": "fig2",
        "n": 6,
        "p": 0.5,
        "trials": 2,
        "k_max": 2,
        "orders": [1, 2],
        "seed": 11,
        "gain_rule": "auto",
    }))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli("experiment", str(config), "--out", str(out1)).returncode == 0
    assert run_cli("experiment", str(config), "--out", str(out2)).returncode == 0
    for name in ("fig2.csv", "fig2_trials.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("gain_rule, code, message", [
    # orders 1 and 2 pass; the equal order-3 gains have a * lambda_min < 1
    ({"1": [1], "2": [1, 1], "3": [1, 1, 1]}, 3, "unstable system: "),
    ({"1": [1], "3": [8, 8, 8]}, 2, "input error: gain_rule has no entry for order 2\n"),
    # an entry of another length would run another order under this one's label
    ({"1": [1, 1]}, 2, "input error: gain_rule for order 1 must hold 1 numbers, got 2\n"),
    ({"1": [1], "2": [1]}, 2, "input error: gain_rule for order 2 must hold 2 numbers, got 1\n"),
    ({"1": 1}, 2, "input error: gain_rule for order 1 must be a list of numbers\n"),
    ({"1": [True]}, 2,
     "input error: gain_rule for order 1 must be a list of numbers, got boolean\n"),
])
def test_experiment_fig1_gain_rule_refusals_write_no_csv(tmp_path, capsys, gain_rule, code,
                                                         message):
    config = tmp_path / "fig1.json"
    config.write_text(json.dumps({"experiment": "fig1", "n": 8, "trials": 2, "k_max": 2,
                                  "orders": [1, 2, 3], "gain_rule": gain_rule}))
    out = tmp_path / "out"
    assert main(["experiment", str(config), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert list(out.glob("fig*.csv")) == []


def test_experiment_fig3_gain_rule_of_wrong_length_writes_no_csv(tmp_path, capsys):
    config = tmp_path / "fig3.json"
    config.write_text(json.dumps({"experiment": "fig3", "orders": [2], "gain_rule": {"2": [1]}}))
    out = tmp_path / "out"
    assert main(["experiment", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: gain_rule for order 2 must hold 2 numbers, got 1\n")
    assert list(out.glob("fig*.csv")) == []


@pytest.mark.parametrize("experiment, fields, message", [
    ("fig1", {"orders": [1, 2], "gain_rule": {"1": [1]}}, "gain_rule has no entry for order 2"),
    ("fig2", {"orders": [1], "gain_rule": {"1": [0]}}, "gain a1 = 0.0 must be nonzero and finite"),
    ("fig1", {"gain_rule": "fixed"}, "gain_rule must be 'auto' or a mapping, got 'fixed'"),
    ("fig1", {"p": 1.5}, "p=1.5 outside [0, 1]"),
    ("fig2", {"n": 0}, "n must be >= 1, got 0"),
    # a key that names no configured order would be copied into summary.json unread
    ("fig2", {"orders": [1, 2], "gain_rule": {"1": [2], "2": [1, 3], "7": "x"}},
     "gain_rule keys ['7'] name no configured order"),
    ("fig1", {"gain_rule": {"1": [2], "4": [1, 2, 2, 2], "0": [1]}},
     "gain_rule keys ['0', '4'] name no configured order"),
])
def test_refused_experiment_config_creates_no_output_dir(tmp_path, capsys, experiment, fields,
                                                         message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, "n": 8, "trials": 1, "k_max": 2,
                                  "orders": [1], **fields}))
    out = tmp_path / "out"
    assert main(["experiment", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("k_max", 2.5), ("n", 8.5), ("p", "0.5"), ("orders", [2.7]), ("orders", 2), ("trials", True),
    ("seed", 1.5), ("seed", -1), ("graph_file", 5), ("output_dir", 5),
])
def test_experiment_config_types_are_checked(tmp_path, capsys, field, value):
    config = tmp_path / "fig1.json"
    body = {"experiment": "fig1", "n": 8, "orders": [1], "trials": 1, "k_max": 2}
    config.write_text(json.dumps({**body, field: value}))
    with pytest.raises(errors.SchemaError, match=re.escape(field)):
        ExperimentConfig.from_file(config)
    with pytest.raises(errors.SchemaError, match=re.escape(field)):  # the library path too
        ExperimentConfig(**{**body, field: value})
    out = tmp_path / "out"
    assert main(["experiment", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {field}")
    assert list(out.glob("fig*.csv")) == []


@pytest.mark.parametrize("body", [
    {"experiment": "fig1", "n": 6, "trials": 1, "k_max": 2, "orders": [2, 2]},
    {"experiment": "fig3", "orders": [1, 3, 1]},
])
def test_experiment_config_refuses_repeated_orders(tmp_path, capsys, body):
    """A repeated order would write each of its rows twice."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    out = tmp_path / "out"
    assert main(["experiment", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: orders must be a nonempty subset of {1, 2, 3, 4}, each order once, "
        f"got {body['orders']}\n")
    assert list(out.glob("fig*.csv")) == []


def test_experiment_config_accepts_numpy_scalars():
    config = ExperimentConfig(experiment="fig1", n=np.int64(8), p=np.float64(0.5),
                              orders=[np.int64(2)], seed=np.uint32(3))
    assert (config.n, config.orders, config.seed) == (8, (2,), 3)
    assert type(config.n) is int and type(config.orders[0]) is int


def test_experiment_negative_seed_names_field_and_value(tmp_path, capsys):
    config = tmp_path / "fig1.json"
    config.write_text(json.dumps({"experiment": "fig1", "n": 8, "seed": -1, "orders": [1],
                                  "trials": 1, "k_max": 1}))
    out = tmp_path / "out"
    assert main(["experiment", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: seed must be >= 0, got -1\n"
    assert list(out.glob("fig*.csv")) == []


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "3", "--p", "0.5", "--seed", "-1"],
    ["gen", "--n", "3", "--p", "0.5", "--seed", "-1", "--connected"],
    ["simulate", "{k2}", "--order", "2", "--gains", "1,1", "--leaders", "0",
     "--total-time", "1", "--burn-in", "0.5", "--seed", "-1"],
], ids=["gen", "gen-connected", "simulate"])
def test_negative_seed_names_the_seed(capsys, k2_file, argv):
    assert main([arg.format(k2=k2_file) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: seed must be >= 0, got -1\n"
    assert captured.out == ""


def test_payload_keys_follow_schema_property_order(tmp_path, capsys):
    """JSON payloads are dataclass fields in declaration order, so the field
    order is the output contract: every key, nested ones included, comes in
    the order its schema lists it."""

    def emitted(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def keys(spec):
        return list(spec["properties"])

    system = (str(FIXTURE), "--order", "3", "--auto-gains")
    stability = schema("stability")
    payload = emitted("stability", *system, "--leaders", "1,2", "--oracle")
    assert list(payload) == keys(stability)
    conditions = keys(stability["properties"]["conditions"]["items"])
    assert [list(c) for c in payload["conditions"]] == [conditions] * 4
    assert list(payload["oracle"]) == keys(stability["properties"]["oracle"])
    for method in ("closed", "lyapunov"):
        payload = emitted("coherence", *system, "--leaders", "1,2", "--method", method)
        assert list(payload) == keys(schema("coherence"))
    select = schema("select")
    payload = emitted("select", *system, "--k", "2", "--algorithm", "both")
    assert list(payload) == keys(select)
    result = keys(select["$defs"]["result"])
    assert list(payload["greedy"]) == list(payload["exhaustive"]) == result
    assert list(payload["certificate"]) == keys(select["properties"]["certificate"])
    config = tmp_path / "fig3.json"
    config.write_text(json.dumps({"experiment": "fig3", "orders": [1], "graph_file": None}))
    emitted("experiment", str(config), "--out", str(tmp_path / "out"))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    spec = schema("experiment_summary")
    validate(summary, spec)
    assert list(summary) == [key for key in keys(spec) if key in summary]
    assert list(summary["config"]) == keys(spec["properties"]["config"])


# -- simulate --------------------------------------------------------------------------

def test_simulate_command_with_trajectory(tmp_path, k2_file):
    target = tmp_path / "traj.csv"
    proc = run_cli("simulate", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "0", "--dt", "1e-2", "--total-time", "20",
                   "--burn-in", "2", "--ensemble", "2", "--seed", "8",
                   "--trajectory", str(target))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["estimate"] > 0
    lines = target.read_text().splitlines()
    assert lines[0] == "t,y_0,y_1"


def test_simulate_estimate_near_closed_form(k2_file):
    proc = run_cli("simulate", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "0",
                   "--dt", "1e-2", "--total-time", "60", "--burn-in", "5", "--seed", "4")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["estimate"] == pytest.approx(3.5, rel=0.5)


def test_cli_start_up_imports_no_executor():
    """``concurrent.futures`` (and the ``logging`` it imports) load only
    when an exhaustive sweep runs, so no other command pays for them."""
    code = ("import sys, leadersel.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_simulate_rejects_zero_stride(tmp_path, k2_file):
    proc = run_cli("simulate", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "0", "--dt", "1e-2", "--total-time", "1", "--burn-in", "0",
                   "--trajectory", str(tmp_path / "t.csv"), "--stride", "0")
    assert proc.returncode == 2
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("flag, value", [("--stride", "5"), ("--stride", "0"),
                                         ("--out", "sim")])
def test_simulate_trajectory_flag_without_trajectory_is_usage_error(tmp_path, capsys,
                                                                    k2_file, flag, value):
    if flag == "--out":
        value = str(tmp_path / value)
    argv = ["simulate", str(k2_file), "--order", "2", "--gains", "1,1", "--leaders", "0",
            "--dt", "1e-2", "--total-time", "1", "--burn-in", "0", flag, value]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"usage error: {flag} is read only with --trajectory\n"
    assert not (tmp_path / "sim").exists()


def test_simulate_rejects_burn_in_covering_every_step(k2_file):
    # 0.9996 s at dt = 1e-3 rounds to all 1000 steps: nothing left to average
    proc = run_cli("simulate", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "1", "--total-time", "1", "--burn-in", "0.9996")
    assert proc.returncode == 2
    assert "burn-in" in proc.stderr


def test_simulate_rejects_oversized_step(k2_file):
    proc = run_cli("simulate", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "0", "--dt", "0.5", "--total-time", "10",
                   "--burn-in", "1")
    assert proc.returncode == 2


# -- exit codes ------------------------------------------------------------------------

NON_FINITE = [
    (["coherence", "{k2}", "--order", "2", "--gains", "inf,1", "--leaders", "0"],
     "gain a1 = inf must be nonzero and finite"),
    (["select", "{k2}", "--order", "2", "--gains", "inf,1", "--k", "2"],
     "gain a1 = inf must be nonzero and finite"),
    (["coherence", "{k2}", "--order", "2", "--gains", "nan,1", "--leaders", "0"],
     "gain a1 = nan must be nonzero and finite"),
    (["gen", "--n", "4", "--p", "1", "--weight", "nan"], "weight nan must be positive and finite"),
    (["coherence", "{inf_weight}", "--order", "1", "--gains", "1", "--leaders", "0"],
     "weight inf must be positive and finite"),
    (["coherence", "{nan_kappa}", "--order", "1", "--gains", "1", "--leaders", "0"],
     "kappa weight nan must be positive and finite"),
    (["simulate", "{k2}", "--order", "2", "--gains", "1,1", "--leaders", "0",
      "--total-time", "inf"], "total_time must be finite, got inf"),
    (["simulate", "{k2}", "--order", "2", "--gains", "1,1", "--leaders", "0",
      "--dt", "nan"], "dt must be finite, got nan"),
    (["simulate", "{k2}", "--order", "2", "--gains", "1,1", "--leaders", "0",
      "--burn-in", "nan"], "burn_in must be finite, got nan"),
    (["simulate", "{k2}", "--order", "1", "--gains", "1", "--leaders", "0",
      "--dt", "1e-300", "--total-time", "1e300", "--burn-in", "1"],
     "total_time / dt = 1e+300 / 1e-300 overflows the step count"),
]


@pytest.mark.parametrize("text, message", [
    ('{"n": 2, "edges": [[1, 2, null]]}', "edges must be a list of numbers, got null"),
    ('{"n": 2, "edges": [[1, 1, 1.0]]}', "self-loop at node 1"),
    ('{"n": 3, "edges": [[1, 2, 1.0], [2, 1, 2.0]]}', "duplicate undirected edge (1, 2)"),
    ('{"n": 2, "edges": [[1, 3, 1.0]]}', "edge (1, 3) references a node outside [1, 3)"),
    ('{"n": 2, "edges": [[1, 2, -1.0]]}', "edge (1, 2) weight -1.0 must be positive and finite"),
], ids=["null-weight", "self-loop", "duplicate-edge", "node-out-of-range", "negative-weight"])
def test_graph_file_schema_violation_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "g.json"
    path.write_text(text)
    code = main(["coherence", str(path), "--order", "1", "--gains", "1", "--leaders", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"input error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("field, text", [
    ("edges", '{"n": 2, "edges": [[1, 2, true]]}'),
    ("kappa", '{"n": 2, "edges": [[1, 2, 1.0]], "kappa": [1, true]}'),
])
def test_graph_file_boolean_among_numbers_exits_two(tmp_path, capsys, field, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code = main(["coherence", str(path), "--order", "1", "--gains", "1", "--leaders", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{field} must be a list of numbers, got boolean" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", NON_FINITE)
def test_non_finite_input_is_refused_by_value(tmp_path, capsys, k2_file, argv, message):
    files = {"k2": str(k2_file)}
    for name, weight, kappa in (("inf_weight", float("inf"), 1.0),
                                ("nan_kappa", 1.0, float("nan"))):
        path = tmp_path / f"{name}.json"  # json writes Infinity / NaN tokens
        path.write_text(json.dumps({"label_base": 0, "n": 2, "edges": [[0, 1, weight]],
                                    "kappa": [kappa, 1.0]}))
        files[name] = str(path)
    code = main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


def test_closed_form_margin_is_one_gate(tmp_path, capsys):
    """Closed forms, both searches and the set function refuse alike within
    coherence_margin of the boundary; the CLI exits 3 for both commands."""
    graph = build_graph(2, [(0, 1, 1.0)])
    lam = (3.0 - 5.0**0.5) / 2.0  # lambda_min(Q_{0}) = lambda_min(Q_{1}) on K2
    gains = gain_vector(1.0, 1.0, (1.0 + 5e-10) / lam)
    system = GroundedSystem.create(graph, [0], gains)
    assert 0.0 < gains.values[2] * system.lambda_min - 1.0 < 1e-9
    assert check_stability(system).stable
    ctx = SystemContext(singleton_phase(graph), gains)
    messages = set()
    for call in (lambda: coherence_closed(system), lambda: greedy_select(ctx, 1),
                 lambda: exhaustive_select(ctx, 1), lambda: set_value(ctx, [0])):
        with pytest.raises(errors.UnstableSystemError) as info:
            call()
        assert type(info.value) is errors.UnstableSystemError
        messages.add(str(info.value))
    assert len(messages) == 1
    (message,) = messages

    path = tmp_path / "k2.json"
    write_graph(graph, path, label_base=0)
    flags = ["--order", "3", "--gains", ",".join(repr(a) for a in gains.values)]
    for argv in (["coherence", str(path), *flags, "--leaders", "0"],
                 ["select", str(path), *flags, "--k", "1", "--algorithm", "both"]):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"unstable system: {message}\n"


def test_lyapunov_accuracy_limit_has_its_own_prefix(k2_file, capsys):
    """A stable order-3 K2 system 2e-9 inside the boundary: the closed form
    answers, the Gramian oracle cannot meet its residual bound and says so."""
    flags = ["--order", "3", "--gains", "1,1,2.6180339939859634", "--leaders", "0"]
    assert main(["coherence", str(k2_file), *flags]) == 0
    capsys.readouterr()
    assert main(["coherence", str(k2_file), *flags, "--method", "lyapunov"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    match = re.fullmatch(
        r"oracle accuracy limit: the Gramian oracle cannot meet its residual bound "
        r"on this system: residual (\S+) exceeds bound (\S+)\n",
        captured.err,
    )
    assert match, captured.err
    residual, bound = float(match[1]), float(match[2])
    assert residual > bound == pytest.approx(1e-8 * 2**0.5, rel=1e-3)


@pytest.mark.parametrize("error, message", [
    pytest.param(errors.LeaderSelError, "bad input", id="LeaderSelError"),
    pytest.param(errors.GraphError, "bad input", id="GraphError"),
    pytest.param(errors.SchemaError, "bad input", id="SchemaError"),
    pytest.param(ValueError, "bad input", id="ValueError"),
    pytest.param(OSError, "bad input", id="OSError"),
    # Refusals that once had classes of their own, now raised as LeaderSelError
    # with the message of their raise site; the case ids keep the old names.
    pytest.param(errors.LeaderSelError,
                 "g.json: Expecting value: line 1 column 1 (char 0)", id="ParseError"),
    pytest.param(errors.LeaderSelError, "leader list is empty", id="InputError"),
    pytest.param(errors.LeaderSelError, "1048575 subsets exceed the cap of 1000000",
                 id="CombinatorialCapError"),
    pytest.param(errors.LeaderSelError, "dimension 2000 exceeds cap 1200",
                 id="DimensionCapError"),
    pytest.param(errors.LeaderSelError, "dt * ||A||_2 = 0.6 >= 0.1; shrink dt",
                 id="StepTooLargeError"),
])
def test_input_errors_exit_two(monkeypatch, capsys, error, message):
    def handler(args):
        raise error(message)

    monkeypatch.setitem(cli._HANDLERS, "gen", handler)
    assert main(["gen", "--n", "3", "--p", "0.5"]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_memory_error_exits_two_on_one_line(monkeypatch, capsys, k2_file):
    """An input too large for memory is an input error, not a traceback."""
    message = ("Unable to allocate 8.88 PiB for an array with shape (100000000, 100000000) "
               "and data type float64")

    def reader(path):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "read_graph_file", reader)
    assert main(["stability", str(k2_file), "--order", "1", "--gains", "1",
                 "--leaders", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"out of memory: {message}\n"


# -- output formats ----------------------------------------------------------------------

def test_csv_format_flattens_payload(k2_file):
    proc = run_cli("coherence", str(k2_file), "--order", "2", "--gains", "1,1",
                   "--leaders", "0", "--format", "csv")
    lines = proc.stdout.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "value" in keys and "order" in keys


def test_unknown_subcommand_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


# -- common flags: each subcommand takes only those it reads ---------------------------

SYSTEM = [str(FIXTURE), "--order", "2", "--gains", "1,1", "--leaders", "1"]


@pytest.mark.parametrize("command, args, flag", [
    ("stability", SYSTEM, "--seed"),
    ("coherence", SYSTEM, "--seed"),
    ("select", SYSTEM[:5] + ["--k", "2"], "--seed"),
    ("experiment", ["fig3.json"], "--seed"),
    ("gen", ["--n", "5", "--p", "0.5"], "--out"),
    ("stability", SYSTEM, "--out"),
    ("coherence", SYSTEM, "--out"),
    ("select", SYSTEM[:5] + ["--k", "2"], "--out"),
])
def test_unread_common_flag_is_usage_error(tmp_path, capsys, command, args, flag):
    value = str(tmp_path / "g.json") if flag == "--out" else "123"
    assert main([command, *args, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"unrecognized arguments: {flag}" in err
    assert list(tmp_path.iterdir()) == []


def test_kept_common_flags_are_read(tmp_path, capsys, k2_file):
    def gen(seed):
        assert main(["gen", "--n", "8", "--p", "0.5", "--seed", seed]) == 0
        return capsys.readouterr().out

    assert gen("3") == gen("3") != gen("4")

    def simulate(*extra):
        assert main(["simulate", str(k2_file), "--order", "2", "--gains", "1,1",
                     "--leaders", "0", "--dt", "1e-2", "--total-time", "5",
                     "--burn-in", "1", *extra]) == 0
        return json.loads(capsys.readouterr().out)

    assert simulate("--seed", "8")["seed"] == 8
    assert simulate("--seed", "8")["estimate"] != simulate("--seed", "9")["estimate"]
    payload = simulate("--out", str(tmp_path / "sim"), "--trajectory", "t.csv")
    assert payload["trajectory"] == str(tmp_path / "sim" / "t.csv")
    assert (tmp_path / "sim" / "t.csv").exists()

    config = tmp_path / "fig3.json"
    config.write_text(json.dumps({"experiment": "fig3", "orders": [1], "gain_rule": "auto"}))
    assert main(["experiment", str(config), "--out", str(tmp_path / "exp")]) == 0
    assert json.loads(capsys.readouterr().out)["output_dir"] == str(tmp_path / "exp")
    assert (tmp_path / "exp" / "summary.json").exists()


# -- one parser per process ------------------------------------------------------------

def test_shared_parser_answers_each_call_as_a_fresh_one(tmp_path, capsys):
    """``main`` builds its parser once per process; reusing it changes no
    call's exit code, stdout or stderr, whatever ran before it."""
    graph = str(tmp_path / "g.json")
    system = [graph, "--order", "3", "--auto-gains", "--leaders", "1,4"]
    calls = [
        (["gen", "--n", "12", "--p", "0.5", "--seed", "7", "--connected",
          "--output", graph], 0),
        (["stability", *system, "--oracle"], 0),
        (["coherence", *system, "--format", "csv"], 0),
        (["coherence", *system], 0),
        (["select", graph, "--order", "2", "--auto-gains", "--k", "3"], 0),
        (["coherence", *system, "--form", "csv"], 1),
        (["select", graph, "--order", "2", "--gains", "1,1", "--auto-gains", "--k", "3"], 1),
        (["simulate", *system, "--total-time", "1", "--burn-in", "0", "--stride", "5"], 1),
        (["select", "--help"], 0),
    ]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    cli.build_parser.cache_clear()
    shared = [run(argv) for argv, _ in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv, _ in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in shared] == [code for _, code in calls]
    assert shared == fresh
