import functools
import importlib
import inspect
import math
import pkgutil
import sys
import threading
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leadersel
import leadersel.experiments as experiments
import leadersel.linalg as linalg
import leadersel.selection as selection
from leadersel.coherence import (
    SystemContext,
    WoodburyScorer,
    coherence_closed,
    normalized_eigenvalue_terms,
    normalized_from_inverses,
)
from leadersel.errors import GraphError, LeaderSelError, UnstableSystemError
from leadersel.experiments import ExperimentConfig, run_experiment
from leadersel.graphs import build_graph, erdos_renyi_connected
from leadersel.linalg import spd_inverse, sym_eigenvalues
from leadersel.selection import certify_bound, exhaustive_select, exhaustive_sweep, greedy_select
from leadersel.stability import auto_gains, singleton_lambda_mins
from leadersel.system import GroundedSystem, grounded_matrix, singleton_phase

from conftest import (
    barbell,
    check_monotone_submodular,
    cliques,
    cycle,
    edge_list,
    exact_normalized,
    gain_vector,
    graphs,
    log_uniform_weights,
    loop_exhaustive_select,
    naive_greedy,
    path,
    random_connected_graph,
    scaled_gains,
    set_value,
    star,
    TraceSetFunction,
    with_kappa,
)

K2 = build_graph(2, [(0, 1, 1.0)])
P3 = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def context_for(graph, m, gains=None):
    phase = singleton_phase(graph)
    if gains is None:
        gains = auto_gains(phase, m)
    return SystemContext(phase, gains)


# -- published single-leader picks ------------------------------------------------

def test_six_node_first_order_pick(six_node):
    ctx = context_for(six_node.graph, 1)
    result = greedy_select(ctx, 1)
    assert six_node.to_label(result.chosen[0]) == 2


@pytest.mark.parametrize("m", [2, 3])
def test_six_node_higher_order_pick(six_node, m):
    ctx = context_for(six_node.graph, m)
    result = greedy_select(ctx, 1)
    assert six_node.to_label(result.chosen[0]) == 4


def test_six_node_order_divergence(six_node):
    """The best single leader moves between first and higher orders."""
    first = exhaustive_select(context_for(six_node.graph, 1), 1).chosen[0]
    second = exhaustive_select(context_for(six_node.graph, 2), 1).chosen[0]
    third = exhaustive_select(context_for(six_node.graph, 3), 1).chosen[0]
    assert six_node.to_label(first) == 2
    assert six_node.to_label(second) == six_node.to_label(third) == 4
    assert first != second


def test_path_first_order_middle_node():
    ctx = context_for(P3, 1, gains=gain_vector(1.0))
    result = greedy_select(ctx, 1)
    assert result.chosen == (1,)
    assert result.h_values[0] == pytest.approx(2.5, rel=1e-12)
    # end nodes are strictly worse
    assert ctx.normalized_coherence([0]) / ctx.gains.form.rho == pytest.approx(
        3.0, rel=1e-12)


def test_k2_symmetric_tie_breaks_to_smaller_id():
    ctx = context_for(K2, 2, gains=gain_vector(1, 1))
    greedy = greedy_select(ctx, 1)
    exact = exhaustive_select(ctx, 1)
    assert greedy.chosen == exact.chosen == (0,)
    assert greedy.h_values[0] == pytest.approx(3.5, rel=1e-12)


# C40 at order 3 is left out: its singleton values spread 1.4e-10 relative
# (the 1/(c lambda_min - 1) amplification of last-bit differences), above
# the 1e-12 tie threshold, so the pick there is not node 0.
@pytest.mark.parametrize("name, m", [
    (name, m)
    for name in ("K12", "C12", "K40", "C40")
    for m in (1, 2, 3, 4)
    if (name, m) != ("C40", 3)
])
def test_vertex_transitive_round_one_tie_breaks_to_node_zero(name, m):
    size = int(name[1:])
    graph = cliques(size) if name[0] == "K" else cycle(size)
    ctx = context_for(graph, m)
    assert greedy_select(ctx, 1).chosen == (0,)
    assert exhaustive_select(ctx, 1).chosen == (0,)


# -- greedy behaviour ---------------------------------------------------------------

def test_greedy_trajectories_are_monotone(six_node):
    ctx = context_for(six_node.graph, 2)
    result = greedy_select(ctx, 4)
    assert list(result.f_values) == sorted(result.f_values)
    assert list(result.h_values) == sorted(result.h_values, reverse=True)
    assert len(result.chosen) <= 4


def test_greedy_rejects_bad_budget(six_node):
    with pytest.raises(ValueError):
        greedy_select(context_for(six_node.graph, 2), 0)


def test_greedy_rejects_unstable_gains():
    ctx = context_for(K2, 3, gains=gain_vector(1, 1, 1))  # a*lambda_min < 1
    with pytest.raises(UnstableSystemError):
        greedy_select(ctx, 1)


def test_greedy_counts_evaluations(six_node):
    n = six_node.graph.n
    result = greedy_select(context_for(six_node.graph, 2), 2)
    assert result.evaluations == n + (n - 1)


def test_greedy_budget_beyond_n_selects_everything():
    ctx = context_for(P3, 2, gains=gain_vector(1, 1))
    result = greedy_select(ctx, 10)
    assert set(result.chosen) == {0, 1, 2}


@given(graphs(min_nodes=3, max_nodes=9), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_incremental_greedy_equals_naive(g, m, k):
    ctx = context_for(g, m)
    fast = greedy_select(ctx, k)
    slow = naive_greedy(ctx, k)
    assert fast.chosen == slow.chosen
    np.testing.assert_allclose(fast.f_values, slow.f_values, rtol=1e-9)
    np.testing.assert_allclose(fast.h_values, slow.h_values, rtol=1e-9)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_incremental_greedy_equals_naive_at_scale(m):
    graph, _ = erdos_renyi_connected(64, 0.5, seed=64)
    ctx = context_for(graph, m)
    fast = greedy_select(ctx, 10)
    slow = naive_greedy(context_for(graph, m), 10)
    assert fast.chosen == slow.chosen
    assert fast.evaluations == slow.evaluations
    np.testing.assert_allclose(fast.f_values, slow.f_values, rtol=1e-9)


FAMILIES = {
    "path": path,
    "ring": cycle,
    "star": star,
    "barbell": barbell,
    "weighted": lambda n: log_uniform_weights(erdos_renyi_connected(n, 0.5, seed=n)[0], seed=n),
}


def eigensolve_value(ctx, leaders):
    """rho * H(S) from eigvalsh of Q_S, and the closed form's condition number:
    cond(Q_S), times 1 / (c lambda_min - 1) where that exceeds 1."""
    q = grounded_matrix(ctx.graph, list(leaders))
    lams = np.linalg.eigvalsh(q)
    cond = lams[-1] / lams[0]
    if ctx.gains.form.shift:
        cond *= max(1.0, 1.0 / (ctx.gains.form.c * lams[0] - 1.0))
    return float(normalized_eigenvalue_terms(ctx.gains, lams)), cond


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", [7, 16])
def test_greedy_equals_naive_on_graph_families(family, n):
    """Same picks, and values within 1e-9 relative plus the naive oracle's own
    resolution, 1e-14 cond: with weights over twelve decades (cond ~ 1e7)
    its eigensolves are off by about 1e-16 cond, while the greedy matches
    exact arithmetic to about 1e-15 (see the exact-oracle test)."""
    graph = FAMILIES[family](n)
    for m in (1, 2, 3, 4):
        ctx = context_for(graph, m)
        fast = greedy_select(ctx, 6)
        slow = naive_greedy(ctx, 6)
        assert fast.chosen == slow.chosen, m
        assert fast.evaluations == slow.evaluations
        for size, h_fast, h_slow, f_fast, f_slow in zip(
            range(1, n + 1), fast.h_values, slow.h_values, fast.f_values, slow.f_values
        ):
            _, cond = eigensolve_value(ctx, fast.chosen[:size])
            tol = (1e-9 + 1e-14 * cond) * h_slow
            assert abs(h_fast - h_slow) <= tol, (m, size)
            assert abs(f_fast - f_slow) <= tol * ctx.gains.form.rho, (m, size)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_greedy_values_match_exact_oracle(family):
    """Every value of a later round is within 1e-12 times the closed form's
    condition number of exact rational arithmetic."""
    graph = FAMILIES[family](12)
    for m in (1, 2, 3, 4):
        ctx = context_for(graph, m)
        result = greedy_select(ctx, 4)
        for size in range(2, len(result.chosen) + 1):
            exact = exact_normalized(ctx, result.chosen[:size])
            _, cond = eigensolve_value(ctx, result.chosen[:size])
            value = result.h_values[size - 1] * ctx.gains.form.rho
            assert abs(value - exact) <= 1e-12 * max(1.0, cond) * exact, (m, size)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_singleton_and_closed_values_match_exact_oracle(family):
    """``singleton_normalized`` and ``coherence_closed`` are within 1e-8 times
    the closed form's condition number of exact rational arithmetic.  The
    nodes are sampled (one singleton and one pair per order) to keep the
    oracle's cost down."""
    graph = FAMILIES[family](12)
    for m in (1, 2, 3, 4):
        ctx = context_for(graph, m)
        v = 3 * (m - 1)
        pair = (v + 1, (v + 7) % 12)
        closed = coherence_closed(GroundedSystem.create(graph, pair, ctx.gains))
        for leaders, value in (((v,), ctx.singleton_normalized[v]),
                               (pair, closed.value * ctx.gains.form.rho)):
            exact = exact_normalized(ctx, leaders)
            _, cond = eigensolve_value(ctx, leaders)
            assert abs(value - exact) <= 1e-8 * max(1.0, cond) * exact, (m, leaders)


ILL_CONDITIONED = {
    "ring200": lambda: cycle(200),
    "barbell200": lambda: barbell(200),
    "G50w": lambda: log_uniform_weights(erdos_renyi_connected(50, 0.5, seed=6)[0], seed=6),
}


@pytest.mark.parametrize("name", sorted(ILL_CONDITIONED))
def test_greedy_exits_cleanly_on_ill_conditioned_graphs(name):
    """Order 3 on the ring and weights over twelve decades at every order
    were refused while the greedy maintained n x n inverses."""
    graph = ILL_CONDITIONED[name]()
    for m in (1, 2, 3, 4):
        ctx = context_for(graph, m)
        result = greedy_select(ctx, 10)
        assert len(result.chosen) == 10
        value, cond = eigensolve_value(ctx, result.chosen)
        gap = abs(result.h_values[-1] * ctx.gains.form.rho - value)
        assert gap <= 1e-8 * max(1.0, cond) * value, (m, gap / value, cond)


def scorer_after(ctx, leaders):
    """A ``WoodburyScorer`` holding ``leaders`` and the mask of the other nodes."""
    scorer = WoodburyScorer(ctx, len(leaders))
    for v in leaders:
        scorer.add(v)
    candidates = np.ones(ctx.n, dtype=bool)
    candidates[leaders] = False
    return scorer, candidates


@given(graphs(min_nodes=3, max_nodes=8), st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_closed_form_scores_match_explicit_updates(g, m, seed):
    """Every candidate's score equals rho * H(S + v) from explicit inverses
    of Q_{S+v} and c Q_{S+v} - I, with kappa drawn from [0.5, 2]."""
    rng = np.random.default_rng(seed)
    ctx = SystemContext.auto(with_kappa(g, rng.uniform(0.5, 2.0, g.n)), m)
    leaders = [int(v) for v in rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False)]
    scorer, candidates = scorer_after(ctx, leaders)
    scores = scorer.scores(candidates)
    c = ctx.gains.form.c
    for v in np.flatnonzero(candidates):
        q = grounded_matrix(ctx.graph, leaders + [int(v)])
        shifted = spd_inverse(c * q - np.eye(g.n)) if c is not None else None
        expected = normalized_from_inverses(ctx.gains, spd_inverse(q), shifted)
        assert scores[v] == pytest.approx(expected, rel=1e-9)


def test_closed_form_scores_guard_denominators():
    """A candidate whose Sherman-Morrison denominator 1 + kappa_v (Q_S^-1)_vv
    (or the shifted one) is not positive is refused; a non-candidate's
    denominator is never used."""
    graph, _ = erdos_renyi_connected(12, 0.5, seed=5)
    for m, function in [(1, "A"), (2, "A"), (3, "T"), (4, "T")]:
        scorer, candidates = scorer_after(context_for(graph, m), [0])
        scorer.scores(candidates)
        scorer.diagonals[scorer.index[function], 3] -= 1e3
        with pytest.raises(LeaderSelError, match="update denominator"):
            scorer.scores(candidates)
        candidates[3] = False
        scorer.scores(candidates)


@pytest.mark.parametrize("m, function", [(1, "A"), (3, "A"), (3, "T")])
def test_capacitance_solve_refuses_a_failed_inverse(m, function):
    # a NaN entry f(L)[4, 0] in a capacitance matrix: its inverse has no residual
    graph, _ = erdos_renyi_connected(12, 0.5, seed=5)
    scorer, candidates = scorer_after(context_for(graph, m), [0, 4])
    scorer.cols[scorer.index[function], 4, 1] = np.nan
    with pytest.raises(LeaderSelError, match="capacitance solve residual nan"):
        scorer.scores(candidates)


@pytest.mark.parametrize("m, function", [
    (1, "A"), (2, "A"), (3, "A"), (3, "T"), (4, "A"), (4, "T"),
])
def test_greedy_refuses_perturbed_leader_column(monkeypatch, m, function):
    """Cached leader columns of one f(L) off by 1e-6 relative trip the
    final eigensolve check (its bound is 4.6e-9 relative here).  Columns
    that move the value less, such as A^3's (0.9e-9), pass it unseen."""
    graph, _ = erdos_renyi_connected(12, 0.5, seed=5)
    ctx = context_for(graph, m)
    j = WoodburyScorer(ctx, 1).index[function]
    add = WoodburyScorer.add

    def perturbed(scorer, v):
        add(scorer, v)
        scorer.cols[j, : scorer.n, scorer.size] *= 1.0 + 1e-6

    greedy_select(ctx, 3)
    monkeypatch.setattr(WoodburyScorer, "add", perturbed)
    with pytest.raises(LeaderSelError, match="disagrees with the eigensolve"):
        greedy_select(ctx, 3)


@pytest.mark.parametrize("factor", [1.0, 2.0, 100.0, 1e5])
def test_final_check_refuses_unresolved_lambda_min(factor):
    """On P3 with kappa 1e16 on node 0, lambda_min(Q_{0, 2}) = 1 is below the
    rounding floor 6.66, so the check refuses the set's value, exact or off:
    a condition number of 1e16 from that spectrum would accept it 1e5 off."""
    graph = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)], kappa=[1e16, 1.0, 1.0])
    ctx = SystemContext(singleton_phase(graph), gain_vector(1.0))
    lams = sym_eigenvalues(grounded_matrix(graph, [0, 2])).eigenvalues
    value = float(normalized_eigenvalue_terms(ctx.gains, lams))
    with pytest.raises(GraphError, match=r"^lambda_min\(Q_S\) = 1 is within rounding of zero"):
        selection._require_confirmed(ctx, [0, 2], factor * value)


# -- exhaustive search ---------------------------------------------------------------

def test_exhaustive_equals_greedy_for_k1(six_node):
    for m in (1, 2, 3, 4):
        ctx = context_for(six_node.graph, m)
        assert exhaustive_select(ctx, 1).chosen == greedy_select(ctx, 1).chosen


def test_exhaustive_respects_cap():
    # C(60, 1) + ... + C(60, 5) subsets: refused before any is enumerated
    graph, _ = erdos_renyi_connected(60, 0.5, seed=1)
    with pytest.raises(LeaderSelError, match="5985197 subsets exceed the cap of 1000000"):
        exhaustive_select(context_for(graph, 2), 5)


def assert_sweep_equals_oracle(graph, orders, k):
    """One shared sweep for several orders on one graph: each order's sweep
    equals the per-subset loop oracle at every budget, bit for bit."""
    contexts = [context_for(graph, m) for m in orders]
    sweeps = exhaustive_sweep(contexts, k)
    assert len(sweeps) == len(contexts)
    for ctx, sweep in zip(contexts, sweeps):
        assert len(sweep) == min(k, ctx.n)
        for j, got in enumerate(sweep, start=1):
            assert got == loop_exhaustive_select(ctx, j), (ctx.m, j, got)  # bit for bit
        assert exhaustive_select(ctx, k) == sweep[-1]


order_sets = st.sets(st.integers(1, 4), min_size=1).map(sorted)


@given(graphs(min_nodes=1, max_nodes=8), order_sets, st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_exhaustive_sweep_equals_loop_oracle(g, ms, k):
    assert_sweep_equals_oracle(g, ms, k)


# Vertex-transitive graphs: every subset ties with its rotations, so the
# first strict improvement in enumeration order decides each budget.
@given(st.sampled_from(["cycle", "clique"]), st.integers(3, 8), order_sets, st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_exhaustive_sweep_equals_loop_oracle_on_ties(family, n, ms, k):
    graph = cycle(n) if family == "cycle" else cliques(n)
    assert_sweep_equals_oracle(graph, ms, k)


def test_exhaustive_sweep_refuses_no_contexts():
    with pytest.raises(ValueError, match="at least one context"):
        exhaustive_sweep([], 2)


def test_exhaustive_sweep_refuses_contexts_on_another_graph():
    same_edges = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])  # equal to P3, another object
    with pytest.raises(ValueError, match="share one graph"):
        exhaustive_sweep([context_for(P3, 1), context_for(same_edges, 2)], 2)
    with pytest.raises(ValueError, match="share one graph"):
        exhaustive_sweep([context_for(P3, 1), context_for(K2, 1)], 2)


def test_exhaustive_sweep_refuses_contexts_with_another_kappa():
    gains = gain_vector(1.0)
    other = SystemContext(singleton_phase(with_kappa(P3, [1.0, 2.0, 1.0])), gains)
    with pytest.raises(ValueError, match="share one graph"):
        exhaustive_sweep([context_for(P3, 1, gains=gains), other], 2)


def test_exhaustive_sweep_memory_is_chunked():
    """At n = 30, k = 4 the peak traced allocation stays below 4 MB, for
    one order and for orders 1-4 in one sweep; one stack of all C(30, 4)
    grounded matrices would take 197 MB."""
    graph, _ = erdos_renyi_connected(30, 0.5, seed=2)
    for contexts in ([context_for(graph, 1)], [context_for(graph, m) for m in (1, 2, 3, 4)]):
        exhaustive_sweep(contexts, 2)  # warm the contexts' caches and numpy internals
        tracemalloc.start()
        try:
            sweeps = exhaustive_sweep(contexts, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sweeps) == len(contexts)
        for sweep in sweeps:
            assert sweep[-1].evaluations == sum(math.comb(30, j) for j in range(1, 5))
        assert peak < 4 * 2**20, (len(contexts), peak)


def stacks_per_size(n, k):
    chunk = max(1, selection._STACK_BYTES // (n * n * 8))
    return [-(-math.comb(n, size) // chunk) for size in range(2, k + 1)]


def test_fig2_solves_each_stack_once_for_every_order(monkeypatch, tmp_path):
    """fig2 at orders 1-4: per trial graph, one eigh of L (the shared
    singleton phase) plus one stacked eigensolve per stack of subsets,
    however many orders read them, plus one eigensolve per order for the
    check that ends each greedy run of more than one leader.  Counted at
    ``linalg._sym_eigen``, which ``sym_eigenvalues`` and both of the
    sweep's solving threads call."""
    calls = []
    helper = linalg._sym_eigen

    def counted(m, vectors=False):
        calls.append(np.shape(m))
        return helper(m, vectors=vectors)

    for module in (linalg, selection):
        monkeypatch.setattr(module, "_sym_eigen", counted)
    n, k_max, trials = 12, 3, 2
    config = ExperimentConfig(experiment="fig2", n=n, trials=trials, k_max=k_max,
                              orders=(1, 2, 3, 4))
    run_experiment(config, tmp_path)
    stacks = sum(stacks_per_size(n, k_max))
    assert stacks == 3  # C(12, 2) = 66 in one stack, C(12, 3) = 220 in two
    orders = len(config.orders)
    assert len(calls) == trials * (1 + stacks + orders), calls
    assert calls.count((n, n)) == trials * (1 + orders)  # eigh of L, and each greedy's check


# -- the sweep's worker thread -----------------------------------------------------------

G14, _ = erdos_renyi_connected(14, 0.5, seed=14)


def counted_thread_starts(monkeypatch):
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def test_sweep_across_stack_boundaries_equals_loop_oracle(monkeypatch):
    """At n = 14, k = 3, size 2 is one stack and size 3 is three, so the
    last stack of size 3 has no partner on the worker."""
    assert stacks_per_size(14, 3) == [1, 3]
    contexts = [context_for(G14, m) for m in (1, 2, 3, 4)]
    started = counted_thread_starts(monkeypatch)
    sweeps = exhaustive_sweep(contexts, 3)
    assert len(started) == 1  # the pool's one worker
    for ctx, sweep in zip(contexts, sweeps):
        for j, got in enumerate(sweep, start=1):
            assert got == loop_exhaustive_select(ctx, j), (ctx.m, j, got)  # bit for bit


@pytest.mark.parametrize("graph", [cycle(8), cliques(8)], ids=["cycle", "clique"])
def test_sweep_in_small_stacks_keeps_the_first_of_tied_subsets(monkeypatch, graph):
    """Stacks of 3 matrices: sizes 2-4 fill 10, 19 and 24 stacks, and size
    3's last has no partner.  On vertex-transitive graphs every subset ties
    with its rotations, so scoring a worker's stack out of turn would change
    the pick."""
    monkeypatch.setattr(selection, "_STACK_BYTES", 3 * 8 * 8 * 8)
    assert stacks_per_size(8, 4) == [10, 19, 24]
    assert_sweep_equals_oracle(graph, [1, 2, 3, 4], 4)


@pytest.mark.parametrize("k", [1, 2])
def test_sweep_with_one_stack_per_size_starts_no_thread(monkeypatch, k):
    assert stacks_per_size(14, k) in ([], [1])
    started = counted_thread_starts(monkeypatch)
    before = threading.active_count()
    sweeps = exhaustive_sweep([context_for(G14, m) for m in (1, 2, 3, 4)], k)
    assert started == [] and threading.active_count() == before
    for m, sweep in zip((1, 2, 3, 4), sweeps):
        assert sweep[-1] == loop_exhaustive_select(context_for(G14, m), k)


def package_callables():
    """(owner, name, function) for every public function bound in a package
    module, and every public method or cached property of a package class."""
    for info in pkgutil.iter_modules(leadersel.__path__):
        module = importlib.import_module(f"leadersel.{info.name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith("leadersel."):
                yield module, attr, obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for name, member in vars(obj).items():
                    if not name.startswith("_") and (
                            inspect.isfunction(member) or isinstance(member, cached_property)):
                        yield obj, name, member


def test_sweep_worker_calls_no_public_function(monkeypatch):
    """Every public function and method of the package, wrapped in every
    namespace that holds it, runs only on the calling thread during a sweep
    whose worker solves stacks."""
    seen, solvers = set(), set()

    def recorded(function, into):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            into.add(threading.get_ident())
            return function(*args, **kwargs)
        return wrapper

    for owner, name, member in list(package_callables()):
        if isinstance(member, cached_property):
            replacement = cached_property(recorded(member.func, seen))
            replacement.__set_name__(owner, name)
        else:
            replacement = recorded(member, seen)
        monkeypatch.setattr(owner, name, replacement)
    monkeypatch.setattr(selection, "_sym_eigen", recorded(linalg._sym_eigen, solvers))
    contexts = [context_for(G14, m) for m in (1, 2, 3, 4)]
    seen.clear()
    exhaustive_sweep(contexts, 3)
    caller = threading.get_ident()
    assert seen == {caller}
    assert caller in solvers and len(solvers) == 2  # the worker did solve stacks


def test_concurrent_sweeps_under_fast_thread_switching_keep_every_bit(monkeypatch):
    """Four callers at once, each with its own worker (more threads than
    cores), stacks of 3 matrices and a 10 us switch interval: every sweep
    equals the one computed alone."""
    monkeypatch.setattr(selection, "_STACK_BYTES", 3 * 14 * 14 * 8)
    contexts = [context_for(G14, m) for m in (1, 2, 3, 4)]
    alone = exhaustive_sweep(contexts, 3)
    results = [None] * 4

    def call(i):
        results[i] = exhaustive_sweep(contexts, 3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [alone] * 4


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_sweep_error_reaches_the_caller_and_the_worker_is_joined(monkeypatch, failing):
    """The solve of the first stack pair's worker (or caller) half raises:
    the same exception leaves the sweep, and no thread is left alive."""
    error = RuntimeError(f"{failing} eigensolve failed")
    caller = threading.get_ident()
    helper = linalg._sym_eigen

    def failing_solve(m, vectors=False):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise error
        return helper(m, vectors=vectors)

    contexts = [context_for(G14, m) for m in (1, 2)]
    monkeypatch.setattr(selection, "_STACK_BYTES", 14 * 14 * 8 * 8)  # size 2 is 12 stacks
    monkeypatch.setattr(selection, "_sym_eigen", failing_solve)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        exhaustive_sweep(contexts, 2)
    assert info.value is error
    assert threading.active_count() == before


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_greedy_at_budget_k_is_the_first_k_rounds_of_a_larger_budget(m):
    graph, _ = erdos_renyi_connected(12, 0.5, seed=12)
    ctx = context_for(graph, m)
    full = greedy_select(ctx, 5)
    for k in range(1, 5):
        part = greedy_select(ctx, k)
        assert part.chosen == full.chosen[:k]
        assert part.f_values == full.f_values[:k] and part.h_values == full.h_values[:k]


def test_fig2_runs_the_greedy_once_per_trial_and_order(monkeypatch, tmp_path):
    """Each budget k reads the first k rounds of one greedy run at k_max."""
    budgets = []

    def counted(context, k):
        budgets.append(k)
        return greedy_select(context, k)

    monkeypatch.setattr(experiments, "greedy_select", counted)
    orders, trials, k_max = (1, 2, 3, 4), 2, 3
    config = ExperimentConfig(experiment="fig2", n=8, trials=trials, k_max=k_max, orders=orders)
    run_experiment(config, tmp_path)
    assert budgets == [k_max] * (trials * len(orders))


def test_exhaustive_prefers_smaller_subsets_on_budget():
    ctx = context_for(K2, 2, gains=gain_vector(1, 1))
    result = exhaustive_select(ctx, 2)
    assert result.chosen == (0, 1)  # two leaders strictly beat one here


@pytest.mark.parametrize("e", [-40, -20, 20, 40])
def test_picks_do_not_depend_on_the_units_of_the_weights(e):
    """Scaling weights and kappa by 2^e keeps every greedy (k = 6) and
    exhaustive (k = 3) pick; at orders 1-2, h * s^m is bit for bit the same."""
    s = 2.0**e
    for seed in range(4):
        graph = random_connected_graph(np.random.default_rng(seed), 12)
        gains = [auto_gains(singleton_phase(graph), m) for m in (1, 2, 3, 4)]
        runs = []
        for weights in (1.0, s):
            scaled = build_graph(12, [(u, v, w * weights) for u, v, w in edge_list(graph)],
                                 kappa=[weights] * 12)
            contexts = [SystemContext(singleton_phase(scaled), scaled_gains(g, weights))
                        for g in gains]
            runs.append(([greedy_select(ctx, 6) for ctx in contexts],
                         exhaustive_sweep(contexts, 3)))
        (greedy, sweeps), (greedy_s, sweeps_s) = runs
        for m, g, g_s, sweep, sweep_s in zip((1, 2, 3, 4), greedy, greedy_s, sweeps, sweeps_s):
            assert g_s.chosen == g.chosen, (seed, m)
            assert [r.chosen for r in sweep_s] == [r.chosen for r in sweep], (seed, m)
            if m <= 2:
                for r, r_s in zip((g, *sweep), (g_s, *sweep_s)):
                    assert [h * s**m for h in r_s.h_values] == list(r.h_values), (seed, m)


# -- the greedy guarantee ---------------------------------------------------------------

def test_certificate_ratio_zero_for_k1(six_node):
    for m in (1, 2, 3, 4):
        ctx = context_for(six_node.graph, m)
        cert = certify_bound(ctx, greedy_select(ctx, 1), exhaustive_select(ctx, 1))
        assert cert.ratio == 0.0
        assert cert.holds


def test_certificate_single_node_graph_degenerate():
    single = build_graph(1, [])
    ctx = context_for(single, 2, gains=gain_vector(1, 1))
    cert = certify_bound(ctx, greedy_select(ctx, 1), exhaustive_select(ctx, 1))
    assert cert.ratio == 0.0
    assert cert.holds


def test_certificate_holds_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(6):
        n = int(rng.integers(4, 9))
        g = random_connected_graph(rng, n)
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        ctx = context_for(g, m)
        cert = certify_bound(ctx, greedy_select(ctx, k), exhaustive_select(ctx, k))
        assert cert.holds
        assert cert.ratio <= 1.0 / math.e + 1e-12
        assert cert.coherence_greedy <= cert.coherence_bound * (1 + 1e-12)


# -- structural property checks -----------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4])
def test_no_violations_exhaustive_random_graphs(m):
    rng = np.random.default_rng(m)
    for _ in range(3):
        n = int(rng.integers(4, 8))
        g = random_connected_graph(rng, n)
        ctx = context_for(g, m)
        violations = check_monotone_submodular(lambda s: set_value(ctx, s), n)
        assert violations == []


def test_no_violations_sampled_mode(six_node):
    ctx = context_for(six_node.graph, 3)
    violations = check_monotone_submodular(
        lambda s: set_value(ctx, s), ctx.n, mode="sampled", samples=150, seed=5
    )
    assert violations == []


def test_trivial_pair_identity(six_node):
    # f(A) + f(A) = f(A|A) + f(A&A) exactly; never a violation
    ctx = context_for(six_node.graph, 2)
    violations = check_monotone_submodular(
        lambda s: set_value(ctx, s), ctx.n, mode="sampled", samples=1, seed=0
    )
    assert violations == []


@pytest.mark.parametrize("mode, expected", [("exhaustive", 55), ("sampled", 202)])
def test_supermodular_function_reports_submodularity_violations(mode, expected):
    # f(S) = |S|^2 gains more the larger S is; in sampled mode 88 of the
    # violations come from random pairs and 114 from diminishing-returns pairs
    violations = check_monotone_submodular(lambda s: len(s) ** 2, 4, mode=mode)
    assert len(violations) == expected
    assert {v.kind for v in violations} == {"submodularity"}
    for v in violations:
        a, b = (set(s) for s in v.sets)
        assert v.gap == len(a) ** 2 + len(b) ** 2 - len(a | b) ** 2 - len(a & b) ** 2 < 0


@pytest.mark.parametrize("mode, expected", [("exhaustive", 65), ("sampled", 188)])
def test_decreasing_function_reports_monotonicity_violations(mode, expected):
    # f(S) = -|S| is modular, so only monotonicity fails: every proper
    # subset pair, 3^4 - 2^4 = 65 of them, in exhaustive mode
    violations = check_monotone_submodular(lambda s: -len(s), 4, mode=mode)
    assert len(violations) == expected
    assert {v.kind for v in violations} == {"monotonicity"}
    for v in violations:
        a, b = (set(s) for s in v.sets)
        assert a < b and v.gap == len(a) - len(b)


def test_generalized_product_form_clean():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 6)
    lam_floor = min(singleton_lambda_mins(g))
    b2 = 2.0 / lam_floor  # guarantees b2 * lambda_min > b3 = 1
    fn = TraceSetFunction(g, "product", b1=1.3, b2=b2, b3=1.0)
    assert check_monotone_submodular(fn.value, 6) == []


def test_generalized_fourth_order_form_clean():
    rng = np.random.default_rng(42)
    g = random_connected_graph(rng, 6)
    lam_floor = min(singleton_lambda_mins(g))
    gap = 2.0 / lam_floor  # (b1 - b2) * lambda_min = 2 > 1
    fn = TraceSetFunction(g, "fourth_order", b1=gap + 1.0, b2=1.0)
    assert check_monotone_submodular(fn.value, 6) == []


def test_exhaustive_mode_rejects_large_graphs():
    rng = np.random.default_rng(0)
    g = random_connected_graph(rng, 9)
    with pytest.raises(ValueError, match="exhaustive pair check limited to n <= 8, got 9"):
        ctx = context_for(g, 2)
        check_monotone_submodular(lambda s: set_value(ctx, s), ctx.n)
