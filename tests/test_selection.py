import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leadersel.coherence as coherence
import leadersel.selection as selection
import leadersel.stability as stability
import leadersel.system as system
from leadersel.coherence import (
    SystemContext,
    TraceSetFunction,
    normalized_after_rank_one,
    normalized_from_inverses,
)
from leadersel.errors import (
    CombinatorialCapError,
    SingularUpdateError,
    UnstableSystemError,
)
from leadersel.experiments import ExperimentConfig, run_experiment
from leadersel.graphs import KappaWeights, build_graph, erdos_renyi_connected, unit_kappa
from leadersel.linalg import sherman_morrison_update, spd_inverse, sym_eigenvalues
from leadersel.selection import (
    certify_bound,
    check_monotone_submodular,
    exhaustive_select,
    exhaustive_sweep,
    greedy_select,
)
from leadersel.stability import auto_gains
from leadersel.system import GainVector

from conftest import (
    cliques,
    cycle,
    graphs,
    loop_exhaustive_select,
    naive_greedy,
    random_connected_graph,
)

K2 = build_graph(2, [(0, 1, 1.0)])
P3 = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def context_for(graph, m, gains=None):
    kappa = unit_kappa(graph.n)
    if gains is None:
        gains = auto_gains(graph, kappa, m)
    return SystemContext(graph=graph, kappa=kappa, gains=gains)


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
    ctx = context_for(P3, 1, gains=GainVector.of(1.0))
    result = greedy_select(ctx, 1)
    assert result.chosen == (1,)
    assert result.h_values[0] == pytest.approx(2.5, rel=1e-12)
    # end nodes are strictly worse
    assert ctx.normalized_coherence([0]) / ctx.gains.form.rho == pytest.approx(
        3.0, rel=1e-12)


def test_k2_symmetric_tie_breaks_to_smaller_id():
    ctx = context_for(K2, 2, gains=GainVector.of(1, 1))
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
    ctx = context_for(K2, 3, gains=GainVector.of(1, 1, 1))  # a*lambda_min < 1
    with pytest.raises(UnstableSystemError):
        greedy_select(ctx, 1)


def test_greedy_counts_evaluations(six_node):
    n = six_node.graph.n
    result = greedy_select(context_for(six_node.graph, 2), 2)
    assert result.evaluations == n + (n - 1)


def test_greedy_budget_beyond_n_selects_everything():
    ctx = context_for(P3, 2, gains=GainVector.of(1, 1))
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


@given(graphs(min_nodes=3, max_nodes=8), st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_closed_form_scores_match_explicit_updates(g, m, seed):
    ctx = context_for(g, m)
    rng = np.random.default_rng(seed)
    leaders = [int(v) for v in rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False)]
    q = ctx.grounded(leaders)
    c = ctx.gains.form.c
    inv = spd_inverse(q)
    shifted = spd_inverse(c * q - np.eye(g.n)) if c is not None else None
    kappa = ctx.kappa.as_array()
    candidates = np.ones(g.n, dtype=bool)
    candidates[leaders] = False
    scores = normalized_after_rank_one(ctx.gains, inv, shifted, kappa, candidates)
    for v in np.flatnonzero(candidates):
        trial_shifted = (
            sherman_morrison_update(shifted, v, c * kappa[v]) if c is not None else None
        )
        expected = normalized_from_inverses(
            ctx.gains, sherman_morrison_update(inv, v, kappa[v]), trial_shifted
        )
        assert scores[v] == pytest.approx(expected, rel=1e-9)


def test_closed_form_scores_guard_denominators():
    gains = GainVector.of(1.0)
    candidates = np.array([True, True])
    with pytest.raises(SingularUpdateError):
        normalized_after_rank_one(gains, -np.eye(2), None, np.ones(2), candidates)
    # a non-candidate with a bad denominator is never updated, so it passes
    inv = np.diag([-2.0, 1.0])
    normalized_after_rank_one(gains, inv, None, np.ones(2), np.array([False, True]))


@pytest.mark.parametrize(
    "m, drifting, message",
    [(2, "inverse", "Q_S^-1 drifted"), (3, "inverse", "Q_S^-1 drifted"),
     (3, "shifted", "(c Q_S - I)^-1 drifted")],
)
def test_greedy_refuses_drifted_inverse(monkeypatch, m, drifting, message):
    """A rank-one update that drifts trips the end-of-greedy residual check.

    With unit kappa, Q_S^-1 is updated with scale 1 and the shifted
    inverse with scale c != 1, which tells the two apart.
    """
    graph, _ = erdos_renyi_connected(12, 0.5, seed=5)
    ctx = context_for(graph, m)
    assert ctx.gains.form.c != 1.0

    def drifting_update(inv, index, scale):
        updated = sherman_morrison_update(inv, index, scale)
        if (scale == 1.0) == (drifting == "inverse"):
            updated = updated + 1e-6
        return updated

    monkeypatch.setattr(selection, "sherman_morrison_update", drifting_update)
    with pytest.raises(SingularUpdateError, match=re.escape(message)):
        greedy_select(ctx, 3)


# -- exhaustive search ---------------------------------------------------------------

def test_exhaustive_equals_greedy_for_k1(six_node):
    for m in (1, 2, 3, 4):
        ctx = context_for(six_node.graph, m)
        assert exhaustive_select(ctx, 1).chosen == greedy_select(ctx, 1).chosen


def test_exhaustive_respects_cap():
    # C(60, 1) + ... + C(60, 5) subsets: refused before any is enumerated
    graph, _ = erdos_renyi_connected(60, 0.5, seed=1)
    with pytest.raises(CombinatorialCapError, match="5985197 subsets exceed the cap of 1000000"):
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
    with pytest.raises(ValueError, match="share one graph and one kappa"):
        exhaustive_sweep([context_for(P3, 1), context_for(same_edges, 2)], 2)
    with pytest.raises(ValueError, match="share one graph and one kappa"):
        exhaustive_sweep([context_for(P3, 1), context_for(K2, 1)], 2)


def test_exhaustive_sweep_refuses_contexts_with_another_kappa():
    gains = GainVector.of(1.0)
    other = SystemContext(graph=P3, kappa=KappaWeights((1.0, 2.0, 1.0)), gains=gains)
    with pytest.raises(ValueError, match="share one graph and one kappa"):
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


def test_fig2_solves_each_stack_once_for_every_order(monkeypatch, tmp_path):
    """fig2 at orders 1-4: per trial graph, one eigh of L (the shared
    singleton phase) plus one stacked eigensolve per stack of subsets,
    however many orders read them."""
    calls = []

    def counted(m, vectors=False):
        calls.append(np.shape(m))
        return sym_eigenvalues(m, vectors=vectors)

    for module in (coherence, selection, stability, system):
        monkeypatch.setattr(module, "sym_eigenvalues", counted)
    n, k_max, trials = 12, 3, 2
    config = ExperimentConfig(experiment="fig2", n=n, trials=trials, k_max=k_max,
                              orders=(1, 2, 3, 4))
    run_experiment(config, tmp_path)
    chunk = max(1, selection._STACK_BYTES // (n * n * 8))
    stacks = sum(-(-math.comb(n, size) // chunk) for size in range(2, k_max + 1))
    assert stacks == 3  # C(12, 2) = 66 in one stack, C(12, 3) = 220 in two
    assert len(calls) == trials * (1 + stacks), calls
    assert calls.count((n, n)) == trials  # the phase's eigh of L, once per graph


def test_exhaustive_prefers_smaller_subsets_on_budget():
    ctx = context_for(K2, 2, gains=GainVector.of(1, 1))
    result = exhaustive_select(ctx, 2)
    assert result.chosen == (0, 1)  # two leaders strictly beat one here


# -- the greedy guarantee ---------------------------------------------------------------

def test_certificate_ratio_zero_for_k1(six_node):
    for m in (1, 2, 3, 4):
        ctx = context_for(six_node.graph, m)
        cert = certify_bound(ctx, greedy_select(ctx, 1), exhaustive_select(ctx, 1))
        assert cert.ratio == 0.0
        assert cert.holds


def test_certificate_single_node_graph_degenerate():
    single = build_graph(1, [])
    ctx = context_for(single, 2, gains=GainVector.of(1, 1))
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
        violations = check_monotone_submodular(context_for(g, m), mode="exhaustive")
        assert violations == []


def test_no_violations_sampled_mode(six_node):
    ctx = context_for(six_node.graph, 3)
    assert check_monotone_submodular(ctx, mode="sampled", samples=150, seed=5) == []


def test_trivial_pair_identity(six_node):
    # f(A) + f(A) = f(A|A) + f(A&A) exactly; never a violation
    ctx = context_for(six_node.graph, 2)
    violations = check_monotone_submodular(ctx, mode="sampled", samples=1, seed=0)
    assert violations == []


@pytest.mark.parametrize("mode, expected", [("exhaustive", 55), ("sampled", 202)])
def test_supermodular_function_reports_submodularity_violations(mode, expected):
    # f(S) = |S|^2 gains more the larger S is; in sampled mode 88 of the
    # violations come from random pairs and 114 from diminishing-returns pairs
    violations = check_monotone_submodular(value_fn=lambda s: len(s) ** 2, n=4, mode=mode)
    assert len(violations) == expected
    assert {v.kind for v in violations} == {"submodularity"}
    for v in violations:
        a, b = (set(s) for s in v.sets)
        assert v.gap == len(a) ** 2 + len(b) ** 2 - len(a | b) ** 2 - len(a & b) ** 2 < 0


@pytest.mark.parametrize("mode, expected", [("exhaustive", 65), ("sampled", 188)])
def test_decreasing_function_reports_monotonicity_violations(mode, expected):
    # f(S) = -|S| is modular, so only monotonicity fails: every proper
    # subset pair, 3^4 - 2^4 = 65 of them, in exhaustive mode
    violations = check_monotone_submodular(value_fn=lambda s: -len(s), n=4, mode=mode)
    assert len(violations) == expected
    assert {v.kind for v in violations} == {"monotonicity"}
    for v in violations:
        a, b = (set(s) for s in v.sets)
        assert a < b and v.gap == len(a) - len(b)


def test_generalized_product_form_clean():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 6)
    lam_floor = min(
        np.linalg.eigvalsh(
            context_for(g, 1, gains=GainVector.of(1.0)).grounded([v])
        )[0]
        for v in range(6)
    )
    b2 = 2.0 / lam_floor  # guarantees b2 * lambda_min > b3 = 1
    fn = TraceSetFunction(g, unit_kappa(6), "product", b1=1.3, b2=b2, b3=1.0)
    violations = check_monotone_submodular(value_fn=fn.value, n=6, mode="exhaustive")
    assert violations == []


def test_generalized_fourth_order_form_clean():
    rng = np.random.default_rng(42)
    g = random_connected_graph(rng, 6)
    lam_floor = min(
        np.linalg.eigvalsh(
            context_for(g, 1, gains=GainVector.of(1.0)).grounded([v])
        )[0]
        for v in range(6)
    )
    gap = 2.0 / lam_floor  # (b1 - b2) * lambda_min = 2 > 1
    fn = TraceSetFunction(g, unit_kappa(6), "fourth_order", b1=gap + 1.0, b2=1.0)
    violations = check_monotone_submodular(value_fn=fn.value, n=6, mode="exhaustive")
    assert violations == []


def test_exhaustive_mode_rejects_large_graphs():
    rng = np.random.default_rng(0)
    g = random_connected_graph(rng, 9)
    with pytest.raises(CombinatorialCapError):
        check_monotone_submodular(context_for(g, 2), mode="exhaustive")
