import gc
import math
import tracemalloc
from dataclasses import asdict
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leadersel.system as system_module
from leadersel.coherence import (
    SystemContext,
    coherence_closed,
    coherence_lyapunov_oracle,
    normalized_eigenvalue_terms,
    normalized_from_inverses,
)
from leadersel.errors import LeaderSelError, UnstableSystemError
from leadersel.graphs import build_graph, six_node_example
from leadersel.graphs import erdos_renyi_connected
from leadersel.linalg import spd_inverse
from leadersel.stability import auto_gains, singleton_lambda_mins
from leadersel.system import (
    GainVector,
    GroundedSystem,
    SingletonPhase,
    grounded_matrix,
    singleton_phase,
)

from conftest import (
    barbell,
    bisection_lambda_mins,
    cliques,
    cycle,
    gain_vector,
    graphs,
    log_uniform_weights,
    path,
    random_connected_graph,
    set_value,
    star,
    TraceSetFunction,
    with_kappa,
)

SINGLE = build_graph(1, [])
K2 = build_graph(2, [(0, 1, 1.0)])


def k2_system(gains):
    return GroundedSystem.create(K2, [0], GainVector(tuple(gains)))


def single_system(gains):
    return GroundedSystem.create(SINGLE, [0], GainVector(tuple(gains)))


def stable_random_system(seed: int, n: int, m: int):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    gains = auto_gains(singleton_phase(g), m)
    leaders = [v for v in range(n) if rng.random() < 0.4] or [int(rng.integers(0, n))]
    return GroundedSystem.create(g, leaders, gains)


# -- closed forms --------------------------------------------------------------

def test_single_node_second_order():
    assert coherence_closed(single_system((1, 1))).value == pytest.approx(0.5, rel=1e-12)


def test_single_node_third_order():
    assert coherence_closed(single_system((1, 1, 2))).value == pytest.approx(1.0, rel=1e-12)


def test_single_node_fourth_order():
    assert coherence_closed(single_system((1, 2, 3, 2))).value == pytest.approx(0.5, rel=1e-12)


def test_k2_second_order_known_value():
    assert coherence_closed(k2_system((1, 1))).value == pytest.approx(3.5, rel=1e-10)


def test_k2_third_order_known_value():
    assert coherence_closed(k2_system((1, 1, 3))).value == pytest.approx(27.0, rel=1e-10)


def test_unstable_system_refused():
    with pytest.raises(UnstableSystemError):
        coherence_closed(k2_system((1, -1)))


def test_marginal_system_refused():
    with pytest.raises(UnstableSystemError):
        coherence_closed(single_system((1, 1, 1)))  # slack exactly 0


def test_empty_leaders_refused():
    system = GroundedSystem.create(K2, [], gain_vector(1, 1))
    with pytest.raises(LeaderSelError, match="grounded matrix is singular without leaders"):
        coherence_closed(system)
    context = SystemContext(singleton_phase(K2), gain_vector(1, 1))
    with pytest.raises(LeaderSelError, match="grounded matrix is singular without leaders"):
        context.normalized_coherence([])


def inverse_path_h(system):
    """H from dense inverses: normalized_from_inverses(Q^-1, (c Q - I)^-1) / rho.

    At order 4 this is the split form the greedy scores with,
    (tr(Q^-2) + b2 tr(Q^-1 ((b1-b2) Q - I)^-1)) / (2 a1 a2)."""
    gains = system.gains
    c = gains.form.c
    shifted = None if c is None else spd_inverse(c * system.matrix - np.eye(system.n))
    trace = normalized_from_inverses(gains, spd_inverse(system.matrix), shifted)
    return trace / gains.form.rho


def paper_trace_h(system):
    """H_m as the module docstring writes it, from dense inverses of the
    unsplit products; independent of the per-order weight record."""
    q, eye = system.matrix, np.eye(system.n)
    a = system.gains.values
    if system.m == 1:
        return np.trace(np.linalg.inv(q)) / (2 * a[0])
    if system.m == 2:
        return np.trace(np.linalg.inv(q @ q)) / (2 * a[0] * a[1])
    if system.m == 3:
        c = a[1] * a[2] / a[0]
        return a[2] / (2 * a[0] ** 2) * np.trace(np.linalg.inv(q @ (c * q - eye)))
    b1, b2 = a[2] * a[3] / a[1], a[0] * a[3] ** 2 / a[1] ** 2
    product = np.linalg.inv(q @ q @ ((b1 - b2) * q - eye)) @ (b1 * q - eye)
    return np.trace(product) / (2 * a[0] * a[1])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_closed_form_matches_paper_traces(m):
    for seed in range(8):
        system = stable_random_system(500 + seed, 7, m)
        assert coherence_closed(system).value == pytest.approx(paper_trace_h(system), rel=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_eigenvalue_terms_match_per_eigenvalue_loop(m):
    """The weighted sum keeps each term and the in-order summation of the
    per-order loop: bit-equal at orders 1-3; order 4 regroups its term
    (b1 lam - 1) / (lam^2 ((b1 - b2) lam - 1)) into two positive parts."""
    for seed in range(8):
        system = stable_random_system(700 + seed, 9, m)
        a = system.gains.values
        total = 0.0
        for lam in system.eigenvalues:
            if m == 1:
                total += 1.0 / lam
            elif m == 2:
                total += 1.0 / lam**2
            elif m == 3:
                total += 1.0 / (lam * (a[1] * a[2] / a[0] * lam - 1.0))
            else:
                b1, b2 = a[2] * a[3] / a[1], a[0] * a[3] ** 2 / a[1] ** 2
                total += (b1 * lam - 1.0) / (lam**2 * ((b1 - b2) * lam - 1.0))
        got = normalized_eigenvalue_terms(system.gains, system.eigenvalues)
        if m < 4:
            assert got == total
        else:
            assert got == pytest.approx(total, rel=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_eigen_and_inverse_paths_agree(m):
    for seed in range(8):
        system = stable_random_system(seed, 6, m)
        eig = coherence_closed(system).value
        assert inverse_path_h(system) == pytest.approx(eig, rel=1e-8)


# -- Lyapunov oracle -------------------------------------------------------------

def test_oracle_single_node_second_order():
    assert coherence_lyapunov_oracle(single_system((1, 1))).value == pytest.approx(0.5, rel=1e-10)


def test_oracle_k2_values():
    assert coherence_lyapunov_oracle(k2_system((1, 1))).value == pytest.approx(3.5, rel=1e-6)
    assert coherence_lyapunov_oracle(k2_system((1, 1, 3))).value == pytest.approx(27.0, rel=1e-6)


def test_oracle_rejects_unstable():
    with pytest.raises(UnstableSystemError):
        coherence_lyapunov_oracle(k2_system((1, 1, 1, 1)))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_closed_forms_match_oracle(m):
    for seed in range(6):
        system = stable_random_system(100 + seed, 5, m)
        closed = coherence_closed(system).value
        oracle = coherence_lyapunov_oracle(system).value
        assert closed == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("n", [100, 200])
def test_closed_forms_match_oracle_at_selection_scale(n):
    """The `gen --n N --p 0.5 --seed 1 --connected` graphs with auto gains
    and leaders 0-4: state dimension up to 800, criterion-2 tolerance."""
    g, _ = erdos_renyi_connected(n, 0.5, 1)
    for m in (2, 3, 4):
        gains = auto_gains(singleton_phase(g), m)
        system = GroundedSystem.create(g, [0, 1, 2, 3, 4], gains)
        closed = coherence_closed(system).value
        assert coherence_lyapunov_oracle(system).value == pytest.approx(closed, rel=1e-6), m


# -- rearranged fourth-order form -------------------------------------------------

def test_rearranged_matches_direct_single_node():
    system = single_system((1, 2, 3, 2))
    assert inverse_path_h(system) == pytest.approx(0.5, rel=1e-12)
    assert inverse_path_h(system) == pytest.approx(coherence_closed(system).value, rel=1e-12)


def test_rearranged_matches_direct_random():
    for seed in range(10):
        system = stable_random_system(200 + seed, 5, 4)
        assert inverse_path_h(system) == pytest.approx(coherence_closed(system).value, rel=1e-10)


def test_rearranged_matches_oracle_k2():
    gains = auto_gains(singleton_phase(K2), 4)
    system = GroundedSystem.create(K2, [0], gains)
    assert inverse_path_h(system) == pytest.approx(
        coherence_lyapunov_oracle(system).value, rel=1e-6
    )


# -- surrogate set function --------------------------------------------------------

def test_set_function_empty_is_zero():
    ctx = SystemContext(singleton_phase(K2), gain_vector(1, 1))
    assert set_value(ctx, []) == 0.0


def test_set_function_worst_singleton_is_half_offset():
    ctx = SystemContext(singleton_phase(K2), gain_vector(1, 1))
    worst = max(range(2), key=lambda v: ctx.singleton_normalized[v])
    assert set_value(ctx, [worst]) == pytest.approx(ctx.offset / 2, rel=1e-12)


def test_set_function_single_node_numbers():
    # rho*H = 1 for the single-node unit system, so C = 2 and f({0}) = 1
    ctx = SystemContext(singleton_phase(SINGLE), gain_vector(1, 1))
    assert ctx.offset == pytest.approx(2.0, rel=1e-12)
    assert set_value(ctx, [0]) == pytest.approx(1.0, rel=1e-12)


def test_set_function_refuses_unstable_gains():
    ctx = SystemContext(singleton_phase(K2), gain_vector(1, 1, 1))
    with pytest.raises(UnstableSystemError):
        set_value(ctx, [0])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_surrogate_consistent_with_coherence(m):
    system = stable_random_system(300 + m, 5, m)
    ctx = SystemContext(singleton_phase(system.graph), system.gains)
    f = set_value(ctx, system.leaders)
    h = coherence_closed(system).value
    rho = system.gains.form.rho
    assert f == pytest.approx(ctx.offset - rho * h, rel=1e-9)


# -- generalized trace family --------------------------------------------------------

def test_product_form_reproduces_second_order():
    gains = gain_vector(1.5, 2.0)
    ctx = SystemContext(singleton_phase(K2), gains)
    fn = TraceSetFunction(K2, "product", b1=1.0, b2=1.0, b3=0.0)
    for leaders in ([0], [1], [0, 1]):
        assert fn.value(leaders) == pytest.approx(set_value(ctx, leaders), rel=1e-10)


def test_product_form_reproduces_third_order():
    gains = gain_vector(1, 1, 3)
    ctx = SystemContext(singleton_phase(K2), gains)
    a1, a2, a3 = gains.values
    fn = TraceSetFunction(K2, "product", b1=1.0, b2=a2 * a3 / a1, b3=1.0)
    for leaders in ([0], [1], [0, 1]):
        assert fn.value(leaders) == pytest.approx(set_value(ctx, leaders), rel=1e-10)


def test_fourth_order_form_reproduces_fourth_order():
    ctx = SystemContext.auto(K2, 4)
    gains = ctx.gains
    a1, a2, a3, a4 = gains.values
    fn = TraceSetFunction(
        K2, "fourth_order", b1=a3 * a4 / a2, b2=a1 * a4**2 / a2**2
    )
    for leaders in ([0], [1], [0, 1]):
        assert fn.value(leaders) == pytest.approx(set_value(ctx, leaders), rel=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_trace_family_matches_dense_docstring_forms(seed):
    """Both forms against the documented traces, built with dense inverses."""
    rng = np.random.default_rng(seed)
    n = 6
    g = random_connected_graph(rng, n)
    lam = min(singleton_lambda_mins(g))  # no leader set has a smaller one
    b2 = rng.uniform(0.5, 2.0)
    product = TraceSetFunction(g, "product", b1=rng.uniform(0.5, 2.0), b2=b2,
                               b3=rng.uniform(0.0, 0.9) * b2 * lam)
    fourth = TraceSetFunction(g, "fourth_order",
                              b1=b2 + rng.uniform(1.1, 3.0) / lam, b2=b2)
    eye = np.eye(n)
    for leaders in ([0], [n - 1], [1, 3], list(range(n))):
        q = grounded_matrix(g, leaders)
        inv = np.linalg.inv
        dense_product = np.trace(
            inv(product.b1 * q) @ inv(product.b2 * q - product.b3 * eye))
        dense_fourth = np.trace(
            inv(q) @ inv(q) @ (fourth.b1 * q - eye)
            @ inv((fourth.b1 - fourth.b2) * q - eye))
        assert product.offset - product.value(leaders) == pytest.approx(dense_product,
                                                                        rel=1e-10)
        assert fourth.offset - fourth.value(leaders) == pytest.approx(dense_fourth,
                                                                      rel=1e-10)


def test_generalized_function_checks_preconditions():
    with pytest.raises(ValueError):
        TraceSetFunction(K2, "product", b1=-1.0, b2=1.0)
    with pytest.raises(ValueError):
        TraceSetFunction(K2, "fourth_order", b1=1.0, b2=2.0)
    # b2 * lambda_min barely misses b3 on K2 singletons
    fn = TraceSetFunction(K2, "product", b1=1.0, b2=1.0, b3=1.0)
    with pytest.raises(ValueError):
        fn.value([0])


# -- ordering and monotonicity ---------------------------------------------------------

@given(graphs(min_nodes=2, max_nodes=7), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_order_three_exceeds_order_two_for_equal_gains(g, seed):
    rng = np.random.default_rng(seed)
    gains3 = auto_gains(singleton_phase(g), 3)
    a = gains3.values[0]
    leaders = [v for v in range(g.n) if rng.random() < 0.5] or [0]
    h2 = coherence_closed(
        GroundedSystem.create(g, leaders, gain_vector(a, a))
    ).value
    h3 = coherence_closed(GroundedSystem.create(g, leaders, gains3)).value
    h1 = coherence_closed(
        GroundedSystem.create(g, leaders, gain_vector(a))
    ).value
    assert h3 > h2
    assert h1 > h2


@given(graphs(min_nodes=2, max_nodes=6), st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_adding_a_leader_reduces_coherence(g, m, seed):
    rng = np.random.default_rng(seed)
    phase = singleton_phase(g)
    gains = auto_gains(phase, m)
    members = sorted(rng.choice(g.n, size=max(1, g.n // 2), replace=False).tolist())
    outside = [v for v in range(g.n) if v not in members]
    if not outside:
        return
    ctx = SystemContext(phase, gains)
    before = ctx.normalized_coherence(members) / ctx.gains.form.rho
    after = ctx.normalized_coherence(members + [outside[0]]) / ctx.gains.form.rho
    assert after <= before
    assert before - after > 1e-12  # strict with positive kappa


def test_exhaustive_monotonicity_small_graph():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 6)
    for m in (2, 3, 4):
        ctx = SystemContext.auto(g, m)
        values = {}
        for mask in range(1, 1 << 6):
            members = tuple(v for v in range(6) if mask >> v & 1)
            values[mask] = set_value(ctx, members)
        for mask in range(1, 1 << 6):
            for v in range(6):
                if not mask >> v & 1:
                    assert values[mask | (1 << v)] >= values[mask] - 1e-9


def test_coherence_report_fields():
    report = coherence_closed(k2_system((1, 1)))
    assert report.order == 2
    assert report.method == "closed_eig"
    assert report.leaders == (0,)
    assert report.gains == (1.0, 1.0)
    payload = asdict(report)
    assert payload["value"] == pytest.approx(3.5)


# -- the shared singleton phase ------------------------------------------------
#
# The phase computes every single-leader quantity from one eigendecomposition
# of L; the per-node eigensolves (``singleton_lambda_mins``,
# ``normalized_coherence``) are the oracles.  Graphs with repeated Laplacian
# eigenvalues (K_n, C_n, a star, K_{3,4}, the six-node network) check that
# nothing depends on the basis chosen inside an eigenspace.


def _phase_graphs():
    six = six_node_example()
    return [
        ("K12", cliques(12)),
        ("C12", cycle(12)),
        ("star9", build_graph(9, [(0, j, 1.0) for j in range(1, 9)])),
        ("K34", build_graph(7, [(i, j, 1.0) for i in range(3) for j in range(3, 7)])),
        ("six", six.graph),
        ("G30", erdos_renyi_connected(30, 0.5, seed=3)[0]),
        ("G60", erdos_renyi_connected(60, 0.5, seed=4)[0]),
        ("G20w", with_kappa(erdos_renyi_connected(20, 0.4, seed=8)[0], np.linspace(0.5, 2.0, 20))),
    ]


def test_singleton_spectra_match_per_node_paths():
    for name, graph in _phase_graphs():
        fast = singleton_phase(graph).lambda_star
        oracle = min(singleton_lambda_mins(graph))
        np.testing.assert_allclose(fast, oracle, rtol=1e-8, atol=0, err_msg=name)


def test_singleton_phase_single_node_is_exact():
    # no lam_1: the all-ones Rayleigh quotient kappa / n closes the bracket
    assert singleton_phase(with_kappa(SINGLE, [2.5])).lambda_star == 2.5


def test_singleton_phase_retains_only_its_eigenvectors():
    """U (a view of eigh's n x n basis) and lam are all the phase keeps:
    W = U o U and L are formed where they are read, then dropped."""
    graph, _ = erdos_renyi_connected(300, 0.5, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        phase = singleton_phase(graph)
        phase.lambda_star
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * 8 * graph.n**2


def test_singleton_lambda_mins_memory_is_row_blocked(monkeypatch):
    """lambda_star forms W one row block at a time: its peak above the phase
    stays under 1.5 * 8n^2 bytes once n needs several blocks, and the
    blocking changes no bit of the result."""
    n = 800
    graph, _ = erdos_renyi_connected(n, 0.5, seed=0)
    phase = singleton_phase(graph)
    assert 8 * (n - 1) * n > 4 * system_module._ROW_BLOCK_BYTES  # several blocks
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        blocked = phase.lambda_star
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.5 * 8 * n**2
    for budget in (8 * (n - 1) * n, 3 * 8 * (n - 1)):  # one block; blocks of 3 rows
        monkeypatch.setattr(system_module, "_ROW_BLOCK_BYTES", budget)
        again = SingletonPhase(graph, phase.eigenvalues, phase.vectors).lambda_star
        assert again.hex() == blocked.hex()


class _BisectionPhase(SingletonPhase):
    """A singleton phase whose lambda_star comes from the bisection oracle."""

    @cached_property
    def lambda_star(self):
        return float(bisection_lambda_mins(self).min())


def _secular_graphs():
    # Sparse graphs with tiny or vanishing weights on lam_1 (the path's middle
    # node, the star's hub), two cliques on one bridge, and weights over twelve
    # decades, besides the phase graphs and the two smallest cases.
    w50 = log_uniform_weights(erdos_renyi_connected(50, 0.5, seed=6)[0], seed=6)
    extra = [
        ("path199", path(199)),
        ("C150", cycle(150)),
        ("star100", star(100)),
        ("barbell", barbell(50)),
        ("G50w", w50),
        ("K2", K2),
        ("single", with_kappa(SINGLE, [2.5])),
    ]
    return _phase_graphs() + extra


def test_singleton_lambda_mins_match_bisection_oracle():
    for name, graph in _secular_graphs():
        phase = singleton_phase(graph)
        oracle = _BisectionPhase(phase.graph, phase.eigenvalues, phase.vectors)
        gap = abs(phase.lambda_star - oracle.lambda_star)
        assert gap <= 2.0 * np.spacing(oracle.lambda_star), (name, gap)
        for m in (1, 2, 3, 4):
            assert auto_gains(phase, m) == auto_gains(oracle, m), (name, m)



@pytest.mark.parametrize("setting", [("_SECULAR_MAX_STEPS", 0), ("_SECULAR_MAX_STEPS", 1),
                                     ("_SECULAR_STEP_RTOL", 0.5)])
def test_singleton_lambda_star_is_fixed_by_the_sign_test(monkeypatch, setting):
    """No rational steps, one step, or a loose stop: the probes and the
    bisection alone fix lambda_star, to the same bits."""
    phases = [singleton_phase(graph) for _, graph in _secular_graphs()]
    expected = [phase.lambda_star.hex() for phase in phases]
    monkeypatch.setattr(system_module, *setting)
    again = [SingletonPhase(p.graph, p.eigenvalues, p.vectors).lambda_star.hex()
             for p in phases]
    assert again == expected

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_singleton_normalized_matches_per_node_oracle(m):
    # order-3 values carry the closed form's own conditioning
    # 1 / (c lambda_min(Q_v) - 1), so their bound scales with it
    for name, graph in _phase_graphs():
        ctx = SystemContext.auto(graph, m)
        assert ctx.gains == auto_gains(singleton_phase(graph), m)
        fresh = SystemContext(singleton_phase(graph), ctx.gains)
        lam = np.array(singleton_lambda_mins(graph))
        scale = np.ones(graph.n)
        if m == 3:
            scale = np.maximum(1.0, 1.0 / (ctx.gains.form.c * lam - 1.0))
        for v in range(graph.n):
            oracle = ctx.normalized_coherence([v])
            gap = abs(ctx.singleton_normalized[v] - oracle) / oracle
            assert gap <= 1e-8 * scale[v], (name, v, gap)
            assert fresh.singleton_normalized[v] == ctx.singleton_normalized[v]
