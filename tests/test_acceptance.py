"""Acceptance gate: one test per shipped claim, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Every tolerance is pinned here, not configurable.
"""

import math
import statistics
import time

import numpy as np
import pytest

from leadersel.coherence import SystemContext, coherence_closed, coherence_lyapunov_oracle
from leadersel.graphs import (
    KappaWeights,
    build_graph,
    erdos_renyi_connected,
    six_node_example,
    unit_kappa,
)
from leadersel.selection import certify_bound, exhaustive_select, greedy_select
from leadersel.simulate import SimulationSpec, simulate_coherence
from leadersel.stability import (
    auto_gains,
    check_stability,
    companion_state_matrix,
    hurwitz_determinants,
    spectral_stability_oracle,
)
from leadersel.system import GainVector, GroundedSystem, singleton_phase

from conftest import (
    check_monotone_submodular,
    gain_vector,
    naive_greedy,
    random_connected_graph,
    set_value,
    state_matrix,
    TraceSetFunction,
)

SINGLE = build_graph(1, [])
K2 = build_graph(2, [(0, 1, 1.0)])


def _pass(num: int, message: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {num}: PASS ({elapsed:.2f}s) - {message}")


def test_criterion_1_six_node_leader_split():
    started = time.perf_counter()
    gf = six_node_example()
    picks = {}
    for m in (1, 2, 3):
        ctx = SystemContext.auto(gf.graph, gf.kappa, m)
        picks[m] = gf.to_label(exhaustive_select(ctx, 1).chosen[0])
    assert picks[1] == 2
    assert picks[2] == 4
    assert picks[3] == 4
    _pass(1, f"six-node fixture picks {picks}", started, 1.0)


def test_criterion_2_closed_forms_match_lyapunov_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    graphs_checked = 0
    instances = 0
    worst = 0.0
    while graphs_checked < 54:
        n = int(rng.integers(2, 9))
        g = random_connected_graph(rng, n)
        kappa = unit_kappa(n)
        leaders = [v for v in range(n) if rng.random() < 0.5] or [int(rng.integers(0, n))]
        for m in (2, 3, 4):
            gains = auto_gains(singleton_phase(g, kappa), m)
            system = GroundedSystem.create(g, kappa, leaders, gains)
            closed = coherence_closed(system).value
            oracle = coherence_lyapunov_oracle(system).value
            rel = abs(closed - oracle) / abs(oracle)
            worst = max(worst, rel)
            assert rel <= 1e-6, (n, m, leaders, rel)
            instances += 1
        graphs_checked += 1
    _pass(2, f"{graphs_checked} graphs / {instances} instances, worst rel err {worst:.2e}",
          started, 60.0)


def test_criterion_3_known_values():
    started = time.perf_counter()
    kappa = unit_kappa(2)
    h2 = GroundedSystem.create(K2, kappa, [0], gain_vector(1, 1))
    h3 = GroundedSystem.create(K2, kappa, [0], gain_vector(1, 1, 3))
    assert coherence_closed(h2).value == pytest.approx(3.5, rel=1e-10)
    assert coherence_closed(h3).value == pytest.approx(27.0, rel=1e-10)
    assert coherence_lyapunov_oracle(h2).value == pytest.approx(3.5, rel=1e-6)
    assert coherence_lyapunov_oracle(h3).value == pytest.approx(27.0, rel=1e-6)
    _pass(3, "H2(K2) = 3.5 and H3(K2) = 27, confirmed by the Gramian oracle",
          started, 1.0)


def test_criterion_4_greedy_bound_desk_scale():
    started = time.perf_counter()
    ratios = []
    for trial in range(3):
        g, _ = erdos_renyi_connected(12, 0.5, seed=7000 + trial)
        kappa = unit_kappa(12)
        for m in (1, 2, 3, 4):
            ctx = SystemContext.auto(g, kappa, m)
            for k in (1, 2, 3):
                cert = certify_bound(ctx, greedy_select(ctx, k), exhaustive_select(ctx, k))
                assert cert.holds
                assert cert.ratio <= 1.0 / math.e + 1e-12
                if k == 1:
                    assert cert.ratio == 0.0
                ratios.append(cert.ratio)
    median = statistics.median(ratios)
    assert median < 0.05
    _pass(4, f"36 bound certificates, median ratio {median:.2e}", started, 300.0)


def test_criterion_5_submodularity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    for index in range(10):
        n = int(rng.integers(4, 8))
        g = random_connected_graph(rng, n)
        kappa = unit_kappa(n)
        for m in (2, 3, 4):
            ctx = SystemContext.auto(g, kappa, m)
            violations = check_monotone_submodular(lambda s: set_value(ctx, s), n)
            assert violations == [], (index, m, violations[:3])
        lam_floor = min(singleton_phase(g, kappa).lambda_mins)
        b3 = float(rng.uniform(0.0, 1.5))
        product = TraceSetFunction(
            g, kappa, "product",
            b1=float(rng.uniform(0.2, 3.0)),
            b2=(b3 + 0.5 + float(rng.uniform(0.0, 1.0))) / lam_floor,
            b3=b3,
        )
        assert check_monotone_submodular(product.value, n) == []
        b2 = float(rng.uniform(0.1, 2.0))
        quartic = TraceSetFunction(
            g, kappa, "fourth_order",
            b1=b2 + (1.3 + float(rng.uniform(0.0, 1.0))) / lam_floor,
            b2=b2,
        )
        assert check_monotone_submodular(quartic.value, n) == []
    _pass(5, "10 graphs x (f2, f3, f4, product, fourth-order): zero violations",
          started, 120.0)


def test_criterion_6_stability_verdicts():
    started = time.perf_counter()
    rng = np.random.default_rng(66)

    # (a) equal gains at orders 4 and 5 fail both routes
    # the third Hurwitz determinant of equal gains a at order 4 is -a^2 lam^2
    for a in (0.5, 1.0, 3.0):
        for lam in (0.1, 0.7, 2.0):
            assert hurwitz_determinants(GainVector((a,) * 4), lam)[2] < 0
    g = random_connected_graph(rng, 5)
    q = GroundedSystem.create(g, unit_kappa(5), [0, 3], gain_vector(1, 1)).matrix
    for m in (4, 5):
        stable, _ = spectral_stability_oracle(companion_state_matrix(q, (1.0,) * m))
        assert not stable

    # (b) Hurwitz verdict against the spectral oracle on 200 random instances
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n)
        kappa = unit_kappa(n)
        m = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            gains = tuple(auto_gains(singleton_phase(g, kappa), m).values)
        else:
            gains = tuple(float(x) for x in rng.uniform(-2.0, 4.0, size=m))
            if any(abs(x) < 1e-6 for x in gains):
                continue
        leaders = [v for v in range(n) if rng.random() < 0.5] or [0]
        system = GroundedSystem.create(g, kappa, leaders, GainVector(gains))
        report = check_stability(system)
        stable, max_real = spectral_stability_oracle(state_matrix(system))
        if abs(report.margin) < 1e-9 or abs(max_real) < 1e-9:
            continue  # marginal band: agreement not required
        assert report.stable == stable, (gains, leaders, report.margin, max_real)
        checked += 1

    # (c) crossing the order-3 boundary flips both verdicts
    system = GroundedSystem.create(K2, unit_kappa(2), [0], gain_vector(1, 1, 1))
    boundary = 1.0 / system.lambda_min  # required a2*a3/a1
    for factor, expected in ((1.05, True), (0.95, False)):
        gains = gain_vector(1.0, 1.0, boundary * factor)
        flipped = GroundedSystem.create(K2, unit_kappa(2), [0], gains)
        report = check_stability(flipped)
        oracle_stable, _ = spectral_stability_oracle(state_matrix(flipped))
        assert report.stable is expected
        assert oracle_stable is expected
    _pass(6, "equal-gain rejections, 200 oracle agreements, boundary flip",
          started, 120.0)


def test_criterion_7_ordering_claims():
    started = time.perf_counter()
    rng = np.random.default_rng(77)

    # closed-form ordering on 100 random (graph, leader set) draws
    for _ in range(100):
        n = int(rng.integers(2, 8))
        g = random_connected_graph(rng, n)
        kappa = unit_kappa(n)
        a = auto_gains(singleton_phase(g, kappa), 3).values[0]
        leaders = [v for v in range(n) if rng.random() < 0.5] or [int(rng.integers(0, n))]
        h1 = coherence_closed(GroundedSystem.create(g, kappa, leaders, gain_vector(a))).value
        h2 = coherence_closed(GroundedSystem.create(g, kappa, leaders, gain_vector(a, a))).value
        h3 = coherence_closed(
            GroundedSystem.create(g, kappa, leaders, gain_vector(a, a, a))
        ).value
        assert h3 > h2
        assert h1 > h2

    # desk-scale optimal-coherence comparison, per trial and budget
    for trial in range(3):
        g, _ = erdos_renyi_connected(12, 0.5, seed=7700 + trial)
        kappa = unit_kappa(12)
        best = {
            m: SystemContext.auto(g, kappa, m)
            for m in (1, 2, 3)
        }
        for k in (1, 2, 3):
            h = {m: exhaustive_select(best[m], k).h_values[-1] for m in (1, 2, 3)}
            assert h[1] > h[2]
            assert h[3] > h[2]
    _pass(7, "H3 > H2 and H1 > H2 on 100 draws and on optimal desk-scale sets",
          started, 120.0)


def test_criterion_8_incremental_greedy_matches_naive():
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    orders = (2, 3, 4)
    for index in range(20):
        n = int(rng.integers(6, 16))
        g = random_connected_graph(rng, n)
        kappa = unit_kappa(n)
        m = orders[index % 3]
        k = int(rng.integers(1, 6))
        ctx = SystemContext.auto(g, kappa, m)
        fast = greedy_select(ctx, k)
        slow = naive_greedy(ctx, k)
        assert fast.chosen == slow.chosen, (index, n, m, k)
        for a, b in zip(fast.f_values, slow.f_values):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    _pass(8, "20 instances: identical pick sequences, f drift within 1e-9",
          started, 60.0)


def test_criterion_9_simulation_consistency():
    started = time.perf_counter()
    cases = [
        (GroundedSystem.create(SINGLE, unit_kappa(1), [0], gain_vector(1, 1)), 0.5),
        (GroundedSystem.create(K2, unit_kappa(2), [0], gain_vector(1, 1)), 3.5),
    ]
    errors = []
    for system, target in cases:
        spec = SimulationSpec(system=system, dt=1e-3, total_time=2000.0,
                              burn_in=100.0, seed=4, ensemble=4)
        estimate, _, _ = simulate_coherence(spec)
        rel = abs(estimate - target) / target
        assert rel <= 0.05, (system.n, estimate, target)
        errors.append(rel)
    _pass(9, f"empirical vs closed form: rel errors {[f'{e:.3%}' for e in errors]}",
          started, 120.0)
