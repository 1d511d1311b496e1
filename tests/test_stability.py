from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadersel.coherence import coherence_closed
from leadersel.errors import EmptyLeaderSetError, UnstableSystemError, UnsupportedOrderError
from leadersel.graphs import KappaWeights, build_graph, unit_kappa
from leadersel.stability import (
    auto_gains,
    check_stability,
    companion_state_matrix,
    hurwitz_determinants,
    spectral_stability_oracle,
)
from leadersel.system import GainVector, GroundedSystem, singleton_phase

from conftest import (
    edge_list,
    gain_vector,
    graphs,
    random_connected_graph,
    scaled_gains,
    state_matrix,
)

SINGLE = build_graph(1, [])
K2 = build_graph(2, [(0, 1, 1.0)])


def single_node_system(gains) -> GroundedSystem:
    return GroundedSystem.create(SINGLE, unit_kappa(1), [0], GainVector(tuple(gains)))


# -- Hurwitz determinants -----------------------------------------------------

def test_hurwitz_third_order():
    np.testing.assert_allclose(
        hurwitz_determinants(gain_vector(1, 1, 1), 2.0), (2.0, 2.0, 4.0)
    )


def test_hurwitz_second_order():
    np.testing.assert_allclose(hurwitz_determinants(gain_vector(1, 1), 1.0), (1.0, 1.0))


def test_hurwitz_fourth_order_equal_gains_third_minor_negative():
    dets = hurwitz_determinants(gain_vector(1, 1, 1, 1), 1.0)
    assert dets[2] == -1.0


def test_hurwitz_first_order():
    np.testing.assert_allclose(hurwitz_determinants(gain_vector(2.0), 3.0), (6.0,))


def test_hurwitz_cross_check_against_polynomial_roots():
    # determinant positivity must match root locations for the per-block cubic
    for gains, lam in [((1, 1, 2), 1.0), ((1, 1, 1), 2.0), ((3, 1, 1), 0.5)]:
        a1, a2, a3 = gains
        dets = hurwitz_determinants(GainVector(gains), lam)
        roots = np.roots([1.0, a3 * lam, a2 * lam, a1 * lam])
        assert (min(dets) > 0) == bool(np.max(roots.real) < 0)


def test_gain_vector_rejects_bad_orders():
    with pytest.raises(UnsupportedOrderError):
        GainVector((1.0,) * 5)
    with pytest.raises(UnsupportedOrderError):
        GainVector((1.0, 0.0))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(UnsupportedOrderError, match="must be nonzero and finite"):
            GainVector((1.0, bad))


# -- stability verdicts -------------------------------------------------------

def test_third_order_single_node_stable():
    report = check_stability(single_node_system((1, 1, 2)))
    assert report.stable
    assert report.margin == pytest.approx(1.0)  # 2*1 - 1


def test_second_order_negative_gain_unstable():
    report = check_stability(single_node_system((1, -1)))
    assert not report.stable
    assert not report.marginal


def test_fourth_order_single_node_stable():
    # a3 a4 / a2 = 3 > 1 and 3 - a1 a4^2 / a2^2 = 2 > 1
    report = check_stability(single_node_system((1, 2, 3, 2)))
    assert report.stable


def test_exact_boundary_is_marginal():
    # third order, equal unit gains, lambda = 1: condition slack is exactly 0
    report = check_stability(single_node_system((1, 1, 1)))
    assert not report.stable
    assert report.marginal


def test_empty_leader_set_rejected():
    system = GroundedSystem.create(K2, unit_kappa(2), [], gain_vector(1, 1))
    with pytest.raises(EmptyLeaderSetError):
        check_stability(system)


def test_stability_report_serializes():
    payload = asdict(check_stability(single_node_system((1, 1, 2))))
    assert payload["stable"] is True
    assert len(payload["conditions"]) == 4
    assert len(payload["hurwitz_determinants"]) == 3


def verdicts(system):
    """(stable, marginal, the oracle's verdict, whether the closed forms evaluate)."""
    report = check_stability(system)
    oracle, _ = spectral_stability_oracle(state_matrix(system))
    try:
        coherence_closed(system)
    except UnstableSystemError:
        return report.stable, report.marginal, oracle, False
    return report.stable, report.marginal, oracle, True


@pytest.mark.parametrize("e", [-40, -20, 20, 40])
def test_verdicts_do_not_depend_on_the_units_of_the_weights(e):
    """Weights and kappa times 2^e, with gains that keep c * lambda: every
    stability verdict, marginal flag, oracle verdict and closed-form refusal
    is the one at 2^0."""
    s = 2.0**e
    for seed in range(4):
        graph = random_connected_graph(np.random.default_rng(seed), 12)
        scaled = build_graph(12, [(u, v, w * s) for u, v, w in edge_list(graph)])
        for m in (1, 2, 3, 4):
            gains = auto_gains(singleton_phase(graph, unit_kappa(12)), m)
            base = GroundedSystem.create(graph, unit_kappa(12), [0, 1, 2], gains)
            other = GroundedSystem.create(scaled, KappaWeights((s,) * 12), [0, 1, 2],
                                          scaled_gains(gains, s))
            assert verdicts(other) == verdicts(base), (seed, m)


@pytest.mark.parametrize("m", [1, 2])
def test_tiny_gains_stay_stable_and_evaluable(m):
    """Orders 1-2 are stable for any positive gains, however small."""
    graph = random_connected_graph(np.random.default_rng(0), 12)
    gains = auto_gains(singleton_phase(graph, unit_kappa(12)), m)
    gains = gain_vector(*(a * 2.0**-40 for a in gains.values))
    system = GroundedSystem.create(graph, unit_kappa(12), [0, 1, 2], gains)
    assert verdicts(system) == (True, False, True, True)


# -- equal-gain instability ----------------------------------------------------

@pytest.mark.parametrize("m, a, unstable", [(4, 1.0, True), (5, 3.0, True), (6, 0.5, True)])
def test_equal_gain_verdict(m, a, unstable):
    # from order 4 on, equal gains are unstable whatever their value: the
    # spectrum of a single node with all gains equal to a says so
    stable, _ = spectral_stability_oracle(companion_state_matrix(np.eye(1), (a,) * m))
    assert stable is not unstable


def test_equal_gain_instability_confirmed_by_oracle():
    rng = np.random.default_rng(0)
    g = random_connected_graph(rng, 5)
    q = GroundedSystem.create(g, unit_kappa(5), [0, 2], gain_vector(1, 1)).matrix
    for m in (4, 5):
        a = companion_state_matrix(q, (1.0,) * m)
        stable, max_real = spectral_stability_oracle(a)
        assert not stable
        assert max_real > -1e-9


# -- state matrix ---------------------------------------------------------------

def test_state_matrix_smallest_instance():
    a = state_matrix(single_node_system((1, 1)))
    np.testing.assert_allclose(a, [[0.0, 1.0], [-1.0, -1.0]])


def test_state_matrix_block_layout():
    system = GroundedSystem.create(K2, unit_kappa(2), [0], gain_vector(1, 1))
    a = state_matrix(system)
    q = system.matrix
    assert a.shape == (4, 4)
    np.testing.assert_allclose(a[:2, 2:], np.eye(2))
    np.testing.assert_allclose(a[:2, :2], 0.0)
    np.testing.assert_allclose(a[2:, :2], -q)
    np.testing.assert_allclose(a[2:, 2:], -q)


# -- spectral oracle ---------------------------------------------------------

def test_oracle_two_by_two():
    stable, max_real = spectral_stability_oracle(np.array([[0.0, 1.0], [-1.0, -1.0]]))
    assert stable
    assert max_real == pytest.approx(-0.5, rel=1e-9)


def test_oracle_agrees_with_conditions_on_random_stable_instance():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 5)
    gains = auto_gains(singleton_phase(g, unit_kappa(5)), 3)
    system = GroundedSystem.create(g, unit_kappa(5), [1], gains)
    report = check_stability(system)
    stable, _ = spectral_stability_oracle(state_matrix(system))
    assert report.stable and stable


def test_third_order_block_decomposition_matches_full_spectrum():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 6)
    gains = auto_gains(singleton_phase(g, unit_kappa(6)), 3)
    system = GroundedSystem.create(g, unit_kappa(6), [0, 3], gains)
    a1, a2, a3 = gains.values
    block_roots = []
    for lam in system.eigenvalues:
        block_roots.extend(np.roots([1.0, a3 * lam, a2 * lam, a1 * lam]))
    full = np.linalg.eigvals(state_matrix(system))

    def key(z):
        return (round(z.real, 6), round(z.imag, 6))

    assert sorted(map(key, block_roots)) == pytest.approx(
        sorted(map(key, full)), abs=1e-6
    )


def hurwitz_verdict_matches_oracle(system) -> bool:
    report = check_stability(system)
    stable, max_real = spectral_stability_oracle(state_matrix(system))
    if abs(report.margin) < 1e-9 or abs(max_real) < 1e-9:
        return True  # agreement not required inside the marginal band
    return report.stable == stable


def test_hurwitz_matches_oracle_randomized():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 60:
        n = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n)
        m = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            gains = tuple(auto_gains(singleton_phase(g, unit_kappa(n)), m).values)
        else:
            gains = tuple(float(x) for x in rng.uniform(-2, 4, size=m))
            if any(x == 0 for x in gains):
                continue
        leaders = [v for v in range(n) if rng.random() < 0.5] or [0]
        system = GroundedSystem.create(g, unit_kappa(n), leaders, GainVector(gains))
        assert hurwitz_verdict_matches_oracle(system), (gains, leaders)
        checked += 1


# -- monotonicity in leaders ---------------------------------------------------

@given(graphs(min_nodes=3, max_nodes=6))
@settings(max_examples=25, deadline=None)
def test_stability_monotone_in_leaders(g):
    gains = auto_gains(singleton_phase(g, unit_kappa(g.n)), 3)
    base = GroundedSystem.create(g, unit_kappa(g.n), [0], gains)
    report = check_stability(base)
    assert report.stable
    grown = GroundedSystem.create(g, unit_kappa(g.n), [0, g.n - 1], gains)
    assert check_stability(grown).stable
    assert check_stability(grown).margin >= report.margin - 1e-12


# -- the gain rule ---------------------------------------------------------------

def test_auto_gains_single_node_low_orders():
    assert auto_gains(singleton_phase(SINGLE, unit_kappa(1)), 1).values == (1.0,)
    assert auto_gains(singleton_phase(SINGLE, unit_kappa(1)), 2).values == (1.0, 1.0)


def test_auto_gains_single_node_third_order_escalates():
    # ceil(1/lambda) = 1 sits exactly on the boundary, so the rule doubles
    assert auto_gains(singleton_phase(SINGLE, unit_kappa(1)), 3).values == (2.0, 2.0, 2.0)


def test_auto_gains_single_node_fourth_order():
    assert auto_gains(singleton_phase(SINGLE, unit_kappa(1)), 4).values == (2.0, 4.0, 4.0, 4.0)


def test_auto_gains_k2():
    # max 1/lambda_min over singletons is 2/(3 - sqrt(5)) ~ 2.618
    assert auto_gains(singleton_phase(K2, unit_kappa(2)), 3).values == (3.0, 3.0, 3.0)


def test_auto_gains_six_node_value(six_node):
    gains = auto_gains(singleton_phase(six_node.graph, six_node.kappa), 3)
    assert gains.values == (17.0, 17.0, 17.0)


@given(graphs(min_nodes=2, max_nodes=6), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_auto_gains_stabilise_every_singleton(g, m):
    gains = auto_gains(singleton_phase(g, unit_kappa(g.n)), m)
    for v in range(g.n):
        system = GroundedSystem.create(g, unit_kappa(g.n), [v], gains)
        assert check_stability(system).stable
