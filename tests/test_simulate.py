import sys
import threading
import tracemalloc

import numpy as np
import pytest

import leadersel.simulate as simulate

from leadersel.coherence import coherence_closed
from leadersel.errors import LeaderSelError, UnstableSystemError
from leadersel.graphs import build_graph, erdos_renyi_connected
from leadersel.simulate import (
    SimulationSpec,
    noise_signs,
    noise_stream,
    simulate_coherence,
    simulate_trajectory,
    write_trajectory_csv,
)
from leadersel.stability import auto_gains
from leadersel.system import GroundedSystem, singleton_phase

from conftest import euler_oracle, gain_vector, state_matrix

SINGLE = build_graph(1, [])
K2 = build_graph(2, [(0, 1, 1.0)])


def single_m2():
    return GroundedSystem.create(SINGLE, [0], gain_vector(1, 1))


def k2_m2():
    return GroundedSystem.create(K2, [0], gain_vector(1, 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(system=single_m2(), dt=-1e-3, total_time=1.0, burn_in=0.0, seed=0)
    with pytest.raises(ValueError):
        SimulationSpec(system=single_m2(), dt=1e-3, total_time=1.0, burn_in=2.0, seed=0)
    with pytest.raises(ValueError):
        SimulationSpec(system=single_m2(), dt=1e-3, total_time=1.0, burn_in=0.0, seed=0,
                       ensemble=0)
    # 1e19 steps: finite, but past the largest range length
    with pytest.raises(ValueError, match="overflows the step count"):
        SimulationSpec(system=single_m2(), dt=1e-12, total_time=1e7, burn_in=0.0, seed=0)


def test_spec_rejects_burn_in_that_leaves_no_steps():
    # 0.9996 / 1e-3 rounds to all 1000 steps, which left nothing to average
    with pytest.raises(ValueError, match="burn-in"):
        SimulationSpec(system=single_m2(), dt=1e-3, total_time=1.0, burn_in=0.9996, seed=0)
    # a horizon shorter than half a step rounds to zero steps
    with pytest.raises(ValueError, match="burn-in"):
        SimulationSpec(system=single_m2(), dt=1e-3, total_time=4e-4, burn_in=0.0, seed=0)
    spec = SimulationSpec(system=single_m2(), dt=1e-3, total_time=1.0, burn_in=0.9994, seed=0)
    assert (spec.steps, spec.burn_steps) == (1000, 999)


def test_unstable_system_refused_before_integration():
    system = GroundedSystem.create(K2, [0], gain_vector(1, 1, 1, 1))
    spec = SimulationSpec(system=system, dt=1e-3, total_time=1.0, burn_in=0.0, seed=0)
    with pytest.raises(UnstableSystemError):
        simulate_coherence(spec)


def test_oversized_step_refused():
    spec = SimulationSpec(system=single_m2(), dt=0.2, total_time=10.0, burn_in=0.0, seed=0)
    with pytest.raises(LeaderSelError, match=r"dt \* \|\|A\|\|_2 = 0\.324 >= 0\.1; shrink dt"):
        simulate_coherence(spec)


def test_estimate_close_to_closed_form_short_run():
    # short sanity run; the acceptance suite runs the full-length version
    spec = SimulationSpec(system=single_m2(), dt=1e-3, total_time=300.0, burn_in=20.0,
                          seed=4, ensemble=2)
    estimate, stderr, recorded = simulate_coherence(spec)
    assert recorded is None
    assert estimate == pytest.approx(0.5, rel=0.15)
    assert stderr >= 0.0


def test_estimates_deterministic_for_fixed_seed():
    spec = SimulationSpec(system=k2_m2(), dt=1e-2, total_time=50.0, burn_in=5.0,
                          seed=9, ensemble=2)
    assert simulate_coherence(spec) == simulate_coherence(spec)


def test_disjoint_seeds_mutually_consistent():
    """16 runs per estimate: a 4-run standard error has 3 degrees of
    freedom, which makes |e1 - e2| / hypot(s1, s2) heavy-tailed."""
    def run(seed):
        return simulate_coherence(
            SimulationSpec(system=k2_m2(), dt=1e-3, total_time=400.0, burn_in=20.0,
                           seed=seed, ensemble=16)
        )

    e1, s1, _ = run(101)
    e2, s2, _ = run(202)
    assert abs(e1 - e2) <= 3.0 * np.hypot(s1, s2)


def test_step_refinement_reduces_bias():
    """On a fast-mixing single-node system Euler's O(dt) bias dominates the
    noise: at dt = 1e-2 the estimate sits about 4.2% above the closed form,
    at dt = 1e-3 about 0.4%, and 16 runs of 600 s put each estimate's
    standard error near 0.5%, so the coarse error exceeds the fine one by
    about 5 combined standard errors."""
    fast = GroundedSystem.create(build_graph(1, [], kappa=[8.0]), [0], gain_vector(1.0))
    target = 1.0 / 16.0  # tr(Q^-1) / (2 a1) with Q = [8]
    fine, fine_se, _ = simulate_coherence(
        SimulationSpec(system=fast, dt=1e-3, total_time=600.0, burn_in=20.0,
                       seed=10, ensemble=16)
    )
    coarse, coarse_se, _ = simulate_coherence(
        SimulationSpec(system=fast, dt=1e-2, total_time=600.0, burn_in=20.0,
                       seed=10, ensemble=16)
    )
    gap = abs(coarse - target) - abs(fine - target)
    assert gap > 3.0 * np.hypot(fine_se, coarse_se), (fine, fine_se, coarse, coarse_se)


@pytest.mark.parametrize("order, gains", [
    (2, (0.125, 0.5)), (3, (0.25, 1.0, 1.0)), (4, (0.125, 0.25, 1.0, 0.5))])
def test_estimate_within_six_standard_errors_of_closed_form(six_node, order, gains):
    """Orders 2-4 on the six-node graph, leaders 2, 4 and 6, with gains in
    units of 1/lambda_min(Q_S) and dt * ||A||_2 = 0.09: 16 runs of 30 000
    steps.  With 15 degrees of freedom a correct integrator lands more than
    6 standard errors out with probability ~2e-5."""
    lam_min = GroundedSystem.create(six_node.graph, [1, 3, 5],
                                    gain_vector(1.0)).lambda_min
    system = GroundedSystem.create(six_node.graph, [1, 3, 5],
                                   gain_vector(*(g / lam_min for g in gains)))
    dt = 0.09 / float(np.linalg.norm(state_matrix(system), 2))
    spec = SimulationSpec(system=system, dt=dt, total_time=30000 * dt,
                          burn_in=7500 * dt, seed=order, ensemble=16)
    assert spec.steps == 30000
    estimate, stderr, _ = simulate_coherence(spec)
    target = coherence_closed(system).value
    assert stderr > 0
    assert abs(estimate - target) <= 6.0 * stderr, (estimate, stderr, target)


def test_noise_stream_is_one_sfc64_stream_per_seed():
    """The contract: xi = 1 - 2 * bit over the raw words of SFC64 seeded with
    SeedSequence([seed]), bit 0 of each word first; the last word's unread
    bits are dropped."""
    for seed in (0, 7, 8, 2**31 - 2, 2**63):
        words = np.random.SFC64(np.random.SeedSequence([seed])).random_raw(5)
        expected = [1.0 - 2.0 * ((int(word) >> bit) & 1) for word in words for bit in range(64)]
        gen = noise_stream(seed)
        assert noise_signs(gen, np.empty(250)).tolist() == expected[:250]
        assert noise_signs(gen, np.empty(64)).tolist() == expected[256:]
        assert noise_signs(noise_stream(seed), np.empty((4, 8, 8))).ravel().tolist() == \
            expected[:256]
    assert noise_signs(noise_stream(7), np.empty(64)).tobytes() != \
        noise_signs(noise_stream(8), np.empty(64)).tobytes()
    xi = noise_signs(noise_stream(3), np.empty(10**6))
    assert np.all(np.abs(xi) == 1.0)
    # within 5 sigma of a zero-mean, unit-variance Gaussian's sample moments
    assert abs(xi.mean()) <= 5.0 / np.sqrt(xi.size)
    assert abs(xi.var() - 1.0) <= 5.0 * np.sqrt(2.0 / xi.size)


# -- trajectories ---------------------------------------------------------------

def test_trajectory_csv_deterministic_and_formatted(tmp_path):
    spec = SimulationSpec(system=k2_m2(), dt=1e-2, total_time=2.0, burn_in=0.0, seed=5)
    _, _, (times, outputs) = simulate_coherence(spec, record_stride=20)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(p1, times, outputs)
    _, _, (times2, outputs2) = simulate_coherence(spec, record_stride=20)
    write_trajectory_csv(p2, times2, outputs2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "t,y_0,y_1"
    assert len(lines) == 1 + 1 + int(round(2.0 / 1e-2)) // 20  # header + t0 + records


def test_simulate_trajectory_writes_the_recorded_pass(tmp_path):
    spec = SimulationSpec(system=k2_m2(), dt=1e-2, total_time=2.0, burn_in=0.5, seed=5,
                          ensemble=2)
    estimate, stderr, (times, outputs) = simulate_coherence(spec, record_stride=20)
    expected, written = tmp_path / "expected.csv", tmp_path / "sub" / "written.csv"
    write_trajectory_csv(expected, times, outputs)
    assert simulate_trajectory(spec, written, record_stride=20) == (estimate, stderr)
    assert written.read_bytes() == expected.read_bytes()


def test_recording_leaves_estimate_unchanged_and_follows_run_zero():
    spec = SimulationSpec(system=k2_m2(), dt=1e-2, total_time=20.0, burn_in=2.0,
                          seed=8, ensemble=3)
    estimate, stderr, (times, outputs) = simulate_coherence(spec, record_stride=7)
    assert (estimate, stderr, None) == simulate_coherence(spec)
    # run 0 replayed one state vector at a time on column 0 of the stream's
    # (node, run) signs per step
    a = state_matrix(spec.system)
    m_step = np.eye(len(a)) + spec.dt * a
    signs = noise_signs(noise_stream(spec.seed), np.empty((spec.steps, 2, spec.ensemble)))
    x = np.zeros(len(a))
    expected = [x[:2].copy()]
    for k in range(1, spec.steps + 1):
        x = m_step @ x
        x[2:] += np.sqrt(spec.dt) * signs[k - 1, :, 0]
        if k % 7 == 0:
            expected.append(x[:2].copy())
    assert len(times) == len(expected) == 1 + spec.steps // 7
    np.testing.assert_allclose(times, 7 * spec.dt * np.arange(len(times)), rtol=1e-15)
    np.testing.assert_allclose(outputs, expected, rtol=1e-13, atol=1e-13)


def test_record_stride_must_be_positive(tmp_path):
    spec = SimulationSpec(system=k2_m2(), dt=1e-2, total_time=1.0, burn_in=0.0, seed=0)
    with pytest.raises(ValueError, match="record_stride"):
        simulate_coherence(spec, record_stride=0)
    with pytest.raises(ValueError, match="record_stride"):
        simulate_trajectory(spec, tmp_path / "sub" / "t.csv", record_stride=0)
    assert not (tmp_path / "sub").exists()


# -- lifted kernel and noise blocks ---------------------------------------------

PATH3 = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_lifted_kernel_equals_euler_oracle(monkeypatch, order):
    """611 steps end in a partial lift chunk, after two noise blocks of 256
    steps; the burn-in ends inside a chunk and the stride does not divide
    the lift.  Every chunk after the first starts from a nonzero state, so
    the drift part of the lift is checked along with the noise part."""
    monkeypatch.setattr(simulate, "_BLOCK_DRAWS", 256 * 3)
    system = GroundedSystem.create(PATH3, [0], auto_gains(singleton_phase(PATH3), order))
    dt = 0.05 / float(np.linalg.norm(state_matrix(system), 2))
    spec = SimulationSpec(system=system, dt=dt, total_time=611 * dt, burn_in=45 * dt,
                          seed=21, ensemble=3)
    assert spec.steps == 611 and spec.steps % simulate._LIFT
    assert spec.burn_steps % simulate._LIFT and simulate._LIFT % 5
    assert spec.steps > 2 * simulate._block_steps(3) == 512
    estimate, stderr, (times, outputs) = simulate_coherence(spec, 5)
    o_estimate, o_stderr, (o_times, o_outputs) = euler_oracle(spec, 5)
    assert estimate == pytest.approx(o_estimate, rel=1e-13, abs=0.0)
    assert stderr == pytest.approx(o_stderr, rel=1e-13, abs=0.0)
    assert np.array_equal(times, o_times)
    # entries near a zero crossing are held to the trajectory's own scale
    np.testing.assert_allclose(outputs, o_outputs, rtol=1e-13,
                               atol=1e-13 * np.abs(o_outputs).max())


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_noise_product_reads_only_the_noise_each_row_block_reaches(order):
    """y_{t+j} reads xi_t .. xi_{t+j-m} and state block b of x_{t+_LIFT}
    reads xi_t .. xi_{t+min(_LIFT-1, _LIFT-m+b)}: K_w is exactly 0.0 past
    each reach, and the last block within it is not all zero.  Row blocks
    of equal reach share one group, and on one block of noise the
    staircase product equals the dense K_w @ noise bit for bit, as the
    columns it skips only add exact zeros (a BLAS that splits its sums
    differently by depth could break this and nothing else)."""
    lift, n, runs = simulate._LIFT, 3, 16
    system = GroundedSystem.create(PATH3, [0], auto_gains(singleton_phase(PATH3), order))
    a = state_matrix(system)
    dt = 0.05 / float(np.linalg.norm(a, 2))
    kx, kw, stairs = simulate._lifted_operator(np.eye(len(a)) + dt * a, n, np.sqrt(dt))
    reach = [max(0, j - order + 1) for j in range(1, lift + 1)]
    reach += [min(lift - 1, lift - order + b) + 1 for b in range(order)]
    assert len(reach) * n == kw.shape[0] == kx.shape[0] and kw.shape[1] == lift * n

    grouped, stop = [], 0
    for rows, k in stairs:
        assert rows.start == stop and rows.stop > rows.start and rows.stop % n == 0
        assert k.shape[1] % n == 0 and np.array_equal(k, kw[rows, :k.shape[1]])
        grouped += [k.shape[1] // n] * ((rows.stop - rows.start) // n)
        stop = rows.stop
    assert grouped == reach
    assert len(stairs) == len(set(reach))
    for i, r in enumerate(reach):
        rows = kw[i * n:(i + 1) * n]
        assert np.all(rows[:, r * n:] == 0.0), (i, r)
        assert r == 0 or np.any(rows[:, (r - 1) * n:r * n] != 0.0), (i, r)

    chunks = simulate._block_steps(n) // lift
    noise = np.random.default_rng(order).standard_normal((chunks, lift * n, runs))
    out = np.full((chunks, kw.shape[0], runs), np.nan)
    simulate._noise_product(stairs, noise, out)
    assert out.tobytes() == (kw @ noise).tobytes()


def test_noise_block_size_leaves_every_output_bit_equal(monkeypatch):
    """Blocks of 64, 192 and 512 steps and the default for n = 2 (2048
    steps) draw the same signs into the same steps: at ensemble 3 a 64-step
    group takes 6 whole words, and the 2600-step horizon ends inside a word."""
    spec = SimulationSpec(system=k2_m2(), dt=1e-2, total_time=26.0, burn_in=3.0,
                          seed=12, ensemble=3)
    assert spec.steps == 2600 and spec.steps % 64
    results = []
    for draws, block in ((16, 64), (320, 192), (1024, 512), (simulate._BLOCK_DRAWS, 2048)):
        monkeypatch.setattr(simulate, "_BLOCK_DRAWS", draws)
        assert simulate._block_steps(2) == block
        estimate, stderr, (times, outputs) = simulate_coherence(spec, record_stride=9)
        results.append((estimate, stderr, times.tobytes(), outputs.tobytes()))
    assert results[0] == results[1] == results[2] == results[3]


def test_simulation_memory_is_bounded_in_steps():
    """30 000 steps x 16 runs on a 15-node order-4 system peak below 32 MB
    of traced allocations (a noise array for the whole chunk takes 58 MB)."""
    g, _ = erdos_renyi_connected(15, 0.5, 3)
    gains = auto_gains(singleton_phase(g), 4)
    system = GroundedSystem.create(g, [0, 5, 9], gains)
    dt = 0.05 / float(np.linalg.norm(state_matrix(system), 2))
    spec = SimulationSpec(system=system, dt=dt, total_time=30000 * dt, burn_in=7500 * dt,
                          seed=1, ensemble=16)
    assert spec.steps == 30000
    tracemalloc.start()
    try:
        estimate, _, _ = simulate_coherence(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(estimate) and estimate > 0
    assert peak < 32 * 2**20, peak


# -- concurrent callers --------------------------------------------------------


def test_concurrent_callers_under_fast_thread_switching_keep_every_bit(monkeypatch):
    """Four callers at once (more threads than cores), 64-step blocks and a
    10 us switch interval: every result equals the one computed alone."""
    monkeypatch.setattr(simulate, "_BLOCK_DRAWS", 16)
    assert simulate._block_steps(2) == 64
    spec = SimulationSpec(system=k2_m2(), dt=1e-2, total_time=70.0, burn_in=3.0,
                          seed=5, ensemble=2)
    alone = simulate_coherence(spec, record_stride=7)
    results = [None] * 4

    def call(i):
        results[i] = simulate_coherence(spec, record_stride=7)

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
    for estimate, stderr, (times, outputs) in results:
        assert (estimate, stderr) == alone[:2]
        assert times.tobytes() == alone[2][0].tobytes()
        assert outputs.tobytes() == alone[2][1].tobytes()
