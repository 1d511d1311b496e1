import sys
import threading
import tracemalloc

import numpy as np
import pytest

import leadersel.simulate as simulate

from leadersel.errors import LeaderSelError, UnstableSystemError
from leadersel.graphs import KappaWeights, build_graph, erdos_renyi_connected, unit_kappa
from leadersel.simulate import (
    SimulationSpec,
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
    return GroundedSystem.create(SINGLE, unit_kappa(1), [0], gain_vector(1, 1))


def k2_m2():
    return GroundedSystem.create(K2, unit_kappa(2), [0], gain_vector(1, 1))


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
    system = GroundedSystem.create(K2, unit_kappa(2), [0], gain_vector(1, 1, 1, 1))
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
    def run(seed):
        return simulate_coherence(
            SimulationSpec(system=k2_m2(), dt=1e-3, total_time=400.0, burn_in=20.0,
                           seed=seed, ensemble=4)
        )

    e1, s1, _ = run(101)
    e2, s2, _ = run(202)
    assert abs(e1 - e2) <= 3.0 * np.hypot(s1, s2)


def test_step_refinement_reduces_bias():
    """On a fast-mixing single-node system the dt bias dominates the noise:
    the fine-step estimate lands closer to the closed form in >= 90% of
    seeded trials."""
    fast = GroundedSystem.create(SINGLE, KappaWeights((8.0,)), [0], gain_vector(1.0))
    target = 1.0 / 16.0  # tr(Q^-1) / (2 a1) with Q = [8]
    wins = 0
    for seed in range(10, 20):
        fine, _, _ = simulate_coherence(
            SimulationSpec(system=fast, dt=1e-3, total_time=600.0, burn_in=20.0,
                           seed=seed, ensemble=1)
        )
        coarse, _, _ = simulate_coherence(
            SimulationSpec(system=fast, dt=1e-2, total_time=600.0, burn_in=20.0,
                           seed=seed, ensemble=1)
        )
        wins += abs(fine - target) < abs(coarse - target)
    assert wins >= 9


def test_noise_streams_are_per_run():
    a = noise_stream(7, 0).standard_normal(4)
    b = noise_stream(7, 1).standard_normal(4)
    c = noise_stream(7, 0).standard_normal(4)
    np.testing.assert_allclose(a, c)
    assert not np.allclose(a, b)


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
    # run 0 replayed one state vector at a time on its own noise stream
    a = state_matrix(spec.system)
    m_step = np.eye(len(a)) + spec.dt * a
    gen = noise_stream(spec.seed, 0)
    x = np.zeros(len(a))
    expected = [x[:2].copy()]
    for k in range(1, spec.steps + 1):
        x = m_step @ x
        x[2:] += np.sqrt(spec.dt) * gen.standard_normal(2)
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
    system = GroundedSystem.create(PATH3, unit_kappa(3), [0],
                                   auto_gains(singleton_phase(PATH3, unit_kappa(3)), order))
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


@pytest.mark.parametrize("chunk", [simulate._CHUNK, 1000])
def test_noise_block_size_leaves_every_output_bit_equal(monkeypatch, chunk):
    """Blocks of 8, 56 and 256 steps and the default for n = 2 (2048 steps,
    all multiples of the lift) draw the same numbers into the same steps,
    also when accumulation window boundaries fall inside a block."""
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    spec = SimulationSpec(system=k2_m2(), dt=1e-2, total_time=26.0, burn_in=3.0,
                          seed=12, ensemble=3)
    assert spec.steps > 2 * 256
    results = []
    for draws, block in ((16, 8), (112, 56), (512, 256), (simulate._BLOCK_DRAWS, 2048)):
        monkeypatch.setattr(simulate, "_BLOCK_DRAWS", draws)
        assert simulate._block_steps(2) == block
        estimate, stderr, (times, outputs) = simulate_coherence(spec, record_stride=9)
        results.append((estimate, stderr, times.tobytes(), outputs.tobytes()))
    assert results[0] == results[1] == results[2] == results[3]


def test_simulation_memory_is_bounded_in_steps():
    """30 000 steps x 16 runs on a 15-node order-4 system peak below 32 MB
    of traced allocations (a noise array for the whole chunk takes 58 MB)."""
    g, _ = erdos_renyi_connected(15, 0.5, 3)
    gains = auto_gains(singleton_phase(g, unit_kappa(15)), 4)
    system = GroundedSystem.create(g, unit_kappa(15), [0, 5, 9], gains)
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


# -- noise worker ------------------------------------------------------------


def lifecycle_spec():
    """Four noise blocks: 7000 steps of 2048 at n = 2."""
    return SimulationSpec(system=k2_m2(), dt=1e-2, total_time=70.0, burn_in=3.0,
                          seed=5, ensemble=2)


def test_noise_worker_is_joined_on_return():
    before = threading.active_count()
    estimate, _, _ = simulate_coherence(lifecycle_spec())
    assert np.isfinite(estimate)
    assert threading.active_count() == before


class FailingStream:
    """Draws zeros, and raises on the third block it is asked for."""

    def __init__(self, error):
        self.error, self.calls = error, 0

    def standard_normal(self, size=None, out=None):
        self.calls += 1
        if self.calls == 3:
            raise self.error
        out[...] = 0.0
        return out


def test_producer_error_reaches_the_caller_and_the_worker_is_joined(monkeypatch):
    error = RuntimeError("noise source failed")
    streams = []

    def failing_stream(seed, run):
        streams.append(FailingStream(error))
        return streams[-1]

    monkeypatch.setattr(simulate, "noise_stream", failing_stream)
    spec = lifecycle_spec()
    assert spec.steps > 3 * simulate._block_steps(2)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        simulate_coherence(spec)
    assert info.value is error
    assert threading.active_count() == before
    assert [stream.calls for stream in streams] == [3, 2]


def test_caller_error_stops_the_worker_waiting_for_a_buffer(monkeypatch):
    """The first block's window sum fails while the worker waits to draw
    the third block; leaving the integration stops and joins it."""
    error = RuntimeError("integration failed")

    def failing_cumsum(*args, **kwargs):
        raise error

    spec = lifecycle_spec()
    before = threading.active_count()
    monkeypatch.setattr(np, "cumsum", failing_cumsum)
    with pytest.raises(RuntimeError) as info:
        simulate_coherence(spec)
    assert info.value is error
    assert threading.active_count() == before


def test_streams_are_made_on_the_calling_thread_and_drawn_on_one_other(monkeypatch):
    """Each stream is made by the caller and drawn only by one worker, so no
    stream is ever drawn from two threads and no span nests across them."""
    made, drawn = [], []

    class RecordingStream:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kwargs):
            drawn.append(threading.get_ident())
            return self.gen.standard_normal(*args, **kwargs)

    def recording_stream(seed, run):
        made.append(threading.get_ident())
        return RecordingStream(noise_stream(seed, run))

    monkeypatch.setattr(simulate, "noise_stream", recording_stream)
    spec = lifecycle_spec()
    simulate_coherence(spec)
    caller = threading.get_ident()
    assert made == [caller] * spec.ensemble
    assert len(drawn) == spec.ensemble * -(-spec.steps // simulate._block_steps(2))
    assert len(set(drawn)) == 1 and caller not in drawn


def test_concurrent_callers_under_fast_thread_switching_keep_every_bit(monkeypatch):
    """Four callers at once, each with its own worker (more threads than
    cores), 8-step blocks and a 10 us switch interval: every result equals
    the one computed alone."""
    monkeypatch.setattr(simulate, "_BLOCK_DRAWS", 16)
    spec = lifecycle_spec()
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
