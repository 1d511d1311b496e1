"""Stochastic time-domain validation of the coherence formulas.

Euler-Maruyama on x' = A x + B xi with unit-intensity white noise xi
entering the highest-order block: per step,

    x <- M x + sqrt(dt) * B xi,   M = I + dt * A,   xi ~ N(0, I_n).

Every run starts at rest, x = 0.  The coherence estimate is the
time-and-ensemble average of the squared first-order states y (the
first n rows of x) after a burn-in window that leaves the start behind.

The kernel is lifted: ``_LIFT`` Euler steps are one linear map
[K_x | K_w] that takes x_t and the noise xi_t .. xi_{t+_LIFT-1} to the
outputs y_{t+1} .. y_{t+_LIFT} and the state x_{t+_LIFT}, built once
from the powers of M.  Noise comes in blocks; one batched product
applies K_w to every lifted chunk of a block, then each chunk costs one
K_x product and one add.  A horizon that is not a multiple of ``_LIFT``
ends in a chunk with zero noise past the last step, whose extra rows
are dropped.

Noise streams come from PCG64 seeded with SeedSequence([seed, run_index]).
The one worker of a ThreadPoolExecutor draws noise up to two blocks
ahead of the calling thread, into two alternating buffers: block b + 2
is queued into block b's buffer when the caller asks for block b + 1,
and a block that fails to draw raises in the caller, with no later
block drawn.  Each run's generator fills a contiguous (block, n) slice,
and one transposing copy gives the (block, n, runs) layout the K_w
product reads.  A block is the fewest
whole lift chunks whose draws per generator call reach ``_BLOCK_DRAWS``
(688 / 416 / 280 steps at n = 6 / 10 / 15): shorter calls spend their
time handing the GIL between the threads, and the buffers stay about
``_BLOCK_DRAWS`` x runs doubles whatever n is.  Generators are made on
the calling thread, and only the worker touches them afterwards, so
every run consumes its own stream in step order whatever the block
size, the thread timing or the number of cores.  Per-step squared
norms are added in step order into one running sum per window of
``_CHUNK`` steps, and the window sums are added in turn (a two-level
sum, so rounding grows with the window length, not the horizon).
Neither the noise block nor the lift moves a window boundary or the
order of additions, so a fixed seed gives the same bits on every rerun
and for every block size, in memory that does not grow with the horizon.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LeaderSelError, UnstableSystemError
from .linalg import TOLERANCES
from .stability import check_stability, companion_state_matrix
from .system import GroundedSystem

_CHUNK = 65536
_LIFT = 8
_BLOCK_DRAWS = 4096


@dataclass(frozen=True)
class SimulationSpec:
    system: GroundedSystem
    dt: float
    total_time: float
    burn_in: float
    seed: int
    ensemble: int = 1

    def __post_init__(self) -> None:
        for name in ("dt", "total_time", "burn_in"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 <= self.burn_in < self.total_time:
            raise ValueError("need 0 <= burn_in < total_time")
        if not self.total_time / self.dt < sys.maxsize:  # inf, or too long for range()
            raise ValueError(
                f"total_time / dt = {self.total_time} / {self.dt} overflows the step count")
        if self.ensemble < 1:
            raise ValueError("ensemble must be >= 1")
        if self.burn_steps >= self.steps:
            raise ValueError(
                f"burn-in of {self.burn_steps} steps leaves none of {self.steps} to average"
            )

    @property
    def steps(self) -> int:
        return int(round(self.total_time / self.dt))

    @property
    def burn_steps(self) -> int:
        return int(round(self.burn_in / self.dt))


def noise_stream(seed: int, run: int) -> np.random.Generator:
    """Independent, reproducible noise stream for one ensemble run."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, run])))


def _lifted_operator(m_step: np.ndarray, n: int, sqdt: float) -> tuple[np.ndarray, np.ndarray]:
    """(K_x, K_w) of ``_LIFT`` Euler steps with noise gain ``sqdt`` on the last n rows.

    Row blocks are y_{t+1} .. y_{t+_LIFT} (n rows each), then x_{t+_LIFT};
    K_w's column block i takes xi_{t+i}.
    """
    nm = m_step.shape[0]
    lo = nm - n
    # state after j steps as a map of [x_t; xi_t; ...; xi_{t+_LIFT-1}]
    state = np.zeros((nm, nm + _LIFT * n))
    state[:, :nm] = np.eye(nm)
    blocks = []
    for j in range(_LIFT):
        state = m_step @ state
        state[lo:, nm + j * n:nm + (j + 1) * n] += sqdt * np.eye(n)
        blocks.append(state[:n])
    blocks.append(state)
    lifted = np.vstack(blocks)
    return np.ascontiguousarray(lifted[:, :nm]), np.ascontiguousarray(lifted[:, nm:])


def _block_steps(n: int) -> int:
    """Steps per noise block: the fewest whole lift chunks of >= ``_BLOCK_DRAWS`` normals."""
    return _LIFT * -(-_BLOCK_DRAWS // (_LIFT * n))


def _noise_blocks(pool, gens: list, n: int, block: int, steps: int):
    """Yield each block's draws (block, n, runs), zero past the horizon,
    drawn up to two blocks ahead on ``pool``'s one worker."""
    starts = range(0, steps, block)
    draws = np.empty((2, block, n, len(gens)))
    run_major = np.empty((len(gens), block, n))

    def fill(b: int, before) -> None:
        if before is not None:
            before.result()  # done, as one worker runs blocks in order: stop if it failed
        size = min(block, steps - starts[b])
        for r, g in enumerate(gens):
            g.standard_normal(out=run_major[r, :size])
        out = draws[b % 2]
        out[:size] = run_major[:, :size].transpose(1, 2, 0)
        out[size:] = 0.0

    ahead = pool.submit(fill, 0, None)
    for b in range(len(starts)):
        current = ahead
        if b + 1 < len(starts):
            ahead = pool.submit(fill, b + 1, current)  # into block b - 1's buffer
        current.result()
        yield draws[b % 2]


def simulate_coherence(
    spec: SimulationSpec, record_stride: int | None = None
) -> tuple[float, float, tuple[np.ndarray, np.ndarray] | None]:
    """Estimate coherence empirically; returns (estimate, standard error, recorded).

    Every run starts at rest, x = 0, and is driven by its own noise
    stream.  The standard error is the sample deviation across ensemble
    runs over sqrt(ensemble); it is 0.0 for a single run.  ``recorded``
    is None unless ``record_stride`` is given; then the same pass records
    run 0 as (times, outputs), outputs[j] being the n first-order states
    at times[j], every ``record_stride`` steps after the initial zero state.
    """
    if record_stride is not None and record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    if not check_stability(spec.system).stable:
        raise UnstableSystemError("refusing to integrate an unstable system")
    a = companion_state_matrix(spec.system.matrix, spec.system.gains.values)
    growth = spec.dt * float(np.linalg.norm(a, 2))
    if growth >= TOLERANCES.step_norm_guard:
        raise LeaderSelError(
            f"dt * ||A||_2 = {growth:.3g} >= {TOLERANCES.step_norm_guard}; shrink dt"
        )
    n = spec.system.n
    nm = a.shape[0]
    runs = spec.ensemble
    kx, kw = _lifted_operator(np.eye(nm) + spec.dt * a, n, np.sqrt(spec.dt))
    steps, burn_steps = spec.steps, spec.burn_steps

    x = np.zeros((nm, runs))
    times = [np.zeros(1)]
    outputs = [np.zeros((1, n))]
    accum = np.zeros(runs)
    window = np.zeros(runs)
    block = _block_steps(n)
    lifted = np.empty((block // _LIFT, kw.shape[0], runs))
    ys = lifted[:, :_LIFT * n].reshape(-1, _LIFT, n, runs)
    # sq[1 + t] is |y|^2 after step t of the block; sq[t] takes the running
    # window sum before that row is added
    sq = np.empty((block + 1, runs))
    # concurrent.futures imports logging: importing it here keeps it out of CLI start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        gens = [noise_stream(spec.seed, r) for r in range(runs)]
        blocks = _noise_blocks(pool, gens, n, block, steps)
        # draws[t] is xi for step t of the block
        for step, draws in zip(range(0, steps, block), blocks):
            size = min(block, steps - step)
            chunks = -(-size // _LIFT)
            np.matmul(kw, draws[:chunks * _LIFT].reshape(chunks, _LIFT * n, runs),
                      out=lifted[:chunks])
            for out in lifted[:chunks]:
                out += kx @ x
                x = out[_LIFT * n:]
            x = x.copy()  # the next block's product overwrites ``lifted``

            y = ys[:chunks]
            np.einsum("cjir,cjir->cjr", y, y,
                      out=sq[1:1 + chunks * _LIFT].reshape(chunks, _LIFT, runs))
            # rows past the burn-in, summed in step order within each window
            i = max(0, burn_steps - step)
            while i < size:
                end = min(size, i + _CHUNK - (step + i) % _CHUNK)
                sq[i] = window
                window = np.cumsum(sq[i:end + 1], axis=0)[-1]
                i = end
                if (step + end) % _CHUNK == 0 or step + end == steps:
                    accum += window
                    window = np.zeros(runs)
            if record_stride:
                hits = np.arange(step - step % record_stride + record_stride,
                                 step + size + 1, record_stride)
                rows = hits - step - 1
                times.append(hits * spec.dt)
                outputs.append(y[rows // _LIFT, rows % _LIFT, :, 0])
    estimates = accum / (steps - burn_steps)
    estimate = float(estimates.mean())
    if runs > 1:
        stderr = float(estimates.std(ddof=1) / np.sqrt(runs))
    else:
        stderr = 0.0
    if record_stride is None:
        return estimate, stderr, None
    return estimate, stderr, (np.concatenate(times), np.concatenate(outputs))


def simulate_trajectory(
    spec: SimulationSpec, path: str | Path, record_stride: int = 1
) -> tuple[float, float]:
    """Estimate coherence and write run 0's trajectory to ``path`` in one pass.

    Returns (estimate, standard error) as ``simulate_coherence`` does;
    the CSV holds the states it records every ``record_stride`` steps.
    Parent directories are created once the integration has succeeded.
    """
    estimate, stderr, (times, outputs) = simulate_coherence(spec, record_stride)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(path, times, outputs)
    return estimate, stderr


def write_trajectory_csv(path: str | Path, times: np.ndarray, outputs: np.ndarray) -> None:
    """Fixed 17-significant-digit CSV: header t,y_0,...,y_{n-1}."""
    n = outputs.shape[1]
    header = "t," + ",".join(f"y_{i}" for i in range(n))
    lines = [header]
    for t, row in zip(times, outputs):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
    Path(path).write_text("\n".join(lines) + "\n")
