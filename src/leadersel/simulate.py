"""Stochastic time-domain validation of the coherence formulas.

Weak Euler steps on x' = A x + B xi with unit-intensity white noise xi
entering the highest-order block: per step,

    x <- M x + sqrt(dt) * B xi,   M = I + dt * A,

with xi independent signs, +1 or -1 with equal odds (the simplified weak
Euler scheme, Kloeden & Platen 1992, section 14.1): the estimate is a
second moment, and P <- M P M^T + dt B B^T holds for any independent
zero-mean xi of identity covariance, so signs give normals' expected
estimate, Euler's O(dt) bias included, at about a tenth of the cost.

Every run starts at rest, x = 0.  The coherence estimate is the
time-and-ensemble average of the squared first-order states y (the
first n rows of x) after a burn-in window that leaves the start behind.

The kernel is lifted: ``_LIFT`` Euler steps are one linear map
[K_x | K_w] that takes x_t and the noise xi_t .. xi_{t+_LIFT-1} to the
outputs y_{t+1} .. y_{t+_LIFT} and the state x_{t+_LIFT}, built once
from the powers of M.  Noise comes in blocks; K_w is applied to every
lifted chunk of a block at once, each row group reading only the noise
that has reached it (``_lifted_operator``'s staircase), then each chunk
costs one K_x product and one add.  A horizon that is not a multiple of
``_LIFT`` ends in a chunk with zero noise past the last step, whose
extra rows are dropped.

Noise is one stream per simulation, SFC64 seeded with SeedSequence([seed]),
whose raw words are read bit by bit (``noise_signs``) in (step, node,
run) order, so run 0's trajectory depends on the ensemble size.  A block
is the fewest whole 64-step groups of at least ``_BLOCK_DRAWS`` signs per
run (704 / 448 / 320 steps at n = 6 / 10 / 15), drawn on the calling
thread into one buffer.  A group takes whole words for any n and
ensemble, so the stream lands in the same steps whatever the block size.
Squared outputs past the burn-in are added in step order into one
running sum per run (rounding at most steps x eps: 5.5e-11 relative at
500 000 steps), so a fixed seed gives the same bits on every rerun and
for every block size, in memory that does not grow with the horizon.
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def noise_stream(seed: int) -> np.random.Generator:
    """The one reproducible noise stream of a simulation."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed])))


def noise_signs(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` in C order with xi = 1 - 2 * bit over the next raw words of ``gen``.

    Each 64-bit word gives 64 signs, bit 0 first; a last word that ``out``
    does not fill leaves its high bits unread.
    """
    words = gen.bit_generator.random_raw(-(-out.size // 64)).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little", count=out.size)
    return np.subtract(1.0, 2.0 * bits.reshape(out.shape), out=out)


def _lifted_operator(
    m_step: np.ndarray, n: int, sqdt: float
) -> tuple[np.ndarray, np.ndarray, list[tuple[slice, np.ndarray]]]:
    """(K_x, K_w, staircase) of ``_LIFT`` Euler steps with noise gain ``sqdt`` on the last n rows.

    Row blocks are y_{t+1} .. y_{t+_LIFT} (n rows each), then x_{t+_LIFT};
    K_w's column block i takes xi_{t+i}.  Noise reaches y after m - 1 steps:
    y_{t+j} reads xi_t .. xi_{t+j-m} (none for j < m), and state block b of
    x_{t+_LIFT} reads as y_{t+_LIFT+b} would, up to xi_{t+_LIFT-1}.  K_w is
    0.0 past each reach, which never falls down the rows; the staircase
    holds (rows, K_w's columns they read) per run of row blocks of equal reach.
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
    kx, kw = np.ascontiguousarray(lifted[:, :nm]), np.ascontiguousarray(lifted[:, nm:])
    m = nm // n
    ends = [*range(1, _LIFT + 1), *range(_LIFT, _LIFT + m)]  # each row block read as y_{t+j}
    reach = [max(0, min(_LIFT, j - m + 1)) for j in ends]
    starts = [i for i, r in enumerate(reach) if i == 0 or r != reach[i - 1]]
    return kx, kw, [(slice(a * n, b * n), kw[a * n:b * n, :reach[a] * n])
                    for a, b in zip(starts, starts[1:] + [len(reach)])]


def _noise_product(stairs: list, noise: np.ndarray, out: np.ndarray) -> None:
    """out = K_w @ noise per lifted chunk, each row group reading only its reach."""
    for rows, k in stairs:
        np.matmul(k, noise[:, :k.shape[1]], out=out[:, rows])  # no columns: sets 0.0


def _block_steps(n: int) -> int:
    """Steps per noise block: the fewest 64-step groups of >= ``_BLOCK_DRAWS`` signs."""
    return 64 * -(-_BLOCK_DRAWS // (64 * n))


def simulate_coherence(
    spec: SimulationSpec, record_stride: int | None = None
) -> tuple[float, float, tuple[np.ndarray, np.ndarray] | None]:
    """Estimate coherence empirically; returns (estimate, standard error, recorded).

    Every run starts at rest, x = 0, and reads its own signs of the one
    noise stream.  The standard error is the sample deviation across
    ensemble runs over sqrt(ensemble); it is 0.0 for a single run.  ``recorded``
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
    n, nm = spec.system.n, a.shape[0]
    runs = spec.ensemble
    kx, _, stairs = _lifted_operator(np.eye(nm) + spec.dt * a, n, np.sqrt(spec.dt))
    steps, burn_steps = spec.steps, spec.burn_steps

    x = np.zeros((nm, runs))
    times = [np.zeros(1)]
    outputs = [np.zeros((1, n))]
    accum = np.zeros(runs)
    block = _block_steps(n)
    # draws[t] is xi for step t of the block, zero past the horizon
    draws = np.empty((block, n, runs))
    lifted = np.empty((block // _LIFT, kx.shape[0], runs))
    ys = lifted[:, :_LIFT * n].reshape(-1, _LIFT, n, runs)
    # sq[1 + t] is |y|^2 after step t of the block; sq[t] takes the running
    # sum before that row is added
    sq = np.empty((block + 1, runs))
    gen = noise_stream(spec.seed)
    for step in range(0, steps, block):
        size = min(block, steps - step)
        chunks = -(-size // _LIFT)
        noise_signs(gen, draws[:size])
        draws[size:chunks * _LIFT] = 0.0
        noise = draws[:chunks * _LIFT].reshape(chunks, _LIFT * n, runs)
        _noise_product(stairs, noise, lifted[:chunks])
        for out in lifted[:chunks]:
            out += kx @ x
            x = out[_LIFT * n:]
        x = x.copy()  # the next block's product overwrites ``lifted``

        y = ys[:chunks]
        np.einsum("cjir,cjir->cjr", y, y,
                  out=sq[1:1 + chunks * _LIFT].reshape(chunks, _LIFT, runs))
        i = max(0, burn_steps - step)
        if i < size:  # rows past the burn-in, added in step order
            sq[i] = accum
            accum = np.cumsum(sq[i:size + 1], axis=0)[-1]
        if record_stride:
            hits = np.arange(step - step % record_stride + record_stride,
                             step + size + 1, record_stride)
            rows = hits - step - 1
            times.append(hits * spec.dt)
            outputs.append(y[rows // _LIFT, rows % _LIFT, :, 0])
    estimates = accum / (steps - burn_steps)
    estimate = float(estimates.mean())
    stderr = float(estimates.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
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
    lines = ["t," + ",".join(f"y_{i}" for i in range(outputs.shape[1]))]
    lines += [",".join(f"{v:.17g}" for v in (t, *row)) for t, row in zip(times, outputs)]
    Path(path).write_text("\n".join(lines) + "\n")
