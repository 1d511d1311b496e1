"""Stochastic time-domain validation of the coherence formulas.

Euler-Maruyama on x' = A x + B xi with unit-intensity white noise xi
entering the highest-order block: per step,

    x <- x + dt * A x + sqrt(dt) * B xi,   xi ~ N(0, I_n).

The coherence estimate is the time-and-ensemble average of the squared
first-order states after a burn-in window.  Noise streams come from
PCG64 seeded with SeedSequence([seed, run_index]), so every run is
reproducible independently of chunking or ensemble size.  Each run's
noise is drawn in blocks of ``_NOISE_BLOCK`` steps, generator by
generator, which consumes every stream in the same order as one draw
per chunk would, so memory stays bounded and results do not depend on
the block size.  Accumulation is chunkwise pairwise summation over
``_CHUNK`` steps, deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import StepTooLargeError, UnstableSystemError
from .linalg import TOLERANCES
from .stability import build_state_matrices, check_stability
from .system import GroundedSystem

_CHUNK = 65536
_NOISE_BLOCK = 1024


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


def simulate_coherence(
    spec: SimulationSpec,
    record_stride: int | None = None,
    x0: np.ndarray | None = None,
    noise: bool = True,
) -> tuple[float, float, tuple[np.ndarray, np.ndarray] | None]:
    """Estimate coherence empirically; returns (estimate, standard error, recorded).

    The standard error is the sample deviation across ensemble runs over
    sqrt(ensemble); it is 0.0 for a single run.  Every run starts from
    ``x0`` (default zero); ``noise=False`` gives the deterministic
    drift-only flow (useful for decay checks).  ``recorded`` is None
    unless ``record_stride`` is given; then the same pass records run 0
    as (times, outputs), outputs[j] being the n first-order states at
    times[j], every ``record_stride`` steps after the always-recorded
    initial state.
    """
    if record_stride is not None and record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    if not check_stability(spec.system).stable:
        raise UnstableSystemError("refusing to integrate an unstable system")
    a = build_state_matrices(spec.system).a
    growth = spec.dt * float(np.linalg.norm(a, 2))
    if growth >= TOLERANCES.step_norm_guard:
        raise StepTooLargeError(
            f"dt * ||A||_2 = {growth:.3g} >= {TOLERANCES.step_norm_guard}; shrink dt"
        )
    n = spec.system.n
    nm = a.shape[0]
    lo = nm - n
    runs = spec.ensemble
    m_step = np.eye(nm) + spec.dt * a
    sqdt = np.sqrt(spec.dt)
    gens = [noise_stream(spec.seed, r) for r in range(runs)]

    start = np.zeros(nm) if x0 is None else np.asarray(x0, dtype=float)
    if start.shape != (nm,):
        raise ValueError(f"x0 must have shape ({nm},)")
    x = np.repeat(start[:, None], runs, axis=1)
    scratch = np.empty_like(x)
    times = [0.0]
    outputs = [x[:n, 0].copy()]
    accum = np.zeros(runs)
    buf = np.empty((_CHUNK, runs))
    counted = 0
    step = 0
    steps, burn_steps = spec.steps, spec.burn_steps
    draws = np.empty((_NOISE_BLOCK, n, runs))
    while step < steps:
        chunk = min(_CHUNK, steps - step)
        fill = 0
        for t in range(chunk):
            if noise and t % _NOISE_BLOCK == 0:
                block = min(_NOISE_BLOCK, chunk - t)
                for r, g in enumerate(gens):
                    draws[:block, :, r] = g.standard_normal((block, n))
            np.matmul(m_step, x, out=scratch)
            x, scratch = scratch, x
            if noise:
                x[lo:, :] += sqdt * draws[t % _NOISE_BLOCK]
            step += 1
            if step > burn_steps:
                y = x[:n, :]
                buf[fill] = np.einsum("ij,ij->j", y, y)
                fill += 1
            if record_stride and step % record_stride == 0:
                times.append(step * spec.dt)
                outputs.append(x[:n, 0].copy())
        if fill:
            accum += buf[:fill].sum(axis=0)
            counted += fill
    estimates = accum / counted
    estimate = float(estimates.mean())
    if runs > 1:
        stderr = float(estimates.std(ddof=1) / np.sqrt(runs))
    else:
        stderr = 0.0
    if record_stride is None:
        return estimate, stderr, None
    return estimate, stderr, (np.asarray(times), np.asarray(outputs))


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
