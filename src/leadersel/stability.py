"""Closed-loop stability of the order-m consensus system.

Two independent routes decide stability:

* Hurwitz route: the characteristic polynomial of each m x m companion
  block is s^m + a_m*lam*s^(m-1) + ... + a_1*lam, with lam an eigenvalue
  of the grounded matrix.  Its Hurwitz determinants reduce to explicit
  gain inequalities per order; each inequality is monotone increasing in
  lam, so evaluating at lambda_min decides the whole spectrum.
* Spectral oracle: eigenvalues of the full nm x nm state matrix.

Order-specific conditions (all gains strictly positive, plus):
  m = 3:  (a2*a3/a1) * lam > 1
  m = 4:  (a3*a4/a2) * lam > 1  and  ((a3*a4/a2) - (a1*a4^2/a2^2)) * lam > 1

Systems of order >= 4 with all gains equal are unstable for every graph.
Each slack is relative to its own inequality and the oracle reads only the
sign of max Re, so no verdict depends on the units of the gains or weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeaderSelError, UnstableSystemError
from .graphs import Graph
from .linalg import TOLERANCES, sym_eigenvalues
from .system import GainVector, GroundedSystem, SingletonPhase, grounded_matrix


@dataclass(frozen=True)
class StabilityCondition:
    name: str
    inequality: str
    slack: float
    satisfied: bool


@dataclass(frozen=True)
class StabilityReport:
    """Fields in the order of ``stability.schema.json``."""

    stable: bool
    marginal: bool
    lambda_min: float
    margin: float
    hurwitz_determinants: tuple[float, ...]
    conditions: tuple[StabilityCondition, ...]


def hurwitz_determinants(gains: GainVector, lam: float) -> tuple[float, ...]:
    """Leading principal minors of the Hurwitz matrix, evaluated at lam.

    Factored per order, so a minor overflows only where its value does:
    the last one is a1 * lam times the one before it.  All must be
    positive for the companion block at lam to be Hurwitz.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    a = gains.values
    if gains.m == 1:
        return (a[0] * lam,)
    if gains.m == 2:
        lower = (a[1] * lam,)
    elif gains.m == 3:
        a1, a2, a3 = a
        lower = (a3 * lam, a2 * a3 * lam**2 - a1 * lam)
    else:
        a1, a2, a3, a4 = a
        lower = (
            a4 * lam,
            a3 * a4 * lam**2 - a2 * lam,
            lam**2 * (a2 * a3 * a4 * lam - a1 * a4**2 * lam - a2**2),
        )
    return (*lower, a[0] * lam * lower[-1])


def stability_conditions(gains: GainVector, lam: float) -> list[StabilityCondition]:
    """Order-specific gain inequalities evaluated at a single eigenvalue."""
    a = gains.values
    m = gains.m
    conditions: list[StabilityCondition] = []

    def add(name: str, lhs: float, rhs: float) -> None:
        slack = (lhs - rhs) / (abs(rhs) or abs(lhs))  # relative to its own inequality
        conditions.append(
            StabilityCondition(
                name=name,
                inequality=f"{name}: {lhs:.12g} > {rhs:g}",
                slack=slack,
                satisfied=slack > TOLERANCES.stability_slack,
            )
        )

    for j in range(m):
        add(f"a{j + 1} > 0", a[j], 0.0)
    if m == 3:
        add("(a2*a3/a1)*lambda_min > 1", gains.form.c * lam, 1.0)
    elif m == 4:
        add("(a3*a4/a2)*lambda_min > 1", a[2] * a[3] / a[1] * lam, 1.0)
        add("((a3*a4/a2)-(a1*a4^2/a2^2))*lambda_min > 1", gains.form.c * lam, 1.0)
    return conditions


def report_for(gains: GainVector, lambda_min: float) -> StabilityReport:
    """Stability report for a system whose smallest grounded eigenvalue is known."""
    conditions = tuple(stability_conditions(gains, lambda_min))
    margin = min(c.slack for c in conditions)
    stable = all(c.satisfied for c in conditions)
    marginal = (not stable) and margin >= -TOLERANCES.coherence_margin
    return StabilityReport(
        stable=stable,
        marginal=marginal,
        lambda_min=lambda_min,
        margin=margin,
        hurwitz_determinants=hurwitz_determinants(gains, lambda_min),
        conditions=conditions,
    )


def check_stability(system: GroundedSystem) -> StabilityReport:
    """Decide stability via the gain inequalities at lambda_min.

    All conditions increase with lam, so the smallest grounded eigenvalue
    is the binding case.  Slacks are relative ((lhs - rhs) / |rhs|, or
    / |lhs| where rhs is 0) and strict by ``stability_slack``; within
    ``coherence_margin`` of the boundary the report is ``marginal``.
    """
    return report_for(system.gains, system.lambda_min)


def require_evaluable(report: StabilityReport) -> None:
    """Refuse the closed forms unless the report is stable by ``coherence_margin``.

    Near the boundary the order-3/4 trace terms diverge, so the closed
    forms and everything built on them (the selection surrogate) share
    this one rule.
    """
    if not report.stable or report.margin < TOLERANCES.coherence_margin:
        raise UnstableSystemError(
            f"system not stable enough for closed forms (lambda_min "
            f"{report.lambda_min:.6g}, margin {report.margin:.3e})"
        )


def companion_state_matrix(q: np.ndarray, gains) -> np.ndarray:
    """Full nm x nm state matrix for arbitrary order m >= 1.

    Identity blocks on the superdiagonal; last block row is
    [-a_1 Q, ..., -a_m Q].  Accepts a plain gain sequence so the
    spectral oracle can probe orders beyond the closed-form range.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    gains = tuple(float(g) for g in gains)
    m = len(gains)
    if m < 1:
        raise LeaderSelError("need at least one gain")
    a = np.zeros((n * m, n * m))
    eye = np.eye(n)
    for j in range(m - 1):
        a[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = eye
    for j in range(m):
        a[(m - 1) * n :, j * n : (j + 1) * n] = -gains[j] * q
    return a


def spectral_stability_oracle(a: np.ndarray) -> tuple[bool, float]:
    """Stability via the eigenvalues of the (nonsymmetric) state matrix.

    Returns (stable, max real part); stable iff max Re < 0, with no margin:
    one in A's units misjudges slow systems, one relative to ||A|| stiff ones.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise LeaderSelError("state matrix has non-finite entries")
    try:
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise LeaderSelError(str(exc)) from exc
    max_real = float(np.max(values.real))
    return max_real < 0.0, max_real


def singleton_lambda_mins(graph: Graph) -> list[float]:
    """Smallest grounded eigenvalue for each single-leader choice.

    The per-node oracle for ``SingletonPhase.lambda_star``, their least,
    which the gain rule and the selection machinery use: one eigensolve per
    node.
    """
    return [float(sym_eigenvalues(grounded_matrix(graph, [v])).eigenvalues[0])
            for v in range(graph.n)]


def auto_gains(phase: SingletonPhase, m: int) -> GainVector:
    """Pick gains that stabilise every nonempty leader set of ``phase``'s graph.

    Base rule: all gains equal to a = ceil(1 / lam*), lam* the smallest
    lambda_min(Q_v) over single leaders v, which makes a * lambda_min exceed
    1 for every leader set.  When the ceiling lands exactly on the boundary
    (integer 1/lam*), a is doubled until the order-3 condition clears the
    closed-form margin.  For m = 4 equal gains can never be stable, so
    the recipe is (a, 2a, 2a, 2a) with a doubled until both order-4
    condition slacks exceed 0.5.
    """
    if not 1 <= m <= 4:
        raise LeaderSelError(f"order {m} outside supported range 1..4")
    lam_star = phase.lambda_star
    a = float(math.ceil(1.0 / lam_star))
    if m <= 2:
        return GainVector((a,) * m)
    if m == 3:
        while a * lam_star - 1.0 <= TOLERANCES.coherence_margin:
            a *= 2.0
        return GainVector((a, a, a))
    while a * lam_star - 1.0 <= 0.5:
        a *= 2.0
    return GainVector((a, 2.0 * a, 2.0 * a, 2.0 * a))
