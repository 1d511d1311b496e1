"""Coherence (steady-state output variance) of stable order-m systems.

Closed forms, per order, as functions of the grounded matrix Q:

  H_1 = 1/(2 a1)    * tr(Q^-1)
  H_2 = 1/(2 a1 a2) * tr(Q^-2)
  H_3 = a3/(2 a1^2) * tr(Q^-1 ((a2 a3 / a1) Q - I)^-1)
  H_4 = 1/(2 a1 a2) * tr(Q^-2 (b1 Q - I) ((b1 - b2) Q - I)^-1)
        with b1 = a3 a4 / a2 and b2 = a1 a4^2 / a2^2

Each is evaluated on the spectrum of Q; the Lyapunov-Gramian oracle is an
independent check.

Every order is one weighted trace.  With M = Q^-1 and S = (c Q - I)^-1,

  rho * H = w1 tr(M) + w2 ||M||_F^2 + w3 <M, S>

  order  rho          (w1, w2, w3)   c
  1      2 a1         (1, 0, 0)      -
  2      2 a1 a2      (0, 1, 0)      -
  3      2 a1^2 / a3  (0, 0, 1)      a2 a3 / a1
  4      2 a1 a2      (0, 1, b2)     b1 - b2

``GainVector.form`` holds this record; every path below computes only
the terms of nonzero weight, so none branches on the order.

The selection surrogate is f(S) = 0 for empty S and C - rho * H(S)
otherwise, where C is twice the worst single-leader value of the trace,
so f is nonnegative, nondecreasing, and submodular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import (
    EmptyLeaderSetError,
    PreconditionViolatedError,
    SingularUpdateError,
    UnstableSystemError,
)
from .graphs import Graph, KappaWeights, LeaderSet
from .linalg import TOLERANCES, lyapunov_solve, sym_eigenvalues
from .stability import (
    auto_gains,
    build_state_matrices,
    check_stability,
    report_for,
    require_evaluable,
)
from .system import (
    GainVector,
    GroundedSystem,
    SingletonPhase,
    grounded_matrix,
    singleton_phase,
)

Method = Literal["closed_eig", "lyapunov"]


@dataclass(frozen=True)
class CoherenceReport:
    m: int
    value: float
    method: Method
    leaders: LeaderSet
    gains: GainVector

    def to_dict(self) -> dict:
        return {
            "order": self.m,
            "value": self.value,
            "method": self.method,
            "leaders": list(self.leaders.sorted_members),
            "gains": list(self.gains.values),
        }


def normalized_eigenvalue_terms(gains: GainVector, lams: np.ndarray) -> np.ndarray:
    """Sum of per-eigenvalue terms of rho * H (the normalized coherence).

    Each term is w1/lam + w2/lam^2 + w3/(lam (c lam - 1)), all positive.
    ``lams`` holds one spectrum, or a (b, n) stack of them with one sum
    per row; each row is summed left to right, as a sequential loop adds.
    """
    form = gains.form
    terms = np.zeros(lams.shape)
    if form.tr:
        terms += form.tr / lams
    if form.sq:
        terms += form.sq / lams**2
    if form.shift:
        terms += form.shift / (lams * (form.c * lams - 1.0))
    return np.cumsum(terms, axis=-1)[..., -1]  # accumulates strictly in order


def normalized_from_inverses(
    gains: GainVector, inv: np.ndarray, shifted_inv: np.ndarray | None
) -> float:
    """rho * H from the inverses Q^-1 and (c Q - I)^-1.

    Traces of products of symmetric matrices reduce to elementwise sums.
    This is the named oracle of ``normalized_after_rank_one``: tests apply
    each rank-one update explicitly and score the result here.
    """
    form = gains.form
    total = 0.0
    if form.tr:
        total += form.tr * np.trace(inv)
    if form.sq:
        total += form.sq * np.sum(inv * inv)
    if form.shift:
        total += form.shift * np.sum(inv * shifted_inv)
    return float(total)


def normalized_after_rank_one(
    gains: GainVector,
    inv: np.ndarray,
    shifted_inv: np.ndarray | None,
    kappa: np.ndarray,
    candidates: np.ndarray,
) -> np.ndarray:
    """rho * H(S + v) for every node v, from M = Q_S^-1 and S = (c Q_S - I)^-1.

    Adding leader v updates M' = M - alpha_v M e_v e_v^T M with
    alpha_v = kappa_v / (1 + kappa_v M_vv), and S the same way with
    beta_v = c kappa_v / (1 + c kappa_v S_vv).  The traces then change by
    closed forms in a few diagonals:

      tr M'       = tr M - alpha_v (M^2)_vv
      ||M'||^2    = ||M||^2 - 2 alpha_v (M^3)_vv + alpha_v^2 (M^2)_vv^2
      <M', S'>    = <M, S> - alpha_v (MSM)_vv - beta_v (SMS)_vv
                    + alpha_v beta_v (MS)_vv^2

    so one round scores all candidates with one matrix product.  Raises
    SingularUpdateError when a candidate's update denominator is at or
    below ``rank_one_denominator_min``, as ``sherman_morrison_update``
    would.  Entries of non-candidates are not meaningful.
    """

    def coefficient(scale: np.ndarray, diag: np.ndarray) -> np.ndarray:
        denom = 1.0 + scale * diag
        low = candidates & (denom <= TOLERANCES.rank_one_denominator_min)
        if low.any():
            raise SingularUpdateError(
                f"update denominator {denom[low].min()} at or below tolerance"
            )
        return scale / denom

    form = gains.form
    alpha = coefficient(kappa, np.diagonal(inv))
    sq_diag = np.einsum("ij,ij->j", inv, inv)  # (M^2)_vv
    total = 0.0
    if form.tr:
        total = total + form.tr * (np.trace(inv) - alpha * sq_diag)
    if form.sq:
        cube_diag = np.einsum("ij,ij->j", inv @ inv, inv)  # (M^3)_vv
        second = np.sum(inv * inv) - 2.0 * alpha * cube_diag + alpha**2 * sq_diag**2
        total = total + form.sq * second
    if form.shift:
        beta = coefficient(form.c * kappa, np.diagonal(shifted_inv))
        prod = inv @ shifted_inv  # MS; SM is its transpose
        third = (
            np.sum(inv * shifted_inv)
            - alpha * np.einsum("ij,ji->i", prod, inv)  # (MSM)_vv
            - beta * np.einsum("ij,ij->j", prod, shifted_inv)  # (SMS)_vv
            + alpha * beta * np.diagonal(prod) ** 2
        )
        total = total + form.shift * third
    return total


def coherence_closed(system: GroundedSystem) -> CoherenceReport:
    """Closed-form coherence from the eigenvalues of the grounded matrix.

    Refused near the stability boundary by ``require_evaluable``; an empty
    leader set is refused by ``lambda_min``.
    """
    require_evaluable(check_stability(system))
    gains = system.gains
    factor = 1.0 / gains.form.rho
    value = factor * normalized_eigenvalue_terms(gains, system.eigenvalues)
    return CoherenceReport(gains.m, float(value), "closed_eig", system.leaders, gains)


def coherence_lyapunov_oracle(system: GroundedSystem) -> CoherenceReport:
    """Coherence as tr(C P C^T) with P solving A P + P A^T + B B^T = 0.

    Independent of the closed forms: builds the full state matrices and
    solves the Lyapunov equation directly, in O((nm)^3) time.  Capped at
    state dimension ``lyapunov_dim_cap``; meant as a validation oracle,
    not a fast path.
    """
    if not check_stability(system).stable:
        raise UnstableSystemError("Lyapunov Gramian exists only for stable systems")
    mats = build_state_matrices(system)
    gramian = lyapunov_solve(mats.a, mats.b @ mats.b.T)
    value = float(np.trace(mats.c @ gramian @ mats.c.T))
    return CoherenceReport(system.m, value, "lyapunov", system.leaders, system.gains)


@dataclass(frozen=True)
class SystemContext:
    """Fixed (graph, kappa, gains) with cached selection machinery.

    Caches the singleton phase (one eigendecomposition of L), the
    single-leader normalized coherences and the surrogate offset constant
    C = 2 * max over single leaders, which every set-function evaluation
    reuses.  ``phase`` takes ``singleton_phase(graph, kappa)`` when the
    caller already holds it (see ``auto``); otherwise it is computed on
    first use.
    """

    graph: Graph
    kappa: KappaWeights
    gains: GainVector
    phase: SingletonPhase | None = field(default=None, compare=False, repr=False)

    @classmethod
    def auto(cls, graph: Graph, kappa: KappaWeights, m: int) -> "SystemContext":
        """Context with ``auto_gains``; the gain rule and the context share
        one singleton phase."""
        phase = singleton_phase(graph, kappa)
        gains = auto_gains(graph, kappa, m, phase=phase)
        return cls(graph=graph, kappa=kappa, gains=gains, phase=phase)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.gains.m

    def grounded(self, leaders) -> np.ndarray:
        # reuses the singleton phase's Laplacian, as exhaustive_sweep's stacks do
        if not isinstance(leaders, LeaderSet):
            leaders = LeaderSet.of(leaders)
        leaders.validate(self.n)
        q = self.singleton_phase.laplacian.copy()
        for v in leaders.members:
            q[v, v] += self.kappa.values[v]
        return q

    @cached_property
    def singleton_phase(self) -> SingletonPhase:
        if self.phase is not None:
            return self.phase
        return singleton_phase(self.graph, self.kappa)

    @cached_property
    def binding_report(self):
        """Stability report at the worst single-leader eigenvalue.

        Conditions only improve as leaders are added, so a pass here
        covers every nonempty leader set.
        """
        return report_for(self.gains, float(self.singleton_phase.lambda_mins.min()))

    def normalized_coherence(self, leaders) -> float:
        """rho * H over the given leader set (a bare trace)."""
        if not isinstance(leaders, LeaderSet):
            leaders = LeaderSet.of(leaders)
        if not leaders.members:
            raise EmptyLeaderSetError("normalized coherence needs leaders")
        lams = sym_eigenvalues(self.grounded(leaders)).eigenvalues
        return float(normalized_eigenvalue_terms(self.gains, lams))

    @cached_property
    def singleton_normalized(self) -> tuple[float, ...]:
        """rho * H({v}) for every v, in closed form from the singleton phase.

        With L^+ the pseudoinverse, p = L^+ e_v and d = L^+_vv + 1/kappa_v,
        Sherman-Morrison gives Q_v^-1 = L^+ - p 1^T - 1 p^T + d 1 1^T, so

          tr Q_v^-1      = tr L^+ + n d
          ||Q_v^-1||^2   = ||L^+||^2 + 2 n (L^+2)_vv + n^2 d^2

        and with T = (c L - I)^-1 (T 1 = -1) and
        beta = c kappa_v / (1 + c kappa_v T_vv),

          <Q_v^-1, (c Q_v - I)^-1> = tr(L^+ T) - n d
                                     - beta ((T L^+ T)_vv + 2 (T L^+)_vv + d).

        Every diagonal is W f(lam).  ``require_evaluable`` passes the
        binding report first, so the set function and the selection
        searches built on it share the closed forms' margin rule: stable
        gains give c lam_1 >= c lambda_min(Q_v) > 1 by interlacing, so T
        exists.  At order 3 a value carries the conditioning
        1 / (c lambda_min(Q_v) - 1) of the closed form itself.
        """
        require_evaluable(self.binding_report)
        phase = self.singleton_phase
        n, kappa, lam = phase.n, phase.kappa, phase.eigenvalues
        pinv = 1.0 / lam  # the spectrum of L^+
        form = self.gains.form
        columns = [pinv, pinv**2]
        if form.shift:
            t = 1.0 / (form.c * lam - 1.0)  # the spectrum of T off the ones vector
            columns += [t, pinv * t, pinv * t * t]
        diag = phase.weights @ np.column_stack(columns)  # (f(L))_vv off the ones vector
        d = diag[:, 0] + 1.0 / kappa
        total = 0.0
        if form.tr:
            total = total + form.tr * (pinv.sum() + n * d)
        if form.sq:
            second = np.sum(pinv**2) + 2.0 * n * diag[:, 1] + n**2 * d**2
            total = total + form.sq * second
        if form.shift:
            c = form.c
            beta = c * kappa / (1.0 + c * kappa * (diag[:, 2] - 1.0 / n))  # T_vv = diag - 1/n
            third = np.sum(pinv * t) - n * d - beta * (diag[:, 4] + 2.0 * diag[:, 3] + d)
            total = total + form.shift * third
        return tuple(total.tolist())

    @cached_property
    def offset(self) -> float:
        """The surrogate constant C: twice the worst single-leader trace."""
        return 2.0 * max(self.singleton_normalized)

    def set_value(self, leaders) -> float:
        """The monotone submodular surrogate f(S); maximizing it minimizes H."""
        if not isinstance(leaders, LeaderSet):
            leaders = LeaderSet.of(leaders)
        if not leaders.members:
            return 0.0
        return self.offset - self.normalized_coherence(leaders)


@dataclass(frozen=True)
class TraceSetFunction:
    """Generalized surrogate family used by the submodularity checks.

    form="product":       C - tr((b1 Q)^-1 (b2 Q - b3 I)^-1)
                          requires b1, b2 > 0, b3 >= 0, b2 lambda_min > b3.
    form="fourth_order":  C - tr(Q^-2 (b1 Q - I) ((b1 - b2) Q - I)^-1)
                          requires b1 > b2 > 0, (b1 - b2) lambda_min > 1.

    With (b1, b2, b3) = (1, 1, 0) the product form is the order-2
    surrogate; (1, a2 a3/a1, 1) gives order 3; the fourth-order form with
    (a3 a4/a2, a1 a4^2/a2^2) gives order 4.
    """

    graph: Graph
    kappa: KappaWeights
    form: Literal["product", "fourth_order"]
    b1: float
    b2: float
    b3: float = 0.0

    def __post_init__(self) -> None:
        if self.form == "product":
            if self.b1 <= 0 or self.b2 <= 0 or self.b3 < 0:
                raise PreconditionViolatedError(
                    "product form needs b1, b2 > 0 and b3 >= 0"
                )
        elif self.form == "fourth_order":
            if not self.b1 > self.b2 > 0:
                raise PreconditionViolatedError("fourth-order form needs b1 > b2 > 0")
        else:
            raise PreconditionViolatedError(f"unknown form {self.form!r}")

    def _trace(self, leaders) -> float:
        if not isinstance(leaders, LeaderSet):
            leaders = LeaderSet.of(leaders)
        q = grounded_matrix(self.graph, self.kappa, leaders)
        lams = sym_eigenvalues(q).eigenvalues
        lam_min = float(lams[0])
        if self.form == "product":
            if self.b2 * lam_min <= self.b3:
                raise PreconditionViolatedError(
                    f"b2*lambda_min = {self.b2 * lam_min:.6g} must exceed b3 = {self.b3:.6g}"
                )
            return float(sum(1.0 / (self.b1 * lam * (self.b2 * lam - self.b3)) for lam in lams))
        if (self.b1 - self.b2) * lam_min <= 1.0:
            raise PreconditionViolatedError(
                f"(b1-b2)*lambda_min = {(self.b1 - self.b2) * lam_min:.6g} must exceed 1"
            )
        return float(
            sum(
                (self.b1 * lam - 1.0) / (lam**2 * ((self.b1 - self.b2) * lam - 1.0))
                for lam in lams
            )
        )

    @cached_property
    def offset(self) -> float:
        return 2.0 * max(self._trace([v]) for v in range(self.graph.n))

    def value(self, leaders) -> float:
        if not isinstance(leaders, LeaderSet):
            leaders = LeaderSet.of(leaders)
        if not leaders.members:
            return 0.0
        return self.offset - self._trace(leaders)

