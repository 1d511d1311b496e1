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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import LeaderSelError, UnstableSystemError
from .graphs import Graph
from .linalg import TOLERANCES, lyapunov_solve
from .stability import (
    auto_gains,
    check_stability,
    companion_state_matrix,
    report_for,
    require_evaluable,
)
from .system import (
    GainVector,
    GroundedSystem,
    SingletonPhase,
    singleton_phase,
)

Method = Literal["closed_eig", "lyapunov"]


@dataclass(frozen=True)
class CoherenceReport:
    """Fields in ``coherence.schema.json`` order; ``leaders`` are sorted node ids."""

    order: int
    value: float
    method: Method
    leaders: tuple[int, ...]
    gains: tuple[float, ...]


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
    This is the named oracle of ``WoodburyScorer``: tests invert each
    grounded matrix Q_{S+v} explicitly and score the result here.
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


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, y)


class WoodburyScorer:
    """rho * H(S + v) for every node v while the leader set S grows.

    With u the unit ones vector, sigma the mean of lam_1 .., V = [u, e_S],
    D = diag(-sigma, kappa_S), A = (L + sigma u u^T)^-1 and
    T = (c (L + sigma u u^T) - I)^-1 (positive definite: c sigma >= c lam_1 > 1),

      Q_S^-1         = A - A V C V^T A,   C  = (D^-1 + V^T A V)^-1
      (c Q_S - I)^-1 = T - T V C' V^T T,  C' = ((c D)^-1 + V^T T V)^-1,

    so each trace of rho * H is tr f(L) less traces of small matrices of
    entries f(L)[i, j], i, j in {u} + S + {v}.  Adding v borders C (and C'
    alike): C_{S+v} = [C 0; 0 0] + z_v z_v^T / gamma_v, z_v = [C V^T A e_v; -1],
    gamma_v = (1 + kappa_v (Q_S^-1)_vv) / kappa_v, so every candidate is
    scored at once in O(n |S|^2) (the cross term uses X = V^T A T V).  A denominator
    gamma_v kappa_v or gamma'_v c kappa_v at or below
    ``rank_one_denominator_min``, or a capacitance solve that misses its
    residual bound, raises LeaderSelError.  Needs |S| >= 1.
    """

    def __init__(self, context: "SystemContext", capacity: int):
        form, phase = context.gains.form, context.phase
        n, sigma = phase.n, phase.eigenvalues.mean()
        shifted = np.concatenate(([sigma], phase.eigenvalues))  # L + sigma u u^T
        a = 1.0 / shifted
        spectra = {"A": a}  # and only the functions the order's weights need
        if form.tr or form.sq:
            spectra["A2"] = a * a
        if form.sq:
            spectra["A3"] = a * a * a
        self.corners = {"A": 0.0}  # u^T f u - 1 / (c sigma), in closed form
        if form.shift:
            t = 1.0 / (form.c * shifted - 1.0)
            spectra.update(T=t, AT=a * t, A2T=a * a * t, AT2=a * t * t)
            self.corners["T"] = 1.0 / (form.c * sigma * (form.c * sigma - 1.0))
        self.form, self.phase, self.n, self.size = form, phase, n, 0
        self.kappa = context.graph.kappa
        self.index = {name: j for j, name in enumerate(spectra)}
        self.spectra = np.column_stack(list(spectra.values()))  # row 0: on u
        self.traces = dict(zip(spectra, self.spectra.sum(axis=0)))
        self.diagonals = (phase.diagonals(self.spectra[1:]) + self.spectra[0] / n).T
        # cols[f, i, j] = f[i, j], i over the nodes then u, j over u then the leaders
        self.cols = np.empty((len(spectra), n + 1, capacity + 1))
        self.cols[:, :, 0] = self.cols[:, n, :] = self.spectra[0][:, None] / math.sqrt(n)
        self.cols[:, n, 0] = self.spectra[0]
        self.rows = np.full(capacity + 1, n)  # u, then the leaders

    def add(self, v: int) -> None:
        """Append leader v: f(L) e_v for every f, one product with U."""
        vectors, spectra = self.phase.vectors, self.spectra
        self.size += 1
        column = vectors @ (spectra[1:] * vectors[v][:, None]) + spectra[0] / self.n
        self.cols[:, : self.n, self.size] = column.T
        self.rows[self.size] = v

    def _block(self, name: str):
        """f's index, V^T f V, and e_v^T f V for every v."""
        j, m = self.index[name], self.size + 1
        return j, self.cols[j, self.rows[:m], :m], self.cols[j, : self.n, :m]

    def _border(self, name: str, kappa: np.ndarray, candidates: np.ndarray):
        """C for f = ``name`` (A or T) and D's leader part ``kappa``, with
        x_v = C V^T f e_v and gamma_v for every v."""
        j, g, fv = self._block(name)
        m = len(g)
        g[0, 0] = self.corners[name]
        g.flat[m + 1 :: m + 1] += 1.0 / kappa[self.rows[1:m]]
        try:
            cap = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise LeaderSelError("capacitance matrix is singular") from exc
        residual = np.linalg.norm(g @ cap - np.eye(m))
        if not residual <= TOLERANCES.woodbury_rtol * np.linalg.norm(g) * np.linalg.norm(cap):
            raise LeaderSelError(
                f"capacitance solve residual {residual:.3e} exceeds its bound")
        x = fv @ cap
        gamma = 1.0 / kappa + self.diagonals[j] - _rowdot(x, fv)
        denom = kappa * gamma
        if (low := candidates & ~(denom > TOLERANCES.rank_one_denominator_min)).any():
            raise LeaderSelError(
                f"update denominator {denom[low].min()} at or below tolerance")
        return cap, x, gamma

    def _linear(self, name: str, border) -> np.ndarray:
        """tr(C P) over S + v, P = V^T F V, p_v = V^T F e_v:
        tr(C P) + (x_v P x_v - 2 x_v . p_v + F_vv) / gamma_v."""
        cap, x, gamma = border
        j, p, pv = self._block(name)
        return np.sum(cap * p) + (_rowdot(x @ p - 2.0 * pv, x) + self.diagonals[j]) / gamma

    def _bilinear(self, name: str, first, second) -> np.ndarray:
        """tr(C Y C' Y) over S + v, Y = V^T F V: tr(C Y C' Y) + a C a / gamma'_v
        + b C' b / gamma_v + (z_v^T Y z'_v)^2 / (gamma_v gamma'_v), with
        a = Y x'_v - y_v and b = Y x_v - y_v."""
        (cap, x, gamma), (cap2, x2, gamma2) = first, second
        j, y, yv = self._block(name)
        a_v, b_v = x2 @ y.T - yv, x @ y - yv
        zyz = _rowdot(b_v, x2) - _rowdot(x, yv) + self.diagonals[j]
        return (np.sum((cap @ y) * (y @ cap2)) + _rowdot(a_v @ cap, a_v) / gamma2
                + _rowdot(b_v @ cap2, b_v) / gamma + zyz * zyz / (gamma * gamma2))

    def scores(self, candidates: np.ndarray) -> np.ndarray:
        """rho * H(S + v) for every node v (meaningless off ``candidates``)."""
        form, traces = self.form, self.traces
        a = self._border("A", self.kappa, candidates)
        total = 0.0
        if form.tr:  # tr Q^-1 = tr A - tr(C V^T A^2 V)
            total = total + form.tr * (traces["A"] - self._linear("A2", a))
        if form.sq:  # ||Q^-1||^2 = tr A^2 - 2 tr(C V^T A^3 V) + tr((C V^T A^2 V)^2)
            second = traces["A2"] - 2.0 * self._linear("A3", a) + self._bilinear("A2", a, a)
            total = total + form.sq * second
        if form.shift:
            # <Q^-1, (cQ - I)^-1> = tr AT - tr(C V^T A^2 T V) - tr(C' V^T A T^2 V) + tr(C X C' X)
            t = self._border("T", form.c * self.kappa, candidates)
            cross = traces["AT"] - self._linear("A2T", a) - self._linear("AT2", t)
            total = total + form.shift * (cross + self._bilinear("AT", a, t))
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
    return CoherenceReport(gains.m, float(value), "closed_eig", system.leaders, gains.values)


def coherence_lyapunov_oracle(system: GroundedSystem) -> CoherenceReport:
    """Coherence as tr(P[:n, :n]) with P solving A P + P A^T + B B^T = 0.

    A is the companion state matrix.  The noise enters the last n x n block
    of the state (the m-th derivative), so B B^T is the identity there and
    zero elsewhere; the output is the first block (the positions), so the
    coherence is the trace of P's leading n x n block.  Independent of the
    closed forms: solves the Lyapunov equation directly, in O((nm)^3)
    time.  Capped at state dimension ``lyapunov_dim_cap``; meant as a
    validation oracle, not a fast path.
    """
    if not check_stability(system).stable:
        raise UnstableSystemError("Lyapunov Gramian exists only for stable systems")
    n, dim = system.n, system.n * system.m
    noise = np.zeros((dim, dim))
    noise[dim - n :, dim - n :] = np.eye(n)
    gramian = lyapunov_solve(companion_state_matrix(system.matrix, system.gains.values), noise)
    value = float(np.trace(gramian[:n, :n]))
    return CoherenceReport(system.m, value, "lyapunov", system.leaders, system.gains.values)


@dataclass(frozen=True)
class SystemContext:
    """Fixed gains on one singleton phase, with cached selection machinery.

    The phase (one eigendecomposition of L) fixes the graph, kappa included;
    contexts for several orders may share it.  Caches the single-leader
    normalized coherences and the surrogate offset constant
    C = 2 * max over single leaders, which both selection searches reuse.
    """

    phase: SingletonPhase
    gains: GainVector

    @classmethod
    def auto(cls, graph: Graph, m: int) -> "SystemContext":
        """Context with ``auto_gains`` on the graph's singleton phase."""
        phase = singleton_phase(graph)
        return cls(phase, auto_gains(phase, m))

    @property
    def graph(self) -> Graph:
        return self.phase.graph

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.gains.m

    def normalized_coherence(self, leaders) -> float:
        """rho * H over the given leader set (a bare trace), from one eigensolve:
        the tests' per-subset oracle of the greedy and the exhaustive sweep."""
        system = GroundedSystem.create(self.graph, leaders, self.gains)
        system.lambda_min  # refuses an empty or ungrounded set
        return float(normalized_eigenvalue_terms(self.gains, system.eigenvalues))

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
        report at the worst single leader first, so the greedy and the
        exhaustive searches built on it share the closed forms' margin
        rule: stable gains give c lam_1 >= c lambda_min(Q_v) > 1 by
        interlacing, so T exists.  At order 3 a value carries the
        conditioning 1 / (c lambda_min(Q_v) - 1) of the closed form itself.
        """
        phase = self.phase
        # Conditions only improve as leaders are added, so a pass at the
        # worst single leader covers every nonempty leader set.
        require_evaluable(report_for(self.gains, phase.lambda_star))
        n, kappa, lam = phase.n, phase.graph.kappa, phase.eigenvalues
        pinv = 1.0 / lam  # the spectrum of L^+
        form = self.gains.form
        columns = [pinv, pinv**2]
        if form.shift:
            t = 1.0 / (form.c * lam - 1.0)  # the spectrum of T off the ones vector
            columns += [t, pinv * t, pinv * t * t]
        diag = phase.diagonals(np.column_stack(columns))
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
