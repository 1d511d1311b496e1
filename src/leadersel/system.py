"""Gain vectors and the grounded closed-loop system description.

The grounded matrix of (graph, kappa, leaders) is the weighted Laplacian
plus kappa_v on the diagonal for every leader v.  It is positive definite
whenever the graph is connected and the leader set is nonempty, which is
what makes the coherence expressions finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyLeaderSetError, GraphError, UnsupportedOrderError
from .graphs import Graph, KappaWeights, LeaderSet, is_connected, laplacian
from .linalg import TOLERANCES, sym_eigenvalues

MAX_ORDER = 4


@dataclass(frozen=True)
class GainVector:
    """Feedback gains (a_1 .. a_m) for an order-m system, 1 <= m <= 4."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.values) <= MAX_ORDER:
            raise UnsupportedOrderError(
                f"order {len(self.values)} outside supported range 1..{MAX_ORDER}"
            )
        for j, a in enumerate(self.values):
            if a == 0 or not math.isfinite(a):
                raise UnsupportedOrderError(f"gain a{j + 1} = {a} must be nonzero and finite")
        object.__setattr__(self, "values", tuple(float(a) for a in self.values))

    @property
    def m(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, j: int) -> float:
        return self.values[j]

    @cached_property
    def form(self) -> "TraceForm":
        """The order's weights in rho * H; the one place they are spelled out."""
        a = self.values
        if self.m == 1:
            return TraceForm(rho=2.0 * a[0], tr=1.0)
        if self.m == 2:
            return TraceForm(rho=2.0 * a[0] * a[1], sq=1.0)
        if self.m == 3:
            return TraceForm(rho=2.0 * a[0] ** 2 / a[2], shift=1.0, c=a[1] * a[2] / a[0])
        b1, b2 = a[2] * a[3] / a[1], a[0] * a[3] ** 2 / a[1] ** 2
        return TraceForm(rho=2.0 * a[0] * a[1], sq=1.0, shift=b2, c=b1 - b2)


@dataclass(frozen=True)
class TraceForm:
    """rho * H = tr * tr(M) + sq * ||M||_F^2 + shift * <M, S>.

    Here M = Q^-1 and S = (c Q - I)^-1; c is None when shift is zero, and
    only the terms of nonzero weight are ever computed.
    """

    rho: float
    tr: float = 0.0
    sq: float = 0.0
    shift: float = 0.0
    c: float | None = None


def grounded_matrix(lap: np.ndarray, kappa: KappaWeights, leaders) -> np.ndarray:
    """A copy of the Laplacian ``lap`` plus the leader diagonal: L + D_kappa D_S.

    ``leaders`` is a ``LeaderSet`` or an iterable of node ids.
    """
    if len(kappa) != len(lap):
        raise ValueError(f"kappa length {len(kappa)} != node count {len(lap)}")
    if not isinstance(leaders, LeaderSet):
        leaders = LeaderSet.of(leaders)
    leaders.validate(len(lap))
    q = lap.copy()
    for v in leaders.members:
        q[v, v] += kappa.values[v]
    return q


# The rational iteration stops a row once a step moves it by less than this
# fraction: the error is then about its square, a few ulps, for the probes.
_SECULAR_STEP_RTOL = 2.0**-26
# Rows still moving after this many steps go straight to bisection.
_SECULAR_MAX_STEPS = 32
# Bytes of one row block of W in ``lambda_mins``; each of its few live
# temporaries is at most this size.  Graphs up to 362 nodes are one block.
_ROW_BLOCK_BYTES = 1024 * 1024


@dataclass(frozen=True, eq=False)
class SingletonPhase:
    """Every single-leader quantity from one eigendecomposition L = U diag(lam) U^T.

    Each Q_v = L + kappa_v e_v e_v^T is a rank-one change of L, so with the
    weights W = U o U (W[v, i] = U[v, i]^2) a diagonal (f(L))_vv is W f(lam),
    O(n^2) for all v at once, and lambda_min(Q_v) is a root of the secular
    equation.  Both are sums over eigenspaces, so neither depends on the
    basis chosen inside a repeated eigenvalue.  The graph is connected, so
    L has the single zero eigenvalue with eigenvector 1/sqrt(n); only the
    nonzero spectrum and its eigenvectors are kept, and the ones direction
    enters every f(L) in closed form.  W is formed only where it is read.
    """

    graph: Graph
    kappa: KappaWeights
    eigenvalues: np.ndarray  # lam_1 <= ... <= lam_{n-1}
    vectors: np.ndarray      # shape (n, n - 1), the columns of U for lam_1 ..

    @property
    def n(self) -> int:
        return self.graph.n

    def diagonals(self, spectra: np.ndarray) -> np.ndarray:
        """W f(lam) for each column f(lam) of ``spectra``: (f(L))_vv off the
        ones vector, one row per node v."""
        return (self.vectors**2) @ spectra

    @cached_property
    def lambda_mins(self) -> np.ndarray:
        """lambda_min(Q_v) for every v, by safeguarded rational iteration.

        The root of 1 + kappa_v (sum_i W_vi / (lam_i - mu) - 1 / (n mu)) = 0
        lies in (0, min(lam_1, kappa_v / n)]: kappa_v / n is the Rayleigh
        quotient of the all-ones vector, and it also closes the bracket for
        n = 1, where there is no lam_1 (the root is then kappa_v itself).

        Each step keeps the pole at 0 exact and replaces the rest,
        sum_{i>=1} W_vi / (lam_i - mu), by c + t / (lam_1 - mu) matched in
        value and slope at the iterate; the next iterate is the smaller root
        of that model.  The model bounds the rest from above, so iterates
        rise to the root from below, quadratically once close.  Every
        evaluation narrows the row's bracket by the sign of the secular
        function, and an iterate outside the bracket is replaced by its
        midpoint.  A row stops iterating once a step is shorter than
        ``_SECULAR_STEP_RTOL`` of the iterate, or after
        ``_SECULAR_MAX_STEPS`` steps.  From its last iterate, probes
        2^j ulps away close the bracket around the root; bisection then
        shrinks every bracket to two adjacent floats and the upper ends are
        returned, so reruns are byte-identical.  When the weight on lam_1
        vanishes the bracket closes at lam_1, which is then the smallest
        eigenvalue.

        Every step is per row, so the rows are solved in blocks of about
        ``_ROW_BLOCK_BYTES`` of W, each formed from U where it is solved:
        memory above the phase stays flat in n, and no result depends on
        the blocking.
        """
        n = self.n
        kappa = self.kappa.as_array()
        if n == 1:
            return kappa / n
        rows = max(1, _ROW_BLOCK_BYTES // self.vectors[0].nbytes)
        out = np.empty(n)
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            out[block] = _secular_roots(self.vectors[block] ** 2, self.eigenvalues,
                                        kappa[block], n)
        return out


def _secular_roots(w: np.ndarray, lam: np.ndarray, kappa: np.ndarray, n: int) -> np.ndarray:
    """lambda_min(Q_v) for the rows v of one block (``SingletonPhase.lambda_mins``).

    ``w`` holds the block's rows of W, ``kappa`` their weights, and ``n`` is
    the node count; every step below reads and writes one row on its own.
    """
    size, lam1 = len(w), lam[0]
    lo = np.zeros(size)
    hi = np.minimum(kappa / n, lam1)

    def evaluate(rows, x, slope=False):
        # The sign test narrows the brackets of ``rows``; with ``slope`` it
        # also returns the rest of the poles and its derivative at x.
        d = lam - x[:, None]
        q = (w if len(rows) == size else w[rows]) / d
        poles = q.sum(axis=1)
        below = 1.0 + kappa[rows] * (poles - 1.0 / (n * x)) < 0.0
        lo[rows] = np.where(below, x, lo[rows])
        hi[rows] = np.where(below, hi[rows], x)
        if slope:
            return poles, (q / d).sum(axis=1)
        return below

    def step(rows, y, poles, slope):
        # The model 1/kappa + c + t/(lam_1 - mu) - 1/(n mu) = 0 times
        # mu (lam_1 - mu) is a mu^2 - b mu + lam_1/n = 0 with a = 1/kappa + c
        # and b = a lam_1 + t + 1/n; its smaller root, free of cancellation.
        gap = lam1 - y
        t = slope * gap * gap
        a = 1.0 / kappa[rows] + poles - slope * gap
        b = a * lam1 + t + 1.0 / n
        return 2.0 * (lam1 / n) / (b + np.sqrt(b * b - 4.0 * a * lam1 / n))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The first step models the poles at y = 0 from two products.
        rows, y = np.arange(size), np.zeros(size)
        nxt = step(rows, y, w @ (1.0 / lam), w @ lam**-2.0)
        estimate = np.full(size, np.nan)
        for _ in range(_SECULAR_MAX_STEPS):
            l, h = lo[rows], hi[rows]
            done = np.abs(nxt - y) <= _SECULAR_STEP_RTOL * y
            estimate[rows[done]] = np.clip(nxt[done], l[done], h[done])
            mid = 0.5 * (l + h)
            y = np.where(np.isfinite(nxt) & (l < nxt) & (nxt < h), nxt, mid)
            keep = ~done & (l < mid) & (mid < h)
            rows, y = rows[keep], y[keep]
            if not rows.size:
                break
            nxt = step(rows, y, *evaluate(rows, y, slope=True))

        # Probe from each estimate, 1, 2, 4, ... ulps toward the root, until
        # the sign flips or the probe leaves the bracket.  An estimate on a
        # bracket end has its sign already.
        rows = np.flatnonzero(np.isfinite(estimate))
        x = estimate[rows]
        below = x <= lo[rows]
        inside = (lo[rows] < x) & (x < hi[rows])
        below[inside] = evaluate(rows[inside], x[inside])
        direction = np.where(below, 1.0, -1.0)
        offset = np.spacing(x)
        while rows.size:
            p = x + direction * offset
            keep = (lo[rows] < p) & (p < hi[rows])
            if keep.any():
                keep[keep] = evaluate(rows[keep], p[keep]) == (direction[keep] > 0)
            rows, x, direction = rows[keep], x[keep], direction[keep]
            offset = 2.0 * offset[keep]

        while True:
            mid = 0.5 * (lo + hi)
            rows = np.flatnonzero((lo < mid) & (mid < hi))
            if not rows.size:
                return hi
            evaluate(rows, mid[rows])


def singleton_phase(graph: Graph, kappa: KappaWeights) -> SingletonPhase:
    """The singleton phase of (graph, kappa); refuses a disconnected graph.

    Connectivity is decided on the edges, not on the sign of a rounded
    eigenvalue: on a disconnected graph some Q_v is singular, and the
    secular solve would return a tiny positive lambda_min instead.  A graph
    whose edges connect it but whose lambda_1(L) is lost in rounding (say
    two blocks joined by a 1e-20 bridge) is refused as well: eigh mixes
    its near-null eigenvectors, so the phase has no isolated zero to drop.
    """
    if len(kappa) != graph.n:
        raise ValueError(f"kappa length {len(kappa)} != node count {graph.n}")
    if not is_connected(graph):
        raise GraphError(
            "graph is not connected: no single leader grounds every component"
        )
    dec = sym_eigenvalues(laplacian(graph), vectors=True)
    lam = dec.eigenvalues
    rtol = TOLERANCES.connectivity_rtol
    if graph.n > 1 and lam[1] <= rtol * lam[-1]:
        raise GraphError(
            f"graph is not connected numerically: lambda_1(L) = {lam[1]:.3g} is "
            f"below {rtol:g} * lambda_max(L) = {lam[-1]:.3g}"
        )
    return SingletonPhase(graph, kappa, eigenvalues=lam[1:], vectors=dec.eigenvectors[:, 1:])


@dataclass(frozen=True)
class GroundedSystem:
    """A graph with kappa weights, a leader set, and feedback gains.

    The grounded matrix and its eigenvalues are computed lazily, once.
    """

    graph: Graph
    kappa: KappaWeights
    leaders: LeaderSet
    gains: GainVector

    @classmethod
    def create(
        cls,
        graph: Graph,
        kappa: KappaWeights,
        leaders,
        gains,
    ) -> "GroundedSystem":
        if not isinstance(leaders, LeaderSet):
            leaders = LeaderSet.of(leaders)
        if not isinstance(gains, GainVector):
            gains = GainVector(tuple(gains))
        leaders.validate(graph.n)
        return cls(graph=graph, kappa=kappa, leaders=leaders, gains=gains)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.gains.m

    @cached_property
    def matrix(self) -> np.ndarray:
        return grounded_matrix(laplacian(self.graph), self.kappa, self.leaders)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return sym_eigenvalues(self.matrix).eigenvalues

    @property
    def lambda_min(self) -> float:
        if not self.leaders.members:
            raise EmptyLeaderSetError("grounded matrix is singular without leaders")
        return float(self.eigenvalues[0])
