"""Gain vectors and the grounded closed-loop system description.

A leader set is a sorted tuple of distinct node ids, built by ``leader_set``.
The grounded matrix of (graph, leaders) is the weighted Laplacian plus
the graph's kappa_v on the diagonal for every leader v.  It is positive
definite whenever the graph is connected and the leader set is nonempty,
which is what makes the coherence expressions finite.  The singleton phase holds
what every single-leader choice shares: the spectrum of L and lambda*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphError, LeaderSelError
from .graphs import Graph, is_connected, laplacian
from .linalg import TOLERANCES, sym_eigenvalues

MAX_ORDER = 4


@dataclass(frozen=True)
class GainVector:
    """Feedback gains (a_1 .. a_m) for an order-m system, 1 <= m <= 4."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.values) <= MAX_ORDER:
            raise LeaderSelError(
                f"order {len(self.values)} outside supported range 1..{MAX_ORDER}"
            )
        for j, a in enumerate(self.values):
            if a == 0 or not math.isfinite(a):
                raise LeaderSelError(f"gain a{j + 1} = {a} must be nonzero and finite")
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


def leader_set(ids, n: int) -> tuple[int, ...]:
    """The node ids ``ids``, read once, sorted and each once; refuses an id
    that is not an integer (a ``bool`` is not one) or lies outside [0, n)."""
    members = set()
    for i in ids:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise GraphError(f"leader id {i!r} is not an integer")
        if not 0 <= i < n:
            raise GraphError(f"leader id {i} outside [0, {n})")
        members.add(int(i))
    return tuple(sorted(members))


def grounded_matrix(graph: Graph, leaders) -> np.ndarray:
    """The graph's Laplacian plus the leader diagonal: L + D_kappa D_S.

    ``leaders`` is an iterable of node ids.
    """
    q = laplacian(graph)
    for v in leader_set(leaders, graph.n):
        q[v, v] += graph.kappa[v]
    return q


# The rational iteration stops once a step moves it by less than this
# fraction: the error is then about its square, a few ulps, for the probes.
_SECULAR_STEP_RTOL = 2.0**-26
# An iteration still moving after this many steps goes straight to bisection.
_SECULAR_MAX_STEPS = 32
# Bytes of one row block of W in ``lambda_star``; each of its few live
# temporaries is at most this size.  Graphs up to 362 nodes are one block.
_ROW_BLOCK_BYTES = 1024 * 1024


@dataclass(frozen=True, eq=False)
class SingletonPhase:
    """Every single-leader quantity from one eigendecomposition L = U diag(lam) U^T.

    Each Q_v = L + kappa_v e_v e_v^T is a rank-one change of L, so with the
    weights W = U o U (W[v, i] = U[v, i]^2) a diagonal (f(L))_vv is W f(lam),
    O(n^2) for all v at once, and lambda_min(Q_v) is a root of the secular
    equation, of which only the least, ``lambda_star``, is read and solved.
    Both are sums over eigenspaces, so neither depends on the basis chosen
    inside a repeated eigenvalue.  The graph is connected, so L has the
    single zero eigenvalue with eigenvector 1/sqrt(n); only the nonzero
    spectrum and its eigenvectors are kept, and the ones direction enters
    every f(L) in closed form.  W is formed only where it is read.
    """

    graph: Graph
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
    def lambda_star(self) -> float:
        """lambda* = min_v lambda_min(Q_v), the one singleton eigenvalue read.

        lambda_min(Q_v) > mu exactly when row v's secular function
        1 + kappa_v (sum_i W_vi / (lam_i - mu) - 1 / (n mu)) is negative at
        mu, so lambda* is where the first row stops being negative.  It lies
        in (0, min(lam_1, min_v kappa_v / n)]: kappa_v / n is the Rayleigh
        quotient of the all-ones vector, and it also closes the bracket for
        n = 1, where there is no lam_1 (lambda* is then kappa_v itself).

        Each step keeps every row's pole at 0 exact and replaces the rest,
        sum_{i>=1} W_vi / (lam_i - mu), by c + t / (lam_1 - mu) matched in
        value and slope at the iterate.  The model bounds the rest from
        above, so its root is at or below the row's, and the least model
        root rises to lambda* from below, quadratically once close.  Every
        sweep narrows one bracket by the sign test of all rows, and an
        iterate outside it (a non-finite model root included) is replaced
        by its midpoint.  Once a step is shorter than ``_SECULAR_STEP_RTOL``
        of the iterate, probes 2^j ulps away close the bracket around
        lambda*; after ``_SECULAR_MAX_STEPS`` steps there are no probes.
        Bisection then shrinks the bracket to two adjacent floats and the
        upper end is returned, so reruns are byte-identical.  When a row's
        weight on lam_1 vanishes the bracket closes at lam_1.

        The rows are swept in blocks of about ``_ROW_BLOCK_BYTES`` of W,
        each formed from U where it is read: memory above the phase stays
        flat in n, and no bit of the result depends on the blocking.
        """
        n, kappa, lam = self.n, self.graph.kappa, self.eigenvalues
        if n == 1:
            return float(kappa[0])
        lam1 = lam[0]
        rows = max(1, _ROW_BLOCK_BYTES // self.vectors[0].nbytes)
        blocks = [slice(start, start + rows) for start in range(0, n, rows)]
        lo, hi = 0.0, float(min(lam1, (kappa / n).min()))

        def sweep(mu, model=False):
            # The sign test of every row at mu narrows (lo, hi]; with
            # ``model`` it also returns the least model root over the rows.
            # The model 1/kappa + c + t/(lam_1 - mu) - 1/(n mu) = 0 times
            # mu (lam_1 - mu) is a mu^2 - b mu + lam_1/n = 0 with a = 1/kappa + c
            # and b = a lam_1 + t + 1/n; its smaller root, free of cancellation.
            nonlocal lo, hi
            d = lam - mu
            below, least = True, np.inf
            for block in blocks:
                q = self.vectors[block] ** 2 / d
                poles = q.sum(axis=1)
                k = kappa[block]
                below = below and bool(np.all(1.0 + k * (poles - 1.0 / (n * mu)) < 0.0))
                if model:
                    slope = (q / d).sum(axis=1)
                    gap = lam1 - mu
                    a = 1.0 / k + poles - slope * gap
                    b = a * lam1 + slope * gap * gap + 1.0 / n
                    root = 2.0 * (lam1 / n) / (b + np.sqrt(b * b - 4.0 * a * lam1 / n))
                    # A non-finite root makes the step a midpoint, never drops out.
                    least = np.minimum(least, root.min() if np.isfinite(root).all() else np.nan)
                elif not below:
                    break
            lo, hi = (mu, hi) if below else (lo, mu)
            return least if model else below

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y = np.float64(0.0)  # a float64, so 1 / (n y) is -inf and not an error
            nxt = sweep(y, model=True)
            for _ in range(_SECULAR_MAX_STEPS):
                if abs(nxt - y) <= _SECULAR_STEP_RTOL * y:
                    # Probe from the estimate, 1, 2, 4, ... ulps toward lambda*,
                    # until the sign flips or the probe leaves the bracket.  An
                    # estimate on a bracket end has its sign already.
                    x = min(max(nxt, lo), hi)
                    below = x <= lo or (x < hi and sweep(x))
                    step = np.spacing(x) if below else -np.spacing(x)
                    while lo < x + step < hi and sweep(x + step) == below:
                        step *= 2.0
                    break
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                y = nxt if lo < nxt < hi else mid
                nxt = sweep(y, model=True)
            while lo < 0.5 * (lo + hi) < hi:
                sweep(0.5 * (lo + hi))
            return float(hi)


def singleton_phase(graph: Graph) -> SingletonPhase:
    """The singleton phase of ``graph``; refuses a disconnected graph.

    Connectivity is decided on the edges, not on the sign of a rounded
    eigenvalue: on a disconnected graph some Q_v is singular, and the
    secular solve would return a tiny positive lambda_min instead.  A graph
    whose edges connect it but whose lambda_1(L) is lost in rounding (say
    two blocks joined by a 1e-20 bridge) is refused as well: eigh mixes
    its near-null eigenvectors, so the phase has no isolated zero to drop.
    """
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
    return SingletonPhase(graph, eigenvalues=lam[1:], vectors=dec.eigenvectors[:, 1:])


@dataclass(frozen=True)
class GroundedSystem:
    """A graph (with its kappa weights), a leader set, and feedback gains.

    The grounded matrix and its eigenvalues are computed lazily, once.
    """

    graph: Graph
    leaders: tuple[int, ...]  # sorted node ids, each once
    gains: GainVector

    @classmethod
    def create(cls, graph: Graph, leaders, gains) -> "GroundedSystem":
        if not isinstance(gains, GainVector):
            gains = GainVector(tuple(gains))
        return cls(graph=graph, leaders=leader_set(leaders, graph.n), gains=gains)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.gains.m

    @cached_property
    def matrix(self) -> np.ndarray:
        return grounded_matrix(self.graph, self.leaders)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return sym_eigenvalues(self.matrix).eigenvalues

    @property
    def lambda_min(self) -> float:
        if not self.leaders:
            raise LeaderSelError("grounded matrix is singular without leaders")
        lam = self.eigenvalues
        noise = self.n * np.finfo(float).eps * lam[-1]  # eigvalsh's rounding error
        if lam[0] <= noise:  # not connectivity_rtol: kappa, absent from L, scales Q_S
            cause = ("Q_S is beyond the eigensolve's resolution, though every component "
                     "has a leader" if is_connected(self.graph, self.leaders)
                     else "a component lacks a leader")
            raise GraphError(f"lambda_min(Q_S) = {lam[0]:.3g} is within rounding of zero (n "
                             f"* eps * lambda_max(Q_S) = {noise:.3g}): {cause}")
        return float(lam[0])
