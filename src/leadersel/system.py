"""Gain vectors and the grounded closed-loop system description.

The grounded matrix of (graph, kappa, leaders) is the weighted Laplacian
plus kappa_v on the diagonal for every leader v.  It is positive definite
whenever the graph is connected and the leader set is nonempty, which is
what makes the coherence expressions finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyLeaderSetError, UnsupportedOrderError
from .graphs import Graph, KappaWeights, LeaderSet, laplacian
from .linalg import DEFAULT_TOLS, SpectralDecomposition, spd_inverse, sym_eigenvalues

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
        if any(a == 0 for a in self.values):
            raise UnsupportedOrderError("gains must be nonzero")
        object.__setattr__(self, "values", tuple(float(a) for a in self.values))

    @classmethod
    def of(cls, *values: float) -> "GainVector":
        return cls(tuple(values))

    @property
    def m(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, j: int) -> float:
        return self.values[j]


def grounded_matrix(graph: Graph, kappa: KappaWeights, leaders: LeaderSet) -> np.ndarray:
    """Laplacian plus the leader diagonal: L + D_kappa D_S."""
    if len(kappa) != graph.n:
        raise ValueError(f"kappa length {len(kappa)} != node count {graph.n}")
    leaders.validate(graph.n)
    q = laplacian(graph)
    for v in leaders.members:
        q[v, v] += kappa.values[v]
    return q


def singleton_spectra(graph: Graph, kappa: KappaWeights) -> np.ndarray:
    """Ascending eigenvalues of Q_v for every single leader v, one row per v.

    Each Q_v is built as the Laplacian plus kappa_v at (v, v), the same
    arithmetic as every other grounded matrix, so a row equals the
    spectrum any other path computes for that singleton, bit for bit.
    """
    if len(kappa) != graph.n:
        raise ValueError(f"kappa length {len(kappa)} != node count {graph.n}")
    lap = laplacian(graph)
    out = np.empty((graph.n, graph.n))
    for v in range(graph.n):
        q = lap.copy()
        q[v, v] += kappa.values[v]
        out[v] = sym_eigenvalues(q).eigenvalues
    return out


@dataclass(frozen=True)
class GroundedSystem:
    """A graph with kappa weights, a leader set, and feedback gains.

    Spectral and inverse caches are computed lazily and never mutate;
    deriving a new system (e.g. adding a leader) builds a fresh value.
    """

    graph: Graph
    kappa: KappaWeights
    leaders: LeaderSet
    gains: GainVector
    _shifted_cache: dict = field(default_factory=dict, compare=False, repr=False)

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
        return grounded_matrix(self.graph, self.kappa, self.leaders)

    @cached_property
    def decomposition(self) -> SpectralDecomposition:
        return sym_eigenvalues(self.matrix, DEFAULT_TOLS)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.decomposition.eigenvalues

    @property
    def lambda_min(self) -> float:
        if not self.leaders.members:
            raise EmptyLeaderSetError("grounded matrix is singular without leaders")
        return self.decomposition.smallest

    @cached_property
    def inverse(self) -> np.ndarray:
        if not self.leaders.members:
            raise EmptyLeaderSetError("grounded matrix is singular without leaders")
        return spd_inverse(self.matrix)

    def shifted_inverse(self, coefficient: float) -> np.ndarray:
        """Inverse of (coefficient * Q - I); cached per coefficient."""
        key = float(coefficient)
        cached = self._shifted_cache.get(key)
        if cached is None:
            shifted = key * self.matrix - np.eye(self.n)
            cached = spd_inverse(shifted)
            self._shifted_cache[key] = cached
        return cached
