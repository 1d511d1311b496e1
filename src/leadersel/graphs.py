"""Graph data model, Laplacian construction, random graphs, and file I/O.

Node ids are 0-based everywhere inside the package.  Graph files carry a
``label_base`` field (default 1) so published examples keep their original
node labels; the I/O layer translates between the two.

Randomness contract: the Erdos-Renyi sampler uses NumPy's PCG64 generator
seeded directly with the given 64-bit seed, and draws exactly one uniform
variate per unordered pair (i, j), i < j, in lexicographic order.  The
edge set is therefore bit-reproducible for a fixed (n, p, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    InvalidProbabilityError,
    NodeOutOfRangeError,
    NonPositiveWeightError,
    ParseError,
    SchemaError,
    SelfLoopError,
)

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph with validated, canonically ordered edges.

    ``edges`` stores each undirected edge once as (u, v, w) with u < v,
    sorted lexicographically, so structural equality is plain ``==``.
    """

    n: int
    edges: tuple[Edge, ...]

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class KappaWeights:
    """Positive per-node absolute-feedback weights (diagonal coupling to leaders)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        for k in self.values:
            if not (k > 0 and math.isfinite(k)):
                raise NonPositiveWeightError(f"kappa weight {k} must be positive and finite")

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)


def unit_kappa(n: int) -> KappaWeights:
    return KappaWeights((1.0,) * n)


@dataclass(frozen=True)
class LeaderSet:
    """Set of leader node ids (0-based, duplicates collapse)."""

    members: frozenset[int]

    @classmethod
    def of(cls, ids: Iterable[int]) -> "LeaderSet":
        return cls(frozenset(int(i) for i in ids))

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def validate(self, n: int) -> None:
        for i in self.members:
            if not 0 <= i < n:
                raise NodeOutOfRangeError(f"leader id {i} outside [0, {n})")

    def __len__(self) -> int:
        return len(self.members)


def build_graph(n: int, edges: Sequence[tuple[int, int, float]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Raises SelfLoopError, DuplicateEdgeError, NonPositiveWeightError, or
    NodeOutOfRangeError on the corresponding invariant violation.
    """
    if n < 1:
        raise NodeOutOfRangeError("node count must be positive")
    seen: set[tuple[int, int]] = set()
    canonical: list[Edge] = []
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise NodeOutOfRangeError(f"edge ({u}, {v}) references a node outside [0, {n})")
        if not (w > 0 and math.isfinite(w)):
            raise NonPositiveWeightError(f"edge ({u}, {v}) weight {w} must be positive and finite")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"duplicate undirected edge {key}")
        seen.add(key)
        canonical.append((key[0], key[1], w))
    canonical.sort()
    return Graph(n=n, edges=tuple(canonical))


def laplacian(g: Graph) -> np.ndarray:
    """Dense weighted Laplacian: degree on the diagonal, -w on edges."""
    lap = np.zeros((g.n, g.n))
    table = np.array(g.edges, dtype=float).reshape(-1, 3)
    ends = table[:, :2].astype(np.intp)
    weights = table[:, 2]
    lap[ends[:, 0], ends[:, 1]] = -weights
    lap[ends[:, 1], ends[:, 0]] = -weights
    # bincount adds in index order: each degree is summed in edge order,
    # exactly as an edge-by-edge loop would
    lap[np.diag_indices(g.n)] = np.bincount(
        ends.ravel(), weights=np.repeat(weights, 2), minlength=g.n
    )
    return lap


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from node 0."""
    if g.n == 1:
        return True
    adj = g.neighbors()
    seen = {0}
    frontier = [0]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.n


def erdos_renyi(n: int, p: float, seed: int, weight: float = 1.0) -> Graph:
    """Sample G(n, p) with equal edge weights.

    One uniform draw per pair (i, j), i < j, in lexicographic order, from
    PCG64(seed); the pair is included iff the draw is < p.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError(f"p={p} outside [0, 1]")
    if n < 1:
        raise NodeOutOfRangeError("node count must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows, cols = np.triu_indices(n, 1)  # pairs in lexicographic order
    keep = rng.random(n * (n - 1) // 2) < p
    edges = [(i, j, weight) for i, j in zip(rows[keep].tolist(), cols[keep].tolist())]
    return build_graph(n, edges)


def erdos_renyi_connected(
    n: int,
    p: float,
    seed: int,
    weight: float = 1.0,
    max_resamples: int = 1000,
) -> tuple[Graph, int]:
    """Sample G(n, p) conditioned on connectivity.

    Disconnected samples are rejected and redrawn with the seed offset by
    +1 each time.  Returns (graph, resample_count).
    """
    for offset in range(max_resamples + 1):
        g = erdos_renyi(n, p, seed + offset, weight)
        if is_connected(g):
            return g, offset
    raise InvalidProbabilityError(
        f"no connected sample within {max_resamples} resamples (n={n}, p={p})"
    )


# -- file format -----------------------------------------------------------
#
# {"label_base": 1, "n": 6, "edges": [[1, 5, 1.0], ...], "kappa": [1.0, ...]}
#
# Edges are stored with u < v in label space and sorted lexicographically;
# serialization is canonical (fixed key order, sorted edges), so identical
# graphs produce byte-identical files.


@dataclass(frozen=True)
class GraphFile:
    """A parsed graph file: the graph, kappa weights, and the label offset."""

    graph: Graph
    kappa: KappaWeights
    label_base: int

    def to_label(self, node_id: int) -> int:
        return node_id + self.label_base

    def to_id(self, label: int) -> int:
        return label - self.label_base


def graph_payload(g: Graph, kappa: KappaWeights, label_base: int = 1) -> dict:
    if len(kappa) != g.n:
        raise SchemaError(f"kappa length {len(kappa)} != node count {g.n}")
    edges = sorted(
        [u + label_base, v + label_base, float(w)] for u, v, w in g.edges
    )
    return {
        "label_base": label_base,
        "n": g.n,
        "edges": edges,
        "kappa": [float(k) for k in kappa.values],
    }


def write_graph(g: Graph, kappa: KappaWeights, path: str | Path, label_base: int = 1) -> None:
    """Write the canonical JSON form of (graph, kappa) to ``path``."""
    payload = graph_payload(g, kappa, label_base)
    Path(path).write_text(json.dumps(payload) + "\n")


def parse_graph_payload(payload: object) -> GraphFile:
    if not isinstance(payload, dict):
        raise SchemaError("graph file must be a JSON object")
    try:
        label_base = int(payload.get("label_base", 1))
        n = int(payload["n"])
        raw_edges = payload["edges"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"missing or malformed field: {exc}") from exc
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list")
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise SchemaError(f"edge entry must be [u, v, w]: {entry!r}")
        u, v, w = entry
        edges.append((int(u) - label_base, int(v) - label_base, float(w)))
    raw_kappa = payload.get("kappa")
    if raw_kappa is None:
        kappa_values = (1.0,) * n
    else:
        if not isinstance(raw_kappa, list) or len(raw_kappa) != n:
            raise SchemaError("kappa must be a list of length n")
        kappa_values = tuple(float(k) for k in raw_kappa)
    try:
        graph = build_graph(n, edges)
        kappa = KappaWeights(kappa_values)
    except (
        SelfLoopError,
        DuplicateEdgeError,
        NonPositiveWeightError,
        NodeOutOfRangeError,
    ) as exc:
        raise SchemaError(str(exc)) from exc
    return GraphFile(graph=graph, kappa=kappa, label_base=label_base)


def read_graph_file(path: str | Path) -> GraphFile:
    """Parse a graph file, keeping the label offset for round-tripping."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return parse_graph_payload(payload)


def read_graph(path: str | Path) -> tuple[Graph, KappaWeights]:
    gf = read_graph_file(path)
    return gf.graph, gf.kappa


def six_node_example() -> GraphFile:
    """The bundled six-node demo network (labels 1..6).

    Its best single leader differs between first-order dynamics (label 2)
    and second/third-order dynamics (label 4).
    """
    path = Path(__file__).parent / "data" / "six_node_example.json"
    return read_graph_file(path)
