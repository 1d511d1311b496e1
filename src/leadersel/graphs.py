"""Graph data model, Laplacian construction, random graphs, and file I/O.

A ``Graph`` is its node count, three read-only edge arrays, ``u < v``
(``intp``) and ``w``, sorted by (u, v), and the read-only per-node
absolute-feedback weights ``kappa`` (unit unless given).  ``build_graph``
validates and canonicalizes an edge list and kappa in one vectorized
pass; every reader, writer and consumer indexes the arrays directly.

Node ids are 0-based everywhere inside the package.  Graph files carry a
``label_base`` field (default 1) so published examples keep their original
node labels; the I/O layer translates between the two, and error messages
about a file's edges name its nodes in that label space.

Randomness contract: the Erdos-Renyi sampler uses NumPy's PCG64 generator
seeded directly with the given 64-bit seed, and draws exactly one uniform
variate per unordered pair (i, j), i < j, in lexicographic order.  The
edge set is therefore bit-reproducible for a fixed (n, p, seed).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GraphError, LeaderSelError, SchemaError


@dataclass(frozen=True, eq=False)
class Graph:
    """Edge i joins ``u[i] < v[i]`` with weight ``w[i]``, and node v carries the
    absolute-feedback weight ``kappa[v]`` (its diagonal coupling when it leads);
    build it with ``build_graph``."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    kappa: np.ndarray


def build_graph(n: int, edges: Sequence | np.ndarray, label_base: int = 0,
                kappa: list | None = None) -> Graph:
    """Validate and canonicalize (u, v, w) triples, or an (E, 3) table, and
    ``kappa``, a list of n numbers (None: unit kappa), into a Graph.

    Raises GraphError for the first offending edge in input order: a
    self-loop, an out-of-range node, a weight that is not positive and
    finite, or a repeated edge, checked in that order; a repeated edge
    offends at its second occurrence.
    Messages name nodes as id + ``label_base``, the label space of the
    file the edges came from.  Kappa is checked after the edges: a
    SchemaError for an entry that is not a number, then a GraphError for
    the wrong length or the first weight that is not positive and finite.
    """
    if n < 1:
        raise GraphError("node count must be positive")
    table = np.asarray(edges, dtype=float)
    if table.shape != (0,) and table.shape[1:] != (3,):
        raise ValueError("edges must be (u, v, w) triples")
    table = table.reshape(-1, 3)
    u, v, w = np.trunc(table[:, 0]), np.trunc(table[:, 1]), table[:, 2]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    self_loop = u == v
    out_of_range = ~((lo >= 0) & (hi < n))
    bad_weight = ~((w > 0) & np.isfinite(w))
    # lo * n + hi is exact and one-to-one on in-range edges (n < 2**26); a key
    # shared with an out-of-range edge marks the later one, never an earlier offender
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(w), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    bad = self_loop | out_of_range | bad_weight | repeat
    if bad.any():
        i = int(np.argmax(bad))
        u, v = int(u[i]) + label_base, int(v[i]) + label_base
        if self_loop[i]:
            raise GraphError(f"self-loop at node {u}")
        if out_of_range[i]:
            raise GraphError(
                f"edge ({u}, {v}) references a node outside [{label_base}, {n + label_base})"
            )
        if bad_weight[i]:
            raise GraphError(
                f"edge ({u}, {v}) weight {float(w[i])} must be positive and finite"
            )
        raise GraphError(f"duplicate undirected edge {(min(u, v), max(u, v))}")
    kappa = np.ones(n) if kappa is None else _numbers(kappa, "kappa")
    if kappa.shape != (n,):
        raise GraphError("kappa must be a list of length n")
    if (bad := ~((kappa > 0) & np.isfinite(kappa))).any():
        k = float(kappa[np.argmax(bad)])
        raise GraphError(f"kappa weight {k} must be positive and finite")
    g = Graph(n=n, u=lo[order].astype(np.intp), v=hi[order].astype(np.intp), w=w[order],
              kappa=kappa)
    for column in (g.u, g.v, g.w, g.kappa):
        column.flags.writeable = False
    return g


def laplacian(g: Graph) -> np.ndarray:
    """Dense weighted Laplacian: degree on the diagonal, -w on edges."""
    lap = np.zeros((g.n, g.n))
    lap[g.u, g.v] = lap[g.v, g.u] = -g.w
    # bincount adds in index order over (u0, v0, u1, v1, ...): each degree
    # is summed in edge order, exactly as an edge-by-edge loop would
    lap[np.diag_indices(g.n)] = np.bincount(
        np.column_stack((g.u, g.v)).ravel(), weights=np.repeat(g.w, 2), minlength=g.n
    )
    return lap


def is_connected(g: Graph, sources=(0,)) -> bool:
    """Whether every node is reachable from ``sources`` (node ids): breadth-first,
    one frontier at a time.  From node 0 it says whether ``g`` is connected."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj[g.u, g.v] = adj[g.v, g.u] = True
    seen = frontier = np.bincount(sources, minlength=g.n) > 0
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())


def erdos_renyi(n: int, p: float, seed: int, weight: float = 1.0) -> Graph:
    """Sample G(n, p) with equal edge weights.

    One uniform draw per pair (i, j), i < j, in lexicographic order, from
    PCG64(seed); the pair is included iff the draw is < p.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p={p} outside [0, 1]")
    if n < 1:
        raise GraphError("node count must be positive")
    if seed < 0:
        raise GraphError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows, cols = np.triu_indices(n, 1)  # pairs in lexicographic order
    keep = rng.random(n * (n - 1) // 2) < p
    weights = np.full(np.count_nonzero(keep), weight)
    return build_graph(n, np.column_stack((rows[keep], cols[keep], weights)))


MAX_RESAMPLES = 1000


def erdos_renyi_connected(n: int, p: float, seed: int, weight: float = 1.0) -> tuple[Graph, int]:
    """Sample G(n, p) conditioned on connectivity.

    Disconnected samples are rejected and redrawn with the seed offset by
    +1 each time, at most ``MAX_RESAMPLES`` times.  Returns
    (graph, resample_count).
    """
    for offset in range(MAX_RESAMPLES + 1):
        g = erdos_renyi(n, p, seed + offset, weight)
        if is_connected(g):
            return g, offset
    raise GraphError(
        f"no connected sample within {MAX_RESAMPLES} resamples (n={n}, p={p})"
    )


# -- file format: README "Graph file format", data/schemas/graph.schema.json.
# Serialization is canonical (fixed key order, sorted edges), so identical
# graphs produce byte-identical files.


@dataclass(frozen=True)
class GraphFile:
    """A parsed graph file: the graph (its kappa included) and the label offset."""

    graph: Graph
    label_base: int

    def to_label(self, node_id: int) -> int:
        return node_id + self.label_base

    def to_id(self, label: int) -> int:
        return label - self.label_base


def graph_payload(g: Graph, label_base: int = 1) -> dict:
    return {
        "label_base": label_base,
        "n": g.n,
        # json writes the (u, v, w) tuples as lists, already in canonical order
        "edges": list(zip((g.u + label_base).tolist(), (g.v + label_base).tolist(), g.w.tolist())),
        "kappa": g.kappa.tolist(),
    }


def write_graph(g: Graph, path: str | Path, label_base: int = 1) -> None:
    """Write the canonical JSON form of ``g`` to ``path``."""
    Path(path).write_text(json.dumps(graph_payload(g, label_base)) + "\n")


def _integer(value: object, field: str) -> int:
    """An integer, NumPy's included, or a float with no fractional part; not a bool."""
    whole = isinstance(value, (int, np.integer)) or (
        isinstance(value, float) and value.is_integer()
    )
    if whole and not isinstance(value, bool):
        return int(value)
    raise SchemaError(f"{field} must be an integer, got {value!r}")


_JSON_TYPES = {bool: "boolean", type(None): "null", str: "string", dict: "object", list: "array"}


def _numbers(raw: object, field: str, width: int | None = None) -> np.ndarray:
    """A JSON list of numbers as a float array, or with ``width`` a list of
    ``width``-long lists of numbers as a (rows, width) array.

    Anything else is refused, booleans included (a numeric cast would
    read ``true`` as 1), so entry types are checked before any cast.
    """
    if not isinstance(raw, list):
        raise SchemaError(f"{field} must be a list of numbers")
    leaves = raw
    if width is not None:
        if set(map(type, raw)) - {list} or set(map(len, raw)) - {width}:
            raise SchemaError(f"each entry of {field} must be a list of {width} numbers")
        leaves = list(itertools.chain.from_iterable(raw))
    other = set(map(type, leaves)) - {int, float}
    if other:
        names = sorted(_JSON_TYPES.get(t, t.__name__) for t in other)
        raise SchemaError(f"{field} must be a list of numbers, got {', '.join(names)}")
    try:
        values = np.fromiter(leaves, dtype=float, count=len(leaves))
    except OverflowError as exc:  # an integer beyond float range
        raise SchemaError(f"{field}: {exc}") from exc
    return values if width is None else values.reshape(-1, width)


def parse_graph_payload(payload: object) -> GraphFile:
    """Validate a decoded graph file against ``data/schemas/graph.schema.json``."""
    fields = set(payload) if isinstance(payload, dict) else set()
    if not {"n", "edges"} <= fields <= {"label_base", "n", "edges", "kappa"}:
        raise SchemaError(f"graph fields {sorted(fields)} are not n, edges[, label_base, kappa]")
    label_base = _integer(payload.get("label_base", 1), "label_base")
    n = _integer(payload["n"], "n")
    table = _numbers(payload["edges"], "edges", width=3)
    ends = table[:, :2]
    if not (np.isfinite(ends) & (np.trunc(ends) == ends)).all():
        raise SchemaError("edge node labels must be integers")
    ends -= label_base  # a view: turns the table's labels into node ids
    try:
        return GraphFile(build_graph(n, table, label_base, payload.get("kappa")), label_base)
    except GraphError as exc:
        raise SchemaError(str(exc)) from exc


def read_graph_file(path: str | Path) -> GraphFile:
    """Parse a graph file, keeping the label offset for round-tripping."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise LeaderSelError(f"{path}: {exc}") from exc
    return parse_graph_payload(payload)


def six_node_example() -> GraphFile:
    """The bundled six-node demo network (labels 1..6).

    Its best single leader differs between first-order dynamics (label 2)
    and second/third-order dynamics (label 4).
    """
    path = Path(__file__).parent / "data" / "six_node_example.json"
    return read_graph_file(path)
