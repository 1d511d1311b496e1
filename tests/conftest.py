import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from leadersel.errors import (
    DuplicateEdgeError,
    NodeOutOfRangeError,
    NonPositiveWeightError,
    SelfLoopError,
)
from leadersel.graphs import Graph, build_graph, is_connected, six_node_example
from leadersel.linalg import TOLERANCES, sym_eigenvalues
from leadersel.selection import SelectionResult, _tie_eps
from leadersel.simulate import noise_stream
from leadersel.stability import build_state_matrices


def edge_list(g: Graph) -> tuple[tuple[int, int, float], ...]:
    """The canonical (u, v, w) edges of ``g`` as Python tuples."""
    return tuple(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))


def loop_build_graph(n, edges, label_base=0):
    """Named oracle for ``build_graph``: validate edge by edge, in input order.

    Returns the canonical edge tuple, or raises the error the first
    offending edge earns, with nodes named in label space.
    """
    if n < 1:
        raise NodeOutOfRangeError("node count must be positive")
    b = label_base
    seen = set()
    canonical = []
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise SelfLoopError(f"self-loop at node {u + b}")
        if not (0 <= u < n and 0 <= v < n):
            raise NodeOutOfRangeError(
                f"edge ({u + b}, {v + b}) references a node outside [{b}, {n + b})"
            )
        if not (w > 0 and math.isfinite(w)):
            raise NonPositiveWeightError(
                f"edge ({u + b}, {v + b}) weight {w} must be positive and finite"
            )
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"duplicate undirected edge {(key[0] + b, key[1] + b)}")
        seen.add(key)
        canonical.append((key[0], key[1], w))
    return tuple(sorted(canonical))


def loop_is_connected(g: Graph) -> bool:
    """Named oracle for ``is_connected``: breadth-first search over adjacency lists."""
    adj = [[] for _ in range(g.n)]
    for u, v, _ in edge_list(g):
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.n


def random_connected_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    """Rejection-sample a connected unit-weight graph."""
    while True:
        edges = [
            (i, j, 1.0)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = build_graph(n, edges)
        if is_connected(g):
            return g


def cliques(*sizes: int) -> Graph:
    """Disjoint complete graphs of the given sizes, numbered consecutively."""
    edges, start = [], 0
    for size in sizes:
        block = range(start, start + size)
        edges += [(i, j, 1.0) for i in block for j in block if i < j]
        start += size
    return build_graph(start, edges)


def cycle(n: int) -> Graph:
    return build_graph(n, [(min(i, (i + 1) % n), max(i, (i + 1) % n), 1.0) for i in range(n)])


@st.composite
def graphs(draw, min_nodes: int = 2, max_nodes: int = 7, connected: bool = True):
    """Unit-weight graph strategy; a random spanning path keeps it connected."""
    n = draw(st.integers(min_nodes, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = {pair for pair, keep in zip(pairs, mask) if keep}
    if connected:
        order = draw(st.permutations(range(n)))
        for a, b in zip(order, order[1:]):
            chosen.add((min(a, b), max(a, b)))
    return build_graph(n, [(u, v, 1.0) for u, v in sorted(chosen)])


def naive_greedy(context, k: int) -> SelectionResult:
    """Named oracle for ``greedy_select``: every candidate rescored from scratch.

    Round 1 reads the context's singleton values, as the greedy does; later
    rounds score S + v with one eigensolve of its grounded matrix each.
    Same tie rule, same early stop, same ``evaluations`` count.
    """
    n, rho = context.n, context.gains.form.rho
    singleton = context.singleton_normalized
    best_v = 0
    for v in range(1, n):
        if singleton[v] < singleton[best_v] - _tie_eps(singleton[best_v]):
            best_v = v
    chosen = [best_v]
    f_values = [float(context.offset - singleton[best_v])]
    h_values = [float(singleton[best_v] / rho)]
    evaluations = n
    while len(chosen) < min(k, n):
        best = None  # (f, v, norm)
        for v in range(n):
            if v in chosen:
                continue
            norm = context.normalized_coherence(chosen + [v])
            evaluations += 1
            f_v = context.offset - norm
            if best is None or f_v > best[0] + _tie_eps(best[0]):
                best = (f_v, v, norm)
        f_v, v, norm = best
        if f_v - f_values[-1] <= TOLERANCES.greedy_improvement:
            break
        chosen.append(v)
        f_values.append(float(f_v))
        h_values.append(float(norm / rho))
    return SelectionResult(
        m=context.m,
        chosen=tuple(chosen),
        f_values=tuple(f_values),
        h_values=tuple(h_values),
        evaluations=evaluations,
        method="greedy",
    )


def loop_normalized(gains, lams) -> float:
    """rho * H from one spectrum: per-eigenvalue terms summed by a Python loop."""
    form = gains.form
    terms = np.zeros(len(lams))
    if form.tr:
        terms += form.tr / lams
    if form.sq:
        terms += form.sq / lams**2
    if form.shift:
        terms += form.shift / (lams * (form.c * lams - 1.0))
    return float(sum(terms.tolist()))


def loop_exhaustive_select(context, k: int) -> SelectionResult:
    """Named oracle for ``exhaustive_sweep``: one eigensolve per subset.

    Same enumeration (smallest size first, lexicographic within a size),
    same strict-improvement tie rule, same ``evaluations`` count; size 1
    reads the context's singleton values.
    """
    singleton = context.singleton_normalized
    best_norm = None
    best_subset = None
    evaluations = 0
    for size in range(1, min(k, context.n) + 1):
        for subset in itertools.combinations(range(context.n), size):
            if size == 1:
                norm = singleton[subset[0]]
            else:
                lams = sym_eigenvalues(context.grounded(subset)).eigenvalues
                norm = loop_normalized(context.gains, lams)
            evaluations += 1
            if best_norm is None or norm < best_norm - _tie_eps(best_norm):
                best_norm = norm
                best_subset = subset
    return SelectionResult(
        m=context.m,
        chosen=best_subset,
        f_values=(float(context.offset - best_norm),),
        h_values=(float(best_norm / context.gains.form.rho),),
        evaluations=evaluations,
        method="exhaustive",
    )


def euler_oracle(spec, record_stride=None, x0=None, noise=True):
    """Named oracle for ``simulate_coherence``: one Euler-Maruyama step at a time.

    Every run takes x <- (I + dt A) x + sqrt(dt) B xi per step, drawing
    xi from its own ``noise_stream`` one step at a time.  Returns
    (estimate, standard error, (times, outputs)) with run 0 recorded
    every ``record_stride`` steps after the initial state.
    """
    a = build_state_matrices(spec.system).a
    n, nm, runs = spec.system.n, len(a), spec.ensemble
    m_step = np.eye(nm) + spec.dt * a
    gens = [noise_stream(spec.seed, r) for r in range(runs)]
    start = np.zeros(nm) if x0 is None else np.asarray(x0, dtype=float)
    x = np.repeat(start[:, None], runs, axis=1)
    times, outputs = [0.0], [x[:n, 0].copy()]
    total = np.zeros(runs)
    for step in range(1, spec.steps + 1):
        x = m_step @ x
        if noise:
            xi = np.column_stack([g.standard_normal(n) for g in gens])
            x[nm - n:] += np.sqrt(spec.dt) * xi
        if step > spec.burn_steps:
            total += (x[:n] ** 2).sum(axis=0)
        if record_stride and step % record_stride == 0:
            times.append(step * spec.dt)
            outputs.append(x[:n, 0].copy())
    estimates = total / (spec.steps - spec.burn_steps)
    stderr = float(estimates.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    return float(estimates.mean()), stderr, (np.asarray(times), np.asarray(outputs))


@pytest.fixture(scope="session")
def six_node():
    return six_node_example()
