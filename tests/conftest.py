import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Literal

import numpy as np
import pytest
from hypothesis import strategies as st

from leadersel.errors import GraphError
from leadersel.graphs import (
    Graph,
    build_graph,
    is_connected,
    six_node_example,
)
from leadersel.linalg import sym_eigenvalues
from leadersel.selection import SelectionResult, _improve
from leadersel.simulate import noise_signs, noise_stream
from leadersel.stability import companion_state_matrix
from leadersel.system import GainVector, grounded_matrix


# Allowed shortfall of each submodularity or monotonicity inequality.
SUBMODULAR_SLACK = 1e-9


def gain_vector(*values: float) -> GainVector:
    """GainVector((a_1, ..., a_m)) spelled as gain_vector(a_1, ..., a_m)."""
    return GainVector(tuple(values))


def scaled_gains(gains, s):
    """Gains for weights and kappa times s: c * lambda is kept and no gain
    shrinks, so the system is the same one in other units.  Order 3 takes
    a1 * s or a3 / s, order 4 a1 * s, a2 * s or a1 / s, a3 / s."""
    a = list(gains.values)
    up, down = {3: ((0,), (2,)), 4: ((0, 1), (0, 2))}.get(len(a), ((), ()))
    for j in up if s > 1 else down:
        a[j] *= max(s, 1 / s)
    return gain_vector(*a)


def state_matrix(system) -> np.ndarray:
    """The nm x nm companion state matrix of a ``GroundedSystem``."""
    return companion_state_matrix(system.matrix, system.gains.values)


def edge_list(g: Graph) -> tuple[tuple[int, int, float], ...]:
    """The canonical (u, v, w) edges of ``g`` as Python tuples."""
    return tuple(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))


def with_kappa(g: Graph, kappa) -> Graph:
    """``g``'s edges with the per-node weights ``kappa`` (a sequence of n floats)."""
    return build_graph(g.n, edge_list(g), kappa=[float(k) for k in kappa])


def loop_build_graph(n, edges, label_base=0):
    """Named oracle for ``build_graph``: validate edge by edge, in input order.

    Returns the canonical edge tuple, or raises the error the first
    offending edge earns, with nodes named in label space.  Endpoints that
    are not all finite integers are refused first, before the node count.
    """
    if not all(float(x).is_integer() for u, v, _ in edges for x in (u, v)):
        raise GraphError("edge node labels must be integers")
    if n < 1:
        raise GraphError("node count must be positive")
    b = label_base
    seen = set()
    canonical = []
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise GraphError(f"self-loop at node {u + b}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(
                f"edge ({u + b}, {v + b}) references a node outside [{b}, {n + b})"
            )
        if not (w > 0 and math.isfinite(w)):
            raise GraphError(
                f"edge ({u + b}, {v + b}) weight {w} must be positive and finite"
            )
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate undirected edge {(key[0] + b, key[1] + b)}")
        seen.add(key)
        canonical.append((key[0], key[1], w))
    return tuple(sorted(canonical))


def loop_is_connected(g: Graph, sources=(0,)) -> bool:
    """Named oracle for ``is_connected``: breadth-first search over adjacency
    lists from the nodes ``sources``."""
    adj = [[] for _ in range(g.n)]
    for u, v, _ in edge_list(g):
        adj[u].append(v)
        adj[v].append(u)
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.n


def bisection_lambda_mins(phase) -> np.ndarray:
    """Named oracle for every lambda_min(Q_v), whose least is
    ``SingletonPhase.lambda_star``: vectorized bisection.

    The root of 1 + kappa_v (sum_i W_vi / (lam_i - mu) - 1 / (n mu)) = 0
    lies in (0, min(lam_1, kappa_v / n)]; about 55 sweeps halve every
    bracket until it is two adjacent floats, and the upper ends are
    returned.  Same sign test and same stop as the production solver,
    which bisects one bracket for all rows.
    """
    n, kappa, w = phase.n, phase.graph.kappa, phase.vectors**2
    lo = np.zeros(n)
    hi = kappa / n
    if n > 1:
        hi = np.minimum(hi, phase.eigenvalues[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            if not np.any((lo < mid) & (mid < hi)):
                return hi
            poles = (w / (phase.eigenvalues - mid[:, None])).sum(axis=1)
            below = 1.0 + kappa * (poles - 1.0 / (n * mid)) < 0.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)


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


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def star(n: int) -> Graph:
    """Node 0 joined to each of the other n - 1 nodes."""
    return build_graph(n, [(0, j, 1.0) for j in range(1, n)])


def barbell(n: int) -> Graph:
    """Two complete graphs on n // 2 and n - n // 2 nodes joined by one edge."""
    half = n // 2
    return build_graph(n, [*edge_list(cliques(half, n - half)), (half - 1, half, 1.0)])


def log_uniform_weights(g: Graph, seed: int) -> Graph:
    """``g`` with each edge weight 10^x, x uniform in [-6, 6] (PCG64 ``seed``)."""
    weights = 10.0 ** np.random.default_rng(seed).uniform(-6, 6, len(g.u))
    return build_graph(g.n, list(zip(g.u.tolist(), g.v.tolist(), weights.tolist())))


def _exact_inverse(m: list) -> list:
    """Gauss-Jordan inverse of a nonsingular matrix of Fractions."""
    n = len(m)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [x / head for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def exact_normalized(context, leaders) -> Fraction:
    """Named oracle of rho * H(S): exact rational arithmetic throughout.

    Edge weights, kappa and the trace weights and c of ``GainVector.form``
    are read as the exact values of their floats; Q_S (and c Q_S - I) are
    inverted by Gauss-Jordan elimination over ``Fraction``.  Meant for
    n <= 12 or so.
    """
    n, form = context.n, context.gains.form
    q = [[Fraction(0)] * n for _ in range(n)]
    for u, v, w in edge_list(context.graph):
        w = Fraction(w)
        q[u][v] -= w
        q[v][u] -= w
        q[u][u] += w
        q[v][v] += w
    for s in leaders:
        q[s][s] += Fraction(float(context.graph.kappa[s]))
    inv = _exact_inverse(q)
    total = Fraction(0)
    if form.tr:
        total += Fraction(form.tr) * sum(inv[i][i] for i in range(n))
    if form.sq:
        total += Fraction(form.sq) * sum(x * x for row in inv for x in row)
    if form.shift:
        c = Fraction(form.c)
        shifted = _exact_inverse([[c * x - int(i == j) for j, x in enumerate(row)]
                                  for i, row in enumerate(q)])
        total += Fraction(form.shift) * sum(
            x * y for row, other in zip(inv, shifted) for x, y in zip(row, other))
    return total


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
    Picks through ``selection._improve`` against the same incumbent, the
    current set's value, so the tie rule, the early stop and the
    ``evaluations`` count are the greedy's.
    """
    n, rho = context.n, context.gains.form.rho
    chosen, f_values, h_values = [], [], []
    incumbent, evaluations = None, 0
    while len(chosen) < min(k, n):
        nodes = [v for v in range(n) if v not in chosen]
        if chosen:
            incumbent = (None, norm)
            norms = [context.normalized_coherence(chosen + [v]) for v in nodes]
        else:
            norms = [context.singleton_normalized[v] for v in nodes]
        evaluations += len(nodes)
        v, norm = _improve(nodes, norms, incumbent)
        if v is None:
            break
        chosen.append(v)
        f_values.append(float(context.offset - norm))
        h_values.append(float(norm / rho))
    return SelectionResult(
        order=context.m,
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
    same pick rule (``selection._improve``, one subset at a time against
    the running incumbent), same ``evaluations`` count; size 1 reads the
    context's singleton values.
    """
    singleton = context.singleton_normalized
    best = None
    evaluations = 0
    for size in range(1, min(k, context.n) + 1):
        for subset in itertools.combinations(range(context.n), size):
            if size == 1:
                norm = singleton[subset[0]]
            else:
                lams = sym_eigenvalues(grounded_matrix(context.graph, subset)).eigenvalues
                norm = loop_normalized(context.gains, lams)
            evaluations += 1
            best = _improve([subset], [norm], best)
    best_subset, best_norm = best
    return SelectionResult(
        order=context.m,
        chosen=best_subset,
        f_values=(float(context.offset - best_norm),),
        h_values=(float(best_norm / context.gains.form.rho),),
        evaluations=evaluations,
        method="exhaustive",
    )


def set_value(context, leaders) -> float:
    """The surrogate the greedy maximizes: f(S) = 0 for empty S, else C - rho * H(S)."""
    if not leaders:
        return 0.0
    return context.offset - context.normalized_coherence(leaders)


@dataclass(frozen=True)
class TraceSetFunction:
    """Generalized surrogate family of the submodularity checks.

    form="product":       C - tr((b1 Q)^-1 (b2 Q - b3 I)^-1)
                          requires b1, b2 > 0, b3 >= 0, b2 lambda_min > b3.
    form="fourth_order":  C - tr(Q^-2 (b1 Q - I) ((b1 - b2) Q - I)^-1)
                          requires b1 > b2 > 0, (b1 - b2) lambda_min > 1.

    With (b1, b2, b3) = (1, 1, 0) the product form is the order-2
    surrogate; (1, a2 a3/a1, 1) gives order 3; the fourth-order form with
    (a3 a4/a2, a1 a4^2/a2^2) gives order 4.  A violated precondition
    raises ValueError.
    """

    graph: Graph
    form: Literal["product", "fourth_order"]
    b1: float
    b2: float
    b3: float = 0.0

    def __post_init__(self) -> None:
        if self.form == "product":
            if self.b1 <= 0 or self.b2 <= 0 or self.b3 < 0:
                raise ValueError("product form needs b1, b2 > 0 and b3 >= 0")
        elif self.form == "fourth_order":
            if not self.b1 > self.b2 > 0:
                raise ValueError("fourth-order form needs b1 > b2 > 0")
        else:
            raise ValueError(f"unknown form {self.form!r}")

    def _trace(self, leaders) -> float:
        lam = sym_eigenvalues(grounded_matrix(self.graph, leaders)).eigenvalues
        b1, b2, b3 = self.b1, self.b2, self.b3
        if self.form == "product":
            if b2 * lam[0] <= b3:
                raise ValueError(f"b2*lambda_min = {b2 * lam[0]:.6g} must exceed b3 = {b3:.6g}")
            return float(np.sum(1.0 / (b1 * lam * (b2 * lam - b3))))
        if (b1 - b2) * lam[0] <= 1.0:
            raise ValueError(f"(b1-b2)*lambda_min = {(b1 - b2) * lam[0]:.6g} must exceed 1")
        return float(np.sum((b1 * lam - 1.0) / (lam**2 * ((b1 - b2) * lam - 1.0))))

    @cached_property
    def offset(self) -> float:
        return 2.0 * max(self._trace([v]) for v in range(self.graph.n))

    def value(self, leaders) -> float:
        if not leaders:
            return 0.0
        return self.offset - self._trace(leaders)


@dataclass(frozen=True)
class Violation:
    kind: str
    sets: tuple[tuple[int, ...], ...]
    gap: float


def _mask_bits(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def check_monotone_submodular(
    value_fn, n: int, mode: str = "exhaustive", samples: int = 200, seed: int = 0
) -> list[Violation]:
    """Check a set function on subsets of n nodes numerically; returns violations found.

    Two families of inequalities, each allowed ``SUBMODULAR_SLACK`` before
    counting as a violation:

    * submodularity   f(A) + f(B) >= f(A | B) + f(A & B)
    * monotonicity    A <= B implies f(A) <= f(B)

    With A = S1 + v and B = S2 for S1 <= S2 and v not in S2, the
    submodularity pair is exactly diminishing returns,
    f(S1 + v) - f(S1) >= f(S2 + v) - f(S2), so no third family is needed.
    Exhaustive mode enumerates all subset pairs (n <= 8 required);
    sampled mode draws ``samples`` random pairs, each also checked against
    their union, plus ``samples`` random diminishing-returns pairs.
    """
    slack = SUBMODULAR_SLACK

    @functools.cache
    def value(mask: int) -> float:
        return float(value_fn(_mask_bits(mask, n)))

    violations: list[Violation] = []

    def record(kind: str, gap: float, *masks: int) -> None:
        violations.append(
            Violation(kind=kind, sets=tuple(_mask_bits(m, n) for m in masks), gap=gap)
        )

    def check_pair(a: int, b: int) -> None:
        gap = value(a) + value(b) - value(a | b) - value(a & b)
        if gap < -slack:
            record("submodularity", gap, a, b)
        if a & b == a and a != b:  # a subset of b
            mono = value(b) - value(a)
            if mono < -slack:
                record("monotonicity", mono, a, b)

    full = 1 << n
    if mode == "exhaustive":
        if n > 8:
            raise ValueError(f"exhaustive pair check limited to n <= 8, got {n}")
        for a in range(full):
            for b in range(a, full):
                check_pair(a, b)
    elif mode == "sampled":
        rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(samples):
            a = int(rng.integers(0, full))
            b = int(rng.integers(0, full))
            check_pair(a, b)
            check_pair(a, a | b)
            bit = 1 << int(rng.integers(0, n))
            s2 = int(rng.integers(0, full)) & ~bit
            s1 = int(rng.integers(0, full)) & s2
            check_pair(s1 | bit, s2)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return violations


def euler_oracle(spec, record_stride=None):
    """Named oracle for ``simulate_coherence``: one Euler-Maruyama step at a time.

    Every run starts at rest and takes x <- (I + dt A) x + sqrt(dt) B xi
    per step, xi being that step's (n, runs) slice of all the simulation's
    signs, drawn at once from the one ``noise_stream``.
    Returns (estimate, standard error, (times, outputs)) with run 0
    recorded every ``record_stride`` steps after the initial state.
    """
    a = state_matrix(spec.system)
    n, nm, runs = spec.system.n, len(a), spec.ensemble
    m_step = np.eye(nm) + spec.dt * a
    signs = noise_signs(noise_stream(spec.seed), np.empty((spec.steps, n, runs)))
    x = np.zeros((nm, runs))
    times, outputs = [0.0], [x[:n, 0].copy()]
    total = np.zeros(runs)
    for step in range(1, spec.steps + 1):
        x = m_step @ x
        x[nm - n:] += np.sqrt(spec.dt) * signs[step - 1]
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
