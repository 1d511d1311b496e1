"""Leader selection: greedy, exhaustive search, and bound checks.

The greedy maximizes the surrogate f(S) = C - rho * H(S).  Because f is
nondecreasing and submodular, the greedy value is within a factor
(1 - 1/e) of optimal; equivalently
H(S_greedy) <= C/(rho e) + (1 - 1/e) H(S_opt).

The greedy has one path, on the context's singleton phase (one
eigendecomposition of L): round 1 reads the singleton values, later
rounds score every candidate at once with ``WoodburyScorer``, O(n |S|^2)
per round and no n x n inverse.  One eigensolve of the chosen set's
grounded matrix then confirms the final value, or the run is refused.
A naive greedy that rescores every candidate from scratch is the tests'
named oracle of this path.

Every pick, greedy or exhaustive, goes through ``_improve``: only a drop
in rho * H beyond ``greedy_improvement`` times the incumbent's value
replaces it, so the picks do not depend on the units of the weights.
A greedy round's incumbent is the current set, and keeping it ends the run.

Exhaustive search is the independent, eigenvalue-based oracle the greedy
is certified against, so it uses no rank-one scoring.  One sweep over
a graph's subsets, smallest size first, yields the optimum at every
budget 1..k and order: grounded matrices do not depend on the gains, so
each spectrum is solved once.  Sizes after the first are scored in
fixed-size stacks of grounded matrices, so memory stays flat.  Where a
size has two stacks or more, a second thread solves every other stack
while the calling thread solves and scores in subset order, so the
result does not depend on the threads.  A per-subset loop is the tests'
named oracle of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coherence import SystemContext, WoodburyScorer, normalized_eigenvalue_terms
from .errors import LeaderSelError
from .graphs import laplacian
from .linalg import TOLERANCES, _sym_eigen, sym_eigenvalues
from .system import grounded_matrix, resolved_lambda_min


@dataclass(frozen=True)
class SelectionResult:
    """Fields in the order of ``select.schema.json``'s result record."""

    order: int
    chosen: tuple[int, ...]
    f_values: tuple[float, ...]
    h_values: tuple[float, ...]
    evaluations: int
    method: str


@dataclass(frozen=True)
class BoundCertificate:
    f_star: float
    f_greedy: float
    ratio: float
    bound: float
    holds: bool
    coherence_greedy: float
    coherence_bound: float


def _tie_eps(value: float) -> float:
    """A drop in rho * H below this counts as a tie (goes to the earlier item).

    Relative to the value, so the picks do not depend on the units of the
    weights, and wide enough that mathematically equal candidates, which
    differ by a few ulps between factorizations, never flip the pick.
    """
    return TOLERANCES.greedy_improvement * abs(value)


def _improve(items, norms, incumbent: tuple | None = None) -> tuple:
    """The (item, norm) incumbent after scanning in order: only a drop beyond
    ``_tie_eps`` replaces it, so a tie keeps the earlier item."""
    bar = None if incumbent is None else incumbent[1] - _tie_eps(incumbent[1])
    for item, norm in zip(items, norms):
        if bar is None or norm < bar:
            incumbent, bar = (item, norm), norm - _tie_eps(norm)
    return incumbent


def _require_confirmed(context: SystemContext, leaders: list[int], norm: float) -> None:
    """Refuse rho * H(S) = ``norm`` unless Q_S's lambda_min is resolved and an
    eigensolve agrees within ``woodbury_rtol`` times the closed form's condition number."""
    lams = sym_eigenvalues(grounded_matrix(context.graph, leaders)).eigenvalues
    lam_min = resolved_lambda_min(lams, context.graph, leaders)
    exact = float(normalized_eigenvalue_terms(context.gains, lams))
    form = context.gains.form
    cond = lams[-1] / lam_min
    if form.shift:
        cond *= max(1.0, 1.0 / (form.c * lam_min - 1.0))
    if not abs(norm - exact) <= TOLERANCES.woodbury_rtol * max(1.0, cond) * exact:
        raise LeaderSelError(f"greedy value {norm!r} of {len(leaders)} leaders disagrees "
                             f"with the eigensolve's {exact!r} (condition number {cond:.3g})")


def greedy_select(context: SystemContext, k: int) -> SelectionResult:
    """Greedy leader choice; ties go to the smallest node id.

    Each round picks through ``_improve`` against rho * H(S) of the current
    set, so the run stops early once no candidate lowers it beyond
    ``_tie_eps``.  More than one pick ends with one confirming eigensolve.
    """
    if k < 1:
        raise ValueError(f"budget k must be >= 1, got {k}")
    n, rho = context.n, context.gains.form.rho
    budget = min(k, n)
    candidates = np.ones(n, dtype=bool)
    scores, incumbent, scorer = np.asarray(context.singleton_normalized), None, None
    chosen, f_values, h_values = [], [], []
    evaluations = 0
    while len(chosen) < budget:
        if chosen:  # later rounds are scored from the singleton phase
            if scorer is None:
                scorer = WoodburyScorer(context, budget - 1)
            scorer.add(chosen[-1])
            scores = scorer.scores(candidates)
            incumbent = (None, norm)
        nodes = np.flatnonzero(candidates)
        evaluations += len(nodes)
        v, norm = _improve(nodes.tolist(), scores[nodes].tolist(), incumbent)
        if v is None:
            break
        candidates[v] = False
        chosen.append(v)
        f_values.append(float(context.offset - norm))
        h_values.append(float(norm / rho))
    if len(chosen) > 1:
        _require_confirmed(context, chosen, norm)
    return SelectionResult(
        order=context.m,
        chosen=tuple(chosen),
        f_values=tuple(f_values),
        h_values=tuple(h_values),
        evaluations=evaluations,
        method="greedy",
    )


def _optimum(
    context: SystemContext, chosen: tuple[int, ...], norm: float, evaluations: int
) -> SelectionResult:
    return SelectionResult(
        order=context.m,
        chosen=chosen,
        f_values=(float(context.offset - norm),),
        h_values=(float(norm / context.gains.form.rho),),
        evaluations=evaluations,
        method="exhaustive",
    )


# Bytes of grounded matrices per eigensolve stack: 64 matrices at n = 20.
# The sweep keeps two such buffers, one per solving thread.
_STACK_BYTES = 200 * 1024


def _stack_eigenvalues(stack: np.ndarray, lap: np.ndarray, kappa: np.ndarray,
                       batch: list[tuple[int, ...]]) -> np.ndarray:
    """Eigenvalues of the grounded matrices of ``batch``'s subsets, built in ``stack``.

    Only numpy and ``linalg._sym_eigen``: it calls no public function of
    the package, so the sweep's worker thread may run it.
    """
    b = len(batch)
    part = np.array(batch, dtype=np.intp)
    mats = stack[:b]
    mats[...] = lap
    mats[np.arange(b)[:, None], part, part] += kappa[part]
    return _sym_eigen(mats).eigenvalues


def _stack_spectra(pool, stacks: np.ndarray, lap: np.ndarray, kappa: np.ndarray, size: int):
    """Yield (subsets, eigenvalues) per stack of ``size``-subsets, in subset order.

    The stacks go in pairs: the ``pool``'s one worker builds and solves
    the second in ``stacks[1]`` while the calling thread does the first
    in ``stacks[0]``, so the caller scores the first while the worker may
    still be solving.  A stack with no partner is solved by the caller
    alone, and nothing is submitted.
    """
    subsets = itertools.combinations(range(lap.shape[0]), size)
    chunk = stacks.shape[1]
    while batch := list(itertools.islice(subsets, chunk)):
        partner = list(itertools.islice(subsets, chunk))
        ahead = pool.submit(_stack_eigenvalues, stacks[1], lap, kappa, partner) if partner else None
        yield batch, _stack_eigenvalues(stacks[0], lap, kappa, batch)
        if ahead is not None:
            yield partner, ahead.result()


def exhaustive_sweep(
    contexts: list[SystemContext], k: int
) -> tuple[tuple[SelectionResult, ...], ...]:
    """One sweep per context: exact minimizers of coherence over nonempty
    leader sets of size <= j, for every budget j = 1..min(k, n).

    The contexts (say, one per order) share one graph, kappa included, so
    each stack of grounded matrices is built and eigensolved once and
    scored for every context, each against its own incumbent.  Subsets go
    smallest size first, lexicographically within a size, and only strict
    improvements replace an incumbent; entry j - 1 is the incumbent after
    size j.  Size 1 reads each context's singleton values, as the greedy's
    first round does.  Larger sizes are built and solved in stacks of about
    ``_STACK_BYTES`` (memory flat in the subset count).  When some size
    has two stacks or more, the one worker of a thread pool solves every
    second stack of a size while the calling thread solves the one before
    it, and the caller scores them all in subset order, so the picks,
    values and counts do not depend on the threads.  Refuses up front
    when the subset count exceeds the cap.
    """
    if not contexts:
        raise ValueError("exhaustive sweep needs at least one context")
    first = contexts[0]
    if any(c.graph is not first.graph for c in contexts):
        raise ValueError("exhaustive sweep contexts must share one graph")
    if k < 1:
        raise ValueError(f"budget k must be >= 1, got {k}")
    n = first.n
    k_eff = min(k, n)
    total = sum(math.comb(n, j) for j in range(1, k_eff + 1))
    if total > TOLERANCES.subset_cap:
        raise LeaderSelError(
            f"{total} subsets exceed the cap of {TOLERANCES.subset_cap}"
        )
    lap = laplacian(first.graph)
    chunk = max(1, _STACK_BYTES // lap.nbytes)

    best = [_improve([(v,) for v in range(n)], c.singleton_normalized) for c in contexts]
    evaluations = n
    sweeps = [[_optimum(c, *b, evaluations)] for c, b in zip(contexts, best)]
    # concurrent.futures imports logging: importing it here keeps it out of CLI start-up
    from concurrent.futures import ThreadPoolExecutor

    # The pool starts its worker at the first submit, so a sweep whose
    # sizes each fit one stack starts no thread; np.empty leaves the
    # unused second buffer's pages untouched.
    with ThreadPoolExecutor(max_workers=1) as pool:
        stacks = np.empty((2, chunk, n, n))
        for size in range(2, k_eff + 1):
            for batch, lams in _stack_spectra(pool, stacks, lap, first.graph.kappa, size):
                for i, context in enumerate(contexts):
                    norms = normalized_eigenvalue_terms(context.gains, lams).tolist()
                    best[i] = _improve(batch, norms, best[i])
                evaluations += len(batch)
            for sweep, context, b in zip(sweeps, contexts, best):
                sweep.append(_optimum(context, *b, evaluations))
    return tuple(tuple(sweep) for sweep in sweeps)


def exhaustive_select(context: SystemContext, k: int) -> SelectionResult:
    """Exact minimizer of coherence over nonempty leader sets of size <= k:
    the last entry of the one-context ``exhaustive_sweep``."""
    return exhaustive_sweep([context], k)[0][-1]


def certify_bound(
    context: SystemContext, greedy: SelectionResult, optimal: SelectionResult
) -> BoundCertificate:
    """Compare a greedy result against the exact optimum at the same budget
    and check both guarantees."""
    f_greedy = float(greedy.f_values[-1])
    f_star = float(optimal.f_values[-1])
    ratio = (f_star - f_greedy) / f_star if f_star > 0 else 0.0
    bound = 1.0 / math.e
    rho = context.gains.form.rho
    coherence_bound = float(
        context.offset / (rho * math.e) + (1.0 - 1.0 / math.e) * optimal.h_values[-1]
    )
    coherence_greedy = float(greedy.h_values[-1])
    slack = TOLERANCES.greedy_improvement
    holds = bool(ratio <= bound + slack and coherence_greedy <= coherence_bound * (1 + slack))
    return BoundCertificate(
        f_star=f_star,
        f_greedy=f_greedy,
        ratio=ratio,
        bound=bound,
        holds=holds,
        coherence_greedy=coherence_greedy,
        coherence_bound=coherence_bound,
    )
