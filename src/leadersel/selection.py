"""Leader selection: greedy, exhaustive search, and bound checks.

The greedy maximizes the surrogate f(S) = C - rho * H(S).  Because f is
nondecreasing and submodular, the greedy value is within a factor
(1 - 1/e) of optimal; equivalently
H(S_greedy) <= C/(rho e) + (1 - 1/e) H(S_opt).

The greedy has one path.  Round 1 reads every singleton value from the
context's singleton phase (one eigendecomposition of the Laplacian).
Later rounds keep Q_S^-1 (and, when the trace has a shift term, the
shifted inverse (c Q_S - I)^-1) and score every candidate at once in
closed form from a few diagonals of their products; only the chosen
node's rank-one update is applied.  Each round costs O(n^3) and the
whole run O(k n^3).  At the end the maintained inverses are checked
against the grounded matrix, so rank-one drift is refused, not returned.
A naive greedy that rescores every candidate from scratch is kept in
the tests as the named oracle of this path.

Exhaustive search is the independent, eigenvalue-based oracle the greedy
is certified against, so it uses no rank-one scoring.  One sweep over
a graph's subsets, smallest size first, yields the optimum at every
budget 1..k and order: grounded matrices do not depend on the gains, so
each spectrum is solved once.  Sizes after the first are scored in
fixed-size stacks of grounded matrices, one eigensolve per stack, so
memory stays flat.  A per-subset loop is the tests' named oracle of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coherence import SystemContext, normalized_after_rank_one, normalized_eigenvalue_terms
from .errors import CombinatorialCapError
from .linalg import (
    TOLERANCES,
    check_inverse,
    sherman_morrison_update,
    spd_inverse,
    sym_eigenvalues,
)


@dataclass(frozen=True)
class SelectionResult:
    m: int
    chosen: tuple[int, ...]
    f_values: tuple[float, ...]
    h_values: tuple[float, ...]
    evaluations: int
    method: str

    def to_dict(self) -> dict:
        return {
            "order": self.m,
            "chosen": list(self.chosen),
            "f_values": list(self.f_values),
            "h_values": list(self.h_values),
            "evaluations": self.evaluations,
            "method": self.method,
        }


@dataclass(frozen=True)
class BoundCertificate:
    f_star: float
    f_greedy: float
    ratio: float
    bound: float
    holds: bool
    coherence_greedy: float
    coherence_bound: float

    def to_dict(self) -> dict:
        return {
            "f_star": self.f_star,
            "f_greedy": self.f_greedy,
            "ratio": self.ratio,
            "bound": self.bound,
            "holds": self.holds,
            "coherence_greedy": self.coherence_greedy,
            "coherence_bound": self.coherence_bound,
        }


def _tie_eps(scale: float) -> float:
    """Improvement below this threshold counts as a tie (goes to smaller ids).

    Scaled so that mathematically equal candidates, which differ by a few
    ulps between factorizations, never flip the deterministic pick.
    """
    return TOLERANCES.greedy_improvement * max(1.0, abs(scale))


def _improve(items, norms, incumbent: tuple | None = None) -> tuple:
    """The (item, norm) incumbent after scanning in order: only a drop beyond
    ``_tie_eps`` replaces it, so a tie keeps the earlier item."""
    for item, norm in zip(items, norms):
        if incumbent is None or norm < incumbent[1] - _tie_eps(incumbent[1]):
            incumbent = item, norm
    return incumbent


def greedy_select(context: SystemContext, k: int) -> SelectionResult:
    """Greedy leader choice; ties go to the smallest node id.

    Stops early once no candidate improves f by more than
    ``greedy_improvement``.  A budget of 1 returns after the singleton
    round, without forming any inverse.
    """
    if k < 1:
        raise ValueError(f"budget k must be >= 1, got {k}")
    n = context.n
    gains = context.gains
    form = gains.form
    kappa = context.kappa.as_array()
    offset = context.offset

    evaluations = n
    singleton = context.singleton_normalized
    best_v, _ = _improve(range(n), singleton)
    chosen = [best_v]
    f_values = [float(offset - singleton[best_v])]
    h_values = [float(singleton[best_v] / form.rho)]

    if k > 1:  # later rounds score every candidate from the maintained inverses
        q = context.grounded(chosen)
        inv = spd_inverse(q)
        shifted_inv = spd_inverse(form.c * q - np.eye(n)) if form.shift else None
        candidates = np.ones(n, dtype=bool)
        candidates[best_v] = False
        while len(chosen) < min(k, n):
            scores = normalized_after_rank_one(gains, inv, shifted_inv, kappa, candidates).tolist()
            best = None  # (f, v)
            for v in np.flatnonzero(candidates).tolist():
                evaluations += 1
                f_v = offset - scores[v]
                if best is None or f_v > best[0] + _tie_eps(best[0]):
                    best = (f_v, v)
            f_v, v = best
            if f_v - f_values[-1] <= TOLERANCES.greedy_improvement:
                break
            candidates[v] = False
            chosen.append(v)
            f_values.append(float(f_v))
            h_values.append(float(scores[v] / form.rho))
            inv = sherman_morrison_update(inv, v, kappa[v])
            if form.shift:
                shifted_inv = sherman_morrison_update(shifted_inv, v, form.c * kappa[v])
        q = context.grounded(chosen)
        check_inverse(q, inv, "Q_S^-1")
        if form.shift:
            check_inverse(form.c * q - np.eye(n), shifted_inv, "(c Q_S - I)^-1")
    return SelectionResult(
        m=gains.m,
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
        m=context.m,
        chosen=chosen,
        f_values=(float(context.offset - norm),),
        h_values=(float(norm / context.gains.form.rho),),
        evaluations=evaluations,
        method="exhaustive",
    )


# Bytes of grounded matrices per eigensolve stack: 64 matrices at n = 20.
_STACK_BYTES = 200 * 1024


def exhaustive_sweep(
    contexts: list[SystemContext], k: int
) -> tuple[tuple[SelectionResult, ...], ...]:
    """One sweep per context: exact minimizers of coherence over nonempty
    leader sets of size <= j, for every budget j = 1..min(k, n).

    The contexts (say, one per order) share one graph and one kappa, so
    each stack of grounded matrices is built and eigensolved once and
    scored for every context, each against its own incumbent.  Subsets go
    smallest size first, lexicographically within a size, and only strict
    improvements replace an incumbent; entry j - 1 is the incumbent after
    size j.  Size 1 reads each context's singleton values, as the greedy's
    first round does.  Larger sizes are scored in stacks of about
    ``_STACK_BYTES`` (memory flat in the subset count), one eigensolve
    call per stack.  Refuses up front when the subset count exceeds the cap.
    """
    if not contexts:
        raise ValueError("exhaustive sweep needs at least one context")
    first = contexts[0]
    if any(c.graph is not first.graph or c.kappa != first.kappa for c in contexts):
        raise ValueError("exhaustive sweep contexts must share one graph and one kappa")
    if k < 1:
        raise ValueError(f"budget k must be >= 1, got {k}")
    n = first.n
    k_eff = min(k, n)
    total = sum(math.comb(n, j) for j in range(1, k_eff + 1))
    if total > TOLERANCES.subset_cap:
        raise CombinatorialCapError(
            f"{total} subsets exceed the cap of {TOLERANCES.subset_cap}"
        )
    laplacian = first.singleton_phase.laplacian
    kappa = first.kappa.as_array()
    chunk = max(1, _STACK_BYTES // laplacian.nbytes)

    best = [_improve([(v,) for v in range(n)], c.singleton_normalized) for c in contexts]
    evaluations = n
    sweeps = [[_optimum(c, *b, evaluations)] for c, b in zip(contexts, best)]
    for size in range(2, k_eff + 1):
        stack = np.empty((chunk, n, n))
        rows = np.arange(chunk)[:, None]
        subsets = itertools.combinations(range(n), size)
        while batch := list(itertools.islice(subsets, chunk)):
            b = len(batch)
            part = np.array(batch, dtype=np.intp)
            mats = stack[:b]
            mats[...] = laplacian
            mats[rows[:b], part, part] += kappa[part]
            lams = sym_eigenvalues(mats).eigenvalues
            for i, context in enumerate(contexts):
                norms = normalized_eigenvalue_terms(context.gains, lams).tolist()
                best[i] = _improve(batch, norms, best[i])
            evaluations += b
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
    holds = bool(ratio <= bound + 1e-12 and coherence_greedy <= coherence_bound * (1 + 1e-12))
    return BoundCertificate(
        f_star=f_star,
        f_greedy=f_greedy,
        ratio=ratio,
        bound=bound,
        holds=holds,
        coherence_greedy=coherence_greedy,
        coherence_bound=coherence_bound,
    )


@dataclass(frozen=True)
class Violation:
    kind: str
    sets: tuple[tuple[int, ...], ...]
    gap: float


def _mask_bits(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def check_monotone_submodular(
    context: SystemContext | None = None,
    mode: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
    value_fn=None,
    n: int | None = None,
) -> list[Violation]:
    """Check the surrogate's structure numerically; returns violations found.

    Two families of inequalities, each allowed ``submodular_slack`` before
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
    if value_fn is None:
        if context is None:
            raise ValueError("need a context or an explicit value function")
        value_fn = context.set_value
    if n is None:
        if context is None:
            raise ValueError("need a context or an explicit node count")
        n = context.n
    slack = TOLERANCES.submodular_slack

    cache: dict[int, float] = {}

    def value(mask: int) -> float:
        got = cache.get(mask)
        if got is None:
            got = float(value_fn(_mask_bits(mask, n)))
            cache[mask] = got
        return got

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

    if mode == "exhaustive":
        if n > 8:
            raise CombinatorialCapError(f"exhaustive pair check limited to n <= 8, got {n}")
        full = 1 << n
        for a in range(full):
            for b in range(a, full):
                check_pair(a, b)
    elif mode == "sampled":
        rng = np.random.Generator(np.random.PCG64(seed))
        full = 1 << n
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
