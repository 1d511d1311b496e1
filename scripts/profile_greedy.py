#!/usr/bin/env python3
"""Compare incremental vs naive greedy runtimes over growing graphs.

The incremental path keeps the grounded inverse (and the shifted inverse
for orders 3-4) updated with rank-one formulas and scores every candidate
of a round in closed form; the naive path refactorizes per candidate.

Both paths start from the singleton phase (one eigensolve per node),
which is timed on its own.  Each phase runs on a fresh SystemContext, so
neither greedy run reuses singleton values cached by the other.
"""

import argparse
import sys
import time

from leadersel.coherence import SystemContext
from leadersel.graphs import erdos_renyi_connected, unit_kappa
from leadersel.selection import greedy_select
from leadersel.stability import auto_gains


def timed_greedy(graph, kappa, gains, k, incremental):
    """(singleton-phase seconds, greedy-round seconds, result) on a fresh context."""
    ctx = SystemContext(graph=graph, kappa=kappa, gains=gains)
    start = time.perf_counter()
    _ = ctx.offset  # fills the singleton spectra and traces
    t_singletons = time.perf_counter() - start
    start = time.perf_counter()
    result = greedy_select(ctx, k, incremental=incremental)
    return t_singletons, time.perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="20,40,80", help="comma-separated node counts")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--order", type=int, default=3, choices=(1, 2, 3, 4))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for n in (int(tok) for tok in args.sizes.split(",")):
        graph, _ = erdos_renyi_connected(n, 0.5, args.seed)
        kappa = unit_kappa(n)
        gains = auto_gains(graph, kappa, args.order)
        t_single, t_fast, fast = timed_greedy(graph, kappa, gains, args.k, True)
        _, t_slow, slow = timed_greedy(graph, kappa, gains, args.k, False)
        assert fast.chosen == slow.chosen
        print(f"n={n:4d}: singletons {t_single:.3f}s, rounds: incremental {t_fast:.3f}s, "
              f"naive {t_slow:.3f}s, picks {list(fast.chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
