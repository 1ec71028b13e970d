"""Brute-force reference solvers.

These enumerate the full search space and are exponential; they exist as
*oracles* for the test suite and the Figure-4 style validation benchmarks
(DP vs. brute force on small instances), and to make the optimality claims
of :mod:`repro.core.dp` falsifiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .exceptions import InfeasibleError
from .mapping import Mapping, all_clusterings
from .response import (
    ModuleChain,
    Pricer,
    ResponseReader,
    bottleneck_throughput,
    build_module_chain,
    evaluate_module_chain,
    strip_replication,
    totals_to_allocations,
)
from .task import TaskChain

__all__ = [
    "enumerate_allocations",
    "brute_force_assignment",
    "brute_force_mapping",
    "BruteForceResult",
]


@dataclass
class BruteForceResult:
    totals: list[int]
    clustering: tuple[tuple[int, int], ...]
    throughput: float
    mapping: Mapping
    evaluated: int  # number of allocation vectors examined


def enumerate_allocations(
    minimums: Sequence[int], total: int
) -> Iterator[list[int]]:
    """Yield every allocation vector with ``a[i] >= minimums[i]`` and
    ``sum(a) <= total``."""
    l = len(minimums)

    def rec(i: int, remaining: int, prefix: list[int]):
        if i == l:
            yield list(prefix)
            return
        tail_min = sum(minimums[i + 1 :])
        for p in range(minimums[i], remaining - tail_min + 1):
            prefix.append(p)
            yield from rec(i + 1, remaining - p, prefix)
            prefix.pop()

    if sum(minimums) <= total:
        yield from rec(0, total, [])


def best_allocation(price: Pricer, total_procs: int) -> tuple[list[int], float, int]:
    """The best totals, their throughput and the number of allocations
    priced, enumerating every allocation on any pricer."""
    best_tp, best_totals, n = -1.0, None, 0
    for totals in enumerate_allocations(price.p_min, total_procs):
        n += 1
        tp = bottleneck_throughput(price.responses(totals))
        if tp > best_tp:
            best_tp, best_totals = tp, list(totals)
    if best_totals is None:
        raise InfeasibleError(
            f"no allocation of {total_procs} processors meets minimums {price.p_min}"
        )
    return best_totals, best_tp, n


def brute_force_assignment(
    mchain: ModuleChain, total_procs: int, replication: bool = True
) -> BruteForceResult:
    """Optimal allocation by exhaustive enumeration (test oracle)."""
    if not replication:
        mchain = strip_replication(mchain)
    best_totals, _, n = best_allocation(ResponseReader(mchain, total_procs), total_procs)
    perf = evaluate_module_chain(mchain, totals_to_allocations(mchain, best_totals))
    return BruteForceResult(
        totals=best_totals,
        clustering=mchain.clustering(),
        throughput=perf.throughput,
        mapping=perf.mapping,
        evaluated=n,
    )


def brute_force_mapping(
    chain: TaskChain,
    total_procs: int,
    mem_per_proc_mb: float = float("inf"),
    replication: bool = True,
) -> BruteForceResult:
    """Optimal mapping over *all* clusterings × allocations (test oracle)."""
    best: BruteForceResult | None = None
    evaluated = 0
    for clustering in all_clusterings(len(chain)):
        mchain = build_module_chain(chain, clustering, mem_per_proc_mb)
        if mchain.total_min_procs > total_procs:
            continue
        res = brute_force_assignment(mchain, total_procs, replication)
        evaluated += res.evaluated
        if best is None or res.throughput > best.throughput:
            best = res
    if best is None:
        raise InfeasibleError(
            f"no clustering of {chain.name} fits on {total_procs} processors"
        )
    best.evaluated = evaluated
    return best
