"""Processor sizing: the fewest processors meeting performance targets.

The companion work the paper cites ([14], "Optimization of latency,
throughput and processors for pipelines of data parallel tasks") treats
*processors* as an objective, not just a bound: given a required service
rate (a radar must keep up with its antenna; a video pipeline with its
camera), how small a machine suffices?

``min_processors_for_throughput`` answers that for a fixed clustering by a
min-budget dynamic program over the same state space as the throughput DP:
the value of ``B_j[pl, pn]`` is the minimum total allocation to modules
``1..j`` such that every response stays within the throughput target.
``sizing_curve`` sweeps targets to produce the processors-vs-throughput
trade-off curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleError
from .mapping import Mapping
from .response import (
    MappingPerformance,
    ModuleChain,
    evaluate_module_chain,
    strip_replication,
    totals_to_allocations,
)

__all__ = ["SizingResult", "min_processors_for_throughput", "sizing_curve"]


@dataclass
class SizingResult:
    totals: list[int]
    processors: int
    performance: MappingPerformance
    target_throughput: float

    @property
    def mapping(self) -> Mapping:
        return self.performance.mapping

    @property
    def throughput(self) -> float:
        return self.performance.throughput


def min_processors_for_throughput(
    mchain: ModuleChain,
    target_throughput: float,
    max_procs: int,
    replication: bool = True,
) -> SizingResult:
    """Minimum-processor allocation achieving ``target_throughput``.

    Searches allocations up to ``max_procs`` (the largest machine worth
    considering); raises :class:`InfeasibleError` when no allocation within
    that bound meets the target.
    """
    if target_throughput <= 0:
        raise InfeasibleError("target throughput must be positive")
    if not replication:
        mchain = strip_replication(mchain)
    l = len(mchain)
    P = int(max_procs)
    tau = 1.0 / target_throughput

    # B[pl, pn] = min total processors for modules 0..j, module j holding
    # pl, module j+1 holding pn, all effective responses <= tau.
    INF = np.iinfo(np.int64).max // 4
    B_prev: np.ndarray | None = None
    choice: list[np.ndarray | None] = []

    for j in range(l):
        R = mchain.response_tensor(j, P)  # (q, pl, pn)
        ok = R <= tau
        if j == 0:
            B = np.full((P + 1, P + 1), INF, dtype=np.int64)
            pls = np.arange(P + 1)
            feasible = ok[0]  # (pl, pn)
            B[feasible] = np.broadcast_to(pls[:, None], (P + 1, P + 1))[feasible]
            choice.append(None)
            B_prev = B
            continue
        # B[pl, pn] = min over q with ok[q, pl, pn] of B_prev[q, pl] + pl
        cand = np.where(ok, B_prev[:, :, None], INF)  # (q, pl, pn)
        q_star = np.argmin(cand, axis=0)              # (pl, pn)
        B = np.min(cand, axis=0)
        pls = np.arange(P + 1)[:, None]
        B = np.where(B < INF, B + pls, INF)
        choice.append(q_star)
        B_prev = B

    final = B_prev[:, 0]  # pn = 0: no next module
    best_pl = int(np.argmin(final))
    best = int(final[best_pl])
    if best >= INF or best > P:
        raise InfeasibleError(
            f"no allocation of <= {P} processors reaches "
            f"{target_throughput:.4g} data sets/s"
        )
    totals = [0] * l
    totals[l - 1] = best_pl
    pl, pn = best_pl, 0
    for j in range(l - 1, 0, -1):
        q = int(choice[j][pl, pn])
        totals[j - 1] = q
        pl, pn = q, pl
    perf = evaluate_module_chain(mchain, totals_to_allocations(mchain, totals))
    return SizingResult(
        totals=totals,
        processors=sum(totals),
        performance=perf,
        target_throughput=target_throughput,
    )


def sizing_curve(
    mchain: ModuleChain,
    max_procs: int,
    points: int = 10,
    replication: bool = True,
) -> list[SizingResult]:
    """Processors needed across a sweep of throughput targets.

    Targets span from the single-minimum-allocation throughput up to the
    machine's optimum; the returned list is ordered by rising target.
    """
    from .dp import optimal_assignment

    top = optimal_assignment(mchain, max_procs, replication=replication)
    floor_chain = mchain if replication else strip_replication(mchain)
    minimums = [info.p_min for info in mchain.infos]
    floor_perf = evaluate_module_chain(
        floor_chain, totals_to_allocations(floor_chain, minimums)
    )
    lo = floor_perf.throughput
    hi = top.throughput
    if hi <= lo:
        return [
            min_processors_for_throughput(mchain, hi, max_procs, replication)
        ]
    targets = np.geomspace(lo, hi, points)
    out = []
    for t in targets:
        try:
            out.append(
                min_processors_for_throughput(
                    mchain, float(t) * (1 - 1e-12), max_procs, replication
                )
            )
        except InfeasibleError:
            continue
    return out
