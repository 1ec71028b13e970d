"""Latency optimisation and the latency/throughput frontier.

The paper optimises throughput; its companion work (Vondran's thesis, ref
[14]: "Optimization of latency, throughput and processors for pipelines of
data parallel tasks") treats latency.  We implement that extension: the
*latency* of a mapping is the end-to-end time for one data set,

    L = Σ_i f_exec_i(s_i)  +  Σ_boundaries f_ecom(s_i, s_{i+1})

(replication never reduces latency — one data set visits one instance).

``optimal_latency_assignment`` minimises ``L`` by a min-*sum* dynamic
program with the same state structure as the throughput DP of
:mod:`repro.core.dp`; an optional ``max_response`` constraint masks states
whose effective response exceeds a throughput target, which
``throughput_latency_frontier`` sweeps to trace the Pareto frontier.
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

__all__ = [
    "LatencyResult",
    "optimal_latency_assignment",
    "throughput_latency_frontier",
]

#: How many p_next planes the transition processes per chunk.
_PN_CHUNK = 8


@dataclass
class LatencyResult:
    totals: list[int]
    performance: MappingPerformance
    latency: float

    @property
    def mapping(self) -> Mapping:
        return self.performance.mapping

    @property
    def throughput(self) -> float:
        return self.performance.throughput


def optimal_latency_assignment(
    mchain: ModuleChain,
    total_procs: int,
    replication: bool = False,
    max_response: float | None = None,
) -> LatencyResult:
    """Minimise one-data-set latency, optionally subject to a throughput
    floor (``max_response`` bounds every module's effective response).

    Replication defaults off because it cannot reduce latency; enabling it
    only matters together with ``max_response``.
    """
    if not replication:
        mchain = strip_replication(mchain)
    l = len(mchain)
    P = int(total_procs)
    if mchain.total_min_procs > P:
        raise InfeasibleError(
            f"modules need {mchain.total_min_procs} processors, machine has {P}"
        )

    pt_idx = np.arange(P + 1)[:, None, None]
    q_idx = np.arange(P + 1)[None, :, None]
    pl_idx = np.arange(P + 1)[None, None, :]

    V_prev = None
    argmin_tables: list[np.ndarray | None] = []
    for j in range(l):
        # Incoming communication plus execution over (q, pl); outgoing
        # communication is attributed to the next module, so each boundary
        # is counted once.  Past the first module the q = 0 ("no previous
        # module") row only ever meets V_prev's +inf row.
        lat = mchain.response_parts(j, P)[0]
        if max_response is not None:
            resp = mchain.response_tensor(j, P)  # (q, pl, pn)
            lat3 = np.where(resp <= max_response, lat[:, :, None], np.inf)
        else:
            lat3 = np.broadcast_to(lat[:, :, None], (P + 1, P + 1, P + 1))
        if j == 0:
            base = lat3[0]  # (pl, pn)
            over_budget = (
                np.arange(P + 1)[None, :, None] > np.arange(P + 1)[:, None, None]
            )  # (pt, pl, 1)
            V = np.where(over_budget, np.inf, base[None, :, :])
            argmin_tables.append(None)
            V_prev = V
            continue
        src = pt_idx - pl_idx
        valid = src >= 0
        W = np.where(valid, V_prev[np.clip(src, 0, P), q_idx, pl_idx], np.inf)
        V = np.empty((P + 1, P + 1, P + 1))
        Q = np.empty((P + 1, P + 1, P + 1), dtype=np.int32)
        with np.errstate(invalid="ignore"):
            for lo in range(0, P + 1, _PN_CHUNK):
                hi = min(lo + _PN_CHUNK, P + 1)
                T = W[:, :, :, None] + lat3[None, :, :, lo:hi]
                T = np.where(np.isnan(T), np.inf, T)
                Q[:, :, lo:hi] = np.argmin(T, axis=1)
                V[:, :, lo:hi] = np.min(T, axis=1)
        argmin_tables.append(Q)
        V_prev = V

    final = V_prev[P, :, 0]
    best_pl = int(np.argmin(final))
    best_val = float(final[best_pl])
    if not np.isfinite(best_val):
        raise InfeasibleError("no feasible latency assignment")
    totals = [0] * l
    totals[l - 1] = best_pl
    pt, pl, pn = P, best_pl, 0
    for j in range(l - 1, 0, -1):
        q = int(argmin_tables[j][pt, pl, pn])
        totals[j - 1] = q
        pt, pl, pn = pt - pl, q, pl
    perf = evaluate_module_chain(mchain, totals_to_allocations(mchain, totals))
    return LatencyResult(totals=totals, performance=perf, latency=perf.latency)


def throughput_latency_frontier(
    mchain: ModuleChain,
    total_procs: int,
    points: int = 12,
    replication: bool = True,
) -> list[tuple[float, float]]:
    """Trace (throughput, latency) Pareto points.

    Sweeps ``max_response`` targets between the latency-optimal and the
    throughput-optimal operating points, returning non-dominated
    ``(throughput, min latency)`` pairs sorted by increasing throughput.
    """
    from .dp import optimal_assignment

    tp_opt = optimal_assignment(mchain, total_procs, replication=replication)
    lat_opt = optimal_latency_assignment(mchain, total_procs, replication=False)
    resp_hi = max(lat_opt.performance.effective_responses)
    resp_lo = 1.0 / tp_opt.throughput
    if resp_hi <= resp_lo:
        return [(tp_opt.throughput, tp_opt.performance.latency)]
    targets = np.geomspace(resp_lo, resp_hi, points)
    frontier: list[tuple[float, float]] = []
    # The §3.2 rule *forces* maximal replication, which trades latency for
    # throughput; sweep both with and without it so neither end of the
    # frontier is lost.
    modes = [False, True] if replication else [False]
    for tau in targets:
        for rep in modes:
            try:
                res = optimal_latency_assignment(
                    mchain, total_procs, replication=rep, max_response=float(tau)
                )
            except InfeasibleError:
                continue
            frontier.append((res.throughput, res.latency))
    frontier.sort()
    pruned: list[tuple[float, float]] = []
    best_lat = float("inf")
    for tp, lat in sorted(frontier, key=lambda x: -x[0]):
        if lat < best_lat - 1e-15:
            pruned.append((tp, lat))
            best_lat = lat
    pruned.sort()
    return pruned
