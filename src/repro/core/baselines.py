"""Baseline mappings the paper compares against.

* Pure data parallelism (Figure 1a): every task on all ``P`` processors —
  the "Data Parallel Throughput" column of Table 2.
* Replicated data parallelism (Figure 1c): the whole chain as one module,
  replicated maximally subject to memory.
* Even task parallelism (Figure 1b): one task per module, processors split
  evenly.
* The communication-blind assignment of Choudhary et al. [4]: repeatedly
  give a processor to the task with the largest execution time, ignoring
  communication costs entirely (provably optimal when communication is
  free, §3.1) — evaluated here under the *real* cost model to show what
  ignoring communication costs loses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import InfeasibleError
from .mapping import Mapping, singleton_clustering
from .response import (
    MappingPerformance,
    ModuleChain,
    build_module_chain,
    evaluate_module_chain,
    strip_replication,
    totals_to_allocations,
)
from .task import TaskChain

__all__ = [
    "data_parallel",
    "replicated_data_parallel",
    "even_task_parallel",
    "comm_blind_assignment",
]


def data_parallel(
    chain: TaskChain, total_procs: int, mem_per_proc_mb: float = float("inf")
) -> MappingPerformance:
    """Figure 1(a): all tasks time-share all processors, one instance."""
    mchain = build_module_chain(chain, ((0, len(chain) - 1),), mem_per_proc_mb)
    mchain = strip_replication(mchain)
    if mchain.infos[0].p_min > total_procs:
        raise InfeasibleError("chain does not fit on the machine even data-parallel")
    return evaluate_module_chain(mchain, [(total_procs, 1)])


def replicated_data_parallel(
    chain: TaskChain, total_procs: int, mem_per_proc_mb: float = float("inf")
) -> MappingPerformance:
    """Figure 1(c): the whole chain as one module, replicated maximally."""
    mchain = build_module_chain(chain, ((0, len(chain) - 1),), mem_per_proc_mb)
    allocations = totals_to_allocations(mchain, [total_procs])
    return evaluate_module_chain(mchain, allocations)


def even_task_parallel(
    chain: TaskChain, total_procs: int, mem_per_proc_mb: float = float("inf")
) -> MappingPerformance:
    """Figure 1(b): one task per module, processors split as evenly as the
    per-module minimums allow, no replication."""
    k = len(chain)
    mchain = build_module_chain(chain, singleton_clustering(k), mem_per_proc_mb)
    mchain = strip_replication(mchain)
    totals = [info.p_min for info in mchain.infos]
    spare = total_procs - sum(totals)
    if spare < 0:
        raise InfeasibleError(
            f"per-task minimums need {sum(totals)} processors, have {total_procs}"
        )
    i = 0
    while spare > 0:
        totals[i % k] += 1
        i += 1
        spare -= 1
    return evaluate_module_chain(mchain, totals_to_allocations(mchain, totals))


@dataclass
class CommBlindResult:
    totals: list[int]
    performance: MappingPerformance

    @property
    def throughput(self) -> float:
        return self.performance.throughput


def comm_blind_assignment(
    mchain: ModuleChain, total_procs: int, replication: bool = True
) -> CommBlindResult:
    """Choudhary-et-al.-style allocation: give each processor to the module
    with the largest *execution* time (communication ignored), then evaluate
    the result under the full communication-aware model."""
    if not replication:
        mchain = strip_replication(mchain)
    totals = [info.p_min for info in mchain.infos]
    spare = total_procs - sum(totals)
    if spare < 0:
        raise InfeasibleError(
            f"minimums need {sum(totals)} processors, have {total_procs}"
        )

    def exec_only(i: int) -> float:
        from .replication import split_replicas

        info = mchain.infos[i]
        r, s = split_replicas(totals[i], info.p_min, info.replicable)
        return float(info.exec_cost(s)) / r if r else float("inf")

    # The baseline is blind to communication throughout: it also *selects*
    # its best-seen allocation by the execution-only bottleneck.
    best_totals = list(totals)
    best_obj = max(exec_only(i) for i in range(len(mchain)))
    while spare > 0:
        slow = max(range(len(mchain)), key=exec_only)
        totals[slow] += 1
        spare -= 1
        obj = max(exec_only(i) for i in range(len(mchain)))
        if obj < best_obj:
            best_obj, best_totals = obj, list(totals)
    perf = evaluate_module_chain(mchain, totals_to_allocations(mchain, best_totals))
    return CommBlindResult(totals=best_totals, performance=perf)
