"""Greedy processor-assignment heuristic (paper §4.1).

``Greedy(T, P)``: start every module at its minimum processor count, then —
while processors remain — find the module with the longest effective
response time and award one processor to whichever of {its predecessor,
itself, its successor} yields the best new throughput; remember the best
assignment ever seen (adding a processor can *hurt*, since overhead terms
grow with partition size).  Complexity ``O(P k)``.

Variants:

* ``slowest_only`` — always add to the bottleneck module itself; provably
  optimal when communication time increases monotonically with the
  processor counts involved (Theorem 1).
* ``backtracking`` — a bounded local-search post-pass moving one or two
  processors between modules (or parking them idle), motivated by
  Theorem 2's guarantee that plain greedy overallocates by at most two
  processors per module under convexity assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import InfeasibleError
from .mapping import Mapping
from .response import (
    MappingPerformance,
    ModuleChain,
    ResponseReader,
    bottleneck_throughput,
    evaluate_module_chain,
    strip_replication,
    totals_to_allocations,
)

__all__ = ["GreedyResult", "greedy_assignment"]


@dataclass
class GreedyResult:
    """Outcome of the greedy assignment."""

    totals: list[int]
    performance: MappingPerformance
    steps: int                         # processors handed out
    trajectory: list[float]            # best throughput after each step
    backtrack_moves: int               # accepted local-search improvements

    @property
    def mapping(self) -> Mapping:
        return self.performance.mapping

    @property
    def throughput(self) -> float:
        return self.performance.throughput


def greedy_assignment(
    mchain: ModuleChain,
    total_procs: int,
    replication: bool = True,
    slowest_only: bool = False,
    backtracking: bool = False,
    max_backtrack_rounds: int = 64,
) -> GreedyResult:
    """Run the §4.1 greedy heuristic on a module chain.

    Raises :class:`InfeasibleError` when even the per-module minimums do not
    fit on the machine.
    """
    if not replication:
        mchain = strip_replication(mchain)
    l = len(mchain)
    P = int(total_procs)

    # Step 1: minimum allocation.
    minimums = [info.p_min for info in mchain.infos]
    if sum(minimums) > P:
        raise InfeasibleError(
            f"modules need at least {sum(minimums)} processors, machine has {P}"
        )
    totals = list(minimums)
    spare = P - sum(totals)

    # Probes read the DP's response factors; a step moves one module, so
    # only it and its neighbours are re-read.
    price = ResponseReader(mchain, P)
    eff = price.responses(totals)
    best_tp = bottleneck_throughput(eff)
    best_totals = list(totals)
    trajectory = [best_tp]
    steps = 0

    # Steps 2-3: hand out one processor at a time.
    while spare > 0:
        slow = max(range(l), key=eff.__getitem__)
        if slowest_only:
            candidates = [slow]
        else:
            # Prefer the bottleneck module itself on ties.
            candidates = [slow]
            if slow > 0:
                candidates.append(slow - 1)
            if slow < l - 1:
                candidates.append(slow + 1)
        best_c, best_c_tp, best_c_eff = candidates[0], -1.0, eff
        for c in candidates:
            totals[c] += 1
            probe = price.update(eff, totals, (c,))
            totals[c] -= 1
            tp = bottleneck_throughput(probe)
            if tp > best_c_tp:
                best_c, best_c_tp, best_c_eff = c, tp, probe
        totals[best_c] += 1
        eff = best_c_eff
        spare -= 1
        steps += 1
        if best_c_tp > best_tp:
            best_tp = best_c_tp
            best_totals = list(totals)
        trajectory.append(best_tp)

    totals = best_totals
    moves = 0
    if backtracking:
        totals, best_tp, moves = _local_search(
            price, totals, P, best_tp, max_backtrack_rounds
        )

    perf = evaluate_module_chain(mchain, totals_to_allocations(mchain, totals))
    return GreedyResult(
        totals=totals,
        performance=perf,
        steps=steps,
        trajectory=trajectory,
        backtrack_moves=moves,
    )


def _local_search(
    price: ResponseReader,
    totals: list[int],
    P: int,
    best_tp: float,
    max_rounds: int,
) -> tuple[list[int], float, int]:
    """Bounded hill-climbing over ±1/±2 processor moves between modules.

    Moves considered each round: shift ``d ∈ {1, 2}`` processors from module
    ``a`` to module ``b`` (``a != b``), retire ``d`` processors from ``a``
    to the idle pool, or draw ``d`` from the pool into ``b``.  Only strict
    throughput improvements are accepted, so the search terminates.
    """
    l = len(totals)
    totals = list(totals)
    eff = price.responses(totals)
    spare = P - sum(totals)
    moves = 0
    for _ in range(max_rounds):
        improved = False
        candidates: list[tuple[int | None, int | None, int]] = []
        for d in (1, 2):
            for a in range(l):
                candidates.append((a, None, d))          # retire to pool
                for b in range(l):
                    if a != b:
                        candidates.append((a, b, d))      # shift a -> b
            for b in range(l):
                candidates.append((None, b, d))          # draw from pool
        for a, b, d in candidates:
            if a is not None and totals[a] - d < price.p_min[a]:
                continue
            if a is None and spare < d:
                continue
            if a is not None:
                totals[a] -= d
            if b is not None:
                totals[b] += d
            probe = price.update(
                eff, totals, [m for m in (a, b) if m is not None]
            )
            tp = bottleneck_throughput(probe)
            if tp > best_tp * (1 + 1e-12):
                best_tp, eff = tp, probe
                spare = P - sum(totals)
                moves += 1
                improved = True
                break
            # undo
            if a is not None:
                totals[a] += d
            if b is not None:
                totals[b] -= d
        if not improved:
            break
    return totals, best_tp, moves
