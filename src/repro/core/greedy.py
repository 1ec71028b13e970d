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
  processors per module under convexity assumptions.  Last in each round
  it splits two processors one each into the bottleneck and one other
  module.  The loop and the search take any ``core.response`` pricer, so
  fork/join graphs run them too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import InfeasibleError
from .mapping import Mapping
from .response import (
    MappingPerformance,
    ModuleChain,
    Pricer,
    ResponseReader,
    bottleneck_throughput,
    evaluate_module_chain,
    strip_replication,
    totals_to_allocations,
)

__all__ = ["GreedyResult", "greedy_assignment"]

#: Round limit of the local search, for chains and fork/join graphs alike.
MAX_BACKTRACK_ROUNDS = 64


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
) -> GreedyResult:
    """Run the §4.1 greedy heuristic on a module chain.

    Raises :class:`InfeasibleError` when even the per-module minimums do not
    fit on the machine.
    """
    if not replication:
        mchain = strip_replication(mchain)
    P = int(total_procs)
    # Probes read the DP's response factors.
    price = ResponseReader(mchain, P)
    totals, trajectory = greedy_loop(price, P, slowest_only)
    return finish_greedy(mchain, price, P, totals, trajectory, backtracking)


def finish_greedy(
    mchain: ModuleChain,
    price: ResponseReader,
    P: int,
    totals: list[int],
    trajectory: list[float],
    backtracking: bool = False,
) -> GreedyResult:
    """The rest of :func:`greedy_assignment` after :func:`greedy_loop`: the
    optional Theorem-2 post-pass, then the scalar pricing of the totals."""
    moves = 0
    if backtracking:
        totals, _, moves = local_search(price, totals, P, trajectory[-1])

    perf = evaluate_module_chain(mchain, totals_to_allocations(mchain, totals))
    return GreedyResult(
        totals=totals,
        performance=perf,
        steps=len(trajectory) - 1,
        trajectory=trajectory,
        backtrack_moves=moves,
    )


def greedy_loop(
    price: Pricer, P: int, slowest_only: bool = False
) -> tuple[list[int], list[float]]:
    """The §4.1 loop on any pricer, from the minimums:
    each processor goes to the bottleneck or one of its ``neighbours``.
    Returns the best totals seen and the best throughput after each step."""
    # Step 1: minimum allocation.
    totals = list(price.p_min)
    spare = P - sum(totals)
    if spare < 0:
        raise InfeasibleError(
            f"modules need at least {sum(totals)} processors, machine has {P}"
        )
    # A step moves one module, so only it and its neighbours are re-priced.
    eff = price.responses(totals)
    best_tp = bottleneck_throughput(eff)
    best_totals = list(totals)
    trajectory = [best_tp]

    # Steps 2-3: hand out one processor at a time.
    while spare > 0:
        slow = max(range(len(eff)), key=eff.__getitem__)
        # Prefer the bottleneck module itself on ties.
        candidates = [slow] if slowest_only else [slow, *price.neighbours(slow)]
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
        if best_c_tp > best_tp:
            best_tp = best_c_tp
            best_totals = list(totals)
        trajectory.append(best_tp)
    return best_totals, trajectory


def local_search(
    price: Pricer, totals: list[int], P: int, best_tp: float
) -> tuple[list[int], float, int]:
    """Bounded hill-climbing over ±1/±2 processor moves between modules.

    Moves considered each round, in this order: for ``d`` = 1 then 2,
    retire ``d`` processors from module ``a`` to the idle pool, shift ``d``
    from ``a`` to module ``b`` (``a != b``), draw ``d`` from the pool into
    ``b``; then split two processors from ``a`` (or the pool) one each
    into the bottleneck module and another module ``c``.  The first strict
    throughput improvement is taken, so the search terminates.  Any pricer
    works; moves are priced by ``price.update``.
    """
    l = len(totals)
    totals = list(totals)
    eff = price.responses(totals)
    spare = P - sum(totals)
    moves = 0
    # A move takes one processor per entry of ``take`` (one module, or the
    # pool when empty) and gives one per entry of ``give``.
    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for d in (1, 2):
        for a in range(l):
            candidates.append(((a,) * d, ()))                         # retire
            candidates += [((a,) * d, (b,) * d) for b in range(l) if b != a]
        candidates += [((), (b,) * d) for b in range(l)]              # draw
    for _ in range(MAX_BACKTRACK_ROUNDS):
        improved = False
        # Parallel bottlenecks (the branches of a fork) only improve
        # together: feed the bottleneck and one other module at once.
        slow = max(range(l), key=eff.__getitem__)
        pairs = [(slow, c) for c in range(l) if c != slow]
        splits = [((a, a), bc) for a in range(l) for bc in pairs if a not in bc]
        splits += [((), bc) for bc in pairs]
        for take, give in (*candidates, *splits):
            if len(give) - len(take) > spare:
                continue
            if take and totals[take[0]] - len(take) < price.p_min[take[0]]:
                continue
            for m in take:
                totals[m] -= 1
            for m in give:
                totals[m] += 1
            probe = price.update(eff, totals, dict.fromkeys(take + give))
            tp = bottleneck_throughput(probe)
            if tp > best_tp * (1 + 1e-12):
                best_tp, eff = tp, probe
                spare = P - sum(totals)
                moves += 1
                improved = True
                break
            for m in take:
                totals[m] += 1
            for m in give:
                totals[m] -= 1
        if not improved:
            break
    return totals, best_tp, moves
