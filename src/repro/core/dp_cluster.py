"""Optimal mapping with clustering + replication + allocation (paper §3.3).

:func:`optimal_mapping` runs one of two algorithms, picked by the chain's
length (:data:`EXHAUSTIVE_MAX_TASKS`).

:func:`exhaustive_mapping`
    Enumerates all ``2**(k-1)`` contiguous clusterings and runs the §3.1/§3.2
    assignment DP on each that might win.  Provably optimal; the paper's own
    footnote (§4.2) notes exhaustive clustering is practical for small
    ``k``, and every chain in the paper's evaluation has ``k <= 4``.  A
    branch and bound: a per-module lower bound on the effective response
    at each total, read off the cached exec tables and grid minima, leaves
    each module a set of admissible totals, and a clustering whose smallest
    admissible totals already overrun the machine cannot reach the bar.
    The bar is the best priced throughput found so far and, given one, the
    caller's ``incumbent`` — a throughput some mapping of the chain already
    reaches, e.g. the §4 heuristic's.  The result is bit-identical to
    solving every clustering (an unreachable incumbent falls back to the
    clusterings it skipped); only the number of DPs run changes.

:func:`bisect_mapping`
    A polynomial-time algorithm in the spirit of the paper's Lemma 2
    (``O(P^4 k^2)`` there): bisection on the bottleneck response ``τ``
    around a feasibility dynamic program over module *segments*.  A state is
    (segment of the last module, its total allocation ``p``, the instance
    size ``sp`` of the module before it); its value is the minimum number of
    processors consumed so far, subject to every completed module's
    effective response being at most ``τ``.  Each feasibility check costs
    ``O(k^3 P^3)`` vectorised operations and the bisection adds a
    ``log(1/ε)`` factor; the returned mapping is exact (it is re-evaluated
    analytically), with optimality certified to relative tolerance
    :data:`BISECT_TOL`.

Both fold in replication via the §3.2 effective-processor rule, memory
constraints via per-segment minimum processor counts and instance sizes
via one mask per solve; both read segments through a :class:`SegmentCache`
and agree with the brute-force oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dp import optimal_assignment
from .exceptions import InfeasibleError
from .mapping import Mapping, all_clusterings
from .replication import effective_tables
from .response import (
    MappingPerformance,
    ModuleInfo,
    SegmentCache,
    evaluate_module_chain,
    strip_replication,
    totals_to_allocations,
)
from .task import TaskChain

__all__ = ["ClusteredResult", "bisect_mapping", "exhaustive_mapping",
           "optimal_mapping"]

#: Longest chain :func:`optimal_mapping` solves by exhaustive search.
EXHAUSTIVE_MAX_TASKS = 12
#: Relative tolerance to which :func:`bisect_mapping` certifies the optimum.
BISECT_TOL = 1e-9
#: Relative margin over the smallest DP value within which
#: :func:`exhaustive_mapping` prices a clustering's result.  A DP value and
#: the priced bottleneck response sum the same non-negative costs, so they
#: differ by a few ulps; a result further out cannot price as high.
PRICE_MARGIN = 1e-9


@dataclass
class ClusteredResult:
    """Outcome of the clustering + allocation optimisation."""

    clustering: tuple[tuple[int, int], ...]
    totals: list[int]
    performance: MappingPerformance
    method: str
    clusterings_examined: int

    @property
    def mapping(self) -> Mapping:
        return self.performance.mapping

    @property
    def throughput(self) -> float:
        return self.performance.throughput


def optimal_mapping(
    chain: TaskChain,
    total_procs: int,
    mem_per_proc_mb: float = float("inf"),
    replication: bool = True,
    instance_size_ok=None,
    cache: SegmentCache | None = None,
    incumbent: float | None = None,
) -> ClusteredResult:
    """Find the throughput-optimal mapping of ``chain`` onto ``total_procs``.

    Chains of up to :data:`EXHAUSTIVE_MAX_TASKS` tasks are solved by
    :func:`exhaustive_mapping`, longer ones by :func:`bisect_mapping`; the
    result's ``method`` names the one that ran.  ``instance_size_ok``
    optionally restricts the per-instance processor counts any module may
    use (e.g. to rectangular subarray sizes, §6.1): a callable
    ``f(size: int) -> bool``.

    ``cache`` (a :class:`SegmentCache` bound to the same chain and memory
    limit) lets a caller that solves repeatedly — notably the
    fault-tolerance :class:`~repro.core.remap.RemapPlanner` re-solving on
    ever-smaller machines — share segment tensors across solves.  A
    mismatched cache is ignored.

    ``incumbent`` is a throughput some mapping of ``chain`` already reaches
    on at most ``total_procs`` processors (the heuristic's, or the mapping
    currently deployed).  The exhaustive search runs the DP only on
    clusterings that might reach it and that might win against the best
    result found so far: a clustering after the running winner in
    enumeration order must beat its throughput strictly, one before it
    need only tie.  ``clusterings_examined`` counts the DPs that ran.  The
    returned mapping is the same, bit for bit, for any incumbent: if no
    result reaches it, the clusterings it alone skipped are solved too.
    Bisection ignores ``incumbent``.
    """
    args = (chain, total_procs, mem_per_proc_mb, replication,
            instance_size_ok, cache)
    if len(chain) <= EXHAUSTIVE_MAX_TASKS:
        return exhaustive_mapping(*args, incumbent)
    return bisect_mapping(*args)


def _size_mask(total_procs: int, instance_size_ok):
    """``instance_size_ok`` over sizes ``0..total_procs``, or ``None``."""
    if instance_size_ok is None:
        return None
    return np.array(
        [instance_size_ok(s) for s in range(total_procs + 1)], dtype=bool
    )


def _feasible_tables(info: ModuleInfo, total_procs: int, replication: bool,
                     ok_size):
    """``(r, s, feasible)`` of one module over totals ``0..total_procs``:
    instance count and size, zeroed where the total is unusable."""
    r, s = effective_tables(
        total_procs, info.p_min, replication and info.replicable
    )
    feasible = r > 0
    if ok_size is not None:
        feasible = feasible & ok_size[s]
        r = np.where(feasible, r, 0)
        s = np.where(feasible, s, 0)
    return r, s, feasible


def _totals_filter(mchain, total_procs: int, replication: bool, ok_size):
    """The per-module allowed-totals mask under an instance-size mask."""
    if ok_size is None:
        return None
    masks = [_feasible_tables(info, total_procs, replication, ok_size)[2]
             for info in mchain.infos]
    return lambda i: masks[i]


# ---------------------------------------------------------------------------
# Exhaustive clustering × assignment DP
# ---------------------------------------------------------------------------


def _may_reach(mchain, total_procs: int, incumbent: float) -> bool:
    """Can some allocation of ``mchain`` reach throughput ``incumbent``?

    A ``False`` is a proof that every allocation of at most ``total_procs``
    processors has throughput strictly below ``incumbent``; an
    instance-size mask only removes allocations, so the proof holds under
    one too.  Module ``j`` can only hold the totals whose throughput bound
    (:meth:`~repro.core.response.ModuleChain.throughput_bound`) reaches
    ``incumbent`` — the comparison ``throughput`` itself makes — and the
    smallest of them must fit on the machine together.

    To ask whether a clustering can *beat* a throughput ``T`` strictly,
    pass ``math.nextafter(T, math.inf)``: a ``False`` then proves that
    every allocation prices at most ``T``.
    """
    P = total_procs
    floor = 0
    for j in range(len(mchain)):
        admissible = mchain.throughput_bound(j, P) >= incumbent
        first = int(admissible.argmax())
        if not admissible[first]:
            return False
        floor += first
        if floor > P:
            return False
    return True


@lru_cache(maxsize=None)
def _clusterings(k: int) -> tuple:
    """:func:`~repro.core.mapping.all_clusterings` of ``k`` tasks, kept."""
    return tuple(all_clusterings(k))


class _Podium:
    """The running winner of an exhaustive search.

    :meth:`add` takes ``(enumeration index, clustering, DPResult)`` entries
    in any order; :attr:`best` is then the one with the highest priced
    throughput, ties going to the first clustering in enumeration order.
    Only results whose DP value lies within :data:`PRICE_MARGIN` of the
    smallest added so far are priced; any other prices strictly below the
    smallest's.  The margin's cut only falls, so a result it leaves out
    never comes back.
    """

    __slots__ = ("best", "cut", "low", "priced")

    def __init__(self):
        self.best = None
        self.low = math.inf
        self.cut = math.inf
        self.priced = []

    def add(self, entry) -> None:
        value = entry[2].bottleneck_response
        if value < self.low:
            # A new smallest DP value narrows the cut: re-admit the priced.
            self.low, self.cut = value, value * (1.0 + PRICE_MARGIN)
            kept, self.priced, self.best = self.priced, [], None
            for old in kept:
                self.add(old)
        elif value > self.cut:
            return
        self.priced.append(entry)
        self._consider(entry)

    def _consider(self, entry) -> None:
        best = self.best
        if best is None or entry[2].throughput > best[2].throughput or (
            entry[2].throughput == best[2].throughput and entry[0] < best[0]
        ):
            self.best = entry

    def bar(self, at: int) -> float | None:
        """The throughput the clustering at enumeration index ``at`` must
        reach to win — the winner's, one ulp up when ``at`` comes after the
        winner's (a tie goes to the winner) — or ``None`` if it has none."""
        if self.best is None:
            return None
        won_at, _, res = self.best
        target = res.throughput
        if not target > 0:
            return None
        return math.nextafter(target, math.inf) if at > won_at else target


def exhaustive_mapping(
    chain: TaskChain,
    total_procs: int,
    mem_per_proc_mb: float = float("inf"),
    replication: bool = True,
    instance_size_ok=None,
    cache: SegmentCache | None = None,
    incumbent: float | None = None,
) -> ClusteredResult:
    """The optimum over every clustering, one assignment DP each.

    Arguments as for :func:`optimal_mapping`; a non-positive ``incumbent``
    is ignored.

    A branch and bound: the best DP result so far (:class:`_Podium`) bars
    every clustering still to come.  Before its DP, the clustering at
    enumeration index ``at`` is dropped when :func:`_may_reach` proves it
    cannot win against the running winner's priced throughput ``T`` — at
    ``math.nextafter(T, math.inf)`` when ``at`` comes after the winner's
    index, since it must beat ``T`` strictly, and at ``T`` when it comes
    before, since a tie goes to it.  A dropped clustering is never solved.
    The caller's ``incumbent`` bars clusterings the same way but
    provisionally: those it alone skips are solved after all if no result
    reaches it.  ``clusterings_examined`` counts the DPs that ran.
    """
    # One segment cache shared by every clustering, so each distinct
    # (span, neighbour-context) builds its tensors exactly once.  A
    # caller-provided cache extends that sharing across solves.
    if cache is None or not cache.serves(chain, mem_per_proc_mb):
        cache = SegmentCache(chain, mem_per_proc_mb)
    ok_size = _size_mask(total_procs, instance_size_ok)
    if incumbent is not None and not incumbent > 0:
        incumbent = None
    podium = _Podium()
    examined = 0

    def may_reach(mchain, target):
        return _may_reach(
            mchain if replication else strip_replication(mchain),
            total_procs, target,
        )

    def solve(at, clustering, mchain):
        nonlocal examined
        examined += 1
        try:
            res = optimal_assignment(
                mchain,
                total_procs,
                replication=replication,
                allowed_totals=_totals_filter(
                    mchain, total_procs, replication, ok_size
                ),
            )
        except InfeasibleError:
            return
        podium.add((at, clustering, res))

    skipped = []
    for at, clustering in enumerate(_clusterings(len(chain))):
        mchain = cache.module_chain(clustering)
        if mchain.total_min_procs > total_procs:
            continue
        bar = podium.bar(at)
        if incumbent is not None and (bar is None or bar < incumbent):
            # Reaching the incumbent implies reaching the lower bar.
            if not may_reach(mchain, incumbent):
                skipped.append((at, clustering, mchain))
                continue
        elif bar is not None and not may_reach(mchain, bar):
            continue
        solve(at, clustering, mchain)
    best = podium.best
    if best is None or (incumbent is not None and best[2].throughput < incumbent):
        # The incumbent was out of reach, so skipping proved nothing.
        for at, clustering, mchain in skipped:
            bar = podium.bar(at)
            if bar is None or may_reach(mchain, bar):
                solve(at, clustering, mchain)
        best = podium.best
    if best is None:
        raise InfeasibleError(
            f"no clustering of {chain.name!r} fits on {total_procs} processors"
        )
    _, clustering, res = best
    return ClusteredResult(
        clustering=clustering,
        totals=res.totals,
        performance=res.performance,
        method="exhaustive",
        clusterings_examined=examined,
    )


# ---------------------------------------------------------------------------
# Bisection on the bottleneck response + segment feasibility DP
# ---------------------------------------------------------------------------


class _Segment:
    """Precomputed characteristics of the candidate module ``start..stop``."""

    __slots__ = ("start", "stop", "p_min", "r", "s", "ex", "in_grid", "feasible")

    def __init__(self, chain: TaskChain, info: ModuleInfo, P: int,
                 replication: bool, ok_size):
        self.start, self.stop, self.p_min = info.start, info.stop, info.p_min
        self.r, self.s, self.feasible = _feasible_tables(
            info, P, replication, ok_size
        )
        self.ex = np.full(P + 1, np.inf)
        ok = self.feasible
        self.ex[ok] = info.exec_cost(self.s[ok].astype(float))
        # Incoming communication grid over (sp, p): sp is the *instance size*
        # of the previous module (raw 1..P); sp = 0 means "no previous
        # module" and is valid only for segments starting the chain.
        self.in_grid = np.full((P + 1, P + 1), np.inf)
        if self.start == 0:
            self.in_grid[0, ok] = 0.0
        else:
            ecom = chain.edges[self.start - 1].ecom
            sp = np.arange(1, P + 1, dtype=float)
            vals = ecom(sp[:, None], self.s[ok].astype(float)[None, :])
            block = np.full((P, P + 1), np.inf)
            block[:, ok] = vals
            self.in_grid[1:, :] = block


def _out_grid(chain: TaskChain, A: "_Segment", B: "_Segment", P: int) -> np.ndarray:
    """Outgoing-communication grid over (p of A, p' of B)."""
    ecom = chain.edges[A.stop].ecom
    grid = np.full((P + 1, P + 1), np.inf)
    oa, ob = A.feasible, B.feasible
    vals = ecom(A.s[oa].astype(float)[:, None], B.s[ob].astype(float)[None, :])
    grid[np.ix_(oa, ob)] = vals
    return grid


def bisect_mapping(
    chain: TaskChain,
    total_procs: int,
    mem_per_proc_mb: float = float("inf"),
    replication: bool = True,
    instance_size_ok=None,
    cache: SegmentCache | None = None,
) -> ClusteredResult:
    """The optimum by bisection on the bottleneck response, certified to
    :data:`BISECT_TOL`.  Arguments as for :func:`optimal_mapping`."""
    if cache is None or not cache.serves(chain, mem_per_proc_mb):
        cache = SegmentCache(chain, mem_per_proc_mb)
    ok_size = _size_mask(total_procs, instance_size_ok)
    k = len(chain)
    P = int(total_procs)
    segments = {}
    for start in range(k):
        for stop in range(start, k):
            seg = _Segment(
                chain, cache.info(start, stop), P, replication, ok_size
            )
            if seg.p_min <= P and seg.feasible.any():
                segments[(start, stop)] = seg

    out_cache: dict[tuple[int, int, int, int], np.ndarray] = {}

    def out_for(A: _Segment, B: _Segment) -> np.ndarray:
        key = (A.start, A.stop, B.start, B.stop)
        if key not in out_cache:
            out_cache[key] = _out_grid(chain, A, B, P)
        return out_cache[key]

    def run(tau: float, track: bool):
        """Feasibility DP; returns (feasible, final_state, parents)."""
        tables: dict[tuple[int, int], np.ndarray] = {}
        parents: dict[tuple[int, int], tuple] = {}
        budgets = np.arange(P + 1, dtype=float)
        # Initial segments (start at task 0): budget = own allocation.
        for stop in range(k):
            seg = segments.get((0, stop))
            if seg is None:
                continue
            tbl = np.full((P + 1, P + 1), np.inf)  # (p, sp)
            ok = seg.feasible.copy()
            ok[: seg.p_min] = False
            tbl[ok, 0] = budgets[ok]
            tables[(0, stop)] = tbl
            if track:
                par = (
                    np.full((P + 1, P + 1), -1, dtype=np.int32),
                    np.zeros((P + 1, P + 1), dtype=np.int32),
                    np.zeros((P + 1, P + 1), dtype=np.int32),
                )
                parents[(0, stop)] = par

        for j in range(k - 1):
            for (a0, a1), A in list(segments.items()):
                if a1 != j or (a0, a1) not in tables:
                    continue
                tblA = tables[(a0, a1)]
                if not np.isfinite(tblA).any():
                    continue
                X = tblA.T  # (sp, p)
                for h in range(j + 1, k):
                    B = segments.get((j + 1, h))
                    if B is None:
                        continue
                    out = out_for(A, B)  # (p, p')
                    with np.errstate(invalid="ignore"):
                        lim = tau * A.r.astype(float)[:, None] - A.ex[:, None] - out
                        mask = A.in_grid[:, :, None] <= lim[None, :, :]
                    cand = np.where(mask, X[:, :, None], np.inf)  # (sp, p, p')
                    if track:
                        sp_star = np.argmin(cand, axis=0)  # (p, p')
                    m = np.min(cand, axis=0)  # (p, p')
                    if not np.isfinite(m).any():
                        continue
                    key = (j + 1, h)
                    if key not in tables:
                        tables[key] = np.full((P + 1, P + 1), np.inf)
                        if track:
                            parents[key] = (
                                np.full((P + 1, P + 1), -1, dtype=np.int32),
                                np.zeros((P + 1, P + 1), dtype=np.int32),
                                np.zeros((P + 1, P + 1), dtype=np.int32),
                            )
                    tblB = tables[key]
                    okB = B.feasible.copy()
                    okB[: B.p_min] = False
                    for p in np.nonzero(np.isfinite(m).any(axis=1))[0]:
                        sA = A.s[p]
                        if sA == 0:
                            continue
                        row = m[p] + budgets  # indexed by p'
                        row[~okB] = np.inf
                        better = row < tblB[:, sA]
                        if better.any():
                            tblB[better, sA] = row[better]
                            if track:
                                ps, pp, pq = parents[key]
                                ps[better, sA] = a0
                                pp[better, sA] = p
                                pq[better, sA] = sp_star[p, better]

        # Final: segments ending at the last task; no outgoing communication.
        best = None
        for (a0, a1), A in segments.items():
            if a1 != k - 1 or (a0, a1) not in tables:
                continue
            tblA = tables[(a0, a1)]
            with np.errstate(invalid="ignore"):
                lim = tau * A.r.astype(float) - A.ex  # (p,)
                mask = A.in_grid <= lim[None, :]  # (sp, p)
            ok = mask & np.isfinite(tblA.T) & (tblA.T <= P)
            if ok.any():
                sp_i, p_i = np.nonzero(ok)
                vals = tblA.T[sp_i, p_i]
                best_i = int(np.argmin(vals))
                cand = (float(vals[best_i]), a0, int(p_i[best_i]), int(sp_i[best_i]))
                if best is None or cand[0] < best[0]:
                    best = cand
        return best is not None, best, parents

    # An initial feasible mapping (tau = inf) seeds the upper bound.
    feasible, final, parents = run(np.inf, track=True)
    if not feasible:
        raise InfeasibleError(
            f"no clustering of {chain.name!r} fits on {P} processors"
        )
    clustering, totals = _walk_back(final, parents, segments, k)
    perf = _evaluate(cache, clustering, totals, replication)
    hi = max(perf.effective_responses)
    lo = 0.0
    while hi - lo > BISECT_TOL * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        ok, _, _ = run(mid, track=False)
        if ok:
            hi = mid
        else:
            lo = mid
    ok, final, parents = run(hi, track=True)
    if not ok:  # numerical safety: widen once
        hi = hi * (1 + 16 * BISECT_TOL) + 1e-300
        ok, final, parents = run(hi, track=True)
    clustering, totals = _walk_back(final, parents, segments, k)
    perf = _evaluate(cache, clustering, totals, replication)
    return ClusteredResult(
        clustering=clustering,
        totals=totals,
        performance=perf,
        method="bisect",
        clusterings_examined=len(segments),
    )


def _walk_back(final, parents, segments, k):
    _, a0, p, sp = final
    spans = [(a0, k - 1)]
    totals = [int(p)]
    while a0 > 0:
        ps, pp, pq = parents[(spans[0][0], spans[0][1])]
        prev_start = int(ps[p, sp])
        prev_p = int(pp[p, sp])
        prev_sp = int(pq[p, sp])
        spans.insert(0, (prev_start, a0 - 1))
        totals.insert(0, prev_p)
        a0, p, sp = prev_start, prev_p, prev_sp
    return tuple(spans), totals


def _evaluate(cache, clustering, totals, replication):
    mchain = cache.module_chain(clustering)
    if not replication:
        mchain = strip_replication(mchain)
    return evaluate_module_chain(mchain, totals_to_allocations(mchain, totals))
