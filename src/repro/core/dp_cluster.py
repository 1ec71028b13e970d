"""Optimal mapping with clustering + replication + allocation (paper §3.3).

Two solvers are provided.

``optimal_mapping(..., method="exhaustive")``
    Enumerates all ``2**(k-1)`` contiguous clusterings and runs the §3.1/§3.2
    assignment DP on each.  Provably optimal; the paper's own footnote (§4.2)
    notes exhaustive clustering is practical for small ``k``, and every chain
    in the paper's evaluation has ``k <= 4``.  Given an ``incumbent`` — a
    throughput some mapping of the chain already reaches, e.g. the §4
    heuristic's — it skips every clustering that provably cannot reach it:
    a per-module lower bound on the effective response at each total,
    read off the cached response factors, leaves each module a set of
    admissible totals, and a clustering whose smallest admissible totals
    already overrun the machine cannot reach the incumbent either.  The
    result is bit-identical for any incumbent (an unreachable one falls
    back to the full search); only the number of DPs run changes.

``optimal_mapping(..., method="bisect")``
    A polynomial-time algorithm in the spirit of the paper's Lemma 2
    (``O(P^4 k^2)`` there): bisection on the bottleneck response ``τ``
    around a feasibility dynamic program over module *segments*.  A state is
    (segment of the last module, its total allocation ``p``, the instance
    size ``sp`` of the module before it); its value is the minimum number of
    processors consumed so far, subject to every completed module's
    effective response being at most ``τ``.  Each feasibility check costs
    ``O(k^3 P^3)`` vectorised operations and the bisection adds a
    ``log(1/ε)`` factor; the returned mapping is exact (it is re-evaluated
    analytically), with optimality certified to relative tolerance ``tol``.

Both fold in replication via the §3.2 effective-processor rule and memory
constraints via per-segment minimum processor counts; both agree with the
brute-force oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import optimal_assignment
from .exceptions import InfeasibleError
from .mapping import Mapping, all_clusterings
from .replication import effective_tables
from .response import (
    MappingPerformance,
    SegmentCache,
    build_module_chain,
    evaluate_module_chain,
    module_info,
    strip_replication,
    totals_to_allocations,
)
from .task import TaskChain
from .workspace import default_workspace

__all__ = ["ClusteredResult", "optimal_mapping"]


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
    method: str = "auto",
    tol: float = 1e-9,
    instance_size_ok=None,
    cache: SegmentCache | None = None,
    workspace=None,
    incumbent: float | None = None,
) -> ClusteredResult:
    """Find the throughput-optimal mapping of ``chain`` onto ``total_procs``.

    ``method`` is ``"exhaustive"``, ``"bisect"``, or ``"auto"`` (exhaustive
    up to 12 tasks, bisect beyond).  ``instance_size_ok`` optionally
    restricts the per-instance processor counts any module may use (e.g. to
    rectangular subarray sizes, §6.1): a callable ``f(size: int) -> bool``.

    ``cache`` (a :class:`SegmentCache` bound to the same chain and memory
    limit) and ``workspace`` (a :class:`~repro.core.workspace.SolverWorkspace`)
    let a caller that solves repeatedly — notably the fault-tolerance
    :class:`~repro.core.remap.RemapPlanner` re-solving on ever-smaller
    machines — share segment tensors and DP arenas across solves.  Both
    apply to the exhaustive method only: bisect builds its own segment
    grids and ignores them.  A mismatched cache is ignored.

    ``incumbent`` is a throughput some mapping of ``chain`` already reaches
    on at most ``total_procs`` processors (the heuristic's, or the mapping
    currently deployed).  The exhaustive search then runs the DP only on
    clusterings that might reach it; ``clusterings_examined`` counts the
    DPs that ran.  The returned mapping is the same, bit for bit, for any
    incumbent: if none of the surviving clusterings reaches it, the skipped
    ones are solved too.  Bisect, a non-positive incumbent and a
    reduced-precision workspace ignore it.
    """
    if method == "auto":
        method = "exhaustive" if len(chain) <= 12 else "bisect"
    if cache is not None and not cache.serves(chain, mem_per_proc_mb):
        cache = None
    if method == "exhaustive":
        return _exhaustive_clusterings(
            chain, total_procs, mem_per_proc_mb, replication, instance_size_ok,
            cache=cache, workspace=workspace, incumbent=incumbent,
        )
    if method == "bisect":
        return _bisect_mapping(
            chain, total_procs, mem_per_proc_mb, replication, tol, instance_size_ok
        )
    raise ValueError(f"unknown method {method!r}")


def _totals_filter(mchain, total_procs: int, replication: bool, instance_size_ok):
    """Build the per-module allowed-totals mask from an instance-size rule."""
    if instance_size_ok is None:
        return None
    ok_size = np.array(
        [instance_size_ok(s) for s in range(total_procs + 1)], dtype=bool
    )
    masks = []
    for info in mchain.infos:
        rep = replication and info.replicable
        r, s = effective_tables(total_procs, info.p_min, rep)
        masks.append((r > 0) & ok_size[s])
    return lambda i: masks[i]


# ---------------------------------------------------------------------------
# Exhaustive clustering × assignment DP
# ---------------------------------------------------------------------------


def _may_reach(mchain, total_procs: int, incumbent: float) -> bool:
    """Can some allocation of ``mchain`` reach throughput ``incumbent``?

    A ``False`` is a proof that every allocation of at most ``total_procs``
    processors has throughput strictly below ``incumbent``.  Module ``j``'s
    effective response at total ``pl`` is at least

        LB_j[pl] = (min_q ce[q, pl] + min_pn com_out[pl, pn]) / denom[pl]

    with ``q``/``pn`` over real neighbour totals (``1..P``), or the φ index
    0 at the ends of the chain; float rounding is monotone, so the bound
    holds bit for bit.  The totals with ``1 / LB_j >= incumbent`` — the
    comparison ``throughput`` itself makes — are the only ones module ``j``
    can hold, and their smallest values must fit on the machine together.
    """
    P = total_procs
    last = len(mchain) - 1
    floor = 0
    for j in range(last + 1):
        ce, com_out, denom, feasible = mchain.response_parts(j, P)
        ce_min = ce[1:].min(axis=0) if j > 0 else ce[0]
        out_min = com_out[:, 1:].min(axis=1) if j < last else com_out[:, 0]
        with np.errstate(invalid="ignore", divide="ignore"):
            keep = feasible & (1.0 / ((ce_min + out_min) / denom) >= incumbent)
        admissible = np.flatnonzero(keep)
        if admissible.size == 0:
            return False
        floor += int(admissible[0])
        if floor > P:
            return False
    return True


def _exhaustive_clusterings(
    chain: TaskChain,
    total_procs: int,
    mem_per_proc_mb: float,
    replication: bool,
    instance_size_ok=None,
    cache: SegmentCache | None = None,
    workspace=None,
    incumbent: float | None = None,
) -> ClusteredResult:
    # One segment cache shared by every clustering, so each distinct
    # (span, neighbour-context) builds its tensors exactly once.  A
    # caller-provided cache extends that sharing across solves.
    if cache is None:
        cache = SegmentCache(chain, mem_per_proc_mb)
    ws = workspace if workspace is not None else default_workspace()
    if not (incumbent is not None and incumbent > 0
            and ws.value_dtype == np.dtype(np.float64)):
        incumbent = None
    best = None  # (enumeration index, clustering, DPResult)
    examined = 0

    def solve(at, clustering, mchain):
        nonlocal best, examined
        examined += 1
        try:
            res = optimal_assignment(
                mchain,
                total_procs,
                replication=replication,
                allowed_totals=_totals_filter(
                    mchain, total_procs, replication, instance_size_ok
                ),
                workspace=ws,
            )
        except InfeasibleError:
            return
        # The first clustering in enumeration order wins ties.
        if best is None or res.throughput > best[2].throughput or (
            res.throughput == best[2].throughput and at < best[0]
        ):
            best = (at, clustering, res)

    skipped = []
    for at, clustering in enumerate(all_clusterings(len(chain))):
        mchain = cache.module_chain(clustering)
        if mchain.total_min_procs > total_procs:
            continue
        if incumbent is not None and not _may_reach(
            mchain if replication else strip_replication(mchain),
            total_procs, incumbent,
        ):
            skipped.append((at, clustering, mchain))
            continue
        solve(at, clustering, mchain)
    if best is None or (incumbent is not None and best[2].throughput < incumbent):
        # The incumbent was out of reach, so skipping proved nothing.
        for args in skipped:
            solve(*args)
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

    def __init__(self, chain: TaskChain, start: int, stop: int, P: int,
                 mem_per_proc_mb: float, replication: bool,
                 instance_size_ok=None):
        info = module_info(chain, start, stop, mem_per_proc_mb)
        self.start = start
        self.stop = stop
        self.p_min = info.p_min
        self.r, self.s = effective_tables(
            P, self.p_min, replication and info.replicable
        )
        self.feasible = self.r > 0
        if instance_size_ok is not None:
            ok_size = np.array(
                [instance_size_ok(s) for s in range(P + 1)], dtype=bool
            )
            self.feasible = self.feasible & ok_size[self.s]
            self.r = np.where(self.feasible, self.r, 0)
            self.s = np.where(self.feasible, self.s, 0)
        self.ex = np.full(P + 1, np.inf)
        ok = self.feasible
        self.ex[ok] = info.exec_cost(self.s[ok].astype(float))
        # Incoming communication grid over (sp, p): sp is the *instance size*
        # of the previous module (raw 1..P); sp = 0 means "no previous
        # module" and is valid only for segments starting the chain.
        self.in_grid = np.full((P + 1, P + 1), np.inf)
        if start == 0:
            self.in_grid[0, ok] = 0.0
        else:
            ecom = chain.edges[start - 1].ecom
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


def _bisect_mapping(
    chain: TaskChain,
    total_procs: int,
    mem_per_proc_mb: float,
    replication: bool,
    tol: float,
    instance_size_ok=None,
) -> ClusteredResult:
    k = len(chain)
    P = int(total_procs)
    segments = {}
    for start in range(k):
        for stop in range(start, k):
            seg = _Segment(
                chain, start, stop, P, mem_per_proc_mb, replication,
                instance_size_ok,
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
    perf = _evaluate(chain, clustering, totals, mem_per_proc_mb, replication)
    hi = max(perf.effective_responses)
    lo = 0.0
    while hi - lo > tol * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        ok, _, _ = run(mid, track=False)
        if ok:
            hi = mid
        else:
            lo = mid
    ok, final, parents = run(hi, track=True)
    if not ok:  # numerical safety: widen once
        hi = hi * (1 + 16 * tol) + 1e-300
        ok, final, parents = run(hi, track=True)
    clustering, totals = _walk_back(final, parents, segments, k)
    perf = _evaluate(chain, clustering, totals, mem_per_proc_mb, replication)
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


def _evaluate(chain, clustering, totals, mem_per_proc_mb, replication):
    mchain = build_module_chain(chain, clustering, mem_per_proc_mb)
    if not replication:
        mchain = strip_replication(mchain)
    return evaluate_module_chain(mchain, totals_to_allocations(mchain, totals))
