"""Response-time and throughput evaluation (paper §2.1–§2.2).

The response time of module ``i`` is

    f_i = f_com(in) + f_exec_i + f_com(out)

evaluated at the *effective* (per-instance) processor counts of the module
and its neighbours, and the throughput of a mapping is the reciprocal of the
slowest — bottleneck — effective response ``max_i f_i / r_i``.

This module also provides :class:`ModuleChain`, the precomputed view of a
chain under a fixed clustering that the DP and greedy solvers operate on:
per-module execution functions (task costs plus swallowed internal
communication), boundary external-communication functions, memory-derived
minimum processor counts, and replication tables.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cost import BinaryCost, SumUnary, UnaryCost
from .exceptions import InfeasibleError, InvalidMappingError
from .mapping import Mapping, ModuleSpec
from .replication import effective_tables, split_replicas
from .task import TaskChain

__all__ = [
    "ModuleInfo",
    "ModuleChain",
    "SegmentCache",
    "module_info",
    "build_module_chain",
    "strip_replication",
    "MappingPerformance",
    "evaluate_module_chain",
    "evaluate_mapping",
    "ResponseReader",
    "GraphPricer",
    "bottleneck_throughput",
]

#: Default per-processor memory when no machine is specified: effectively
#: unlimited, so p_min degenerates to the tasks' explicit minimums.
UNLIMITED_MEMORY_MB = float("inf")

#: ``p_min`` of a segment whose replicated footprint alone exceeds
#: per-processor memory: larger than any machine, so every solver's
#: ``p_min <= P`` test skips the segment instead of raising.
UNFIT = sys.maxsize


@dataclass
class ModuleInfo:
    """Static characteristics of one module under a fixed clustering."""

    start: int
    stop: int
    exec_cost: UnaryCost
    p_min: int
    replicable: bool

    @property
    def ntasks(self) -> int:
        return self.stop - self.start + 1


class ModuleChain:
    """A chain of modules: what the assignment solvers actually map.

    ``infos[i]`` describes module ``i``; ``ecoms[i]`` is the external
    communication cost between modules ``i`` and ``i+1``; ``cache`` is the
    :class:`SegmentCache` its response factors are read through.
    """

    def __init__(
        self,
        chain: TaskChain,
        infos: list[ModuleInfo],
        ecoms: list[BinaryCost],
        cache: "SegmentCache",
    ):
        if len(ecoms) != len(infos) - 1:
            raise InvalidMappingError("module chain needs l-1 boundary communications")
        self.chain = chain
        self.infos = infos
        self.ecoms = ecoms
        self.cache = cache

    def __len__(self) -> int:
        return len(self.infos)

    @property
    def total_min_procs(self) -> int:
        return sum(m.p_min for m in self.infos)

    def clustering(self) -> tuple[tuple[int, int], ...]:
        return tuple((m.start, m.stop) for m in self.infos)

    def response_parts(
        self, i: int, max_procs: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Separable factors of :meth:`response_tensor` (performance layer).

        The full tensor decomposes as

            R[q, pl, pn] = (ce[q, pl] + com_out[pl, pn]) / denom[pl]

        with infeasible ``pl`` forced to +inf, where ``ce`` is the incoming
        communication plus execution and ``denom`` the replica count.
        Returning the 2-D factors lets the DP assemble ``R`` directly into a
        reusable buffer (any memory layout) and lets the segment
        cache share them across clusterings.  The arrays are the cache's
        and read-only.
        """
        return self.cache.parts(self, i, max_procs)

    def throughput_bound(self, i: int, max_procs: int) -> np.ndarray:
        """Upper bound on module ``i``'s throughput at each of its totals
        ``0..max_procs``, over every allocation of its neighbours (0 where
        the total is unusable).  Float rounding is monotone, so no
        allocation beats the bound, bit for bit.  Computed without the
        response parts (:func:`_throughput_bound`) and memoised in the
        chain's :class:`SegmentCache`."""
        return self.cache.throughput_bound(self, i, max_procs)

    def response_tensor(self, i: int, max_procs: int) -> np.ndarray:
        """Effective response of module ``i`` for every allocation triple.

        Returns ``R`` with ``R[q, pl, pn]`` = effective response time of
        module ``i`` when modules ``i-1``, ``i``, ``i+1`` hold ``q``, ``pl``,
        ``pn`` *total* processors.  Index 0 on the ``q``/``pn`` axes encodes
        "no such neighbour" (the paper's φ); infeasible ``pl`` gives +inf.
        """
        ce, com_out, denom, feasible = self.response_parts(i, max_procs)
        with np.errstate(invalid="ignore", divide="ignore"):
            resp = (ce[:, :, None] + com_out[None, :, :]) / denom[None, :, None]
        resp[:, ~feasible, :] = np.inf
        return resp


def _ecom_grid(
    ecom: BinaryCost, a: ModuleInfo, b: ModuleInfo, P: int
) -> np.ndarray:
    """Evaluate an external-communication model from module ``a`` to module
    ``b`` on the grid of their totals ``0..P``.  Index 0 (= "no neighbour")
    gives 0 on either axis; a total either module cannot use gives +inf."""
    _, s_a = effective_tables(P, a.p_min, a.replicable)
    _, s_b = effective_tables(P, b.p_min, b.replicable)
    grid = np.zeros((P + 1, P + 1))
    ok_a = s_a > 0
    ok_b = s_b > 0
    aa = s_a[ok_a].astype(float)
    bb = s_b[ok_b].astype(float)
    vals = ecom(aa[:, None], bb[None, :])
    grid[np.ix_(ok_a, ok_b)] = vals
    grid[~ok_a, :] = np.inf
    grid[:, ~ok_b] = np.inf
    # Index 0 means "no neighbour": communication with a non-existent
    # neighbour costs nothing, but an infeasible *own* allocation must stay
    # infinite; callers orient the axes accordingly.
    grid[0, :] = 0.0
    grid[:, 0] = 0.0
    return grid


def _exec_table(
    info: ModuleInfo, P: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(exec_part, denom, feasible)`` of one module over totals ``0..P``:
    the execution time at each instance size (+inf where the total is
    unusable), the replica count, and which totals it can use."""
    r_self, s_self = effective_tables(P, info.p_min, info.replicable)
    feasible = r_self > 0
    exec_part = np.full(P + 1, np.inf)
    exec_part[feasible] = info.exec_cost(s_self.astype(float)[feasible])
    denom = np.where(feasible, r_self, 1).astype(float)
    return exec_part, denom, feasible


def _boundary(mchain: ModuleChain, j: int, P: int) -> np.ndarray:
    """The communication grid from module ``j`` to module ``j+1``: the grid
    of the edge's unscaled model times its factor, which gives the bits of
    evaluating the scaled model (one IEEE product per entry)."""
    a, b = mchain.infos[j], mchain.infos[j + 1]
    model, factor = mchain.ecoms[j].unscaled()
    grid = mchain.cache.ecom_grid(a.stop, model, a, b, P)
    return grid if factor == 1.0 else factor * grid


def _compute_parts(
    mchain: ModuleChain, i: int, P: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the separable response factors for module ``i`` from its exec
    table and its boundary grids, read through the chain's cache."""
    exec_part, denom, feasible = mchain.cache.exec_table(mchain.infos[i], P)
    # Incoming communication: grid over (q, pl).
    if i > 0:
        com_in = _boundary(mchain, i - 1, P)
    else:
        com_in = np.zeros((P + 1, P + 1))
        com_in[:, ~feasible] = np.inf
    # Outgoing communication: grid over (pl, pn).
    if i < len(mchain.infos) - 1:
        com_out = _boundary(mchain, i, P)
    else:
        com_out = np.zeros((P + 1, P + 1))
        com_out[~feasible, :] = np.inf
    ce = com_in + exec_part[None, :]  # (q, pl)
    return ce, com_out, denom, feasible


def _grid_minima(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(in_min, out_min)`` of an ecom grid from module ``a`` to module
    ``b``: ``b``'s cheapest incoming transfer at each of its totals over
    ``a``'s real totals ``1..P``, and ``a``'s cheapest outgoing transfer at
    each of its totals over ``b``'s real totals ``1..P``."""
    return grid[1:].min(axis=0), grid[:, 1:].min(axis=1)


def _boundary_minimum(mchain: ModuleChain, j: int, P: int, side: int) -> np.ndarray:
    """One of :func:`_grid_minima` (``side`` 0 or 1) of the boundary from
    module ``j`` to module ``j+1``, scaled like :func:`_boundary`.  A
    positive factor commutes with the minimum: ``min fl(f*g) = fl(f*min g)``
    because rounding is monotone."""
    a, b = mchain.infos[j], mchain.infos[j + 1]
    model, factor = mchain.ecoms[j].unscaled()
    minima = mchain.cache.ecom_minima(a.stop, model, a, b, P)
    return minima[side] if factor == 1.0 else factor * minima[side]


def _throughput_bound(mchain: ModuleChain, i: int, P: int) -> np.ndarray:
    """``1 / LB[pl]``, where ``LB[pl] = (min_q ce[q, pl] + min_pn
    com_out[pl, pn]) / denom[pl]`` bounds module ``i``'s effective response
    at total ``pl`` from below over every real neighbour total (``1..P``,
    or the φ index 0 at an end of the chain); 0 where ``pl`` is unusable.

    Read off the exec table and the boundary grids' minima, not the
    response parts: ``min_q fl(com_in[q, pl] + exec[pl])`` is
    ``fl(min_q com_in[q, pl] + exec[pl])`` since rounding is monotone, so
    the bits are those of minimising the parts."""
    exec_part, denom, feasible = mchain.cache.exec_table(mchain.infos[i], P)
    # The φ index of a chain end costs 0.0, as in _compute_parts.
    in_min = _boundary_minimum(mchain, i - 1, P, 0) if i > 0 else 0.0
    out_min = (_boundary_minimum(mchain, i, P, 1)
               if i < len(mchain.infos) - 1 else 0.0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        bound = 1.0 / (((in_min + exec_part) + out_min) / denom)
    bound[~feasible] = 0.0
    return bound


def _frozen(arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class SegmentCache:
    """Memoised per-segment characteristics of one chain (performance layer).

    The exhaustive clustering solver enumerates ``2^(k-1)`` clusterings of a
    ``k``-task chain, but those clusterings share only ``k(k+1)/2`` distinct
    segments.  This cache makes each segment's characteristics be computed
    once per distinct context, not once per clustering.  It holds four
    kinds of entry:

    * **infos** — each segment's :class:`ModuleInfo` (composed execution
      cost, ``p_min``, replicability), keyed by span;
    * **exec tables** — :func:`_exec_table` of a segment in its own
      ``(p_min, replicable)`` context: execution time, replica count and
      feasibility per total;
    * **ecom grids** — the external communication of one boundary edge
      over the totals of the modules on either side, keyed by the edge and
      both modules' ``(p_min, replicable)`` contexts.  A grid is of the
      edge's *unscaled* model (:meth:`BinaryCost.unscaled`) and records
      that model: it is reused while the edge's model is the same object
      and rebuilt otherwise, so it needs no eviction rule.  Module ``i``'s
      outgoing and module ``i+1``'s incoming communication read one grid,
      stored with its :func:`_grid_minima`;
    * **parts** — the response factors of :meth:`ModuleChain.response_parts`
      composed from the three above (``factor * grid`` for a scaled edge),
      keyed by span, own context and neighbour contexts;
    * **bounds** — the throughput bound the incumbent-bounded search reads
      (:func:`_throughput_bound`), under the part's key but built from the
      exec table and the grid minima, so a clustering the search skips
      never builds its parts.

    Response factors depend on the *neighbouring* modules only through
    their ``(p_min, replicable)`` pairs, so the cache keys on those values
    rather than on neighbour spans — adjacent clusterings that differ in
    far-away boundaries share everything.

    One cache is bound to one ``(chain, mem_per_proc_mb)`` context; the
    chains it builds carry a reference back so the DP transparently hits it.
    """

    def __init__(
        self, chain: TaskChain, mem_per_proc_mb: float = UNLIMITED_MEMORY_MB
    ):
        self.chain = chain
        self.mem_per_proc_mb = mem_per_proc_mb
        self._infos: dict[tuple[int, int], ModuleInfo] = {}
        self._exec: dict[tuple, tuple] = {}
        self._grids: dict[tuple, tuple] = {}  # (model, grid, minima)
        self._parts: dict[tuple, tuple] = {}
        self._bounds: dict[tuple, np.ndarray] = {}
        self._chains: dict[tuple, ModuleChain] = {}
        self.info_misses = 0
        self.exec_misses = 0
        self.grid_misses = 0
        self.part_misses = 0

    def serves(self, chain: TaskChain, mem_per_proc_mb: float) -> bool:
        """Is this the cache of ``chain`` under ``mem_per_proc_mb``?  Solvers
        ignore a cache handed to them for any other context."""
        return self.chain is chain and self.mem_per_proc_mb == mem_per_proc_mb

    def info(self, start: int, stop: int) -> ModuleInfo:
        """The (memoised) module over tasks ``start..stop``."""
        key = (start, stop)
        got = self._infos.get(key)
        if got is None:
            got = module_info(self.chain, start, stop, self.mem_per_proc_mb)
            self._infos[key] = got
            self.info_misses += 1
        return got

    def module_chain(self, clustering: Sequence[tuple[int, int]]) -> ModuleChain:
        """Like :func:`build_module_chain`, reusing memoised infos.  The
        chain is memoised per clustering while :attr:`chain` stays the same
        object and no :meth:`invalidate` intervenes."""
        key = tuple(clustering)
        got = self._chains.get(key)
        if got is None or got.chain is not self.chain:
            got = build_module_chain(
                self.chain, key, self.mem_per_proc_mb, cache=self
            )
            self._chains[key] = got
        return got

    def exec_table(self, info: ModuleInfo, P: int) -> tuple:
        """Memoised :func:`_exec_table` of the segment ``info``."""
        key = (info.start, info.stop, info.p_min, info.replicable, P)
        got = self._exec.get(key)
        if got is None:
            got = _frozen(_exec_table(info, P))
            self._exec[key] = got
            self.exec_misses += 1
        return got

    def _grid_entry(
        self, edge: int, model: BinaryCost, a: ModuleInfo, b: ModuleInfo, P: int
    ) -> tuple:
        key = (edge, a.p_min, a.replicable, b.p_min, b.replicable, P)
        got = self._grids.get(key)
        if got is None or got[0] is not model:
            grid = _ecom_grid(model, a, b, P)
            got = self._grids[key] = (
                model, *_frozen((grid, *_grid_minima(grid)))
            )
            self.grid_misses += 1
        return got

    def ecom_grid(
        self, edge: int, model: BinaryCost, a: ModuleInfo, b: ModuleInfo, P: int
    ) -> np.ndarray:
        """Memoised :func:`_ecom_grid` of ``model`` on ``edge``, from module
        ``a`` to module ``b``; valid while the edge's model is ``model``."""
        return self._grid_entry(edge, model, a, b, P)[1]

    def ecom_minima(
        self, edge: int, model: BinaryCost, a: ModuleInfo, b: ModuleInfo, P: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_grid_minima` of :meth:`ecom_grid`, memoised with it."""
        return self._grid_entry(edge, model, a, b, P)[2:]

    @staticmethod
    def _part_key(mchain: ModuleChain, i: int, P: int) -> tuple:
        # The module's own identity plus the neighbour replication
        # contexts; p_min/replicable are part of the key (not derived from
        # the span) so replication-stripped chains cache separately.
        info = mchain.infos[i]
        prev = mchain.infos[i - 1] if i > 0 else None
        nxt = mchain.infos[i + 1] if i < len(mchain.infos) - 1 else None
        return (
            info.start, info.stop, info.p_min, info.replicable,
            (prev.p_min, prev.replicable) if prev is not None else None,
            (nxt.p_min, nxt.replicable) if nxt is not None else None,
            P,
        )

    def parts(self, mchain: ModuleChain, i: int, P: int) -> tuple:
        """Memoised :func:`_compute_parts` for module ``i`` of ``mchain``."""
        key = self._part_key(mchain, i, P)
        got = self._parts.get(key)
        if got is None:
            got = _frozen(_compute_parts(mchain, i, P))
            self._parts[key] = got
            self.part_misses += 1
        return got

    def throughput_bound(self, mchain: ModuleChain, i: int, P: int) -> np.ndarray:
        """Memoised :func:`_throughput_bound` of module ``i``: it reads the
        cached exec table and grid minima, never the parts."""
        key = self._part_key(mchain, i, P)
        got = self._bounds.get(key)
        if got is None:
            got = _throughput_bound(mchain, i, P)
            got.setflags(write=False)
            self._bounds[key] = got
        return got

    def invalidate(self, tasks=(), edges=(), ecom_only=()) -> int:
        """Evict every entry whose value depends on a changed task or edge.

        ``tasks``/``edges`` are indices into the bound chain whose cost
        models (or memory/replicability attributes) changed; ``ecom_only``
        names the edges in ``edges`` whose internal communication did not
        change (:attr:`repro.core.resolve.ChainDelta.ecom_only`).  Evicted
        are:

        * infos and exec tables whose span *contains* a changed task, or
          *straddles* a changed edge not in ``ecom_only`` — the edge's
          internal-communication cost is swallowed into the module
          execution cost;
        * parts and throughput bounds of those spans, and those whose span
          is *adjacent* to any changed edge (``start == edge+1`` or
          ``stop == edge``) — the edge's external-communication cost prices
          their boundary transfer.  A bound is memoised without its part
          when the search skipped the clustering, so both tables are
          scanned.

        Ecom grids are never evicted: a grid of a model the edge no longer
        has is rebuilt on its next read.  A comm-only delta (every changed
        edge in ``ecom_only``, as :func:`repro.core.resolve.scale_chain`
        with ``comm_scale=`` produces) therefore keeps every info and exec
        table and, for a rescaled edge, its grid: the re-solve only
        recomposes the adjacent parts.

        Entries that survive are exactly those whose values are
        unaffected, so an incremental re-solve over the updated chain is
        byte-identical to a cold full solve (``tests/core/test_resolve.py``
        checks this differentially).  Stale-by-key entries (e.g. a
        neighbour whose ``p_min`` changed) need no eviction — the changed
        key makes them unreachable.  Callers repointing the cache at an
        updated chain object must also rebind :attr:`chain` (see
        :meth:`repro.core.remap.RemapPlanner.update_chain`), otherwise the
        solver ignores the cache entirely.

        Returns the number of entries evicted.
        """
        tset = set(tasks)
        eset = set(edges)
        if not tset and not eset:
            return 0
        self._chains.clear()
        swallowed = eset - set(ecom_only)
        starts = {j + 1 for j in eset}  # spans right of a changed edge

        def touches(k: tuple) -> bool:
            return (any(k[0] <= i <= k[1] for i in tset)
                    or any(k[0] <= j < k[1] for j in swallowed))

        def borders(k: tuple) -> bool:
            return k[0] in starts or k[1] in eset or touches(k)

        evicted = 0
        for table, stale in ((self._infos, touches), (self._exec, touches),
                             (self._parts, borders), (self._bounds, borders)):
            if stale is touches and not (tset or swallowed):
                continue  # a comm-only delta changes no span's own costs
            dead = [k for k in table if stale(k)]
            for k in dead:
                del table[k]
            evicted += len(dead)
        return evicted


def module_info(
    chain: TaskChain,
    start: int,
    stop: int,
    mem_per_proc_mb: float = UNLIMITED_MEMORY_MB,
) -> ModuleInfo:
    """The module over tasks ``start..stop`` — the one segment rule (§3.3).

    Its characteristics follow in O(1) from its tasks: the execution cost
    is the sum of the tasks' costs plus the internal communication of the
    swallowed edges; ``p_min`` is the fewest processors holding the summed
    memory footprint (the tasks' explicit minimums when memory is
    unlimited), or :data:`UNFIT` when the replicated footprint alone
    exceeds per-processor memory; the module is replicable only if every
    task is.
    """
    parts: list[UnaryCost] = [t.exec_cost for t in chain.segment_tasks(start, stop)]
    parts.extend(chain.edges[e].icom for e in range(start, stop))
    try:
        p_min = chain.segment_min_procs(start, stop, mem_per_proc_mb)
    except InfeasibleError:
        p_min = UNFIT
    return ModuleInfo(
        start=start,
        stop=stop,
        exec_cost=parts[0] if len(parts) == 1 else SumUnary(parts),
        p_min=p_min,
        replicable=chain.segment_replicable(start, stop),
    )


def build_module_chain(
    chain: TaskChain,
    clustering: Sequence[tuple[int, int]],
    mem_per_proc_mb: float = UNLIMITED_MEMORY_MB,
    cache: SegmentCache | None = None,
) -> ModuleChain:
    """Compose the module-level view of ``chain`` under ``clustering``.

    The result reads its segments and response factors through ``cache``:
    a :class:`SegmentCache` bound to the same chain and memory limit
    shares them across clusterings, and a fresh one is built when none is
    given.
    """
    if cache is None:
        cache = SegmentCache(chain, mem_per_proc_mb)
    spans = list(clustering)
    if spans[0][0] != 0 or spans[-1][1] != len(chain) - 1:
        raise InvalidMappingError(f"clustering {spans} does not cover the chain")
    infos = []
    for start, stop in spans:
        if infos and start != infos[-1].stop + 1:
            raise InvalidMappingError(f"clustering {spans} is not contiguous")
        infos.append(cache.info(start, stop))
    ecoms = [chain.edges[info.stop].ecom for info in infos[:-1]]
    return ModuleChain(chain, infos, ecoms, cache=cache)


def strip_replication(mchain: ModuleChain) -> ModuleChain:
    """The same module chain with every module single-instance (§3.1)."""
    infos = [replace(i, replicable=False) for i in mchain.infos]
    return ModuleChain(mchain.chain, infos, mchain.ecoms, cache=mchain.cache)


# ---------------------------------------------------------------------------
# Evaluation of concrete mappings
# ---------------------------------------------------------------------------


@dataclass
class MappingPerformance:
    """Predicted steady-state performance of one mapping."""

    mapping: Mapping
    responses: list[float]            # per-module response time (one instance)
    effective_responses: list[float]  # response / replicas
    bottleneck: int                   # index of the slowest module
    throughput: float                 # data sets per second
    latency: float                    # end-to-end seconds for one data set

    def __repr__(self):
        return (
            f"MappingPerformance(throughput={self.throughput:.4g}/s, "
            f"latency={self.latency:.4g}s, bottleneck=module {self.bottleneck})"
        )


def _first_max(values: Sequence[float]) -> int:
    """``np.argmax`` of a list of floats in plain Python: the first maximum,
    or the first NaN if there is one."""
    best = 0
    for i, v in enumerate(values):
        if v != v:
            return i
        if v > values[best]:
            best = i
    return best


def _price(
    execs: Sequence[float], comms: Sequence[float], reps: Sequence[int]
) -> tuple[list[float], list[float], int, float]:
    """Responses, effective responses, bottleneck and throughput of modules
    with execution costs ``execs``, external communication costs ``comms``
    (edge ``i`` joins modules ``i`` and ``i + 1``) and replica counts
    ``reps``: each response adds the incoming, then the outgoing transfer
    to the execution.  The one copy of this arithmetic, so every caller
    gets :func:`evaluate_module_chain`'s bits."""
    l = len(execs)
    responses = []
    for i, t in enumerate(execs):
        if i > 0:
            t += comms[i - 1]
        if i < l - 1:
            t += comms[i]
        responses.append(t)
    effective = [t / r for t, r in zip(responses, reps)]
    bottleneck = _first_max(effective)
    throughput = 1.0 / effective[bottleneck] if effective[bottleneck] > 0 else float("inf")
    return responses, effective, bottleneck, throughput


def evaluate_module_chain(
    mchain: ModuleChain, allocations: Sequence[tuple[int, int]]
) -> MappingPerformance:
    """Evaluate explicit per-module ``(procs_per_instance, replicas)`` pairs.

    Responses follow §2.1: incoming external communication + execution +
    outgoing external communication, at the instance sizes of the modules
    involved; module ``i``'s effective response divides by its replica count.
    """
    l = len(mchain)
    if len(allocations) != l:
        raise InvalidMappingError(f"need {l} allocations, got {len(allocations)}")
    sizes = [p for p, _ in allocations]
    reps = [r for _, r in allocations]
    for info, p, r in zip(mchain.infos, sizes, reps):
        if p < info.p_min:
            raise InfeasibleError(
                f"module [{info.start}..{info.stop}] needs >= {info.p_min} "
                f"processors per instance, got {p}"
            )
        if r > 1 and not info.replicable:
            raise InvalidMappingError(
                f"module [{info.start}..{info.stop}] is not replicable"
            )

    execs = [float(info.exec_cost(p)) for info, p in zip(mchain.infos, sizes)]
    comms = [float(mchain.ecoms[i](sizes[i], sizes[i + 1])) for i in range(l - 1)]
    responses, effective, bottleneck, throughput = _price(execs, comms, reps)
    latency = sum(execs) + sum(comms)

    modules = [
        ModuleSpec(info.start, info.stop, sizes[i], reps[i])
        for i, info in enumerate(mchain.infos)
    ]
    return MappingPerformance(
        mapping=Mapping(modules),
        responses=responses,
        effective_responses=effective,
        bottleneck=bottleneck,
        throughput=throughput,
        latency=latency,
    )


def evaluate_mapping(
    chain: TaskChain,
    mapping: Mapping,
    mem_per_proc_mb: float = UNLIMITED_MEMORY_MB,
) -> MappingPerformance:
    """Evaluate a fully explicit :class:`Mapping` against a chain."""
    from .validate import ensure_valid_plan

    ensure_valid_plan(chain, mapping)
    mchain = build_module_chain(chain, mapping.clustering(), mem_per_proc_mb)
    allocations = [(m.procs, m.replicas) for m in mapping.modules]
    return evaluate_module_chain(mchain, allocations)


class Pricer:
    """Effective responses of *total* allocations: the interface greedy,
    its local search and brute force probe through.  A subclass sets
    ``p_min`` and ``_neighbours`` and prices one module in ``effective``.
    """

    def neighbours(self, i: int) -> list[int]:
        """The modules whose allocation module ``i``'s response reads."""
        return self._neighbours[i]

    def responses(self, totals: Sequence[int]) -> list[float]:
        """Every module's effective response under ``totals``."""
        return [self.effective(totals, i) for i in range(len(self.p_min))]

    def update(self, effective: list[float], totals: Sequence[int], changed) -> list[float]:
        """``effective`` re-priced after the modules in ``changed`` moved:
        only they and their neighbours see a different allocation."""
        out = list(effective)
        for c in changed:
            for i in (c, *self._neighbours[c]):
                out[i] = self.effective(totals, i)
        return out


class GraphPricer(Pricer):
    """The one cost-model pricer of chains and fork/join module graphs.

    ``modules`` carry ``exec_cost``, ``p_min`` and ``replicable``; ``links``
    is the ``(src, dst, ecom)`` table.  A module's response is exec, then
    in-links, then out-links at the §3.2 instance sizes, over its replica
    count (:func:`evaluate_module_chain`'s order and bits on a chain), or
    ``inf`` when it or a linked module is below its minimum.
    """

    def __init__(self, modules: Sequence, links: Sequence[tuple[int, int, BinaryCost]]):
        self.modules = list(modules)
        self.p_min = [m.p_min for m in self.modules]
        # Per module: (neighbour, ecom, outgoing), in-links first.
        self._links: list[list[tuple[int, BinaryCost, bool]]] = [[] for _ in self.modules]
        for src, dst, ecom in links:
            self._links[dst].append((src, ecom, False))
        for src, dst, ecom in links:
            self._links[src].append((dst, ecom, True))
        self._neighbours = [[j for j, _, _ in ls] for ls in self._links]
        self._memo: dict[tuple[int, ...], float] = {}

    def _split(self, totals: Sequence[int], i: int) -> tuple[int, int]:
        m = self.modules[i]
        return split_replicas(int(totals[i]), m.p_min, m.replicable)

    def response(self, totals: Sequence[int], i: int) -> tuple[float, int]:
        """Module ``i``'s one-instance response and replica count."""
        r, s = self._split(totals, i)
        if r == 0:
            return math.inf, 0
        t = float(self.modules[i].exec_cost(s))
        for j, ecom, outgoing in self._links[i]:
            rj, sj = self._split(totals, j)
            if rj == 0:
                return math.inf, r
            t += float(ecom(s, sj) if outgoing else ecom(sj, s))
        return t, r

    def effective(self, totals: Sequence[int], i: int) -> float:
        """Effective response of module ``i`` under ``totals``, memoised on
        the totals it reads: a search re-probes the same neighbourhoods."""
        key = (i, totals[i], *[totals[j] for j in self._neighbours[i]])
        if key not in self._memo:
            t, r = self.response(totals, i)
            self._memo[key] = t / r if r else math.inf
        return self._memo[key]


class ResponseReader(Pricer):
    """A chain's pricer that reads the DP's factors instead of cost models.

    Module ``i``'s effective response when modules ``i-1``, ``i``, ``i+1``
    hold ``q``, ``pl``, ``pn`` processors in total is

        (ce[q, pl] + com_out[pl, pn]) / denom[pl]

    from :meth:`ModuleChain.response_parts`, so a chain carrying a
    :class:`SegmentCache` shares the factors the DP built.  ``q``/``pn``
    are 0 at the ends of the chain (no neighbour).  The sum is
    (exec + in) + out, so it gives the bits of the path-graph
    :class:`GraphPricer`.

    Entries at index ``<= max_procs`` do not depend on ``max_procs``: one
    reader built for the machine size prices every probe of a solve.
    """

    def __init__(self, mchain: ModuleChain, max_procs: int):
        self.p_min = [info.p_min for info in mchain.infos]
        l = len(mchain)
        self._neighbours = [[j for j in (i - 1, i + 1) if 0 <= j < l] for i in range(l)]
        self.parts = [mchain.response_parts(i, max_procs) for i in range(l)]

    def effective(self, totals: Sequence[int], i: int) -> float:
        """Effective response of module ``i`` under ``totals``."""
        p_min = self.p_min
        p = totals[i]
        if p < p_min[i]:
            return math.inf
        q = pn = 0
        if i > 0:
            q = totals[i - 1]
            if q < p_min[i - 1]:
                return math.inf
        if i + 1 < len(p_min):
            pn = totals[i + 1]
            if pn < p_min[i + 1]:
                return math.inf
        ce, com_out, denom, _ = self.parts[i]
        return (ce.item(q, p) + com_out.item(p, pn)) / denom.item(p)


def bottleneck_throughput(effective: Sequence[float]) -> float:
    """``1 / max(effective)``: ``inf`` when the worst response is exactly
    0 (nothing costs anything), 0.0 when the bottleneck cannot run."""
    worst = max(effective)
    if worst == 0:
        return math.inf
    return 1.0 / worst if 0 < worst < math.inf else 0.0


def throughput_of_totals(
    mchain: ModuleChain, totals: Sequence[int]
) -> tuple[float, list[float]]:
    """Throughput and per-module effective responses for *total*
    allocations: the chain priced as a path graph by :class:`GraphPricer`.
    One probing many allocations builds one pricer instead."""
    links = [(i, i + 1, ecom) for i, ecom in enumerate(mchain.ecoms)]
    effective = GraphPricer(mchain.infos, links).responses(totals)
    return bottleneck_throughput(effective), effective


def totals_to_allocations(
    mchain: ModuleChain, totals: Sequence[int]
) -> list[tuple[int, int]]:
    """Convert *total* per-module allocations into ``(instance_size, replicas)``
    via the §3.2 maximal-replication rule."""
    out = []
    for info, p in zip(mchain.infos, totals):
        r, s = split_replicas(p, info.p_min, info.replicable)
        if r == 0:
            raise InfeasibleError(
                f"module [{info.start}..{info.stop}] cannot run on {p} processors "
                f"(needs {info.p_min})"
            )
        out.append((s, r))
    return out
