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

from dataclasses import dataclass
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
    "build_module_chain",
    "MappingPerformance",
    "evaluate_module_chain",
    "evaluate_mapping",
]

#: Default per-processor memory when no machine is specified: effectively
#: unlimited, so p_min degenerates to the tasks' explicit minimums.
UNLIMITED_MEMORY_MB = float("inf")


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
    communication cost between modules ``i`` and ``i+1``.
    """

    def __init__(
        self,
        chain: TaskChain,
        infos: list[ModuleInfo],
        ecoms: list[BinaryCost],
        cache: "SegmentCache | None" = None,
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

    # -- effective-size tables (for the vectorised DP) --------------------
    def effective(self, max_procs: int) -> tuple[np.ndarray, np.ndarray]:
        """Stacked replication tables: ``(R, S)`` of shape ``(l, max_procs+1)``
        where ``R[i, p]``/``S[i, p]`` are instance count / instance size for
        module ``i`` given a total allocation ``p`` (0 when infeasible)."""
        rs, ss = [], []
        for m in self.infos:
            r, s = effective_tables(max_procs, m.p_min, m.replicable)
            rs.append(r)
            ss.append(s)
        return np.stack(rs), np.stack(ss)

    def response_parts(
        self, i: int, max_procs: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Separable factors of :meth:`response_tensor` (performance layer).

        The full tensor decomposes as

            R[q, pl, pn] = (ce[q, pl] + com_out[pl, pn]) / denom[pl]

        with infeasible ``pl`` forced to +inf, where ``ce`` is the incoming
        communication plus execution and ``denom`` the replica count.
        Returning the 2-D factors lets the DP assemble ``R`` directly into a
        reusable buffer (any memory layout, any dtype) and lets the segment
        cache share them across clusterings.  Arrays are cached when the
        chain carries a :class:`SegmentCache` — treat them as read-only.
        """
        if self.cache is not None:
            return self.cache.parts(self, i, max_procs)
        return _compute_parts(self, i, max_procs)

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


def _ecom_grid(ecom: BinaryCost, s_a: np.ndarray, s_b: np.ndarray) -> np.ndarray:
    """Evaluate an external-communication model on the grid of effective
    sizes, with index 0 (= "no neighbour"/infeasible) giving 0 on the
    neighbour axis and +inf on the module's own axis handled by callers."""
    P = len(s_a) - 1
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


def _compute_parts(
    mchain: ModuleChain, i: int, P: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the separable response factors for module ``i`` (uncached)."""
    info = mchain.infos[i]
    r_self, s_self = effective_tables(P, info.p_min, info.replicable)
    sl = s_self.astype(float)
    feasible = r_self > 0

    exec_part = np.full(P + 1, np.inf)
    exec_part[feasible] = info.exec_cost(sl[feasible])

    # Incoming communication: grid over (q, pl).
    if i > 0:
        prev = mchain.infos[i - 1]
        _, s_prev = effective_tables(P, prev.p_min, prev.replicable)
        com_in = _ecom_grid(mchain.ecoms[i - 1], s_prev, s_self)  # (q, pl)
    else:
        com_in = np.zeros((P + 1, P + 1))
        com_in[:, ~feasible] = np.inf
    # Outgoing communication: grid over (pl, pn).
    if i < len(mchain.infos) - 1:
        nxt = mchain.infos[i + 1]
        _, s_next = effective_tables(P, nxt.p_min, nxt.replicable)
        com_out = _ecom_grid(mchain.ecoms[i], s_self, s_next)  # (pl, pn)
    else:
        com_out = np.zeros((P + 1, P + 1))
        com_out[~feasible, :] = np.inf

    ce = com_in + exec_part[None, :]  # (q, pl)
    denom = np.where(feasible, r_self, 1).astype(float)
    return ce, com_out, denom, feasible


class SegmentCache:
    """Memoised per-segment characteristics of one chain (performance layer).

    The exhaustive clustering solver enumerates ``2^(k-1)`` clusterings of a
    ``k``-task chain, but those clusterings share only ``k(k+1)/2`` distinct
    segments.  This cache makes each segment's :class:`ModuleInfo` (with its
    composed execution cost) and its response factors be computed once per
    distinct context, not once per clustering.

    Response factors additionally depend on the *neighbouring* module only
    through its ``(p_min, replicable)`` pair, so the cache keys on those
    values rather than on neighbour spans — adjacent clusterings that differ
    in far-away boundaries share everything.

    One cache is bound to one ``(chain, mem_per_proc_mb)`` context; the
    chains it builds carry a reference back so the DP transparently hits it.
    """

    def __init__(
        self, chain: TaskChain, mem_per_proc_mb: float = UNLIMITED_MEMORY_MB
    ):
        self.chain = chain
        self.mem_per_proc_mb = mem_per_proc_mb
        self._infos: dict[tuple[int, int], ModuleInfo] = {}
        self._parts: dict[tuple, tuple] = {}
        self.info_misses = 0
        self.part_misses = 0

    def info(self, start: int, stop: int) -> ModuleInfo:
        """The (memoised) module over tasks ``start..stop``."""
        key = (start, stop)
        got = self._infos.get(key)
        if got is None:
            chain = self.chain
            if self.mem_per_proc_mb == UNLIMITED_MEMORY_MB:
                p_min = max(t.min_procs for t in chain.segment_tasks(start, stop))
            else:
                p_min = chain.segment_min_procs(start, stop, self.mem_per_proc_mb)
            got = ModuleInfo(
                start=start,
                stop=stop,
                exec_cost=module_exec_cost(chain, start, stop),
                p_min=p_min,
                replicable=chain.segment_replicable(start, stop),
            )
            self._infos[key] = got
            self.info_misses += 1
        return got

    def module_chain(self, clustering: Sequence[tuple[int, int]]) -> ModuleChain:
        """Like :func:`build_module_chain`, reusing memoised infos."""
        return build_module_chain(
            self.chain, clustering, self.mem_per_proc_mb, cache=self
        )

    def parts(self, mchain: ModuleChain, i: int, P: int) -> tuple:
        """Memoised :func:`_compute_parts` for module ``i`` of ``mchain``."""
        info = mchain.infos[i]
        prev = mchain.infos[i - 1] if i > 0 else None
        nxt = mchain.infos[i + 1] if i < len(mchain.infos) - 1 else None
        # Keyed by the module's own identity plus the neighbour replication
        # contexts; p_min/replicable are part of the key (not derived from
        # the span) so replication-stripped chains cache separately.
        key = (
            info.start, info.stop, info.p_min, info.replicable,
            (prev.p_min, prev.replicable) if prev is not None else None,
            (nxt.p_min, nxt.replicable) if nxt is not None else None,
            P,
        )
        got = self._parts.get(key)
        if got is None:
            got = _compute_parts(mchain, i, P)
            for arr in got:
                arr.setflags(write=False)
            self._parts[key] = got
            self.part_misses += 1
        return got

    def invalidate(self, tasks=(), edges=()) -> int:
        """Evict every entry whose value depends on a changed task or edge.

        ``tasks``/``edges`` are indices into the bound chain whose cost
        models (or memory/replicability attributes) changed.  Evicted are:

        * infos (and their parts) whose span *contains* a changed task, or
          *straddles* a changed edge — the edge's internal-communication
          cost is swallowed into the module execution cost;
        * parts whose span is *adjacent* to a changed edge (``start ==
          edge+1`` or ``stop == edge``) — the edge's external-communication
          cost prices their boundary transfer.

        Entries that survive are exactly those whose cost tensors are
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

        def touches(start: int, stop: int) -> bool:
            return (any(start <= i <= stop for i in tset)
                    or any(start <= j < stop for j in eset))

        dead_infos = [k for k in self._infos if touches(*k)]
        for k in dead_infos:
            del self._infos[k]
        dead_parts = [
            k for k in self._parts
            if touches(k[0], k[1])
            or any(k[0] == j + 1 or k[1] == j for j in eset)
        ]
        for k in dead_parts:
            del self._parts[k]
        return len(dead_infos) + len(dead_parts)


def module_exec_cost(chain: TaskChain, start: int, stop: int) -> UnaryCost:
    """Execution cost of the module ``start..stop``: the sum of its tasks'
    execution costs plus the internal communication of swallowed edges
    (§3.3 — composable in O(1) from constituent characteristics)."""
    parts: list[UnaryCost] = [t.exec_cost for t in chain.segment_tasks(start, stop)]
    for e in range(start, stop):
        parts.append(chain.edges[e].icom)
    if len(parts) == 1:
        return parts[0]
    return SumUnary(parts)


def build_module_chain(
    chain: TaskChain,
    clustering: Sequence[tuple[int, int]],
    mem_per_proc_mb: float = UNLIMITED_MEMORY_MB,
    cache: SegmentCache | None = None,
) -> ModuleChain:
    """Compose the module-level view of ``chain`` under ``clustering``.

    Passing a :class:`SegmentCache` (bound to the same chain and memory
    limit) reuses memoised per-segment characteristics and attaches the
    cache to the result so response factors are shared across clusterings.
    """
    spans = list(clustering)
    if spans[0][0] != 0 or spans[-1][1] != len(chain) - 1:
        raise InvalidMappingError(f"clustering {spans} does not cover the chain")
    infos = []
    for start, stop in spans:
        if infos and start != infos[-1].stop + 1:
            raise InvalidMappingError(f"clustering {spans} is not contiguous")
        if cache is not None:
            infos.append(cache.info(start, stop))
            continue
        if mem_per_proc_mb == UNLIMITED_MEMORY_MB:
            p_min = max(t.min_procs for t in chain.segment_tasks(start, stop))
        else:
            p_min = chain.segment_min_procs(start, stop, mem_per_proc_mb)
        infos.append(
            ModuleInfo(
                start=start,
                stop=stop,
                exec_cost=module_exec_cost(chain, start, stop),
                p_min=p_min,
                replicable=chain.segment_replicable(start, stop),
            )
        )
    ecoms = [chain.edges[info.stop].ecom for info in infos[:-1]]
    return ModuleChain(chain, infos, ecoms, cache=cache)


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

    comms = [float(mchain.ecoms[i](sizes[i], sizes[i + 1])) for i in range(l - 1)]
    responses = []
    for i, info in enumerate(mchain.infos):
        t = float(info.exec_cost(sizes[i]))
        if i > 0:
            t += comms[i - 1]
        if i < l - 1:
            t += comms[i]
        responses.append(t)
    effective = [t / r for t, r in zip(responses, reps)]
    bottleneck = int(np.argmax(effective))
    throughput = 1.0 / effective[bottleneck] if effective[bottleneck] > 0 else float("inf")
    latency = sum(float(info.exec_cost(sizes[i])) for i, info in enumerate(mchain.infos))
    latency += sum(comms)

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


def throughput_of_totals(
    mchain: ModuleChain, totals: Sequence[int]
) -> tuple[float, list[float]]:
    """Throughput and per-module effective responses for *total* allocations.

    Applies the §3.2 maximal-replication rule to each module.  Infeasible
    totals (below the module minimum) yield ``inf`` responses and zero
    throughput rather than raising, so search algorithms can probe freely.
    """
    l = len(mchain)
    sizes = [0] * l
    reps = [0] * l
    for i, (info, p) in enumerate(zip(mchain.infos, totals)):
        r, s = split_replicas(int(p), info.p_min, info.replicable)
        sizes[i], reps[i] = s, r
    effective = [float("inf")] * l
    # l >= 1 always (ModuleChain requires at least one module), so the comms
    # list is simply empty for a single-module chain and never indexed.
    comms = [0.0] * (l - 1)
    for i in range(l - 1):
        if sizes[i] > 0 and sizes[i + 1] > 0:
            comms[i] = float(mchain.ecoms[i](sizes[i], sizes[i + 1]))
        else:
            comms[i] = float("inf")
    for i, info in enumerate(mchain.infos):
        if reps[i] == 0:
            continue
        t = float(info.exec_cost(sizes[i]))
        if i > 0:
            t += comms[i - 1]
        if i < l - 1:
            t += comms[i]
        effective[i] = t / reps[i]
    worst = max(effective)
    tp = 0.0 if not np.isfinite(worst) or worst <= 0 else 1.0 / worst
    return tp, effective


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
