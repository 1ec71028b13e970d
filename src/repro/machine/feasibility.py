"""Machine-constrained ("feasible optimal") mappings — paper §6.1 & Table 1.

The mapping algorithms assume any processor count can be given to any
module; real compilers and machines do not.  The Fx compiler requires every
module instance to occupy a *rectangular* subarray of the grid, all the
rectangles must pack onto the grid simultaneously, and in systolic mode the
logical pathways between communicating modules may not exceed a per-link
cap.  Table 1 reports the optimal mapping *subject to these constraints*;
on the 8×8 iWarp it differs from the unconstrained optimum for the
512×512/systolic FFT-Hist (a 13-processor module — 13 is prime — becomes
12).

``optimal_feasible_mapping`` first checks the unconstrained optimum: a
constrained optimum can never beat it, so an optimum that already passes
``check_feasible`` is the feasible optimum.  Only otherwise does it run the
clustering DP again, with instance sizes restricted to rectangular subarray
sizes and through the same segment cache, then verify packability and
pathway limits, falling back to a bounded perturbation search when geometry
alone rejects the allocation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core import (
    InfeasibleError,
    Mapping,
    MappingPerformance,
    SegmentCache,
    evaluate_module_chain,
    optimal_mapping,
)
from ..core.dp_cluster import ClusteredResult
from ..core.task import TaskChain
from .machine import MachineSpec
from .packing import PackingResult, pack_rectangles
from .systolic import max_link_load
from .topology import Rect, is_rectangularizable

#: Most perturbed variants of the optimum checked against the geometry.
MAX_CANDIDATES = 200

__all__ = ["FeasibilityReport", "check_feasible", "optimal_feasible_mapping", "FeasibleResult"]


@dataclass
class FeasibilityReport:
    """Why a mapping is (in)feasible on a machine."""

    feasible: bool
    reason: str
    placements: list[list[Rect]] | None  # per module, per instance
    max_pathways: int                    # busiest link (systolic only)

    def __bool__(self):
        return self.feasible


def _instance_areas(mapping: Mapping) -> list[int]:
    areas = []
    for m in mapping.modules:
        areas.extend([m.procs] * m.replicas)
    return areas


def check_feasible(mapping: Mapping, machine: MachineSpec) -> FeasibilityReport:
    """Check rectangularity, packability, and pathway limits for a mapping."""
    if mapping.total_procs > machine.total_procs:
        return FeasibilityReport(False, "uses more processors than the machine", None, 0)
    if machine.require_rectangular:
        for m in mapping.modules:
            if not is_rectangularizable(m.procs, machine.rows, machine.cols):
                return FeasibilityReport(
                    False,
                    f"{m.procs} processors cannot form a rectangle on "
                    f"{machine.rows}x{machine.cols}",
                    None,
                    0,
                )
        packing: PackingResult = pack_rectangles(
            _instance_areas(mapping), machine.rows, machine.cols
        )
        if not packing.feasible:
            return FeasibilityReport(False, "module instances do not pack onto the grid", None, 0)
        # Regroup flat placement list back into per-module lists.
        rects: list[list[Rect]] = []
        it = iter(packing.rects)
        for m in mapping.modules:
            rects.append([next(it) for _ in range(m.replicas)])
    else:
        rects = None

    max_load = 0
    if machine.is_systolic and machine.pathway_cap > 0:
        if rects is None:
            # Without placement geometry we cannot route; treat the pathway
            # count between adjacent modules as the load bound.
            from .systolic import pathway_pairs

            max_load = max(
                (
                    len(pathway_pairs(a.replicas, b.replicas))
                    for a, b in zip(mapping.modules, mapping.modules[1:])
                ),
                default=0,
            )
        else:
            max_load = max_link_load(rects)
        if max_load > machine.pathway_cap:
            return FeasibilityReport(
                False,
                f"{max_load} pathways on the busiest link exceed the cap "
                f"{machine.pathway_cap}",
                rects,
                max_load,
            )
    return FeasibilityReport(True, "ok", rects, max_load)


@dataclass
class FeasibleResult:
    """A machine-feasible mapping plus its provenance."""

    performance: MappingPerformance
    report: FeasibilityReport
    adjusted: bool              # True if geometry forced a perturbation
    candidates_tried: int

    @property
    def mapping(self) -> Mapping:
        return self.performance.mapping

    @property
    def throughput(self) -> float:
        return self.performance.throughput


def optimal_feasible_mapping(
    chain: TaskChain,
    machine: MachineSpec,
    replication: bool = True,
    cache: SegmentCache | None = None,
    optimum: ClusteredResult | None = None,
) -> FeasibleResult:
    """Best mapping satisfying the machine's geometric constraints.

    ``optimum`` is the unconstrained optimum, ``optimal_mapping(chain,
    machine.total_procs, machine.mem_per_proc_mb, replication)``; it is
    computed here when omitted, by the algorithm :func:`optimal_mapping`
    picks for the chain.  If it passes :func:`check_feasible` it is
    returned as is: no feasible mapping beats it.  Otherwise the clustering
    DP runs again with instance sizes restricted to rectangular subarray
    sizes, the result's packing/pathways are verified, and if geometry
    still rejects the allocation, the best :data:`MAX_CANDIDATES` bounded
    perturbations (shrinking instance sizes or replica counts) are tried in
    predicted-throughput order.

    ``cache`` (a :class:`SegmentCache` bound to ``chain`` and the machine's
    memory limit) is shared by both solves; a mismatched cache is ignored.
    """
    mem = machine.mem_per_proc_mb
    if cache is None or not cache.serves(chain, mem):
        cache = SegmentCache(chain, mem)
    if optimum is None:
        optimum = optimal_mapping(
            chain, machine.total_procs, mem_per_proc_mb=mem,
            replication=replication, cache=cache,
        )
    base = optimum
    report = check_feasible(base.mapping, machine)
    size_ok = None
    if not report and machine.require_rectangular:
        size_ok = lambda s: is_rectangularizable(s, machine.rows, machine.cols)
        base = optimal_mapping(
            chain, machine.total_procs, mem_per_proc_mb=mem,
            replication=replication, instance_size_ok=size_ok,
            cache=cache,
        )
        report = check_feasible(base.mapping, machine)
    if report:
        return FeasibleResult(base.performance, report, adjusted=False, candidates_tried=1)

    # Geometry (packing or pathways) rejected the DP's pick: perturb.
    mchain = cache.module_chain(base.clustering)
    specs = base.mapping.modules
    options = []
    for m, info in zip(specs, mchain.infos):
        opts = []
        sizes = [s for s in range(info.p_min, m.procs + 1)
                 if size_ok is None or size_ok(s)]
        for s in sorted(sizes, reverse=True)[:4]:
            for r in range(m.replicas, 0, -1):
                opts.append((s, r))
        options.append(opts)

    candidates = []
    for combo in itertools.islice(itertools.product(*options), 5000):
        if sum(s * r for s, r in combo) > machine.total_procs:
            continue
        try:
            perf = evaluate_module_chain(mchain, list(combo))
        except InfeasibleError:
            continue
        candidates.append(perf)
    candidates.sort(key=lambda p: -p.throughput)

    tried = 1
    for perf in candidates[:MAX_CANDIDATES]:
        tried += 1
        rep = check_feasible(perf.mapping, machine)
        if rep:
            return FeasibleResult(perf, rep, adjusted=True, candidates_tried=tried)
    raise InfeasibleError(
        f"no machine-feasible variant of the optimal mapping found for "
        f"{chain.name!r} on {machine.name}"
    )
