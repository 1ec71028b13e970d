"""Mappings, evaluation, and solvers for fork/join pipelines.

A mapping assigns each *segment* (top-level series run or parallel branch)
a list of modules — contiguous task runs with ``(procs, replicas)`` — and
never spans a fork/join boundary.  The evaluator generalises §2.2: a
module's response is the sum of *all* its transfer costs (a fork pays one
per branch, serialised at the sender) plus execution, divided by its
replica count; throughput is the reciprocal of the worst module.

Pricing and search live in :mod:`repro.core`: everything here prices with
:class:`~repro.core.response.GraphPricer` over the modules' out-links, and
the greedy (always followed by the Theorem 2 local search) and the oracle
are the chain solvers' own loops on that pricer.

**Accuracy caveat** (tested in ``tests/fjgraph``): for *linear* chains the
bottleneck formula is the exact steady-state period of the bufferless
rendezvous network (the paper's setting).  With forks and joins the
network can stall on cycles spanning several modules — in particular when
branches carry *unequal replica counts* — so the formula is an optimistic
upper bound on throughput there.  Simulation
(:func:`repro.fjgraph.simulate_fj`, the chain simulator's event engine
run on the module graph) measures the real rate;
:func:`greedy_fj_mapping` can re-rank its top candidates by short
simulations (``refine_with_sim=True``) to close the gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from ..core.cost import BinaryCost, UnaryCost
from ..core.exceptions import InfeasibleError, InvalidMappingError, PlanError, Violation
from ..core.exhaustive import best_allocation
from ..core.greedy import greedy_loop, local_search
from ..core.mapping import Mapping, ModuleSpec, all_clusterings
from ..core.replication import split_replicas
from ..core.response import GraphPricer, bottleneck_throughput, module_info
from ..core.validate import preflight
from .graph import FJGraph

__all__ = [
    "FJMapping",
    "FJModule",
    "FJPerformance",
    "build_modules",
    "evaluate_fj",
    "greedy_fj_assignment",
    "brute_force_fj",
    "greedy_fj_mapping",
]


@dataclass
class FJMapping:
    """Per-segment module lists; ``modules[s]`` tiles segment ``s``."""

    modules: list[list[ModuleSpec]]

    def validate(self, graph: FJGraph, total_procs: int | None = None) -> None:
        """Raise one :class:`PlanError` carrying every violation: each
        segment's modules must pass :func:`~repro.core.validate.preflight`
        against the segment's chain, and the whole mapping must fit in
        ``total_procs``."""
        if len(self.modules) != len(graph.segments):
            raise PlanError([Violation(
                "structure",
                f"mapping covers {len(self.modules)} segments, graph has "
                f"{len(graph.segments)}",
            )])
        violations = []
        for s, (seg, specs) in enumerate(zip(graph.segments, self.modules)):
            try:
                found = preflight(seg.as_chain(f"{graph.name}/{s}"), Mapping(specs))
            except PlanError as exc:
                found = exc.violations
            violations += [replace(v, message=f"segment {s}: {v.message}")
                           for v in found]
        if total_procs is not None and self.total_procs > total_procs:
            violations.append(Violation(
                "budget",
                f"mapping uses {self.total_procs} processors, machine has "
                f"{total_procs}",
            ))
        if violations:
            raise PlanError(violations)

    @property
    def total_procs(self) -> int:
        return sum(m.procs * m.replicas for specs in self.modules for m in specs)


@dataclass
class FJModule:
    """One module of the flattened fork/join module graph."""

    segment: int
    start: int
    stop: int
    exec_cost: UnaryCost
    p_min: int
    replicable: bool
    name: str
    out_links: list[tuple[int, BinaryCost]] = field(default_factory=list)


def build_modules(
    graph: FJGraph,
    clusterings: list[tuple[tuple[int, int], ...]],
    mem_per_proc_mb: float = float("inf"),
) -> list[FJModule]:
    """Flatten per-segment clusterings into the module graph with links."""
    if len(clusterings) != len(graph.segments):
        raise InvalidMappingError("need one clustering per segment")
    modules: list[FJModule] = []
    first_of_segment: dict[int, int] = {}
    last_of_segment: dict[int, int] = {}

    for s, (seg, clustering) in enumerate(zip(graph.segments, clusterings)):
        chain = seg.as_chain(f"{graph.name}/{s}")
        for span_idx, (start, stop) in enumerate(clustering):
            info = module_info(chain, start, stop, mem_per_proc_mb)
            idx = len(modules)
            if span_idx == 0:
                first_of_segment[s] = idx
            last_of_segment[s] = idx
            modules.append(
                FJModule(
                    segment=s, start=start, stop=stop,
                    exec_cost=info.exec_cost, p_min=info.p_min,
                    replicable=info.replicable,
                    name=",".join(t.name for t in seg.tasks[start : stop + 1]),
                )
            )
            # Intra-segment link to the previous module of this segment.
            if span_idx > 0:
                prev = idx - 1
                ecom = seg.edges[start - 1].ecom
                modules[prev].out_links.append((idx, ecom))

    # Fork/join links.
    for sec_idx, section in enumerate(graph.sections):
        before, after = graph.section_neighbours[sec_idx]
        fork = last_of_segment[before]
        join = first_of_segment[after]
        branch_segs = [
            i for i, seg in enumerate(graph.segments)
            if seg.role == "branch" and seg.section == sec_idx
        ]
        for b, seg_idx in enumerate(branch_segs):
            head = first_of_segment[seg_idx]
            tail = last_of_segment[seg_idx]
            f_ecom = section.fork_edges[b].ecom
            j_ecom = section.join_edges[b].ecom
            modules[fork].out_links.append((head, f_ecom))
            modules[tail].out_links.append((join, j_ecom))
    return modules


@dataclass
class FJPerformance:
    responses: list[float]
    effective_responses: list[float]
    bottleneck: int
    throughput: float


def _pricer(modules: list[FJModule]) -> GraphPricer:
    """The core graph pricer over the modules and their out-links."""
    return GraphPricer(modules, [(i, j, ecom) for i, m in enumerate(modules)
                                 for j, ecom in m.out_links])


def evaluate_fj(modules: list[FJModule], totals: list[int]) -> FJPerformance:
    """Evaluate total allocations over the module graph (§3.2 replication
    rule applied per module).  Infeasible totals give zero throughput."""
    price = _pricer(modules)
    responses = [price.response(totals, i)[0] for i in range(len(modules))]
    effective = price.responses(totals)
    return FJPerformance(
        responses=responses,
        effective_responses=effective,
        bottleneck=effective.index(max(effective)),
        throughput=bottleneck_throughput(effective),
    )


def greedy_fj_assignment(
    modules: list[FJModule], total_procs: int
) -> tuple[list[int], float]:
    """§4.1 greedy on the module graph — each processor goes to the
    bottleneck module or one of its graph neighbours — followed by the
    Theorem 2 local search."""
    price = _pricer(modules)
    totals, trajectory = greedy_loop(price, total_procs)
    totals, tp, _ = local_search(price, totals, total_procs, trajectory[-1])
    return totals, tp


def brute_force_fj(
    modules: list[FJModule], total_procs: int
) -> tuple[list[int], float]:
    """Exhaustive assignment oracle for small instances."""
    totals, tp, _ = best_allocation(_pricer(modules), total_procs)
    return totals, tp


def _mapping_from_totals(
    graph: FJGraph, modules: list[FJModule], totals: list[int]
) -> FJMapping:
    per_segment: list[list[ModuleSpec]] = [[] for _ in graph.segments]
    for m, p in zip(modules, totals):
        r, s = split_replicas(p, m.p_min, m.replicable)
        per_segment[m.segment].append(ModuleSpec(m.start, m.stop, s, r))
    return FJMapping(per_segment)


#: Per-segment clustering combinations :func:`greedy_fj_mapping` tries.
_MAX_CLUSTERINGS = 512
#: Top analytic candidates re-ranked by simulation, and their stream length.
_SIM_CANDIDATES = 4
_SIM_DATASETS = 120


def greedy_fj_mapping(
    graph: FJGraph,
    total_procs: int,
    mem_per_proc_mb: float = float("inf"),
    refine_with_sim: bool = False,
) -> tuple[FJMapping, float]:
    """Full heuristic mapper: enumerate per-segment clusterings (the first
    512 combinations) and run the greedy assignment on each flattened
    module graph.

    With ``refine_with_sim`` the top 4 clusterings by the analytic bound
    are re-ranked by short noiseless simulations (the bound is optimistic
    on fork/join structures — see the module docstring), and the returned
    throughput is the *measured* one.
    """
    options = [list(all_clusterings(len(seg.tasks))) for seg in graph.segments]
    combos = itertools.islice(itertools.product(*options), _MAX_CLUSTERINGS)
    candidates = []
    for combo in combos:
        modules = build_modules(graph, list(combo), mem_per_proc_mb)
        if sum(m.p_min for m in modules) > total_procs:
            continue
        totals, tp = greedy_fj_assignment(modules, total_procs)
        candidates.append((tp, totals, modules))
    if not candidates:
        raise InfeasibleError(
            f"no clustering of {graph.name!r} fits on {total_procs} processors"
        )
    candidates.sort(key=lambda c: -c[0])

    if not refine_with_sim:
        tp, totals, modules = candidates[0]
        return _mapping_from_totals(graph, modules, totals), tp

    from .sim import simulate_fj

    best = None
    for tp, totals, modules in candidates[:_SIM_CANDIDATES]:
        mapping = _mapping_from_totals(graph, modules, totals)
        measured = simulate_fj(graph, mapping, n_datasets=_SIM_DATASETS).throughput
        if best is None or measured > best[1]:
            best = (mapping, measured)
    return best
