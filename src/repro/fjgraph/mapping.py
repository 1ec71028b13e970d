"""Mappings, evaluation, and solvers for fork/join pipelines.

A mapping assigns each *segment* (top-level series run or parallel branch)
a list of modules — contiguous task runs with ``(procs, replicas)`` — and
never spans a fork/join boundary.  The evaluator generalises §2.2: a
module's response is the sum of *all* its transfer costs (a fork pays one
per branch, serialised at the sender) plus execution, divided by its
replica count; throughput is the reciprocal of the worst module.

**Accuracy caveat** (tested in ``tests/fjgraph``): for *linear* chains the
bottleneck formula is the exact steady-state period of the bufferless
rendezvous network (the paper's setting).  With forks and joins the
network can stall on cycles spanning several modules — in particular when
branches carry *unequal replica counts* — so the formula is an optimistic
upper bound on throughput there.  The simulator
(:func:`repro.fjgraph.simulate_fj`) is the ground truth;
:func:`greedy_fj_mapping` can re-rank its top candidates by short
simulations (``refine_with_sim=True``) to close the gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..core.cost import BinaryCost, UnaryCost
from ..core.exceptions import InfeasibleError, InvalidMappingError
from ..core.exhaustive import enumerate_allocations
from ..core.mapping import ModuleSpec, all_clusterings
from ..core.replication import split_replicas
from ..core.response import module_info
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
        if len(self.modules) != len(graph.segments):
            raise InvalidMappingError(
                f"mapping covers {len(self.modules)} segments, graph has "
                f"{len(graph.segments)}"
            )
        for seg, specs in zip(graph.segments, self.modules):
            pos = 0
            for m in sorted(specs, key=lambda m: m.start):
                if m.start != pos:
                    raise InvalidMappingError(
                        f"modules must tile segment tasks (gap at {pos})"
                    )
                pos = m.stop + 1
            if pos != len(seg.tasks):
                raise InvalidMappingError("segment not fully covered")
        for seg, specs in zip(graph.segments, self.modules):
            for m in specs:
                if m.replicas > 1 and not all(
                    t.replicable for t in seg.tasks[m.start : m.stop + 1]
                ):
                    raise InvalidMappingError(
                        "replicated module contains a non-replicable task"
                    )
        if total_procs is not None and self.total_procs > total_procs:
            raise InvalidMappingError(
                f"mapping uses {self.total_procs} processors, machine has "
                f"{total_procs}"
            )

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
    in_links: list[tuple[int, BinaryCost]] = field(default_factory=list)
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
                modules[idx].in_links.append((prev, ecom))

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
            modules[head].in_links.append((fork, f_ecom))
            modules[tail].out_links.append((join, j_ecom))
            modules[join].in_links.append((tail, j_ecom))
    return modules


@dataclass
class FJPerformance:
    responses: list[float]
    effective_responses: list[float]
    bottleneck: int
    throughput: float
    module_names: list[str]


def _effective_sizes(
    modules: list[FJModule], totals: list[int]
) -> tuple[list[int], list[int]]:
    sizes, reps = [], []
    for m, p in zip(modules, totals):
        r, s = split_replicas(int(p), m.p_min, m.replicable)
        sizes.append(s)
        reps.append(r)
    return sizes, reps


def evaluate_fj(modules: list[FJModule], totals: list[int]) -> FJPerformance:
    """Evaluate total allocations over the module graph (§3.2 replication
    rule applied per module).  Infeasible totals give zero throughput."""
    sizes, reps = _effective_sizes(modules, totals)
    responses = []
    for i, m in enumerate(modules):
        if reps[i] == 0:
            responses.append(float("inf"))
            continue
        t = float(m.exec_cost(sizes[i]))
        for j, ecom in m.in_links:
            t += float(ecom(sizes[j], sizes[i])) if sizes[j] > 0 else float("inf")
        for j, ecom in m.out_links:
            t += float(ecom(sizes[i], sizes[j])) if sizes[j] > 0 else float("inf")
        responses.append(t)
    effective = [
        t / r if r > 0 else float("inf") for t, r in zip(responses, reps)
    ]
    worst = max(effective)
    tp = 1.0 / worst if worst > 0 and worst != float("inf") else 0.0
    bottleneck = effective.index(worst)
    return FJPerformance(
        responses=responses,
        effective_responses=effective,
        bottleneck=bottleneck,
        throughput=tp,
        module_names=[m.name for m in modules],
    )


def greedy_fj_assignment(
    modules: list[FJModule], total_procs: int
) -> tuple[list[int], float]:
    """§4.1 greedy generalised to the module graph: award each processor to
    the bottleneck module or one of its graph neighbours."""
    totals = [m.p_min for m in modules]
    spare = total_procs - sum(totals)
    if spare < 0:
        raise InfeasibleError(
            f"modules need {sum(totals)} processors, machine has {total_procs}"
        )
    best_tp = evaluate_fj(modules, totals).throughput
    best_totals = list(totals)
    while spare > 0:
        perf = evaluate_fj(modules, totals)
        slow = perf.bottleneck
        neighbours = [slow]
        neighbours += [j for j, _ in modules[slow].in_links]
        neighbours += [j for j, _ in modules[slow].out_links]
        best_c, best_c_tp = neighbours[0], -1.0
        for c in neighbours:
            totals[c] += 1
            tp = evaluate_fj(modules, totals).throughput
            totals[c] -= 1
            if tp > best_c_tp:
                best_c, best_c_tp = c, tp
        totals[best_c] += 1
        spare -= 1
        if best_c_tp > best_tp:
            best_tp, best_totals = best_c_tp, list(totals)
    return best_totals, best_tp


def brute_force_fj(
    modules: list[FJModule], total_procs: int
) -> tuple[list[int], float]:
    """Exhaustive assignment oracle for small instances."""
    minimums = [m.p_min for m in modules]
    if sum(minimums) > total_procs:
        raise InfeasibleError("minimums exceed the machine")
    best_tp, best = -1.0, None
    for totals in enumerate_allocations(minimums, total_procs):
        tp = evaluate_fj(modules, totals).throughput
        if tp > best_tp:
            best_tp, best = tp, totals
    return best, best_tp


def _mapping_from_totals(
    graph: FJGraph,
    clusterings: list[tuple[tuple[int, int], ...]],
    modules: list[FJModule],
    totals: list[int],
) -> FJMapping:
    sizes, reps = _effective_sizes(modules, totals)
    per_segment: list[list[ModuleSpec]] = [[] for _ in graph.segments]
    for m, s, r in zip(modules, sizes, reps):
        per_segment[m.segment].append(ModuleSpec(m.start, m.stop, s, r))
    return FJMapping(per_segment)


def greedy_fj_mapping(
    graph: FJGraph,
    total_procs: int,
    mem_per_proc_mb: float = float("inf"),
    max_clusterings: int = 512,
    refine_with_sim: bool = False,
    sim_candidates: int = 4,
    sim_datasets: int = 120,
) -> tuple[FJMapping, float]:
    """Full heuristic mapper: enumerate per-segment clusterings (bounded)
    and run the greedy assignment on each flattened module graph.

    With ``refine_with_sim`` the top ``sim_candidates`` clusterings by the
    analytic bound are re-ranked by short noiseless simulations (the bound
    is optimistic on fork/join structures — see the module docstring), and
    the returned throughput is the *measured* one.
    """
    options = [list(all_clusterings(len(seg.tasks))) for seg in graph.segments]
    combos = itertools.islice(itertools.product(*options), max_clusterings)
    candidates = []
    for combo in combos:
        modules = build_modules(graph, list(combo), mem_per_proc_mb)
        if sum(m.p_min for m in modules) > total_procs:
            continue
        totals, tp = greedy_fj_assignment(modules, total_procs)
        candidates.append((tp, list(combo), totals, modules))
    if not candidates:
        raise InfeasibleError(
            f"no clustering of {graph.name!r} fits on {total_procs} processors"
        )
    candidates.sort(key=lambda c: -c[0])

    if not refine_with_sim:
        tp, combo, totals, modules = candidates[0]
        return _mapping_from_totals(graph, combo, modules, totals), tp

    from .sim import simulate_fj

    best = None
    for tp, combo, totals, modules in candidates[:sim_candidates]:
        mapping = _mapping_from_totals(graph, combo, modules, totals)
        measured = simulate_fj(
            graph, mapping, n_datasets=sim_datasets
        ).throughput
        if best is None or measured > best[1]:
            best = (mapping, measured)
    return best
