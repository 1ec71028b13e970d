"""Simulation of fork/join pipelines on the chain simulator's event engine.

:func:`simulate_fj` describes the mapped module graph — per-module phases
by the chain's phase rule, one edge per fork, join or intra-segment link —
and runs it through :mod:`repro.sim.pipeline`'s stream runner, so graphs
and chains share one rendezvous engine, one result type and one
throughput estimator.  A plain chain wrapped as an :class:`FJGraph` gives
the same bits as :func:`repro.sim.simulate` on the event engine.
"""

from __future__ import annotations

from ..core.exceptions import SimulationError
from ..sim.modulegraph import ModuleGraph, module_phases
from ..sim.noise import NoiseModel
from ..sim.pipeline import SimulationResult, _Once, _run_stream
from .graph import FJGraph
from .mapping import FJMapping, build_modules

__all__ = ["simulate_fj"]


def _module_graph(graph: FJGraph, mapping: FJMapping) -> ModuleGraph:
    """The mapped module graph: modules in :func:`build_modules` order,
    edges in each sender's out-link order."""
    specs = [sorted(s, key=lambda m: m.start) for s in mapping.modules]
    modules = build_modules(
        graph, [tuple((m.start, m.stop) for m in s) for s in specs])
    flat = [m for s in specs for m in s]
    chains = [seg.as_chain(f"{graph.name}/{i}")
              for i, seg in enumerate(graph.segments)]
    first = [graph.segments[m.segment].tasks[m.start].name for m in modules]
    last = [graph.segments[m.segment].tasks[m.stop].name for m in modules]
    edges = [
        (i, j, float(ecom(flat[i].procs, flat[j].procs)), f"{last[i]}->{first[j]}")
        for i, m in enumerate(modules) for j, ecom in m.out_links
    ]
    phases = [module_phases(chains[m.segment], spec)
              for m, spec in zip(modules, flat)]
    return ModuleGraph(phases, [m.replicas for m in flat], edges)


def simulate_fj(
    graph: FJGraph,
    mapping: FJMapping,
    n_datasets: int = 200,
    noise: NoiseModel | None = None,
    warmup_fraction: float = 0.2,
) -> SimulationResult:
    """Run the fork/join pipeline and measure its steady-state behaviour.

    Always on the event engine: the fast recurrence is chain-only.
    """
    if n_datasets < 2:
        raise SimulationError("need at least 2 data sets")
    mapping.validate(graph)
    return _run_stream(None, _Once(mapping, n_datasets), n_datasets,
                       noise or NoiseModel.silent(), "event", warmup_fraction,
                       graph=_module_graph(graph, mapping))
