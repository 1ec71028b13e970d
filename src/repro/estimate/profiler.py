"""Profiling: run training mappings through the simulator and collect
per-task execution, per-edge communication, and memory samples (§5).

This plays the role of the Fx profiling infrastructure: each simulated run
is "instrumented", and the mean observed duration of every task slice /
transfer becomes one sample at the partition sizes that run used.  The
instrument is the event loop itself: a profiling run's module graph gives
every phase and external edge its own sample list, keyed by task or edge
index, and the loop appends each busy interval's duration to it in event
order, with :attr:`TraceEvent.duration
<repro.sim.trace.TraceEvent.duration>`'s expression, so the samples equal
a recorded trace's bit for bit; no trace is built.  One batched reduction
then takes every group's mean.  Memory footprints are observed directly
(they are deterministic in the model, as they are in a real compiler's
accounting).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.exceptions import SimulationError
from ..core.mapping import Mapping
from ..core.task import TaskChain
from ..core.validate import ensure_valid_plan
from ..sim.modulegraph import ModuleGraph, chain_graph
from ..sim.noise import NoiseModel
from ..sim.pipeline import _Once, _run_segments

__all__ = ["ProfileData", "profile_chain"]

@dataclass
class ProfileData:
    """Samples gathered from a set of profiled runs.

    ``exec_samples[i]`` — list of ``(p, seconds)`` for task ``i``;
    ``icom_samples[e]`` / ``ecom_samples[e]`` — internal / external samples
    for edge ``e``; ``memory_samples[i]`` — ``(p, MB per processor)``.
    """

    exec_samples: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    icom_samples: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    ecom_samples: dict[int, list[tuple[int, int, float]]] = field(default_factory=dict)
    memory_samples: dict[int, list[tuple[int, float]]] = field(default_factory=dict)

    def merge(self, other: "ProfileData") -> None:
        for i, s in other.exec_samples.items():
            self.exec_samples.setdefault(i, []).extend(s)
        for e, s in other.icom_samples.items():
            self.icom_samples.setdefault(e, []).extend(s)
        for e, s in other.ecom_samples.items():
            self.ecom_samples.setdefault(e, []).extend(s)
        for i, s in other.memory_samples.items():
            self.memory_samples.setdefault(i, []).extend(s)


def _sampled_graph(chain: TaskChain, mapping: Mapping) -> tuple[ModuleGraph, dict]:
    """The chain's module graph under ``mapping`` with a sample list on every
    phase and external edge, and those lists keyed ``("task", t)``,
    ``("icom", e)`` or ``("recv", e)`` by task or edge index.

    A module's phases are its tasks in order, each followed by its internal
    redistribution when that costs anything (see :func:`module_phases`), so
    an ``icom`` phase belongs to the edge after the task just passed.
    """
    graph = chain_graph(chain, mapping)
    groups: dict[tuple[str, int], list[float]] = {}
    for m, phases in zip(mapping.modules, graph.phases):
        t = m.start - 1
        for j, (kind, label, base, _) in enumerate(phases):
            if kind == "task":
                t += 1
            phases[j] = (kind, label, base, groups.setdefault((kind, t), []))
    graph.edge_samples = [groups.setdefault(("recv", a.stop), [])
                       for a in mapping.modules[:-1]]
    return graph, groups


def _profile_run(
    chain: TaskChain, mapping: Mapping, n_datasets: int, noise: NoiseModel
) -> ProfileData:
    ensure_valid_plan(chain, mapping)
    graph, groups = _sampled_graph(chain, mapping)
    # The samples are all a profiling run yields: it runs the stream's
    # segments (which raise on a deadlock) and builds no result summary.
    _run_segments(chain, _Once(mapping, n_datasets), n_datasets, noise,
                  "event", graph=graph)
    # A fault-free run observes every phase and transfer once per data set,
    # so the groups stack into one array and one reduction takes every
    # mean; each row's mean has the bits of ``np.mean`` of its group.
    for key, observed in groups.items():
        if len(observed) != n_datasets:
            raise SimulationError(
                f"profiling observed {key[0]} {key[1]} {len(observed)} times "
                f"over {n_datasets} data sets"
            )
    means = dict(zip(groups, np.array(list(groups.values())).mean(axis=1).tolist()))
    data = ProfileData()
    for m in mapping.modules:
        for t in range(m.start, m.stop + 1):
            task = chain.tasks[t]
            data.exec_samples.setdefault(t, []).append((m.procs, means["task", t]))
            # Memory: the observed per-processor footprint at this size.
            mb = task.mem_fixed_mb + task.mem_parallel_mb / m.procs
            data.memory_samples.setdefault(t, []).append((m.procs, mb))
        # Internal redistributions swallowed by this module (a free one
        # runs no phase and yields no sample).
        for e in range(m.start, m.stop):
            if ("icom", e) in means:
                data.icom_samples.setdefault(e, []).append(
                    (m.procs, means["icom", e]))
    # External transfers between adjacent modules (one endpoint: recv).
    for a, b in zip(mapping.modules, mapping.modules[1:]):
        data.ecom_samples.setdefault(a.stop, []).append(
            (a.procs, b.procs, means["recv", a.stop]))
    return data


def profile_chain(
    chain: TaskChain,
    mappings: list[Mapping],
    n_datasets: int = 60,
    noise: NoiseModel | None = None,
) -> ProfileData:
    """Profile ``chain`` under every training mapping and pool the samples."""
    if n_datasets < 2:
        raise SimulationError("need at least 2 data sets to measure throughput")
    noise = noise or NoiseModel.silent()
    pooled = ProfileData()
    for mapping in mappings:
        pooled.merge(_profile_run(chain, mapping, n_datasets, noise))
    return pooled
