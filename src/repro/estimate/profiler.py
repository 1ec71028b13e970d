"""Profiling: run training mappings through the simulator and collect
per-task execution, per-edge communication, and memory samples (§5).

This plays the role of the Fx profiling infrastructure: each simulated run
is "instrumented", and the mean observed duration of every task slice /
transfer becomes one sample at the partition sizes that run used.  The
instrument is a trace recorder that keeps durations only, grouped by
``(kind, label)`` as the event engine reports them; no trace is built.
Memory footprints are observed directly (they are deterministic in the
model, as they are in a real compiler's accounting).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..core.exceptions import SimulationError
from ..core.mapping import Mapping
from ..core.task import TaskChain
from ..core.validate import ensure_valid_plan
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


class _Durations(defaultdict):
    """A trace recorder that keeps every observed duration, grouped by
    ``(kind, label)``; each group keeps recording order.  ``end - start``
    is :attr:`TraceEvent.duration <repro.sim.trace.TraceEvent.duration>`'s
    expression, so the samples equal a recorded trace's bit for bit."""

    def __init__(self):
        super().__init__(list)

    def add(self, module, instance, kind, label, dataset, start, end):
        self[kind, label].append(end - start)


def _profile_run(
    chain: TaskChain, mapping: Mapping, n_datasets: int, noise: NoiseModel
) -> ProfileData:
    ensure_valid_plan(chain, mapping)
    durations = _Durations()
    # The samples are all a profiling run yields: it runs the stream's
    # segments (which raise on a deadlock) and builds no result summary.
    _run_segments(chain, _Once(mapping, n_datasets), n_datasets, noise,
                  "event", trace=durations)
    data = ProfileData()
    for m in mapping.modules:
        # Execution samples: mean over observed slices of each task.
        for t_idx in range(m.start, m.stop + 1):
            task = chain.tasks[t_idx]
            observed = durations.get(("task", task.name))
            if observed:
                data.exec_samples.setdefault(t_idx, []).append(
                    (m.procs, float(np.mean(observed)))
                )
            # Memory: the observed per-processor footprint at this size.
            mb = task.mem_fixed_mb + task.mem_parallel_mb / m.procs
            data.memory_samples.setdefault(t_idx, []).append((m.procs, mb))
        # Internal redistributions swallowed by this module.
        for e_idx in range(m.start, m.stop):
            label = f"{chain.tasks[e_idx].name}->{chain.tasks[e_idx + 1].name}"
            observed = durations.get(("icom", label))
            if observed:
                data.icom_samples.setdefault(e_idx, []).append(
                    (m.procs, float(np.mean(observed)))
                )
    # External transfers between adjacent modules (one endpoint: recv).
    for a, b in zip(mapping.modules, mapping.modules[1:]):
        e_idx = a.stop
        label = f"{chain.tasks[a.stop].name}->{chain.tasks[b.start].name}"
        observed = durations.get(("recv", label))
        if observed:
            data.ecom_samples.setdefault(e_idx, []).append(
                (a.procs, b.procs, float(np.mean(observed)))
            )
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
