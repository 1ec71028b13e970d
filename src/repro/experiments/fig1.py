"""Figure 1 — Combinations of data and task parallel mappings.

The figure illustrates four mapping styles for one program: (a) pure data
parallelism, (b) task parallelism, (c) replicated data parallelism, and
(d) the mix of task and data parallelism with replication.  This
experiment instantiates each style for FFT-Hist 256²/message, predicts and
measures its throughput, and renders the corresponding diagrams — showing
*why* the search space of §2.2 matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.baselines import (
    data_parallel,
    even_task_parallel,
    replicated_data_parallel,
)
from ..core.dp_cluster import optimal_mapping
from ..core.response import MappingPerformance
from ..machine import iwarp64_message
from ..sim.pipeline import simulate
from ..tools.diagram import mapping_diagram
from ..tools.report import render_table
from ..workloads import Workload, fft_hist
from .common import measurement_noise

__all__ = ["Fig1Style", "run", "render"]


@dataclass
class Fig1Style:
    label: str
    description: str
    performance: MappingPerformance
    measured: float


def run(workload: Workload | None = None, n_datasets: int = 120) -> list[Fig1Style]:
    wl = workload or fft_hist(256, iwarp64_message())
    P = wl.machine.total_procs
    mem = wl.machine.mem_per_proc_mb
    styles = [
        ("(a) data parallel", "all tasks on all processors",
         data_parallel(wl.chain, P, mem)),
        ("(b) task parallel", "one task per module, even split",
         even_task_parallel(wl.chain, P, mem)),
        ("(c) replicated data parallel", "whole chain replicated maximally",
         replicated_data_parallel(wl.chain, P, mem)),
        ("(d) task + data + replication", "optimal mixed mapping (§3)",
         optimal_mapping(wl.chain, P, mem).performance),
    ]
    out = []
    for i, (label, desc, perf) in enumerate(styles):
        measured = simulate(
            wl.chain, perf.mapping, n_datasets=n_datasets,
            noise=measurement_noise(400 + i),
        ).throughput
        out.append(Fig1Style(label, desc, perf, measured))
    return out


def render(styles: list[Fig1Style], workload: Workload | None = None) -> str:
    wl = workload or fft_hist(256, iwarp64_message())
    headers = ["Style", "Predicted tp", "Measured tp", "vs (a)"]
    base = styles[0].measured
    rows = [
        [s.label, s.performance.throughput, s.measured, f"{s.measured / base:.2f}x"]
        for s in styles
    ]
    parts = [render_table(headers, rows, title="Figure 1: mapping styles for " + wl.name)]
    for s in styles:
        parts.append("")
        parts.append(f"--- {s.label}: {s.description}")
        parts.append(mapping_diagram(s.performance.mapping, wl.chain, wl.machine.total_procs))
    return "\n".join(parts)
