"""Memory-constraint study — §6.3's reasoning made quantitative.

The paper explains the FFT-Hist clustering through memory: merging tasks
raises the combined footprint, which raises the minimum processors per
instance, which makes hist run inefficiently.  This experiment sweeps the
per-processor memory of the iWarp model and reports how the optimal
mapping morphs: tight memory forces big instances and little replication;
abundant memory unlocks small-instance heavy replication.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dp_cluster import optimal_mapping
from ..machine import iwarp64_message
from ..tools.report import format_mapping, render_table
from ..workloads.base import Workload
from ..workloads.fft_hist import fft_hist

__all__ = ["MemoryPoint", "run", "render"]


@dataclass
class MemoryPoint:
    mem_per_proc_mb: float
    mapping_str: str
    clustering: tuple
    throughput: float
    max_replication: int
    min_instance: int


def run(workload: Workload | None = None,
        sweep: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 8.0)) -> list[MemoryPoint]:
    wl = workload or fft_hist(256, iwarp64_message())
    points = []
    for mem in sweep:
        res = optimal_mapping(wl.chain, wl.machine.total_procs, mem)
        points.append(
            MemoryPoint(
                mem_per_proc_mb=mem,
                mapping_str=format_mapping(res.mapping, wl.chain),
                clustering=res.clustering,
                throughput=res.throughput,
                max_replication=max(m.replicas for m in res.mapping),
                min_instance=min(m.procs for m in res.mapping),
            )
        )
    return points


def render(points: list[MemoryPoint]) -> str:
    headers = ["MB/processor", "optimal mapping", "tp", "max r", "min p"]
    rows = [
        [p.mem_per_proc_mb, p.mapping_str, p.throughput,
         p.max_replication, p.min_instance]
        for p in points
    ]
    return render_table(
        headers, rows,
        title="FFT-Hist 256/message optimal mapping vs per-processor memory",
    )
