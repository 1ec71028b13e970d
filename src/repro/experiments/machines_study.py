"""Cross-machine study — "The targets for Fx are the Intel Paragon, Intel
iWarp, IBM SP2, Cray T3D, and networks of workstations running PVM" (§1).

One algorithm, many machines: the same video-pipeline-shaped chain mapped
onto every preset shows how the optimum shifts with the communication
regime — heavy replication on low-latency meshes, coarse clustering on a
PVM Ethernet cluster where every transfer costs milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.baselines import data_parallel
from ..core.dp_cluster import optimal_mapping
from ..machine import PRESETS, MachineSpec
from ..tools.report import format_mapping, render_table
from ..workloads.fft_hist import fft_hist

__all__ = ["MachineRow", "run", "render"]


@dataclass
class MachineRow:
    machine: MachineSpec
    clustering: tuple
    mapping_str: str
    throughput: float
    dp_throughput: float
    modules: int
    max_replication: int

    @property
    def ratio(self) -> float:
        return self.throughput / self.dp_throughput


def run(n: int = 256) -> list[MachineRow]:
    rows = []
    for name in sorted(PRESETS):
        mach = PRESETS[name]()
        wl = fft_hist(n, mach)
        res = optimal_mapping(wl.chain, mach.total_procs, mach.mem_per_proc_mb)
        base = data_parallel(wl.chain, mach.total_procs, mach.mem_per_proc_mb)
        rows.append(
            MachineRow(
                machine=mach,
                clustering=res.clustering,
                mapping_str=format_mapping(res.mapping, wl.chain),
                throughput=res.throughput,
                dp_throughput=base.throughput,
                modules=len(res.mapping),
                max_replication=max(m.replicas for m in res.mapping),
            )
        )
    return rows


def render(rows: list[MachineRow]) -> str:
    headers = ["Machine", "P", "optimal mapping", "tp", "data-par tp", "ratio"]
    table = [
        [r.machine.name, r.machine.total_procs, r.mapping_str,
         r.throughput, r.dp_throughput, f"{r.ratio:.2f}x"]
        for r in rows
    ]
    return render_table(
        headers, table,
        title="FFT-Hist 256 mapped across the Fx target machines",
    )
