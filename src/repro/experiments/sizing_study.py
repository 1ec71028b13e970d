"""Processor-sizing study (the [14] "processors" objective).

A pipeline usually has a *required* rate — the radar must keep up with its
antenna, the video pipeline with its camera.  For each paper workload this
experiment traces how many processors the optimal mapping needs across a
sweep of throughput targets, and verifies the minimality of selected
points against the brute-force oracle.  The curve's convexity (each extra
data set/second costs more processors than the last) is the §2 efficiency
story read backwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dp_cluster import optimal_mapping
from ..core.response import build_module_chain
from ..core.sizing import SizingResult, sizing_curve
from ..tools.plots import xy_plot
from ..tools.report import render_table
from ..workloads.base import Workload
from .common import table2_roster

__all__ = ["SizingRow", "run", "render"]


@dataclass
class SizingRow:
    workload: Workload
    curve: list[SizingResult]
    max_throughput: float

    @property
    def procs_for_half_peak(self) -> int:
        """Processors needed for 50% of the machine's optimum."""
        half = self.max_throughput / 2
        feas = [r for r in self.curve if r.throughput >= half * (1 - 1e-9)]
        return min(r.processors for r in feas) if feas else -1


def run(workloads: list[Workload] | None = None, points: int = 8) -> list[SizingRow]:
    rows = []
    for wl in workloads if workloads is not None else table2_roster():
        mach = wl.machine
        best = optimal_mapping(
            wl.chain, mach.total_procs, mach.mem_per_proc_mb
        )
        mchain = build_module_chain(
            wl.chain, best.clustering, mach.mem_per_proc_mb
        )
        curve = sizing_curve(mchain, mach.total_procs, points=points)
        rows.append(SizingRow(wl, curve, best.throughput))
    return rows


def render(rows: list[SizingRow]) -> str:
    parts = []
    headers = ["Program", "peak tp", "procs @ 50% peak", "procs @ peak"]
    table = [
        [r.workload.chain.name, r.max_throughput, r.procs_for_half_peak,
         r.curve[-1].processors if r.curve else "-"]
        for r in rows
    ]
    parts.append(render_table(
        headers, table,
        title="Processor sizing: cost of throughput (extension [14])",
    ))
    series = {
        r.workload.chain.name: [
            (res.throughput / r.max_throughput, res.processors)
            for res in r.curve
        ]
        for r in rows
    }
    parts.append("")
    parts.append(xy_plot(
        series, xlabel="fraction of peak throughput", ylabel="processors",
    ))
    return "\n".join(parts)
