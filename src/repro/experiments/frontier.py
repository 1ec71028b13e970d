"""Throughput/latency frontier study (the Vondran [14] extension).

The paper optimises throughput; its companion work trades throughput
against latency.  For each paper workload we compute the
throughput-optimal and latency-optimal operating points and trace the
Pareto frontier between them, then verify two frontier endpoints against
the simulator.  The frontier quantifies what replication costs in response
time — e.g. the radar pipeline runs ~2.5× faster at ~7× the latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dp import optimal_assignment
from ..core.dp_cluster import optimal_mapping
from ..core.latency import optimal_latency_assignment, throughput_latency_frontier
from ..core.response import build_module_chain
from ..sim.pipeline import simulate
from ..tools.report import render_table
from ..workloads.base import Workload
from .common import measurement_noise, table2_roster

__all__ = ["FrontierRow", "run", "render"]


@dataclass
class FrontierRow:
    workload: Workload
    tp_optimal: float            # max throughput
    tp_optimal_latency: float    # its latency
    lat_optimal_latency: float   # min latency
    lat_optimal_tp: float        # its throughput
    frontier: list[tuple[float, float]]
    measured_fast_tp: float      # simulator check of the fast endpoint
    measured_fast_latency: float

    @property
    def throughput_span(self) -> float:
        return self.tp_optimal / self.lat_optimal_tp

    @property
    def latency_span(self) -> float:
        return self.tp_optimal_latency / self.lat_optimal_latency


def run(workloads: list[Workload] | None = None, points: int = 8) -> list[FrontierRow]:
    rows = []
    for i, wl in enumerate(workloads if workloads is not None else table2_roster()):
        mach = wl.machine
        best = optimal_mapping(
            wl.chain, mach.total_procs, mach.mem_per_proc_mb
        )
        mchain = build_module_chain(
            wl.chain, best.clustering, mach.mem_per_proc_mb
        )
        tp_opt = optimal_assignment(mchain, mach.total_procs)
        lat_opt = optimal_latency_assignment(mchain, mach.total_procs)
        frontier = throughput_latency_frontier(
            mchain, mach.total_procs, points=points
        )
        sim = simulate(
            wl.chain, tp_opt.mapping, n_datasets=150,
            noise=measurement_noise(700 + i),
        )
        rows.append(
            FrontierRow(
                workload=wl,
                tp_optimal=tp_opt.throughput,
                tp_optimal_latency=tp_opt.performance.latency,
                lat_optimal_latency=lat_opt.latency,
                lat_optimal_tp=lat_opt.throughput,
                frontier=frontier,
                measured_fast_tp=sim.throughput,
                measured_fast_latency=sim.mean_latency,
            )
        )
    return rows


def render(rows: list[FrontierRow]) -> str:
    headers = [
        "Program", "max tp", "its latency (s)",
        "min latency (s)", "its tp",
        "tp span", "latency span", "frontier points",
    ]
    table = [
        [r.workload.chain.name, r.tp_optimal, r.tp_optimal_latency,
         r.lat_optimal_latency, r.lat_optimal_tp,
         f"{r.throughput_span:.1f}x", f"{r.latency_span:.1f}x",
         len(r.frontier)]
        for r in rows
    ]
    parts = [render_table(
        headers, table,
        title="Throughput/latency frontier (Vondran [14] extension)",
    )]
    for r in rows:
        pts = "  ".join(f"({tp:.3g}/s, {lat:.3g}s)" for tp, lat in r.frontier)
        parts.append(f"{r.workload.chain.name}: {pts}")
    return "\n".join(parts)
