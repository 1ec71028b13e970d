"""Table 1 — Optimal and Feasible Optimal Mappings for FFT-Hist.

For each of the four FFT-Hist configurations (256²/512² × message/systolic)
this experiment reports the unconstrained optimal mapping (clustering,
``p_i``, ``r_i``, predicted throughput) and the optimal mapping subject to
the machine's geometric constraints (rectangular subarrays, packing,
pathway caps) — the paper's "Optimal Feasible Mapping" columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dp_cluster import optimal_mapping
from ..machine.feasibility import optimal_feasible_mapping
from ..tools.report import format_mapping, render_table
from ..workloads.base import Workload
from .common import fft_hist_configs

__all__ = ["Table1Row", "run", "render"]


@dataclass
class Table1Row:
    workload: Workload
    optimal_mapping: object          # ClusteredResult
    feasible_mapping: object         # FeasibleResult

    @property
    def optimal_throughput(self) -> float:
        return self.optimal_mapping.throughput

    @property
    def feasible_throughput(self) -> float:
        return self.feasible_mapping.throughput


def run(workloads: list[Workload] | None = None) -> list[Table1Row]:
    """Compute both mapping columns for every FFT-Hist configuration.

    The mapper here runs on the *true* chains (Table 1 is about the mapping
    algorithms, not the estimation error, which Table 2 covers).
    """
    rows = []
    for wl in workloads if workloads is not None else fft_hist_configs():
        mach = wl.machine
        opt = optimal_mapping(wl.chain, mach.total_procs, mach.mem_per_proc_mb)
        feas = optimal_feasible_mapping(wl.chain, mach)
        rows.append(Table1Row(wl, opt, feas))
    return rows


def render(rows: list[Table1Row]) -> str:
    headers = [
        "Workload", "Comm",
        "Optimal mapping", "tp (sets/s)",
        "Feasible mapping", "tp (sets/s)",
        "Paper optimal", "Paper tp",
    ]
    table = []
    for row in rows:
        wl = row.workload
        paper = wl.paper.get("table1", {})
        paper_map = (
            f"p1={paper.get('p1')} r1={paper.get('r1')} "
            f"p2={paper.get('p2')} r2={paper.get('r2')}"
            if paper else "-"
        )
        table.append(
            [
                wl.chain.name,
                wl.machine.comm_kind,
                format_mapping(row.optimal_mapping.mapping, wl.chain),
                row.optimal_throughput,
                format_mapping(row.feasible_mapping.mapping, wl.chain),
                row.feasible_throughput,
                paper_map,
                paper.get("throughput", float("nan")),
            ]
        )
    return render_table(
        headers, table,
        title="Table 1: Optimal and feasible-optimal mappings for FFT-Hist",
    )
