"""Figure 6 — FFT-Hist program mapping (256², message).

The paper's Figure 6 draws the optimal mapping's module instances placed
on the 64-processor machine.  This experiment computes the optimal
feasible mapping, packs its instances onto the 8×8 grid, and renders the
placement plus the module/replica diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine import iwarp64_message
from ..machine.feasibility import FeasibleResult, optimal_feasible_mapping
from ..tools.diagram import grid_diagram, mapping_diagram
from ..workloads import Workload, fft_hist

__all__ = ["Fig6Result", "run", "render"]


@dataclass
class Fig6Result:
    workload: Workload
    feasible: FeasibleResult


def run(n: int = 256) -> Fig6Result:
    wl = fft_hist(n, iwarp64_message())
    feas = optimal_feasible_mapping(wl.chain, wl.machine)
    return Fig6Result(workload=wl, feasible=feas)


def render(res: Fig6Result) -> str:
    wl = res.workload
    report = res.feasible.report
    parts = [
        f"Figure 6: optimal feasible mapping of {wl.name} "
        f"(predicted {res.feasible.throughput:.4g} data sets/s)",
        "",
        mapping_diagram(res.feasible.mapping, wl.chain, wl.machine.total_procs),
        "",
    ]
    if report.placements is not None:
        parts.append(grid_diagram(report.placements, wl.machine))
    return "\n".join(parts)
