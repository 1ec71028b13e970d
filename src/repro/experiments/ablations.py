"""Ablations of the design decisions DESIGN.md calls out.

For every paper workload, throughput under:

* the full mapper (clustering + replication + comm-aware DP);
* **no clustering** (every task its own module) — what §3.3 adds;
* **no replication** — what §3.2 adds;
* **comm-blind** allocation (Choudhary et al. [4]) — what the paper's
  general communication model adds;
* greedy **without backtracking** — what the Theorem-2 post-pass adds.

Each column is reported relative to the full mapper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.baselines import comm_blind_assignment
from ..core.cluster_greedy import heuristic_mapping
from ..core.dp import optimal_assignment
from ..core.dp_cluster import optimal_mapping
from ..core.mapping import singleton_clustering
from ..core.response import build_module_chain
from ..tools.report import render_table
from ..workloads.base import Workload
from .common import table2_roster

__all__ = ["AblationRow", "run", "render"]


@dataclass
class AblationRow:
    workload: Workload
    full: float
    no_clustering: float
    no_replication: float
    comm_blind: float
    greedy_plain: float


def run(workloads: list[Workload] | None = None) -> list[AblationRow]:
    rows = []
    for wl in workloads if workloads is not None else table2_roster():
        P = wl.machine.total_procs
        mem = wl.machine.mem_per_proc_mb
        full = optimal_mapping(wl.chain, P, mem)

        singles = build_module_chain(
            wl.chain, singleton_clustering(len(wl.chain)), mem
        )
        no_cluster = optimal_assignment(singles, P)
        no_repl = optimal_mapping(wl.chain, P, mem, replication=False)
        # Comm-blind allocates on the optimal clustering but ignores the
        # communication model entirely.
        blind_chain = build_module_chain(wl.chain, full.clustering, mem)
        blind = comm_blind_assignment(blind_chain, P)
        plain = heuristic_mapping(wl.chain, P, mem, backtracking=False)
        rows.append(
            AblationRow(
                workload=wl,
                full=full.throughput,
                no_clustering=no_cluster.throughput,
                no_replication=no_repl.throughput,
                comm_blind=blind.throughput,
                greedy_plain=plain.throughput,
            )
        )
    return rows


def render(rows: list[AblationRow]) -> str:
    headers = [
        "Program", "Comm", "full tp",
        "no clustering", "no replication", "comm-blind", "greedy (plain)",
    ]
    table = []
    for r in rows:
        def rel(x: float) -> str:
            return f"{x:.4g} ({100 * x / r.full:.0f}%)"

        table.append(
            [
                r.workload.chain.name,
                r.workload.machine.comm_kind,
                r.full,
                rel(r.no_clustering),
                rel(r.no_replication),
                rel(r.comm_blind),
                rel(r.greedy_plain),
            ]
        )
    return render_table(
        headers, table,
        title="Ablations: throughput with individual mapper features disabled",
    )
