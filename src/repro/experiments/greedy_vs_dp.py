"""§6.3 key result — "for all cases the dynamic programming and the greedy
algorithms reached the same optimal mapping".

This experiment compares the §4 heuristic against the §3 DP mapper on the
paper's workloads *and* a battery of synthetic chains, reporting agreement
rates and worst-case throughput gaps, with and without the Theorem-2
backtracking post-pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.cluster_greedy import heuristic_mapping
from ..core.dp_cluster import optimal_mapping
from ..tools.report import render_table
from ..workloads.synthetic import random_chain
from .common import table2_roster

__all__ = ["AgreementRow", "run", "render"]


@dataclass
class AgreementRow:
    label: str
    cases: int
    agree: int                 # greedy throughput == DP throughput
    worst_gap: float           # max (1 - greedy/dp)
    agree_no_backtrack: int
    worst_gap_no_backtrack: float

    @property
    def agreement_rate(self) -> float:
        return self.agree / self.cases


def _compare(chain, P, mem) -> tuple[bool, float, bool, float]:
    dp = optimal_mapping(chain, P, mem)
    gaps = []
    agrees = []
    for backtracking in (True, False):
        heur = heuristic_mapping(chain, P, mem, backtracking=backtracking)
        gap = max(0.0, 1.0 - heur.throughput / dp.throughput)
        agrees.append(gap <= 1e-9)
        gaps.append(gap)
    return agrees[0], gaps[0], agrees[1], gaps[1]


def run(
    synthetic_cases: int = 30,
    synthetic_k: int = 4,
    synthetic_P: int = 24,
) -> list[AgreementRow]:
    rows = []

    # Paper workloads.
    agree = agree_nb = 0
    worst = worst_nb = 0.0
    roster = table2_roster()
    for wl in roster:
        a, g, anb, gnb = _compare(
            wl.chain, wl.machine.total_procs, wl.machine.mem_per_proc_mb
        )
        agree += a
        agree_nb += anb
        worst = max(worst, g)
        worst_nb = max(worst_nb, gnb)
    rows.append(
        AgreementRow("paper workloads", len(roster), agree, worst,
                     agree_nb, worst_nb)
    )

    # Synthetic chains.
    agree = agree_nb = 0
    worst = worst_nb = 0.0
    for seed in range(synthetic_cases):
        chain = random_chain(synthetic_k, seed=seed)
        a, g, anb, gnb = _compare(chain, synthetic_P, float("inf"))
        agree += a
        agree_nb += anb
        worst = max(worst, g)
        worst_nb = max(worst_nb, gnb)
    rows.append(
        AgreementRow(
            f"synthetic k={synthetic_k} P={synthetic_P}",
            synthetic_cases, agree, worst, agree_nb, worst_nb,
        )
    )
    return rows


def render(rows: list[AgreementRow]) -> str:
    headers = [
        "Chain family", "cases",
        "greedy==DP (backtrack)", "worst gap %",
        "greedy==DP (plain)", "worst gap % (plain)",
    ]
    table = [
        [r.label, r.cases,
         f"{r.agree}/{r.cases}", 100 * r.worst_gap,
         f"{r.agree_no_backtrack}/{r.cases}", 100 * r.worst_gap_no_backtrack]
        for r in rows
    ]
    return render_table(
        headers, table,
        title="Greedy heuristic vs optimal DP (paper §6.3 key result)",
    )
