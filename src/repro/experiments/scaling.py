"""Complexity scaling — DP ``O(P^4 k^2)`` vs greedy ``O(P k)`` (§3, §4).

The paper motivates the greedy heuristic by the DP's cost "when the number
of processors is large, particularly when mapping tasks dynamically".
This experiment measures wall-clock solve time of both mappers while
sweeping the machine size ``P`` (fixed ``k``) and the chain length ``k``
(fixed ``P``), and reports the measured growth exponents.

The "full DP" column times the paper's algorithm as the paper states it:
one assignment DP per clustering that fits, every clustering solved.
:func:`~repro.core.dp_cluster.optimal_mapping` returns the same optimum
with fewer DPs, since its branch and bound drops clusterings that cannot
beat the best result found so far, so its time does not show the
algorithm's worst-case growth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.cluster_greedy import heuristic_mapping
from ..core.dp import optimal_assignment
from ..core.exceptions import InfeasibleError
from ..core.mapping import all_clusterings
from ..core.response import SegmentCache
from ..tools.report import render_table
from ..workloads.synthetic import random_chain

__all__ = ["ScalePoint", "run", "render"]


@dataclass
class ScalePoint:
    k: int
    P: int
    dp_seconds: float            # full DP: one assignment DP per clustering
    greedy_seconds: float        # full heuristic: clustering + greedy
    assign_dp_seconds: float     # §3.1 assignment DP alone (fixed clustering)
    assign_greedy_seconds: float # §4.1 greedy assignment alone
    same_result: bool


def _every_clustering(chain, P) -> list:
    """The assignment DP's result on every clustering of ``chain`` that fits
    on ``P`` processors: the paper's exhaustive algorithm, unbounded."""
    cache = SegmentCache(chain)
    results = []
    for clustering in all_clusterings(len(chain)):
        mchain = cache.module_chain(clustering)
        if mchain.total_min_procs > P:
            continue
        try:
            results.append(optimal_assignment(mchain, P))
        except InfeasibleError:
            continue
    return results


def _solve_both(chain, P) -> ScalePoint:
    from ..core.greedy import greedy_assignment
    from ..core.mapping import singleton_clustering
    from ..core.response import build_module_chain

    # Warm-up pass: the growth exponents measure the solvers' asymptotic
    # work, so exclude one-time costs (workspace arena allocation, memoized
    # cost tables) that would otherwise dominate the small-P points.
    _every_clustering(chain, P)
    heuristic_mapping(chain, P)
    _wchain = build_module_chain(chain, singleton_clustering(len(chain)))
    optimal_assignment(_wchain, P)
    greedy_assignment(_wchain, P)

    t0 = time.perf_counter()
    dp = _every_clustering(chain, P)
    t1 = time.perf_counter()
    heur = heuristic_mapping(chain, P)
    t2 = time.perf_counter()
    mchain = build_module_chain(chain, singleton_clustering(len(chain)))
    t3 = time.perf_counter()
    optimal_assignment(mchain, P)
    t4 = time.perf_counter()
    greedy_assignment(mchain, P)
    t5 = time.perf_counter()
    best = max(res.throughput for res in dp)
    same = abs(heur.throughput - best) <= 1e-9 * best
    return ScalePoint(
        k=len(chain), P=P,
        dp_seconds=t1 - t0, greedy_seconds=t2 - t1,
        assign_dp_seconds=t4 - t3, assign_greedy_seconds=t5 - t4,
        same_result=same,
    )


def run(
    p_sweep: tuple[int, ...] = (8, 16, 32, 64),
    k_sweep: tuple[int, ...] = (2, 3, 4, 5),
    fixed_k: int = 3,
    fixed_p: int = 24,
) -> dict[str, list[ScalePoint]]:
    p_points = []
    for P in p_sweep:
        chain = random_chain(fixed_k, seed=7)
        p_points.append(_solve_both(chain, P))
    k_points = []
    for k in k_sweep:
        chain = random_chain(k, seed=7)
        k_points.append(_solve_both(chain, fixed_p))
    return {"P": p_points, "k": k_points}


def _exponent(xs, ys) -> float:
    xs = np.log(np.array(xs, dtype=float))
    ys = np.log(np.maximum(np.array(ys, dtype=float), 1e-9))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def render(data: dict[str, list[ScalePoint]]) -> str:
    parts = []
    for axis, points in data.items():
        headers = ["k", "P", "full DP (s)", "full greedy (s)",
                   "assign DP (s)", "assign greedy (s)", "same mapping"]
        rows = [
            [pt.k, pt.P, pt.dp_seconds, pt.greedy_seconds,
             pt.assign_dp_seconds, pt.assign_greedy_seconds,
             "yes" if pt.same_result else "NO"]
            for pt in points
        ]
        parts.append(
            render_table(headers, rows, title=f"Solve-time scaling in {axis}")
        )
        xs = [pt.P if axis == "P" else pt.k for pt in points]
        dp_e = _exponent(xs, [pt.dp_seconds for pt in points])
        gr_e = _exponent(xs, [pt.greedy_seconds for pt in points])
        adp_e = _exponent(xs, [pt.assign_dp_seconds for pt in points])
        agr_e = _exponent(xs, [pt.assign_greedy_seconds for pt in points])
        parts.append(
            f"measured growth: full DP ~ {axis}^{dp_e:.2f}, "
            f"full greedy ~ {axis}^{gr_e:.2f}, "
            f"assignment DP ~ {axis}^{adp_e:.2f}, "
            f"assignment greedy ~ {axis}^{agr_e:.2f}"
        )
        parts.append("")
    return "\n".join(parts)
