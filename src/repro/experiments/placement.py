"""Processor-location study — §2.1: "We discovered that other factors like
processor locations and interference with external communication are a
second order effect even for communication intensive programs."

The mapping model deliberately ignores *where* on the grid each instance
sits.  This experiment tests that simplification: the optimal FFT-Hist
mapping is simulated with a per-hop transfer penalty under (a) the
packer's compact placement and (b) several randomly shuffled placements,
and the throughput spread is compared to the first-order effects the model
does capture.  If the paper's claim holds in our substrate, the spread
stays within a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine import Rect, iwarp64_message
from ..machine.feasibility import optimal_feasible_mapping
from ..sim.pipeline import simulate
from ..tools.report import render_table
from ..workloads.base import Workload
from ..workloads.fft_hist import fft_hist

__all__ = ["PlacementResult", "run", "render"]

#: Per-Manhattan-hop slowdown of a transfer.  Chosen at the high end of
#: plausibility for a 1995 mesh (several % per hop) to make the test hard.
HOP_PENALTY = 0.02


@dataclass
class PlacementResult:
    baseline_throughput: float        # no location effect at all
    packed_throughput: float          # compact packer placement
    shuffled_throughputs: list[float] # random placements
    hop_penalty: float

    @property
    def worst_spread(self) -> float:
        """Largest relative throughput deviation due to placement alone."""
        lo = min(self.shuffled_throughputs + [self.packed_throughput])
        return (self.baseline_throughput - lo) / self.baseline_throughput


def _shuffle_placement(placements: list[list[Rect]], seed: int) -> list[list[Rect]]:
    """Randomly permute which rectangle hosts which instance (geometry is
    preserved; only the assignment of instances to locations changes)."""
    rng = np.random.default_rng(seed)
    flat = [r for rects in placements for r in rects]
    order = rng.permutation(len(flat))
    # Keep areas compatible: shuffle only among rectangles of equal area.
    by_area: dict[int, list[int]] = {}
    for i, r in enumerate(flat):
        by_area.setdefault(r.area, []).append(i)
    target = list(flat)
    for idxs in by_area.values():
        perm = rng.permutation(idxs)
        for src, dst in zip(idxs, perm):
            target[src] = flat[dst]
    out = []
    cursor = 0
    for rects in placements:
        out.append(target[cursor : cursor + len(rects)])
        cursor += len(rects)
    return out


def run(workload: Workload | None = None, shuffles: int = 5,
        n_datasets: int = 150) -> PlacementResult:
    wl = workload or fft_hist(256, iwarp64_message())
    feas = optimal_feasible_mapping(wl.chain, wl.machine)
    mapping = feas.mapping
    placements = feas.report.placements

    baseline = simulate(wl.chain, mapping, n_datasets=n_datasets).throughput
    packed = simulate(
        wl.chain, mapping, n_datasets=n_datasets,
        placements=placements, hop_penalty=HOP_PENALTY,
    ).throughput
    shuffled = []
    for seed in range(shuffles):
        pl = _shuffle_placement(placements, seed)
        shuffled.append(
            simulate(
                wl.chain, mapping, n_datasets=n_datasets,
                placements=pl, hop_penalty=HOP_PENALTY,
            ).throughput
        )
    return PlacementResult(
        baseline_throughput=baseline,
        packed_throughput=packed,
        shuffled_throughputs=shuffled,
        hop_penalty=HOP_PENALTY,
    )


def render(res: PlacementResult) -> str:
    rows = [["no location effect", res.baseline_throughput, "0.0%"]]
    rows.append([
        "packed placement",
        res.packed_throughput,
        f"{100 * (1 - res.packed_throughput / res.baseline_throughput):.2f}%",
    ])
    for i, tp in enumerate(res.shuffled_throughputs):
        rows.append([
            f"shuffled placement #{i}",
            tp,
            f"{100 * (1 - tp / res.baseline_throughput):.2f}%",
        ])
    return render_table(
        ["placement", "throughput", "loss vs no-location model"],
        rows,
        title=(
            "Processor locations are second order (§2.1) — "
            f"{100 * res.hop_penalty:.0f}%/hop transfer penalty"
        ),
    )
