"""Training-budget study — §6.3: "we model a wide range of computation and
communication behavior using a small number (eight) of executions; it is
certainly possible to develop a more accurate model that uses a larger
number of executions."

We sweep the number of training executions (4 … 16) and measure the fitted
model's prediction error on held-out mappings, quantifying the paper's
accuracy/cost trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dp_cluster import optimal_mapping
from ..estimate.estimator import estimate_chain, validate_model
from ..machine import iwarp64_message
from ..tools.report import render_table
from ..workloads.base import Workload
from ..workloads.fft_hist import fft_hist
from .common import measurement_noise, profiling_noise

__all__ = ["BudgetPoint", "run", "render"]


@dataclass
class BudgetPoint:
    runs_requested: int
    runs_used: int
    mean_abs_error: float
    fit_residual: float


def run(workload: Workload | None = None) -> list[BudgetPoint]:
    wl = workload or fft_hist(256, iwarp64_message())
    mach = wl.machine
    points = []
    budgets = [(1, 3), (3, 5), (4, 8), (6, 10)]   # (merged, split) runs
    for i, (merged, split) in enumerate(budgets):
        est = estimate_chain(
            wl.chain, mach.total_procs, mach.mem_per_proc_mb,
            noise=profiling_noise(800 + i),
            merged_runs=merged, split_runs=split,
        )
        best = optimal_mapping(
            est.fitted_chain, mach.total_procs, mach.mem_per_proc_mb,
        )
        rows = validate_model(
            wl.chain, est.fitted_chain, [best.mapping],
            n_datasets=120, noise=measurement_noise(900 + i),
        )
        errors = [abs(rel) for _, _, _, rel in rows]
        points.append(
            BudgetPoint(
                runs_requested=merged + split,
                runs_used=est.training_runs,
                mean_abs_error=float(np.mean(errors)),
                fit_residual=est.worst_relative_error(),
            )
        )
    return points


def render(points: list[BudgetPoint]) -> str:
    headers = ["training runs", "prediction |err| %", "worst fit residual %"]
    rows = [
        [p.runs_used, 100 * p.mean_abs_error, 100 * p.fit_residual]
        for p in points
    ]
    return render_table(
        headers, rows,
        title="Model accuracy vs training budget (§6.3 trade-off)",
    )
