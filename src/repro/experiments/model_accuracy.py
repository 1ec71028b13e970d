"""§6.3 model-accuracy claim — "the difference averaged less than 10%".

For every workload: fit the §5 models from the 8-run training set, then
compare model-predicted against simulator-measured throughput over a set
of *held-out* mappings (mappings not in the training set).  The paper's
claim is that the mean absolute difference stays under ~10 %; the matching
test asserts the same for this experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dp_cluster import optimal_mapping
from ..core.mapping import Mapping, ModuleSpec
from ..estimate.estimator import estimate_chain, validate_model
from ..tools.report import render_table
from ..workloads.base import Workload
from .common import measurement_noise, profiling_noise, table2_roster

__all__ = ["AccuracyRow", "run", "render"]


@dataclass
class AccuracyRow:
    workload: Workload
    n_heldout: int
    mean_abs_error: float      # mean |pred - meas| / meas over held-out set
    max_abs_error: float
    fit_error: float           # worst relative residual of the model fits


def _heldout_mappings(wl: Workload, fitted) -> list[Mapping]:
    """A few mappings spanning the space: the fitted optimum, a two-module
    split, and an uneven allocation."""
    mach = wl.machine
    k = len(wl.chain)
    out = [
        optimal_mapping(fitted, mach.total_procs, mach.mem_per_proc_mb).mapping
    ]
    # A half/half split of the chain (if it fits).
    try:
        from ..core.response import build_module_chain, totals_to_allocations

        cut = max(0, k // 2 - 1)
        clustering = ((0, cut), (cut + 1, k - 1)) if k > 1 else ((0, 0),)
        mchain = build_module_chain(fitted, clustering, mach.mem_per_proc_mb)
        if mchain.total_min_procs <= mach.total_procs:
            half = mach.total_procs // 2
            totals = [max(half, mchain.infos[0].p_min)]
            if k > 1:
                totals.append(
                    max(mach.total_procs - totals[0], mchain.infos[-1].p_min)
                )
            if sum(totals) <= mach.total_procs:
                allocs = totals_to_allocations(mchain, totals)
                specs = [
                    ModuleSpec(info.start, info.stop, s, r)
                    for info, (s, r) in zip(mchain.infos, allocs)
                ]
                out.append(Mapping(specs))
    except Exception:
        pass
    return out


def run(workloads: list[Workload] | None = None) -> list[AccuracyRow]:
    rows = []
    for i, wl in enumerate(workloads if workloads is not None else table2_roster()):
        est = estimate_chain(
            wl.chain,
            wl.machine.total_procs,
            wl.machine.mem_per_proc_mb,
            noise=profiling_noise(500 + i),
        )
        mappings = _heldout_mappings(wl, est.fitted_chain)
        results = validate_model(
            wl.chain, est.fitted_chain, mappings,
            n_datasets=120, noise=measurement_noise(600 + i),
        )
        errors = np.array([abs(rel) for _, _, _, rel in results])
        rows.append(
            AccuracyRow(
                workload=wl,
                n_heldout=len(mappings),
                mean_abs_error=float(errors.mean()),
                max_abs_error=float(errors.max()),
                fit_error=est.worst_relative_error(),
            )
        )
    return rows


def render(rows: list[AccuracyRow]) -> str:
    headers = ["Program", "Comm", "held-out mappings",
               "mean |err| %", "max |err| %", "worst fit residual %"]
    table = [
        [r.workload.chain.name, r.workload.machine.comm_kind, r.n_heldout,
         100 * r.mean_abs_error, 100 * r.max_abs_error, 100 * r.fit_error]
        for r in rows
    ]
    overall = float(np.mean([r.mean_abs_error for r in rows]))
    return render_table(
        headers, table,
        title="Model accuracy (paper §6.3: 'difference averaged less than 10%')",
    ) + f"\nOverall mean |error|: {100 * overall:.2f}%"
