"""The automatic mapping tool (paper §1, §5, §6) end to end.

``auto_map`` reproduces the full loop the Fx tool ran:

1. **Profile** — execute the program (the simulator stands in for the
   iWarp) under a small training set of mappings (§5, 8 runs);
2. **Fit** — least-squares the polynomial cost and memory models;
3. **Map** — run the greedy heuristic (§4), then the optimal DP mapper
   (§3) on the *fitted* chain, bounded by the heuristic's throughput: §6.3's
   key result is that they agree, so the DP skips every clustering that
   cannot reach it;
4. **Constrain** — find the best machine-feasible mapping (§6.1);
5. optionally **Validate** — run the chosen mapping on the "real" system
   and compare measured with predicted throughput (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.cluster_greedy import HeuristicResult, heuristic_mapping
from ..core.dp_cluster import ClusteredResult, optimal_mapping
from ..core.mapping import Mapping
from ..core.response import SegmentCache
from ..estimate.estimator import EstimationResult, estimate_chain
from ..machine.feasibility import FeasibleResult, optimal_feasible_mapping
from ..sim.faults import FaultModel
from ..sim.noise import NoiseModel
from ..sim.pipeline import SimulationResult, simulate, simulate_fault_tolerant
from ..workloads.base import Workload

__all__ = ["MappingPlan", "auto_map", "measure"]


@dataclass
class MappingPlan:
    """Everything the automatic mapping tool produced for one program."""

    workload: Workload
    estimation: EstimationResult
    optimal: ClusteredResult        # DP mapper on the fitted chain
    heuristic: HeuristicResult      # greedy mapper on the fitted chain
    feasible: FeasibleResult        # machine-constrained optimum

    @property
    def mapping(self) -> Mapping:
        """The mapping the tool would deploy (machine-feasible optimum)."""
        return self.feasible.mapping

    @property
    def predicted_throughput(self) -> float:
        return self.feasible.throughput

    @property
    def solvers_agree(self) -> bool:
        """Did greedy reach the DP optimum (§6.3's key result)?"""
        return abs(self.heuristic.throughput - self.optimal.throughput) <= (
            1e-9 * max(self.optimal.throughput, 1e-300)
        )


def auto_map(
    workload: Workload,
    profile_datasets: int = 60,
    profile_noise: NoiseModel | None = None,
    method: str = "auto",
) -> MappingPlan:
    """Run the complete §5 + §3/§4 + §6.1 pipeline for one workload."""
    machine = workload.machine
    est = estimate_chain(
        workload.chain,
        machine.total_procs,
        machine.mem_per_proc_mb,
        n_datasets=profile_datasets,
        noise=profile_noise,
    )
    fitted = est.fitted_chain
    # One solve session: the heuristic's greedy probes fill the segment
    # cache, the DP reads those response factors and uses the heuristic's
    # throughput as its incumbent, and the feasible search starts from the
    # optimum instead of re-solving.
    cache = SegmentCache(fitted, machine.mem_per_proc_mb)
    heuristic = heuristic_mapping(
        fitted, machine.total_procs, machine.mem_per_proc_mb, cache=cache
    )
    optimal = optimal_mapping(
        fitted, machine.total_procs, machine.mem_per_proc_mb, method=method,
        cache=cache, incumbent=heuristic.throughput,
    )
    feasible = optimal_feasible_mapping(
        fitted, machine, method=method, cache=cache, optimum=optimal
    )
    return MappingPlan(
        workload=workload,
        estimation=est,
        optimal=optimal,
        heuristic=heuristic,
        feasible=feasible,
    )


def measure(
    workload: Workload,
    mapping: Mapping,
    n_datasets: int = 200,
    noise: NoiseModel | None = None,
    faults: FaultModel | None = None,
    remap_latency: float = 0.05,
    engine: str = "auto",
    controller=None,
) -> SimulationResult:
    """Measure a mapping on the "real" system (the true-cost simulator).

    With an active ``faults`` model the run goes through the fault-tolerant
    orchestrator, which degrades replicated modules and remaps (on the
    workload's machine, minus lost processors) when a module loses its
    last instance.  ``engine`` selects the executor of plain and controlled
    runs (see :func:`repro.sim.simulate`); faulted runs use the event
    engine.

    A ``controller`` (:class:`repro.sim.AdaptiveController`) puts the run
    under the online adaptive runtime instead: the stream executes in
    epochs and the controller may remap mid-stream when the observed rate
    drifts off its prediction.  Faults and the controller are mutually
    exclusive (:func:`repro.sim.simulate` raises ``SimulationError``).
    """
    if controller is None and faults is not None and faults.active:
        machine = workload.machine
        return simulate_fault_tolerant(
            workload.chain,
            mapping,
            n_datasets=n_datasets,
            faults=faults,
            machine_procs=machine.total_procs,
            noise=noise,
            mem_per_proc_mb=machine.mem_per_proc_mb,
            remap_latency=remap_latency,
        )
    return simulate(
        workload.chain, mapping, n_datasets=n_datasets, noise=noise,
        faults=faults, engine=engine, controller=controller,
    )
