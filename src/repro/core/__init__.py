"""Core algorithms of the paper: cost models, task chains, mappings, the
dynamic-programming and greedy mappers, baselines, and oracles."""

from .cost import (
    BinaryCost,
    LambdaBinary,
    LambdaUnary,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    ScaledBinary,
    ScaledUnary,
    ScatteredBinary,
    SumUnary,
    TabulatedBinary,
    TabulatedUnary,
    UnaryCost,
    ZeroBinary,
    ZeroUnary,
    model_from_dict,
)
from .exceptions import (
    InfeasibleError,
    InvalidChainError,
    InvalidMappingError,
    ModelFitError,
    PlanError,
    ReproError,
    Severity,
    SimulationError,
    Violation,
)
from .task import Edge, Task, TaskChain, min_processors
from .mapping import (
    Mapping,
    ModuleSpec,
    all_clusterings,
    clustering_from_boundaries,
    singleton_clustering,
)
from .replication import check_no_superlinear, effective_tables, split_replicas
from .response import (
    MappingPerformance,
    ModuleChain,
    ModuleInfo,
    SegmentCache,
    build_module_chain,
    evaluate_mapping,
    evaluate_module_chain,
    module_info,
    throughput_of_totals,
    totals_to_allocations,
)
from .workspace import SolverWorkspace, argmin_dtype, default_workspace
from .dp import DPResult, optimal_assignment
from .dp_cluster import ClusteredResult, optimal_mapping
from .remap import RemapPlanner
from .resolve import ChainDelta, diff_chains, scale_chain
from .greedy import GreedyResult, greedy_assignment
from .cluster_greedy import HeuristicResult, heuristic_mapping
from .baselines import (
    comm_blind_assignment,
    data_parallel,
    even_task_parallel,
    replicated_data_parallel,
)
from .exhaustive import (
    BruteForceResult,
    brute_force_assignment,
    brute_force_mapping,
    enumerate_allocations,
)
from .latency import (
    LatencyResult,
    optimal_latency_assignment,
    throughput_latency_frontier,
)
from .sizing import SizingResult, min_processors_for_throughput, sizing_curve
from .validate import PlanReport, diagnose, ensure_valid_plan, preflight

__all__ = [
    # cost models
    "UnaryCost", "BinaryCost", "PolynomialExec", "PolynomialIComm",
    "PolynomialEComm", "TabulatedUnary", "TabulatedBinary", "ScatteredBinary", "ZeroUnary",
    "ZeroBinary", "SumUnary", "ScaledUnary", "ScaledBinary", "LambdaUnary",
    "LambdaBinary", "model_from_dict",
    # errors
    "ReproError", "InvalidChainError", "InvalidMappingError",
    "InfeasibleError", "ModelFitError", "SimulationError", "PlanError",
    "Severity", "Violation",
    # chain & mapping
    "Task", "Edge", "TaskChain", "min_processors",
    "Mapping", "ModuleSpec", "all_clusterings", "singleton_clustering",
    "clustering_from_boundaries",
    # replication & evaluation
    "split_replicas", "effective_tables", "check_no_superlinear",
    "ModuleInfo", "ModuleChain", "SegmentCache", "build_module_chain",
    "module_info",
    "MappingPerformance", "evaluate_mapping", "evaluate_module_chain",
    "throughput_of_totals", "totals_to_allocations",
    # performance layer
    "SolverWorkspace", "default_workspace", "argmin_dtype",
    # solvers
    "DPResult", "optimal_assignment",
    "ClusteredResult", "optimal_mapping",
    "RemapPlanner",
    "ChainDelta", "diff_chains", "scale_chain",
    "GreedyResult", "greedy_assignment",
    "HeuristicResult", "heuristic_mapping",
    "LatencyResult", "optimal_latency_assignment",
    "throughput_latency_frontier",
    "SizingResult", "min_processors_for_throughput", "sizing_curve",
    "PlanReport", "diagnose", "preflight", "ensure_valid_plan",
    # baselines & oracles
    "data_parallel", "replicated_data_parallel", "even_task_parallel",
    "comm_blind_assignment",
    "BruteForceResult", "brute_force_assignment", "brute_force_mapping",
    "enumerate_allocations",
]
