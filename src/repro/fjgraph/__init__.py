"""Fork/join pipelines — extension beyond the paper's linear chains
(non-nested parallel sections, e.g. multibaseline stereo's camera fork)."""

from .graph import FJGraph, ParallelSection, Segment
from .mapping import (
    FJMapping,
    FJModule,
    FJPerformance,
    brute_force_fj,
    build_modules,
    evaluate_fj,
    greedy_fj_assignment,
    greedy_fj_mapping,
)
from .sim import simulate_fj

__all__ = [
    "FJGraph",
    "ParallelSection",
    "Segment",
    "FJMapping",
    "FJModule",
    "FJPerformance",
    "build_modules",
    "evaluate_fj",
    "greedy_fj_assignment",
    "brute_force_fj",
    "greedy_fj_mapping",
    "simulate_fj",
]
