"""Discrete-event pipeline simulator — the "measured" substrate standing in
for the paper's iWarp testbed, plus the fault-injection layer."""

from .controller import (
    AdaptiveController,
    ControllerConfig,
    ControllerDecision,
    ControllerRecord,
    EpochObservation,
)
from .engine import Simulator
from .faults import (
    EpochStats,
    FaultEvent,
    FaultModel,
    ProcessorFailure,
    RemapRecord,
)
from .noise import DriftNoiseModel, NoiseModel
from .pipeline import (
    SimulationResult,
    simulate,
    simulate_fast,
    simulate_fault_tolerant,
)
from .svg import trace_to_svg, write_trace_svg
from .trace import TraceEvent, TraceLog, render_gantt

__all__ = [
    "Simulator",
    "AdaptiveController",
    "ControllerConfig",
    "ControllerDecision",
    "ControllerRecord",
    "EpochObservation",
    "NoiseModel",
    "DriftNoiseModel",
    "SimulationResult",
    "simulate",
    "simulate_fast",
    "simulate_fault_tolerant",
    "FaultModel",
    "FaultEvent",
    "ProcessorFailure",
    "RemapRecord",
    "EpochStats",
    "TraceEvent",
    "TraceLog",
    "render_gantt",
    "trace_to_svg",
    "write_trace_svg",
]
