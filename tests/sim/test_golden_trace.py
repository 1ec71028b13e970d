"""Golden-trace determinism: a seeded faulted run is byte-stable.

The committed fixture pins the exact event stream — timings, fault
injection, retry windows, the remap marker — of one kill-1-of-P run with
transient communication faults.  Any change to event ordering, fault
delivery, or the RNG discipline shows up as a diff here, which is the
point: fault handling must stay deterministic under a fixed seed.

A second fixture pins the trace of a healthy run with jitter and
transfer interference on replicated modules — the path §5 profiling takes
(``simulate(collect_trace=True)`` under a noise model) — so the order in
which jitter is drawn and handed to phases and transfers stays fixed.

Regenerate (after an *intentional* semantic change) by running this file
as a script: ``PYTHONPATH=src:. python tests/sim/test_golden_trace.py``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core import Mapping, ModuleSpec
from repro.sim import (
    FaultModel,
    NoiseModel,
    ProcessorFailure,
    simulate,
    simulate_fault_tolerant,
)
from tests.conftest import make_three_task_chain

GOLDEN = Path(__file__).parent / "golden" / "fault_trace.txt"
JITTER_GOLDEN = Path(__file__).parent / "golden" / "jittered_trace.txt"


def _golden_run():
    """The pinned scenario: comm faults before a fatal failure, then remap."""
    faults = FaultModel(
        seed=42,
        failures=[ProcessorFailure(100.0, module=1, instance=0)],
        comm_fault_prob=0.15,
    )
    return simulate_fault_tolerant(
        make_three_task_chain(),
        Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 2, 4, 1)]),
        n_datasets=16,
        faults=faults,
        machine_procs=8,
        collect_trace=True,
        remap_latency=0.5,
    )


def _jittered_run():
    """The profiler's path: a traced run under jitter and interference."""
    return simulate(
        make_three_task_chain(),
        Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 2, 3, 1)]),
        n_datasets=40,
        noise=NoiseModel(seed=6, jitter=0.05, comm_interference=0.04),
        collect_trace=True,
    )


def test_trace_matches_committed_golden():
    assert _golden_run().trace.dumps() == GOLDEN.read_text()


def test_jittered_trace_matches_committed_golden():
    assert _jittered_run().trace.dumps() == JITTER_GOLDEN.read_text()


def test_same_seed_runs_are_byte_identical():
    assert _golden_run().trace.dumps() == _golden_run().trace.dumps()


def test_golden_scenario_exercises_both_fault_kinds():
    # Guards the fixture itself: if a refactor shifts event timing so that
    # the scripted failure pre-empts every comm fault (or the remap stops
    # happening), the fixture no longer tests what it claims to.
    result = _golden_run()
    assert result.comm_faults
    assert len(result.processor_failures) == 1
    assert len(result.remaps) == 1
    kinds = {e.kind for e in result.trace.events}
    assert {"fault", "fail", "remap"} <= kinds


def test_dumps_is_parseable_and_ordered():
    lines = _golden_run().trace.dumps().splitlines()
    starts = []
    for line in lines:
        module, instance, kind, label, dataset, start, end = line.split("\t")
        assert float(end) >= float(start)
        starts.append(float(start))
    assert starts == sorted(starts)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    GOLDEN.write_text(_golden_run().trace.dumps())
    JITTER_GOLDEN.write_text(_jittered_run().trace.dumps())
    print(f"regenerated {GOLDEN} and {JITTER_GOLDEN}")
