"""Stream-runner fingerprints: every way of running a stream is byte-stable.

Plain, fault-tolerant and controlled runs all go through one segment loop.
The committed fixture pins, for a matrix of runs covering each policy and
each engine, the sha256 of the ``completions`` and ``injections`` arrays
plus the headline scalars, the busy fractions, the event count, the engine
that ran and the number of epochs.  Any change to how a stream is
segmented, dispatched or summarised shows up as a mismatch here.

Regenerate (after an *intentional* behaviour change only)::

    PYTHONPATH=src:. python tests/sim/test_stream_runner_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import Mapping, ModuleSpec
from repro.core.cost import PolynomialEComm, PolynomialExec
from repro.core.task import Edge, Task, TaskChain
from repro.experiments import drift_study
from repro.fjgraph import FJGraph, ParallelSection, greedy_fj_mapping, simulate_fj
from repro.machine.topology import Rect
from repro.sim import (
    AdaptiveController,
    ControllerConfig,
    DriftNoiseModel,
    FaultModel,
    NoiseModel,
    ProcessorFailure,
    simulate,
    simulate_fault_tolerant,
)
from tests.conftest import make_random_chain, make_three_task_chain

GOLDEN = Path(__file__).parent / "golden" / "stream_runner.json"

_SPLIT = Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 2, 4, 1)])


def _plain_healthy():
    chain = make_random_chain(4, seed=11, replicable_prob=1.0)
    mapping = Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 3, 3, 3)])
    return simulate(chain, mapping, n_datasets=600)


def _plain_leaped():
    # Durations on a dyadic grid: an exactly periodic steady state, the
    # long-stream regime benchmarks/bench_sim.py times.
    unit = 2.0 ** -20
    tasks = [Task(f"t{i}", PolynomialExec(round((0.23 + 0.31 * i) / unit) * unit,
                                          0.0, 0.0)) for i in range(3)]
    edges = [Edge(ecom=PolynomialEComm(round((0.11 + 0.07 * i) / unit) * unit,
                                       0.0, 0.0, 0.0, 0.0)) for i in range(2)]
    mapping = Mapping([ModuleSpec(0, 0, 1, 2), ModuleSpec(1, 1, 2, 3),
                       ModuleSpec(2, 2, 1, 1)])
    return simulate(TaskChain(tasks, edges, name="dyadic"), mapping,
                    n_datasets=5_000)


def _plain_jittered():
    return simulate(make_three_task_chain(), _SPLIT, n_datasets=300,
                    noise=NoiseModel(seed=4, jitter=0.03,
                                     comm_interference=0.02))


def _plain_jittered_long():
    # Replicated modules on a long jittered stream: crosses many blocks of
    # buffered jitter draws and each worker queue's head compaction.
    chain = make_random_chain(4, seed=23, replicable_prob=1.0)
    mapping = Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 3, 3, 3)])
    return simulate(chain, mapping, n_datasets=6_000,
                    noise=NoiseModel(seed=8, jitter=0.04,
                                     comm_interference=0.03))


def _plain_replicated():
    # One module, sixteen single-processor replicas on a jittered,
    # interfering stream: every event is a phase or a data-set boundary.
    chain = make_random_chain(4, seed=2, replicable_prob=1.0)
    return simulate(chain, Mapping([ModuleSpec(0, 3, 1, 16)]),
                    n_datasets=2_000,
                    noise=NoiseModel(seed=6, jitter=0.02,
                                     comm_interference=0.02))


def _fj_jittered():
    # Fork/join graph with replicated branches: fan-out and fan-in
    # rendezvous under jitter and transfer interference.
    def task(name, work):
        return Task(name, PolynomialExec(0.005, work))

    def ecom(c=0.02):
        return Edge(ecom=PolynomialEComm(c, 0.5, 0.5, 0.002, 0.002))

    section = ParallelSection(
        branches=[[task(f"cam{i}", 2.0)] for i in range(3)],
        fork_edges=[ecom() for _ in range(3)],
        join_edges=[ecom() for _ in range(3)],
    )
    graph = FJGraph([task("capture", 1.0), section, task("diff", 12.0),
                     ecom(0.05), task("output", 1.0)], name="fork-join")
    mapping, _ = greedy_fj_mapping(graph, 20)
    return simulate_fj(graph, mapping, n_datasets=400,
                       noise=NoiseModel(seed=9, jitter=0.03,
                                        comm_interference=0.05))


def _plain_traced():
    return simulate(make_three_task_chain(), _SPLIT, n_datasets=120,
                    collect_trace=True)


def _plain_placed():
    mapping = Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 2, 2, 1)])
    placements = [[Rect(0, 0, 1, 2), Rect(1, 0, 1, 2)], [Rect(4, 2, 1, 2)]]
    return simulate(make_three_task_chain(), mapping, n_datasets=240,
                    placements=placements, hop_penalty=0.05)


def _ft_degrade():
    chain = make_random_chain(3, seed=4, replicable_prob=1.0)
    mapping = Mapping([ModuleSpec(0, 0, 2, 3), ModuleSpec(1, 2, 3, 2)])
    faults = FaultModel(seed=9, failures=[
        ProcessorFailure(30.0, module=0, instance=1),
        ProcessorFailure(55.0, module=1, instance=0),
    ])
    return simulate_fault_tolerant(chain, mapping, n_datasets=200,
                                   faults=faults, machine_procs=12)


def _ft_remap():
    faults = FaultModel(seed=12,
                        failures=[ProcessorFailure(40.0, module=1, instance=0)])
    return simulate_fault_tolerant(make_three_task_chain(), _SPLIT,
                                   n_datasets=150, faults=faults,
                                   machine_procs=8, remap_latency=0.5)


def _ft_comm():
    return simulate_fault_tolerant(make_three_task_chain(), _SPLIT,
                                   n_datasets=150,
                                   faults=FaultModel(seed=5, comm_fault_prob=0.3),
                                   machine_procs=8)


def _controlled(engine: str, jitter: float):
    chain = drift_study.study_chain()
    ctrl = AdaptiveController(
        chain, drift_study.MACHINE_PROCS,
        config=ControllerConfig(epoch_datasets=400, remap_latency=60.0),
    )
    noise = DriftNoiseModel(seed=7, jitter=jitter, comm_interference=0.0,
                            drift=2e-4, comm_drift=0.0)
    return simulate(chain, None, 4_000, noise=noise, controller=ctrl,
                    engine=engine)


MATRIX = {
    "plain-healthy": _plain_healthy,
    "plain-jittered": _plain_jittered,
    "plain-jittered-long": _plain_jittered_long,
    "plain-leaped": _plain_leaped,
    "plain-traced": _plain_traced,
    "plain-placed": _plain_placed,
    "plain-replicated": _plain_replicated,
    "fj-jittered": _fj_jittered,
    "ft-degrade": _ft_degrade,
    "ft-remap": _ft_remap,
    "ft-comm": _ft_comm,
    "controlled-fast": lambda: _controlled("auto", 0.0),
    "controlled-event": lambda: _controlled("auto", 0.01),
}


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def fingerprint(result) -> dict:
    return {
        "completions": _sha(result.completions),
        "injections": _sha(result.injections),
        "throughput": result.throughput,
        "mean_latency": result.mean_latency,
        "busy_fractions": {
            f"{m},{i}": v for (m, i), v in sorted(result.busy_fractions.items())
        },
        "events_processed": result.events_processed,
        "engine": result.engine,
        "epochs": len(result.epochs),
    }


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_run_reproduces_fixture(name):
    golden = json.loads(GOLDEN.read_text())
    assert fingerprint(MATRIX[name]()) == golden[name]


def test_fixture_covers_the_matrix():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(MATRIX)
    engines = {golden[n]["engine"] for n in golden}
    assert engines == {"fast", "event"}
    assert golden["ft-remap"]["epochs"] > 1
    assert golden["controlled-event"]["engine"] == "event"
    assert golden["controlled-fast"]["engine"] == "fast"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps({n: fingerprint(f()) for n, f in sorted(MATRIX.items())},
                   indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
