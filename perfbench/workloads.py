"""The benchmark's workloads: seeded cases, the timed operation, its checks.

One operation is the mapping tool's whole loop on one case: ``auto_map``
(profile the true chain on the simulator, fit the cost models, solve with
the DP, run the greedy heuristic, search for a machine-feasible mapping),
then ``measure`` the chosen mapping on a stream.  The workloads differ only
in their inputs, which send the time through different layers:

``plan-paper``
    The paper's applications on the 8x8 iWarp presets, measured on a short
    noise-free stream.  Planning dominates; the stream takes the fast path.
``stream-event``
    Small synthetic chains on a 16-node switch machine, cheap to plan,
    measured on a long stream with jitter and transfer interference, which
    the engine dispatcher must send to the discrete-event engine.
``adapt-drift``
    The drift-study chain on a drifting stream under the adaptive
    controller: fast-path epochs, drift detection, incremental re-solves
    and remaps.

The seed picks every case's noise seeds and, on the synthetic and drift
chains, a few-percent perturbation of the costs.  Chain structures, problem
sizes and machines are fixed, so the work in one operation, and with it the
timings, depend little on the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.resolve import scale_chain
from repro.experiments import drift_study
from repro.machine import presets
from repro.machine.feasibility import check_feasible
from repro.machine.machine import CommParams, MachineSpec
from repro.sim import (
    AdaptiveController,
    ControllerConfig,
    DriftNoiseModel,
    NoiseModel,
)
from repro.tools.mapper import auto_map, measure
from repro.workloads import (
    Workload,
    airshed,
    fft_hist,
    radar,
    random_chain,
    sar,
    stereo,
)

#: Data sets in one plan-paper stream.
PAPER_STREAM = 2_000
#: Synthetic chains per stream-event run, their length, and stream length.
EVENT_CASES, EVENT_TASKS, EVENT_STREAM = 4, 4, 6_000
#: Drift-study variants per adapt-drift run, stream length, epoch, drift.
DRIFT_CASES, DRIFT_STREAM, DRIFT_EPOCH, DRIFT_RATE = 4, 20_000, 500, 1e-4
#: Slack on the model-accuracy check (measured vs predicted throughput).
ACCURACY = 0.25
#: Relative tolerance on the DP-optimality checks.
TOL = 1e-9

#: Twelve processors behind a switch: no rectangular-placement constraint.
SWITCH12 = MachineSpec(
    name="switch12",
    rows=1,
    cols=12,
    mem_per_proc_mb=64.0,
    comm=CommParams(
        alpha_s=6.0e-5, beta_s_per_mb=2.9e-2, proc_overhead_s=1.0e-5,
        redist_fraction=0.8,
    ),
    require_rectangular=False,
)


class CheckFailed(Exception):
    """An operation's output broke an invariant or did not repeat."""


@dataclass(frozen=True)
class Case:
    """One input of a workload."""

    name: str
    workload: Workload
    seed: int            # profile and stream noise seed
    drift: float = 0.0   # per-data-set execution drift (adapt-drift only)


@dataclass(frozen=True)
class Scenario:
    """A workload: how to build its cases and run their streams."""

    cases: Callable[[int], list[Case]]
    stream: Callable  # (case, mapping) -> SimulationResult
    engine: str       # the engine every stream must run on
    min_remaps: int = 0
    check_accuracy: bool = False


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


# -- plan-paper ---------------------------------------------------------------

def _paper_cases(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    msg, sys_ = presets.iwarp64_message(), presets.iwarp64_systolic()
    workloads = [
        fft_hist(256, msg), fft_hist(512, sys_), radar(msg), stereo(sys_),
        airshed(msg), sar(sys_),
    ]
    return [
        Case(w.name, w, s) for w, s in zip(workloads, _seeds(rng, len(workloads)))
    ]


def _paper_stream(case: Case, mapping):
    return measure(case.workload, mapping, n_datasets=PAPER_STREAM)


# -- stream-event -------------------------------------------------------------

def _event_cases(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    machine = presets.sp2_16()
    cases = []
    for i, s in enumerate(_seeds(rng, EVENT_CASES)):
        chain = scale_chain(
            random_chain(EVENT_TASKS, seed=i),
            comm_scale=float(rng.uniform(0.95, 1.05)),
        )
        cases.append(Case(f"synthetic-{i}",
                          Workload(f"synthetic-{i}", chain, machine), s))
    return cases


def _event_stream(case: Case, mapping):
    noise = NoiseModel(seed=case.seed, jitter=0.02, comm_interference=0.02)
    return measure(case.workload, mapping, n_datasets=EVENT_STREAM, noise=noise)


# -- adapt-drift --------------------------------------------------------------

def _drift_cases(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = []
    for i, s in enumerate(_seeds(rng, DRIFT_CASES)):
        chain = scale_chain(
            drift_study.study_chain(), comm_scale=float(rng.uniform(0.95, 1.05)),
        )
        cases.append(Case(
            f"drift-{i}", Workload(f"drift-{i}", chain, SWITCH12), s,
            drift=DRIFT_RATE * float(rng.uniform(0.9, 1.1)),
        ))
    return cases


def _drift_stream(case: Case, mapping):
    w = case.workload
    ctrl = AdaptiveController(
        w.chain, w.machine.total_procs, w.machine.mem_per_proc_mb,
        config=ControllerConfig(
            epoch_datasets=DRIFT_EPOCH, remap_latency=drift_study.REMAP_LATENCY,
        ),
    )
    noise = DriftNoiseModel(
        seed=case.seed, jitter=0.0, comm_interference=0.0, drift=case.drift,
        comm_drift=0.0,
    )
    return measure(w, mapping, n_datasets=DRIFT_STREAM, noise=noise,
                   controller=ctrl)


SCENARIOS = {
    "plan-paper": Scenario(_paper_cases, _paper_stream, engine="fast"),
    "stream-event": Scenario(_event_cases, _event_stream, engine="event",
                             check_accuracy=True),
    "adapt-drift": Scenario(_drift_cases, _drift_stream, engine="fast",
                            min_remaps=1),
}


# -- the operation ------------------------------------------------------------

def run_op(scn: Scenario, case: Case):
    """Plan ``case`` with the mapping tool, then measure the plan."""
    plan = auto_map(case.workload, profile_noise=NoiseModel(seed=case.seed))
    return plan, scn.stream(case, plan.mapping)


def check(scn: Scenario, case: Case, plan, result) -> tuple:
    """Verify one operation's output; return its fingerprint.

    The fingerprint pins everything the operation computed, so comparing
    it with the case's first run checks that the run repeats bit for bit.
    """
    w = case.workload
    if plan.optimal.throughput < plan.heuristic.throughput * (1 - TOL):
        raise CheckFailed(f"{case.name}: greedy beat the optimal DP")
    if plan.feasible.throughput > plan.optimal.throughput * (1 + TOL):
        raise CheckFailed(f"{case.name}: feasible mapping beat the optimum")
    if not check_feasible(plan.mapping, w.machine):
        raise CheckFailed(f"{case.name}: deployed mapping is not feasible")
    if result.engine != scn.engine:
        raise CheckFailed(
            f"{case.name}: stream ran on {result.engine!r}, not {scn.engine!r}"
        )
    if not np.all(np.isfinite(result.completions)):
        raise CheckFailed(f"{case.name}: stream lost data sets")
    if len(result.remaps) < scn.min_remaps:
        raise CheckFailed(f"{case.name}: controller never remapped")
    if scn.check_accuracy:
        error = abs(result.throughput / plan.predicted_throughput - 1.0)
        if error > ACCURACY:
            raise CheckFailed(
                f"{case.name}: measured throughput {100 * error:.0f}% off "
                f"the prediction"
            )
    return (
        repr(plan.optimal.mapping),
        repr(plan.heuristic.mapping),
        repr(plan.mapping),
        plan.optimal.throughput,
        plan.heuristic.throughput,
        plan.feasible.throughput,
        result.throughput,
        hashlib.sha256(result.completions.tobytes()).hexdigest(),
        len(result.remaps),
    )


def audit(result) -> None:
    """Replay the controller's incremental re-solves cold; raises
    ``AssertionError`` if one differs.  Run once per case: it re-solves."""
    if result.controller is not None:
        result.controller.audit_incremental_solves()
