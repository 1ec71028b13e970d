"""Online adaptive runtime: acceptance and contract tests.

The headline acceptance (mirrored by ``benchmarks/bench_drift.py`` at full
scale): on a seeded drifting stream whose optimal clustering migrates
mid-run, the controller recovers at least 80% of the average-rate gap
between the static day-0 mapping and the re-solve-every-epoch oracle, and
a stationary stream triggers zero remaps.  Controlled runs are also
bit-identical across the fast and event engines on deterministic drift.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Edge,
    Mapping,
    ModuleSpec,
    PlanError,
    ScaledBinary,
    SimulationError,
    TaskChain,
    ZeroBinary,
)
from repro.core.resolve import scale_chain
from repro.core.response import build_module_chain, evaluate_module_chain
from repro.experiments import drift_study
from repro.machine import Rect
from repro.sim import (
    AdaptiveController,
    ControllerConfig,
    DriftNoiseModel,
    FaultModel,
    NoiseModel,
    ProcessorFailure,
    simulate,
)

from ..conftest import make_random_chain, make_three_task_chain

#: Quick configuration: 10x drift over a 10x shorter stream keeps both
#: clustering transitions of the full study inside the run.
N, DRIFT, EPOCH = 10_000, 2e-4, 500
PROCS = drift_study.MACHINE_PROCS


def drift_noise(drift=DRIFT, comm_drift=0.0, jitter=0.0, seed=7):
    return DriftNoiseModel(
        seed=seed, jitter=jitter, comm_interference=0.0,
        drift=drift, comm_drift=comm_drift,
    )


def run_arm(n=N, epoch=EPOCH, noise=None, engine="auto", **cfg_kw):
    chain = drift_study.study_chain()
    ctrl = AdaptiveController(
        chain, PROCS,
        config=ControllerConfig(
            epoch_datasets=epoch, remap_latency=60.0, **cfg_kw,
        ),
    )
    result = simulate(
        chain, None, n,
        noise=noise if noise is not None else drift_noise(),
        controller=ctrl, engine=engine,
    )
    return result, ctrl


class TestAcceptance:
    def test_adaptive_recovers_most_of_the_oracle_gap(self):
        static, _ = run_arm(adapt=False)
        adaptive, actrl = run_arm()
        oracle, octrl = run_arm(oracle=True)
        r_static = N / static.makespan
        r_adaptive = N / adaptive.makespan
        r_oracle = N / oracle.makespan
        # Drift makes adaptation pay at all.
        assert r_oracle > r_static * 1.05
        # The controller actually adapts, and recovers >= 80% of the gap.
        assert actrl.remap_count >= 1
        assert r_adaptive >= r_static
        recovery = (r_adaptive - r_static) / (r_oracle - r_static)
        assert recovery >= 0.8
        # Hysteresis: the controller re-solves less often than the oracle.
        assert actrl.resolves < octrl.resolves

    def test_adaptive_tracks_both_clustering_transitions(self):
        result, ctrl = run_arm()
        # The study's optimum splits twice (1 -> 2 -> 3 modules).
        assert ctrl.remap_count == 2
        assert len(result.final_mapping) == 3
        assert result.final_mapping == ctrl.mapping
        assert result.controller is ctrl

    def test_incremental_solves_byte_identical_to_cold(self):
        _, ctrl = run_arm()
        assert len(ctrl.audit) > 0
        assert ctrl.audit_incremental_solves() == len(ctrl.audit)
        assert ctrl.evictions > 0

    def test_stationary_silent_stream_never_remaps(self):
        result, ctrl = run_arm(n=3_000, noise=NoiseModel.silent())
        assert ctrl.remap_count == 0
        assert ctrl.resolves == 1          # only the initial solve
        assert all(e.label == "ok" for e in result.epochs)
        assert result.availability == 1.0

    def test_stationary_jittered_stream_never_remaps(self):
        noise = NoiseModel(seed=11, jitter=0.02, comm_interference=0.02)
        result, ctrl = run_arm(n=2_000, epoch=400, noise=noise)
        assert result.engine == "event"    # random noise needs the event engine
        assert ctrl.remap_count == 0


@pytest.mark.slow
class TestFullScale:
    """The acceptance-bar configuration (1e5 data sets, drift 2e-5)."""

    def test_full_drift_study_meets_the_acceptance_bar(self):
        results = drift_study.run()
        assert results["recovery"] >= 0.8
        arms = {a.name: a for a in results["arms"]}
        assert arms["static"].remaps == 0
        assert arms["adaptive"].remaps >= 2
        assert arms["adaptive"].final_modules == arms["oracle"].final_modules
        assert arms["adaptive"].resolves < arms["oracle"].resolves
        # Every incremental re-solve audited byte-identical to cold.
        assert results["adaptive_audited"] > 0
        assert results["oracle_audited"] > 0

    def test_full_scale_event_engine_matches_fast(self):
        n, epoch = 50_000, drift_study.EPOCH_DATASETS
        fast, fctrl = run_arm(
            n=n, epoch=epoch, noise=drift_noise(drift=4e-5), engine="fast",
        )
        event, ectrl = run_arm(
            n=n, epoch=epoch, noise=drift_noise(drift=4e-5), engine="event",
        )
        assert fctrl.remap_count >= 1
        assert np.array_equal(fast.completions, event.completions)
        assert fctrl.dumps() == ectrl.dumps()


class TestEngineIdentity:
    def test_fast_and_event_controlled_runs_bit_identical(self):
        fast, fctrl = run_arm(n=4_000, engine="fast")
        event, ectrl = run_arm(n=4_000, engine="event")
        assert fctrl.remap_count >= 1      # identity covers a remap boundary
        assert np.array_equal(fast.completions, event.completions)
        assert np.array_equal(fast.injections, event.injections)
        assert fast.throughput == event.throughput
        assert fast.busy_fractions == event.busy_fractions
        assert fctrl.dumps() == ectrl.dumps()

    def test_auto_picks_fast_for_deterministic_drift(self):
        result, _ = run_arm(n=2_000)
        assert result.engine == "fast"

    def test_fast_rejects_transfer_interference(self):
        noise = NoiseModel(seed=1, jitter=0.0, comm_interference=0.02)
        with pytest.raises(SimulationError, match="interference"):
            run_arm(n=2_000, noise=noise, engine="fast")


class TestContracts:
    def test_controller_refuses_a_second_run(self):
        _, ctrl = run_arm(n=2_000)
        chain = drift_study.study_chain()
        with pytest.raises(SimulationError, match="fresh"):
            simulate(chain, None, 2_000, noise=drift_noise(),
                     controller=ctrl)

    def test_controller_excludes_faults(self):
        chain = drift_study.study_chain()
        ctrl = AdaptiveController(chain, PROCS)
        faults = FaultModel(seed=1, failures=[ProcessorFailure(10.0, 0, 0)])
        with pytest.raises(SimulationError, match="fault"):
            simulate(chain, None, 1_000, faults=faults, controller=ctrl)

    def test_controller_excludes_traces(self):
        chain = drift_study.study_chain()
        ctrl = AdaptiveController(chain, PROCS)
        with pytest.raises(SimulationError, match="trace"):
            simulate(chain, None, 1_000, collect_trace=True, controller=ctrl)

    def test_controller_excludes_placements(self):
        # Placements describe one mapping's instances and a controller
        # remaps, so a controlled run must refuse them rather than run
        # without the hop slowdown they ask for.
        chain = make_three_task_chain()
        mapping = Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 2, 2, 1)])
        placements = [[Rect(0, 0, 1, 2), Rect(7, 0, 1, 2)], [Rect(0, 6, 1, 2)]]
        for kw in ({"placements": placements, "hop_penalty": 5.0},
                   {"placements": placements}, {"hop_penalty": 5.0}):
            ctrl = AdaptiveController(chain, 6)
            with pytest.raises(SimulationError, match="placements"):
                simulate(chain, mapping, 400, controller=ctrl, **kw)

    def test_starting_mapping_must_fit_the_controller_budget(self):
        # A 36-processor mapping on a 12-processor controller is caught by
        # the static pre-flight instead of running to completion.
        chain = drift_study.study_chain()
        ctrl = AdaptiveController(chain, 12)
        big = Mapping([ModuleSpec(0, 1, 18, 1), ModuleSpec(2, 3, 18, 1)])
        with pytest.raises(PlanError, match="budget"):
            simulate(chain, big, 1_000, controller=ctrl)
        assert not ctrl.records and ctrl.initial_mapping != big

    def test_mapping_required_without_controller(self):
        chain = drift_study.study_chain()
        with pytest.raises(SimulationError, match="controlled"):
            simulate(chain, None, 1_000)

    @pytest.mark.parametrize(
        "kw",
        [
            {"epoch_datasets": 1},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"patience": 0},
            {"dead_band": -0.1},
            {"remap_latency": -1.0},
            {"min_gain": -0.5},
            # A NaN threshold never compares true: the controller would
            # never breach or never remap, silently becoming a monitor.
            {"dead_band": float("nan")},
            {"remap_latency": float("nan")},
            {"payback": float("nan")},
            {"min_gain": float("nan")},
        ],
    )
    def test_config_validation(self, kw):
        with pytest.raises(ValueError):
            ControllerConfig(**kw)

    def test_remap_records_and_downtime_accounting(self):
        result, ctrl = run_arm()
        assert len(result.remaps) == ctrl.remap_count >= 1
        for rec in result.remaps:
            assert rec.failed_module == -1             # drift, not a failure
            assert rec.surviving_procs == PROCS
            assert rec.resume_time - rec.time == pytest.approx(60.0)
            assert rec.new_mapping != rec.old_mapping
        downtime = sum(r.downtime for r in result.remaps)
        assert result.availability == pytest.approx(
            1.0 - downtime / result.makespan
        )
        assert any(e.label == "remap" for e in result.epochs)

    def test_adopt_starts_from_an_external_mapping(self):
        chain = drift_study.study_chain()
        ctrl = AdaptiveController(
            chain, PROCS, config=ControllerConfig(epoch_datasets=EPOCH),
        )
        external = Mapping([ModuleSpec(0, 1, 6, 1), ModuleSpec(2, 3, 6, 1)])
        assert external != ctrl.mapping
        simulate(chain, external, 2_000, noise=drift_noise(),
                 controller=ctrl)
        assert ctrl.initial_mapping == external
        assert ctrl.records[0].mapping.clustering() in (
            external.clustering(), ctrl.mapping.clustering(),
        )

    def test_monitoring_log_is_tab_separated_and_ordered(self):
        _, ctrl = run_arm(n=4_000)
        lines = ctrl.dumps().splitlines()
        assert lines[0].startswith("epoch\tstart\tstop")
        epochs = []
        for line in lines[1:]:
            fields = line.split("\t")
            assert len(fields) == 10
            assert fields[6] in ("ok", "anchor", "remap")
            epochs.append(int(fields[0]))
        assert epochs == sorted(epochs)


@st.composite
def deployed_cases(draw):
    """A random chain (some external edges free, some comm models already
    scaled), a mapping of it, and a believed comm scale."""
    k = draw(st.integers(1, 5))
    base = make_random_chain(k, seed=draw(st.integers(0, 2**16)))
    edges = []
    for e in base.edges:
        ecom = draw(st.sampled_from(
            [e.ecom, ZeroBinary(), ScaledBinary(e.ecom, 0.5)]))
        edges.append(Edge(icom=e.icom, ecom=ecom))
    chain = TaskChain(base.tasks, edges, name=base.name)
    modules, start = [], 0
    for t in range(k):
        if t == k - 1 or draw(st.booleans()):
            replicable = all(task.replicable for task in chain.tasks[start:t + 1])
            modules.append(ModuleSpec(start, t, draw(st.integers(1, 3)),
                                      draw(st.integers(1, 2)) if replicable else 1))
            start = t + 1
    scale = draw(st.one_of(st.sampled_from([1.0, 1e300, float("inf")]),
                           st.floats(1e-3, 1e3)))
    return chain, Mapping(modules), scale


@settings(max_examples=40, deadline=None)
@given(case=deployed_cases())
def test_deployed_pricing_equals_the_evaluator(case):
    """The controller prices the deployed mapping on a believed chain from
    its busy-model memo with :func:`evaluate_module_chain`'s bits: scaled,
    free and pre-scaled comm models, and a scale the memo cannot use
    (``inf`` is no ``unscaled`` factor)."""
    chain, mapping, scale = case
    ctrl = AdaptiveController(chain, 32)
    ctrl.adopt(mapping)
    believed = scale_chain(chain, comm_scale=scale)
    want = evaluate_module_chain(
        build_module_chain(believed, mapping.clustering()),
        [(m.procs, m.replicas) for m in mapping.modules],
    ).throughput
    assert ctrl._price_deployed(believed).hex() == want.hex()


class TestMeasureWiring:
    def test_measure_routes_controlled_runs(self):
        from repro.machine import by_name as machine_by_name
        from repro.tools.mapper import measure
        from repro.workloads import by_name as workload_by_name

        machine = machine_by_name("iwarp64-message")
        workload = workload_by_name("fft-hist-256", machine)
        ctrl = AdaptiveController(
            workload.chain, machine.total_procs,
            mem_per_proc_mb=machine.mem_per_proc_mb,
            config=ControllerConfig(epoch_datasets=100),
        )
        result = measure(
            workload, ctrl.mapping, n_datasets=300, controller=ctrl,
        )
        assert result.controller is ctrl
        assert result.throughput > 0
        assert len(result.epochs) == 3

    def test_measure_rejects_controller_plus_faults(self):
        from repro.machine import by_name as machine_by_name
        from repro.tools.mapper import measure
        from repro.workloads import by_name as workload_by_name

        machine = machine_by_name("iwarp64-message")
        workload = workload_by_name("fft-hist-256", machine)
        ctrl = AdaptiveController(workload.chain, machine.total_procs)
        faults = FaultModel(seed=1, failures=[ProcessorFailure(5.0, 0, 0)])
        with pytest.raises(SimulationError, match="fault"):
            measure(workload, ctrl.mapping, n_datasets=100,
                    faults=faults, controller=ctrl)
