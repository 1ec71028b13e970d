"""Fault-tolerance acceptance tests: degrade, remap, availability.

The ISSUE-level scenario: a seeded kill-1-of-P run where a replicated
bottleneck degrades gracefully without a remap, while a module losing its
only instance forces a DP re-solve on the surviving processors — and the
post-remap analytic throughput matches the simulator within noise
tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Edge,
    Mapping,
    ModuleSpec,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    SimulationError,
    Task,
    TaskChain,
    ensure_valid_plan,
    evaluate_mapping,
)
from repro.core.remap import RemapPlanner
from repro.sim import (
    FaultModel,
    ProcessorFailure,
    simulate,
    simulate_fault_tolerant,
)

from ..conftest import make_three_task_chain

MACHINE = 8
#: module 0 = {a,b} replicated x2 on 2 procs each; module 1 = {c} singleton.
MAPPING = Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 2, 4, 1)])


def ft(chain, mapping, **kw):
    kw.setdefault("machine_procs", MACHINE)
    return simulate_fault_tolerant(chain, mapping, **kw)


class TestFaultModel:
    def test_inactive_by_default(self):
        assert not FaultModel().active
        assert FaultModel(failures=[ProcessorFailure(1.0, 0)]).active
        assert FaultModel(failure_rate=0.1).active
        assert FaultModel(comm_fault_prob=0.1).active

    def test_silent_and_clone(self):
        fm = FaultModel(seed=3, failures=[ProcessorFailure(1.0, 0)])
        assert not FaultModel.silent().active
        clone = fm.clone()
        assert clone.active and clone is not fm
        assert [f.time for _, f in clone.pending_failures()] == [1.0]

    def test_rejects_negative_failure_time(self):
        with pytest.raises(ValueError):
            ProcessorFailure(-1.0, 0)

    def test_transfer_attempts_bounded(self):
        fm = FaultModel(seed=1, comm_fault_prob=0.9, max_comm_retries=3)
        draws = {fm.transfer_attempts() for _ in range(200)}
        assert min(draws) >= 1
        assert max(draws) <= 4          # max_comm_retries + 1

    def test_mark_delivered_counts_lost_procs(self):
        fm = FaultModel(failures=[ProcessorFailure(1.0, 0), ProcessorFailure(2.0, 1)])
        assert fm.procs_lost == 0
        fm.mark_delivered(0)
        assert fm.procs_lost == 1
        assert [i for i, _ in fm.pending_failures()] == [1]


class TestHealthyPath:
    def test_matches_plain_simulate_bit_for_bit(self, three_chain):
        plain = simulate(three_chain, MAPPING, n_datasets=60)
        tolerant = ft(three_chain, MAPPING, n_datasets=60)
        # One dispatch rule: a healthy fault-tolerant run takes the same
        # engine as the plain run and reproduces it exactly.
        assert tolerant.engine == plain.engine == "fast"
        assert np.array_equal(tolerant.completions, plain.completions)
        assert tolerant.throughput == plain.throughput
        assert tolerant.availability == 1.0
        assert not tolerant.failures and not tolerant.remaps

    def test_inactive_faults_are_ignored(self, three_chain):
        res = ft(three_chain, MAPPING, n_datasets=40, faults=FaultModel())
        assert not res.failures

    def test_simulate_redirects_fatal_failure(self, three_chain):
        faults = FaultModel(failures=[ProcessorFailure(5.0, 1, 0)])
        with pytest.raises(SimulationError, match="fault_tolerant"):
            simulate(three_chain, MAPPING, n_datasets=60, faults=faults)


class TestDegrade:
    """Kill one of the replicated bottleneck's two instances."""

    def run(self, chain, n=120, fail_at=40.0):
        faults = FaultModel(
            seed=11, failures=[ProcessorFailure(fail_at, module=0, instance=1)]
        )
        return ft(chain, MAPPING, n_datasets=n, faults=faults), faults

    def test_degrades_without_remap(self, three_chain):
        res, faults = self.run(three_chain)
        assert len(res.processor_failures) == 1
        assert res.remaps == []
        assert res.availability == 1.0
        assert faults.procs_lost == 1

    def test_all_datasets_complete(self, three_chain):
        res, _ = self.run(three_chain)
        assert res.n_datasets == 120
        assert len(res.completions) == 120
        assert (res.completions > 0).all()

    def test_post_fault_rate_halves(self, three_chain):
        # Module 0 is the bottleneck; losing 1 of 2 replicas halves its rate.
        res, _ = self.run(three_chain)
        healthy = evaluate_mapping(three_chain, MAPPING).throughput
        degraded = [e for e in res.epochs if e.label != "healthy"]
        assert degraded
        last = degraded[-1]
        assert last.throughput == pytest.approx(healthy / 2, rel=0.1)

    def test_early_failure_equals_degraded_mapping(self, three_chain):
        # Failing at t=0^+ should run (almost) the whole stream degraded:
        # the measured rate matches the 1-replica analytic model.
        res, _ = self.run(three_chain, n=150, fail_at=1e-6)
        lone = Mapping([ModuleSpec(0, 1, 2, 1), ModuleSpec(2, 2, 4, 1)])
        expect = evaluate_mapping(three_chain, lone).throughput
        assert res.throughput == pytest.approx(expect, rel=0.05)


class TestRemap:
    """Kill the unreplicated module's only instance -> DP re-solve."""

    def run(self, chain, **kw):
        faults = FaultModel(
            seed=12, failures=[ProcessorFailure(40.0, module=1, instance=0)]
        )
        kw.setdefault("n_datasets", 120)
        kw.setdefault("remap_latency", 1.0)
        return ft(chain, MAPPING, faults=faults, **kw), faults

    def test_remaps_once(self, three_chain):
        res, faults = self.run(three_chain)
        assert len(res.remaps) == 1
        rec = res.remaps[0]
        assert rec.failed_module == 1
        assert rec.surviving_procs == MACHINE - 1
        assert rec.downtime >= 1.0          # at least the remap latency
        assert res.availability < 1.0

    def test_new_mapping_fits_survivors(self, three_chain):
        res, _ = self.run(three_chain)
        new = res.remaps[0].new_mapping
        assert res.final_mapping == new
        ensure_valid_plan(three_chain, new, MACHINE - 1)
        assert new.total_procs <= MACHINE - 1

    def test_post_remap_rate_matches_analytic(self, three_chain):
        res, _ = self.run(three_chain, n_datasets=200)
        rec = res.remaps[0]
        predicted = rec.predicted_throughput
        assert predicted == pytest.approx(
            evaluate_mapping(three_chain, rec.new_mapping).throughput, rel=1e-9
        )
        remapped = [e for e in res.epochs if e.label == "remapped"]
        assert remapped
        assert remapped[-1].throughput == pytest.approx(predicted, rel=0.05)

    def test_all_datasets_complete_exactly_once(self, three_chain):
        res, _ = self.run(three_chain)
        assert len(res.completions) == 120
        assert (res.completions > 0).all()

    def test_planner_reuse_is_observable(self, three_chain):
        planner = RemapPlanner(three_chain)
        _, _ = self.run(three_chain, planner=planner)
        assert planner.solves == 1
        # A second identical stream reuses the memoised plan: no new solve.
        _, _ = self.run(three_chain, planner=planner)
        assert planner.solves == 1

    def test_remap_trace_records_window(self, three_chain):
        res, _ = self.run(three_chain, collect_trace=True)
        marks = [e for e in res.trace.events if e.kind == "remap"]
        assert len(marks) == 1
        assert marks[0].end - marks[0].start == pytest.approx(
            res.remaps[0].downtime
        )


class TestTransientComm:
    def test_faults_slow_but_complete(self, three_chain):
        clean = ft(three_chain, MAPPING, n_datasets=100)
        lossy = ft(
            three_chain, MAPPING, n_datasets=100,
            faults=FaultModel(seed=5, comm_fault_prob=0.3),
        )
        assert lossy.comm_faults
        assert not lossy.processor_failures
        assert len(lossy.completions) == 100
        assert lossy.throughput < clean.throughput

    def test_same_seed_same_result(self, three_chain):
        runs = [
            ft(
                three_chain, MAPPING, n_datasets=80,
                faults=FaultModel(seed=5, comm_fault_prob=0.2),
            )
            for _ in range(2)
        ]
        assert runs[0].throughput == runs[1].throughput
        assert len(runs[0].comm_faults) == len(runs[1].comm_faults)


class TestRandomHazard:
    def test_seeded_hazard_is_deterministic(self, three_chain):
        def run():
            return ft(
                three_chain, MAPPING, n_datasets=100,
                faults=FaultModel(seed=23, failure_rate=0.002),
            )

        a, b = run(), run()
        assert a.throughput == b.throughput
        assert [f.time for f in a.processor_failures] == [
            f.time for f in b.processor_failures
        ]


class TestInfeasibleRemap:
    def test_stream_aborts_when_chain_no_longer_fits(self):
        # Every clustering of this chain needs >= 6 processors (24 MB of
        # parallel state, 4 MB per processor); at 5 survivors the remap
        # is infeasible and the stream must abort loudly.
        tasks = [
            Task("a", PolynomialExec(0.1, 5.0, 0.0), replicable=True,
                 mem_parallel_mb=8.0),
            Task("b", PolynomialExec(0.1, 5.0, 0.0), replicable=True,
                 mem_parallel_mb=8.0),
            Task("c", PolynomialExec(0.1, 5.0, 0.0), replicable=False,
                 mem_parallel_mb=8.0),
        ]
        edge = Edge(
            icom=PolynomialIComm(0.0, 0.1, 0.0),
            ecom=PolynomialEComm(0.01, 0.5, 0.5, 0.0, 0.0),
        )
        chain = TaskChain(tasks, [edge, edge], name="heavy")
        mapping = Mapping([ModuleSpec(0, 2, 6, 1)])
        faults = FaultModel(failures=[ProcessorFailure(20.0, 0, 0)])
        with pytest.raises(SimulationError, match="abort"):
            simulate_fault_tolerant(
                chain, mapping, n_datasets=120, faults=faults,
                machine_procs=6, mem_per_proc_mb=4.0,
            )


def test_module_chain_fixture_assumptions():
    """The scenario above relies on {a,b} replicable and {c} not."""
    chain = make_three_task_chain()
    assert chain.tasks[0].replicable and chain.tasks[1].replicable
    assert not chain.tasks[2].replicable
    ensure_valid_plan(chain, MAPPING, MACHINE)
