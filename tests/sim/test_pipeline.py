"""Tests for the pipeline simulator: it must *measure* what the analytic
model of §2 predicts when noise is off, and degrade gracefully with noise."""

import numpy as np
import pytest

from repro.core import (
    Edge,
    Mapping,
    ModuleSpec,
    PolynomialEComm,
    PolynomialExec,
    SimulationError,
    Task,
    TaskChain,
    evaluate_mapping,
    optimal_mapping,
)
from repro.sim import NoiseModel, simulate
from tests.conftest import make_random_chain, make_three_task_chain


class TestAgainstAnalyticModel:
    @pytest.mark.parametrize("seed", range(6))
    def test_noiseless_throughput_matches_prediction(self, seed):
        chain = make_random_chain(3, seed=seed)
        res = optimal_mapping(chain, 12)
        sim = simulate(chain, res.mapping, n_datasets=300)
        assert sim.throughput == pytest.approx(res.throughput, rel=1e-6)

    def test_replicated_pipeline_matches(self):
        chain = make_random_chain(3, seed=2, replicable_prob=1.0)
        mapping = Mapping([ModuleSpec(0, 0, 2, 3), ModuleSpec(1, 2, 5, 2)])
        perf = evaluate_mapping(chain, mapping)
        sim = simulate(chain, mapping, n_datasets=600)
        assert sim.throughput == pytest.approx(perf.throughput, rel=1e-6)

    def test_latency_at_least_sum_of_stages(self):
        chain = make_three_task_chain()
        res = optimal_mapping(chain, 12)
        perf = evaluate_mapping(chain, res.mapping)
        sim = simulate(chain, res.mapping, n_datasets=200)
        # Pipelined latency includes queueing, so it can only exceed the
        # unloaded end-to-end time.
        assert sim.mean_latency >= perf.latency * (1 - 1e-9)

    def test_single_task_single_proc(self):
        chain = TaskChain([Task("only", PolynomialExec(0.5, 0.0, 0.0))])
        mapping = Mapping([ModuleSpec(0, 0, 1)])
        sim = simulate(chain, mapping, n_datasets=50)
        assert sim.throughput == pytest.approx(2.0, rel=1e-9)
        assert sim.mean_latency == pytest.approx(0.5, rel=1e-9)


class TestNoise:
    def test_noise_is_reproducible(self):
        chain = make_three_task_chain()
        res = optimal_mapping(chain, 12)
        noise_a = NoiseModel(seed=7, jitter=0.05)
        noise_b = NoiseModel(seed=7, jitter=0.05)
        a = simulate(chain, res.mapping, n_datasets=100, noise=noise_a)
        b = simulate(chain, res.mapping, n_datasets=100, noise=noise_b)
        assert a.throughput == b.throughput
        np.testing.assert_array_equal(a.completions, b.completions)

    def test_different_seeds_differ(self):
        chain = make_three_task_chain()
        res = optimal_mapping(chain, 12)
        a = simulate(chain, res.mapping, 100, noise=NoiseModel(seed=1, jitter=0.05))
        b = simulate(chain, res.mapping, 100, noise=NoiseModel(seed=2, jitter=0.05))
        assert a.throughput != b.throughput

    def test_small_noise_small_deviation(self):
        chain = make_three_task_chain()
        res = optimal_mapping(chain, 12)
        noisy = simulate(
            chain, res.mapping, 400,
            noise=NoiseModel(seed=3, jitter=0.03, comm_interference=0.02),
        )
        assert noisy.throughput == pytest.approx(res.throughput, rel=0.15)

    def test_interference_slows_concurrent_transfers(self):
        """A chain whose modules communicate concurrently must slow down
        when interference is enabled, even with zero jitter."""
        # Two replicated modules: the two instance streams run in lockstep,
        # so their transfers overlap in time.
        tasks = [Task(f"t{i}", PolynomialExec(0.0, 1.0, 0.0)) for i in range(2)]
        edges = [Edge(ecom=PolynomialEComm(0.5, 0.0, 0.0, 0.0, 0.0))]
        chain = TaskChain(tasks, edges)
        mapping = Mapping([ModuleSpec(0, 0, 2, 2), ModuleSpec(1, 1, 2, 2)])
        clean = simulate(chain, mapping, 200)
        dirty = simulate(
            chain, mapping, 200,
            noise=NoiseModel(seed=0, jitter=0.0, comm_interference=0.2),
        )
        assert dirty.throughput < clean.throughput

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(jitter=-0.1)


class TestMeasurement:
    def test_all_datasets_complete_in_order_per_instance(self):
        chain = make_random_chain(3, seed=4, replicable_prob=1.0)
        mapping = Mapping([ModuleSpec(0, 2, 3, 4)])
        sim = simulate(chain, mapping, n_datasets=40)
        comp = sim.completions
        for c in range(4):  # each instance completes its own stream in order
            mine = comp[c::4]
            assert np.all(np.diff(mine) > 0)

    def test_rejects_tiny_runs(self):
        chain = make_three_task_chain()
        mapping = Mapping([ModuleSpec(0, 2, 4)])
        with pytest.raises(SimulationError):
            simulate(chain, mapping, n_datasets=1)

    def test_validates_mapping(self):
        from repro.core import InvalidMappingError

        chain = make_three_task_chain()
        bad = Mapping([ModuleSpec(0, 1, 2)])  # covers 2 of 3 tasks
        with pytest.raises(InvalidMappingError):
            simulate(chain, bad, n_datasets=10)

    def test_event_count_scales_with_work(self):
        chain = make_three_task_chain()
        mapping = Mapping([ModuleSpec(0, 2, 4)])
        small = simulate(chain, mapping, n_datasets=10)
        big = simulate(chain, mapping, n_datasets=40)
        assert big.events_processed > small.events_processed


class TestBusyAccounting:
    def test_busy_dict_gains_keys_in_first_busy_order(self):
        """Instances keep their busy seconds locally and write them back
        after the run.  The busy dict must still gain its keys in the order
        the instances first became busy (the order their first trace
        records appear), after any key an earlier segment left: the
        controller sums replica busy times in dict order.  A slow source
        feeding a fast 3-replica module makes the sink busy before the
        middle module's second replica, so first-busy order is not
        instance order."""
        from repro.sim.modulegraph import chain_graph
        from repro.sim.pipeline import _Run
        from repro.sim.trace import TraceLog

        tasks = [Task("src", PolynomialExec(1.0, 0.0, 0.0)),
                 Task("mid", PolynomialExec(0.1, 0.0, 0.0)),
                 Task("snk", PolynomialExec(0.5, 0.0, 0.0))]
        edges = [Edge(ecom=PolynomialEComm(0.01, 0.0, 0.0, 0.0, 0.0))
                 for _ in range(2)]
        mapping = Mapping([ModuleSpec(0, 0, 1, 1), ModuleSpec(1, 1, 1, 3),
                           ModuleSpec(2, 2, 1, 1)])
        graph = chain_graph(TaskChain(tasks, edges, name="fan"), mapping)
        n, trace = 30, TraceLog()
        busy = {(1, 2): 1.0}  # left by an earlier segment
        run = _Run(graph, range(n), NoiseModel(seed=3, jitter=0.03,
                                               comm_interference=0.02),
                   trace, completions=np.full(n, np.nan),
                   injections=np.full(n, np.nan), busy_time=busy)
        run.execute()
        first_busy = list(dict.fromkeys((e.module, e.instance) for e in trace))
        assert first_busy != sorted(first_busy)
        assert list(busy) == [(1, 2)] + [k for k in first_busy if k != (1, 2)]
        assert busy[(1, 2)] > 1.0


class TestFreeze:
    def test_fatal_failure_between_phases_freezes_after_the_event(self):
        """A failure that kills an unreplicated instance between two of its
        phases freezes the run right after the failure event: the clock
        stays at the failure, and the pending events (the victim's own
        phase completion among them) stay queued, in insertion order."""
        from repro.sim import FaultModel, ProcessorFailure
        from repro.sim.modulegraph import chain_graph
        from repro.sim.pipeline import _Run
        from repro.sim.trace import TraceLog

        mapping = Mapping([ModuleSpec(0, 0, 2, 2), ModuleSpec(1, 2, 4, 1)])
        graph = chain_graph(make_three_task_chain(), mapping)
        n, trace = 40, TraceLog()
        faults = FaultModel(seed=1, failures=[
            ProcessorFailure(70.0, module=1, instance=0)])
        run = _Run(graph, range(n), NoiseModel(seed=5, jitter=0.03,
                                               comm_interference=0.02),
                   trace, completions=np.full(n, np.nan),
                   injections=np.full(n, np.nan), faults=faults)
        run.execute()
        *_, phase, fail = list(trace)
        # The victim was inside its first phase of data set 6 (of two).
        assert (phase.module, phase.instance, phase.label) == (1, 0, "b")
        assert phase.start < 70.0 < phase.end
        assert (fail.kind, fail.start) == ("fail", 70.0)
        assert run.remap_needed == (70.0, 1, 0)
        assert run.now == 70.0
        assert run.events_processed == 28
        assert sorted((t, seq) for t, seq, _ in run._heap) == [
            (70.08363625570148, 28), (phase.end, 29)]
        assert run.left == 34
