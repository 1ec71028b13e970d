"""Tests for the baseline mappings (Figure 1 styles, Choudhary et al.)."""

import pytest

from repro.core import (
    Edge,
    InfeasibleError,
    PolynomialEComm,
    PolynomialExec,
    Task,
    TaskChain,
    build_module_chain,
    comm_blind_assignment,
    data_parallel,
    even_task_parallel,
    optimal_assignment,
    optimal_mapping,
    replicated_data_parallel,
    singleton_clustering,
)
from tests.conftest import make_random_chain


class TestDataParallel:
    def test_single_module_no_replication(self):
        chain = make_random_chain(3, seed=1)
        perf = data_parallel(chain, 16)
        assert len(perf.mapping) == 1
        assert perf.mapping[0].replicas == 1
        assert perf.mapping[0].procs == 16

    def test_optimal_dominates_data_parallel(self):
        for seed in range(8):
            chain = make_random_chain(3, seed=seed)
            dp_perf = data_parallel(chain, 16)
            opt = optimal_mapping(chain, 16)
            assert opt.throughput >= dp_perf.throughput * (1 - 1e-12)

    def test_memory_infeasibility(self):
        chain = TaskChain([Task("a", PolynomialExec(0.0, 1.0, 0.0), mem_parallel_mb=64.0)])
        with pytest.raises(InfeasibleError):
            data_parallel(chain, 4, mem_per_proc_mb=1.0)


class TestReplicatedDataParallel:
    def test_replicates_when_memory_allows(self):
        chain = make_random_chain(2, seed=3, replicable_prob=1.0)
        perf = replicated_data_parallel(chain, 16)
        assert perf.mapping[0].replicas > 1

    def test_respects_non_replicable_task(self):
        tasks = [
            Task("a", PolynomialExec(0.0, 4.0, 0.0)),
            Task("b", PolynomialExec(0.0, 4.0, 0.0), replicable=False),
        ]
        chain = TaskChain(tasks)
        perf = replicated_data_parallel(chain, 16)
        assert perf.mapping[0].replicas == 1


class TestEvenTaskParallel:
    def test_splits_evenly(self):
        chain = make_random_chain(4, seed=4)
        perf = even_task_parallel(chain, 16)
        assert len(perf.mapping) == 4
        procs = [m.procs for m in perf.mapping]
        assert sum(procs) == 16
        assert max(procs) - min(procs) <= 1

    def test_minimums_respected(self):
        tasks = [
            Task("a", PolynomialExec(0.0, 1.0, 0.0), min_procs=5),
            Task("b", PolynomialExec(0.0, 1.0, 0.0)),
        ]
        chain = TaskChain(tasks)
        perf = even_task_parallel(chain, 8)
        assert perf.mapping[0].procs >= 5
        with pytest.raises(InfeasibleError):
            even_task_parallel(chain, 5)


class TestCommBlind:
    def test_never_beats_comm_aware_dp(self):
        for seed in range(8):
            chain = make_random_chain(3, seed=seed, comm_scale=5.0)
            mc = build_module_chain(chain, singleton_clustering(3))
            blind = comm_blind_assignment(mc, 12)
            aware = optimal_assignment(mc, 12)
            assert blind.throughput <= aware.throughput * (1 + 1e-9)

    def test_loses_when_communication_matters(self):
        """With communication that punishes wide receivers, ignoring comm
        costs must leave measurable throughput on the table."""
        # Communication overhead grows with the *sender* width, so piling
        # processors onto the big task (the comm-blind move) backfires.
        tasks = [
            Task("big", PolynomialExec(0.0, 40.0, 0.0), replicable=False),
            Task("small", PolynomialExec(0.0, 1.0, 0.0), replicable=False),
        ]
        edges = [Edge(ecom=PolynomialEComm(0.1, 0.0, 0.0, 0.5, 0.0))]
        chain = TaskChain(tasks, edges)
        mc = build_module_chain(chain, singleton_clustering(2))
        blind = comm_blind_assignment(mc, 16)
        aware = optimal_assignment(mc, 16)
        assert blind.totals[0] > aware.totals[0]
        assert aware.throughput > blind.throughput * 1.05

    def test_matches_dp_when_comm_free(self):
        """Choudhary et al.'s setting: zero communication cost.  The
        comm-blind allocator is then optimal (§3.1)."""
        for seed in range(6):
            import numpy as np

            rng = np.random.default_rng(seed)
            tasks = [
                Task(f"t{i}", PolynomialExec(0.0, float(rng.uniform(4, 30)), 0.0),
                     replicable=False)
                for i in range(3)
            ]
            chain = TaskChain(tasks)  # default edges: zero comm both ways
            mc = build_module_chain(chain, singleton_clustering(3))
            blind = comm_blind_assignment(mc, 12)
            aware = optimal_assignment(mc, 12)
            assert blind.throughput == pytest.approx(aware.throughput, rel=1e-9)
