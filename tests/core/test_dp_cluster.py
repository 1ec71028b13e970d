"""Tests for the full mapping problem: clustering + replication + allocation
(paper §3.3, Lemma 2).

Both solvers (exhaustive clustering enumeration and the polynomial-time
bisection DP) must agree with the brute-force oracle.
"""

import pytest

from repro.core import (
    Edge,
    InfeasibleError,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    Task,
    TaskChain,
    brute_force_mapping,
    optimal_mapping,
)
from repro.core.dp_cluster import bisect_mapping
from tests.conftest import make_random_chain


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    def test_exhaustive_matches_oracle(self, seed):
        chain = make_random_chain(3, seed=seed)
        res = optimal_mapping(chain, 10)
        bf = brute_force_mapping(chain, 10)
        assert res.throughput == pytest.approx(bf.throughput)

    @pytest.mark.parametrize("seed", range(10))
    def test_bisect_matches_oracle(self, seed):
        chain = make_random_chain(3, seed=seed)
        res = bisect_mapping(chain, 10)
        bf = brute_force_mapping(chain, 10)
        assert res.throughput == pytest.approx(bf.throughput, rel=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_solvers_agree_with_memory(self, seed):
        chain = make_random_chain(4, seed=50 + seed, with_memory=True)
        exh = optimal_mapping(chain, 12, mem_per_proc_mb=1.5)
        bis = bisect_mapping(chain, 12, mem_per_proc_mb=1.5)
        assert bis.throughput == pytest.approx(exh.throughput, rel=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_solvers_agree_no_replication(self, seed):
        chain = make_random_chain(4, seed=80 + seed)
        exh = optimal_mapping(chain, 9, replication=False)
        bis = bisect_mapping(chain, 9, replication=False)
        assert bis.throughput == pytest.approx(exh.throughput, rel=1e-6)


class TestClusteringDecisions:
    def test_free_internal_comm_encourages_merging(self):
        """When redistribution is free but external transfer is expensive,
        the whole chain should fuse into one module."""
        tasks = [Task(f"t{i}", PolynomialExec(0.0, 8.0, 0.0), replicable=False) for i in range(3)]
        edges = [
            Edge(icom=PolynomialIComm(0.0, 0.0, 0.0),
                 ecom=PolynomialEComm(50.0, 0.0, 0.0, 0.0, 0.0))
            for _ in range(2)
        ]
        chain = TaskChain(tasks, edges)
        res = optimal_mapping(chain, 8)
        assert res.clustering == ((0, 2),)

    def test_costly_internal_comm_encourages_splitting(self):
        """When the same-processor redistribution is expensive but the
        cross-module transfer is cheap, tasks should stay separate."""
        tasks = [Task(f"t{i}", PolynomialExec(0.0, 8.0, 0.0), replicable=False) for i in range(2)]
        edges = [
            Edge(icom=PolynomialIComm(50.0, 0.0, 0.0),
                 ecom=PolynomialEComm(0.01, 0.0, 0.0, 0.0, 0.0))
        ]
        chain = TaskChain(tasks, edges)
        res = optimal_mapping(chain, 8)
        assert res.clustering == ((0, 0), (1, 1))

    def test_memory_can_force_splitting(self):
        """Merging doubles the footprint and hence p_min; with heavy
        internal communication at large p the merged module is slow, so the
        optimiser keeps the tasks apart despite a transfer cost."""
        tasks = [
            Task("a", PolynomialExec(0.0, 4.0, 0.0), mem_parallel_mb=4.0, replicable=False),
            Task("b", PolynomialExec(0.0, 4.0, 0.5), mem_parallel_mb=4.0, replicable=False),
        ]
        edges = [Edge(icom=PolynomialIComm(0.1, 0.0, 0.4),
                      ecom=PolynomialEComm(0.2, 0.5, 0.5, 0.0, 0.0))]
        chain = TaskChain(tasks, edges)
        res = optimal_mapping(chain, 12, mem_per_proc_mb=1.0)
        bf = brute_force_mapping(chain, 12, mem_per_proc_mb=1.0)
        assert res.throughput == pytest.approx(bf.throughput)
        assert res.clustering == ((0, 0), (1, 1))

    def test_merged_clustering_can_rescue_memory_infeasibility(self):
        """Per-task minimums may exceed P while the merged module fits."""
        tasks = [
            Task(f"t{i}", PolynomialExec(0.0, 2.0, 0.0), mem_parallel_mb=3.0)
            for i in range(3)
        ]
        chain = TaskChain(tasks)
        # Singleton: each needs ceil(3/1) = 3 procs -> 9 total > 8.
        # Merged: 9 MB / 1 MB = 9 > 8 either... use mem 2: each needs 2 (6 total),
        # merged needs ceil(9/2) = 5.
        res = optimal_mapping(chain, 5, mem_per_proc_mb=2.0)
        assert res.clustering == ((0, 2),)

    def test_infeasible_chain_raises(self):
        tasks = [Task("a", PolynomialExec(0.0, 1.0, 0.0), mem_parallel_mb=100.0)]
        chain = TaskChain(tasks)
        with pytest.raises(InfeasibleError):
            optimal_mapping(chain, 4, mem_per_proc_mb=1.0)
        with pytest.raises(InfeasibleError):
            bisect_mapping(chain, 4, mem_per_proc_mb=1.0)


class TestMethodDispatch:
    def test_auto_uses_exhaustive_for_small_k(self):
        """Exhaustive search is chosen for every chain of up to 12 tasks."""
        for k in (3, 12):
            res = optimal_mapping(make_random_chain(k, seed=5), 8)
            assert res.method == "exhaustive"

    def test_single_task_chain(self):
        chain = TaskChain([Task("solo", PolynomialExec(0.5, 6.0, 0.0))])
        exh = optimal_mapping(chain, 6)
        bis = bisect_mapping(chain, 6)
        assert exh.throughput == pytest.approx(bis.throughput, rel=1e-6)
        assert exh.clustering == ((0, 0),)


class TestResultShape:
    def test_mapping_consistent_with_totals(self):
        chain = make_random_chain(4, seed=11)
        res = optimal_mapping(chain, 12)
        assert len(res.totals) == len(res.clustering)
        assert sum(res.totals) <= 12
        for spec, total in zip(res.mapping.modules, res.totals):
            assert spec.procs * spec.replicas <= total
