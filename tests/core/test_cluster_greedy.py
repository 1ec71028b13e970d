"""Tests for the §4.2 heuristic mapper (clustering search + greedy)."""

import pytest

from repro.core import (
    Edge,
    InfeasibleError,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    Task,
    TaskChain,
    heuristic_mapping,
    optimal_mapping,
)
from tests.conftest import make_random_chain


class TestHeuristicQuality:
    @pytest.mark.parametrize("seed", range(12))
    def test_close_to_optimal(self, seed):
        chain = make_random_chain(4, seed=seed)
        opt = optimal_mapping(chain, 12)
        heur = heuristic_mapping(chain, 12)
        assert heur.throughput <= opt.throughput * (1 + 1e-9)
        assert heur.throughput >= opt.throughput * 0.85

    def test_usually_reaches_optimum(self):
        """§6.3: 'the dynamic programming and the greedy algorithms reached
        the same optimal mapping' — require a clear majority here."""
        hits, n = 0, 15
        for seed in range(n):
            chain = make_random_chain(3, seed=500 + seed)
            opt = optimal_mapping(chain, 12)
            heur = heuristic_mapping(chain, 12)
            if heur.throughput == pytest.approx(opt.throughput, rel=1e-9):
                hits += 1
        assert hits >= int(0.7 * n)

    def test_merges_when_internal_comm_is_free(self):
        tasks = [Task(f"t{i}", PolynomialExec(0.0, 8.0, 0.0), replicable=False) for i in range(3)]
        edges = [
            Edge(icom=PolynomialIComm(0.0, 0.0, 0.0),
                 ecom=PolynomialEComm(50.0, 0.0, 0.0, 0.0, 0.0))
            for _ in range(2)
        ]
        chain = TaskChain(tasks, edges)
        heur = heuristic_mapping(chain, 8)
        assert heur.clustering == ((0, 2),)


class TestHeuristicMechanics:
    def test_falls_back_to_merged_when_singletons_do_not_fit(self):
        # Singleton minimums 3 * ceil(3/2) = 6 > 5 procs, merged needs 5.
        tasks = [
            Task(f"t{i}", PolynomialExec(0.0, 2.0, 0.0), mem_parallel_mb=3.0)
            for i in range(3)
        ]
        chain = TaskChain(tasks)
        heur = heuristic_mapping(chain, 5, mem_per_proc_mb=2.0)
        assert heur.clustering == ((0, 2),)

    def test_raises_when_nothing_fits(self):
        tasks = [Task("a", PolynomialExec(0.0, 1.0, 0.0), mem_parallel_mb=100.0)]
        chain = TaskChain(tasks)
        with pytest.raises(InfeasibleError):
            heuristic_mapping(chain, 4, mem_per_proc_mb=1.0)

    def test_reports_search_statistics(self):
        chain = make_random_chain(4, seed=2)
        heur = heuristic_mapping(chain, 12)
        assert heur.clusterings_examined >= 1
        assert heur.rounds >= 1

    def test_single_task(self):
        chain = TaskChain([Task("solo", PolynomialExec(0.1, 5.0, 0.0))])
        heur = heuristic_mapping(chain, 6)
        assert heur.clustering == ((0, 0),)
        assert heur.throughput > 0
