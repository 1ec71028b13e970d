"""Scale/stress tests: the solvers at sizes beyond the paper's 64
processors and 4 tasks, and the polynomial clustering solver on chains
where exhaustive enumeration starts to hurt."""

import time

import pytest

from repro.core import (
    build_module_chain,
    greedy_assignment,
    optimal_assignment,
    optimal_mapping,
    singleton_clustering,
)
from repro.core.dp_cluster import bisect_mapping
from tests.conftest import make_random_chain

pytestmark = pytest.mark.slow


class TestLargeMachines:
    def test_dp_at_96_processors(self):
        chain = make_random_chain(3, seed=1)
        mc = build_module_chain(chain, singleton_clustering(3))
        t0 = time.perf_counter()
        res = optimal_assignment(mc, 96)
        elapsed = time.perf_counter() - t0
        assert res.throughput > 0
        assert sum(res.totals) <= 96
        assert elapsed < 30.0   # numpy-vectorised O(P^4 k) stays practical

    def test_greedy_at_256_processors(self):
        chain = make_random_chain(4, seed=2)
        mc = build_module_chain(chain, singleton_clustering(4))
        res = greedy_assignment(mc, 256)
        assert sum(res.totals) <= 256
        assert res.throughput > 0

    def test_dp_greedy_agree_at_scale(self):
        chain = make_random_chain(3, seed=3)
        mc = build_module_chain(chain, singleton_clustering(3))
        dp = optimal_assignment(mc, 80)
        gr = greedy_assignment(mc, 80, backtracking=True)
        assert gr.throughput >= dp.throughput * 0.95


class TestLongChains:
    @pytest.mark.parametrize("k", [6, 8])
    def test_bisect_agrees_with_exhaustive(self, k):
        chain = make_random_chain(k, seed=10 + k)
        exh = optimal_mapping(chain, 12)
        bis = bisect_mapping(chain, 12)
        assert bis.throughput == pytest.approx(exh.throughput, rel=1e-6)

    def test_auto_switches_to_bisect_for_long_chains(self):
        chain = make_random_chain(13, seed=99)
        res = optimal_mapping(chain, 8)
        assert res.method == "bisect"
        assert res.throughput > 0

    def test_greedy_heuristic_on_long_chain(self):
        from repro.core import heuristic_mapping

        chain = make_random_chain(10, seed=5)
        res = heuristic_mapping(chain, 20)
        assert res.throughput > 0
        assert res.mapping.ntasks == 10


class TestLargeGrids:
    def test_packing_on_16x8(self):
        from repro.machine import pack_rectangles

        res = pack_rectangles([8] * 12 + [4] * 8, 8, 16)
        assert res.feasible
        seen = set()
        for r in res.rects:
            for cell in r.cells():
                assert cell not in seen
                seen.add(cell)

    def test_feasibility_on_paragon(self):
        from repro.machine import optimal_feasible_mapping, paragon128
        from repro.workloads import fft_hist

        mach = paragon128()
        wl = fft_hist(256, mach)
        feas = optimal_feasible_mapping(wl.chain, mach)
        assert feas.throughput > 0
        assert feas.mapping.total_procs <= mach.total_procs
