"""Tests for the paper workloads: structure, physics, and the calibrated
regimes the reproduction depends on."""

import pytest

from repro.core import check_no_superlinear, data_parallel, optimal_mapping
from repro.machine import iwarp64_message, iwarp64_systolic
from repro.workloads import (
    bottleneck_chain,
    by_name,
    fft_hist,
    radar,
    random_chain,
    stereo,
    uniform_chain,
)


class TestFFTHistStructure:
    def test_three_tasks(self):
        wl = fft_hist(256, iwarp64_message())
        assert [t.name for t in wl.chain] == ["colffts", "rowffts", "hist"]

    def test_handoff_edge_is_free_internally(self):
        """rowffts -> hist share a distribution (§6.3)."""
        wl = fft_hist(256, iwarp64_message())
        assert wl.chain.edges[1].icom(8) == 0.0
        assert wl.chain.edges[1].ecom(8, 8) > 0.0

    def test_transpose_comparable_inside_and_outside(self):
        """The transpose costs about the same mapped together or apart."""
        wl = fft_hist(256, iwarp64_message())
        icom = wl.chain.edges[0].icom(8)
        ecom = wl.chain.edges[0].ecom(4, 4)
        assert 0.3 < icom / ecom < 3.0

    def test_memory_scales_with_problem_size(self):
        small = fft_hist(256, iwarp64_message())
        big = fft_hist(512, iwarp64_message())
        for t_s, t_b in zip(small.chain, big.chain):
            assert t_b.mem_parallel_mb > 2 * t_s.mem_parallel_mb

    def test_no_superlinear_speedup(self):
        """The §3.2 assumption must hold for every task cost."""
        for n in (256, 512):
            wl = fft_hist(n, iwarp64_message())
            for t in wl.chain:
                assert check_no_superlinear(t.exec_cost, 64), t.name

    def test_rejects_tiny_arrays(self):
        with pytest.raises(ValueError):
            fft_hist(2, iwarp64_message())


class TestFFTHistRegime:
    """The calibrated regime of Table 1: these lock the reproduction."""

    @pytest.mark.parametrize("mach_builder", [iwarp64_message, iwarp64_systolic])
    def test_256_clusters_like_the_paper(self, mach_builder):
        mach = mach_builder()
        wl = fft_hist(256, mach)
        res = optimal_mapping(wl.chain, 64, mach.mem_per_proc_mb)
        assert res.clustering == ((0, 0), (1, 2))
        # Small instances, heavy replication (paper: p=3-4, r=6-11).
        for spec in res.mapping.modules:
            assert spec.procs <= 6
            assert spec.replicas >= 5

    @pytest.mark.parametrize("mach_builder", [iwarp64_message, iwarp64_systolic])
    def test_512_clusters_like_the_paper(self, mach_builder):
        mach = mach_builder()
        wl = fft_hist(512, mach)
        res = optimal_mapping(wl.chain, 64, mach.mem_per_proc_mb)
        assert res.clustering == ((0, 0), (1, 2))
        # Large instances, little replication (paper: p=12-20, r=1-3).
        for spec in res.mapping.modules:
            assert spec.procs >= 12
            assert spec.replicas <= 3

    def test_throughput_magnitudes_match_paper(self):
        mach = iwarp64_message()
        tp256 = optimal_mapping(
            fft_hist(256, mach).chain, 64, mach.mem_per_proc_mb,
        ).throughput
        tp512 = optimal_mapping(
            fft_hist(512, mach).chain, 64, mach.mem_per_proc_mb,
        ).throughput
        assert tp256 == pytest.approx(14.60, rel=0.15)   # paper: 14.60
        assert tp512 == pytest.approx(3.14, rel=0.15)    # paper: 3.14

    def test_optimal_beats_data_parallel_in_paper_band(self):
        """Table 2: 'optimal mapping outperforms the pure data parallel
        mapping by a factor of 2 to 9'."""
        for n in (256, 512):
            mach = iwarp64_message()
            wl = fft_hist(n, mach)
            opt = optimal_mapping(wl.chain, 64, mach.mem_per_proc_mb).throughput
            dp = data_parallel(wl.chain, 64, mach.mem_per_proc_mb).throughput
            assert 1.9 <= opt / dp <= 9.5


class TestRadar:
    def test_tracker_not_replicable(self):
        wl = radar(iwarp64_systolic())
        assert not wl.chain.tasks[-1].replicable
        assert all(t.replicable for t in wl.chain.tasks[:-1])

    def test_throughput_magnitude(self):
        mach = iwarp64_systolic()
        wl = radar(mach)
        res = optimal_mapping(wl.chain, 64, mach.mem_per_proc_mb)
        assert res.throughput == pytest.approx(81.21, rel=0.15)  # paper

    def test_ratio_in_band(self):
        mach = iwarp64_systolic()
        wl = radar(mach)
        opt = optimal_mapping(wl.chain, 64, mach.mem_per_proc_mb).throughput
        dp = data_parallel(wl.chain, 64, mach.mem_per_proc_mb).throughput
        assert 2.0 <= opt / dp <= 9.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            radar(iwarp64_systolic(), range_gates=4)


class TestStereo:
    def test_all_replicable(self):
        wl = stereo(iwarp64_systolic())
        assert all(t.replicable for t in wl.chain)

    def test_matching_distribution_edges_free(self):
        wl = stereo(iwarp64_systolic())
        assert wl.chain.edges[1].icom(8) == 0.0
        assert wl.chain.edges[2].icom(8) == 0.0

    def test_throughput_magnitude(self):
        mach = iwarp64_systolic()
        wl = stereo(mach)
        res = optimal_mapping(wl.chain, 64, mach.mem_per_proc_mb)
        assert res.throughput == pytest.approx(43.12, rel=0.15)  # paper

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            stereo(iwarp64_systolic(), width=4)


class TestSynthetic:
    def test_random_chain_deterministic(self):
        a = random_chain(4, seed=5)
        b = random_chain(4, seed=5)
        for t1, t2 in zip(a, b):
            assert t1.exec_cost(4) == t2.exec_cost(4)

    def test_uniform_chain_identical_tasks(self):
        chain = uniform_chain(3)
        assert chain[0].exec_cost(4) == chain[2].exec_cost(4)

    def test_bottleneck_chain_has_heavy_task(self):
        chain = bottleneck_chain(4, heavy_index=2, factor=8.0)
        assert chain[2].exec_cost(1) > 5 * chain[0].exec_cost(1)
        with pytest.raises(ValueError):
            bottleneck_chain(3, heavy_index=5)

    def test_random_chain_validation(self):
        with pytest.raises(ValueError):
            random_chain(0)


class TestLookup:
    def test_by_name(self):
        mach = iwarp64_message()
        assert len(by_name("fft-hist-256", mach).chain) == 3
        assert len(by_name("radar", mach).chain) == 4
        with pytest.raises(KeyError):
            by_name("weather-sim", mach)
