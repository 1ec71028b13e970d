"""Tests for the extension workloads (airshed, SAR)."""

import pytest

from repro.core import check_no_superlinear, data_parallel, optimal_mapping
from repro.machine import iwarp64_message, paragon128
from repro.workloads import airshed, by_name, sar


class TestAirshed:
    @pytest.fixture(scope="class")
    def wl(self):
        return airshed(paragon128())

    def test_structure(self, wl):
        names = [t.name for t in wl.chain]
        assert names == ["emissions", "transport", "chemistry", "deposit"]

    def test_deposit_carries_state(self, wl):
        assert not wl.chain.tasks[-1].replicable

    def test_transport_chemistry_share_layout(self, wl):
        assert wl.chain.edges[1].icom(8) == 0.0

    def test_no_superlinear(self, wl):
        for t in wl.chain:
            assert check_no_superlinear(t.exec_cost, 64), t.name

    def test_optimal_separates_stateful_stage(self, wl):
        mach = wl.machine
        res = optimal_mapping(
            wl.chain, mach.total_procs, mach.mem_per_proc_mb,
        )
        last = res.mapping.modules[-1]
        assert (last.start, last.stop) == (3, 3)   # deposit alone
        dpb = data_parallel(wl.chain, mach.total_procs, mach.mem_per_proc_mb)
        assert res.throughput > dpb.throughput

    def test_validation(self):
        with pytest.raises(ValueError):
            airshed(paragon128(), cells=10)


class TestSar:
    @pytest.fixture(scope="class")
    def wl(self):
        return sar(iwarp64_message(), pulses=256, range_bins=256)

    def test_structure(self, wl):
        assert [t.name for t in wl.chain] == [
            "range_compress", "azimuth_focus", "detect",
        ]
        assert all(t.replicable for t in wl.chain)

    def test_corner_turn_symmetric(self, wl):
        """The transpose costs roughly the same in place or across groups
        (the same property that drives FFT-Hist's clustering)."""
        icom = wl.chain.edges[0].icom(8)
        ecom = wl.chain.edges[0].ecom(4, 4)
        assert 0.3 < icom / ecom < 3.0

    def test_compute_dominated_optimal_clusters_coarsely(self, wl):
        mach = wl.machine
        res = optimal_mapping(
            wl.chain, mach.total_procs, mach.mem_per_proc_mb,
        )
        # Heavier compute:comm than FFT-Hist -> at most two modules.
        assert len(res.mapping) <= 2
        dpb = data_parallel(wl.chain, mach.total_procs, mach.mem_per_proc_mb)
        assert res.throughput >= dpb.throughput

    def test_validation(self):
        with pytest.raises(ValueError):
            sar(iwarp64_message(), pulses=2)


class TestLookup:
    def test_new_names_resolve(self):
        mach = paragon128()
        assert len(by_name("airshed", mach).chain) == 4
        assert len(by_name("sar", mach).chain) == 3
