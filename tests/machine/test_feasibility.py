"""Tests for machine-constrained mappings (§6.1, Table 1 behaviour)."""

import pytest

from repro.core import Mapping, ModuleSpec, optimal_mapping
from repro.machine import (
    PRESETS,
    CommParams,
    MachineSpec,
    by_name,
    check_feasible,
    iwarp64_message,
    iwarp64_systolic,
    optimal_feasible_mapping,
)
from tests.conftest import make_random_chain


class TestMachineSpec:
    def test_presets_construct(self):
        for name in PRESETS:
            m = by_name(name)
            assert m.total_procs == m.rows * m.cols

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            by_name("cray-t3d")  # not modelled

    def test_validation(self):
        comm = CommParams(1e-4, 1e-2, 1e-5, 1.0)
        with pytest.raises(ValueError):
            MachineSpec("x", 0, 8, 1.0, comm)
        with pytest.raises(ValueError):
            MachineSpec("x", 8, 8, 0.0, comm)
        with pytest.raises(ValueError):
            MachineSpec("x", 8, 8, 1.0, comm, comm_kind="quantum")
        with pytest.raises(ValueError):
            CommParams(-1.0, 1e-2, 1e-5, 1.0)


class TestCheckFeasible:
    def test_paper_mapping_is_feasible(self):
        mapping = Mapping([ModuleSpec(0, 0, 3, 8), ModuleSpec(1, 2, 4, 10)])
        report = check_feasible(mapping, iwarp64_message())
        assert report.feasible
        assert report.placements is not None
        assert sum(len(r) for r in report.placements) == 18

    def test_prime_allocation_rejected(self):
        mapping = Mapping([ModuleSpec(0, 1, 13, 1), ModuleSpec(2, 2, 4, 1)])
        report = check_feasible(mapping, iwarp64_message())
        assert not report.feasible
        assert "13" in report.reason

    def test_oversubscription_rejected(self):
        mapping = Mapping([ModuleSpec(0, 2, 8, 9)])  # 72 > 64
        report = check_feasible(mapping, iwarp64_message())
        assert not report.feasible

    def test_non_rectangular_machine_accepts_anything_fitting(self):
        from repro.machine import sp2_16

        mapping = Mapping([ModuleSpec(0, 2, 13, 1)])  # prime is fine here
        assert check_feasible(mapping, sp2_16()).feasible

    def test_pathway_cap_enforced(self):
        mach = iwarp64_systolic()
        # 8 senders fanning into 1 receiver: heavy pathway concentration.
        mapping = Mapping([ModuleSpec(0, 0, 4, 8), ModuleSpec(1, 2, 32, 1)])
        report = check_feasible(mapping, mach)
        if not report.feasible:
            assert "pathway" in report.reason
        # At least verify the load was measured on a feasible variant.
        small = Mapping([ModuleSpec(0, 0, 8, 1), ModuleSpec(1, 2, 8, 1)])
        rep2 = check_feasible(small, mach)
        assert rep2.feasible


class TestOptimalFeasible:
    @pytest.mark.parametrize("seed", [0, 3, 6])
    def test_never_beats_unconstrained(self, seed):
        chain = make_random_chain(3, seed=seed, with_memory=True)
        mach = iwarp64_message()
        unconstrained = optimal_mapping(
            chain, mach.total_procs, mach.mem_per_proc_mb
        )
        feas = optimal_feasible_mapping(chain, mach)
        assert feas.throughput <= unconstrained.throughput * (1 + 1e-9)
        assert check_feasible(feas.mapping, mach).feasible

    def test_result_is_actually_feasible(self):
        chain = make_random_chain(4, seed=12, with_memory=True)
        mach = iwarp64_systolic()
        feas = optimal_feasible_mapping(chain, mach)
        report = check_feasible(feas.mapping, mach)
        assert report.feasible
