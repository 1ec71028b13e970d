"""Tests for diagnose: preflight, evaluation and smells in one PlanReport."""

import pytest

from repro.core import (
    Mapping,
    ModuleSpec,
    PlanReport,
    PolynomialExec,
    Severity,
    Task,
    TaskChain,
    diagnose,
)
from repro.machine import iwarp64_message
from repro.workloads import fft_hist
from tests.conftest import make_random_chain


def _codes(report, severity=None):
    return {
        v.code
        for v in report.violations
        if severity is None or v.severity is severity
    }


class TestStructuralErrors:
    def test_wrong_task_count(self):
        chain = make_random_chain(3, seed=0)
        d = diagnose(chain, Mapping([ModuleSpec(0, 1, 2)]))
        assert isinstance(d, PlanReport)
        assert not d.ok
        assert "structure" in _codes(d)
        assert d.throughput is None

    def test_illegal_replication(self):
        chain = TaskChain([
            Task("a", PolynomialExec(0.0, 1.0, 0.0), replicable=False),
        ])
        d = diagnose(chain, Mapping([ModuleSpec(0, 0, 2, replicas=3)]))
        assert not d.ok


class TestConstraintErrors:
    def test_budget(self):
        chain = make_random_chain(2, seed=1)
        mach = iwarp64_message()
        d = diagnose(chain, Mapping([ModuleSpec(0, 1, 65)]), machine=mach)
        assert "budget" in _codes(d, Severity.ERROR)

    def test_memory(self):
        chain = TaskChain([
            Task("a", PolynomialExec(0.0, 1.0, 0.0), mem_parallel_mb=4.0),
        ])
        d = diagnose(chain, Mapping([ModuleSpec(0, 0, 2)]), mem_per_proc_mb=1.0)
        assert "memory" in _codes(d, Severity.ERROR)

    def test_geometry(self):
        wl = fft_hist(256, iwarp64_message())
        bad = Mapping([ModuleSpec(0, 1, 13, 1), ModuleSpec(2, 2, 13, 1)])
        d = diagnose(wl.chain, bad, machine=wl.machine)
        assert "geometry" in _codes(d, Severity.ERROR)


class TestSmells:
    def test_idle_processors_flagged(self):
        chain = make_random_chain(2, seed=2)
        mach = iwarp64_message()
        d = diagnose(
            chain,
            Mapping([ModuleSpec(0, 0, 4), ModuleSpec(1, 1, 4)]),
            machine=mach,
        )
        assert d.ok
        assert "idle" in _codes(d, Severity.WARNING)

    def test_imbalance_flagged(self):
        chain = make_random_chain(3, seed=430, comm_scale=3.0)
        # Starve the heavy module deliberately.
        d = diagnose(chain, Mapping([
            ModuleSpec(0, 0, 1), ModuleSpec(1, 1, 1), ModuleSpec(2, 2, 10),
        ]))
        codes = _codes(d)
        assert "imbalance" in codes or "replication" in codes

    def test_missed_replication_flagged(self):
        chain = make_random_chain(2, seed=3, replicable_prob=1.0)
        d = diagnose(chain, Mapping([ModuleSpec(0, 1, 8, replicas=1)]))
        assert "replication" in _codes(d, Severity.INFO)

    def test_good_mapping_is_clean(self):
        from repro.core import optimal_mapping

        wl = fft_hist(256, iwarp64_message())
        best = optimal_mapping(
            wl.chain, 64, wl.machine.mem_per_proc_mb
        )
        d = diagnose(wl.chain, best.mapping, machine=wl.machine)
        assert d.ok
        assert "idle" not in _codes(d)
        assert d.throughput == pytest.approx(best.throughput)

    def test_render_contains_findings(self):
        chain = make_random_chain(2, seed=4)
        d = diagnose(chain, Mapping([ModuleSpec(0, 1, 2)]))
        assert "throughput" in d.render()
