"""Tests for end-to-end estimation: profile -> fit -> predict (§5, §6.3)."""

import pytest

from repro.core import (
    Mapping,
    ModuleSpec,
    evaluate_mapping,
    optimal_mapping,
)
from repro.estimate import estimate_chain, profile_chain, training_mappings, validate_model
from repro.sim import NoiseModel
from tests.conftest import make_random_chain


class TestProfiler:
    def test_collects_all_tasks_and_edges(self):
        chain = make_random_chain(3, seed=5)
        mappings = training_mappings(chain, 16)
        data = profile_chain(chain, mappings, n_datasets=20)
        assert set(data.exec_samples) == {0, 1, 2}
        assert set(data.ecom_samples) == {0, 1}
        assert set(data.icom_samples) <= {0, 1}
        assert len(data.runs) == len(mappings)

    def test_noiseless_samples_match_models(self):
        chain = make_random_chain(2, seed=6)
        mapping = Mapping([ModuleSpec(0, 0, 3), ModuleSpec(1, 1, 5)])
        data = profile_chain(chain, [mapping], n_datasets=20)
        (p, t), = [s for s in data.exec_samples[0] if s[0] == 3]
        assert t == pytest.approx(chain.tasks[0].exec_cost(3), rel=1e-9)
        (ps, pr, tc), = data.ecom_samples[0]
        assert (ps, pr) == (3, 5)
        assert tc == pytest.approx(chain.edges[0].ecom(3, 5), rel=1e-9)


class TestEstimateChain:
    def test_recovers_polynomial_truth(self):
        """When the truth is in the fitted family and noise is off, the
        fitted chain must reproduce the true costs almost exactly."""
        chain = make_random_chain(3, seed=7, with_memory=True)
        est = estimate_chain(chain, 16, mem_per_proc_mb=2.0)
        for p in (1, 2, 5, 11):
            for t_true, t_fit in zip(chain.tasks, est.fitted_chain.tasks):
                assert t_fit.exec_cost(p) == pytest.approx(
                    t_true.exec_cost(p), rel=0.02, abs=1e-9
                )

    def test_memory_model_recovered(self):
        chain = make_random_chain(3, seed=8, with_memory=True)
        est = estimate_chain(chain, 16, mem_per_proc_mb=2.0)
        for t_true, t_fit in zip(chain.tasks, est.fitted_chain.tasks):
            assert t_fit.mem_parallel_mb == pytest.approx(
                t_true.mem_parallel_mb, rel=0.05, abs=0.01
            )

    def test_preserves_structure_flags(self):
        chain = make_random_chain(4, seed=9)
        est = estimate_chain(chain, 16)
        for t_true, t_fit in zip(chain.tasks, est.fitted_chain.tasks):
            assert t_fit.name == t_true.name
            assert t_fit.replicable == t_true.replicable

    def test_with_noise_errors_stay_small(self):
        chain = make_random_chain(3, seed=10)
        est = estimate_chain(
            chain, 16,
            noise=NoiseModel(seed=1, jitter=0.03, comm_interference=0.01),
        )
        assert est.worst_relative_error() < 0.15

    def test_mapping_on_fitted_chain_transfers_to_truth(self):
        """The §6.3 loop: map with the fitted model, measure on the 'real'
        system, and land within the paper's error band (~12%)."""
        chain = make_random_chain(3, seed=11, with_memory=True)
        noise = NoiseModel(seed=2, jitter=0.02, comm_interference=0.01)
        est = estimate_chain(chain, 16, mem_per_proc_mb=2.0, noise=noise)
        res = optimal_mapping(est.fitted_chain, 16, 2.0)
        rows = validate_model(
            chain, est.fitted_chain, [res.mapping],
            noise=NoiseModel(seed=3, jitter=0.02, comm_interference=0.01),
        )
        _, predicted, measured, rel = rows[0]
        assert abs(rel) < 0.12


class TestValidateModel:
    def test_perfect_model_zero_error(self):
        chain = make_random_chain(2, seed=12)
        mapping = Mapping([ModuleSpec(0, 0, 4), ModuleSpec(1, 1, 4)])
        rows = validate_model(chain, chain, [mapping])
        _, predicted, measured, rel = rows[0]
        assert rel == pytest.approx(0.0, abs=1e-6)
        assert predicted == pytest.approx(
            evaluate_mapping(chain, mapping).throughput
        )
