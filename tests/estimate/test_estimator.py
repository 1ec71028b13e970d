"""Tests for end-to-end estimation: profile -> fit -> predict (§5, §6.3)."""

import numpy as np
import pytest

from repro.core import (
    Mapping,
    ModuleSpec,
    evaluate_mapping,
    optimal_mapping,
)
from repro.estimate import estimate_chain, profile_chain, training_mappings, validate_model
from repro.sim import NoiseModel, simulate
from tests.conftest import make_random_chain


class TestProfiler:
    def test_collects_all_tasks_and_edges(self):
        chain = make_random_chain(3, seed=5)
        mappings = training_mappings(chain, 16)
        data = profile_chain(chain, mappings, n_datasets=20)
        assert set(data.exec_samples) == {0, 1, 2}
        assert set(data.ecom_samples) == {0, 1}
        assert set(data.icom_samples) <= {0, 1}
        # Every training run contributed (one memory sample per run).
        assert len(data.memory_samples[0]) == len(mappings)

    def test_samples_equal_the_traced_path_bit_for_bit(self):
        """The profiler records durations without building a trace; its
        samples must equal grouping a recorded trace by (kind, label) and
        taking ``np.mean`` of each group in trace order."""
        chain = make_random_chain(4, seed=7, replicable_prob=1.0)
        mappings = training_mappings(chain, 16) + [
            # A replicated module with an internal redistribution.
            Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 3, 3, 3)]),
        ]

        def noise():
            return NoiseModel(seed=9, jitter=0.03, comm_interference=0.02)

        data = profile_chain(chain, mappings, n_datasets=60, noise=noise())

        traced_noise = noise()
        want = {"exec": {}, "icom": {}, "ecom": {}}
        for mapping in mappings:
            trace = simulate(chain, mapping, n_datasets=60, noise=traced_noise,
                             collect_trace=True).trace
            groups = {}
            for ev in trace:
                groups.setdefault((ev.kind, ev.label), []).append(ev.duration)

            def mean(kind, label):
                return float(np.mean(groups[kind, label]))

            for m in mapping.modules:
                for t in range(m.start, m.stop + 1):
                    want["exec"].setdefault(t, []).append(
                        (m.procs, mean("task", chain.tasks[t].name)))
                for e in range(m.start, m.stop):
                    label = f"{chain.tasks[e].name}->{chain.tasks[e + 1].name}"
                    if ("icom", label) in groups:
                        want["icom"].setdefault(e, []).append(
                            (m.procs, mean("icom", label)))
            for a, b in zip(mapping.modules, mapping.modules[1:]):
                label = f"{chain.tasks[a.stop].name}->{chain.tasks[b.start].name}"
                want["ecom"].setdefault(a.stop, []).append(
                    (a.procs, b.procs, mean("recv", label)))

        assert want["icom"] and any(m.replicas > 1 for m in mappings[-1].modules)
        assert data.exec_samples == want["exec"]
        assert data.icom_samples == want["icom"]
        assert data.ecom_samples == want["ecom"]

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
