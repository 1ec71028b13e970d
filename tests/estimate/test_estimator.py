"""Tests for end-to-end estimation: profile -> fit -> predict (§5, §6.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Edge,
    Mapping,
    ModuleSpec,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    Task,
    TaskChain,
    ZeroUnary,
    evaluate_mapping,
    optimal_mapping,
)
from repro.estimate import estimate_chain, profile_chain, training_mappings, validate_model
from repro.sim import NoiseModel, TraceLog
from repro.sim.pipeline import _Once, _run_segments
from tests.conftest import make_random_chain


def _traced_samples(chain, mappings, n_datasets, noise):
    """The profile samples of the traced path: run each mapping's stream
    with a recorded trace (one noise model across the runs, and no result
    summary, as the profiler does), group its events by ``(kind, label)``
    in trace order and take ``np.mean`` of each group.  Labels must be
    unique in ``chain``."""
    want = {"exec": {}, "icom": {}, "ecom": {}}
    for mapping in mappings:
        trace = _run_segments(chain, _Once(mapping, n_datasets), n_datasets,
                              noise, "event", trace=TraceLog()).trace
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
    return want


def _hex(samples):
    """Samples with every duration as ``float.hex``."""
    return {key: [(*sizes, t.hex()) for *sizes, t in group]
            for key, group in samples.items()}


@st.composite
def profiled_cases(draw):
    """A random chain (mixed replicability, some internal redistributions
    free, so they run no phase), the training set plus one replicated
    mapping, a stream length and jittered, interfering noise."""
    k = draw(st.integers(1, 5))
    base = make_random_chain(k, seed=draw(st.integers(0, 2**16)),
                             replicable_prob=draw(st.sampled_from([0.0, 0.5, 1.0])))
    edges = [Edge(icom=ZeroUnary(), ecom=e.ecom) if draw(st.booleans()) else e
             for e in base.edges]
    chain = TaskChain(base.tasks, edges, name=base.name)
    modules, start = [], 0
    for t in range(k):
        if t == k - 1 or draw(st.booleans()):
            replicable = all(task.replicable for task in chain.tasks[start:t + 1])
            modules.append(ModuleSpec(start, t, draw(st.integers(1, 3)),
                                      2 if replicable else 1))
            start = t + 1
    mappings = training_mappings(chain, 16) + [Mapping(modules)]
    n = draw(st.one_of(st.integers(2, 300), st.sampled_from([128, 129, 257])))
    return (chain, mappings, n, draw(st.integers(0, 2**16)),
            draw(st.floats(0.0, 0.05)), draw(st.floats(0.0, 0.05)))


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
        want = _traced_samples(chain, mappings, 60, noise())
        assert want["icom"] and any(m.replicas > 1 for m in mappings[-1].modules)
        assert data.exec_samples == want["exec"]
        assert data.icom_samples == want["icom"]
        assert data.ecom_samples == want["ecom"]

    @settings(max_examples=50, deadline=None)
    @given(case=profiled_cases())
    def test_samples_equal_the_traced_path_property(self, case):
        """The batched mean of the event loop's samples has the bits of the
        traced path's per-group ``np.mean``, for any chain, training set
        and stream length (129 data sets and more cross ``np.mean``'s
        pairwise-summation block)."""
        chain, mappings, n, seed, jitter, interference = case

        def noise():
            return NoiseModel(seed=seed, jitter=jitter,
                              comm_interference=interference)

        data = profile_chain(chain, mappings, n_datasets=n, noise=noise())
        want = _traced_samples(chain, mappings, n, noise())
        assert _hex(data.exec_samples) == _hex(want["exec"])
        assert _hex(data.icom_samples) == _hex(want["icom"])
        assert _hex(data.ecom_samples) == _hex(want["ecom"])

    @pytest.mark.parametrize("kind", ["icom", "ecom"])
    def test_samples_of_edges_with_equal_labels_stay_apart(self, kind):
        """Task names may contain ``->``: here edges 0 and 2 are both
        labelled ``a->b->c``.  Each edge keeps its own samples, on one
        merged module (internal redistributions) and on one module per
        task (external transfers)."""
        names = ["a", "b->c", "a->b", "c"]
        tasks = [Task(n, PolynomialExec(c_fixed=1.0)) for n in names]
        edges = [Edge(icom=PolynomialIComm(c_fixed=c),
                      ecom=PolynomialEComm(c_fixed=c)) for c in (0.2, 0.4, 0.6)]
        chain = TaskChain(tasks, edges, name="labels")
        if kind == "icom":
            mapping = Mapping([ModuleSpec(0, 3, 4)])
        else:
            mapping = Mapping([ModuleSpec(i, i, 1) for i in range(4)])
        data = profile_chain(chain, [mapping], n_datasets=20)
        samples = data.icom_samples if kind == "icom" else data.ecom_samples
        assert sorted(samples) == [0, 1, 2]
        for e, c in enumerate((0.2, 0.4, 0.6)):
            (*_, observed), = samples[e]
            assert observed == pytest.approx(c, rel=1e-12)

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
