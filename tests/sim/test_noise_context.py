"""Dataset-context noise draws: batch and per-op paths must agree.

Regression suite for the drift-index inconsistency: the event engine
prices each operation one at a time (``factor(dataset=d)``) while the
fast path prices whole epochs in one vectorised call
(``factors(n, datasets=..., comm=...)``).  Deterministic drift must
yield bit-identical factors either way — the drift index is the *data-set
index*, never the draw count — or the two engines diverge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Mapping, ModuleSpec
from repro.experiments.drift_study import study_chain
from repro.sim import DriftNoiseModel, NoiseModel, simulate
from repro.sim.noise import BLOCK


def drift_noise(drift=1e-3, comm_drift=0.0):
    return DriftNoiseModel(
        seed=3, jitter=0.0, comm_interference=0.0,
        drift=drift, comm_drift=comm_drift,
    )


class TestDriftContext:
    def test_batch_factors_match_per_op_exec(self):
        noise = drift_noise()
        datasets = np.array([0, 5, 2, 999, 2, 17], dtype=np.int64)
        batch = noise.factors(len(datasets), datasets=datasets)
        per_op = [drift_noise().factor(dataset=int(d)) for d in datasets]
        assert batch.tolist() == per_op        # bit-identical

    def test_batch_comm_mask_matches_per_op_comm(self):
        noise = drift_noise(drift=1e-3, comm_drift=5e-4)
        datasets = np.array([0, 3, 3, 40, 7], dtype=np.int64)
        comm = np.array([False, True, False, True, True])
        batch = noise.factors(len(datasets), datasets=datasets, comm=comm)
        fresh = drift_noise(drift=1e-3, comm_drift=5e-4)
        per_op = [
            fresh.comm_factor(0.0, dataset=int(d)) if c
            else fresh.factor(dataset=int(d))
            for d, c in zip(datasets, comm)
        ]
        assert batch.tolist() == per_op

    def test_batch_split_invariance(self):
        noise = drift_noise()
        datasets = np.arange(100, dtype=np.int64) % 13
        whole = noise.factors(len(datasets), datasets=datasets)
        halves = np.concatenate([
            drift_noise().factors(50, datasets=datasets[:50]),
            drift_noise().factors(50, datasets=datasets[50:]),
        ])
        assert np.array_equal(whole, halves)

    def test_draw_order_does_not_move_the_drift_index(self):
        a = drift_noise()
        b = drift_noise()
        # a burns unrelated draws first; the dataset keyed factor must not move.
        for d in (9, 1, 400):
            a.factor(dataset=d)
        assert a.factor(dataset=7) == b.factor(dataset=7)
        assert (a.comm_factor(0.0, dataset=31)
                == b.comm_factor(0.0, dataset=31))

    def test_context_free_drift_draws_raise(self):
        def model():
            return DriftNoiseModel(seed=3, jitter=0.05, comm_interference=0.0,
                                   drift=1e-2)

        noise = model()
        with pytest.raises(ValueError, match="data set"):
            noise.factor()
        with pytest.raises(ValueError, match="data set"):
            noise.comm_factor(1)
        # The refused draws took nothing from the jitter stream.
        assert noise.factor(dataset=4) == model().factor(dataset=4)

    @pytest.mark.parametrize("drift,comm_drift", [
        (1e-3, 0.0),        # zero comm rate
        (1e-3, 5e-4),       # nonzero comm rate
        (0.0, 2e-3),        # zero execution rate
    ])
    def test_zero_rate_shortcuts_match_the_unskipped_formula(
            self, drift, comm_drift):
        """``factors`` skips the all-ones comm table; the skip is exact."""

        def model():
            return DriftNoiseModel(seed=5, jitter=0.0, comm_interference=0.0,
                                   drift=drift, comm_drift=comm_drift)

        def unskipped(noise, d, comm):
            top = int(d.max()) + 1
            scale = noise._table(noise.drift, top)[d]
            return np.where(comm, noise._table(noise.comm_drift, top)[d], scale)

        rng = np.random.default_rng(0)
        fast, slow = model(), model()
        for n in (7, BLOCK + 3, 64):
            d = rng.integers(0, 3000, size=n)
            comm = rng.random(n) < 0.4
            got = fast.factors(n, datasets=d, comm=comm)
            want = unskipped(slow, d, comm)
            assert got.tobytes() == want.tobytes()

    def test_drift_factors_require_datasets(self):
        with pytest.raises(ValueError, match="datasets"):
            drift_noise().factors(4)

    def test_stationary_base_model_allows_datasets_free_batch(self):
        noise = NoiseModel.silent()
        assert noise.factors(5).tolist() == [1.0] * 5

    def test_jittered_models_refuse_to_batch(self):
        """Jitter is drawn in event order; a batch would reorder it."""
        for model in (NoiseModel(seed=5, jitter=0.05, comm_interference=0.0),
                      DriftNoiseModel(seed=5, jitter=0.05, drift=1e-3)):
            before = model._rng.bit_generator.state
            with pytest.raises(ValueError, match="event order"):
                model.factors(5, datasets=np.arange(5))
            assert model._rng.bit_generator.state == before


class _ScalarReference:
    """The unbuffered jitter rule: one scalar ``standard_normal()`` per
    operation on a fresh generator, then the truncation and the floor."""

    def __init__(self, seed: int, jitter: float, interference: float,
                 drift: float | None, comm_drift: float):
        self.rng = np.random.default_rng(seed)
        self.jitter = jitter
        self.interference = interference
        self.drift = drift
        self.comm_drift = comm_drift

    def jitter_factor(self) -> float:
        if self.jitter == 0:
            return 1.0
        f = 1.0 + self.jitter * float(self.rng.standard_normal())
        lo, hi = 1.0 - 3 * self.jitter, 1.0 + 3 * self.jitter
        return max(0.05, min(hi, max(lo, f)))

    def scale(self, rate: float, d: int) -> float:
        if self.drift is None or rate == 0.0:
            return 1.0
        return float(np.cumprod(np.full(d + 1, 1.0 + rate))[d])

    def factor(self, d: int) -> float:
        f = self.jitter_factor()
        return f if self.drift is None else f * self.scale(self.drift, d)

    def comm_factor(self, c: int, d: int) -> float:
        f = self.jitter_factor() * (1.0 + self.interference * max(0, c))
        return f if self.drift is None else f * self.scale(self.comm_drift, d)

    def factors(self, datasets, comm) -> list[float]:
        out = []
        for d, is_comm in zip(datasets, comm):
            f = self.jitter_factor()
            if self.drift is not None:
                rate = self.comm_drift if is_comm else self.drift
                f *= self.scale(rate, d)
            out.append(f)
        return out


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("factor"), st.integers(0, 50)),
        st.tuples(st.just("comm"), st.integers(0, 50), st.integers(0, 4)),
        st.tuples(st.just("factors"), st.lists(st.integers(0, 50),
                                               max_size=2 * BLOCK + 40)),
    ),
    max_size=12,
)


class TestBufferedDraws:
    """Jitter is drawn in blocks and handed out in order; every call sees
    the values one scalar draw per operation gives.  Batches price only
    jitter-free draws; a jittered model refuses them without touching its
    stream."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           jitter=st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5]),
           drifting=st.booleans(), ops=_OPS, data=st.data())
    def test_any_interleaving_matches_scalar_draws(self, seed, jitter,
                                                   drifting, ops, data):
        interference = 0.03
        drift = comm_drift = None
        if drifting:
            drift = data.draw(st.sampled_from([0.0, 1e-3]), label="drift")
            comm_drift = data.draw(st.sampled_from([0.0, 1e-3, 5e-4]),
                                   label="comm_drift")
            model = DriftNoiseModel(seed=seed, jitter=jitter,
                                    comm_interference=interference,
                                    drift=drift, comm_drift=comm_drift)
        else:
            model = NoiseModel(seed=seed, jitter=jitter,
                               comm_interference=interference)
        ref = _ScalarReference(seed, jitter, interference, drift,
                               0.0 if comm_drift is None else comm_drift)
        for op in ops:
            if op[0] == "factor":
                assert model.factor(dataset=op[1]) == ref.factor(op[1])
            elif op[0] == "comm":
                got = model.comm_factor(op[2], dataset=op[1])
                assert got == ref.comm_factor(op[2], op[1])
            else:
                datasets = op[1]
                comm = [d % 3 == 0 for d in datasets]
                if jitter:
                    with pytest.raises(ValueError, match="event order"):
                        model.factors(len(datasets), datasets=datasets,
                                      comm=comm)
                    continue
                got = model.factors(len(datasets), datasets=datasets,
                                    comm=comm)
                assert got.dtype == np.float64
                assert got.tolist() == ref.factors(datasets, comm)

    def test_jitter_free_models_leave_the_rng_untouched(self):
        for model in (NoiseModel(seed=5, jitter=0.0, comm_interference=0.1),
                      DriftNoiseModel(seed=5, jitter=0.0, drift=1e-3)):
            before = model._rng.bit_generator.state
            model.factor(dataset=3)
            model.comm_factor(2, dataset=4)
            model.factors(BLOCK + 3, datasets=np.arange(BLOCK + 3))
            model.factors(0, datasets=np.arange(0))
            assert model._rng.bit_generator.state == before


class TestClassification:
    def test_silent_base_model_flags(self):
        noise = NoiseModel.silent()
        assert not noise.active
        assert noise.deterministic

    def test_jittered_base_model_flags(self):
        noise = NoiseModel(seed=1, jitter=0.05, comm_interference=0.0)
        assert noise.active
        assert not noise.deterministic

    def test_deterministic_drift_flags(self):
        noise = drift_noise()
        assert noise.active and noise.deterministic

    def test_jittered_drift_flags(self):
        noise = DriftNoiseModel(
            seed=1, jitter=0.05, comm_interference=0.0, drift=1e-4,
        )
        assert noise.active
        assert not noise.deterministic


class TestEngineAgreement:
    def test_plain_fast_run_matches_event_under_drift(self):
        """The original regression: uncontrolled fast vs event simulation
        on a drifting stream must agree bit-for-bit."""
        chain = study_chain()
        mapping = Mapping([ModuleSpec(0, 3, 12, 1)])
        runs = {}
        for engine in ("fast", "event"):
            runs[engine] = simulate(
                chain, mapping, 400, noise=drift_noise(drift=5e-4),
                engine=engine,
            )
        fast, event = runs["fast"], runs["event"]
        assert np.array_equal(fast.completions, event.completions)
        assert np.array_equal(fast.injections, event.injections)
        assert fast.throughput == event.throughput
        assert fast.busy_fractions == event.busy_fractions

    def test_plain_auto_takes_fast_under_deterministic_drift(self):
        """Plain and controlled runs share one dispatch rule: ``auto``
        takes the fast path for deterministic drift, bit-identically."""
        chain = study_chain()
        mapping = Mapping([ModuleSpec(0, 3, 12, 1)])
        result = simulate(chain, mapping, 200, noise=drift_noise())
        event = simulate(chain, mapping, 200, noise=drift_noise(),
                         engine="event")
        assert result.engine == "fast"
        assert np.array_equal(result.completions, event.completions)
