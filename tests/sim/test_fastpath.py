"""Fast-path engine: bit-exactness vs the event engine, the bottleneck
evaluator, and the `simulate(engine=...)` dispatch contract."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PlanError, SimulationError
from repro.core.cost import PolynomialEComm, PolynomialExec
from repro.core.mapping import Mapping, ModuleSpec
from repro.core.task import Edge, Task, TaskChain
from repro.machine.topology import Rect
from repro.sim import DriftNoiseModel, NoiseModel, fastpath, simulate, simulate_fast
from repro.sim.fastpath import (
    _add_busy,
    _durations,
    _evaluate,
    _Pipeline,
    _run_scalar,
)
from repro.sim.faults import FaultModel, ProcessorFailure
from repro.sim.modulegraph import ModuleGraph

from ..conftest import make_random_chain

#: The long-stream tests (and benchmarks/bench_sim.py) use durations on this
#: dyadic grid, where every timestamp addition is exact integer arithmetic
#: scaled by the unit: the schedule settles into an exactly periodic steady
#: state.
_UNIT = 2.0 ** -20


def _dyadic(x: float) -> float:
    return round(x / _UNIT) * _UNIT


def dyadic_chain(k: int = 5) -> TaskChain:
    tasks = [
        Task(f"t{i}", PolynomialExec(_dyadic(0.23 + 0.31 * i), 0.0, 0.0))
        for i in range(k)
    ]
    edges = [
        Edge(ecom=PolynomialEComm(_dyadic(0.11 + 0.07 * i), 0.0, 0.0, 0.0, 0.0))
        for i in range(k - 1)
    ]
    return TaskChain(tasks, edges, name="dyadic")


def dyadic_mapping() -> Mapping:
    return Mapping([
        ModuleSpec(0, 0, 1, 2),
        ModuleSpec(1, 1, 2, 1),
        ModuleSpec(2, 2, 1, 3),
        ModuleSpec(3, 3, 2, 1),
        ModuleSpec(4, 4, 1, 2),
    ])


def assert_identical(a, b):
    """Every observable of the two results matches bit for bit."""
    assert np.array_equal(a.completions, b.completions)
    assert np.array_equal(a.injections, b.injections)
    assert a.busy_fractions == b.busy_fractions
    assert a.throughput == b.throughput
    assert a.mean_latency == b.mean_latency
    assert a.makespan == b.makespan
    assert a.events_processed == b.events_processed
    assert a.warmup == b.warmup


class TestExactness:
    def test_three_task_chain_bit_identical(self, three_chain):
        mapping = Mapping([ModuleSpec(0, 1, 3, 2), ModuleSpec(2, 2, 4, 1)])
        ev = simulate(three_chain, mapping, n_datasets=150, engine="event")
        fa = simulate(three_chain, mapping, n_datasets=150, engine="fast")
        assert fa.engine == "fast" and ev.engine == "event"
        assert_identical(ev, fa)

    @pytest.mark.parametrize("seed", [2, 11, 23])
    def test_random_chains_with_replication(self, seed):
        chain = make_random_chain(4, seed=seed, replicable_prob=1.0)
        rng = np.random.default_rng(seed)
        specs, start = [], 0
        # Random contiguous modules with random replica counts.
        cuts = sorted(rng.choice(range(1, 4), size=1, replace=False).tolist())
        bounds = [0] + cuts + [4]
        for i in range(len(bounds) - 1):
            specs.append(
                ModuleSpec(bounds[i], bounds[i + 1] - 1,
                           int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            )
        mapping = Mapping(specs)
        ev = simulate(chain, mapping, n_datasets=97, engine="event")
        fa = simulate(chain, mapping, n_datasets=97, engine="fast")
        assert_identical(ev, fa)

    def test_single_module_pipeline(self):
        chain = TaskChain([Task("solo", PolynomialExec(1.25, 2.0, 0.0))], [])
        mapping = Mapping([ModuleSpec(0, 0, 2, 3)])
        ev = simulate(chain, mapping, n_datasets=77, engine="event")
        fa = simulate(chain, mapping, n_datasets=77, engine="fast")
        assert_identical(ev, fa)

    def test_placements_and_hop_penalty(self, three_chain):
        mapping = Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 2, 2, 1)])
        placements = [
            [Rect(0, 0, 1, 2), Rect(1, 0, 1, 2)],
            [Rect(4, 2, 1, 2)],
        ]
        ev = simulate(three_chain, mapping, n_datasets=90, engine="event",
                      placements=placements, hop_penalty=0.05)
        fa = simulate(three_chain, mapping, n_datasets=90, engine="fast",
                      placements=placements, hop_penalty=0.05)
        assert_identical(ev, fa)


@st.composite
def evaluator_cases(draw):
    """A random module pipeline, noise model and segment for the
    evaluator-vs-scalar differential test."""
    k = draw(st.integers(1, 5))
    reps = [draw(st.integers(1, 4)) for _ in range(k)]
    dur = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    phases = [[("task", f"t{m}.{j}", draw(dur), None)
               for j in range(draw(st.integers(1, 3)))] for m in range(k)]
    edges = [(e, e + 1, draw(dur), f"e{e}") for e in range(k - 1)]
    hop = None
    if k > 1 and draw(st.booleans()):
        hop = [[[draw(st.floats(1.0, 1.5)) for _ in range(reps[e + 1])]
                for _ in range(reps[e])] for e in range(k - 1)]
    graph = ModuleGraph(phases, reps, edges, hop)
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["silent", "drift", "jitter"]))
    noise, jitter = NoiseModel.silent(), 0.0
    if kind == "drift":
        noise = DriftNoiseModel(
            seed=seed, jitter=0.0, comm_interference=0.0,
            drift=draw(st.floats(1e-5, 1e-2)),
            comm_drift=draw(st.sampled_from([None, 0.0])))
    elif kind == "jitter":
        jitter = draw(st.floats(1e-3, 0.1))
    t0 = draw(st.floats(1e-3, 1e3))
    d0 = draw(st.integers(1, 60))
    n = draw(st.one_of(st.sampled_from([0, 1]),
                       st.integers(0, max(reps) - 1),
                       st.integers(0, 5000)))
    return graph, noise, jitter, seed, t0, d0, n


def _scalar_busy(graph, D, d0):
    """Per-instance busy time by the running ``+=`` of the event engine:
    per data set, module 0's phases, then per edge the transfer (sender,
    then receiver) and the receiver's phases."""
    reps = graph.replicas
    busy = [[0.0] * r for r in reps]
    for d, row in enumerate(D.tolist(), start=d0):
        cols = iter(row)
        for m in range(len(graph)):
            c = d % reps[m]
            if m:
                x = next(cols)
                busy[m - 1][d % reps[m - 1]] += x
                busy[m][c] += x
            for _ in graph.phases[m]:
                busy[m][c] += next(cols)
    return busy


@settings(max_examples=60, deadline=None)
@given(case=evaluator_cases())
def test_evaluator_matches_scalar_recurrence(case):
    """The bottleneck evaluator (speculation, verification and scalar
    fallback) reproduces ``_run_scalar`` bit for bit: completions,
    injections, final ready state and per-instance busy time.  Irregular
    ("jitter") durations come from truncated-normal factors drawn here,
    on a seeded generator."""
    graph, noise, jitter, seed, t0, d0, n = case
    pipe = _Pipeline(graph)
    d1 = d0 + n
    epd = pipe.events_per_dataset
    draws = None
    if jitter:
        f = 1.0 + jitter * np.random.default_rng(seed).standard_normal(n * epd)
        draws = np.maximum(0.05, np.clip(f, 1.0 - 3 * jitter, 1.0 + 3 * jitter))
    elif noise.active:
        draws = noise.factors(n * epd, datasets=np.repeat(np.arange(d0, d1), epd),
                              comm=np.tile(pipe.comm_template, n))
    D = _durations(pipe, d0, d1, draws)
    runs = []
    for evaluator in (False, True):
        ready = [[t0] * r for r in graph.replicas]
        completions, injections = np.full(d1, np.nan), np.full(d1, np.nan)
        if evaluator:
            tally = {"verified": 0, "misses": 0}
            _evaluate(pipe, ready, D, completions, injections, d0, tally)
            busy = [[0.0] * r for r in graph.replicas]
            _add_busy(pipe, busy, D, d0)
        else:
            _run_scalar(pipe, ready, D, completions, injections, d0, d1, d0)
            busy = _scalar_busy(graph, D, d0)
        runs.append((completions.tobytes(), injections.tobytes(),
                     [[x.hex() for x in m] for m in ready],
                     [[x.hex() for x in m] for m in busy]))
    scalar, evaluated = runs
    assert evaluated[0] == scalar[0], "completions differ"
    assert evaluated[1] == scalar[1], "injections differ"
    assert evaluated[2] == scalar[2], "final ready state differs"
    assert evaluated[3] == scalar[3], "busy time differs"


class TestBottleneckEvaluator:
    @staticmethod
    def _overtaking_pipeline():
        # Module 0 (one instance) is comm-heavy: a 0.1 s task plus a 1.0 s
        # transfer, 1.1 s per data set.  Module 1 (two instances) runs a
        # 1.0 s task, (1.0 + 1.0) / 2 s per data set.  Execution drift
        # with comm_drift=0 grows both tasks by 1.001 per data set, so
        # module 1 overtakes module 0 at data set ~223.
        chain = TaskChain(
            [Task("light", PolynomialExec(0.1, 0.0, 0.0)),
             Task("heavy", PolynomialExec(1.0, 0.0, 0.0))],
            [Edge(ecom=PolynomialEComm(1.0, 0.0, 0.0, 0.0, 0.0))],
        )
        return chain, Mapping([ModuleSpec(0, 0, 1, 1), ModuleSpec(1, 1, 1, 2)])

    def test_bottleneck_moving_mid_segment_falls_back(self):
        chain, mapping = self._overtaking_pipeline()

        def drift():
            return DriftNoiseModel(seed=0, jitter=0.0, comm_interference=0.0,
                                   drift=1e-3, comm_drift=0.0)

        stats = {}
        fa = simulate_fast(chain, mapping, 1000, noise=drift(), stats=stats)
        ev = simulate(chain, mapping, n_datasets=1000, engine="event",
                      noise=drift())
        assert np.array_equal(fa.completions, ev.completions)
        assert np.array_equal(fa.injections, ev.injections)
        assert fa.busy_fractions == ev.busy_fractions
        # The scalar fallback covered the move, and speculation resumed
        # on the new bottleneck for the rest of the segment.
        assert stats["scalar_datasets"] > 0
        assert stats["verified"] > 900
        assert stats["verified"] + stats["scalar_datasets"] == 1000

        steady = {}
        simulate_fast(chain, mapping, 1000, noise=NoiseModel.silent(),
                      stats=steady)
        assert steady["scalar_datasets"] == 0, (
            "without drift module 0 stays the bottleneck: no fallback"
        )

    @pytest.mark.parametrize("noise", [
        NoiseModel.silent(),
        DriftNoiseModel(seed=4, jitter=0.0, comm_interference=0.0, drift=1e-4),
        DriftNoiseModel(seed=4, jitter=0.0, comm_interference=0.0, drift=1e-4,
                        comm_drift=0.0),
    ], ids=["silent", "drift", "drift-exec-only"])
    def test_block_and_chunk_splits_change_no_bit(self, noise, monkeypatch):
        # Busy totals, ready state and the miss count carry across duration
        # blocks and speculation chunks; shrinking both must not move a bit.
        chain = make_random_chain(4, seed=9, replicable_prob=1.0)
        mapping = Mapping([ModuleSpec(0, 1, 2, 3), ModuleSpec(2, 3, 1, 2)])

        def run():
            noise_copy = copy.deepcopy(noise)
            return simulate_fast(chain, mapping, 4000, noise=noise_copy)

        whole = run()
        monkeypatch.setattr(fastpath, "_BLOCK", 700)
        monkeypatch.setattr(fastpath, "_CHUNK", 90)
        split = run()
        assert_identical(whole, split)

    def test_leap_false_runs_on_the_evaluator(self):
        # The name dates from the removed `leap` option: every fast-path
        # run is now leap-free, so a dyadic stream that once leaped is
        # speculated and verified by the evaluator instead.
        chain, mapping = dyadic_chain(), dyadic_mapping()
        stats = {}
        fa = simulate_fast(chain, mapping, 3000, noise=NoiseModel.silent(),
                           stats=stats)
        assert "leaped" not in stats and stats["verified"] > 2500
        ev = simulate(chain, mapping, n_datasets=3000, engine="event")
        assert_identical(ev, fa)

    def test_long_dyadic_stream_matches_event_engine(self):
        chain, mapping = dyadic_chain(), dyadic_mapping()
        stats = {}
        fa = simulate_fast(chain, mapping, 20000, noise=NoiseModel.silent(),
                           stats=stats)
        assert stats["verified"] > 19000
        assert stats["verified"] + stats["scalar_datasets"] == 20000
        ev = simulate(chain, mapping, n_datasets=20000, engine="event")
        assert_identical(ev, fa)


class TestEngineDispatch:
    def test_auto_uses_fast_for_healthy_runs(self, three_chain):
        mapping = Mapping([ModuleSpec(0, 1, 3, 2), ModuleSpec(2, 2, 4, 1)])
        auto = simulate(three_chain, mapping, n_datasets=80)
        assert auto.engine == "fast"
        ev = simulate(three_chain, mapping, n_datasets=80, engine="event")
        assert_identical(auto, ev)

    def test_auto_falls_back_for_faults(self, three_chain):
        mapping = Mapping([ModuleSpec(0, 1, 3, 2), ModuleSpec(2, 2, 4, 1)])
        faults = FaultModel(seed=3, failures=[ProcessorFailure(30.0, 0, 1)])
        res = simulate(three_chain, mapping, n_datasets=80, faults=faults)
        assert res.engine == "event"
        assert res.processor_failures

    def test_auto_falls_back_for_inactive_faults_model(self, three_chain):
        mapping = Mapping([ModuleSpec(0, 1, 3, 2), ModuleSpec(2, 2, 4, 1)])
        res = simulate(three_chain, mapping, n_datasets=80,
                       faults=FaultModel.silent())
        assert res.engine == "fast"  # a silent model injects nothing

    def test_auto_falls_back_for_noise_and_drift(self, three_chain):
        mapping = Mapping([ModuleSpec(0, 1, 3, 2), ModuleSpec(2, 2, 4, 1)])
        noisy = simulate(three_chain, mapping, n_datasets=80,
                         noise=NoiseModel(seed=1))
        assert noisy.engine == "event"
        # Jitter-free drift is a pure function of the data-set index, so
        # the fast path prices it bit-identically and ``auto`` takes it.
        drift = dict(seed=1, jitter=0.0, comm_interference=0.0, drift=1e-4)
        drifty = simulate(three_chain, mapping, n_datasets=80,
                          noise=DriftNoiseModel(**drift))
        event = simulate(three_chain, mapping, n_datasets=80, engine="event",
                         noise=DriftNoiseModel(**drift))
        assert drifty.engine == "fast"
        assert np.array_equal(drifty.completions, event.completions)
        assert np.array_equal(drifty.injections, event.injections)

    def test_auto_falls_back_for_traces(self, three_chain):
        mapping = Mapping([ModuleSpec(0, 1, 3, 2), ModuleSpec(2, 2, 4, 1)])
        res = simulate(three_chain, mapping, n_datasets=20, collect_trace=True)
        assert res.engine == "event"
        assert res.trace is not None

    def test_explicit_fast_rejects_unsupported(self, three_chain):
        mapping = Mapping([ModuleSpec(0, 1, 3, 2), ModuleSpec(2, 2, 4, 1)])
        with pytest.raises(SimulationError):
            simulate(three_chain, mapping, n_datasets=20, engine="fast",
                     faults=FaultModel(seed=1, failure_rate=0.1))
        with pytest.raises(SimulationError):
            simulate(three_chain, mapping, n_datasets=20, engine="fast",
                     collect_trace=True)
        with pytest.raises(SimulationError):
            simulate(three_chain, mapping, n_datasets=20, engine="fast",
                     noise=NoiseModel(seed=1, jitter=0.0,
                                      comm_interference=0.05))
        with pytest.raises(SimulationError):
            simulate(three_chain, mapping, n_datasets=20, engine="fast",
                     noise=DriftNoiseModel(seed=1, drift=1e-4))
        # Jitter is drawn in event order, which only the event engine
        # reproduces: the fast path refuses it, interference or not.
        with pytest.raises(SimulationError, match="jitter"):
            simulate(three_chain, mapping, n_datasets=20, engine="fast",
                     noise=NoiseModel(seed=1, jitter=0.05,
                                      comm_interference=0.0))
        with pytest.raises(SimulationError, match="jitter"):
            simulate(three_chain, mapping, n_datasets=20, engine="fast",
                     noise=DriftNoiseModel(seed=1, jitter=0.05,
                                           comm_interference=0.0, drift=1e-4))

    def test_simulate_fast_runs_the_simulate_preflight(self, three_chain):
        # simulate_fast is simulate(engine="fast") plus stats: the same
        # plan check and data-set count check apply.
        bad = Mapping([ModuleSpec(0, 1, 1, 1), ModuleSpec(2, 2, 1, 4)])
        with pytest.raises(PlanError, match="replication"):
            simulate_fast(three_chain, bad, 200, noise=NoiseModel.silent())
        good = Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 2, 2, 1)])
        with pytest.raises(SimulationError, match="at least 2"):
            simulate_fast(three_chain, good, 1, noise=NoiseModel.silent())

    def test_unknown_engine_rejected(self, three_chain):
        mapping = Mapping([ModuleSpec(0, 1, 3, 2), ModuleSpec(2, 2, 4, 1)])
        with pytest.raises(SimulationError):
            simulate(three_chain, mapping, n_datasets=20, engine="warp")


class TestResultDataclass:
    def test_busy_fractions_defaults_to_dict(self):
        from repro.sim import SimulationResult

        r = SimulationResult(
            n_datasets=2, makespan=1.0, throughput=1.0, mean_latency=0.5,
            completions=np.zeros(2), injections=np.zeros(2), warmup=1,
            events_processed=0,
        )
        assert r.busy_fractions == {}
        assert r.module_utilization(0) == 0.0  # no crash on the default
        assert r.engine == "event"
