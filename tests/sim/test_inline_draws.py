"""The event loop's inline noise draws against the noise model's methods.

For the base :class:`NoiseModel` the loop pops the jitter buffer itself,
for phases and for transfers, and prices a transfer's interference from a
per-run table; any model that overrides a draw method is called through
it.  Both paths must give the same run, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Edge,
    Mapping,
    ModuleSpec,
    PolynomialEComm,
    PolynomialExec,
    SimulationError,
    Task,
    TaskChain,
    ZeroUnary,
    clustering_from_boundaries,
    evaluate_mapping,
)
from repro.sim import (
    FaultModel,
    NoiseModel,
    ProcessorFailure,
    simulate,
    simulate_fault_tolerant,
)
from repro.sim.engine import EXEC, WAIT_RECV, WAIT_SEND, XFER_RECV
from repro.sim.modulegraph import chain_graph
from repro.sim.noise import BLOCK
from repro.sim.pipeline import _Run
from tests.conftest import make_random_chain


class ViaMethods(NoiseModel):
    """The base model's draws, taken through the method path."""

    def factor(self, dataset=None):
        return super().factor(dataset)

    def comm_factor(self, concurrent_transfers, dataset=None):
        return super().comm_factor(concurrent_transfers, dataset)


class CountedFactor(NoiseModel):
    """Overrides only :meth:`factor`: transfers stay inline."""

    calls = 0

    def factor(self, dataset=None):
        self.calls += 1
        return super().factor(dataset)


class CountedCommFactor(NoiseModel):
    """Overrides only :meth:`comm_factor`: phases stay inline."""

    calls = 0
    most_in_flight = 0

    def comm_factor(self, concurrent_transfers, dataset=None):
        self.calls += 1
        self.most_in_flight = max(self.most_in_flight, concurrent_transfers)
        return super().comm_factor(concurrent_transfers, dataset)


def _bits(result) -> tuple:
    """Everything a run measured, in a form ``==`` compares bit for bit."""
    return (
        result.completions.tobytes(),
        result.injections.tobytes(),
        [(key, value.hex()) for key, value in result.busy_fractions.items()],
        result.events_processed,
        repr(result.failures),
        repr(result.remaps),
    )


@st.composite
def noisy_runs(draw):
    k = draw(st.integers(1, 5))
    chain = make_random_chain(k, seed=draw(st.integers(0, 200)),
                              replicable_prob=0.8)
    cuts = [b for b in range(k - 1) if draw(st.booleans())]
    modules = []
    for start, stop in clustering_from_boundaries(k, cuts):
        replicable = chain.segment_replicable(start, stop)
        modules.append(ModuleSpec(
            start, stop, draw(st.integers(1, 4)),
            draw(st.integers(1, 3)) if replicable else 1))
    mapping = Mapping(modules)
    noise = dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        jitter=draw(st.sampled_from([0.0, 0.02, 0.3])),
        comm_interference=draw(st.sampled_from([0.0, 0.02, 0.5])),
    )
    n = draw(st.integers(10, 150))
    faults = None
    if draw(st.booleans()):
        # Failures land inside the stream: within its noise-free makespan.
        horizon = n / evaluate_mapping(chain, mapping).throughput
        times = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
        faults = dict(
            seed=draw(st.integers(0, 1000)),
            failures=[ProcessorFailure(t * horizon) for t in times],
            comm_fault_prob=draw(st.sampled_from([0.05, 0.3])),
        )
    return chain, mapping, noise, n, faults


def _outcome(chain, mapping, model, n, faults) -> tuple:
    """The run's :func:`_bits`, or the structured error it raised."""
    try:
        if faults is None:
            result = simulate(chain, mapping, n, noise=model, engine="event")
        else:
            # One spare processor per failure, so a remap finds room.
            result = simulate_fault_tolerant(
                chain, mapping, n, faults=FaultModel(**faults), noise=model,
                machine_procs=mapping.total_procs + len(faults["failures"]))
    except SimulationError as e:
        return ("raised", str(e))
    assert result.engine == "event"
    return _bits(result)


@settings(max_examples=40, deadline=None)
@given(case=noisy_runs())
def test_inline_draws_match_the_method_path(case):
    chain, mapping, noise, n, faults = case
    inline, methods = NoiseModel(**noise), ViaMethods(**noise)
    assert inline.comm_buffer(1) is not None
    assert methods.comm_buffer(1) is None
    assert methods.factor_buffer() is None
    assert _outcome(chain, mapping, inline, n, faults) == _outcome(
        chain, mapping, methods, n, faults)


CHAIN = make_random_chain(3, seed=4, replicable_prob=1.0)
#: Three modules of two instances: two transfers per data set.
MAPPING = Mapping([ModuleSpec(0, 0, 2, 2), ModuleSpec(1, 1, 2, 2),
                   ModuleSpec(2, 2, 2, 2)])
NOISE = dict(seed=9, jitter=0.05, comm_interference=0.1)
N = 3 * BLOCK


def test_an_overridden_comm_factor_prices_every_transfer():
    model = CountedCommFactor(**NOISE)
    got = simulate(CHAIN, MAPPING, N, noise=model, engine="event")
    assert model.calls == (len(MAPPING.modules) - 1) * N
    want = simulate(CHAIN, MAPPING, N, noise=NoiseModel(**NOISE),
                    engine="event")
    assert _bits(got) == _bits(want)


def test_an_overridden_factor_prices_every_phase():
    model = CountedFactor(**NOISE)
    refills = []
    # The instance attribute is what the run binds; the class's method is
    # still the base one, so transfers stay inline and call it only to
    # refill the buffer.
    model.comm_factor = lambda *a: refills.append(a) or NoiseModel.comm_factor(
        model, *a)
    got = simulate(CHAIN, MAPPING, N, noise=model, engine="event")
    transfers = (len(MAPPING.modules) - 1) * N
    assert model.calls == got.events_processed - transfers >= 3 * N
    assert len(refills) <= (model.calls + transfers) // BLOCK + 1
    want = simulate(CHAIN, MAPPING, N, noise=NoiseModel(**NOISE),
                    engine="event")
    assert _bits(got) == _bits(want)


def test_every_worker_in_a_transfer_indexes_inside_the_table(monkeypatch):
    """Two modules of four instances with cheap execution and costly
    transfers: all four pairs start a transfer at the same instant, so
    the last starts with three already in flight, the most a run of eight
    workers can reach.  The run's table covers that count."""
    sizes = []
    real = NoiseModel.comm_buffer
    monkeypatch.setattr(NoiseModel, "comm_buffer",
                        lambda self, n: sizes.append(n) or real(self, n))
    chain = make_random_chain(2, seed=1, replicable_prob=1.0, comm_scale=50.0)
    mapping = Mapping([ModuleSpec(0, 0, 1, 4), ModuleSpec(1, 1, 1, 4)])
    counted = CountedCommFactor(**NOISE)
    want = simulate(chain, mapping, 400, noise=counted, engine="event")
    assert counted.most_in_flight == 3
    got = simulate(chain, mapping, 400, noise=NoiseModel(**NOISE),
                   engine="event")
    assert sizes == [8, 8]
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("ci", [0.0, 0.02, 0.1, 0.3, 1.0 / 3.0])
def test_the_table_has_the_bits_of_comm_factor(ci):
    model = NoiseModel(seed=2, jitter=0.0, comm_interference=ci)
    buf, table = model.comm_buffer(64)
    assert buf is model._buf
    for a, entry in enumerate(table):
        assert entry.hex() == model.comm_factor(a).hex()


def _in_flight(run) -> int:
    """Transfers in flight: each has its own receiver in ``XFER_RECV``."""
    return sum(w.state == XFER_RECV for w in run.workers)


def _observed_run(chain, mapping, noise, n, observe, times):
    run = _Run(chain_graph(chain, mapping), range(n), noise, None,
               np.full(n, np.nan), np.full(n, np.nan))
    for t in times:
        run.schedule_at(t, lambda: observe(run))
    run.execute()
    return run


@pytest.mark.parametrize("seed", range(4))
def test_the_in_flight_count_is_kept_across_callables(seed):
    """The loop keeps the in-flight count in a local; whenever a callable
    can read it, it must equal the number of receivers in flight.  The
    callables kill workers in mid receive (the loop then recurses for
    the dead receiver's peer, which may start a transfer), at a
    rendezvous, executing or sending (their work moves to survivors)."""
    chain = make_random_chain(3, seed=seed, replicable_prob=1.0,
                              comm_scale=20.0)
    mapping = Mapping([ModuleSpec(t, t, 1, 5) for t in range(3)])
    n = 200
    seen, killed = [], []
    victims = [XFER_RECV, WAIT_RECV, EXEC, WAIT_SEND]

    def observe(run):
        seen.append((run.active_transfers, _in_flight(run)))
        if len(seen) % 23:
            return
        state = victims[len(seen) // 23 % len(victims)]
        for w in reversed(run.workers):
            alive = [x for x in run.module_workers[w.module] if x.alive]
            if w.alive and w.state == state and len(alive) > 2:
                killed.append(state)
                run.kill_instance(w.module, w.instance)
                return

    period = 1.0 / evaluate_mapping(chain, mapping).throughput
    run = _observed_run(chain, mapping, NoiseModel(**NOISE), n, observe,
                        [i * period / 4 for i in range(1, 4 * n)])
    assert set(killed) == set(victims)
    assert all(kept == counted for kept, counted in seen)
    assert run.active_transfers == 0


@pytest.mark.parametrize("seed", range(3))
def test_a_transfer_started_inside_a_callable_is_counted(seed):
    """Killing a replicated middle instance in mid execution, while a
    peer holding a later data set waits to send it, drops the data set
    (no survivor may still take it).  The sink, which waited for it, moves
    on and meets the waiting sender: a transfer starts inside the
    callable, and the loop must count it once the callable returns."""
    chain = TaskChain(
        [Task("a", PolynomialExec(0.1, 0.0)),
         Task("b", PolynomialExec(1.0, 0.0), replicable=True),
         Task("c", PolynomialExec(0.1, 0.0))],
        [Edge(ZeroUnary(), PolynomialEComm(0.02, 0.0, 0.0))] * 2,
        name="drop",
    )
    mapping = Mapping([ModuleSpec(0, 0, 1, 1), ModuleSpec(1, 1, 1, 4),
                       ModuleSpec(2, 2, 1, 1)])
    seen, started = [], []

    def observe(run):
        seen.append((run.active_transfers, _in_flight(run)))
        middle = [w for w in run.module_workers[1] if w.alive]
        for w in middle:
            if len(middle) > 1 and w.state == EXEC and any(
                    x.state == WAIT_SEND and x.d > w.d for x in middle):
                before = run.active_transfers
                run.kill_instance(1, w.instance)
                started.append(run.active_transfers - before)
                return

    noise = NoiseModel(seed=seed, jitter=0.3, comm_interference=0.1)
    run = _observed_run(chain, mapping, noise, 200, observe,
                        [i / 100 for i in range(1, 2000)])
    assert 1 in started
    assert all(kept == counted for kept, counted in seen)
    assert run.active_transfers == 0
