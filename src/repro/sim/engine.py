"""Discrete-event engine: a clock, a heap of events, and the one loop that
runs them.

An event is ``(time, sequence, target)``.  Determinism matters — two runs
with the same seed must produce identical traces — so ties are broken by
insertion order, never by target identity.  Events live in a ``heapq``
binary heap keyed on ``(time, sequence)``: O(log n) push/pop with a C inner
loop, the right structure for the small pending sets a pipeline run keeps
(a handful of in-flight phase and transfer completions).

A target is a plain callable (fault scripts, and any caller of
:meth:`Simulator.schedule`) or a :class:`Worker`: one module instance, whose
event is the completion of its current phase or of the transfer it
receives.  The loop never calls a worker.  It reads the worker's integer
state and advances it in place — the next phase (draw, busy time,
sample and trace hooks, push), the next in- or out-edge rendezvous, the
data-set boundary — until the worker blocks.  A profiling run's module
graph carries sample lists (a ``samples`` slot per phase tuple, an
``edge_samples`` list per edge); the loop appends each busy interval's duration to its list in
event order, as :attr:`TraceEvent.duration
<repro.sim.trace.TraceEvent.duration>` computes it, with no call per
interval.  A blocked worker has made at most one event, and
the loop pushes it together with the next pop in one ``heappushpop``.

Under the base noise model the loop takes every jitter draw straight from
the model's buffer (:meth:`~repro.sim.noise.NoiseModel.factor_buffer`,
:meth:`~repro.sim.noise.NoiseModel.comm_buffer`) and prices a transfer's
interference from a per-run table indexed by the count of transfers in
flight, the values ``factor`` and ``comm_factor`` would return; it calls
them only to refill the buffer, or for a model that overrides them.
Workers hold their edge and phase counts, and the in-flight count lives
in a local, so a phase or transfer step takes no ``len()`` of an edge or
phase list, and no noise-model call.
:class:`~repro.sim.pipeline._Run` sets a pipeline run up on this engine.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush, heappushpop
from typing import Callable

from ..core.exceptions import SimulationError
from .faults import FaultEvent

__all__ = ["Simulator", "Worker"]

#: Worker states: idle (no data set, or dead), waiting at / inside a
#: receive, executing, waiting at / inside a send.
IDLE, WAIT_RECV, XFER_RECV, EXEC, WAIT_SEND, XFER_SEND = range(6)
#: Where advancing a worker goes next: the data-set boundary, the next
#: in-edge, the start of execution, the next phase, the next out-edge, the
#: rendezvous on the edge just reached.  ``RECV``, ``BEGIN`` and ``SEND``
#: are also where a queued data set (re)starts.
PUMP, RECV, BEGIN, PHASE, SEND, ARRIVE = range(6)


class Worker:
    """One module instance: a sequential process over its data sets.

    Per data set it receives over its module's in-edges, runs the module's
    phases, then sends over its out-edges, each in edge-table order (see
    :class:`~repro.sim.modulegraph.ModuleGraph`).  ``queue`` (a range or
    list) holds its data sets in ascending order and is consumed through
    the ``head`` cursor; ``stages`` maps the few that do not start with a
    receive — work inherited from a failed peer whose receive or execution
    already happened (inputs and outputs are mirrored across instances) —
    to ``BEGIN`` or ``SEND``.  The ascending-queue invariant is what keeps
    the blocking rendezvous protocol deadlock-free under redistribution.

    ``d`` is the in-flight data set, ``idx`` the next in-edge, phase or
    out-edge, ``state`` one of the integer states above.  ``peer`` and
    ``first`` describe the transfer being received: its sender, and
    whether the receiver arrived first.  ``busy`` accumulates busy seconds
    (the run writes it back once it ends); ``ran`` says whether the
    instance got busy yet in this run.
    """

    __slots__ = ("module", "instance", "key", "ins", "outs", "phases",
                 "nin", "nout", "nph", "queue", "head", "stages", "alive",
                 "state", "high", "busy", "ran", "d", "idx", "peer", "first")

    def __init__(self, module: int, instance: int, ins: list, outs: list,
                 phases: list, datasets, busy: float):
        self.module = module
        self.instance = instance
        self.key = (module, instance)     # busy-time key
        self.ins = ins
        self.outs = outs
        self.phases = phases              # [(kind, label, base, samples)]
        # Never rebound (a profiling run replaces phase entries in place),
        # so their lengths are fixed.
        self.nin, self.nout, self.nph = len(ins), len(outs), len(phases)
        self.queue = datasets
        self.head = 0
        self.stages: dict[int, int] = {}
        self.alive = True
        self.state = IDLE
        self.high = -1                    # largest data set ever started
        self.busy = busy
        self.ran = False
        self.d, self.idx = -1, 0
        self.peer, self.first = None, False

    def take_all(self) -> list[tuple[int, int]]:
        """Remove and return every pending ``(data set, start)`` item."""
        stages = self.stages
        items = [(d, stages.get(d, RECV)) for d in self.queue[self.head:]]
        self.queue, self.head, self.stages = [], 0, {}
        return items

    def insert_item(self, d: int, start: int) -> None:
        """Queue inherited work.  It lands past the cursor: the queue is
        ascending and inherited data sets exceed every one started."""
        queue = self.queue
        if type(queue) is not list:
            queue = self.queue = list(queue[self.head:])
            self.head = 0
        insort(queue, d, lo=self.head)
        if start != RECV:
            self.stages[d] = start

    def remove_dataset(self, d: int) -> None:
        self.queue = [x for x in self.queue[self.head:] if x != d]
        self.head = 0
        self.stages.pop(d, None)


class Simulator:
    """An event queue with a clock.

    A bare simulator runs callables.  A pipeline run
    (:class:`~repro.sim.pipeline._Run`) subclasses it, adds workers, sets
    the context below and provides ``reassign_or_drop``, which the loop
    calls when a receiver died mid-transfer.  The loop reads the context
    only for worker events.
    """

    graph = None            # ModuleGraph: edge table of the workers' transfers
    factor = None           # noise draw per phase: factor(dataset)
    draws = None            # the buffer factor pops, if it is a plain pop
    comm_factor = None      # per transfer: comm_factor(in_flight, dataset)
    comm_draws = None       # the buffer comm_factor pops, if it is a plain pop
    interference = None     # ... times interference[in_flight]
    trace = None            # None, or a recorder told every busy interval
    faults = None           # FaultModel drawing transient transfer faults
    completions = injections = None   # per-data-set sink end / source start
    busy_order = None       # workers, in the order they first got busy
    _rendezvous = None      # rendezvous key -> the worker waiting there
    faults_injected = None  # FaultEvents the run injected
    active_transfers = 0
    left = 0                # completions outstanding

    def __init__(self):
        self._heap: list[tuple] = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
        self._stopped = False

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} seconds into the past")
        heappush(self._heap, (self.now + delay, self._seq, callback))
        self._seq += 1

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute time (>= now).

        The event is queued at ``time`` itself — not ``now + (time - now)``,
        whose round-trip through a relative delay can land one ulp away from
        the requested instant — so absolute timestamps (fault scripts,
        epoch boundaries) fire exactly where they were written.  A ``time``
        within one epsilon *below* the clock is accepted and fires
        immediately at ``now`` rather than raising a spurious "past" error.
        """
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule at t={time}: clock is already at {self.now}"
            )
        heappush(self._heap, (max(time, self.now), self._seq, callback))
        self._seq += 1

    def stop(self) -> None:
        """Halt the run loop after the current event.

        Pending events stay queued; a subsequent :meth:`run` resumes them.
        Used by the fault-tolerant pipeline to freeze a stream the moment a
        remap becomes necessary.
        """
        self._stopped = True

    def run(self) -> float:
        """Process events in time order until the queue empties or an event
        invokes :meth:`stop`.  Returns the final clock value.

        Events are counted in a local that reaches :attr:`events_processed`
        once, when the loop exits — also when an event raises, in which
        case that event is not counted.
        """
        self._stopped = False
        self._loop(None, PUMP)
        return self.now

    def advance(self, w: Worker) -> None:
        """Start ``w`` on its next queued data set, outside the event loop
        (a run's start, work handed over by a failure), and advance it
        until it blocks."""
        self._loop(w, PUMP)

    def withdraw(self, edges: list[int], d: int, w: Worker) -> None:
        """Remove ``w`` from its not-yet-paired rendezvous on ``edges``."""
        rv, n_edges = self._rendezvous, len(self.graph.edge_src)
        for edge in edges:
            if rv.get(d * n_edges + edge) is w:
                del rv[d * n_edges + edge]

    def _loop(self, w: Worker | None, step: int) -> None:
        """The event loop, or — given a worker ``w`` — one advance of
        ``w`` from ``step`` that stops once it blocks.

        Hot state lives in locals: the clock (synced to :attr:`now`
        before a callable runs and when the loop exits), the sequence
        counter and the in-flight count :attr:`active_transfers`
        (likewise, and also around the recursion for a receiver that died
        mid-transfer; the two are read back after a callable or that
        recursion), the event count and the pending push.  Only a
        callable can :meth:`stop` the loop, so the flag is read only after
        one.
        """
        heap = self._heap
        pop, pushpop, push = heappop, heappushpop, heappush
        now, seq, active = self.now, self._seq, self.active_transfers
        factor, comm_factor, trace = self.factor, self.comm_factor, self.trace
        draws, cdraws, interf = self.draws, self.comm_draws, self.interference
        faults, busy_order, rv = self.faults, self.busy_order, self._rendezvous
        completions, injections = self.completions, self.injections
        graph = self.graph
        if graph is not None:
            esrc, ebase, elabel = graph.edge_src, graph.edge_base, graph.edge_label
            esamples = graph.edge_samples
            hop, n_edges = graph.hop, len(esrc)
        solo = w is not None
        worker_cls = Worker
        nxt = None      # a second worker to advance: (worker, step)
        pending = None  # the event the last advance made, not yet pushed
        n = 0
        try:
            while True:
                if w is None:
                    if pending is not None:
                        time, _, w = pushpop(heap, pending)
                        pending = None
                    elif heap:
                        time, _, w = pop(heap)
                    else:
                        break
                    if time > now:
                        now = time
                    elif time < now - 1e-12:
                        raise SimulationError(
                            "event queue corrupted: time went backwards")
                    if w.__class__ is not worker_cls:
                        self.now, self._seq, self.active_transfers = (
                            now, seq, active)
                        w()
                        seq, active = self._seq, self.active_transfers
                        n += 1
                        w = None
                        if self._stopped:
                            break
                        continue
                    st = w.state
                    if st == EXEC:          # a phase completed
                        step = PHASE
                    elif st == XFER_RECV:   # the transfer w receives completed
                        active -= 1
                        peer = w.peer
                        if not w.alive:
                            # The receiver died mid-transfer.  The data
                            # arrived but nobody owns it: hand the data set
                            # to a surviving instance, or drop it for
                            # end-of-stream replay.  (A dead *sender* needs
                            # nothing: downstream has the data.)
                            self.now, self._seq, self.active_transfers = (
                                now, seq, active)
                            if not w.first and peer.alive:
                                self._loop(peer, SEND)
                            w.state = IDLE
                            self.reassign_or_drop(w.module, w.d, BEGIN)
                            if w.first and peer.alive:
                                self._loop(peer, SEND)
                            seq, active = self._seq, self.active_transfers
                            n += 1
                            w = None
                            continue
                        # Resume both endpoints, first arrival first.
                        step = RECV
                        if peer.alive:
                            if w.first:
                                nxt = (peer, SEND)
                            else:
                                nxt = (w, RECV)
                                w, step = peer, SEND
                    else:                   # a dead instance's phase completion
                        n += 1
                        w = None
                        continue

                # Advance ``w`` from ``step`` until it blocks, having made
                # its next event (the pending push) or nothing, when it
                # waits at a rendezvous or runs out of work.
                while True:
                    if step == PHASE:
                        idx = w.idx
                        if idx < w.nph:
                            w.idx = idx + 1
                            kind, label, base, samples = w.phases[idx]
                            d = w.d
                            dur = base * (draws.pop() if draws else factor(d))
                            if not w.ran:
                                w.ran = True
                                busy_order.append(w)
                            w.busy += dur
                            if samples is not None:
                                samples.append((now + dur) - now)
                            if trace is not None:
                                trace.add(w.module, w.instance, kind, label, d,
                                          now, now + dur)
                            if dur < 0:
                                raise SimulationError(
                                    f"cannot schedule {dur} seconds into the past")
                            if pending is not None:
                                push(heap, pending)
                            pending = (now + dur, seq, w)
                            seq += 1
                            break
                        w.idx = 0
                        step = SEND
                    if step == SEND:
                        k = w.idx
                        nout = w.nout
                        if k < nout:
                            w.idx = k + 1
                            w.state = WAIT_SEND
                            edge = w.outs[k]
                            step = ARRIVE
                        else:
                            if not nout:
                                completions[w.d] = now
                                self.left -= 1
                            step = PUMP
                    if step == PUMP:
                        if not w.alive:
                            break
                        queue, head = w.queue, w.head
                        if head >= len(queue):
                            w.state = IDLE
                            break
                        d = queue[head]
                        w.head = head + 1
                        if d > w.high:
                            w.high = d
                        w.d = d
                        w.idx = 0
                        step = w.stages.pop(d, RECV) if w.stages else RECV
                        if step == SEND:
                            continue
                    if step == RECV:
                        k = w.idx
                        if k < w.nin:
                            w.idx = k + 1
                            w.state = WAIT_RECV
                            edge = w.ins[k]
                            step = ARRIVE
                        else:
                            step = BEGIN
                    if step == BEGIN:
                        w.state = EXEC
                        if not w.nin:
                            injections[w.d] = now
                        w.idx = 0
                        step = PHASE
                        continue
                    # ARRIVE: meet the partner on ``edge``, or wait for it.
                    d = w.d
                    key = d * n_edges + edge
                    wa = rv.pop(key, None)
                    if wa is None:
                        rv[key] = w
                        break
                    if wa.module == esrc[edge]:
                        sender, receiver = wa, w
                    else:
                        sender, receiver = w, wa
                    if cdraws:
                        dur = ebase[edge] * (cdraws.pop() * interf[active])
                    else:
                        dur = ebase[edge] * comm_factor(active, d)
                    if hop is not None:
                        dur *= hop[edge][sender.instance][receiver.instance]
                    # Transient communication faults: each failed attempt
                    # burns a full transfer duration plus the retry backoff
                    # before the retransmission succeeds; both endpoints
                    # stay busy throughout.
                    wasted = 0.0
                    if faults is not None:
                        retries = faults.transfer_attempts() - 1
                        if retries > 0:
                            wasted = retries * (dur + faults.comm_retry_backoff)
                            self.faults_injected.append(FaultEvent(
                                "comm_transient", now, receiver.module,
                                receiver.instance,
                                f"{retries} retries on {elabel[edge]}"))
                    total = wasted + dur
                    active += 1
                    # Both endpoints are busy throughout; ``wa`` arrived
                    # first, so it is the first of the two to become busy.
                    if not wa.ran:
                        wa.ran = True
                        busy_order.append(wa)
                    wa.busy += total
                    if not w.ran:
                        w.ran = True
                        busy_order.append(w)
                    w.busy += total
                    if sender.state and sender.d == d:
                        sender.state = XFER_SEND
                    if receiver.state and receiver.d == d:
                        receiver.state = XFER_RECV
                    if esamples is not None:
                        esamples[edge].append((now + total) - (now + wasted))
                    if trace is not None:
                        label = elabel[edge]
                        if wasted > 0.0:
                            for x in (wa, w):
                                trace.add(x.module, x.instance, "fault", label,
                                          d, now, now + wasted)
                        for x in (wa, w):
                            trace.add(x.module, x.instance,
                                      "send" if x is sender else "recv", label,
                                      d, now + wasted, now + total)
                    receiver.peer, receiver.first = sender, receiver is wa
                    if total < 0:
                        raise SimulationError(
                            f"cannot schedule {total} seconds into the past")
                    if pending is not None:
                        push(heap, pending)
                    pending = (now + total, seq, receiver)
                    seq += 1
                    break

                if nxt is not None:
                    w, step = nxt
                    nxt = None
                    continue
                if solo:
                    break
                n += 1
                w = None
            if pending is not None:
                push(heap, pending)
        finally:
            self.now, self._seq, self.active_transfers = now, seq, active
            self.events_processed += n
