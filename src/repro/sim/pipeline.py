"""Discrete-event simulation of a mapped task pipeline (paper §2.1 model).

The simulator executes a :class:`~repro.core.Mapping` of a task chain on
virtual processors and *measures* throughput and latency, playing the role
of the paper's iWarp runs.  The event engine runs any module graph
described by a :class:`~repro.sim.modulegraph.ModuleGraph`;
:func:`repro.fjgraph.simulate_fj` runs fork/join graphs on it.  Its
semantics follow the paper's execution model exactly:

* a module instance processes one data set at a time: receive → execute
  (its tasks and internal redistributions, in order) → send;
* an external transfer is a *rendezvous* — sender and receiver instances
  are both busy for the entire communication step;
* replicated instances serve the data-set stream round-robin
  (instance ``d mod r``);
* per-operation jitter and transfer interference (the "second-order
  effects" of §6.4) come from a seeded :class:`NoiseModel`.

Durations are drawn from the chain's cost models at the mapping's
per-instance processor counts, so with noise disabled the measured
steady-state throughput converges exactly to the analytic
``1 / max_i(f_i / r_i)`` — a property the test suite checks.

Fault tolerance
---------------
A seeded :class:`~repro.sim.faults.FaultModel` injects processor failures
and transient communication faults (see ``docs/fault_tolerance.md``):

* a **transient communication fault** retries the transfer after a backoff;
  both rendezvous endpoints stay busy through the wasted attempts;
* a **processor failure** kills one module instance.  A replicated module
  *degrades*: the dead instance's pending data sets are redistributed over
  the survivors (keeping every queue ascending — the ordering invariant
  that makes the blocking rendezvous protocol deadlock-free); a data set no
  survivor can legally absorb is dropped and replayed end to end after the
  stream drains.  Module inputs/outputs are mirrored across instances, so a
  survivor can restart a dead peer's in-progress data set without
  re-receiving it;
* when a module loses its *last* instance the mapping itself is dead:
  the engine freezes and :func:`simulate_fault_tolerant` re-runs the DP
  solver on the surviving processors (via
  :class:`~repro.core.remap.RemapPlanner`, reusing the solver's segment
  cache across re-solves), charges a configurable remap latency to the
  stream, and replays the unfinished data sets under the new mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.exceptions import InfeasibleError, SimulationError
from ..core.mapping import Mapping
from ..core.remap import RemapPlanner
from ..core.task import TaskChain
from ..core.validate import ensure_valid_plan
from .controller import EpochObservation
from .engine import (
    BEGIN,
    EXEC,
    IDLE,
    RECV,
    SEND,
    WAIT_RECV,
    WAIT_SEND,
    XFER_RECV,
    Simulator,
    Worker,
)
from .fastpath import _Pipeline, run_segment
from .faults import EpochStats, FaultEvent, FaultModel, RemapRecord
from .modulegraph import ModuleGraph, chain_graph
from .noise import NoiseModel
from .trace import TraceLog

__all__ = [
    "SimulationResult", "simulate", "simulate_fast", "simulate_fault_tolerant",
]

#: Segments a fault-tolerant stream may take before it must have drained.
MAX_SEGMENTS = 32


@dataclass
class SimulationResult:
    """Measured behaviour of one simulated run."""

    n_datasets: int
    makespan: float                    # time of the last completion
    throughput: float                  # steady-state data sets / second
    mean_latency: float                # mean end-to-end time per data set
    completions: np.ndarray            # completion time per data set
    injections: np.ndarray             # source-module start time per data set
    warmup: int                        # data sets excluded from the steady window
    events_processed: int              # events the event engine processed (or,
                                       # for the fast path, would have processed)
    engine: str = "event"              # which engine produced this result
    # (module, instance) -> busy time / makespan
    busy_fractions: dict = field(default_factory=dict)
    trace: TraceLog | None = None
    # -- fault-tolerance accounting (empty/trivial for healthy runs) -------
    failures: list = field(default_factory=list)   # FaultEvent records
    remaps: list = field(default_factory=list)     # RemapRecord per remap
    epochs: list = field(default_factory=list)     # EpochStats per window
    availability: float = 1.0          # 1 - remap downtime / makespan
    # The mapping the stream ended on (an FJMapping from simulate_fj).
    final_mapping: Mapping | None = None
    # The AdaptiveController that drove the run (None for plain runs); its
    # records/log expose the per-epoch monitoring the result was built from.
    controller: object | None = None

    def module_utilization(self, module: int) -> float:
        """Mean busy fraction across a module's instances."""
        vals = [f for (m, _), f in self.busy_fractions.items() if m == module]
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def measured_bottleneck(self) -> int:
        """The busiest module — in steady state, the throughput bottleneck."""
        modules = sorted({m for m, _ in self.busy_fractions})
        return max(modules, key=self.module_utilization)

    @property
    def processor_failures(self) -> list:
        return [f for f in self.failures if f.kind == "proc_fail"]

    @property
    def comm_faults(self) -> list:
        return [f for f in self.failures if f.kind == "comm_transient"]

    def __repr__(self):
        extra = ""
        if self.failures or self.remaps:
            extra = (
                f", failures={len(self.processor_failures)}"
                f", remaps={len(self.remaps)}"
                f", availability={self.availability:.4f}"
            )
        return (
            f"{type(self).__name__}(throughput={self.throughput:.4g}/s, "
            f"latency={self.mean_latency:.4g}s, n={self.n_datasets}{extra})"
        )


class _Run(Simulator):
    """All shared state of one simulation segment, on the event engine.

    Sets the segment's workers up (round-robin over each module's live
    instances) and owns what the event loop does not: fault scheduling and
    failure semantics.  ``trace`` is ``None`` or a recorder: any object with
    :meth:`TraceLog.add <repro.sim.trace.TraceLog.add>`'s signature, told
    every busy interval in event order.  A module's instances share its
    phase tuples, so a sampled graph's phase sample lists (see
    :class:`~repro.sim.modulegraph.ModuleGraph`) pool every instance's
    durations in event order.
    """

    def __init__(self, graph: ModuleGraph, datasets,
                 noise: NoiseModel, trace,
                 completions: np.ndarray, injections: np.ndarray,
                 faults: FaultModel | None = None,
                 dead: set | None = None,
                 start_time: float = 0.0,
                 busy_time: dict | None = None):
        super().__init__()
        self.now = start_time
        self.graph = graph
        self.noise = noise
        # Per-operation draws, bound once per run.
        self.factor = noise.factor
        self.draws = noise.factor_buffer()
        self.comm_factor = noise.comm_factor
        self.trace = trace
        self.completions = completions
        self.injections = injections
        self.faults = faults
        self.busy_time: dict[tuple[int, int], float] = (
            busy_time if busy_time is not None else {}
        )
        self.busy_order: list[Worker] = []
        self._rendezvous: dict[int, Worker] = {}
        self.left = len(datasets)
        self.dropped: set[int] = set()     # datasets needing end-to-end replay
        self.faults_injected: list[FaultEvent] = []
        self.remap_needed: tuple | None = None
        self._rr: dict[int, int] = {}      # round-robin reassignment cursors

        # Module instances; instances listed in ``dead`` start dead (they
        # failed in an earlier segment of the same degraded mapping) and
        # receive no work.
        dead = dead or set()
        busy = self.busy_time
        self.module_workers: list[list[Worker]] = []
        self.workers: list[Worker] = []
        for i, replicas in enumerate(graph.replicas):
            live = [c for c in range(replicas) if (i, c) not in dead]
            if not live:
                self.remap_needed = (start_time, i, -1)
                live = list(range(replicas))  # moot: the run never starts
            # Round-robin over the live instances: live[j] takes every
            # len(live)-th data set from position j.
            buckets = {c: range(0) for c in range(replicas)}
            for j, c in enumerate(live):
                buckets[c] = datasets[j::len(live)]
            ins, outs, phases = (graph.in_edges[i], graph.out_edges[i],
                                 graph.phases[i])
            group = [Worker(i, c, ins, outs, phases, buckets[c],
                            busy.get((i, c), 0.0)) for c in range(replicas)]
            for w in group:
                if (i, w.instance) in dead:
                    w.alive = False
            self.module_workers.append(group)
            self.workers.extend(group)
        self.workers_by_mi = {w.key: w for w in self.workers}

    def execute(self) -> None:
        """Run the segment until it drains or freezes, then write each
        worker's busy seconds back to the busy dict.

        The write-back goes in the order the workers first became busy,
        which is the order the dict would have gained their keys had every
        operation updated it, and adds no key for a worker that never ran.
        """
        for w in self.workers:
            self.advance(w)
        self._schedule_faults()
        self.run()
        busy = self.busy_time
        for w in self.busy_order:
            busy[w.key] = w.busy

    # -- failure semantics --------------------------------------------------
    def kill_instance(self, module: int, instance: int) -> bool:
        """Deliver a processor failure to one module instance.

        Replicated module: redistribute the dead instance's work over the
        survivors (degrade).  Last instance: freeze the engine and request a
        remap.  Returns False when the addressed instance is already dead.
        """
        w = self.workers_by_mi.get((module, instance))
        if w is None or not w.alive:
            return False
        t = self.now
        w.alive = False
        self.faults_injected.append(FaultEvent("proc_fail", t, module, instance))
        if self.trace is not None:
            self.trace.add(module, instance, "fail", "processor-failure", -1, t, t)
        survivors = [x for x in self.module_workers[module] if x.alive]
        items = w.take_all()
        state, d = w.state, w.d
        if state == WAIT_RECV:
            self.withdraw(w.ins, d, w)
            items.insert(0, (d, RECV))
        elif state == EXEC:
            items.insert(0, (d, BEGIN))
        elif state == WAIT_SEND:
            self.withdraw(w.outs, d, w)
            items.insert(0, (d, SEND))
        # An in-flight receive resolves when its transfer completes: the
        # event loop routes that completion by the XFER_RECV state.  An
        # in-flight send needs nothing (downstream gets the data).
        if state != XFER_RECV:
            w.state = IDLE
        if not survivors:
            # Unreplicated (or fully dead) module: the stream cannot continue
            # under this mapping.  Freeze and hand over to the orchestrator
            # for a DP-driven remap.
            self.remap_needed = (t, module, instance)
            self.stop()
            return True
        for d, start in items:
            self.reassign_or_drop(module, d, start)
        return True

    def reassign_or_drop(self, module: int, dataset: int, start: int) -> None:
        """Hand an orphaned dataset to a surviving instance of ``module``,
        to (re)start at ``start`` (``RECV``, ``BEGIN`` or ``SEND``).

        Only a survivor that has not yet advanced past ``dataset`` may take
        it — inserting behind a larger in-flight dataset would break the
        ascending-queue invariant and can deadlock the blocking rendezvous
        protocol (the downstream owner of the smaller dataset would wait on
        it while its producer is blocked sending the larger one).  When no
        survivor is eligible the dataset is dropped from this pass and
        replayed end to end after the stream drains.
        """
        survivors = [x for x in self.module_workers[module] if x.alive]
        eligible = [x for x in survivors if x.high < dataset]
        if not eligible:
            self.drop_dataset(dataset, module)
            return
        counter = self._rr.get(module, 0)
        self._rr[module] = counter + 1
        w = eligible[counter % len(eligible)]
        w.insert_item(dataset, start)
        if w.state == IDLE:
            self.advance(w)

    def drop_dataset(self, dataset: int, from_module: int) -> None:
        """Remove a dataset from the current pass (end-of-stream replay).

        Downstream owners must stop expecting it: nobody will produce it on
        this pass, and a blocked receiver waiting on the dropped dataset
        would deadlock the stream.
        """
        self.dropped.add(dataset)
        self.left -= 1
        for m in range(from_module + 1, len(self.graph)):
            for x in self.module_workers[m]:
                if not x.alive:
                    continue
                x.remove_dataset(dataset)
                if x.state == WAIT_RECV and x.d == dataset:
                    self.withdraw(x.ins, dataset, x)
                    x.state = IDLE
                    self.advance(x)

    # -- fault scheduling ---------------------------------------------------
    def _schedule_faults(self) -> None:
        if self.faults is None:
            return
        for idx, f in self.faults.pending_failures():
            t = max(f.time, self.now)

            def fire(idx=idx, f=f):
                if self.left <= 0:
                    return  # stream already drained; leave undelivered
                self.faults.mark_delivered(idx)
                victim = self._resolve_victim(f)
                if victim is not None:
                    self.kill_instance(*victim)

            self.schedule_at(t, fire)
        delay = self.faults.next_random_failure_delay()
        if delay is not None:
            self.schedule(delay, self._random_failure)

    def _resolve_victim(self, f) -> tuple[int, int] | None:
        alive = [(x.module, x.instance) for x in self.workers if x.alive]
        if not alive:
            return None
        if f.module is None:
            return self.faults.choose_victim(alive)
        m = min(f.module, len(self.graph) - 1)
        candidates = [mi for mi in alive if mi[0] == m]
        if not candidates:
            return self.faults.choose_victim(alive)
        inst = f.instance % self.graph.replicas[m]
        for mi in candidates:
            if mi[1] == inst:
                return mi
        return candidates[0]

    def _random_failure(self) -> None:
        if self.faults is None or self.left <= 0:
            return
        alive = [(x.module, x.instance) for x in self.workers if x.alive]
        if alive:
            m, i = self.faults.choose_victim(alive)
            self.faults.record_random_failure()
            self.kill_instance(m, i)
        if self.remap_needed is None and self.left > 0:
            delay = self.faults.next_random_failure_delay()
            if delay is not None:
                self.schedule(delay, self._random_failure)


def _pooled_throughput(completions: np.ndarray, warmup: int) -> float:
    """Endpoint throughput estimate over the pooled completion stream:
    the completions after the ``warmup``-th (after the first, with no
    warm-up) over the time since it."""
    ordered = np.sort(completions[np.isfinite(completions)])
    n = len(ordered)
    warmup = max(warmup, 1)
    if warmup >= n:
        raise SimulationError(
            f"degenerate steady-state window: {n} completions, {warmup} of "
            f"them warm-up; run more data sets"
        )
    t0 = ordered[warmup - 1]
    t1 = ordered[-1]
    if t1 <= t0:
        raise SimulationError(
            f"degenerate steady-state window: the last {n - warmup + 1} of "
            f"{n} completions fall at one instant (t = {float(t1)!r}), so the "
            f"run shows no steady state; run more data sets"
        )
    return float((n - warmup) / (t1 - t0))


def _measure_throughput(completions: np.ndarray, r_last: int,
                        warmup: int) -> float:
    """Steady-state throughput estimate.

    Replicated sink instances (``r_last`` of them) complete in
    interleaved waves; when the data-set count does not divide the
    replica count, the trailing partial wave biases a naive endpoint
    estimate.  Instead each sink instance's own completion stream
    (strictly periodic in steady state) is rated individually and the
    rates are summed; instances with too few post-warmup completions fall
    back to the pooled endpoint estimate.
    """
    skip = max(1, warmup // r_last)  # each instance's share of the warm-up
    total = 0.0
    for c in range(r_last):
        steady = completions[c::r_last][skip:]
        if len(steady) < 3 or steady[-1] <= steady[0]:
            return _pooled_throughput(completions, warmup)
        total += (len(steady) - 1) / (steady[-1] - steady[0])
    return float(total)


def _default_warmup(n_datasets: int, n_modules: int, warmup_fraction: float) -> int:
    return min(
        n_datasets - 2,
        max(1, int(n_datasets * warmup_fraction), 2 * n_modules),
    )


def _pick_engine(engine: str, noise: NoiseModel, faults: FaultModel | None,
                 collect_trace: bool) -> str:
    """Pick (or validate) the engine that runs every segment of a stream.

    The fast path runs exactly the streams it reproduces bit for bit: no
    active faults, no trace, and deterministic noise (silent, or
    jitter-free and interference-free
    :class:`~repro.sim.noise.DriftNoiseModel` drift).  ``"auto"`` takes it
    for those and the event engine otherwise; ``"fast"`` raises for the
    rest.
    """
    if engine == "event":
        return "event"
    if engine not in ("auto", "fast"):
        raise SimulationError(
            f"unknown engine {engine!r}: expected 'auto', 'event' or 'fast'"
        )
    eligible = ((faults is None or not faults.active) and not collect_trace
                and noise.deterministic)
    if eligible:
        return "fast"
    if engine == "fast":
        raise SimulationError(
            "fast engine runs only what it reproduces bit for bit: no "
            "faults, no trace, no jitter and no transfer interference; use "
            "engine='event' (or simulate_fault_tolerant() for faults)"
        )
    return "event"


@dataclass
class _Segment:
    """One uninterrupted stretch of the stream on one mapping."""

    mapping: Mapping
    datasets: range | list           # ascending global data-set indices
    t0: float = 0.0                  # release time of every instance
    dead: set = field(default_factory=set)   # instances that start dead
    busy: dict | None = None         # busy-seconds sink (None: the stream's)


class _Stream:
    """The shared state every segment of one stream writes into."""

    def __init__(self, chain: TaskChain | None, n: int, noise: NoiseModel,
                 engine: str, trace,
                 faults: FaultModel | None, placements, hop_penalty: float,
                 stats: dict | None, graph: ModuleGraph | None):
        self.chain = chain
        self.graph = graph
        self.noise = noise
        self.engine = engine
        self.trace = trace
        self.faults = faults if faults is not None and faults.active else None
        self.placements = placements
        self.hop_penalty = hop_penalty
        self.stats = stats
        self.completions = np.full(n, np.nan)
        self.injections = np.full(n, np.nan)
        self.busy: dict[tuple[int, int], float] = {}
        self.events = 0
        self.failures: list[FaultEvent] = []
        self.remaps: list[RemapRecord] = []
        self._graphs: dict[Mapping, ModuleGraph] = {}
        self._pipes: dict[Mapping, _Pipeline] = {}

    def describe(self, mapping) -> ModuleGraph:
        """The module graph ``mapping`` runs on: the stream's fixed
        ``graph``, or the chain's description (built once per mapping)."""
        if self.graph is not None:
            return self.graph
        graph = self._graphs.get(mapping)
        if graph is None:
            graph = self._graphs[mapping] = chain_graph(
                self.chain, mapping, self.placements, self.hop_penalty)
        return graph

    def run(self, seg: _Segment) -> _Run | None:
        """Execute one segment; returns its event-engine state (``None``
        for a fast segment, which cannot fail)."""
        busy = self.busy if seg.busy is None else seg.busy
        if self.engine == "fast":
            pipe = self._pipes.get(seg.mapping)
            if pipe is None:
                pipe = self._pipes[seg.mapping] = _Pipeline(
                    self.describe(seg.mapping))
            self.events += run_segment(
                pipe, self.completions, self.injections, seg.datasets,
                seg.t0, self.noise, busy, stats=self.stats)
            return None
        run = _Run(self.describe(seg.mapping), seg.datasets, self.noise,
                   self.trace, completions=self.completions,
                   injections=self.injections, faults=self.faults,
                   dead=seg.dead, start_time=seg.t0, busy_time=busy)
        if run.remap_needed is None:
            run.execute()
        self.events += run.events_processed
        self.failures.extend(run.faults_injected)
        return run


class _Once:
    """No policy: the stream is one segment, and whatever that segment
    cannot absorb (a lost last instance, a dropped data set) raises."""

    drains = False       # epoch boundaries drain the pipeline
    epochs = None        # policy-kept epoch accounting (None: by faults)
    controller = None

    def __init__(self, mapping: Mapping, n: int):
        self.mapping = mapping
        self.n = n

    def first(self) -> _Segment:
        return _Segment(self.mapping, range(self.n))

    def next(self, stream: _Stream, seg: _Segment, run) -> None:
        if run is None:
            return None
        if run.remap_needed is not None:
            t, module, _ = run.remap_needed
            raise SimulationError(
                f"module {module} lost its only instance at t={t:.4g}; use "
                f"simulate_fault_tolerant() for DP-driven remapping"
            )
        if run.dropped:
            raise SimulationError(
                f"{len(run.dropped)} data sets were dropped during degradation "
                f"and need an end-of-stream replay; use simulate_fault_tolerant()"
            )
        return None


class _FaultReplan(_Once):
    """Fault re-plan: replay dropped data sets under the degraded mapping,
    or re-solve on the survivors when a module loses its last instance."""

    def __init__(self, mapping: Mapping, n: int, faults: FaultModel,
                 machine_procs: int, remap_latency: float,
                 mem_per_proc_mb: float, planner):
        super().__init__(mapping, n)
        self.faults = faults
        self.machine_procs = machine_procs
        self.remap_latency = remap_latency
        self.mem_per_proc_mb = mem_per_proc_mb
        self.planner = planner
        self.segments = 0

    def _segment(self, mapping, datasets, t0=0.0, dead=None) -> _Segment:
        if self.segments >= MAX_SEGMENTS:
            raise SimulationError(
                f"stream did not drain within {MAX_SEGMENTS} segments "
                f"({len(datasets)} data sets outstanding)"
            )
        self.segments += 1
        self.mapping = mapping
        return _Segment(mapping, datasets, t0, dead if dead is not None else set())

    def first(self) -> _Segment:
        return self._segment(self.mapping, range(self.n))

    def next(self, stream: _Stream, seg: _Segment, run) -> _Segment | None:
        if run is None:
            return None
        dead = seg.dead
        for f in run.faults_injected:
            if f.kind == "proc_fail":
                dead.add((f.module, f.instance))
        unfinished = [d for d in seg.datasets
                      if np.isnan(stream.completions[d])]
        if not unfinished:
            return None  # drained (a fatal failure may strike afterwards)
        # Unfinished data sets replay end to end: forget their injections.
        stream.injections[unfinished] = np.nan
        if run.remap_needed is None:
            # Dropped during degradation: replay at the tail of the stream
            # under the same (degraded) mapping.
            return self._segment(seg.mapping, unfinished, run.now, dead)
        t_fail, module, _ = run.remap_needed
        surviving = self.machine_procs - self.faults.procs_lost
        if self.planner is None:
            self.planner = RemapPlanner(
                stream.chain, mem_per_proc_mb=self.mem_per_proc_mb
            )
        try:
            plan = self.planner.plan(surviving)
        except InfeasibleError as exc:
            raise SimulationError(
                f"stream aborted at t={t_fail:.4g}: chain no longer fits "
                f"on the {surviving} surviving processors ({exc})"
            ) from exc
        resume = t_fail + self.remap_latency
        stream.remaps.append(
            RemapRecord(
                time=t_fail,
                resume_time=resume,
                failed_module=module,
                surviving_procs=surviving,
                old_mapping=seg.mapping,
                new_mapping=plan.mapping,
                predicted_throughput=plan.throughput,
                datasets_replayed=len(unfinished),
            )
        )
        if stream.trace is not None:
            stream.trace.add(-1, 0, "remap", f"remap@P={surviving}", -1,
                             t_fail, resume)
        # The new mapping only uses surviving processors: nobody starts dead.
        return self._segment(plan.mapping, unfinished, resume)


class _Controlled(_Once):
    """Adaptive control: the stream runs in epochs that drain at every
    boundary; the controller observes each epoch and may remap."""

    drains = True

    def __init__(self, mapping: Mapping, n: int, controller):
        super().__init__(mapping, n)
        self.controller = controller
        self.epochs: list[EpochStats] = []

    def _epoch(self, mapping: Mapping, d0: int, t0: float) -> _Segment:
        size = self.controller.config.epoch_datasets
        self.mapping = mapping
        # A fresh busy sink per epoch: the controller observes epoch totals.
        return _Segment(mapping, range(d0, min(d0 + size, self.n)), t0,
                        busy={})

    def first(self) -> _Segment:
        return self._epoch(self.mapping, 0, 0.0)

    def next(self, stream: _Stream, seg: _Segment, run) -> _Segment | None:
        ctrl = self.controller
        for key, v in seg.busy.items():
            stream.busy[key] = stream.busy.get(key, 0.0) + v
        d0, d1 = seg.datasets.start, seg.datasets.stop
        t_end = float(np.max(stream.completions[d0:d1]))
        decision = ctrl.observe(EpochObservation(
            index=len(self.epochs), start=d0, stop=d1, t_start=seg.t0,
            t_end=t_end, busy=seg.busy, remaining=self.n - d1,
        ))
        self.epochs.append(
            EpochStats(seg.t0, t_end, d1 - d0, (d1 - d0) / (t_end - seg.t0),
                       decision.action)
        )
        mapping, t0 = seg.mapping, t_end
        if decision.remap:
            ensure_valid_plan(
                stream.chain, decision.mapping, total_procs=ctrl.total_procs,
                mem_per_proc_mb=ctrl.planner.mem_per_proc_mb,
            )
            t0 = t_end + ctrl.config.remap_latency
            stream.remaps.append(
                RemapRecord(
                    time=t_end,
                    resume_time=t0,
                    failed_module=-1,  # no failure: drift-triggered remap
                    surviving_procs=ctrl.total_procs,
                    old_mapping=mapping,
                    new_mapping=decision.mapping,
                    predicted_throughput=decision.predicted_rate,
                    datasets_replayed=0,
                )
            )
            mapping = decision.mapping
        return self._epoch(mapping, d1, t0) if d1 < self.n else None


def _run_segments(chain: TaskChain | None, policy: _Once, n: int,
                  noise: NoiseModel, engine: str,
                  faults: FaultModel | None = None, trace=None,
                  placements=None, hop_penalty: float = 0.0,
                  stats: dict | None = None,
                  graph: ModuleGraph | None = None) -> _Stream:
    """Run a stream segment by segment under ``policy``; return its state.

    Every segment runs on the one engine :func:`_pick_engine` chose and
    writes into the stream's shared ``completions``/``injections``/busy
    state; at each boundary the policy decides the next segment (mapping,
    data sets, release time) or ends the stream.  Segments run on the
    chain's description of their mapping, or on ``graph`` when given (a
    fork/join module graph, or a profiling run's chain graph with sample
    lists: one ``_Once`` segment on the event engine).
    ``trace`` is ``None`` or a recorder (see :class:`_Run`); a recorder
    keeps the stream on the event engine.  Raises when a data set never
    completed.
    """
    eng = _pick_engine(engine, noise, faults, trace is not None)
    stream = _Stream(chain, n, noise, eng, trace, faults, placements, hop_penalty,
                     stats, graph)
    seg = policy.first()
    while seg is not None:
        seg = policy.next(stream, seg, stream.run(seg))
    if np.isnan(stream.completions).any():
        raise SimulationError("simulation deadlocked: some data sets never completed")
    return stream


def _run_stream(chain: TaskChain | None, policy: _Once, n: int,
                noise: NoiseModel, engine: str, warmup_fraction: float,
                faults: FaultModel | None = None, trace=None,
                placements=None, hop_penalty: float = 0.0,
                stats: dict | None = None,
                graph: ModuleGraph | None = None) -> SimulationResult:
    """Run a stream under ``policy`` (see :func:`_run_segments`) and
    summarise it."""
    start = policy.mapping
    stream = _run_segments(chain, policy, n, noise, engine, faults, trace,
                           placements, hop_penalty, stats, graph)
    return _finish(stream, policy, n, start, warmup_fraction)


def _finish(stream: _Stream, policy: _Once, n: int, start: Mapping,
            warmup_fraction: float) -> SimulationResult:
    """The one result builder: warm-up, throughput, epochs, availability."""
    completions, injections = stream.completions, stream.injections
    warmup = _default_warmup(n, len(stream.describe(start)), warmup_fraction)
    final = policy.mapping
    if policy.drains or any(f.kind == "proc_fail" for f in stream.failures):
        # Drained epochs and degraded instances break per-instance
        # periodicity: rate the pooled completion stream instead.
        throughput = _pooled_throughput(completions, warmup)
    else:
        graph = stream.describe(final)
        throughput = _measure_throughput(completions, graph.replicas[graph.sink],
                                         warmup)
    latencies = completions[warmup:] - injections[warmup:]
    makespan = float(completions.max())
    downtime = sum(r.downtime for r in stream.remaps)
    busy_fractions = {
        key: busy / makespan if makespan > 0 else 0.0
        for key, busy in sorted(stream.busy.items())
    }
    epochs = policy.epochs
    if epochs is None:
        epochs = _epochs_from(completions, stream.failures, stream.remaps,
                              makespan)
    return SimulationResult(
        n_datasets=n,
        makespan=makespan,
        throughput=float(throughput),
        mean_latency=float(latencies.mean()),
        completions=completions,
        injections=injections,
        warmup=warmup,
        events_processed=stream.events,
        engine=stream.engine,
        busy_fractions=busy_fractions,
        trace=stream.trace,
        failures=stream.failures,
        remaps=stream.remaps,
        epochs=epochs,
        availability=1.0 - (downtime / makespan if makespan > 0 else 0.0),
        final_mapping=final,
        controller=policy.controller,
    )


def simulate(
    chain: TaskChain,
    mapping: Mapping | None,
    n_datasets: int = 200,
    noise: NoiseModel | None = None,
    collect_trace: bool = False,
    warmup_fraction: float = 0.2,
    placements=None,
    hop_penalty: float = 0.0,
    faults: FaultModel | None = None,
    engine: str = "auto",
    controller=None,
) -> SimulationResult:
    """Run the pipeline on ``n_datasets`` inputs and measure its behaviour.

    Throughput is measured over the steady-state window (after ``warmup``
    data sets have drained the pipeline fill transient); latency is the mean
    end-to-end time of the measured data sets.

    ``engine`` selects the executor: ``"event"`` always runs the
    discrete-event engine; ``"fast"`` runs the vectorised recurrence of
    :mod:`repro.sim.fastpath`, bit-identical to the event engine, and
    raises unless the run has no active faults, no trace and deterministic
    noise (silent, or jitter-free and interference-free drift);
    ``"auto"`` (default) takes the fast path exactly for those runs and
    the event engine otherwise.

    ``placements`` (per-module lists of instance :class:`Rect` objects, one
    per replica, as produced by the feasibility checker; other counts
    raise :class:`SimulationError`) together with ``hop_penalty`` enables
    the processor-location effect: each transfer is slowed by
    ``1 + hop_penalty * manhattan_hops`` between the instance rectangles.
    The paper found locations to be second order (§2.1); the
    ``bench_placement`` experiment quantifies that with this knob.

    ``faults`` injects transient communication faults and processor
    failures that replicated modules absorb by degrading.  A failure this
    call cannot absorb — a module losing its last instance, or a data set
    that needs an end-of-stream replay — raises :class:`SimulationError`;
    use :func:`simulate_fault_tolerant` for those scenarios.

    ``controller`` (an :class:`~repro.sim.controller.AdaptiveController`)
    puts the run under online adaptive control: the stream executes in
    epochs, the controller watches observed rates against its DP
    prediction, and sustained drift triggers incremental re-solves and
    (when the payback clears the remap latency) live remaps.  ``mapping``
    may then be ``None`` to start from the controller's own DP solution.
    Faults, traces and ``placements``/``hop_penalty`` are not supported on
    controlled runs (placements describe one mapping; a controller
    remaps) and raise :class:`SimulationError`.
    """
    return _simulate(chain, mapping, n_datasets, noise, collect_trace,
                     warmup_fraction, placements, hop_penalty, faults, engine,
                     controller)


def simulate_fast(
    chain: TaskChain,
    mapping: Mapping,
    n_datasets: int,
    noise: NoiseModel,
    warmup_fraction: float = 0.2,
    placements=None,
    hop_penalty: float = 0.0,
    stats: dict | None = None,
) -> SimulationResult:
    """``simulate(..., engine="fast")`` — same checks, same result — that
    also fills ``stats`` (optional dict) with fast-path diagnostics:
    ``verified``, the data sets the bottleneck evaluator committed, and
    ``scalar_datasets``, the data sets its scalar fallback computed."""
    return _simulate(chain, mapping, n_datasets, noise, False, warmup_fraction,
                     placements, hop_penalty, None, "fast", None, stats)


def _simulate(chain, mapping, n_datasets, noise, collect_trace,
              warmup_fraction, placements, hop_penalty, faults, engine,
              controller, stats=None) -> SimulationResult:
    """:func:`simulate`, with the fast path's ``stats`` sink."""
    if n_datasets < 2:
        raise SimulationError("need at least 2 data sets to measure throughput")
    noise = noise or NoiseModel.silent()
    if controller is None:
        if mapping is None:
            raise SimulationError("mapping may only be omitted on controlled runs")
        if placements is not None and (
            [len(p) for p in placements] != [m.replicas for m in mapping.modules]
        ):
            raise SimulationError(
                "placements must give every module one rectangle per replica"
            )
        # Static pre-flight: a bad plan raises a structured PlanError (all
        # violations at once) here, never a mid-simulation deadlock/assert.
        ensure_valid_plan(chain, mapping)
        return _run_stream(chain, _Once(mapping, n_datasets), n_datasets,
                           noise, engine, warmup_fraction, faults=faults,
                           trace=TraceLog() if collect_trace else None,
                           placements=placements, hop_penalty=hop_penalty,
                           stats=stats)
    if faults is not None and faults.active:
        raise SimulationError(
            "the adaptive controller does not drive faulted runs; use "
            "simulate_fault_tolerant()"
        )
    if collect_trace:
        raise SimulationError(
            "controlled runs do not record traces; use engine='event' "
            "without a controller"
        )
    if placements is not None or hop_penalty:
        raise SimulationError(
            "controlled runs take no placements or hop_penalty: placements "
            "describe one mapping, and the controller may remap"
        )
    if controller.records:
        raise SimulationError(
            "this controller already drove a run; create a fresh one "
            "(its believed state and records are stream-specific)"
        )
    if len(controller.base_chain) != len(chain):
        raise SimulationError(
            "controller was built for a different chain structure"
        )
    start = mapping if mapping is not None else controller.mapping
    ensure_valid_plan(chain, start, total_procs=controller.total_procs,
                      mem_per_proc_mb=controller.planner.mem_per_proc_mb)
    if start != controller.mapping:
        controller.adopt(start)
    return _run_stream(chain, _Controlled(start, n_datasets, controller),
                       n_datasets, noise, engine, warmup_fraction)


def simulate_fault_tolerant(
    chain: TaskChain,
    mapping: Mapping,
    n_datasets: int = 200,
    faults: FaultModel | None = None,
    machine_procs: int | None = None,
    noise: NoiseModel | None = None,
    collect_trace: bool = False,
    warmup_fraction: float = 0.2,
    remap_latency: float = 0.05,
    mem_per_proc_mb: float = float("inf"),
    planner=None,
) -> SimulationResult:
    """Run a stream to completion across failures, degradation, and remaps.

    The stream executes in *segments*.  Within a segment, replicated
    modules absorb failures by degrading; a segment ends when either the
    stream drains, some data sets were dropped (they replay in a follow-up
    segment under the same degraded mapping), or a module lost its last
    instance — in which case the DP solver re-runs on the surviving
    ``machine_procs - procs_lost`` processors (one processor is lost per
    failure; the dead instance's other processors rejoin the pool),
    ``remap_latency`` seconds of downtime are charged, and the unfinished
    data sets replay under the new mapping.  The engine is picked by the
    same ``"auto"`` rule as :func:`simulate`, so a run whose fault model
    injects nothing may take the fast path.

    ``planner`` (a :class:`~repro.core.remap.RemapPlanner` for ``chain``
    and ``mem_per_proc_mb``) carries the solver's segment cache across
    remaps and memoises plans per surviving processor count; one is created
    on demand.  Each re-solve picks its algorithm from the chain's length.
    Raises :class:`SimulationError` when the planner serves another chain
    or memory limit, when the chain no longer fits on the survivors, or
    when the stream fails to drain within :data:`MAX_SEGMENTS` segments.
    """
    if n_datasets < 2:
        raise SimulationError("need at least 2 data sets to measure throughput")
    if planner is not None and (
        planner.chain is not chain or planner.mem_per_proc_mb != mem_per_proc_mb
    ):
        raise SimulationError(f"planner serves another chain or memory limit "
                              f"than this run of {chain.name!r}")
    faults = faults if faults is not None else FaultModel.silent()
    machine_procs = machine_procs if machine_procs is not None else mapping.total_procs
    ensure_valid_plan(
        chain, mapping, total_procs=machine_procs,
        mem_per_proc_mb=mem_per_proc_mb,
    )
    policy = _FaultReplan(mapping, n_datasets, faults, machine_procs,
                          remap_latency, mem_per_proc_mb, planner)
    return _run_stream(chain, policy, n_datasets,
                       noise or NoiseModel.silent(), "auto", warmup_fraction,
                       faults=faults,
                       trace=TraceLog() if collect_trace else None)


def _epochs_from(completions: np.ndarray, failures: list, remaps: list,
                 makespan: float) -> list[EpochStats]:
    """Post-hoc degraded-throughput accounting: split the stream at every
    processor failure and remap resume, and rate each window."""
    marks: list[tuple[float, str]] = []
    for f in failures:
        if f.kind == "proc_fail":
            marks.append((f.time, "degraded"))
    for r in remaps:
        marks.append((r.resume_time, "remapped"))
    marks.sort()
    bounds = [0.0] + [t for t, _ in marks] + [makespan]
    labels = ["healthy"] + [lab for _, lab in marks]
    # Each window is (a, b]: completions at exactly 0.0 (a zero-cost
    # chain's) fall outside every window.  Marks are few, so a count per
    # window beats sorting the whole stream.
    done = completions[np.isfinite(completions)]
    epochs = []
    for i in range(len(bounds) - 1):
        a, b = bounds[i], bounds[i + 1]
        if b <= a:
            continue
        completed = int(np.count_nonzero((done > a) & (done <= b)))
        epochs.append(
            EpochStats(a, b, completed, completed / (b - a), labels[i])
        )
    return epochs
