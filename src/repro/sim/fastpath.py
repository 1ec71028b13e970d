"""Fast-path steady-state simulation of a healthy pipeline.

The event engine (`engine.py` + `pipeline.py`) executes one Python callback
per phase/transfer event — faithful, but capped at a few thousand data sets
per second.  This module computes the *same* per-data-set injection and
completion timestamps directly from the pipeline's timing recurrence,
without ever materialising events, and leaps whole steady-state periods at
a time once the schedule becomes periodic.  It is the enabling layer for
million-data-set runs (workload drift, remap hysteresis — see ROADMAP).

Why a recurrence is exact
-------------------------
With no faults, the simulated pipeline is a *deterministic dataflow*: the
time of every operation is a pure function of earlier operation times, and
the event queue's interleaving cannot change any value.  Writing
``ready[i][c]`` for the instant instance ``c`` of module ``i`` is released
from its previous data set, the event engine's semantics reduce to, per
data set ``d`` (served by instance ``d mod r_i`` of each module):

* module 0 starts executing at its release time (= the injection),
  finishing its phases by sequential addition;
* the rendezvous on edge ``e`` starts at ``max(sender ready, receiver
  ready)`` — both endpoints block — and ends one transfer duration later,
  releasing the sender and starting the receiver's execution;
* the last module's execution end is the completion time.

The fast path replays exactly this chain of ``max`` and ``+`` operations in
the same association order the event engine uses, so noise-free results are
**bit-identical** to the event engine, not merely close (the test suite
compares the arrays with ``np.array_equal``).  With stationary jitter the
same recurrence runs over batch-drawn noise factors; draws are consumed in
data-set order instead of event order, so noisy runs are statistically —
not bitwise — equivalent.

Cycle leaping
-------------
A healthy noise-free pipeline reaches a periodic steady state: after the
fill transient, the whole schedule repeats every hyper-period of
``L = lcm(replicas)`` data sets, shifted by a constant ``delta``.  The fast
path snapshots the ready-time vector at every block boundary and, once it
observes the translation ``state[b] == state[b-m] + delta`` **bit-exactly**
for two consecutive lags (and the per-data-set outputs translating the same
way), extrapolates the remaining completions with one vectorised broadcast
— millions of data sets in microseconds.  When timestamp arithmetic is
exact (e.g. dyadic-rational durations, the benchmark's configuration), the
translation is provably self-sustaining and the extrapolation stays
bit-identical to the event engine; with general costs the detector simply
never fires (double-rounding makes exact translation astronomically
unlikely) and the run stays on the — still exact — scalar recurrence.
Faulted runs never get here at all: ``simulate(engine="auto")`` routes
them, like any run with random or contention-dependent noise, to the event
engine.  The stream runner in :mod:`repro.sim.pipeline` calls
:func:`run_segment` once per segment — once for a plain run, once per
epoch for a controlled one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm

import numpy as np

from ..core.mapping import Mapping
from ..core.task import TaskChain
from .noise import NoiseModel

__all__ = ["run_segment"]

#: Snapshot lags (in hyper-period blocks) tried by the periodicity detector.
#: Steady states with max-plus cyclicity > 1 repeat at a multiple of the
#: hyper-period; powers of two cover those cheaply.
_LAGS = (1, 2, 4, 8)
#: Keep this many trailing block snapshots (enough for the largest lag).
_KEEP = 2 * _LAGS[-1] + 1


class _Pipeline:
    """Precomputed constants of one (chain, mapping) instance."""

    def __init__(self, chain: TaskChain, mapping: Mapping,
                 placements, hop_penalty: float):
        self.k = len(mapping)
        self.replicas = [m.replicas for m in mapping.modules]
        # Per-module execution phases (task + internal-redistribution base
        # durations), mirroring _Run.phases in pipeline.py.
        self.phases: list[tuple[float, ...]] = []
        for m in mapping.modules:
            ph: list[float] = []
            for t_idx in range(m.start, m.stop + 1):
                task = chain.tasks[t_idx]
                ph.append(float(task.exec_cost(m.procs)))
                if t_idx < m.stop:
                    icom = float(chain.edges[t_idx].icom(m.procs))
                    if icom > 0:
                        ph.append(icom)
            self.phases.append(tuple(ph))
        self.edge_base: list[float] = []
        for i in range(self.k - 1):
            a, b = mapping[i], mapping[i + 1]
            self.edge_base.append(float(chain.edges[a.stop].ecom(a.procs, b.procs)))
        # Optional placement model, mirroring _Run.hop_factor: transfer
        # slowdown per Manhattan hop between instance rectangles.
        self.hop: list[list[list[float]]] | None = None
        if placements is not None and hop_penalty > 0.0:
            self.hop = []
            for e in range(self.k - 1):
                rows = []
                for sr in placements[e]:
                    row = []
                    for rr in placements[e + 1]:
                        (ar, ac), (br, bc) = sr.center(), rr.center()
                        row.append(1.0 + hop_penalty * (abs(ar - br) + abs(ac - bc)))
                    rows.append(row)
                self.hop.append(rows)
        #: Events the event engine would process per data set: one per
        #: execution phase plus one rendezvous completion per edge.
        self.events_per_dataset = sum(len(p) for p in self.phases) + (self.k - 1)
        #: Which of a data set's operations (in the order _run_scalar prices
        #: them) are external transfers — the per-draw ``comm`` context for
        #: noise models that drift communication separately from compute.
        mask = np.zeros(self.events_per_dataset, dtype=bool)
        pos = len(self.phases[0])
        for e in range(self.k - 1):
            mask[pos] = True
            pos += 1 + len(self.phases[e + 1])
        self.comm_template = mask
        #: Hyper-period: the instance round-robin (and the placement
        #: pattern, which is keyed by d mod replicas) repeats every L sets.
        self.L = lcm(*self.replicas)
        self.exact_unit = self._exact_unit()

    def _exact_unit(self) -> Fraction | None:
        """Greatest dyadic unit dividing every operation duration.

        When every duration is an integer multiple of one unit ``u`` and
        all timestamps stay below ``2**53 * u``, every ``+`` and ``max`` in
        the recurrence is exact integer arithmetic scaled by ``u`` — float
        addition then *is* translation-invariant, which is what makes cycle
        leaping provably bit-identical to the event engine.  Returns
        ``None`` when no usable unit exists (e.g. durations with full
        53-bit mantissas, where the unit would be uselessly small).
        """
        durs = [p for ph in self.phases for p in ph]
        if self.hop is None:
            durs += self.edge_base
        else:
            # The recurrence adds the already-multiplied product, so the
            # product is what must sit on the unit grid.
            for e, base in enumerate(self.edge_base):
                for row in self.hop[e]:
                    durs += [base * h for h in row]
        vals = []
        for d in durs:
            if not isfinite(d) or d < 0:
                return None
            if d:
                vals.append(Fraction(d))
        if not vals:
            return Fraction(0)  # all-zero durations: trivially exact
        den = max(v.denominator for v in vals)  # powers of two
        if den > 1 << 40:
            return None
        g = 0
        for v in vals:
            g = gcd(g, int(v * den))
        return Fraction(g, den)


def _run_scalar(pipe: _Pipeline, ready, busy, completions, injections,
                d0: int, d1: int, factors=None) -> None:
    """Advance the timing recurrence over data sets ``[d0, d1)``.

    ``factors`` (an iterator of jitter samples, one per operation in
    data-set order) prices each phase/transfer; ``None`` means noise-free.
    All additions replicate the event engine's association order so
    noise-free timestamps and per-instance busy totals stay bit-identical.
    """
    k = pipe.k
    rs = pipe.replicas
    phases = pipe.phases
    ebase = pipe.edge_base
    hop = pipe.hop
    ready0 = ready[0]
    busy0 = busy[0]
    ph0 = phases[0]
    r0 = rs[0]
    last = k - 1
    for d in range(d0, d1):
        i0 = d % r0
        t = ready0[i0]
        injections[d] = t
        if factors is None:
            for p in ph0:
                busy0[i0] += p
                t += p
        else:
            for p in ph0:
                dur = p * next(factors)
                busy0[i0] += dur
                t += dur
        for e in range(last):
            m = e + 1
            im = d % rs[m]
            ie = d % rs[e]
            recv = ready[m][im]
            start = recv if recv > t else t
            dur = ebase[e] if factors is None else ebase[e] * next(factors)
            if hop is not None:
                dur *= hop[e][ie][im]
            busy[e][ie] += dur
            busy[m][im] += dur
            end = start + dur
            ready[e][ie] = end
            t = end
            if factors is None:
                for p in phases[m]:
                    busy[m][im] += p
                    t += p
            else:
                for p in phases[m]:
                    dur = p * next(factors)
                    busy[m][im] += dur
                    t += dur
        completions[d] = t
        ready[last][d % rs[last]] = t


def _block_busy(pipe: _Pipeline, count: int) -> dict[tuple[int, int], float]:
    """Per-instance busy time of ``count`` noise-free data sets (0-aligned).

    Pure durations — no recurrence needed: each data set contributes its
    owner instances' phase and transfer durations regardless of when they
    run.  Used to account the leaped region without walking it.
    """
    acc: dict[tuple[int, int], float] = {}
    rs = pipe.replicas
    hop = pipe.hop
    for d in range(count):
        i0 = d % rs[0]
        key = (0, i0)
        for p in pipe.phases[0]:
            acc[key] = acc.get(key, 0.0) + p
        for e in range(pipe.k - 1):
            m = e + 1
            ie, im = d % rs[e], d % rs[m]
            dur = pipe.edge_base[e]
            if hop is not None:
                dur *= hop[e][ie][im]
            acc[(e, ie)] = acc.get((e, ie), 0.0) + dur
            acc[(m, im)] = acc.get((m, im), 0.0) + dur
            for p in pipe.phases[m]:
                acc[(m, im)] = acc.get((m, im), 0.0) + p
    return acc


def _translation(cur, prev):
    """The bit-exact translation ``delta`` with ``cur == prev + delta``
    elementwise, or ``None`` when the states are not exact translates."""
    delta = cur[0] - prev[0]
    for a, b in zip(cur, prev):
        if a != b + delta:
            return None
    return delta


def _detect_period(pipe: _Pipeline, snapshots, completions, injections,
                   done: int):
    """Try to certify a periodic steady state at the current boundary.

    Requires, for some lag of ``m`` blocks: the last three states spaced
    ``m`` apart are exact translates by one common ``delta``, and every
    output in the last ``m`` blocks translates from the block ``m`` earlier
    by the same ``delta``.  Two consecutive exact transitions certify that
    the computation commutes with the ``+delta`` shift at this state;
    under exact arithmetic the shift is then self-sustaining.
    Returns ``(period_datasets, delta)`` or ``None``.
    """
    L = pipe.L
    b = len(snapshots) - 1  # index of the newest snapshot
    for m in _LAGS:
        if b < 2 * m:
            continue
        delta = _translation(snapshots[b], snapshots[b - m])
        if delta is None:
            continue
        if _translation(snapshots[b - m], snapshots[b - 2 * m]) != delta:
            continue
        period = m * L
        lo = done - period
        ok = True
        for d in range(lo, done):
            if (completions[d] != completions[d - period] + delta
                    or injections[d] != injections[d - period] + delta):
                ok = False
                break
        if ok:
            return period, delta
    return None


def _certified(pipe: _Pipeline, state, delta: float, reps: int) -> bool:
    """Is leaping ``reps`` periods forward *provably* bit-exact?

    Observing two exact-translation transitions (see :func:`_detect_period`)
    is necessary but not sufficient with general doubles: float addition is
    only translation-invariant under exact arithmetic, and rounding can
    start to differ once the growing timestamps cross a binade boundary.
    This certificate makes the leap rigorous: with every duration on one
    dyadic unit grid (``exact_unit``) and the whole extrapolated horizon
    below ``2**53`` units, every operation — the scalar prefix, the event
    engine's own arithmetic, and the broadcast extrapolation — is exact
    integer arithmetic, so all associations agree bit for bit.  A ``delta``
    of zero needs no certificate: the state repeats verbatim, so the future
    is literally a copy of the observed period.
    """
    if delta == 0:
        return True
    unit = pipe.exact_unit
    if not unit:
        return False
    d = Fraction(delta)
    if d % unit != 0:
        return False
    horizon = Fraction(max(state)) + d * (reps + 1)
    return horizon / unit < (1 << 53)


def run_segment(pipe: _Pipeline, completions, injections, datasets: range,
                t0: float, noise: NoiseModel, busy: dict, leap: bool = False,
                stats: dict | None = None) -> int:
    """Advance the recurrence over the contiguous ``datasets``, every
    instance released at ``t0``; returns the events the event engine would
    have processed.

    Busy seconds are added into ``busy`` for every instance that served a
    data set.  ``leap`` enables cycle leaping on noise-free segments that
    start on a hyper-period boundary; ``stats`` (optional dict) receives
    fast-path diagnostics (``leaped``, ``scalar_datasets``, ``period``).
    """
    d0, d1 = datasets.start, datasets.stop
    ready = [[t0] * r for r in pipe.replicas]
    lbusy = [[0.0] * r for r in pipe.replicas]

    noisy = noise.active
    L = pipe.L
    leap = leap and not noisy and d1 - d0 >= 3 * L and d0 % L == 0
    done = d0
    leaped = 0
    period_used = None

    if noisy:
        # Batched noise: draw one factor per operation in data-set order,
        # block by block (bounded memory at n=1e6+), passing each draw's
        # (data set, is-transfer) context for non-stationary models.
        block = max(1, 65536 // max(pipe.events_per_dataset, 1)) * 256
        epd = pipe.events_per_dataset
        while done < d1:
            stop = min(done + block, d1)
            ds = np.repeat(np.arange(done, stop), epd)
            cm = np.tile(pipe.comm_template, stop - done)
            draws = noise.factors((stop - done) * epd, datasets=ds, comm=cm)
            _run_scalar(pipe, ready, lbusy, completions, injections,
                        done, stop, factors=iter(draws.tolist()))
            done = stop
    else:
        snapshots: list[tuple[float, ...]] = []
        while done < d1:
            stop = min(done + L, d1)
            _run_scalar(pipe, ready, lbusy, completions, injections, done, stop)
            done = stop
            if not leap or done % L != 0:
                continue
            snapshots.append(tuple(x for module in ready for x in module))
            if len(snapshots) > _KEEP:
                del snapshots[0]
            hit = _detect_period(pipe, snapshots, completions, injections, done)
            if hit is None:
                continue
            period, delta = hit
            remaining = d1 - done
            if remaining <= 0:
                break
            reps = -(-remaining // period)
            if not _certified(pipe, snapshots[-1], delta, reps):
                continue
            # Extrapolate: block q of the remaining stream is the last
            # certified period shifted by q * delta.
            shifts = np.arange(1, reps + 1) * delta
            base_c = completions[done - period:done]
            base_i = injections[done - period:done]
            completions[done:d1] = (base_c[None, :] + shifts[:, None]).ravel()[:remaining]
            injections[done:d1] = (base_i[None, :] + shifts[:, None]).ravel()[:remaining]
            # Busy time of the leaped region: periodic durations, so one
            # period's per-instance totals scale by the whole periods and a
            # short walk covers the ragged tail.
            full, tail = divmod(remaining, period)
            if full:
                per_block = _block_busy(pipe, period)
                for (i, c), v in per_block.items():
                    lbusy[i][c] += v * full
            if tail:
                for (i, c), v in _block_busy(pipe, tail).items():
                    lbusy[i][c] += v
            leaped = remaining
            period_used = period
            done = d1
            break

    if stats is not None:
        stats["leaped"] = leaped
        stats["scalar_datasets"] = d1 - d0 - leaped
        stats["period"] = period_used
        stats["hyperperiod"] = L
    for i, r in enumerate(pipe.replicas):
        # Instances that never saw a data set get no busy entry.
        for c in sorted({d % r for d in range(d0, min(d1, d0 + r))}):
            busy[(i, c)] = busy.get((i, c), 0.0) + lbusy[i][c]
    return (d1 - d0) * pipe.events_per_dataset
