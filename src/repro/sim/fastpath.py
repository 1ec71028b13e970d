"""Fast-path steady-state simulation of a healthy pipeline.

The event engine (`engine.py` + `pipeline.py`) executes one Python callback
per phase/transfer event — faithful, but capped at a few thousand data sets
per second.  This module computes the *same* per-data-set injection and
completion timestamps directly from the pipeline's timing recurrence,
without ever materialising events: whole chunks of the steady state at once
along the bottleneck.  It is the enabling layer for million-data-set runs
(workload drift, remap hysteresis — see ROADMAP).

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

:func:`_run_scalar` replays exactly this chain of ``max`` and ``+``
operations in the same association order the event engine uses, so
results are **bit-identical** to the event engine, not merely close (the
test suite compares the arrays with ``np.array_equal``).  Every
operation's duration comes from one matrix (:func:`_durations`, one row per
data set); under drift its rows are priced from the noise model's batched
factors, which are pure functions of each operation's data set and so
equal the event engine's per-operation draws.

Bottleneck evaluation
---------------------
In steady state the bottleneck module ``b`` never idles: every rendezvous
upstream of it waits for the receiver, every one downstream waits for the
sender.  :func:`_speculate` guesses ``b`` and computes a whole chunk of
data sets with numpy under that guess — ``b``'s instance timelines by one
sequential ``np.add.accumulate`` each, the other modules by column-wise
``+`` — performing the scalar loop's additions on the same operands in
the same order.  It then checks every ``max`` the guess decided against
the computed operands and commits the rows before the first decision that
does not hold; :func:`_evaluate` recomputes from there on the scalar loop
for a short, growing stretch and speculates again.  Committed rows are
therefore the scalar recurrence's bits, whatever the guess.

Faulted, traced, jittered and interfering runs never get here at all:
the engine dispatcher sends them to the event engine, so
:func:`run_segment` sees only silent noise or jitter-free,
interference-free drift.  The stream runner in :mod:`repro.sim.pipeline` calls
:func:`run_segment` once per segment — once for a plain run, once per
epoch for a controlled one.
"""

from __future__ import annotations

import numpy as np

from .modulegraph import ModuleGraph
from .noise import NoiseModel

__all__ = ["run_segment"]

#: Data sets whose durations are materialised at once (bounds memory on
#: million-data-set streams; the block split changes no value).
_BLOCK = 1 << 15
#: Data sets the bottleneck evaluator computes per speculation.
_CHUNK = 2048
#: The ``i``-th failed speculation of a segment is followed by
#: ``_STRETCH * 2**i`` data sets on the scalar loop.
_STRETCH = 8
#: Failed speculations after which a segment finishes on the scalar loop.
_MAX_MISSES = 6


class _Pipeline:
    """Precomputed constants of one mapped chain's :class:`ModuleGraph`."""

    def __init__(self, graph: ModuleGraph):
        self.k = len(graph)
        self.replicas = graph.replicas
        self.phases = [tuple(p[2] for p in ph) for ph in graph.phases]
        self.edge_base = graph.edge_base
        #: Per-edge ``(sender instance, receiver instance)`` transfer
        #: slowdown arrays, or ``None`` without a placement model.
        self.hop = (None if graph.hop is None
                    else [np.array(h, dtype=float) for h in graph.hop])
        #: Events the event engine would process per data set: one per
        #: execution phase plus one rendezvous completion per edge.
        self.events_per_dataset = sum(len(p) for p in self.phases) + (self.k - 1)
        # Columns of the duration matrix, in the order _run_scalar prices a
        # data set's operations: module 0's phases, then per edge its
        # transfer and the receiver's phases.
        base, spans, edge_col = [], [], []
        for m, ph in enumerate(self.phases):
            if m:
                edge_col.append(len(base))
                base.append(self.edge_base[m - 1])
            spans.append((len(base), len(base) + len(ph)))
            base.extend(ph)
        self.base = np.array(base, dtype=float)
        #: ``(lo, hi)`` columns of module m's phases.
        self.spans = spans
        #: Column of edge e's transfer.
        self.edge_col = edge_col
        #: Columns an instance of module m is busy for, in order: its
        #: in-edge transfer, its phases, its out-edge transfer.
        self.windows = [(lo - (m > 0), hi + (m < self.k - 1))
                        for m, (lo, hi) in enumerate(spans)]
        #: Which columns are external transfers — the per-draw ``comm``
        #: context for noise models that drift communication separately
        #: from compute.
        self.comm_template = np.zeros(len(base), dtype=bool)
        self.comm_template[edge_col] = True


def _durations(pipe: _Pipeline, d0: int, d1: int, draws=None) -> np.ndarray:
    """Operation durations of data sets ``[d0, d1)``, one row per data set.

    ``draws`` (one noise factor per operation, in data-set order) prices a
    phase as ``p * f`` and a transfer as ``(ebase * f) * hop``; without it
    the durations are ``p`` and ``ebase * hop`` — the products the event
    engine forms, so every duration has its bits.
    """
    n = d1 - d0
    if draws is None:
        D = np.tile(pipe.base, (n, 1))
    else:
        D = draws.reshape(n, len(pipe.base)) * pipe.base
    if pipe.hop is not None:
        d = np.arange(d0, d1)
        rs = pipe.replicas
        for e, col in enumerate(pipe.edge_col):
            D[:, col] *= pipe.hop[e][d % rs[e], d % rs[e + 1]]
    return D


def _run_scalar(pipe: _Pipeline, ready, D, completions, injections,
                d0: int, d1: int, row0: int) -> None:
    """Advance the timing recurrence over data sets ``[d0, d1)``, data set
    ``d`` priced by row ``d - row0`` of the duration matrix ``D``.

    All additions replicate the event engine's association order so
    noise-free timestamps stay bit-identical.
    """
    k = pipe.k
    rs = pipe.replicas
    spans = pipe.spans
    ecol = pipe.edge_col
    ready0 = ready[0]
    lo0, hi0 = spans[0]
    r0 = rs[0]
    last = k - 1
    rows = D[d0 - row0:d1 - row0].tolist()
    for d, row in zip(range(d0, d1), rows):
        i0 = d % r0
        t = ready0[i0]
        injections[d] = t
        for p in row[lo0:hi0]:
            t += p
        for e in range(last):
            m = e + 1
            im = d % rs[m]
            recv = ready[m][im]
            start = recv if recv > t else t
            end = start + row[ecol[e]]
            ready[e][d % rs[e]] = end
            t = end
            lo, hi = spans[m]
            for p in row[lo:hi]:
                t += p
        completions[d] = t
        ready[last][d % rs[last]] = t


def _speculate(pipe: _Pipeline, ready, D, completions, injections,
               s: int) -> int:
    """Compute data sets ``[s, s + len(D))`` along a guessed bottleneck
    and commit the verified prefix; returns the data sets committed.

    The guess ``b`` is the module with the largest per-instance load in the
    first row.  Under it, every rendezvous on an edge ``e >= b`` starts
    when the sender is ready and every one on an edge ``e < b`` when the
    receiver is, so each timestamp is one addition away from a timestamp
    already known:

    * module ``b``: per instance, one sequential ``np.add.accumulate`` over
      its release time and then, data set after data set, its in-edge,
      phase and out-edge durations — the loop's additions in its order;
    * modules after ``b``: column-wise ``+`` from the sender's transfer end;
    * modules before ``b``: the transfer ends when the receiver's instance
      is released from its previous data set, ``E_m(d) = E_{m+1}(d -
      r_{m+1}) + e_m(d)``.

    Each of those ``max`` decisions is then checked against the operands
    the scalar loop would compare (a tie gives the same value either way);
    rows before the first failing check hold exactly the loop's bits.
    """
    n = len(D)
    k = pipe.k
    rs = pipe.replicas
    spans = pipe.spans
    ecol = pipe.edge_col
    last = k - 1
    row = D[0].tolist()
    b = max(range(k),
            key=lambda m: sum(row[slice(*pipe.windows[m])]) / rs[m])
    # The guess's checks on the first data set, in scalar, before the chunk
    # is computed: a chunk that fails there commits nothing.  A fresh
    # segment's fill fails them for b > 0: every instance starts at t0, so
    # each receiver is ready before its sender (a tie only where the
    # durations before module b add nothing to t0).
    t = ready[0][s % rs[0]]
    for e in range(b):
        for c in range(*spans[e]):
            t += row[c]
        recv = ready[e + 1][s % rs[e + 1]]
        if recv < t:
            return 0
        t = recv + row[ecol[e]]

    def released(m, rel):
        """Release time of data set d's instance of module m before d."""
        r = rs[m]
        h = min(r, n)
        out = np.empty(n)
        out[:h] = [ready[m][(s + j) % r] for j in range(h)]
        out[h:] = rel[:n - h]
        return out

    def executed(start, m):
        for c in range(*spans[m]):
            start = start + D[:, c]
        return start

    # Module b: column 0 holds each data set's instance release time, the
    # rest the running sums over its window.
    lo, hi = pipe.windows[b]
    w = hi - lo
    rb = rs[b]
    acc = _instance_sums(D[:, lo:hi], rb,
                         [ready[b][(s + j) % rb] for j in range(rb)])
    q = (acc.shape[1] - 1) // w
    M = np.empty((q, rb, w + 1))
    M[:, :, 0] = acc[:, :-1:w].T
    M[:, :, 1:] = acc[:, 1:].reshape(rb, q, w).transpose(1, 0, 2)
    M = M.reshape(q * rb, w + 1)[:n]
    T = [None] * k      # execution end (ready to send / completion)
    rel = [None] * k    # release: out-edge transfer end, or completion
    T[b] = M[:, spans[b][1] - lo]
    rel[b] = M[:, w]
    if b:
        rel[b - 1] = M[:, 1]
    for m in range(b + 1, k):
        T[m] = executed(rel[m - 1], m)
        rel[m] = T[m] + D[:, ecol[m]] if m < last else T[m]
    for m in range(b - 2, -1, -1):
        rel[m] = released(m + 1, rel[m + 1]) + D[:, ecol[m]]
    inj = released(0, rel[0])
    for m in range(b):
        T[m] = executed(inj if m == 0 else rel[m - 1], m)

    bad = np.zeros(n, dtype=bool)
    for e in range(last):
        recv = released(e + 1, rel[e + 1])
        ok = recv <= T[e] if e >= b else recv >= T[e]
        bad |= ~ok
    hits = np.flatnonzero(bad)
    j = int(hits[0]) if hits.size else n
    if j:
        completions[s:s + j] = T[last][:j]
        injections[s:s + j] = inj[:j]
        for m in range(k):
            r = rs[m]
            first = max(0, j - r)  # each instance's last committed data set
            for jj, t in zip(range(first, j), rel[m][first:j].tolist()):
                ready[m][(s + jj) % r] = t
    return j


def _evaluate(pipe: _Pipeline, ready, D, completions, injections,
              d0: int, tally: dict) -> None:
    """Advance data sets ``[d0, d0 + len(D))`` by bottleneck speculation,
    with scalar stretches where it fails.

    ``tally`` carries the segment's ``verified`` and ``misses`` counts
    across blocks; after ``_MAX_MISSES`` failed speculations the segment
    finishes on the scalar loop.
    """
    d1 = d0 + len(D)
    d = d0
    while d < d1:
        stop = d1
        if tally["misses"] < _MAX_MISSES:
            stop = min(d + _CHUNK, d1)
            got = _speculate(pipe, ready, D[d - d0:stop - d0], completions,
                             injections, d)
            tally["verified"] += got
            d += got
            if d == stop:
                continue
            tally["misses"] += 1
            stop = min(d + (_STRETCH << tally["misses"]), d1)
        _run_scalar(pipe, ready, D, completions, injections, d, stop, d0)
        d = stop


def _instance_sums(W, r: int, start) -> np.ndarray:
    """Running sums of each instance's rows of ``W``.

    Lane ``j`` starts at ``start[j]`` and adds, in order, the entries of
    rows ``j, j + r, ...`` of ``W`` read row by row: one sequential
    ``np.add.accumulate`` per lane (``add.reduce`` sums pairwise and would
    round differently from the running ``+`` it replaces).  Lanes short of
    a full last row are padded with zeros, which leave a sum unchanged.
    Returns shape ``(r, 1 + q * w)`` with ``q = ceil(len(W) / r)``.  The
    rows are copied into the lanes once and summed in place: on a long
    stream this runs over every busy window, and copies dominate it.
    """
    n, w = W.shape
    full, tail = divmod(n, r)
    lanes = np.empty((r, 1 + -(-n // r) * w))
    lanes[:, 0] = start
    body = lanes[:, 1:].reshape(r, -1, w)
    body[:, :full] = W[:full * r].reshape(full, r, w).transpose(1, 0, 2)
    if tail:
        body[:tail, full] = W[full * r:]
        body[tail:, full] = 0.0
    return np.add.accumulate(lanes, axis=1, out=lanes)


def _add_busy(pipe: _Pipeline, busy, D, d0: int) -> None:
    """Add the busy time of data sets ``[d0, d0 + len(D))`` into ``busy``.

    Busy time is pure durations: each instance adds its window's columns
    data set by data set, carried on from its running total.
    """
    for m, (lo, hi) in enumerate(pipe.windows):
        r = pipe.replicas[m]
        lane = [(d0 + j) % r for j in range(r)]
        acc = _instance_sums(D[:, lo:hi], r, [busy[m][c] for c in lane])
        for c, total in zip(lane, acc[:, -1].tolist()):
            busy[m][c] = total


def run_segment(pipe: _Pipeline, completions, injections, datasets: range,
                t0: float, noise: NoiseModel, busy: dict,
                stats: dict | None = None) -> int:
    """Advance the recurrence over the contiguous ``datasets``, every
    instance released at ``t0``, on the bottleneck evaluator; returns the
    events the event engine would have processed.

    Busy seconds are added into ``busy`` for every instance that served a
    data set.  ``stats`` (optional dict) receives fast-path diagnostics:
    ``verified`` (data sets the evaluator committed) and
    ``scalar_datasets`` (data sets the scalar loop computed).
    """
    d0, d1 = datasets.start, datasets.stop
    ready = [[t0] * r for r in pipe.replicas]
    lbusy = [[0.0] * r for r in pipe.replicas]
    tally = {"verified": 0, "misses": 0}
    epd = pipe.events_per_dataset
    done = d0
    while done < d1:
        stop = min(done + _BLOCK, d1)
        draws = None
        if noise.active:
            # Drift: one factor per operation in data-set order, keyed by
            # each draw's (data set, is-transfer) context.
            ds = np.repeat(np.arange(done, stop), epd)
            cm = np.tile(pipe.comm_template, stop - done)
            draws = noise.factors((stop - done) * epd, datasets=ds, comm=cm)
        D = _durations(pipe, done, stop, draws)
        _evaluate(pipe, ready, D, completions, injections, done, tally)
        _add_busy(pipe, lbusy, D, done)
        done = stop

    if stats is not None:
        stats["verified"] = tally["verified"]
        stats["scalar_datasets"] = d1 - d0 - tally["verified"]
    for i, r in enumerate(pipe.replicas):
        # Instances that never saw a data set get no busy entry.
        for c in sorted({d % r for d in range(d0, min(d1, d0 + r))}):
            busy[(i, c)] = busy.get((i, c), 0.0) + lbusy[i][c]
    return (d1 - d0) * epd
