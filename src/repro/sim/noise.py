"""Second-order effects the mapping model deliberately ignores (§2.1, §6.4).

The paper attributes its predicted-vs-measured gaps (up to ~12 %) to
modelling error and to "interference between communication inside tasks and
communication between tasks, which are not considered".  The simulator
reproduces both effect classes:

* per-operation multiplicative jitter (cache/OS variation) — seeded and
  deterministic, so experiments are reproducible;
* communication interference — a transfer that starts while other transfers
  are in flight is slowed in proportion to the contention;
* workload drift (:class:`DriftNoiseModel`) — the mean operation cost ramps
  as the stream ages, the regime the online adaptive runtime re-maps around.

Draw context
------------
Every sampling method accepts a ``dataset`` index (the global position of
the data set whose operation is being priced).  The base model ignores it —
jitter depends only on the RNG stream, drawn in event-time order — but
:class:`DriftNoiseModel` keys its drift on it, which makes a drift factor
independent of *draw order and batching*.  Only RNG-free noise can be
batched: :meth:`NoiseModel.factors` prices a block of operations for the
fast path, which therefore serves exactly the deterministic models (silent
noise, jitter-free and interference-free drift), where it is bit-identical
to the event engine's one :meth:`NoiseModel.factor` call per operation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NoiseModel", "DriftNoiseModel"]

#: Jitter factors are drawn from the RNG this many at a time and handed out
#: in draw order.  A batched ``standard_normal(n)`` yields the same sequence
#: as ``n`` scalar draws, so buffering changes no value a caller sees.
BLOCK = 1024


class NoiseModel:
    """Deterministic noise source for the simulator.

    Parameters
    ----------
    seed:
        RNG seed; identical seeds give identical simulations.
    jitter:
        Standard deviation of the multiplicative per-operation factor
        (drawn once per operation, truncated to [1-3σ, 1+3σ] and floored
        at 0.05 so durations stay positive).
    comm_interference:
        Fractional slowdown added to a transfer per other transfer already
        in flight when it starts.
    """

    def __init__(self, seed: int = 0, jitter: float = 0.02, comm_interference: float = 0.02):
        if jitter < 0 or comm_interference < 0:
            raise ValueError("noise parameters must be non-negative")
        self._rng = np.random.default_rng(seed)
        self._buf: list[float] = []  # drawn, not yet handed out (reversed)
        self.jitter = jitter
        self.comm_interference = comm_interference
        self.seed = seed

    def _draw(self, n: int) -> np.ndarray:
        """``n`` fresh jitter factors (ones, RNG-silent, when jitter-free)."""
        if self.jitter == 0:
            return np.ones(n)
        f = 1.0 + self.jitter * self._rng.standard_normal(n)
        lo, hi = 1.0 - 3 * self.jitter, 1.0 + 3 * self.jitter
        return np.maximum(0.05, np.clip(f, lo, hi))

    def _refill(self) -> None:
        self._buf.extend(self._draw(BLOCK)[::-1].tolist())

    def factor(self, dataset: int | None = None) -> float:
        """One multiplicative jitter sample for an execution-side operation.

        ``dataset`` is the global index of the data set being processed;
        the base model ignores it.  The event engine pops this
        model's buffer inline (:meth:`factor_buffer`) and calls this only
        to refill it.
        """
        buf = self._buf
        if not buf:
            self._refill()
        return buf.pop()

    def factor_buffer(self) -> list[float] | None:
        """The buffer :meth:`factor` pops, when :meth:`factor` is exactly
        that pop (the base model's), else ``None``.  The event loop pops it
        itself and calls :meth:`factor` only when it runs empty."""
        return self._buf if type(self).factor is NoiseModel.factor else None

    def factors(self, n: int, datasets=None, comm=None) -> np.ndarray:
        """``n`` factors priced in one batch, without the RNG.

        The fast path prices whole blocks of operations with this, so only
        jitter-free models batch: jitter is drawn in event-time order,
        which only the event engine reproduces, and a jittered model
        raises ``ValueError``.  ``datasets`` (per-draw data-set indices)
        and ``comm`` (per-draw transfer mask) give drift the context the
        per-operation methods get; the base model's factors are all ones.
        """
        _require_jitter_free(self)
        return np.ones(n)

    def comm_factor(self, concurrent_transfers: int, dataset: int | None = None) -> float:
        """Jitter plus contention for a transfer starting while
        ``concurrent_transfers`` others are active.  The event engine
        prices the base model's transfers inline (:meth:`comm_buffer`) and
        calls this only to refill the buffer."""
        buf = self._buf
        if not buf:
            self._refill()
        return buf.pop() * (
            1.0 + self.comm_interference * max(0, concurrent_transfers)
        )

    def comm_buffer(self, in_flight: int) -> tuple[list[float], list[float]] | None:
        """The buffer :meth:`comm_factor` pops and the interference factor
        it applies for each count ``0 .. in_flight - 1`` of transfers
        already in flight, when :meth:`comm_factor` is exactly that pop
        times that factor (the base model's), else ``None``.  The event
        loop prices a transfer as ``base * (pop * table[count])`` itself
        and calls :meth:`comm_factor` only when the buffer runs empty."""
        if type(self).comm_factor is not NoiseModel.comm_factor:
            return None
        ci = self.comm_interference
        return self._buf, [1.0 + ci * max(0, a) for a in range(in_flight)]

    @property
    def active(self) -> bool:
        """Does this model ever change a duration?"""
        return self.jitter > 0 or self.comm_interference > 0

    @property
    def deterministic(self) -> bool:
        """Are draw values pure functions of their context (no RNG)?

        True for jitter-free, interference-free models: every factor is
        then reproducible from the ``dataset`` index alone, so batched and
        per-operation sampling agree *bitwise* — the condition under which
        the engine dispatcher takes the fast path.
        """
        return self.jitter == 0 and self.comm_interference == 0

    @staticmethod
    def silent() -> "NoiseModel":
        """A noise model that changes nothing (for exactness tests)."""
        return NoiseModel(seed=0, jitter=0.0, comm_interference=0.0)


class DriftNoiseModel(NoiseModel):
    """Non-stationary noise: the mean operation cost ramps as the run ages.

    Models workload drift (growing data sets, thermal throttling, slow
    interference build-up) — the regime the online adaptive runtime has to
    detect and re-map around.  The drift index is the **data-set index**:
    every operation of data set ``d`` is inflated by ``(1 + drift)**(d+1)``
    (execution and internal redistribution) or ``(1 + comm_drift)**(d+1)``
    (external transfers).  Keying on the data set rather than on a draw
    counter makes the inflation independent of draw order *and* batching,
    so the event engine and the batched fast path price every operation
    identically — with ``jitter=0`` and ``comm_interference=0`` a drifting
    run takes the fast path, bit-identical to the event run.

    ``comm_drift`` defaults to ``drift`` (uniform drift).  Setting them
    apart models differential drift — e.g. compute slowing while the
    interconnect holds steady (``comm_drift=0``) — which *moves the optimal
    mapping* and is what makes online remapping pay; uniform drift rescales
    every response equally and leaves the optimum unchanged.

    Scale factors are materialised by cumulative multiplication (one table
    per rate), never by ``pow``: successive multiplication gives the same
    rounding sequence however the table is grown, keeping runs byte-stable
    across platforms and batch splits.

    Every draw needs its data set: :meth:`factor` and :meth:`comm_factor`
    without ``dataset``, and :meth:`factors` without ``datasets``, raise
    ``ValueError``.
    """

    def __init__(self, seed: int = 0, jitter: float = 0.02,
                 comm_interference: float = 0.02, drift: float = 1e-5,
                 comm_drift: float | None = None):
        super().__init__(seed=seed, jitter=jitter,
                         comm_interference=comm_interference)
        if drift < 0:
            raise ValueError("drift must be non-negative")
        if comm_drift is not None and comm_drift < 0:
            raise ValueError("comm_drift must be non-negative")
        self.drift = drift
        self.comm_drift = drift if comm_drift is None else comm_drift
        self._tables: dict[float, np.ndarray] = {}

    # -- drift scales ------------------------------------------------------
    def _table(self, rate: float, n: int) -> np.ndarray:
        """``table[d] = (1 + rate)**(d+1)`` for ``d < n``, via cumprod.

        A prefix of a cumulative product equals the cumulative product of
        the prefix, so regrowing the table never changes existing entries.
        """
        tbl = self._tables.get(rate)
        if tbl is None or len(tbl) < n:
            size = max(n, 1024, 0 if tbl is None else 2 * len(tbl))
            tbl = np.cumprod(np.full(size, 1.0 + rate))
            self._tables[rate] = tbl
        return tbl

    def _scale(self, rate: float, dataset: int | None) -> float:
        if dataset is None:
            raise ValueError("drifting noise needs the data set of every draw")
        if rate == 0.0:
            return 1.0
        return float(self._table(rate, dataset + 1)[dataset])

    # -- sampling ----------------------------------------------------------
    def factor(self, dataset: int | None = None) -> float:
        scale = self._scale(self.drift, dataset)
        return super().factor() * scale

    def comm_factor(self, concurrent_transfers: int, dataset: int | None = None) -> float:
        scale = self._scale(self.comm_drift, dataset)
        return super().comm_factor(concurrent_transfers) * scale

    def factors(self, n: int, datasets=None, comm=None) -> np.ndarray:
        _require_jitter_free(self)
        if datasets is None:
            raise ValueError(
                "drifting noise needs per-draw context: pass datasets= "
                "(and comm= for transfer draws) to batch-sample"
            )
        d = np.asarray(datasets, dtype=np.intp)
        if d.shape != (n,):
            raise ValueError(f"datasets must have shape ({n},), got {d.shape}")
        top = int(d.max()) + 1 if n else 1
        scale = self._table(self.drift, top)[d]
        if comm is not None and self.comm_drift != self.drift:
            mask = np.asarray(comm, dtype=bool)
            if mask.shape != (n,):
                raise ValueError(f"comm must have shape ({n},), got {mask.shape}")
            if self.comm_drift == 0.0:
                np.putmask(scale, mask, 1.0)  # a zero rate's table is all ones
            else:
                scale = np.where(mask, self._table(self.comm_drift, top)[d], scale)
        return scale

    # -- classification ----------------------------------------------------
    @property
    def active(self) -> bool:
        return super().active or self.drift > 0 or self.comm_drift > 0


def _require_jitter_free(noise: NoiseModel) -> None:
    if noise.jitter != 0:
        raise ValueError(
            "jittered noise is drawn in event order and cannot be "
            "batch-sampled; run it on the event engine"
        )
