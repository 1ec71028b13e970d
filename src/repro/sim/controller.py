"""Online adaptive runtime: drift-aware monitoring and incremental remapping.

The DP gives an optimal *static* mapping, valid exactly as long as the cost
tables it was solved against describe the machine.  Real streams drift —
data sets grow, compute throttles, interconnects congest — and a mapping
that was optimal at data set 0 can be far from optimal at data set 10^5.
This module closes the loop:

* the **stream runner** (``simulate(controller=...)``) executes the stream
  in epochs — through the fast-path recurrence when the noise is
  deterministic, or the event engine when it demands it — and hands the
  controller one :class:`EpochObservation` per epoch (observed rate plus
  per-instance busy seconds);
* the **controller** (:class:`AdaptiveController`) tracks an EWMA of the
  observed/predicted rate ratio.  While the EWMA stays inside a dead band
  the mapping is left alone.  A sustained breach (``patience`` consecutive
  epochs) triggers a *diagnosis*: per-class slowdowns ``s_exec``/``s_comm``
  are fitted to the observed busy times by least squares, the believed
  chain is updated, and the DP re-solves **incrementally** — the optimum is
  invariant under global rescaling, so only the external-communication
  costs (scaled by ``s_comm / s_exec``) change, and
  :meth:`~repro.core.remap.RemapPlanner.update_chain` evicts only the
  response parts adjacent to an edge: segment infos, exec tables and the
  unscaled communication grids survive, and the parts are recomposed
  from them (see :mod:`repro.core.resolve`);
* **hysteresis** decides whether the re-solved mapping is worth deploying:
  a remap costs ``remap_latency`` seconds of downtime (the stream drains,
  the new configuration loads), so it fires only when the modeled time
  saved over the remaining stream covers ``payback`` times that cost.
  Otherwise the controller merely *re-anchors* its prediction to the
  drifted tables — free — and keeps watching.

The oracle configuration (``ControllerConfig(oracle=True)``) re-solves
every epoch with no dead band and no payback test; it upper-bounds what any
drift policy can recover and is the yardstick the acceptance tests measure
against (``experiments/drift_study.py``, ``BENCH_drift.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.mapping import Mapping
from ..core.remap import RemapPlanner
from ..core.resolve import scale_chain
from ..core.response import (
    UNLIMITED_MEMORY_MB,
    _price,
    build_module_chain,
    evaluate_mapping,
)
from ..core.task import TaskChain

__all__ = [
    "ControllerConfig",
    "EpochObservation",
    "ControllerDecision",
    "ControllerRecord",
    "AdaptiveController",
]


@dataclass
class ControllerConfig:
    """Tuning knobs of the adaptive controller (see docs/adaptive_runtime.md).

    Parameters
    ----------
    epoch_datasets:
        Data sets per monitoring epoch.  The stream drains at every epoch
        boundary, so the per-epoch fill bubble (~ pipeline latency) should
        be small against the epoch span; hundreds to thousands is typical.
    alpha:
        EWMA weight of the newest observed/predicted ratio.
    dead_band:
        Relative half-width of the no-action region around ratio 1.0.
        Breaches smaller than measurement noise (epoch fill, jitter) must
        stay inside it or the controller chases phantoms.
    patience:
        Consecutive out-of-band epochs required before diagnosing — a
        one-epoch transient never triggers a re-solve.
    remap_latency:
        Downtime (seconds) charged per executed remap.
    payback:
        A remap fires only when the modeled time saved over the remaining
        stream is at least ``payback * remap_latency``.
    min_gain:
        Minimum relative throughput gain of the candidate mapping over the
        current one (both under the believed drifted tables) to consider
        remapping at all.
    oracle:
        Re-solve every epoch, ignore dead band / patience / payback, and
        deploy any strictly better mapping.  The re-solve-every-epoch
        upper bound used by the acceptance tests.
    adapt:
        ``False`` turns the controller into a pure monitor (the *static*
        arm of the drift study): identical epoch chunking, no re-solves.
    """

    epoch_datasets: int = 2000
    alpha: float = 0.5
    dead_band: float = 0.04
    patience: int = 2
    remap_latency: float = 0.5
    payback: float = 1.0
    min_gain: float = 0.01
    oracle: bool = False
    adapt: bool = True

    def __post_init__(self):
        if self.epoch_datasets < 2:
            raise ValueError("epoch_datasets must be >= 2")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        # Written as ``not x >= 0`` so that NaN, which would silently turn
        # the controller into a monitor, is rejected too.
        if not (self.dead_band >= 0 and self.remap_latency >= 0 and self.payback >= 0):
            raise ValueError("dead_band, remap_latency, payback must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not self.min_gain >= 0:
            raise ValueError("min_gain must be >= 0")


@dataclass
class EpochObservation:
    """What the stream runner measured over one epoch."""

    index: int                      # epoch number, from 0
    start: int                      # first data set (inclusive)
    stop: int                       # last data set (exclusive)
    t_start: float                  # epoch release time
    t_end: float                    # last completion in the epoch
    busy: dict                      # (module, instance) -> busy seconds
    remaining: int                  # data sets still to run after this epoch

    @property
    def rate(self) -> float:
        """Observed epoch throughput (data sets / second)."""
        return (self.stop - self.start) / (self.t_end - self.t_start)


@dataclass
class ControllerDecision:
    """The controller's verdict for the epochs ahead."""

    remap: bool                     # deploy ``mapping`` (charging the latency)
    mapping: Mapping                # the mapping in force going forward
    predicted_rate: float           # believed rate of that mapping (true scale)
    action: str                     # "ok" | "anchor" | "remap"


@dataclass
class ControllerRecord:
    """One epoch's monitoring state (the golden-trace payload)."""

    epoch: int
    start: int
    stop: int
    rate: float
    predicted: float
    ewma: float
    action: str
    s_exec: float
    s_comm: float
    mapping: Mapping

    def line(self) -> str:
        """Tab-separated canonical text: ``repr`` floats are byte-stable."""
        return (
            f"{self.epoch}\t{self.start}\t{self.stop}\t"
            f"{float(self.rate)!r}\t{float(self.predicted)!r}\t"
            f"{float(self.ewma)!r}\t{self.action}\t"
            f"{float(self.s_exec)!r}\t{float(self.s_comm)!r}\t{self.mapping!r}"
        )


class AdaptiveController:
    """EWMA drift monitor + incremental re-solver for one stream.

    One controller drives one run: it owns the believed cost state (the
    per-class slowdowns ``s_exec``/``s_comm``), a
    :class:`~repro.core.remap.RemapPlanner` whose segment cache persists
    across every incremental re-solve, the per-epoch :attr:`records`, and
    an :attr:`audit` trail of every (chain, plan) it solved — which
    :meth:`audit_incremental_solves` replays cold to prove the incremental
    path byte-identical.
    """

    def __init__(
        self,
        chain: TaskChain,
        total_procs: int,
        mem_per_proc_mb: float = UNLIMITED_MEMORY_MB,
        config: ControllerConfig | None = None,
    ):
        self.base_chain = chain
        self.total_procs = total_procs
        self.config = config or ControllerConfig()
        self.planner = RemapPlanner(chain, mem_per_proc_mb=mem_per_proc_mb)
        plan = self.planner.plan(total_procs)
        self.mapping = plan.mapping
        self.initial_mapping = plan.mapping
        #: Believed per-class slowdowns of the live system vs the base chain.
        self.s_exec = 1.0
        self.s_comm = 1.0
        #: Believed steady-state rate of ``mapping``, in true (observed) time.
        self.predicted_rate = plan.throughput
        self.ewma: float | None = None
        self._breach = 0
        self.records: list[ControllerRecord] = []
        self.audit: list[dict] = []
        self.remap_count = 0
        self._busy = None  # (mapping, e_m, c_m, comms, ecoms) of _busy_model

    # -- introspection -----------------------------------------------------
    @property
    def resolves(self) -> int:
        """DP solves performed (including the initial one)."""
        return self.planner.solves

    @property
    def evictions(self) -> int:
        """Segment-cache entries evicted across incremental updates."""
        return self.planner.evictions

    def dumps(self) -> str:
        """Canonical text of the monitoring log (byte-stable across runs)."""
        header = (
            "epoch\tstart\tstop\trate\tpredicted\tewma\taction\t"
            "s_exec\ts_comm\tmapping"
        )
        return "\n".join([header] + [r.line() for r in self.records]) + "\n"

    # -- stream-runner interface -------------------------------------------
    def adopt(self, mapping: Mapping) -> None:
        """Start from an externally chosen mapping instead of the DP's."""
        perf = evaluate_mapping(
            self.base_chain, mapping, self.planner.mem_per_proc_mb
        )
        self.mapping = mapping
        self.initial_mapping = mapping
        self.predicted_rate = perf.throughput
        self.ewma = None
        self._breach = 0

    def observe(self, obs: EpochObservation) -> ControllerDecision:
        """Digest one epoch; decide what mapping the next epochs run."""
        cfg = self.config
        rate = obs.rate
        ratio = rate / self.predicted_rate
        self.ewma = (
            ratio if self.ewma is None
            else cfg.alpha * ratio + (1.0 - cfg.alpha) * self.ewma
        )
        ewma_seen = self.ewma
        action = "ok"
        do_remap = False

        if cfg.adapt:
            if abs(self.ewma - 1.0) > cfg.dead_band:
                self._breach += 1
            else:
                self._breach = 0
            # The oracle re-solves every epoch and deploys any gain.
            if cfg.oracle or self._breach >= cfg.patience:
                s_x, s_c = self._estimate_scales(obs)
                plan, t_new, t_cur = self._resolve(s_x, s_c, obs)
                if (
                    obs.remaining > 0
                    and plan.mapping != self.mapping
                    and (t_new > t_cur if cfg.oracle
                         else self._payback_ok(t_cur, t_new, obs.remaining))
                ):
                    do_remap = True
                    self.mapping = plan.mapping
                    self.predicted_rate = t_new
                    action = "remap"
                else:
                    # Re-anchoring is free: adopt the drifted prediction for
                    # the current mapping and recentre the dead band.
                    self.predicted_rate = t_cur
                    action = "anchor"
                self._breach = 0
                self.ewma = None

        if do_remap:
            self.remap_count += 1
        self.records.append(
            ControllerRecord(
                epoch=obs.index, start=obs.start, stop=obs.stop,
                rate=rate, predicted=self.predicted_rate, ewma=ewma_seen,
                action=action, s_exec=self.s_exec, s_comm=self.s_comm,
                mapping=self.mapping,
            )
        )
        return ControllerDecision(
            remap=do_remap, mapping=self.mapping,
            predicted_rate=self.predicted_rate, action=action,
        )

    # -- diagnosis ---------------------------------------------------------
    def _estimate_scales(self, obs: EpochObservation) -> tuple[float, float]:
        """Fit per-class slowdowns to the epoch's observed busy times.

        Every data set makes each module busy for ``s_exec * e_m + s_comm *
        c_m`` seconds, where ``e_m``/``c_m`` are the base chain's execution
        (incl. internal redistribution) and adjacent-transfer responses at
        the mapping's instance sizes — so the per-module mean busy times
        are an exactly determined linear system in ``(s_exec, s_comm)``,
        solved in closed form (2x2 normal equations, byte-stable; no LAPACK).

        A class the current mapping cannot observe keeps its prior
        estimate.  The crucial case is a fully merged mapping: it performs
        *no* external transfers, so nothing constrains ``s_comm`` — the
        fit collapses onto ``s_exec`` alone and ``s_comm`` stays at its
        last believed value (initially 1.0).  That is exactly what lets
        the controller escape a merged optimum: execution drift is
        observed, communication is assumed un-drifted until transfers are
        actually measured, and the re-solve can find that splitting now
        pays.  Collinear systems (exec ∝ comm across modules) degrade the
        same way.
        """
        es, cs = self._busy_model()
        l = len(es)
        n = obs.stop - obs.start
        observed = [0.0] * l
        for (m, _), busy in obs.busy.items():
            observed[m] += busy
        a11 = a12 = a22 = b1 = b2 = 0.0
        exec_sum = comm_sum = obs_sum = 0.0
        for e, c, busy in zip(es, cs, observed):
            o = busy / n
            a11 += e * e
            a12 += e * c
            a22 += c * c
            b1 += e * o
            b2 += c * o
            exec_sum += e
            comm_sum += c
            obs_sum += o
        det = a11 * a22 - a12 * a12
        if det > 1e-12 * max(a11 * a22, 1e-300):
            s_x = (a22 * b1 - a12 * b2) / det
            s_c = (a11 * b2 - a12 * b1) / det
            if s_x > 0.0 and s_c > 0.0:
                return s_x, s_c
        if a11 > 0.0:
            # Unobservable or collinear comm: keep the prior ``s_comm``,
            # explain the residual busy time with execution alone.
            s_c = self.s_comm
            s_x = (b1 - s_c * a12) / a11
            if s_x > 0.0:
                return s_x, s_c
        # Last resort: one uniform scale for everything observable.
        total = exec_sum + comm_sum
        s = obs_sum / total if total > 0 else 1.0
        return max(s, 1e-12), max(s, 1e-12)

    def _busy_model(self) -> tuple[list[float], list[float]]:
        """Per-module ``(e_m, c_m)`` of the deployed mapping on the base
        chain, for :meth:`_estimate_scales`.  They change only when the
        mapping does (initial plan, adopt, remap), so they are memoised on
        the mapping object, together with the per-edge comms they sum and
        the base chain's models of those edges, which
        :meth:`_price_deployed` reads."""
        mapping = self.mapping
        if self._busy is None or self._busy[0] is not mapping:
            mchain = build_module_chain(
                self.base_chain, mapping.clustering(),
                self.planner.mem_per_proc_mb,
            )
            sizes = [m.procs for m in mapping.modules]
            l = len(mchain)
            comms = [
                float(mchain.ecoms[i](sizes[i], sizes[i + 1]))
                for i in range(l - 1)
            ]
            es, cs = [], []
            for i, info in enumerate(mchain.infos):
                # Each data set runs on exactly one instance, so the
                # *summed* busy time across a module's replicas is one
                # execution plus both adjacent transfers per data set,
                # replicated or not.
                c = 0.0
                if i > 0:
                    c += comms[i - 1]
                if i < l - 1:
                    c += comms[i]
                es.append(float(info.exec_cost(sizes[i])))
                cs.append(c)
            self._busy = (mapping, es, cs, comms, mchain.ecoms)
        return self._busy[1], self._busy[2]

    def _price_deployed(self, believed: TaskChain) -> float:
        """Throughput of the deployed mapping on ``believed``, bit for bit
        :func:`~repro.core.response.evaluate_module_chain`'s, from the
        busy model's memo.

        ``believed`` is the base chain with rescaled external comms (see
        :meth:`_resolve`): its execution costs are the memoised ones, and a
        believed comm model whose :meth:`~repro.core.cost.BinaryCost.unscaled`
        model is the base edge's costs ``factor`` times the memoised comm,
        bit for bit.  Any other comm model is evaluated.
        """
        self._busy_model()
        _, es, _, comms, base_ecoms = self._busy
        modules = self.mapping.modules
        believed_comms = []
        for i, (c, base) in enumerate(zip(comms, base_ecoms)):
            ecom = believed.edges[modules[i].stop].ecom
            if ecom is not base:
                model, factor = ecom.unscaled()
                c = (factor * c if model is base
                     else float(ecom(modules[i].procs, modules[i + 1].procs)))
            believed_comms.append(c)
        return _price(es, believed_comms, [m.replicas for m in modules])[3]

    def _resolve(self, s_x: float, s_c: float, obs: EpochObservation):
        """Incrementally re-solve under the believed slowdowns.

        The optimum is scale-invariant, so the DP solves the *normalised*
        chain — base execution costs, external communication scaled by
        ``s_comm / s_exec`` — and only the edge-adjacent response parts
        are recomposed.  Normalised throughputs divide by ``s_exec`` to return
        to true seconds.  The current mapping, priced on the updated
        chain first, is the search's incumbent: clusterings that cannot
        beat it are skipped.  Returns ``(plan, t_new, t_current)``.
        """
        self.s_exec, self.s_comm = s_x, s_c
        believed = scale_chain(
            self.base_chain, comm_scale=s_c / s_x,
            name=f"{self.base_chain.name}@drift",
        )
        delta = self.planner.update_chain(believed)
        current = self._price_deployed(believed)
        plan = self.planner.plan(self.total_procs, incumbent=current)
        t_new = plan.throughput / s_x
        t_cur = current / s_x
        self.audit.append({
            "epoch": obs.index, "chain": believed, "plan": plan,
            "delta": delta, "s_exec": s_x, "s_comm": s_c,
        })
        return plan, t_new, t_cur

    def _payback_ok(self, t_cur: float, t_new: float, remaining: int) -> bool:
        """Does deploying the candidate mapping pay for its downtime?"""
        cfg = self.config
        if t_new <= t_cur * (1.0 + cfg.min_gain):
            return False
        if cfg.remap_latency <= 0:
            return True
        saved = remaining * (1.0 / t_cur - 1.0 / t_new)
        return saved >= cfg.payback * cfg.remap_latency

    # -- verification ------------------------------------------------------
    def audit_incremental_solves(self) -> int:
        """Cold-re-solve every incrementally solved chain; verify identity.

        For each audit entry the believed chain is solved from scratch
        (fresh segment cache; the shared DP arena carries no state between
        solves) and the mapping and throughput must
        match the incremental plan **exactly** — same clustering, same
        allocation, bit-identical floats.  Returns the number of solves
        audited; raises ``AssertionError`` on any divergence.
        """
        from ..core.dp_cluster import optimal_mapping

        for entry in self.audit:
            plan = entry["plan"]
            cold = optimal_mapping(
                entry["chain"], self.total_procs,
                self.planner.mem_per_proc_mb,
            )
            if cold.mapping != plan.mapping:
                raise AssertionError(
                    f"incremental solve diverged at epoch {entry['epoch']}: "
                    f"{plan.mapping} vs cold {cold.mapping}"
                )
            if cold.throughput != plan.throughput:
                raise AssertionError(
                    f"incremental throughput diverged at epoch "
                    f"{entry['epoch']}: {plan.throughput!r} vs cold "
                    f"{cold.throughput!r}"
                )
        return len(self.audit)

    def __repr__(self):
        return (
            f"AdaptiveController(mapping={self.mapping!r}, "
            f"remaps={self.remap_count}, resolves={self.resolves}, "
            f"s_exec={self.s_exec:.4g}, s_comm={self.s_comm:.4g})"
        )
