"""DP-driven remapping onto a shrinking machine (fault tolerance).

When a processor failure kills the only instance of a module, the stream
cannot continue under its current mapping: the mapper must re-solve on the
surviving processor set.  :class:`RemapPlanner` wraps the clustering +
assignment solver for exactly that loop:

* one :class:`~repro.core.response.SegmentCache` is shared across every
  re-solve — segment characteristics depend on the chain, not the machine
  size, so each distinct segment's cost tensors are built once for the
  lifetime of the stream, no matter how many times the machine shrinks;
* plans are memoised per surviving processor count — repeated failures
  that land on the same survivor count (or an idempotent retry) cost a
  dictionary lookup;
* every re-solve runs its assignment DPs in the process-wide
  :class:`~repro.core.workspace.SolverWorkspace`, whose arena is sized for
  one machine size: a shrink re-allocates the DP tensors once, and every
  clustering of that re-solve reuses them.

Each re-solve is :func:`~repro.core.dp_cluster.optimal_mapping` with
replication, so the chain's length picks the algorithm.

The simulator's :func:`~repro.sim.pipeline.simulate_fault_tolerant` drives
this planner; it is equally usable standalone for capacity planning
("what would we deploy at P-1, P-2, ... processors?").
"""

from __future__ import annotations

from .dp_cluster import ClusteredResult, optimal_mapping
from .response import UNLIMITED_MEMORY_MB, SegmentCache
from .task import TaskChain
from .validate import ensure_valid_plan

__all__ = ["RemapPlanner"]


class RemapPlanner:
    """Memoised re-mapper for a fixed chain on a shrinking machine."""

    def __init__(
        self,
        chain: TaskChain,
        mem_per_proc_mb: float = UNLIMITED_MEMORY_MB,
    ):
        self.chain = chain
        self.mem_per_proc_mb = mem_per_proc_mb
        self.cache = SegmentCache(chain, mem_per_proc_mb)
        self._plans: dict[int, ClusteredResult] = {}
        self.solves = 0
        self.updates = 0     # update_chain calls that changed something
        self.evictions = 0   # cache entries evicted across all updates

    def plan(
        self, total_procs: int, incumbent: float | None = None
    ) -> ClusteredResult:
        """The optimal mapping for ``total_procs`` surviving processors.

        Memoised; raises :class:`~repro.core.exceptions.InfeasibleError`
        when the chain no longer fits.  ``incumbent``, a throughput some
        mapping of the current chain reaches on ``total_procs`` processors,
        lets the search skip clusterings that cannot reach it (see
        :func:`~repro.core.dp_cluster.optimal_mapping`); the plan does not
        depend on it, so the memo stays keyed by ``total_procs`` alone.
        """
        got = self._plans.get(total_procs)
        if got is None:
            got = optimal_mapping(
                self.chain,
                total_procs,
                self.mem_per_proc_mb,
                cache=self.cache,
                incumbent=incumbent,
            )
            # Every plan handed to the runtime passes preflight first.
            ensure_valid_plan(
                self.chain, got.mapping, total_procs, self.mem_per_proc_mb
            )
            self._plans[total_procs] = got
            self.solves += 1
        return got

    def update_chain(self, chain: TaskChain) -> "ChainDelta":
        """Repoint the planner at a chain with *changed cost tables*.

        The second remapping axis (beyond a shrinking machine): workload
        drift re-prices tasks and edges while the program structure stays
        fixed.  The delta against the current chain is computed
        structurally (:func:`~repro.core.resolve.diff_chains`) and only
        the segment-cache entries that delta touches are evicted
        (:meth:`~repro.core.response.SegmentCache.invalidate`) — the next
        :meth:`plan` call recomputes exactly the stale tables and is
        byte-identical to a cold solve of the new chain.  Memoised plans
        are dropped unless nothing changed.  Returns the delta.
        """
        from .resolve import diff_chains

        delta = diff_chains(self.chain, chain)
        self.evictions += self.cache.invalidate(
            delta.tasks, delta.edges, delta.ecom_only
        )
        # Rebind both references even on a trivial delta: optimal_mapping
        # ignores a cache whose ``chain`` is not the solved chain object.
        self.chain = chain
        self.cache.chain = chain
        if not delta.trivial:
            self._plans.clear()
            self.updates += 1
        return delta

    def degradation_curve(self, machine_procs: int, max_failures: int) -> list:
        """Optimal throughput at 0..max_failures lost processors.

        Entries are ``(surviving_procs, throughput)``; the curve stops early
        at the first infeasible size.  Useful for capacity planning and the
        ``fault_study`` experiment.
        """
        from .exceptions import InfeasibleError

        curve = []
        for lost in range(max_failures + 1):
            p = machine_procs - lost
            if p < 1:
                break
            try:
                curve.append((p, self.plan(p).throughput))
            except InfeasibleError:
                break
        return curve

    def __repr__(self):
        return (
            f"RemapPlanner(chain={self.chain.name!r}, "
            f"plans={len(self._plans)}, solves={self.solves})"
        )
