"""Incremental re-solving when a chain's *cost tables* change.

The fault-tolerance layer re-solves the DP when the *machine* shrinks
(:class:`~repro.core.remap.RemapPlanner`).  The online adaptive runtime
needs the complementary move: the machine is intact but the *chain's costs
drifted* — observed operation times no longer match the tables the current
mapping was solved against.  Re-solving from scratch would discard the
entire :class:`~repro.core.response.SegmentCache`; this module computes
**which** tasks and edges actually changed (:func:`diff_chains`) so the
cache can evict exactly the segments whose tensors are stale
(:meth:`SegmentCache.invalidate`) and the re-solve recomputes only those.

The controller exploits a normalisation trick to keep the delta small: the
optimal mapping is invariant under a *global* rescaling of every cost, so a
uniform execution slowdown ``s_x`` plus a communication slowdown ``s_c``
is equivalently solved as the original chain with only the external
communication scaled by ``s_c / s_x`` (:func:`scale_chain` with
``comm_scale=``).  Every edge then differs, but only in its external
communication (:attr:`ChainDelta.ecom_only`), so the cache keeps every
segment's :class:`~repro.core.response.ModuleInfo` and exec table, and
each edge's grid of its unscaled model, which it rescales by the edge's
new factor; only the response parts adjacent to an edge are evicted and
recomposed.  The solved throughput is in normalised time and must be
divided by ``s_x`` to get back to true seconds (the controller does
this).

Differential guarantee: an incremental re-solve after
:meth:`RemapPlanner.update_chain` is **byte-identical** to a cold solve of
the updated chain — same mapping, same performance floats.  The eviction
rules are what make this safe; ``tests/core/test_resolve.py`` checks it
across randomised perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost import ScaledBinary, ScaledUnary, ZeroBinary, ZeroUnary
from .task import Edge, Task, TaskChain

__all__ = ["ChainDelta", "diff_chains", "scale_chain"]


@dataclass(frozen=True)
class ChainDelta:
    """Indices of the tasks and edges that differ between two chains.

    ``ecom_only`` names the changed edges whose internal communication is
    the same: only their external communication changed, so segments that
    swallow them keep their execution costs.
    """

    tasks: tuple[int, ...]
    edges: tuple[int, ...]
    ecom_only: tuple[int, ...] = ()

    @property
    def trivial(self) -> bool:
        """Nothing changed: caches and memoised plans stay fully valid."""
        return not self.tasks and not self.edges

    def __repr__(self):
        return (f"ChainDelta(tasks={list(self.tasks)}, edges={list(self.edges)}, "
                f"ecom_only={list(self.ecom_only)})")


def _same_model(a, b) -> bool:
    """Structural equality of two cost models.

    Identical objects compare equal without serialising — callers that
    reuse unchanged ``Task``/``Edge`` objects (as :func:`scale_chain` does)
    get an O(1) comparison.  Models that cannot serialise (``LambdaUnary``
    and friends) compare equal only by identity: when in doubt, report a
    change — a spurious eviction costs a recomputation, a missed one would
    cost correctness.
    """
    if a is b:
        return True
    try:
        return a.to_dict() == b.to_dict()
    except NotImplementedError:
        return False


def _same_task(a: Task, b: Task) -> bool:
    if a is b:
        return True
    return (
        a.name == b.name
        and a.mem_fixed_mb == b.mem_fixed_mb
        and a.mem_parallel_mb == b.mem_parallel_mb
        and a.replicable == b.replicable
        and a.min_procs == b.min_procs
        and _same_model(a.exec_cost, b.exec_cost)
    )


def diff_chains(old: TaskChain, new: TaskChain) -> ChainDelta:
    """The per-index delta between two structurally matching chains.

    Both chains must have the same task count — the adaptive runtime
    updates *costs*, never the program structure.  Raises ``ValueError``
    otherwise.
    """
    if len(old) != len(new):
        raise ValueError(
            f"chains differ structurally: {len(old)} vs {len(new)} tasks "
            f"(incremental re-solve updates costs, not structure)"
        )
    tasks = tuple(
        i for i, (a, b) in enumerate(zip(old.tasks, new.tasks))
        if not _same_task(a, b)
    )
    edges, ecom_only = [], []
    for j, (a, b) in enumerate(zip(old.edges, new.edges)):
        if a is b:
            continue
        same_icom = _same_model(a.icom, b.icom)
        if not (same_icom and _same_model(a.ecom, b.ecom)):
            edges.append(j)
            if same_icom:
                ecom_only.append(j)
    return ChainDelta(tasks, tuple(edges), tuple(ecom_only))


def _scaled_unary(model, factor: float):
    if factor == 1.0 or isinstance(model, ZeroUnary):
        return model
    return ScaledUnary(model, factor)


def _scaled_binary(model, factor: float):
    if factor == 1.0 or isinstance(model, ZeroBinary):
        return model
    return ScaledBinary(model, factor)


def scale_chain(
    chain: TaskChain,
    exec_scale: float = 1.0,
    comm_scale: float = 1.0,
    name: str | None = None,
) -> TaskChain:
    """A chain with execution and communication costs uniformly rescaled.

    ``exec_scale`` multiplies every task execution cost *and* every
    internal-communication cost (redistribution executes on the module's
    own processors, so it drifts with compute); ``comm_scale`` multiplies
    every external-communication cost.  Components whose scale is 1 are
    reused **by object identity**, so :func:`diff_chains` against the
    source chain reports exactly the scaled indices — always scale from
    the same pristine base chain, not from a previously scaled result, to
    keep deltas minimal and factors exact.
    """
    if exec_scale <= 0 or comm_scale <= 0:
        raise ValueError("scale factors must be positive")
    if exec_scale == 1.0 and comm_scale == 1.0:
        return chain
    tasks = [
        t if exec_scale == 1.0 else Task(
            name=t.name,
            exec_cost=_scaled_unary(t.exec_cost, exec_scale),
            mem_fixed_mb=t.mem_fixed_mb,
            mem_parallel_mb=t.mem_parallel_mb,
            replicable=t.replicable,
            min_procs=t.min_procs,
        )
        for t in chain.tasks
    ]
    edges = [
        e if exec_scale == 1.0 and comm_scale == 1.0 else Edge(
            icom=_scaled_unary(e.icom, exec_scale),
            ecom=_scaled_binary(e.ecom, comm_scale),
        )
        for e in chain.edges
    ]
    return TaskChain(tasks, edges, name=name or chain.name)
