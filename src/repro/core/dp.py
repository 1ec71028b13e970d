"""Optimal processor assignment by dynamic programming (paper §3.1–§3.2).

The recurrence is the paper's ``A_j(p_total, p_last, p_next)``: the optimal
assignment of ``p_total`` processors to the first ``j`` modules given that
module ``j`` holds ``p_last`` and module ``j+1`` holds ``p_next`` processors.
We store the equivalent *value* table

    V_j[pt, pl, pn] = minimal achievable bottleneck response over modules
                      1..j  (module j's response is computable inside the
                      state: it needs only q = p_{j-1}, p_last and p_next)

so the optimal throughput is ``1 / min_pl V_k[P, pl, 0]`` where index 0 on
the ``p_next`` axis encodes the paper's φ ("no next module").

The transition

    V_j[pt, pl, pn] = min_q  max( V_{j-1}[pt-pl, q, pl],  resp_j(q, pl, pn) )

is evaluated as vectorised numpy tensor operations, giving the paper's
``O(P^4 k)`` operation count at C speed with ``O(P^3)`` memory per stage.

Replication (§3.2) is folded in through *effective* processor counts: the
response tensors are built from :meth:`ModuleChain.response_parts`, which
converts total allocations into per-instance sizes and divides by the
instance count.

Performance layer (bit-identical to the straightforward evaluation):

* all ``(P+1)^3`` tensors live in a reusable :class:`SolverWorkspace`
  arena instead of being re-allocated per stage and per clustering;
* tensors are laid out with the reduction axis ``q`` last, so the
  ``max``/``argmin`` runs over contiguous memory;
* the transition block skips ``pl > pt`` cells (provably +inf — a module
  cannot exceed the budget of its prefix), halving the work, and the
  ``pn > P - pt`` states no later stage reads (the rest of the chain
  would have no processors);
* the stage shift ``W[pt, pl, q] = V[pt - pl, q, pl]`` is one strided copy
  (see :class:`~repro.core.workspace.SolverWorkspace`'s arena);
* the last stage materialises only the ``pt = P, pn = 0`` plane the
  reconstruction can ever read, turning one full ``O(P^4)`` stage per
  solve into an ``O(P^2)`` one, and the stage before it only the
  ``pt = P - pn`` states that plane reads — ``O(P^3)``;
* argmin tables use the smallest integer dtype that can index ``0..P``;
* the result is priced by the scalar evaluator only when read, so a
  caller ranking results by their DP value prices the ones it keeps.

All of these preserve the exact float operations (and first-index argmin
tie-breaking) of the seed implementation, so returned mappings are
byte-identical; the benchmark harness asserts this against an embedded
copy of the seed solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import InfeasibleError
from .mapping import Mapping
from .response import (
    MappingPerformance,
    ModuleChain,
    evaluate_module_chain,
    strip_replication,
    totals_to_allocations,
)
from .workspace import SolverWorkspace, default_workspace

__all__ = ["DPResult", "optimal_assignment"]

@dataclass
class DPResult:
    """Outcome of the dynamic-programming assignment.

    ``performance`` prices the allocation with the scalar evaluator
    (:func:`~repro.core.response.evaluate_module_chain`) on first read, so
    a caller that ranks many results by ``bottleneck_response`` prices only
    the ones it keeps (:func:`~repro.core.dp_cluster.exhaustive_mapping`).
    """

    totals: list[int]                 # total processors per module
    mchain: ModuleChain = field(repr=False)  # the chain ``totals`` allocate
    bottleneck_response: float        # the DP objective value

    @cached_property
    def performance(self) -> MappingPerformance:
        """The evaluated optimal mapping."""
        return evaluate_module_chain(
            self.mchain, totals_to_allocations(self.mchain, self.totals)
        )

    @property
    def mapping(self) -> Mapping:
        return self.performance.mapping

    @property
    def throughput(self) -> float:
        return self.performance.throughput


def _assemble_r2(mchain, j, P, out, mask):
    """Fill ``out[pl, pn, q]`` with module ``j``'s response tensor.

    Same float operations as the analytic ``(ce + com_out) / denom``
    formula, evaluated directly into the reusable workspace buffer.
    """
    ce, com_out, denom, feasible = mchain.response_parts(j, P)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.add(ce.T[:, None, :], com_out[:, :, None], out=out)
        np.divide(out, denom[:, None, None], out=out)
    out[~feasible] = np.inf
    if mask is not None:
        out[~mask] = np.inf


def _assemble_final_plane(mchain, j, P, mask):
    """``R[q, pl, 0]`` as a ``(pl, q)`` plane — all the last stage needs."""
    ce, com_out, denom, feasible = mchain.response_parts(j, P)
    with np.errstate(invalid="ignore", divide="ignore"):
        plane = (ce.T + com_out[:, 0][:, None]) / denom[:, None]
    plane[~feasible] = np.inf
    if mask is not None:
        plane[~mask] = np.inf
    return plane


def _first_stage(mchain, ar, V, mask):
    """V_0[pt, pl, pn] = resp_0(φ, pl, pn), +inf where pl exceeds pt."""
    ce, com_out, denom, feasible = mchain.response_parts(0, ar.P)
    with np.errstate(invalid="ignore", divide="ignore"):
        base = (ce[0][:, None] + com_out) / denom[:, None]  # (pl, pn)
    base[~feasible] = np.inf
    if mask is not None:
        base[~mask] = np.inf
    np.copyto(V, base[None, :, :])
    V[ar.over_budget] = np.inf


def optimal_assignment(
    mchain: ModuleChain,
    total_procs: int,
    replication: bool = True,
    allowed_totals=None,
    workspace: SolverWorkspace | None = None,
) -> DPResult:
    """Optimal allocation of ``total_procs`` processors to a module chain.

    Parameters
    ----------
    mchain:
        The (already clustered) chain of modules to allocate.
    total_procs:
        Machine size ``P``.  The optimum may deliberately leave processors
        idle (§3.1).
    replication:
        When true, each replicable module given ``p`` processors runs
        ``floor(p / p_min)`` instances per §3.2; when false every module is
        a single instance (the pure §3.1 problem).
    allowed_totals:
        Optional callable ``f(module_index) -> bool array of length P+1``
        masking which *total* allocations a module may take — used e.g. to
        restrict instance sizes to rectangular subarrays (§6.1 machine
        constraints).
    workspace:
        The :class:`SolverWorkspace` whose reusable tensor arena the
        solve runs in; defaults to the process-wide one.

    Returns a :class:`DPResult`; raises :class:`InfeasibleError` when the
    per-module minimums cannot be met.
    """
    if total_procs < 1:
        raise InfeasibleError("need at least one processor")
    if not replication:
        mchain = strip_replication(mchain)
    l = len(mchain)
    P = int(total_procs)
    if mchain.total_min_procs > P:
        raise InfeasibleError(
            f"modules need at least {mchain.total_min_procs} processors, "
            f"machine has {P}"
        )

    ar = (workspace or default_workspace()).arena(P)
    N = P + 1
    q_dtype = ar.q_dtype

    def mask_for(j):
        if allowed_totals is None:
            return None
        return np.asarray(allowed_totals(j), dtype=bool)

    V_prev, V_next = ar.V0, ar.V1
    _first_stage(mchain, ar, V_prev, mask_for(0))

    # One argmin table per stage after the first: (P+1)^3 for a full
    # stage, (pn, pl) for the anti-diagonal one, pl for the last plane.
    argmin_tables: list[np.ndarray | None] = [None]
    final = V_prev[P, :, 0]  # a single-module chain runs no transition
    # D[pn, pl] = V_{l-2}[P - pn, pl, pn]: the only states the last stage
    # reads (pn is its module's total, pl its predecessor's).
    D = ar.diagonal(V_prev)

    for j in range(1, l):
        if j == l - 1:
            # Reconstruction only ever reads V_{l-1}[P, pl, 0], so the last
            # stage computes just that plane: O(P^2) instead of O(P^4).
            Rf = _assemble_final_plane(mchain, j, P, mask_for(j))
            T = np.maximum(D, Rf)  # (pl, q)
            qbest = np.argmin(T, axis=-1)
            final = np.take(T, qbest + ar.plane_offs[0])
            argmin_tables.append(qbest.astype(q_dtype))
            break

        # W2[pt, pl, q] = V_prev[pt - pl, q, pl] in one copy (see _Arena);
        # R2 is assembled after it, over the copy's spill.
        np.copyto(ar.W2_skew, V_prev.transpose(0, 2, 1))
        _assemble_r2(mchain, j, P, ar.R2, mask_for(j))

        if j == l - 2:
            # The last stage reads this one only at pt = P - pn: one
            # (pn, pl, q) block, O(P^3) instead of O(P^4), in V_next.
            T = np.maximum(ar.W2[::-1], ar.R2.transpose(1, 0, 2), out=V_next)
            Qd = np.argmin(T, axis=-1)  # (pn, pl)
            D = np.take(T, Qd + ar.plane_offs)
            argmin_tables.append(Qd.astype(q_dtype))
            continue

        V_next.fill(np.inf)
        Q = np.zeros((N, N, N), dtype=q_dtype)
        for lo, hi, bl, bh in ar.blocks:
            # A prefix holding pt >= lo leaves the next module at most
            # P - lo processors: no later stage reads a state with
            # pt + pn > P, so the block stops at pn = P - lo.
            shape = (hi - lo, bh - bl, N - lo)
            rows = shape[0] * shape[1] * shape[2]
            T = ar.t_flat[: rows * N]
            np.maximum(
                ar.W2[lo:hi, bl:bh, None, :], ar.R2[None, bl:bh, : N - lo],
                out=T.reshape(*shape, N),
            )
            idx = ar.idx_flat[:rows].reshape(shape)
            np.argmin(T.reshape(*shape, N), axis=-1, out=idx)
            Q[lo:hi, bl:bh, : N - lo] = idx
            # The minimum is the argmin's entry: T at row offset + argmin.
            idx += ar.offs_flat[:rows].reshape(shape)
            np.take(T, idx, out=V_next[lo:hi, bl:bh, : N - lo], mode="clip")
        argmin_tables.append(Q)
        V_prev, V_next = V_next, V_prev

    best_pl = int(np.argmin(final))
    best_val = float(final[best_pl])
    if not np.isfinite(best_val):
        raise InfeasibleError(
            f"no feasible assignment of {P} processors to {l} modules"
        )

    # Reconstruct totals right-to-left.
    totals = [0] * l
    totals[l - 1] = best_pl
    pt, pl, pn = P, best_pl, 0
    for j in range(l - 1, 0, -1):
        table = argmin_tables[j]
        if table.ndim == 1:  # last-stage plane: state is (P, pl, 0)
            q = int(table[pl])
        elif table.ndim == 2:  # anti-diagonal: state is (P - pn, pl, pn)
            q = int(table[pn, pl])
        else:
            q = int(table[pt, pl, pn])
        totals[j - 1] = q
        pt, pl, pn = pt - pl, q, pl
    return DPResult(totals=totals, mchain=mchain, bottleneck_response=best_val)
