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
  cannot exceed the budget of its prefix), halving the work;
* the last stage materialises only the ``pt = P, pn = 0`` plane the
  reconstruction can ever read, turning one full ``O(P^4)`` stage per
  solve into an ``O(P^2)`` one;
* argmin tables use the smallest integer dtype that can index ``0..P``.

All of these preserve the exact float operations (and first-index argmin
tie-breaking) of the seed implementation, so returned mappings are
byte-identical; the benchmark harness asserts this against an embedded
copy of the seed solver.  An opt-in ``float32`` workspace trades that
bit-equality for half the memory traffic, with the reconstructed mapping
re-scored analytically in ``float64`` so reported numbers stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .workspace import SolverWorkspace, argmin_dtype, default_workspace

__all__ = ["DPResult", "optimal_assignment"]

@dataclass
class DPResult:
    """Outcome of the dynamic-programming assignment."""

    totals: list[int]                 # total processors per module
    performance: MappingPerformance   # evaluated optimal mapping
    bottleneck_response: float        # the DP objective value
    stages: int                       # number of modules
    table_size: int                   # entries per DP table (diagnostics)

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
    if out.dtype != ce.dtype:
        ce = ce.astype(out.dtype)
        com_out = com_out.astype(out.dtype)
        denom = denom.astype(out.dtype)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.add(ce.T[:, None, :], com_out[:, :, None], out=out)
        np.divide(out, denom[:, None, None], out=out)
    out[~feasible] = np.inf
    if mask is not None:
        out[~mask] = np.inf


def _assemble_final_plane(mchain, j, P, dtype, mask):
    """``R[q, pl, 0]`` as a ``(pl, q)`` plane — all the last stage needs."""
    ce, com_out, denom, feasible = mchain.response_parts(j, P)
    with np.errstate(invalid="ignore", divide="ignore"):
        plane = (ce.T + com_out[:, 0][:, None]) / denom[:, None]
    plane[~feasible] = np.inf
    if mask is not None:
        plane[~mask] = np.inf
    return plane.astype(dtype, copy=False)


def _first_stage(mchain, P, V, mask):
    """V_0[pt, pl, pn] = resp_0(φ, pl, pn), +inf where pl exceeds pt."""
    ce, com_out, denom, feasible = mchain.response_parts(0, P)
    with np.errstate(invalid="ignore", divide="ignore"):
        base = (ce[0][:, None] + com_out) / denom[:, None]  # (pl, pn)
    base[~feasible] = np.inf
    if mask is not None:
        base[~mask] = np.inf
    np.copyto(V, base[None, :, :])
    over_budget = np.arange(P + 1)[:, None] < np.arange(P + 1)[None, :]
    V[over_budget] = np.inf


def _shift_into(V_prev, W2, P):
    """``W2[pt, pl, q] = V_prev[pt - pl, q, pl]`` (+inf when pt < pl).

    Built as P+1 strided slice copies — no index tensors, no temporaries.
    """
    N = P + 1
    for pl in range(N):
        dst = W2[:, pl, :]
        dst[pl:] = V_prev[: N - pl, :, pl]
        if pl:
            dst[:pl] = np.inf


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
        A :class:`SolverWorkspace` providing the reusable tensor arena and
        the dtype/memory policy; defaults to the process-wide one.

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

    ws = workspace if workspace is not None else default_workspace()
    ar = ws.arena(P)
    N = P + 1
    size = N ** 3
    q_dtype = argmin_dtype(P)

    def mask_for(j):
        if allowed_totals is None:
            return None
        return np.asarray(allowed_totals(j), dtype=bool)

    V_prev, V_next = ar.V0, ar.V1
    _first_stage(mchain, P, V_prev, mask_for(0))

    # None for stage 0; (P+1)^3 tables for middle stages; a 1-D plane row
    # (indexed by pl at the fixed pt=P, pn=0 state) for the last stage.
    argmin_tables: list[np.ndarray | None] = [None]
    final: np.ndarray | None = None

    for j in range(1, l):
        if j == l - 1:
            # Reconstruction only ever reads V_{l-1}[P, pl, 0], so the last
            # stage computes just that plane: O(P^2) instead of O(P^4).
            Rf = _assemble_final_plane(mchain, j, P, ar.R2.dtype, mask_for(j))
            W2f = np.empty_like(Rf)  # (pl, q)
            for pl in range(N):
                W2f[pl] = V_prev[P - pl, :, pl]
            T = np.maximum(W2f, Rf)
            qbest = np.argmin(T, axis=-1)
            final = np.take_along_axis(T, qbest[:, None], axis=-1)[:, 0]
            argmin_tables.append(qbest.astype(q_dtype))
            break

        _assemble_r2(mchain, j, P, ar.R2, mask_for(j))
        _shift_into(V_prev, ar.W2, P)
        V_next.fill(np.inf)
        Q = np.zeros((N, N, N), dtype=q_dtype)
        ws.track(Q.nbytes)

        cells = ar.block_cells  # (pt, pl) cells per scratch block
        tile = N * N            # one (pn, q) tile
        lo = 0
        while lo < N:
            # Grow the pt-chunk while the (triangle-limited) block fits.
            n = 1
            while lo + n < N and (n + 1) * min(lo + n + 1, N) <= cells:
                n += 1
            hi = lo + n
            m = min(hi, N)  # pl < hi can be feasible for pt < hi
            b = max(1, cells // n)  # pl-block when one chunk row overflows
            for bl in range(0, m, b):
                bh = min(bl + b, m)
                nb = bh - bl
                T = ar.t_flat[: n * nb * tile].reshape(n, nb, N, N)
                np.maximum(
                    ar.W2[lo:hi, bl:bh, None, :], ar.R2[None, bl:bh], out=T
                )
                idx = ar.idx_flat[: n * nb * N].reshape(n, nb, N)
                np.argmin(T, axis=-1, out=idx)
                Q[lo:hi, bl:bh] = idx
                V_next[lo:hi, bl:bh] = np.take_along_axis(
                    T, idx[..., None], axis=-1
                )[..., 0]
            lo = hi
        argmin_tables.append(Q)
        V_prev, V_next = V_next, V_prev

    if final is None:  # single-module chain: no transition ran
        final = V_prev[P, :, 0]

    best_pl = int(np.argmin(final))
    best_val = float(final[best_pl])
    if not np.isfinite(best_val):
        ws.release()
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
        else:
            q = int(table[pt, pl, pn])
        totals[j - 1] = q
        pt, pl, pn = pt - pl, q, pl
    ws.release()
    allocations = totals_to_allocations(mchain, totals)
    perf = evaluate_module_chain(mchain, allocations)
    if ws.value_dtype != np.dtype(np.float64):
        # Reduced-precision tables: re-score the reconstructed mapping
        # analytically so the reported objective is exact.
        best_val = float(max(perf.effective_responses))
    return DPResult(
        totals=totals,
        performance=perf,
        bottleneck_response=best_val,
        stages=l,
        table_size=size,
    )
