"""Shared tensor workspace for the assignment DP (performance layer).

Each stage of the §3.1 transition needs several ``(P+1)^3`` tensors — the
value table, its predecessor, the shifted view ``W``, the response tensor,
and the ``max``/``argmin`` scratch block.  The seed solver re-allocated all
of them for every stage of every clustering, which dominated both solve
time (allocation + page faults) and peak memory at large ``P``.

:class:`SolverWorkspace` preallocates one arena per machine size ``P`` and
reuses it across stages, clusterings, and solves.  It also centralises the
two memory/precision knobs of the solver stack:

``value_dtype``
    ``float64`` (default) keeps the DP bit-identical to the analytic
    response model.  ``float32`` halves the tables and the memory traffic
    of the transition; the reconstructed mapping is then re-scored in
    ``float64`` by the solver, so the *reported* throughput stays exact
    (the mapping itself may differ from the ``float64`` optimum only when
    two mappings are closer than ``float32`` resolution).

``memory_budget_mb``
    Caps the bytes the workspace may hold.  The transition scratch block is
    shrunk (down to a single ``(P+1)^2`` tile) to fit; the budget must at
    least cover the four resident ``(P+1)^3`` value tensors, otherwise
    :class:`~repro.core.exceptions.InfeasibleError` is raised up front
    rather than thrashing.

Argmin tables are stored in the smallest integer dtype that can index
``0..P`` (``uint8`` up to ``P = 255``), a 4x saving over the seed's
``int32`` tables.

The workspace is not thread-safe: share one per thread/process.  The
module-level :func:`default_workspace` is what the solvers use when the
caller does not pass one explicitly.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InfeasibleError

__all__ = [
    "SolverWorkspace",
    "default_workspace",
    "argmin_dtype",
]

#: Default cap on the transition scratch block ("T"), in MiB.  Four
#: pt-planes at P=64 (the tuned sweet spot) is far below this; the cap only
#: bites at large P where a full plane is itself hundreds of MiB.
DEFAULT_SCRATCH_MB = 256.0

#: Preferred number of pt-planes per transition chunk when memory allows.
PREFERRED_PLANES = 4


def argmin_dtype(max_procs: int) -> np.dtype:
    """Smallest unsigned dtype able to index processor counts ``0..max_procs``."""
    if max_procs <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if max_procs <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


class _Arena:
    """The per-``P`` buffer set.  All shapes use ``N = P + 1``.

    Besides the buffers it holds what every solve at this ``P`` would
    otherwise rebuild: the over-budget mask, the tiling of the transition
    into scratch blocks, and the strided views the stage shift writes
    through.
    """

    def __init__(self, P: int, value_dtype: np.dtype, scratch_bytes: int):
        N = P + 1
        self.P = P
        self.value_dtype = value_dtype
        self.q_dtype = argmin_dtype(P)
        itemsize = value_dtype.itemsize
        # Ping-pong value tables, shifted-view W (pt, pl, q), response R2
        # (pl, pn, q) — the q axis last so the reduction is contiguous.
        self.V0 = np.empty((N, N, N), dtype=value_dtype)
        self.V1 = np.empty((N, N, N), dtype=value_dtype)
        # W2 and R2 share one buffer, W2 first.  The stage shift writes W2
        # through ``W2_skew[d, pl, q] = W2[d + pl, pl, q]`` in one copy; rows
        # past ``pt = P`` spill into R2, which each stage assembles after
        # the shift.  W2's ``pt < pl`` cells are never written: +inf for good.
        wr = np.empty(2 * N ** 3, dtype=value_dtype)
        self.W2 = wr[: N ** 3].reshape(N, N, N)
        self.R2 = wr[N ** 3:].reshape(N, N, N)
        s0, s1, s2 = self.W2.strides
        self.W2_skew = np.ndarray(
            (N, N, N), dtype=value_dtype, buffer=wr, strides=(s0, s0 + s1, s2)
        )
        #: ``pt < pl``: a module cannot exceed the budget of its prefix.
        self.over_budget = np.arange(N)[:, None] < np.arange(N)[None, :]
        self.W2[self.over_budget] = np.inf
        # Flat offset of each row of an (N, N, N) block; row 0 serves an
        # (N, N) plane.
        self.plane_offs = np.arange(N * N, dtype=np.intp).reshape(N, N) * N
        # Scratch for the max/argmin block, sized by the budget; at least
        # one (pl-row, pn, q) tile.
        tile = N * N
        cells = max(1, scratch_bytes // (tile * itemsize))
        cells = min(cells, N * N)  # never more than the full table
        self.t_flat = np.empty(cells * tile, dtype=value_dtype)
        self.idx_flat = np.empty(cells * N, dtype=np.intp)
        # Flat offset of each (pt, pl, pn) row of a block: row + argmin
        # indexes the block's minimum without an index array per block.
        self.offs_flat = np.arange(cells * N, dtype=np.intp) * N
        self.block_cells = cells  # (pt, pl) cells per scratch block
        self.blocks = _tiling(N, cells)

    def diagonal(self, V: np.ndarray) -> np.ndarray:
        """``D[pl, q] = V[P - pl, q, pl]``: the states the last stage reads,
        as a strided view of ``V`` (``V0`` or ``V1``)."""
        s0, s1, s2 = V.strides
        return np.ndarray(
            (self.P + 1, self.P + 1), dtype=V.dtype, buffer=V,
            offset=self.P * s0, strides=(s2 - s0, s1),
        )

    @property
    def nbytes(self) -> int:
        return (
            self.V0.nbytes + self.V1.nbytes + self.W2.nbytes
            + self.R2.nbytes + self.t_flat.nbytes + self.idx_flat.nbytes
            + self.offs_flat.nbytes + self.plane_offs.nbytes
        )


def _tiling(N: int, cells: int) -> list[tuple[int, int, int, int]]:
    """The transition's ``(lo, hi, bl, bh)`` blocks: ``pt`` chunks grown
    while their triangle-limited ``pl`` range fits ``cells`` scratch cells,
    split into ``pl`` blocks when one chunk row overflows."""
    blocks = []
    lo = 0
    while lo < N:
        n = 1
        while lo + n < N and (n + 1) * min(lo + n + 1, N) <= cells:
            n += 1
        hi = lo + n
        m = min(hi, N)  # pl < hi can be feasible for pt < hi
        b = max(1, cells // n)
        for bl in range(0, m, b):
            blocks.append((lo, hi, bl, min(bl + b, m)))
        lo = hi
    return blocks


class SolverWorkspace:
    """Reusable tensor arena + dtype/memory policy for the assignment DP."""

    def __init__(
        self,
        value_dtype=np.float64,
        memory_budget_mb: float | None = None,
    ):
        self.value_dtype = np.dtype(value_dtype)
        if self.value_dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"unsupported value dtype {value_dtype!r}")
        self.memory_budget_mb = memory_budget_mb
        self._arena: _Arena | None = None
        self._extra_bytes = 0  # solver-owned tables (argmin) currently live
        self.peak_table_bytes = 0

    # -- memory policy ----------------------------------------------------
    def _scratch_bytes(self, P: int) -> int:
        N = P + 1
        itemsize = self.value_dtype.itemsize
        preferred = PREFERRED_PLANES * N * N * N * itemsize
        cap = int(DEFAULT_SCRATCH_MB * 2**20)
        if self.memory_budget_mb is None:
            return min(preferred, cap)
        budget = int(self.memory_budget_mb * 2**20)
        resident = 4 * N * N * N * itemsize  # V0, V1, W2, R2
        min_scratch = N * N * itemsize + N * np.dtype(np.intp).itemsize
        if budget < resident + min_scratch:
            need_mb = (resident + min_scratch) / 2**20
            raise InfeasibleError(
                f"memory budget {self.memory_budget_mb:.0f} MB cannot hold the "
                f"DP tables at P={P}; need at least {need_mb:.0f} MB"
            )
        return min(preferred, budget - resident)

    # -- arena management -------------------------------------------------
    def arena(self, P: int) -> _Arena:
        """The buffer set for machine size ``P`` (grown/reused as needed)."""
        ar = self._arena
        if ar is None or ar.P != P or ar.value_dtype != self.value_dtype:
            self._arena = None  # release before allocating the replacement
            ar = _Arena(P, self.value_dtype, self._scratch_bytes(P))
            self._arena = ar
            self._note()
        return ar

    # -- accounting -------------------------------------------------------
    def _note(self) -> None:
        live = (self._arena.nbytes if self._arena else 0) + self._extra_bytes
        if live > self.peak_table_bytes:
            self.peak_table_bytes = live

    def track(self, nbytes: int) -> None:
        """Record solver-owned table bytes (argmin tables) as live."""
        self._extra_bytes += nbytes
        self._note()

    def release(self) -> None:
        """Mark solver-owned tables as freed (end of one solve)."""
        self._extra_bytes = 0

    def reset_peak(self) -> None:
        self._extra_bytes = 0
        self.peak_table_bytes = (
            self._arena.nbytes if self._arena is not None else 0
        )

    def drop(self) -> None:
        """Free the arena entirely (e.g. between sweeps at different P)."""
        self._arena = None
        self._extra_bytes = 0


_DEFAULT: SolverWorkspace | None = None


def default_workspace() -> SolverWorkspace:
    """The process-wide workspace used when solvers get ``workspace=None``."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SolverWorkspace()
    return _DEFAULT
