"""Shared tensor workspace for the assignment DP (performance layer).

Each stage of the §3.1 transition needs several ``(P+1)^3`` tensors — the
value table, its predecessor, the shifted view ``W``, the response tensor,
and the ``max``/``argmin`` scratch block.  The seed solver re-allocated all
of them for every stage of every clustering, which dominated both solve
time (allocation + page faults) and peak memory at large ``P``.

:class:`SolverWorkspace` preallocates one ``float64`` arena per machine
size ``P`` and reuses it across stages, clusterings, and solves.  The
transition scratch block holds :data:`PREFERRED_PLANES` pt-planes, capped
at :data:`DEFAULT_SCRATCH_MB`.

Argmin tables are stored in the smallest integer dtype that can index
``0..P`` (``uint8`` up to ``P = 255``), a 4x saving over the seed's
``int32`` tables.

The workspace is not thread-safe: share one per thread/process.  The
module-level :func:`default_workspace` is what the solvers use when the
caller does not pass one explicitly.
"""

from __future__ import annotations

import numpy as np

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

    def __init__(self, P: int):
        N = P + 1
        self.P = P
        self.q_dtype = argmin_dtype(P)
        # Ping-pong value tables, shifted-view W (pt, pl, q), response R2
        # (pl, pn, q) — the q axis last so the reduction is contiguous.
        self.V0 = np.empty((N, N, N))
        self.V1 = np.empty((N, N, N))
        # W2 and R2 share one buffer, W2 first.  The stage shift writes W2
        # through ``W2_skew[d, pl, q] = W2[d + pl, pl, q]`` in one copy; rows
        # past ``pt = P`` spill into R2, which each stage assembles after
        # the shift.  W2's ``pt < pl`` cells are never written: +inf for good.
        wr = np.empty(2 * N ** 3)
        self.W2 = wr[: N ** 3].reshape(N, N, N)
        self.R2 = wr[N ** 3:].reshape(N, N, N)
        s0, s1, s2 = self.W2.strides
        self.W2_skew = np.ndarray(
            (N, N, N), dtype=wr.dtype, buffer=wr, strides=(s0, s0 + s1, s2)
        )
        #: ``pt < pl``: a module cannot exceed the budget of its prefix.
        self.over_budget = np.arange(N)[:, None] < np.arange(N)[None, :]
        self.W2[self.over_budget] = np.inf
        # Flat offset of each row of an (N, N, N) block; row 0 serves an
        # (N, N) plane.
        self.plane_offs = np.arange(N * N, dtype=np.intp).reshape(N, N) * N
        # Scratch for the max/argmin block: PREFERRED_PLANES pt-planes
        # within DEFAULT_SCRATCH_MB, at least one (pl-row, pn, q) tile.
        tile = N * N
        scratch_bytes = min(PREFERRED_PLANES * N * tile * wr.itemsize,
                            int(DEFAULT_SCRATCH_MB * 2**20))
        cells = max(1, scratch_bytes // (tile * wr.itemsize))
        cells = min(cells, N * N)  # never more than the full table
        self.t_flat = np.empty(cells * tile)
        self.idx_flat = np.empty(cells * N, dtype=np.intp)
        # Flat offset of each (pt, pl, pn) row of a block: row + argmin
        # indexes the block's minimum without an index array per block.
        self.offs_flat = np.arange(cells * N, dtype=np.intp) * N
        self.blocks = _tiling(N, cells)

    def diagonal(self, V: np.ndarray) -> np.ndarray:
        """``D[pl, q] = V[P - pl, q, pl]``: the states the last stage reads,
        as a strided view of ``V`` (``V0`` or ``V1``)."""
        s0, s1, s2 = V.strides
        return np.ndarray(
            (self.P + 1, self.P + 1), dtype=V.dtype, buffer=V,
            offset=self.P * s0, strides=(s2 - s0, s1),
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
    """Reusable ``float64`` tensor arena for the assignment DP."""

    def __init__(self):
        self._arena: _Arena | None = None

    def arena(self, P: int) -> _Arena:
        """The buffer set for machine size ``P`` (grown/reused as needed)."""
        ar = self._arena
        if ar is None or ar.P != P:
            self._arena = None  # release before allocating the replacement
            ar = self._arena = _Arena(P)
        return ar

    def drop(self) -> None:
        """Free the arena entirely (e.g. between sweeps at different P)."""
        self._arena = None


_DEFAULT: SolverWorkspace | None = None


def default_workspace() -> SolverWorkspace:
    """The process-wide workspace used when solvers get ``workspace=None``."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SolverWorkspace()
    return _DEFAULT
