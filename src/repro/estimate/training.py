"""Design of the training set (paper §5: "computed using 8 executions").

The training runs must expose every model parameter:

* merged runs — the whole chain as one module at several partition sizes —
  sample each task's execution *and* each edge's internal redistribution at
  3 sizes (3 unknowns each);
* split runs — one task per module with deliberately skewed allocations —
  sample each edge's external communication at 5 distinct ``(ps, pr)``
  pairs (5 unknowns), plus more execution sizes for free.

Eight runs (3 merged + 5 split) therefore identify every coefficient, which
is exactly the budget the paper reports.
"""

from __future__ import annotations

import numpy as np

from ..core.exceptions import InfeasibleError
from ..core.mapping import Mapping, ModuleSpec
from ..core.response import module_info
from ..core.task import TaskChain

__all__ = ["training_mappings"]


def _merged_sizes(p_min: int, P: int, n: int) -> list[int]:
    """n distinct partition sizes spread geometrically in [p_min, P]."""
    if P < p_min:
        return []
    sizes = sorted(
        {int(round(x)) for x in np.geomspace(max(p_min, 1), P, n)}
    )
    sizes = [max(p_min, min(P, s)) for s in sizes]
    return sorted(set(sizes))


def _split_allocations(minimums: list[int], P: int, n: int) -> list[list[int]]:
    """n allocation vectors over the singleton clustering, deliberately
    varied so every edge sees several distinct (ps, pr) pairs."""
    k = len(minimums)
    base = sum(minimums)
    spare = P - base
    if spare < 0:
        return []
    allocs: list[list[int]] = []

    def add(weights: list[float]):
        w = np.array(weights, dtype=float)
        w = w / w.sum() if w.sum() > 0 else np.full(k, 1.0 / k)
        extra = np.floor(w * spare).astype(int)
        rem = spare - int(extra.sum())
        order = np.argsort(-(w * spare - extra))
        for i in range(rem):
            extra[order[i % k]] += 1
        alloc = [m + int(e) for m, e in zip(minimums, extra)]
        if alloc not in allocs:
            allocs.append(alloc)

    add([1.0] * k)                                   # even
    add([2.0 ** i for i in range(k)])                # skew to the back
    add([2.0 ** (k - 1 - i) for i in range(k)])      # skew to the front
    add([1.0 if i % 2 == 0 else 3.0 for i in range(k)])   # alternating
    add([3.0 if i % 2 == 0 else 1.0 for i in range(k)])   # anti-alternating
    add([1.0 if i == 0 else 2.0 if i == k - 1 else 1.5 for i in range(k)])
    rng = np.random.default_rng(12345)
    while len(allocs) < n:
        before = len(allocs)
        add(list(rng.uniform(0.5, 4.0, size=k)))
        if len(allocs) == before and len(allocs) >= 1:
            break  # the allocation space is exhausted (tiny spare)
    return allocs[:n]


def training_mappings(
    chain: TaskChain,
    total_procs: int,
    mem_per_proc_mb: float = float("inf"),
    merged_runs: int = 3,
    split_runs: int = 5,
) -> list[Mapping]:
    """Build the training set of mappings (8 by default, as in the paper).

    Falls back gracefully when memory minimums rule out one run family
    (e.g. the merged module does not fit): the other family is extended.
    Raises :class:`InfeasibleError` if no training run fits at all.
    """
    k = len(chain)
    P = int(total_procs)
    mappings: list[Mapping] = []

    # Merged (pure data-parallel) runs; none when the merged module is unfit.
    merged_min = module_info(chain, 0, k - 1, mem_per_proc_mb).p_min
    merged = _merged_sizes(merged_min, P, merged_runs)
    for p in merged:
        mappings.append(Mapping([ModuleSpec(0, k - 1, p)]))

    # Split (task-parallel) runs.
    if k > 1:
        minimums = [
            module_info(chain, i, i, mem_per_proc_mb).p_min for i in range(k)
        ]
        want = split_runs + (merged_runs - len(merged))
        for alloc in _split_allocations(minimums, P, want):
            mappings.append(
                Mapping([ModuleSpec(i, i, alloc[i]) for i in range(k)])
            )

    if not mappings:
        raise InfeasibleError(
            f"no training mapping of {chain.name!r} fits on {P} processors"
        )
    return mappings
