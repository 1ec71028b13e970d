"""Fast heuristic mapping: greedy clustering + greedy assignment (paper §4.2).

Clustering is a coarse decision: mappings near the optimum typically share
one clustering (§4), so the heuristic first searches clusterings with an
*approximate* notion of allocation, then refines.  Starting from the
clustering where every task is its own module, it hill-climbs over the
neighbourhood {merge one adjacent module pair, split one module at one
internal boundary}, scoring each candidate clustering with a full greedy
assignment (cheap: ``O(P k)``), "then check[s] if the merged tasks should be
separated" — until no neighbour improves.  The final clustering keeps the
greedy assignment it was scored with; the optional Theorem-2 backtracking
post-pass refines it into the mapping.

A neighbour is scored only if the DP's part-free bound
(:func:`~repro.core.dp_cluster._may_reach`) lets it beat the best score of
its round; one that cannot would never be accepted, so skipping it leaves
the climb's path unchanged.  The bounds land in the shared
:class:`~repro.core.response.SegmentCache` under the part keys the
incumbent-bounded DP reads next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dp_cluster import PRICE_MARGIN, _may_reach
from .exceptions import InfeasibleError
from .greedy import finish_greedy, greedy_loop
from .mapping import Mapping, singleton_clustering
from .response import (
    MappingPerformance,
    ResponseReader,
    SegmentCache,
    strip_replication,
)
from .task import TaskChain

__all__ = ["HeuristicResult", "heuristic_mapping"]

#: Round limit of the clustering hill-climb.
MAX_CLUSTERING_ROUNDS = 64


@dataclass
class HeuristicResult:
    """Outcome of the §4 heuristic mapper."""

    clustering: tuple[tuple[int, int], ...]
    totals: list[int]
    performance: MappingPerformance
    #: Every clustering the climb considered, counted once per time it was
    #: a candidate: those the DP bound skipped and those seen before count
    #: too, so the value is that of the unpruned climb.
    clusterings_examined: int
    rounds: int

    @property
    def mapping(self) -> Mapping:
        return self.performance.mapping

    @property
    def throughput(self) -> float:
        return self.performance.throughput


def _score(cache, clustering, P, replication, bar=0.0):
    """A clustering's greedy outcome ``(mchain, reader, GreedyResult)``, or
    ``None`` when it cannot run on ``P`` processors or its DP bound proves
    that its greedy throughput cannot exceed ``bar``.

    The bound is read at ``bar * (1 - PRICE_MARGIN)``: it bounds the DP
    tables' pricing, which may sit a few ulps off the scalar pricing the
    score uses.  ``bar`` outside ``(0, inf)`` prunes nothing: a zero-cost
    chain scores ``inf`` and a chain that cannot run scores ``0.0``.
    """
    mchain = cache.module_chain(clustering)
    if mchain.total_min_procs > P:
        return None
    if not replication:
        mchain = strip_replication(mchain)
    if 0 < bar < math.inf and not _may_reach(
        mchain, P, bar * (1 - PRICE_MARGIN)
    ):
        return None
    price = ResponseReader(mchain, P)
    totals, trajectory = greedy_loop(price, P)
    return mchain, price, finish_greedy(mchain, price, P, totals, trajectory)


def _neighbours(clustering: tuple[tuple[int, int], ...]):
    """Yield clusterings one merge or one split away."""
    spans = list(clustering)
    for i in range(len(spans) - 1):  # merges
        merged = spans[:i] + [(spans[i][0], spans[i + 1][1])] + spans[i + 2 :]
        yield tuple(merged)
    for i, (a, b) in enumerate(spans):  # splits
        for cut in range(a, b):
            split = spans[:i] + [(a, cut), (cut + 1, b)] + spans[i + 1 :]
            yield tuple(split)


def heuristic_mapping(
    chain: TaskChain,
    total_procs: int,
    mem_per_proc_mb: float = float("inf"),
    replication: bool = True,
    backtracking: bool = True,
    cache: SegmentCache | None = None,
) -> HeuristicResult:
    """Run the full §4 heuristic: clustering search + greedy assignment.

    ``cache`` (a :class:`SegmentCache` bound to the same chain and memory
    limit, e.g. the one :func:`~repro.core.dp_cluster.optimal_mapping`
    just filled) lets every greedy probe read response factors the DP
    already built; a mismatched cache is ignored.
    """
    k = len(chain)
    P = int(total_procs)
    # Neighbouring clusterings share most segments: derive each once.
    if cache is None or not cache.serves(chain, mem_per_proc_mb):
        cache = SegmentCache(chain, mem_per_proc_mb)
    # Every clustering's outcome, ``None`` for one that can never be
    # accepted: the bar only rises, so a clustering pruned once stays out.
    seen: dict = {}

    def score(clustering, bar=0.0) -> float:
        if clustering not in seen:
            seen[clustering] = _score(cache, clustering, P, replication, bar)
        got = seen[clustering]
        return -math.inf if got is None else got[2].throughput

    current = singleton_clustering(k)
    best_score = score(current)
    examined = 1
    if best_score == -math.inf:
        # The all-singleton clustering may violate memory minimums even when
        # merged clusterings fit; fall back to the coarsest clustering.
        current = ((0, k - 1),)
        best_score = score(current)
        examined += 1
        if best_score == -math.inf:
            raise InfeasibleError(
                f"neither singleton nor fully-merged clustering of "
                f"{chain.name!r} fits on {P} processors"
            )

    rounds = 0
    for _ in range(MAX_CLUSTERING_ROUNDS):
        rounds += 1
        best_nb, best_nb_score = None, best_score
        for nb in _neighbours(current):
            examined += 1
            bar = best_nb_score * (1 + 1e-12)
            s = score(nb, bar)
            if s > bar:
                best_nb, best_nb_score = nb, s
        if best_nb is None:
            break
        current, best_score = best_nb, best_nb_score

    # The final clustering keeps its greedy state: only the post-pass and
    # the final pricing run.
    mchain, price, scored = seen[current]
    final = finish_greedy(mchain, price, P, scored.totals, scored.trajectory,
                          backtracking)
    return HeuristicResult(
        clustering=current,
        totals=final.totals,
        performance=final.performance,
        clusterings_examined=examined,
        rounds=rounds,
    )
