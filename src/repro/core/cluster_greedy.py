"""Fast heuristic mapping: greedy clustering + greedy assignment (paper §4.2).

Clustering is a coarse decision: mappings near the optimum typically share
one clustering (§4), so the heuristic first searches clusterings with an
*approximate* notion of allocation, then refines.  Starting from the
clustering where every task is its own module, it hill-climbs over the
neighbourhood {merge one adjacent module pair, split one module at one
internal boundary}, scoring each candidate clustering with a full greedy
assignment (cheap: ``O(P k)``), "then check[s] if the merged tasks should be
separated" — until no neighbour improves.  The final clustering is re-solved
with the greedy assignment (optionally with the Theorem-2 backtracking
post-pass) to produce the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import InfeasibleError
from .greedy import GreedyResult, greedy_assignment
from .mapping import Mapping, singleton_clustering
from .response import MappingPerformance, SegmentCache
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
    clusterings_examined: int
    rounds: int

    @property
    def mapping(self) -> Mapping:
        return self.performance.mapping

    @property
    def throughput(self) -> float:
        return self.performance.throughput


def _score(cache, clustering, P, replication) -> float:
    """Throughput of a clustering under a quick greedy assignment, or -inf."""
    mchain = cache.module_chain(clustering)
    if mchain.total_min_procs > P:
        return float("-inf")
    try:
        res = greedy_assignment(mchain, P, replication=replication)
    except InfeasibleError:
        return float("-inf")
    return res.throughput


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
    current = singleton_clustering(k)
    best_score = _score(cache, current, P, replication)
    examined = 1
    if best_score == float("-inf"):
        # The all-singleton clustering may violate memory minimums even when
        # merged clusterings fit; fall back to the coarsest clustering.
        current = ((0, k - 1),)
        best_score = _score(cache, current, P, replication)
        examined += 1
        if best_score == float("-inf"):
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
            s = _score(cache, nb, P, replication)
            if s > best_nb_score * (1 + 1e-12):
                best_nb, best_nb_score = nb, s
        if best_nb is None:
            break
        current, best_score = best_nb, best_nb_score

    mchain = cache.module_chain(current)
    final: GreedyResult = greedy_assignment(
        mchain, P, replication=replication, backtracking=backtracking
    )
    return HeuristicResult(
        clustering=current,
        totals=final.totals,
        performance=final.performance,
        clusterings_examined=examined,
        rounds=rounds,
    )
