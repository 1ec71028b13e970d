"""Tests for the §4.2 heuristic mapper (clustering search + greedy)."""

import math
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import repro.core.cluster_greedy as cluster_greedy
from repro.core import (
    Edge,
    InfeasibleError,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    SegmentCache,
    Task,
    TaskChain,
    ZeroBinary,
    ZeroUnary,
    build_module_chain,
    greedy_assignment,
    heuristic_mapping,
    optimal_mapping,
)
from repro.core.cluster_greedy import MAX_CLUSTERING_ROUNDS, _neighbours
from repro.core.mapping import all_clusterings, singleton_clustering
from repro.estimate.estimator import estimate_chain
from repro.workloads.synthetic import random_chain
from tests.conftest import make_random_chain


class TestHeuristicQuality:
    @pytest.mark.parametrize("seed", range(12))
    def test_close_to_optimal(self, seed):
        chain = make_random_chain(4, seed=seed)
        opt = optimal_mapping(chain, 12)
        heur = heuristic_mapping(chain, 12)
        assert heur.throughput <= opt.throughput * (1 + 1e-9)
        assert heur.throughput >= opt.throughput * 0.85

    def test_usually_reaches_optimum(self):
        """§6.3: 'the dynamic programming and the greedy algorithms reached
        the same optimal mapping' — require a clear majority here."""
        hits, n = 0, 15
        for seed in range(n):
            chain = make_random_chain(3, seed=500 + seed)
            opt = optimal_mapping(chain, 12)
            heur = heuristic_mapping(chain, 12)
            if heur.throughput == pytest.approx(opt.throughput, rel=1e-9):
                hits += 1
        assert hits >= int(0.7 * n)

    def test_merges_when_internal_comm_is_free(self):
        tasks = [Task(f"t{i}", PolynomialExec(0.0, 8.0, 0.0), replicable=False) for i in range(3)]
        edges = [
            Edge(icom=PolynomialIComm(0.0, 0.0, 0.0),
                 ecom=PolynomialEComm(50.0, 0.0, 0.0, 0.0, 0.0))
            for _ in range(2)
        ]
        chain = TaskChain(tasks, edges)
        heur = heuristic_mapping(chain, 8)
        assert heur.clustering == ((0, 2),)


class TestHeuristicMechanics:
    def test_falls_back_to_merged_when_singletons_do_not_fit(self):
        # Singleton minimums 3 * ceil(3/2) = 6 > 5 procs, merged needs 5.
        tasks = [
            Task(f"t{i}", PolynomialExec(0.0, 2.0, 0.0), mem_parallel_mb=3.0)
            for i in range(3)
        ]
        chain = TaskChain(tasks)
        heur = heuristic_mapping(chain, 5, mem_per_proc_mb=2.0)
        assert heur.clustering == ((0, 2),)

    def test_raises_when_nothing_fits(self):
        tasks = [Task("a", PolynomialExec(0.0, 1.0, 0.0), mem_parallel_mb=100.0)]
        chain = TaskChain(tasks)
        with pytest.raises(InfeasibleError):
            heuristic_mapping(chain, 4, mem_per_proc_mb=1.0)

    def test_reports_search_statistics(self):
        chain = make_random_chain(4, seed=2)
        heur = heuristic_mapping(chain, 12)
        assert heur.clusterings_examined >= 1
        assert heur.rounds >= 1

    def test_single_task(self):
        chain = TaskChain([Task("solo", PolynomialExec(0.1, 5.0, 0.0))])
        heur = heuristic_mapping(chain, 6)
        assert heur.clustering == ((0, 0),)
        assert heur.throughput > 0


# --------------------------------------------------------------------------
# The bound-pruned climb against the unpruned one
# --------------------------------------------------------------------------


def _reference_climb(chain, P, mem, replication, backtracking):
    """The §4.2 hill-climb with no bound, no memo and no shared cache: every
    candidate is scored by a full greedy assignment, and the final
    clustering is solved again with the post-pass."""

    def solve(clustering, post=False):
        mchain = build_module_chain(chain, clustering, mem)
        if mchain.total_min_procs > P:
            return None
        try:
            return greedy_assignment(mchain, P, replication=replication,
                                     backtracking=post)
        except InfeasibleError:
            return None

    def score(clustering):
        got = solve(clustering)
        return -math.inf if got is None else got.throughput

    current = singleton_clustering(len(chain))
    best, examined = score(current), 1
    if best == -math.inf:
        current = ((0, len(chain) - 1),)
        best, examined = score(current), 2
        if best == -math.inf:
            return None
    rounds = 0
    for _ in range(MAX_CLUSTERING_ROUNDS):
        rounds += 1
        best_nb, best_nb_score = None, best
        for nb in _neighbours(current):
            examined += 1
            s = score(nb)
            if s > best_nb_score * (1 + 1e-12):
                best_nb, best_nb_score = nb, s
        if best_nb is None:
            break
        current, best = best_nb, best_nb_score
    final = solve(current, post=backtracking)
    return current, final.totals, final.throughput, examined, rounds


def _heuristic_bits(res):
    return (res.clustering, res.totals, float.hex(res.throughput),
            res.clusterings_examined, res.rounds)


def _zero_cost(k):
    tasks = [Task(f"t{i}", ZeroUnary()) for i in range(k)]
    return TaskChain(tasks, [Edge(ZeroUnary(), ZeroBinary())] * (k - 1))


@lru_cache(maxsize=None)
def _tabulated(k, seed, with_memory):
    """A random chain fitted with the tabulated model family: its edges
    are ``ScatteredBinary``, whose scalar and grid pricings may differ by
    a few ulps."""
    chain = random_chain(k, seed=seed, with_memory=with_memory)
    return estimate_chain(chain, 16, model_family="tabulated").fitted_chain


@st.composite
def climb_cases(draw):
    """Small chains: polynomial, tabulated or zero-cost; memory floors
    (``UNFIT`` segments included); replication on or off; k = 1; and a
    machine at the sum of some clustering's minimums."""
    k = draw(st.integers(1, 5))
    family = draw(st.sampled_from(["polynomial", "polynomial", "tabulated",
                                   "zero"]))
    if family == "zero":
        chain = _zero_cost(k)
    elif family == "tabulated":
        chain = _tabulated(k, draw(st.integers(0, 3)),
                           draw(st.booleans()))
    else:
        chain = random_chain(
            k, seed=draw(st.integers(0, 10**6)),
            with_memory=draw(st.booleans()),
            replicable_prob=draw(st.sampled_from([0.0, 0.7, 1.0])),
        )
    mem = draw(st.sampled_from([math.inf, 0.08, 0.15, 1.0, 4.0]))
    floors = [
        build_module_chain(chain, c, mem).total_min_procs
        for c in all_clusterings(len(chain))
    ]
    if min(floors) <= 16 and draw(st.booleans()):
        P = draw(st.sampled_from(sorted({f for f in floors if f <= 16})))
    else:
        P = draw(st.integers(1, 16))
    return chain, P, mem, draw(st.booleans()), draw(st.booleans())


def _assert_matches_reference(chain, P, mem, replication, backtracking):
    ref = _reference_climb(chain, P, mem, replication, backtracking)
    if ref is None:
        with pytest.raises(InfeasibleError):
            heuristic_mapping(chain, P, mem, replication=replication,
                              backtracking=backtracking)
        return
    got = heuristic_mapping(chain, P, mem, replication=replication,
                            backtracking=backtracking)
    clustering, totals, throughput, examined, rounds = ref
    assert _heuristic_bits(got) == (
        clustering, totals, float.hex(throughput), examined, rounds
    ), (chain.name, P, mem, replication, backtracking)


@given(case=climb_cases())
def test_pruned_climb_matches_reference(case):
    """Skipping the neighbours the DP bound rules out, and keeping the
    final clustering's greedy state, change no bit of the result."""
    _assert_matches_reference(*case)


@pytest.mark.parametrize("replication", [True, False])
@pytest.mark.parametrize("k", [4, 5])
def test_pruned_climb_matches_reference_sweep(k, replication):
    """A fixed sweep holding neighbours that beat the best score by under
    0.1%, which a bound read too high would skip."""
    for seed in range(20):
        chain = random_chain(k, seed=seed)
        for P in (8, 16):
            _assert_matches_reference(chain, P, math.inf, replication, True)


class TestBoundPruning:
    CHAIN = random_chain(5, seed=23)
    P = 16

    def _count_greedy_runs(self, monkeypatch):
        runs = []
        real = cluster_greedy.greedy_loop

        def counted(*args, **kwargs):
            runs.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cluster_greedy, "greedy_loop", counted)
        return runs

    def test_scores_fewer_than_examined(self, monkeypatch):
        runs = self._count_greedy_runs(monkeypatch)
        heur = heuristic_mapping(self.CHAIN, self.P)
        assert 1 <= len(runs) < heur.clusterings_examined

    def test_zero_cost_chain_is_not_pruned(self, monkeypatch):
        """Every clustering of a zero-cost chain scores ``inf``: the bar is
        not finite, so each distinct neighbour is scored."""
        runs = self._count_greedy_runs(monkeypatch)
        heur = heuristic_mapping(_zero_cost(3), 6)
        assert heur.throughput == math.inf
        assert heur.clustering == singleton_clustering(3)
        assert len(runs) == 1 + len(list(_neighbours(heur.clustering)))

    def test_fills_the_bounds_the_dp_reads(self):
        cache = SegmentCache(self.CHAIN)
        heur = heuristic_mapping(self.CHAIN, self.P, cache=cache)
        filled = dict(cache._bounds)
        assert filled
        optimal_mapping(self.CHAIN, self.P, cache=cache,
                        incumbent=heur.throughput)
        for key, bound in filled.items():
            assert cache._bounds[key] is bound
