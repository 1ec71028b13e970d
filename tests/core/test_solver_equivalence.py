"""Equivalence of the optimized solver stack with the seed semantics.

The performance layer (workspace reuse, memoized segments, blocked
transitions, final-plane shortcut) must not change *what* the solvers
return — only how fast.  These tests pin that down against the
brute-force oracle and across every optimization configuration.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import (
    Edge,
    InfeasibleError,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    SegmentCache,
    SolverWorkspace,
    Task,
    TaskChain,
    ZeroBinary,
    ZeroUnary,
    brute_force_mapping,
    build_module_chain,
    heuristic_mapping,
    module_info,
    optimal_assignment,
    optimal_mapping,
    throughput_of_totals,
)
from repro.core import dp_cluster
from repro.core.dp_cluster import (
    BISECT_TOL,
    bisect_mapping,
    exhaustive_mapping,
)
from repro.core import workspace
from repro.core.response import UNFIT
from repro.fjgraph import FJGraph, build_modules, greedy_fj_mapping
from repro.core.mapping import all_clusterings, singleton_clustering
from repro.workloads.synthetic import random_chain
from tests.core.test_resolve_costs import RecordSolves
from tests.core.test_solver_plans_golden import GOLDEN, _chain_cases

RTOL = 1e-9


def chains_matrix():
    """Randomized small chains covering replication, memory, and k=1."""
    cases = []
    for seed in range(6):
        k = 2 + seed % 4  # k in 2..5
        cases.append((random_chain(k, seed=seed), 8 + 4 * (seed % 3), float("inf")))
    # Memory-constrained (p_min > 1) and low-replicability chains.
    cases.append((random_chain(4, seed=11, with_memory=True), 16, 2.0))
    cases.append((random_chain(5, seed=13, replicable_prob=0.0), 20, float("inf")))
    cases.append((random_chain(3, seed=17, with_memory=True), 24, 1.0))
    # Single-task chain: exercises the no-transition DP path.
    cases.append((random_chain(1, seed=19), 12, float("inf")))
    return cases


class TestOracleEquivalence:
    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_exhaustive_matches_brute_force(self, case):
        chain, P, mem = chains_matrix()[case]
        oracle = brute_force_mapping(chain, P, mem)
        res = optimal_mapping(chain, P, mem)
        assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)

    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_no_replication_matches_brute_force(self, case):
        chain, P, mem = chains_matrix()[case]
        oracle = brute_force_mapping(chain, P, mem, replication=False)
        res = optimal_mapping(chain, P, mem, replication=False)
        assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)


class TestConfigurationInvariance:
    """Every perf configuration must return byte-identical mappings."""

    def _solve(self, chain, P, mem, **kw):
        return optimal_mapping(chain, P, mem, **kw)

    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_workspace_reuse_is_stateless(self, case):
        chain, P, mem = chains_matrix()[case]
        ref = self._solve(chain, P, mem)
        again = self._solve(chain, P, mem)  # hot arena + caches
        assert again.clustering == ref.clustering
        assert again.totals == ref.totals
        assert again.throughput == ref.throughput
        # One workspace across machine sizes: each change of P rebuilds the
        # arena, and every solve matches a fresh workspace bit for bit.
        ws = SolverWorkspace()
        for Q in (P, P // 2, P):
            for mchain in _module_chains(chain, mem):
                assert _dp_bits(mchain, Q, ws) == _dp_bits(
                    mchain, Q, SolverWorkspace()
                ), (Q, mchain.clustering())

    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_split_scratch_blocks_change_nothing(self, case, monkeypatch):
        """Scratch smaller than one pt-plane splits the transition's chunks
        into ``pl`` blocks; the DP must not notice."""
        chain, P, mem = chains_matrix()[case]
        mchains = _module_chains(chain, mem)
        ref = [_dp_bits(m, P, SolverWorkspace()) for m in mchains]
        half_plane_mb = 0.5 * (P + 1) ** 3 * 8 / 2**20
        monkeypatch.setattr(workspace, "DEFAULT_SCRATCH_MB", half_plane_mb)
        ws = SolverWorkspace()
        assert any(bl > 0 for _, _, bl, _ in ws.arena(P).blocks)
        assert [_dp_bits(m, P, ws) for m in mchains] == ref


def _module_chains(chain, mem):
    """The module chain of every clustering of ``chain``."""
    return [build_module_chain(chain, c, mem)
            for c in all_clusterings(len(chain))]


def _dp_bits(mchain, P, ws):
    """The assignment DP's totals and objective bits, or ``None``."""
    try:
        res = optimal_assignment(mchain, P, workspace=ws)
    except InfeasibleError:
        return None
    return res.totals, float.hex(res.bottleneck_response)


class TestSegmentCache:
    def test_cached_chain_matches_uncached(self):
        """Cached and uncached module chains both reproduce the committed
        exhaustive plans (``tests/core/golden/solver_plans.json``)."""
        golden = json.loads(GOLDEN.read_text())
        cases = _chain_cases()
        for name in ("random-k4-s1", "random-mem-k4-s1", "random-norep-k4",
                     "drift-study"):
            chain, P, mem, _, replication, _ = cases[name]
            cache = SegmentCache(chain, mem)
            for build in (lambda c: build_module_chain(chain, c, mem),
                          cache.module_chain):
                best = None
                for clustering in all_clusterings(len(chain)):
                    mchain = build(clustering)
                    if mchain.total_min_procs > P:
                        continue
                    res = optimal_assignment(mchain, P, replication=replication)
                    if best is None or res.throughput > best.throughput:
                        best = res
                assert [repr(best.mapping), float.hex(best.throughput)] == (
                    golden[name]["exhaustive"]
                ), name

    def test_cache_shares_segments_across_clusterings(self):
        chain = random_chain(5, seed=37)
        cache = SegmentCache(chain)
        chains = [cache.module_chain(c) for c in all_clusterings(len(chain))]
        for mc in chains:
            for i in range(len(mc)):
                mc.response_parts(i, 16)
        k = len(chain)
        assert cache.info_misses == k * (k + 1) // 2  # distinct segments only
        builds = sum(len(mc) for mc in chains)
        assert cache.part_misses < builds  # strictly shared

    def test_memory_constrained_cache_equivalence(self):
        chain, P, mem = random_chain(4, seed=41, with_memory=True), 16, 2.0
        oracle = brute_force_mapping(chain, P, mem)
        res = optimal_mapping(chain, P, mem)
        assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)


class TestSingleModuleRegression:
    """`throughput_of_totals` on an l == 1 chain (satellite regression)."""

    def test_single_module_no_comms(self):
        chain = random_chain(1, seed=2)
        mchain = build_module_chain(chain, singleton_clustering(1))
        tp, eff = throughput_of_totals(mchain, [8])
        assert len(eff) == 1 and np.isfinite(eff[0])
        assert tp == pytest.approx(1.0 / eff[0], rel=RTOL)

    def test_single_module_infeasible_total(self):
        chain = random_chain(1, seed=2)
        mchain = build_module_chain(chain, singleton_clustering(1))
        tp, eff = throughput_of_totals(mchain, [0])
        assert tp == 0.0 and eff[0] == float("inf")

    def test_single_module_dp(self):
        chain = random_chain(1, seed=3)
        res = optimal_mapping(chain, 10)
        oracle = brute_force_mapping(chain, 10)
        assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)


class TestUnfitSegment:
    """A merged segment whose fixed footprint alone exceeds per-processor
    memory is unusable: every solver skips it instead of raising."""

    P, MEM = 8, 64.0

    @staticmethod
    def _tasks():
        return [Task(f"t{i}", PolynomialExec(0.01, 1.0), mem_fixed_mb=40)
                for i in range(3)]

    def test_merged_segment_is_unfit(self):
        chain = TaskChain(self._tasks())
        assert module_info(chain, 0, 0, self.MEM).p_min == 1
        assert module_info(chain, 0, 1, self.MEM).p_min == UNFIT
        assert module_info(chain, 0, 2, self.MEM).p_min == UNFIT

    def test_solvers_return_the_singleton_mapping(self):
        chain = TaskChain(self._tasks(), name="fat")
        oracle = brute_force_mapping(chain, self.P, self.MEM)
        assert oracle.clustering == singleton_clustering(3)
        for res in (
            optimal_mapping(chain, self.P, self.MEM),
            bisect_mapping(chain, self.P, self.MEM),
            heuristic_mapping(chain, self.P, self.MEM),
        ):
            assert res.clustering == singleton_clustering(3)
            assert repr(res.mapping) == repr(oracle.mapping)
            assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)

    def test_fork_join_mapper_skips_the_segment(self):
        graph = FJGraph(self._tasks(), name="fat")
        assert build_modules(graph, [((0, 2),)], self.MEM)[0].p_min == UNFIT
        mapping, tp = greedy_fj_mapping(graph, self.P, self.MEM)
        assert [(m.start, m.stop) for m in mapping.modules[0]] == list(
            singleton_clustering(3)
        )
        oracle = brute_force_mapping(TaskChain(self._tasks()), self.P, self.MEM)
        assert tp == pytest.approx(oracle.throughput, rel=RTOL)


# --------------------------------------------------------------------------
# Incumbent-bounded exhaustive search
# --------------------------------------------------------------------------


def _plan_bits(res):
    return (res.clustering, res.totals, repr(res.mapping),
            float.hex(res.throughput))


def _zero_cost(k):
    tasks = [Task(f"t{i}", ZeroUnary()) for i in range(k)]
    return TaskChain(tasks, [Edge(ZeroUnary(), ZeroBinary())] * (k - 1),
                     name="zero-cost")


#: Per-instance size rules the rectangular-subarray constraint stands for.
SIZE_RULES = [None, lambda s: s == 1 or s % 2 == 0,
              lambda s: s & (s - 1) == 0]


@st.composite
def bounded_cases(draw):
    """Small chains with memory limits (``UNFIT`` segments included),
    replication on or off, size rules, zero costs and a machine at the
    sum of the minimums."""
    k = draw(st.integers(1, 5))
    if draw(st.integers(0, 5)) == 0:
        chain = _zero_cost(k)
    else:
        chain = random_chain(
            k, seed=draw(st.integers(0, 10**6)),
            with_memory=draw(st.booleans()),
            replicable_prob=draw(st.sampled_from([0.0, 0.7, 1.0])),
        )
    mem = draw(st.sampled_from([math.inf, 0.08, 0.15, 1.0, 4.0]))
    floors = [
        build_module_chain(chain, c, mem).total_min_procs
        for c in all_clusterings(k)
    ]
    if min(floors) <= 16 and draw(st.booleans()):
        P = draw(st.sampled_from(sorted({f for f in floors if f <= 16})))
    else:
        P = draw(st.integers(1, 16))
    return (chain, P, mem, draw(st.booleans()),
            draw(st.sampled_from(SIZE_RULES)))


@given(case=bounded_cases())
def test_bounded_search_matches_unbounded(case):
    """For any incumbent the bounded search returns the unbounded plan's
    bits and runs no more DPs."""
    chain, P, mem, replication, size_ok = case
    kw = dict(replication=replication, instance_size_ok=size_ok)
    try:
        ref = optimal_mapping(chain, P, mem, **kw)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            optimal_mapping(chain, P, mem, incumbent=1.0, **kw)
        return
    incumbents = [ref.throughput, 0.0, 2 * ref.throughput]
    try:
        incumbents.append(
            heuristic_mapping(chain, P, mem, replication=replication).throughput
        )
    except InfeasibleError:
        pass
    for incumbent in incumbents:
        got = optimal_mapping(chain, P, mem, incumbent=incumbent, **kw)
        assert _plan_bits(got) == _plan_bits(ref), incumbent
        assert got.clusterings_examined <= ref.clusterings_examined


def price_everything(chain, P, mem, replication, size_ok):
    """The paper's search, unbounded: one DP per clustering that fits, every
    result priced, the highest throughput winning and ties going to the
    first clustering.  Returns ``(plan bits, DPs run)``; bits ``None`` if
    no clustering is feasible."""
    ok_size = dp_cluster._size_mask(P, size_ok)
    best, runs = None, 0
    for clustering in all_clusterings(len(chain)):
        mchain = build_module_chain(chain, clustering, mem)
        if mchain.total_min_procs > P:
            continue
        runs += 1
        try:
            res = optimal_assignment(
                mchain, P, replication=replication,
                allowed_totals=dp_cluster._totals_filter(
                    mchain, P, replication, ok_size),
            )
        except InfeasibleError:
            continue
        if best is None or res.throughput > best[1].throughput:
            best = (clustering, res)
    if best is None:
        return None, runs
    clustering, res = best
    return (clustering, res.totals, repr(res.mapping),
            float.hex(res.throughput)), runs


@given(case=bounded_cases())
def test_branch_and_bound_matches_pricing_everything(case):
    """With or without each incumbent, the self-bounded search returns the
    bits of pricing every clustering's DP result, in no more DPs."""
    chain, P, mem, replication, size_ok = case
    ref, runs = price_everything(chain, P, mem, replication, size_ok)
    kw = dict(replication=replication, instance_size_ok=size_ok)
    if ref is None:
        with pytest.raises(InfeasibleError):
            exhaustive_mapping(chain, P, mem, **kw)
        return
    throughput = float.fromhex(ref[3])
    incumbents = [None, throughput, 0.0, 2 * throughput,
                  math.nextafter(throughput, math.inf)]
    try:
        incumbents.append(
            heuristic_mapping(chain, P, mem, replication=replication).throughput
        )
    except InfeasibleError:
        pass
    for incumbent in incumbents:
        got = exhaustive_mapping(chain, P, mem, incumbent=incumbent, **kw)
        assert _plan_bits(got) == ref, incumbent
        assert got.clusterings_examined <= runs


@given(case=bounded_cases())
def test_bisect_matches_exhaustive(case):
    """Bisection reaches the exhaustive optimum to its tolerance under the
    same constraints, and finds the same cases infeasible."""
    chain, P, mem, replication, size_ok = case
    kw = dict(replication=replication, instance_size_ok=size_ok)
    try:
        ref = exhaustive_mapping(chain, P, mem, **kw)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            bisect_mapping(chain, P, mem, **kw)
        return
    got = bisect_mapping(chain, P, mem, **kw)
    assert got.throughput == pytest.approx(ref.throughput, rel=BISECT_TOL)


def test_clustering_one_processor_short_gets_no_dp(monkeypatch):
    """The merged module of this chain holds all three tasks' fixed memory,
    so the first clustering in enumeration order needs exactly one
    processor more than the machine has.  The search skips it without a
    DP, which ``clusterings_examined`` would count even though it raises."""
    P, mem = 8, 4.0
    chain = TaskChain(
        [Task(f"t{i}", PolynomialExec(0.1, 10.0 + i, 0.01), replicable=True,
              mem_fixed_mb=1.0, mem_parallel_mb=3.0) for i in range(3)],
        [Edge(PolynomialIComm(0.01, 1.0, 0.001),
              PolynomialEComm(0.02, 1.0, 1.0, 0.002, 0.002))] * 2,
        name="memory-bound",
    )
    merged = next(iter(all_clusterings(3)))
    assert merged == ((0, 2),)
    assert build_module_chain(chain, merged, mem).total_min_procs == P + 1
    solved = RecordSolves(monkeypatch).clusterings
    got = exhaustive_mapping(chain, P, mem_per_proc_mb=mem)
    assert solved == [((0, 0), (1, 2))]
    assert got.clusterings_examined == 1
    assert got.clustering == ((0, 0), (1, 2))


class TestIncumbentBound:
    CHAIN = random_chain(5, seed=23)
    P = 16

    def test_heuristic_incumbent_prunes(self):
        ref = optimal_mapping(self.CHAIN, self.P)
        heur = heuristic_mapping(self.CHAIN, self.P)
        got = optimal_mapping(self.CHAIN, self.P, incumbent=heur.throughput)
        assert _plan_bits(got) == _plan_bits(ref)
        assert got.clusterings_examined < ref.clusterings_examined

    def test_unreachable_incumbent_falls_back(self, monkeypatch):
        """An incumbent above the optimum proves nothing: the clusterings
        it skipped are solved after all, none twice, and the unbounded
        plan comes back.  One out of every bound's reach skips every
        clustering first, so the fallback alone repeats the unbounded
        search."""
        ref = optimal_mapping(self.CHAIN, self.P)
        for factor in (1 + 1e-12, 1e6):
            solved = RecordSolves(monkeypatch).clusterings
            got = optimal_mapping(
                self.CHAIN, self.P, incumbent=ref.throughput * factor
            )
            assert _plan_bits(got) == _plan_bits(ref)
            assert len(set(solved)) == len(solved) == got.clusterings_examined
        assert got.clusterings_examined == ref.clusterings_examined

    def test_later_exact_tie_is_skipped(self, monkeypatch):
        """Two clusterings of a communication-free chain tie exactly, and
        the bound of the later one is tight: it cannot beat the first
        strictly, so it gets no DP, with or without an incumbent equal to
        their throughput."""
        chain = TaskChain(
            [Task("a", PolynomialExec(8.0, 4.0), replicable=False),
             Task("b", PolynomialExec(4.0, 8.0), replicable=False),
             Task("c", PolynomialExec(0.0, 2.0), replicable=False)],
            [Edge(ZeroUnary(), ZeroBinary())] * 2, name="tied-free",
        )
        first, later = ((0, 0), (1, 2)), ((0, 0), (1, 1), (2, 2))
        tie = optimal_assignment(build_module_chain(chain, later), 8)
        assert tie.throughput == optimal_assignment(
            build_module_chain(chain, first), 8).throughput
        for incumbent in (None, tie.throughput):
            solved = RecordSolves(monkeypatch).clusterings
            got = exhaustive_mapping(chain, 8, incumbent=incumbent)
            assert got.clustering == first
            assert first in solved and later not in solved

    def test_earlier_clustering_ties_a_later_incumbent(self, monkeypatch):
        """An unreachable incumbent skips the earlier of two exactly tied
        clusterings, whose bound is tight, and lets the later one through.
        The fallback must then solve the earlier one at the later winner's
        throughput itself, not one ulp up, because a tie goes to it."""
        chain = TaskChain(
            [Task("a", PolynomialExec(0.5, 4.0), replicable=False),
             Task("b", PolynomialExec(0.5, 4.0), replicable=False),
             Task("c", PolynomialExec(0.0, 4.0), replicable=False)],
            [Edge(PolynomialIComm(1.0), PolynomialEComm(0.0, 1.0, 2.0)),
             Edge(PolynomialIComm(2.0), ZeroBinary())],
            name="tied-late",
        )
        early, late = ((0, 1), (2, 2)), ((0, 0), (1, 1), (2, 2))
        results = {c: optimal_assignment(build_module_chain(chain, c), 6)
                   for c in (early, late)}
        assert results[early].throughput == results[late].throughput
        solved = RecordSolves(monkeypatch).clusterings
        got = exhaustive_mapping(chain, 6, incumbent=0.27)
        assert solved == [late, early]   # the later first, then the fallback
        assert got.clustering == early
        assert _plan_bits(got) == _plan_bits(exhaustive_mapping(chain, 6))

    def test_zero_cost_chain_with_infinite_incumbent(self):
        chain = _zero_cost(4)
        ref = optimal_mapping(chain, 8)
        assert ref.throughput == math.inf
        got = optimal_mapping(chain, 8, incumbent=math.inf)
        assert _plan_bits(got) == _plan_bits(ref)
        # Every clustering reaches inf, so none is skipped or solved twice.
        assert got.clusterings_examined == ref.clusterings_examined

    def test_bisect_ignores_it(self):
        # Past 12 tasks the dispatch runs bisection, which has no bound.
        long = random_chain(13, seed=23)
        bis = bisect_mapping(long, 4)
        assert _plan_bits(
            optimal_mapping(long, 4, incumbent=bis.throughput)
        ) == _plan_bits(bis)
