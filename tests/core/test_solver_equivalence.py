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
    PolynomialExec,
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
from repro.core.response import UNFIT
from repro.fjgraph import FJGraph, build_modules, greedy_fj_mapping
from repro.core.mapping import all_clusterings, singleton_clustering
from repro.workloads.synthetic import random_chain
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
        res = optimal_mapping(chain, P, mem, method="exhaustive")
        assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)

    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_no_replication_matches_brute_force(self, case):
        chain, P, mem = chains_matrix()[case]
        oracle = brute_force_mapping(chain, P, mem, replication=False)
        res = optimal_mapping(chain, P, mem, method="exhaustive",
                              replication=False)
        assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)


class TestConfigurationInvariance:
    """Every perf configuration must return byte-identical mappings."""

    def _solve(self, chain, P, mem, **kw):
        return optimal_mapping(chain, P, mem, method="exhaustive", **kw)

    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_workspace_reuse_is_stateless(self, case):
        chain, P, mem = chains_matrix()[case]
        ref = self._solve(chain, P, mem)
        again = self._solve(chain, P, mem)  # hot arena + caches
        assert again.clustering == ref.clustering
        assert again.totals == ref.totals
        assert again.throughput == ref.throughput

    @pytest.mark.parametrize("budget_mb", [None, 24.0])
    def test_memory_budget_changes_blocking_not_results(self, budget_mb):
        chain, P, mem = random_chain(4, seed=3), 24, float("inf")
        ref = self._solve(chain, P, mem)
        ws = SolverWorkspace(memory_budget_mb=budget_mb)
        mchain = build_module_chain(chain, ref.clustering, mem)
        res = optimal_assignment(mchain, P, workspace=ws)
        assert res.totals == ref.totals
        assert res.bottleneck_response == pytest.approx(
            1.0 / ref.throughput, rel=RTOL
        )
        if budget_mb is not None:
            assert ws.peak_table_bytes <= budget_mb * 2**20

    def test_tiny_budget_raises_upfront(self):
        ws = SolverWorkspace(memory_budget_mb=0.05)
        mchain = build_module_chain(
            random_chain(3, seed=0), singleton_clustering(3)
        )
        with pytest.raises(InfeasibleError):
            optimal_assignment(mchain, 24, workspace=ws)

    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_float32_path_matches_oracle(self, case):
        chain, P, mem = chains_matrix()[case]
        oracle = brute_force_mapping(chain, P, mem)
        ws = SolverWorkspace(value_dtype=np.float32)
        best = None
        for clustering in all_clusterings(len(chain)):
            mchain = build_module_chain(chain, clustering, mem)
            if mchain.total_min_procs > P:
                continue
            try:
                res = optimal_assignment(mchain, P, workspace=ws)
            except InfeasibleError:
                continue
            if best is None or res.throughput > best.throughput:
                best = res
        # float32 tables may round DP values, but the reconstructed mapping
        # is re-scored analytically, so the reported throughput is exact and
        # must sit within float32 resolution of the true optimum.
        assert best.throughput == pytest.approx(oracle.throughput, rel=1e-5)
        assert best.bottleneck_response == pytest.approx(
            1.0 / best.throughput, rel=RTOL
        )


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
        res = optimal_mapping(chain, P, mem, method="exhaustive")
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
        res = optimal_mapping(chain, 10, method="exhaustive")
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
            optimal_mapping(chain, self.P, self.MEM, method="exhaustive"),
            optimal_mapping(chain, self.P, self.MEM, method="bisect"),
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
    kw = dict(replication=replication, method="exhaustive",
              instance_size_ok=size_ok)
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


class TestIncumbentBound:
    CHAIN = random_chain(5, seed=23)
    P = 16

    def test_heuristic_incumbent_prunes(self):
        ref = optimal_mapping(self.CHAIN, self.P, method="exhaustive")
        heur = heuristic_mapping(self.CHAIN, self.P)
        got = optimal_mapping(self.CHAIN, self.P, method="exhaustive",
                              incumbent=heur.throughput)
        assert _plan_bits(got) == _plan_bits(ref)
        assert got.clusterings_examined < ref.clusterings_examined

    def test_unreachable_incumbent_falls_back(self):
        """An incumbent above the optimum proves nothing: every clustering
        is solved, each once, and the unbounded plan comes back."""
        ref = optimal_mapping(self.CHAIN, self.P, method="exhaustive")
        got = optimal_mapping(self.CHAIN, self.P, method="exhaustive",
                              incumbent=ref.throughput * (1 + 1e-12))
        assert _plan_bits(got) == _plan_bits(ref)
        assert got.clusterings_examined == ref.clusterings_examined

    def test_zero_cost_chain_with_infinite_incumbent(self):
        chain = _zero_cost(4)
        ref = optimal_mapping(chain, 8, method="exhaustive")
        assert ref.throughput == math.inf
        got = optimal_mapping(chain, 8, method="exhaustive", incumbent=math.inf)
        assert _plan_bits(got) == _plan_bits(ref)
        # Every clustering reaches inf, so none is skipped or solved twice.
        assert got.clusterings_examined == ref.clusterings_examined

    def test_float32_workspace_and_bisect_ignore_it(self):
        ws = SolverWorkspace(value_dtype=np.float32)
        ref = optimal_mapping(self.CHAIN, self.P, method="exhaustive",
                              workspace=ws)
        got = optimal_mapping(self.CHAIN, self.P, method="exhaustive",
                              workspace=ws, incumbent=ref.throughput)
        assert got.clusterings_examined == ref.clusterings_examined
        bis = optimal_mapping(self.CHAIN, self.P, method="bisect")
        assert _plan_bits(optimal_mapping(
            self.CHAIN, self.P, method="bisect", incumbent=bis.throughput
        )) == _plan_bits(bis)
