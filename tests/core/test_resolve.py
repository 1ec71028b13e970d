"""Incremental re-solving: chain deltas, scaling, delta invalidation.

The load-bearing guarantee is differential: after perturbing a chain's
cost tables and routing the change through
:meth:`RemapPlanner.update_chain` (which evicts only the segment-cache
entries the delta touches), the next solve must be **byte-identical** to a
cold solve of the perturbed chain — same mapping, bit-equal floats.  The
hypothesis suite checks this across randomised chains and perturbation
sequences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    Edge,
    LambdaBinary,
    LambdaUnary,
    RemapPlanner,
    ScaledBinary,
    ScaledUnary,
    SegmentCache,
    Task,
    TaskChain,
    diff_chains,
    optimal_mapping,
    scale_chain,
)
from repro.core.replication import effective_tables
from repro.core.resolve import ChainDelta
from repro.core.response import build_module_chain, evaluate_module_chain

from ..conftest import build_every_part, make_random_chain, make_three_task_chain

PROCS = 8


def perturb(chain: TaskChain, tasks=(), edges=(), factor=1.3) -> TaskChain:
    """Scale selected exec costs (tasks) and ecom costs (edges).

    Untouched components are reused by object identity, so
    :func:`diff_chains` against ``chain`` reports exactly these indices.
    """
    new_tasks = [
        Task(
            name=t.name,
            exec_cost=ScaledUnary(t.exec_cost, factor),
            mem_fixed_mb=t.mem_fixed_mb,
            mem_parallel_mb=t.mem_parallel_mb,
            replicable=t.replicable,
            min_procs=t.min_procs,
        ) if i in tasks else t
        for i, t in enumerate(chain.tasks)
    ]
    new_edges = [
        Edge(icom=e.icom, ecom=ScaledBinary(e.ecom, factor))
        if j in edges else e
        for j, e in enumerate(chain.edges)
    ]
    return TaskChain(new_tasks, new_edges, name=chain.name)


class TestDiffChains:
    def test_identical_chains_are_trivial(self):
        chain = make_three_task_chain()
        delta = diff_chains(chain, chain)
        assert delta.trivial
        assert delta == ChainDelta((), ())

    def test_reports_exact_indices(self):
        chain = make_random_chain(5, seed=3)
        delta = diff_chains(chain, perturb(chain, tasks=(1, 3), edges=(2,)))
        assert delta.tasks == (1, 3)
        assert delta.edges == (2,)
        assert not delta.trivial

    def test_structural_mismatch_raises(self):
        with pytest.raises(ValueError, match="structurally"):
            diff_chains(make_random_chain(3, seed=0),
                        make_random_chain(4, seed=0))

    def test_equal_by_value_not_only_identity(self):
        a = make_random_chain(4, seed=11)
        b = make_random_chain(4, seed=11)     # same draws, fresh objects
        assert diff_chains(a, b).trivial

    def test_unserialisable_models_compare_conservatively(self):
        chain = make_three_task_chain()
        opaque = [
            Task(name=t.name, exec_cost=LambdaUnary(lambda p: 1.0 / p),
                 replicable=t.replicable)
            for t in chain.tasks
        ]
        a = TaskChain(opaque, list(chain.edges), name="opaque")
        b = TaskChain(list(opaque), list(chain.edges), name="opaque")
        assert diff_chains(a, b).trivial      # identical objects: trivial
        c = TaskChain(
            [Task(name=t.name, exec_cost=LambdaUnary(lambda p: 1.0 / p),
                  replicable=t.replicable) for t in chain.tasks],
            list(chain.edges), name="opaque",
        )
        # Distinct lambdas cannot prove equality: every task reported.
        assert diff_chains(a, c).tasks == (0, 1, 2)

    def test_changed_task_attributes_detected(self):
        chain = make_random_chain(4, seed=5)
        t1 = chain.tasks[1]
        flipped = Task(
            name=t1.name, exec_cost=t1.exec_cost,
            mem_fixed_mb=t1.mem_fixed_mb, mem_parallel_mb=t1.mem_parallel_mb,
            replicable=not t1.replicable, min_procs=t1.min_procs,
        )
        new = TaskChain(
            [flipped if i == 1 else t for i, t in enumerate(chain.tasks)],
            list(chain.edges), name=chain.name,
        )
        assert diff_chains(chain, new).tasks == (1,)


class TestScaleChain:
    def test_identity_factors_return_same_object(self):
        chain = make_three_task_chain()
        assert scale_chain(chain) is chain
        assert scale_chain(chain, exec_scale=1.0, comm_scale=1.0) is chain

    def test_nonpositive_factors_raise(self):
        chain = make_three_task_chain()
        with pytest.raises(ValueError, match="positive"):
            scale_chain(chain, exec_scale=0.0)
        with pytest.raises(ValueError, match="positive"):
            scale_chain(chain, comm_scale=-2.0)

    def test_comm_only_scaling_reuses_tasks(self):
        chain = make_random_chain(4, seed=1)
        scaled = scale_chain(chain, comm_scale=1.5)
        delta = diff_chains(chain, scaled)
        assert delta.tasks == ()
        assert delta.edges == (0, 1, 2)
        assert delta.ecom_only == (0, 1, 2)   # icom kept: exec tables stay
        for old, new in zip(chain.tasks, scaled.tasks):
            assert old is new
        for e in scaled.edges:
            assert isinstance(e.ecom, ScaledBinary)
            assert e.ecom.factor == 1.5

    def test_exec_scaling_covers_icom_too(self):
        chain = make_random_chain(3, seed=2)
        scaled = scale_chain(chain, exec_scale=2.0)
        delta = diff_chains(chain, scaled)
        assert delta.tasks == (0, 1, 2)
        assert delta.edges == (0, 1)   # icom drifted with compute
        assert delta.ecom_only == ()
        assert scaled.edges[0].ecom is chain.edges[0].ecom

    def test_scaled_costs_evaluate_scaled(self):
        chain = make_random_chain(3, seed=9)
        scaled = scale_chain(chain, exec_scale=3.0, comm_scale=0.5)
        for p in (1, 4):
            for old, new in zip(chain.tasks, scaled.tasks):
                assert new.exec_cost(p) == pytest.approx(3.0 * old.exec_cost(p))
            for oe, ne in zip(chain.edges, scaled.edges):
                assert ne.ecom(p, p) == pytest.approx(0.5 * oe.ecom(p, p))

    def test_optimum_invariant_under_uniform_scaling(self):
        chain = make_random_chain(5, seed=21)
        base = optimal_mapping(chain, PROCS)
        scaled = optimal_mapping(
            scale_chain(chain, exec_scale=4.0, comm_scale=4.0), PROCS
        )
        assert scaled.mapping == base.mapping
        assert scaled.throughput == pytest.approx(base.throughput / 4.0)


class TestInvalidate:
    def warm_cache(self, chain):
        cache = SegmentCache(chain)
        optimal_mapping(chain, PROCS, cache=cache)
        return cache

    def test_no_delta_evicts_nothing(self):
        cache = self.warm_cache(make_random_chain(4, seed=4))
        infos, parts = dict(cache._infos), dict(cache._parts)
        assert cache.invalidate() == 0
        assert cache._infos == infos and cache._parts == parts

    def test_task_eviction_hits_exactly_covering_segments(self):
        chain = make_random_chain(4, seed=4)
        cache = self.warm_cache(chain)
        before = set(cache._infos)
        evicted = cache.invalidate(tasks=[1])
        assert evicted > 0
        gone = before - set(cache._infos)
        assert gone == {k for k in before if k[0] <= 1 <= k[1]}
        assert all(not (k[0] <= 1 <= k[1]) for k in cache._parts)

    def test_edge_eviction_hits_spanning_and_adjacent(self):
        chain = make_random_chain(4, seed=4)
        cache = self.warm_cache(chain)
        before_infos = set(cache._infos)
        before_parts = set(cache._parts)
        cache.invalidate(edges=[1])
        gone_infos = before_infos - set(cache._infos)
        assert gone_infos == {k for k in before_infos if k[0] <= 1 < k[1]}
        gone_parts = before_parts - set(cache._parts)
        assert gone_parts == {
            k for k in before_parts
            if (k[0] <= 1 < k[1]) or k[0] == 2 or k[1] == 1
        }


class TestUpdateChain:
    def test_trivial_update_keeps_memoised_plans(self):
        chain = make_random_chain(4, seed=8)
        planner = RemapPlanner(chain)
        first = planner.plan(PROCS)
        assert planner.update_chain(chain).trivial
        assert planner.plan(PROCS) is first   # memo survived
        assert planner.solves == 1
        assert planner.updates == 0

    def test_update_rebinds_cache_chain(self):
        chain = make_random_chain(4, seed=8)
        planner = RemapPlanner(chain)
        planner.plan(PROCS)
        new = perturb(chain, tasks=(0,))
        planner.update_chain(new)
        assert planner.chain is new
        assert planner.cache.chain is new
        assert planner.updates == 1
        assert planner.evictions > 0

    def test_incremental_equals_cold_single_step(self):
        chain = make_random_chain(5, seed=13)
        planner = RemapPlanner(chain)
        planner.plan(PROCS)
        new = perturb(chain, tasks=(2,), edges=(0,), factor=2.5)
        planner.update_chain(new)
        warm = planner.plan(PROCS)
        cold = optimal_mapping(new, PROCS)
        assert warm.mapping == cold.mapping
        assert warm.throughput == cold.throughput   # bit-equal


@given(
    k=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_differential_incremental_vs_cold(k, seed, data):
    """Two sequential randomized perturbations; each warm re-solve must be
    byte-identical to a cold solve of the same chain."""
    base = make_random_chain(k, seed=seed)
    planner = RemapPlanner(base)
    planner.plan(PROCS)
    current = base
    for step in range(2):
        tasks = data.draw(
            st.sets(st.integers(0, k - 1), max_size=k),
            label=f"tasks{step}",
        )
        edges = data.draw(
            st.sets(st.integers(0, k - 2), max_size=k - 1),
            label=f"edges{step}",
        )
        factor = data.draw(
            st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False),
            label=f"factor{step}",
        )
        new = perturb(
            current, tasks=tuple(tasks), edges=tuple(edges), factor=factor
        )
        delta = planner.update_chain(new)
        # perturb() wraps the chosen components in Scaled* even at factor
        # 1.0, so the delta is exactly the chosen index sets.
        assert delta.tasks == tuple(sorted(tasks))
        assert delta.edges == tuple(sorted(edges))
        warm = planner.plan(PROCS)
        cold = optimal_mapping(new, PROCS)
        assert warm.mapping == cold.mapping
        assert warm.throughput == cold.throughput   # bit-equal
        for spec_w, spec_c in zip(warm.mapping, cold.mapping):
            assert spec_w == spec_c
        current = new


class TestFactoredCache:
    """Exec tables and unscaled ecom grids outlive comm-only updates."""

    def test_scaled_edge_reads_its_base_model(self):
        chain = make_random_chain(3, seed=6)
        base = chain.edges[0].ecom
        assert base.unscaled() == (base, 1.0)
        assert ScaledBinary(base, 2.5).unscaled() == (base, 2.5)
        for factor in (0.0, float("inf")):
            scaled = ScaledBinary(base, factor)
            assert scaled.unscaled() == (scaled, 1.0)

    def test_rescaled_grid_gives_the_scaled_model_bits(self):
        chain = make_random_chain(4, seed=2)
        scaled = scale_chain(chain, comm_scale=0.37)
        clustering = [(0, 1), (2, 2), (3, 3)]
        cache = SegmentCache(chain)
        for i in range(3):   # grids of the unscaled models
            cache.module_chain(clustering).response_parts(i, PROCS)
        cache.chain = scaled
        cache.invalidate(edges=(0, 1, 2), ecom_only=(0, 1, 2))
        grids = cache.grid_misses
        warm = cache.module_chain(clustering)
        for i in range(2):
            a, b = warm.infos[i], warm.infos[i + 1]
            _, s_a = effective_tables(PROCS, a.p_min, a.replicable)
            _, s_b = effective_tables(PROCS, b.p_min, b.replicable)
            ok_a, ok_b = np.flatnonzero(s_a), np.flatnonzero(s_b)
            # The ScaledBinary itself, evaluated at the instance sizes.
            direct = warm.ecoms[i](s_a[ok_a][:, None].astype(float),
                                   s_b[ok_b][None, :].astype(float))
            com_out = warm.response_parts(i, PROCS)[1]
            assert com_out[np.ix_(ok_a, ok_b)].tobytes() == direct.tobytes()
        plain = build_module_chain(scaled, clustering)
        for i in range(3):
            for x, y in zip(warm.response_parts(i, PROCS),
                            plain.response_parts(i, PROCS)):
                assert x.tobytes() == y.tobytes()
        assert cache.grid_misses == grids

    def test_comm_only_resolve_rebuilds_no_info_or_exec_table(self):
        base = make_random_chain(5, seed=17)
        planner = RemapPlanner(base)
        planner.plan(PROCS)
        cache = planner.cache
        misses = (cache.info_misses, cache.exec_misses, cache.grid_misses)
        for c in (1.5, 0.7, 2.0):
            planner.update_chain(scale_chain(base, comm_scale=c))
            warm = planner.plan(PROCS)
            cold = optimal_mapping(planner.chain, PROCS)
            assert warm.mapping == cold.mapping
            assert warm.throughput == cold.throughput   # bit-equal
        assert cache.part_misses > 0
        assert (cache.info_misses, cache.exec_misses, cache.grid_misses) == misses

    def test_cold_build_evaluates_each_grid_once(self):
        chain = make_random_chain(5, seed=23, with_memory=True)
        calls = {}

        def counted(j, model):
            def fn(ps, pr):
                if np.ndim(ps) == 2:   # a grid, not a scalar price
                    calls[j] = calls.get(j, 0) + 1
                return model.evaluate(ps, pr)
            return LambdaBinary(fn)

        edges = [Edge(icom=e.icom, ecom=counted(j, e.ecom))
                 for j, e in enumerate(chain.edges)]
        counting = TaskChain(list(chain.tasks), edges, name=chain.name)
        cache = SegmentCache(counting, 6.0)
        for replication in (True, False):
            build_every_part(cache, PROCS, replication)
            optimal_mapping(counting, PROCS, 6.0, replication=replication,
                            cache=cache)
        per_edge = {}
        for key in cache._grids:
            per_edge[key[0]] = per_edge.get(key[0], 0) + 1
        assert calls == per_edge
        assert cache.grid_misses == len(cache._grids) == sum(calls.values())
        assert len(cache._grids) < cache.part_misses   # in and out share


def _solve(cache, chain, mem, replication, incumbent=None):
    return optimal_mapping(chain, PROCS, mem, replication=replication,
                           cache=cache, incumbent=incumbent)


@given(
    k=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    replication=st.booleans(),
    with_memory=st.booleans(),
    data=st.data(),
)
def test_comm_scale_sequence_incremental_vs_cold(
    k, seed, replication, with_memory, data
):
    """3–6 comm-scale updates mixed with one exec-scale and one task
    perturbation, each re-solved on one cache (the current mapping priced
    on the new chain as incumbent), must equal a cold solve bit for bit."""
    mem = 6.0 if with_memory else float("inf")
    base = make_random_chain(k, seed=seed, with_memory=with_memory)
    scale = st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)
    steps = [("comm", data.draw(scale, label=f"comm{n}"))
             for n in range(data.draw(st.integers(3, 6), label="comms"))]
    steps.insert(data.draw(st.integers(0, len(steps)), label="at_exec"),
                 ("exec", data.draw(scale, label="exec")))
    steps.insert(data.draw(st.integers(0, len(steps)), label="at_task"),
                 ("task", data.draw(st.integers(0, k - 1), label="task")))
    cache = SegmentCache(base, mem)
    plan = _solve(cache, base, mem, replication)
    comm, chain = 1.0, base
    for kind, value in steps:
        if kind == "comm":
            comm = value
        elif kind == "exec":
            base = scale_chain(base, exec_scale=value)
        else:
            base = perturb(base, tasks=(value,), factor=1.7)
        new = scale_chain(base, comm_scale=comm)
        delta = diff_chains(chain, new)
        cache.invalidate(delta.tasks, delta.edges, delta.ecom_only)
        cache.chain = chain = new
        info_misses = cache.info_misses
        current = evaluate_module_chain(
            cache.module_chain(plan.clustering),
            [(m.procs, m.replicas) for m in plan.mapping.modules],
        )
        plan = _solve(cache, new, mem, replication, current.throughput)
        cold = _solve(None, new, mem, replication)
        assert plan.mapping == cold.mapping
        assert plan.throughput == cold.throughput   # bit-equal
        assert plan.performance.responses == cold.performance.responses
        assert plan.performance.latency == cold.performance.latency
        if kind == "comm":
            assert delta.tasks == () and delta.ecom_only == delta.edges
            assert cache.info_misses == info_misses

