"""Property-based tests (hypothesis) on the core invariants.

These generate random chains/costs and check the structural guarantees the
solvers rely on: DP optimality against the oracle, monotonicity, replication
arithmetic, serialisation round-trips, and evaluator consistency.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Edge,
    Mapping,
    ModuleSpec,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    Task,
    TaskChain,
    all_clusterings,
    brute_force_assignment,
    build_module_chain,
    evaluate_module_chain,
    greedy_assignment,
    optimal_assignment,
    singleton_clustering,
    split_replicas,
    throughput_of_totals,
    totals_to_allocations,
)

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

coeff = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
small_coeff = st.floats(min_value=0.0, max_value=0.05, allow_nan=False)


@st.composite
def chains(draw, min_k=2, max_k=4):
    k = draw(st.integers(min_k, max_k))
    tasks = []
    for i in range(k):
        tasks.append(
            Task(
                f"t{i}",
                PolynomialExec(
                    draw(st.floats(0.0, 1.0)),
                    draw(st.floats(0.5, 30.0)),
                    draw(small_coeff),
                ),
                replicable=draw(st.booleans()),
            )
        )
    edges = []
    for _ in range(k - 1):
        edges.append(
            Edge(
                icom=PolynomialIComm(
                    draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 3.0)), draw(small_coeff)
                ),
                ecom=PolynomialEComm(
                    draw(st.floats(0.0, 0.5)),
                    draw(st.floats(0.0, 3.0)),
                    draw(st.floats(0.0, 3.0)),
                    draw(small_coeff),
                    draw(small_coeff),
                ),
            )
        )
    return TaskChain(tasks, edges)


# --------------------------------------------------------------------------
# Replication arithmetic
# --------------------------------------------------------------------------


@given(total=st.integers(0, 200), p_min=st.integers(1, 50), rep=st.booleans())
def test_split_replicas_invariants(total, p_min, rep):
    r, s = split_replicas(total, p_min, rep)
    if total < p_min:
        assert (r, s) == (0, 0)
    else:
        assert r >= 1
        assert s >= p_min
        assert r * s <= total
        if not rep:
            assert r == 1 and s == total


# --------------------------------------------------------------------------
# DP optimality against the oracle
# --------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(chain=chains(min_k=2, max_k=3), P=st.integers(3, 9), rep=st.booleans())
def test_dp_matches_brute_force(chain, P, rep):
    mc = build_module_chain(chain, singleton_clustering(len(chain)))
    dp = optimal_assignment(mc, P, replication=rep)
    bf = brute_force_assignment(mc, P, replication=rep)
    assert dp.throughput == pytest.approx(bf.throughput, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(chain=chains(min_k=2, max_k=3), P=st.integers(3, 12))
def test_greedy_never_beats_dp(chain, P):
    mc = build_module_chain(chain, singleton_clustering(len(chain)))
    dp = optimal_assignment(mc, P)
    gr = greedy_assignment(mc, P, backtracking=True)
    assert gr.throughput <= dp.throughput * (1 + 1e-9)
    assert gr.throughput > 0


@settings(max_examples=15, deadline=None)
@given(chain=chains(min_k=2, max_k=3), P=st.integers(4, 10))
def test_dp_monotone_in_machine_size(chain, P):
    mc = build_module_chain(chain, singleton_clustering(len(chain)))
    tp_small = optimal_assignment(mc, P).throughput
    tp_large = optimal_assignment(mc, P + 2).throughput
    assert tp_large >= tp_small * (1 - 1e-12)


# --------------------------------------------------------------------------
# Evaluator consistency
# --------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(chain=chains(), data=st.data())
def test_throughput_is_bottleneck_reciprocal(chain, data):
    k = len(chain)
    mc = build_module_chain(chain, singleton_clustering(k))
    totals = [data.draw(st.integers(1, 6), label=f"p{i}") for i in range(k)]
    tp, eff = throughput_of_totals(mc, totals)
    if all(math.isfinite(e) for e in eff):
        assert tp == pytest.approx(1.0 / max(eff))
        perf = evaluate_module_chain(mc, totals_to_allocations(mc, totals))
        assert perf.throughput == pytest.approx(tp)


@settings(max_examples=20, deadline=None)
@given(chain=chains(min_k=2, max_k=4))
def test_clustering_preserves_task_cover(chain):
    k = len(chain)
    for clustering in all_clusterings(k):
        mc = build_module_chain(chain, clustering)
        covered = []
        for info in mc.infos:
            covered.extend(range(info.start, info.stop + 1))
        assert covered == list(range(k))


@settings(max_examples=20, deadline=None)
@given(chain=chains(min_k=2, max_k=3))
def test_merging_swallows_internal_comm(chain):
    """Execution cost of a merged module = sum of task costs + icom, at any
    processor count (the §3.3 composability requirement)."""
    from repro.core import module_info

    k = len(chain)
    merged = module_info(chain, 0, k - 1).exec_cost
    for p in (1, 2, 5, 9):
        expected = sum(t.exec_cost(p) for t in chain.tasks)
        expected += sum(e.icom(p) for e in chain.edges)
        assert merged(p) == pytest.approx(expected)


# --------------------------------------------------------------------------
# Serialisation round-trips
# --------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(chain=chains())
def test_chain_serialisation_round_trip(chain):
    again = TaskChain.from_dict(chain.to_dict())
    assert len(again) == len(chain)
    for p in (1, 3, 8):
        for t_old, t_new in zip(chain.tasks, again.tasks):
            assert t_new.exec_cost(p) == pytest.approx(t_old.exec_cost(p))
        for e_old, e_new in zip(chain.edges, again.edges):
            assert e_new.icom(p) == pytest.approx(e_old.icom(p))
            assert e_new.ecom(p, p + 1) == pytest.approx(e_old.ecom(p, p + 1))


@given(
    spans=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    procs=st.lists(st.integers(1, 8), min_size=4, max_size=4),
    reps=st.lists(st.integers(1, 4), min_size=4, max_size=4),
)
def test_mapping_serialisation_round_trip(spans, procs, reps):
    start = 0
    modules = []
    for i, width in enumerate(spans):
        modules.append(ModuleSpec(start, start + width - 1, procs[i % 4], reps[i % 4]))
        start += width
    m = Mapping(modules)
    assert Mapping.from_dict(m.to_dict()) == m


# --------------------------------------------------------------------------
# Cost-model positivity / guard behaviour
# --------------------------------------------------------------------------


@given(
    c1=coeff, c2=coeff, c3=small_coeff,
    p=st.integers(min_value=1, max_value=512),
)
def test_polynomial_exec_nonnegative(c1, c2, c3, p):
    m = PolynomialExec(c1, c2, c3)
    assert m(p) >= 0.0
    assert math.isinf(m(0))


@given(
    c=st.tuples(coeff, coeff, coeff, small_coeff, small_coeff),
    ps=st.integers(1, 256),
    pr=st.integers(1, 256),
)
def test_polynomial_ecom_nonnegative(c, ps, pr):
    m = PolynomialEComm(*c)
    assert m(ps, pr) >= 0.0
    assert math.isinf(m(0, pr))
