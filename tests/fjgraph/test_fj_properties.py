"""Property-based tests for the fork/join extension."""

from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Edge,
    InfeasibleError,
    Mapping,
    ModuleSpec,
    PolynomialEComm,
    PolynomialExec,
    SimulationError,
    Task,
    TaskChain,
    ZeroBinary,
    ZeroUnary,
    all_clusterings,
    build_module_chain,
    clustering_from_boundaries,
    greedy_assignment,
    singleton_clustering,
    throughput_of_totals,
)
from repro.core.response import UNFIT
from repro.fjgraph import (
    FJGraph,
    FJMapping,
    ParallelSection,
    brute_force_fj,
    build_modules,
    evaluate_fj,
    greedy_fj_assignment,
    greedy_fj_mapping,
    simulate_fj,
)
from repro.sim import NoiseModel, simulate
from repro.workloads import random_chain
from tests.conftest import make_random_chain

from .test_fjgraph import assert_same_run, chain_as_graph


@st.composite
def fj_graphs(draw):
    """Random small fork/join pipelines: head, 2-3 branches of 1-2 tasks,
    tail of 1-2 tasks."""
    counter = [0]

    def task(work_lo=0.5, work_hi=8.0):
        counter[0] += 1
        return Task(
            f"t{counter[0]}",
            PolynomialExec(
                draw(st.floats(0.0, 0.05)),
                draw(st.floats(work_lo, work_hi)),
                draw(st.floats(0.0, 0.01)),
            ),
            replicable=draw(st.booleans()),
        )

    def edge():
        return Edge(
            ecom=PolynomialEComm(
                draw(st.floats(0.0, 0.05)),
                draw(st.floats(0.0, 0.5)),
                draw(st.floats(0.0, 0.5)),
                draw(st.floats(0.0, 0.005)),
                draw(st.floats(0.0, 0.005)),
            )
        )

    n_branches = draw(st.integers(2, 3))
    branches = []
    branch_edges = []
    for _ in range(n_branches):
        blen = draw(st.integers(1, 2))
        branches.append([task() for _ in range(blen)])
        branch_edges.append([edge() for _ in range(blen - 1)])
    section = ParallelSection(
        branches=branches,
        fork_edges=[edge() for _ in range(n_branches)],
        join_edges=[edge() for _ in range(n_branches)],
        branch_edges=branch_edges,
    )
    stages = [task(), section, task()]
    if draw(st.booleans()):
        stages += [edge(), task()]
    return FJGraph(stages)


@settings(max_examples=20, deadline=None)
@given(g=fj_graphs(), P=st.integers(6, 12))
def test_greedy_never_beats_oracle(g, P):
    mods = build_modules(
        g, [singleton_clustering(len(s.tasks)) for s in g.segments]
    )
    if sum(m.p_min for m in mods) > P:
        return
    _, tp_g = greedy_fj_assignment(mods, P)
    _, tp_b = brute_force_fj(mods, P)
    assert tp_g <= tp_b * (1 + 1e-9)
    assert tp_g >= tp_b * 0.75


@settings(max_examples=15, deadline=None)
@given(g=fj_graphs(), P=st.integers(8, 16))
def test_simulator_never_beats_analytic_bound(g, P):
    """The analytic formula is a provable upper bound on the bufferless
    rendezvous network's throughput; the simulator must respect it."""
    mapping, bound = greedy_fj_mapping(g, P)
    sim = simulate_fj(g, mapping, n_datasets=150)
    assert sim.throughput <= bound * (1 + 1e-2)
    assert sim.throughput > 0


@settings(max_examples=15, deadline=None)
@given(g=fj_graphs(), P=st.integers(8, 14))
def test_mapping_is_structurally_valid(g, P):
    mapping, _ = greedy_fj_mapping(g, P)
    mapping.validate(g, total_procs=P)
    # Non-replicable tasks never replicated.
    for specs, seg in zip(mapping.modules, g.segments):
        for m in specs:
            if m.replicas > 1:
                assert all(
                    t.replicable for t in seg.tasks[m.start : m.stop + 1]
                )


@settings(max_examples=10, deadline=None)
@given(g=fj_graphs())
def test_evaluate_monotone_in_any_module(g):
    """Giving a single module more processors (others fixed and feasible)
    never *hurts* when its own response improves... weaker invariant:
    evaluation stays finite and positive on feasible totals."""
    mods = build_modules(
        g, [singleton_clustering(len(s.tasks)) for s in g.segments]
    )
    totals = [m.p_min for m in mods]
    perf = evaluate_fj(mods, totals)
    assert perf.throughput > 0
    assert all(r > 0 for r in perf.responses)
    assert perf.bottleneck == perf.effective_responses.index(
        max(perf.effective_responses)
    )


@st.composite
def chain_runs(draw):
    """A small random chain, a mapping of it, a stream length and an
    optional seeded noise model."""
    k = draw(st.integers(1, 4))
    chain = make_random_chain(k, seed=draw(st.integers(0, 50)),
                              replicable_prob=1.0)
    cuts = [b for b in range(k - 1) if draw(st.booleans())]
    mapping = Mapping([
        ModuleSpec(start, stop, draw(st.integers(1, 4)), draw(st.integers(1, 3)))
        for start, stop in clustering_from_boundaries(k, cuts)
    ])
    noise = None
    if draw(st.booleans()):
        noise = (draw(st.integers(0, 1000)), draw(st.floats(0.0, 0.1)),
                 draw(st.floats(0.0, 0.2)))
    return chain, mapping, draw(st.integers(2, 40)), noise


@settings(max_examples=25, deadline=None)
@given(run=chain_runs())
def test_chain_as_graph_matches_chain_simulator(run):
    """A plain chain gives the same bits through either front-end — or
    the same error, when the run has no steady-state window to rate."""
    chain, mapping, n, noise = run

    def outcome(sim, *args):
        try:
            return sim(*args, n_datasets=n,
                       noise=NoiseModel(*noise) if noise else None)
        except SimulationError as exc:
            return str(exc)

    fj = outcome(simulate_fj, chain_as_graph(chain), FJMapping([mapping.modules]))
    ch = outcome(partial(simulate, engine="event"), chain, mapping)
    if isinstance(fj, str) or isinstance(ch, str):
        assert fj == ch
    else:
        assert_same_run(fj, ch)


@st.composite
def wrapped_chains(draw):
    """A random chain under any clustering and memory limit (``UNFIT``
    segments and zero-cost edges included), as a module chain and as the
    module graph of the chain wrapped as an :class:`FJGraph`."""
    k = draw(st.integers(1, 5))
    chain = random_chain(k, seed=draw(st.integers(0, 10**6)),
                         with_memory=draw(st.booleans()))
    if draw(st.booleans()):
        chain = TaskChain(chain.tasks,
                          [Edge(ZeroUnary(), ZeroBinary()) for _ in chain.edges],
                          name="zero-edges")
    mem = draw(st.sampled_from([math.inf, 0.08, 0.15, 1.0, 4.0]))
    clustering = draw(st.sampled_from(list(all_clusterings(k))))
    return (build_module_chain(chain, clustering, mem),
            build_modules(chain_as_graph(chain), [clustering], mem))


def _hex(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


@settings(max_examples=60, deadline=None)
@given(pair=wrapped_chains(), data=st.data())
def test_graph_pricing_matches_chain_pricing(pair, data):
    """A chain wrapped as a graph prices to the chain's bits, on totals
    below the minimums and on ``UNFIT`` segments too."""
    mchain, mods = pair
    totals = [
        data.draw(st.integers(0, 8)) if info.p_min == UNFIT
        else max(0, info.p_min + data.draw(st.integers(-1, 6)))
        for info in mchain.infos
    ]
    tp, eff = throughput_of_totals(mchain, totals)
    perf = evaluate_fj(mods, totals)
    assert float.hex(perf.throughput) == float.hex(tp)
    assert _hex(perf.effective_responses) == _hex(eff)


@settings(max_examples=40, deadline=None)
@given(pair=wrapped_chains(), extra=st.integers(0, 10))
def test_graph_greedy_matches_chain_greedy(pair, extra):
    """The fork/join greedy on a chain wrapped as a graph is the chain
    greedy with its local search: same totals, same throughput bits."""
    mchain, mods = pair
    P = min(mchain.total_min_procs, 60) + extra
    if mchain.total_min_procs > P:
        with pytest.raises(InfeasibleError):
            greedy_assignment(mchain, P, backtracking=True)
        with pytest.raises(InfeasibleError):
            greedy_fj_assignment(mods, P)
        return
    chain_res = greedy_assignment(mchain, P, backtracking=True)
    totals, tp = greedy_fj_assignment(mods, P)
    assert totals == chain_res.totals
    assert float.hex(tp) == float.hex(chain_res.throughput)
