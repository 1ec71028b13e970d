"""Property-based tests for the fork/join extension."""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.core import (
    Edge,
    Mapping,
    ModuleSpec,
    PolynomialEComm,
    PolynomialExec,
    SimulationError,
    Task,
    clustering_from_boundaries,
    singleton_clustering,
)
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
