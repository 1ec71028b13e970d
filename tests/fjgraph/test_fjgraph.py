"""Tests for the fork/join pipeline extension."""

import math

import numpy as np
import pytest

from repro.core import (
    Edge,
    InfeasibleError,
    InvalidChainError,
    InvalidMappingError,
    Mapping,
    ModuleSpec,
    PolynomialEComm,
    PolynomialExec,
    Task,
    TaskChain,
    ZeroBinary,
    ZeroUnary,
    brute_force_mapping,
    build_module_chain,
    evaluate_module_chain,
    greedy_assignment,
    optimal_mapping,
    singleton_clustering,
    throughput_of_totals,
)
from repro.core.response import bottleneck_throughput
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
from repro.machine import presets
from repro.sim import NoiseModel, simulate
from repro.workloads import airshed, fft_hist, radar, sar, stereo
from tests.conftest import make_three_task_chain

PAPER_WORKLOADS = {
    "fft-hist-256": lambda m: fft_hist(256, m),
    "fft-hist-512": lambda m: fft_hist(512, m),
    "radar": radar,
    "stereo": stereo,
    "sar": sar,
    "airshed": airshed,
}


def chain_as_graph(chain):
    """``chain`` as a fork/join graph with no parallel sections."""
    stages = [chain.tasks[0]]
    for edge, task in zip(chain.edges, chain.tasks[1:]):
        stages += [edge, task]
    return FJGraph(stages, name=chain.name)


def assert_same_run(fj, ch):
    """The two simulators' results agree bit for bit."""
    assert np.array_equal(fj.completions, ch.completions)
    assert np.array_equal(fj.injections, ch.injections)
    assert float.hex(fj.throughput) == float.hex(ch.throughput)
    assert float.hex(fj.mean_latency) == float.hex(ch.mean_latency)
    assert fj.events_processed == ch.events_processed


def _ecom(c=0.02):
    return PolynomialEComm(c, 0.5, 0.5, 0.002, 0.002)


def _task(name, work=4.0, replicable=True):
    return Task(name, PolynomialExec(0.005, work), replicable=replicable)


def make_stereo_graph(branch_work=4.0):
    """capture -> (3 camera branches) -> diff -> output."""
    section = ParallelSection(
        branches=[[_task(f"cam{i}", branch_work)] for i in range(3)],
        fork_edges=[Edge(ecom=_ecom()) for _ in range(3)],
        join_edges=[Edge(ecom=_ecom()) for _ in range(3)],
    )
    return FJGraph(
        [
            _task("capture", 1.0),
            section,
            _task("diff", 12.0),
            Edge(ecom=_ecom(0.05)),
            _task("output", 1.0, replicable=False),
        ],
        name="stereo-fj",
    )


class TestGraphConstruction:
    def test_segments_and_neighbours(self):
        g = make_stereo_graph()
        roles = [s.role for s in g.segments]
        assert roles == ["series", "branch", "branch", "branch", "series"]
        assert g.section_neighbours == [(0, 4)]
        assert g.n_tasks == 6

    def test_rejects_leading_section(self):
        section = ParallelSection(
            branches=[[_task("a")], [_task("b")]],
            fork_edges=[Edge(), Edge()],
            join_edges=[Edge(), Edge()],
        )
        with pytest.raises(InvalidChainError):
            FJGraph([section, _task("x")])

    def test_rejects_trailing_section(self):
        section = ParallelSection(
            branches=[[_task("a")], [_task("b")]],
            fork_edges=[Edge(), Edge()],
            join_edges=[Edge(), Edge()],
        )
        with pytest.raises(InvalidChainError):
            FJGraph([_task("x"), section])

    def test_rejects_single_branch(self):
        with pytest.raises(InvalidChainError):
            ParallelSection(
                branches=[[_task("a")]],
                fork_edges=[Edge()],
                join_edges=[Edge()],
            )

    def test_rejects_duplicate_names(self):
        with pytest.raises(InvalidChainError):
            FJGraph([_task("x"), Edge(), _task("x")])

    def test_plain_chain_degenerates(self):
        g = FJGraph([_task("a"), Edge(ecom=_ecom()), _task("b")])
        assert len(g.segments) == 1
        assert g.sections == []


class TestModuleGraph:
    def test_fork_and_join_links(self):
        g = make_stereo_graph()
        mods = build_modules(
            g, [singleton_clustering(len(s.tasks)) for s in g.segments]
        )
        by_name = {m.name: m for m in mods}

        def in_degree(name):
            return sum(mods[j] is by_name[name] for m in mods for j, _ in m.out_links)

        fork = by_name["capture"]
        assert len(fork.out_links) == 3
        assert in_degree("diff") == 3
        assert in_degree("cam0") == 1
        assert len(by_name["output"].out_links) == 0

    def test_clustering_inside_segment(self):
        g = make_stereo_graph()
        clusterings = [singleton_clustering(len(s.tasks)) for s in g.segments]
        clusterings[4] = ((0, 1),)  # merge diff+output
        mods = build_modules(g, clusterings)
        names = [m.name for m in mods]
        assert "diff,output" in names

    def test_fork_response_sums_branch_transfers(self):
        g = make_stereo_graph()
        mods = build_modules(
            g, [singleton_clustering(len(s.tasks)) for s in g.segments]
        )
        totals = [2, 2, 2, 2, 4, 1]
        perf = evaluate_fj(mods, totals)
        fork = next(i for i, m in enumerate(mods) if m.name == "capture")
        # Every module here has p_min 1, so totals of 2 replicate into two
        # single-processor instances: transfers run at instance size 1.
        expected = float(mods[fork].exec_cost(1))
        expected += sum(float(e(1, 1)) for _, e in mods[fork].out_links)
        assert perf.responses[fork] == pytest.approx(expected)
        # ... and the effective response divides by the replica count.
        assert perf.effective_responses[fork] == pytest.approx(expected / 2)


class TestSolvers:
    @pytest.mark.parametrize("P", [8, 12])
    def test_greedy_close_to_brute_force(self, P):
        g = make_stereo_graph()
        mods = build_modules(
            g, [singleton_clustering(len(s.tasks)) for s in g.segments]
        )
        totals_g, tp_g = greedy_fj_assignment(mods, P)
        totals_b, tp_b = brute_force_fj(mods, P)
        assert tp_g <= tp_b * (1 + 1e-9)
        assert tp_g >= tp_b * 0.9

    def test_infeasible_raises(self):
        g = make_stereo_graph()
        mods = build_modules(
            g, [singleton_clustering(len(s.tasks)) for s in g.segments]
        )
        with pytest.raises(InfeasibleError):
            greedy_fj_assignment(mods, 3)

    @pytest.mark.parametrize("c_work", [7.875, 7.9], ids=["tied", "near-tied"])
    def test_local_search_feeds_two_tied_branches(self, c_work):
        """Two branches at the bottleneck improve only together: the greedy
        feeds their shared join instead, and only the local search's split
        move (one processor each into both) reaches the optimum.  Branch c
        ties branch b exactly, or runs slower by 0.3 %, where splits offered
        only to exactly tied modules miss the optimum."""
        def task(name, work):
            return Task(name, PolynomialExec(0.0, work), replicable=False)

        def edge(send=0.0, recv=0.0):
            return Edge(ecom=PolynomialEComm(0.0, send, recv, 0.0, 0.0))

        section = ParallelSection(
            branches=[[task("a", 1.0)], [task("b0", 1.0), task("b1", 7.625)],
                      [task("c", c_work)]],
            branch_edges=[[], [edge(recv=0.375)], []],
            fork_edges=[edge() for _ in range(3)],
            join_edges=[edge(), edge(0.375, 0.5), edge(0.5, 0.5)],
        )
        g = FJGraph([task("head", 1.0), section, task("tail", 1.0)])
        mods = build_modules(
            g, [singleton_clustering(len(s.tasks)) for s in g.segments]
        )
        assert greedy_fj_assignment(mods, 8) == brute_force_fj(mods, 8)

    def test_zero_cost_chain_runs_at_infinite_throughput(self):
        """One convention for zero cost: every reader reports ``inf`` on
        an all-zero chain, both as a chain and wrapped as a graph."""
        chain = TaskChain(
            [Task(f"z{i}", ZeroUnary()) for i in range(3)],
            [Edge(ZeroUnary(), ZeroBinary()) for _ in range(2)],
        )
        P, singles = 6, singleton_clustering(3)
        mchain = build_module_chain(chain, singles)
        greedy = greedy_assignment(mchain, P)
        mods = build_modules(chain_as_graph(chain), [singles])
        readers = {
            "evaluate_module_chain":
                evaluate_module_chain(mchain, [(1, 1)] * 3).throughput,
            "optimal_mapping": optimal_mapping(chain, P).throughput,
            "brute_force_mapping": brute_force_mapping(chain, P).throughput,
            "greedy_assignment": greedy.throughput,
            "greedy trajectory": min(greedy.trajectory),
            "bottleneck_throughput": bottleneck_throughput([0.0] * 3),
            "throughput_of_totals": throughput_of_totals(mchain, [2] * 3)[0],
            "evaluate_fj": evaluate_fj(mods, [2] * 3).throughput,
            "greedy_fj_assignment": greedy_fj_assignment(mods, P)[1],
            "brute_force_fj": brute_force_fj(mods, P)[1],
        }
        assert readers == dict.fromkeys(readers, math.inf)

    def test_full_mapper_valid_and_better_than_naive(self):
        g = make_stereo_graph()
        mapping, tp = greedy_fj_mapping(g, 16)
        mapping.validate(g, total_procs=16)
        # Naive: one processor each, no replication.
        naive = FJMapping([
            [ModuleSpec(i, i, 1) for i in range(len(s.tasks))]
            for s in g.segments
        ])
        naive.validate(g)
        mods = build_modules(
            g, [singleton_clustering(len(s.tasks)) for s in g.segments]
        )
        naive_tp = evaluate_fj(mods, [1] * len(mods)).throughput
        assert tp > naive_tp

    def test_respects_non_replicable_output(self):
        g = make_stereo_graph()
        mapping, _ = greedy_fj_mapping(g, 16)
        for specs, seg in zip(mapping.modules, g.segments):
            for m in specs:
                if any(
                    not t.replicable for t in seg.tasks[m.start : m.stop + 1]
                ):
                    assert m.replicas == 1


class TestMappingValidation:
    def test_segment_must_be_tiled(self):
        g = make_stereo_graph()
        bad = FJMapping([
            [ModuleSpec(0, 0, 1)],
            [ModuleSpec(0, 0, 1)],
            [ModuleSpec(0, 0, 1)],
            [ModuleSpec(0, 0, 1)],
            [ModuleSpec(0, 0, 1)],     # misses 'output'
        ])
        with pytest.raises(InvalidMappingError):
            bad.validate(g)

    def test_violations_carry_codes(self):
        g = make_stereo_graph()
        bad = FJMapping([
            [ModuleSpec(0, 0, 1)],
            [],                          # cam0 unmapped
            [ModuleSpec(0, 0, 1)],
            [ModuleSpec(0, 0, 1)],
            [ModuleSpec(0, 1, 1, 2)],    # replicates non-replicable 'output'
        ])
        with pytest.raises(InvalidMappingError) as exc:
            bad.validate(g, total_procs=4)
        assert [v.code for v in exc.value.violations] == [
            "structure", "replication", "budget"]

    def test_budget_enforced(self):
        g = make_stereo_graph()
        mapping, _ = greedy_fj_mapping(g, 16)
        with pytest.raises(InvalidMappingError):
            mapping.validate(g, total_procs=mapping.total_procs - 1)


class TestSimulation:
    def test_matches_evaluator(self):
        g = make_stereo_graph()
        mapping, tp = greedy_fj_mapping(g, 16)
        sim = simulate_fj(g, mapping, n_datasets=240)
        assert sim.throughput == pytest.approx(tp, rel=1e-2)

    def test_plain_chain_matches_chain_simulator(self):
        """On a degenerate (no-fork) graph, the FJ machinery must agree
        with the chain machinery exactly."""
        from repro.core import evaluate_mapping

        a, b = _task("a", 3.0), _task("b", 5.0)
        edge = Edge(ecom=_ecom())
        g = FJGraph([a, edge, b])
        mapping, tp = greedy_fj_mapping(g, 8)
        chain = TaskChain([a, b], [edge])
        chain_mapping = Mapping(mapping.modules[0])
        perf = evaluate_mapping(chain, chain_mapping)
        assert tp == pytest.approx(perf.throughput, rel=1e-9)
        assert_same_run(
            simulate_fj(g, mapping, n_datasets=200),
            simulate(chain, chain_mapping, n_datasets=200, engine="event"),
        )

    @pytest.mark.parametrize("replication", [True, False],
                             ids=["replicated", "unreplicated"])
    @pytest.mark.parametrize("workload", sorted(PAPER_WORKLOADS))
    def test_paper_optimum_matches_chain_simulator(self, workload, replication):
        """The DP optimum of each paper workload runs bit for bit the same
        through ``simulate_fj`` as through the chain simulator."""
        machine = presets.iwarp64_message()
        chain = PAPER_WORKLOADS[workload](machine).chain
        mapping = optimal_mapping(chain, machine.total_procs,
                                  machine.mem_per_proc_mb,
                                  replication=replication).mapping
        assert_same_run(
            simulate_fj(chain_as_graph(chain), FJMapping([mapping.modules]),
                        n_datasets=50),
            simulate(chain, mapping, n_datasets=50, engine="event"),
        )

    def test_noisy_chain_matches_chain_simulator(self):
        """Jitter and transfer interference draw from the noise stream in
        the same event order, so a seeded noisy run matches too."""
        chain = make_three_task_chain()
        mapping = Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 2, 3)])
        assert_same_run(
            simulate_fj(chain_as_graph(chain), FJMapping([mapping.modules]),
                        n_datasets=60, noise=NoiseModel(3, 0.05, 0.1)),
            simulate(chain, mapping, n_datasets=60, engine="event",
                     noise=NoiseModel(3, 0.05, 0.1)),
        )

    @pytest.mark.parametrize("engine", ["event", "fast", "fj"])
    def test_two_datasets_rate_one_interval(self, engine):
        """At n=2 there is no warm-up: the rate is the one completion after
        the first over the interval between them, on every engine."""
        chain = TaskChain([_task("solo")], [])
        mapping = Mapping([ModuleSpec(0, 0, 2)])
        if engine == "fj":
            res = simulate_fj(chain_as_graph(chain), FJMapping([mapping.modules]),
                              n_datasets=2)
        else:
            res = simulate(chain, mapping, n_datasets=2, engine=engine)
        c0, c1 = res.completions
        assert res.throughput == 1.0 / (c1 - c0)

    def test_unbalanced_branches_bound_and_refinement(self):
        """With unequal branch replication the analytic formula is only an
        optimistic bound (cross-module stall cycles); the measured
        throughput must stay below it, and simulation-refined mapping
        selection must do at least as well as bound-based selection."""
        branches = [[_task("f1", 0.5)], [_task("s1", 8.0)]]
        section = ParallelSection(
            branches=branches,
            fork_edges=[Edge(ecom=_ecom()) for _ in range(2)],
            join_edges=[Edge(ecom=_ecom()) for _ in range(2)],
        )
        g = FJGraph([_task("in", 0.5), section, _task("out", 0.5)])
        mapping, bound = greedy_fj_mapping(g, 12)
        sim = simulate_fj(g, mapping, n_datasets=120)
        assert sim.throughput <= bound * (1 + 1e-6)
        # Latency must cover the slow branch's response.
        assert sim.mean_latency > 8.0 / 12  # even fully parallelised
        refined_mapping, measured = greedy_fj_mapping(
            g, 12, refine_with_sim=True
        )
        assert measured >= sim.throughput * (1 - 1e-6)

    def test_deadlock_free_with_replication(self):
        g = make_stereo_graph(branch_work=2.0)
        mapping, _ = greedy_fj_mapping(g, 20)
        sim = simulate_fj(g, mapping, n_datasets=100)
        assert sim.n_datasets == 100
        assert sim.makespan > 0
