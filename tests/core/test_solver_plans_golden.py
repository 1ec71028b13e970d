"""Solver fingerprints: every mapper returns byte-stable plans.

The committed fixture pins, for each case, ``repr(mapping)`` and
``float.hex(throughput)`` from every solver that maps a chain: the
exhaustive and bisect clustering DPs, the clustering heuristic, the three
greedy assignment variants, the machine-feasible optimum, the latency DP,
the latency/throughput frontier, the sizing curve, the communication-blind
baseline, the brute-force oracle on small cases, and the fork/join greedy
and brute-force mappers.  Cases cover the paper's six applications on their
presets, seeded random chains with and without memory limits, a chain
solved without replication, and the drift-study chain.  Any change to how
a segment's characteristics are derived or how a solver searches shows up
as a mismatch here.

Regenerate (after an *intentional* behaviour change only)::

    PYTHONPATH=src:. python tests/core/test_solver_plans_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import (
    Edge,
    PolynomialEComm,
    PolynomialExec,
    Task,
    brute_force_mapping,
    build_module_chain,
    comm_blind_assignment,
    greedy_assignment,
    heuristic_mapping,
)
from repro.core.dp_cluster import bisect_mapping, exhaustive_mapping
from repro.core.latency import (
    optimal_latency_assignment,
    throughput_latency_frontier,
)
from repro.core.sizing import sizing_curve
from repro.experiments import drift_study
from repro.fjgraph import (
    FJGraph,
    ParallelSection,
    brute_force_fj,
    build_modules,
    greedy_fj_mapping,
)
from repro.machine import presets
from repro.machine.feasibility import optimal_feasible_mapping
from repro.workloads import airshed, fft_hist, radar, random_chain, sar, stereo

GOLDEN = Path(__file__).parent / "golden" / "solver_plans.json"

#: Sweep points for the frontier and sizing curves (kept small: each point
#: is a full DP).
CURVE_POINTS = 4


def _plan(res) -> list[str]:
    return [repr(res.mapping), float.hex(float(res.throughput))]


def _chain_cases() -> dict:
    """name -> (chain, P, mem_per_proc_mb, machine, replication, small)."""
    msg, sys_ = presets.iwarp64_message(), presets.iwarp64_systolic()
    cases = {}
    for w in (fft_hist(256, msg), fft_hist(512, sys_), radar(msg),
              stereo(sys_), airshed(msg), sar(sys_)):
        m = w.machine
        cases[f"paper-{w.name}-{m.name}"] = (
            w.chain, m.total_procs, m.mem_per_proc_mb, m, True, False)
    for seed in range(3):
        k = 3 + seed
        cases[f"random-k{k}-s{seed}"] = (
            random_chain(k, seed=seed), 12, float("inf"), None,
            True, True)
        cases[f"random-mem-k{k}-s{seed}"] = (
            random_chain(k, seed=20 + seed, with_memory=True), 14, 2.0, None,
            True, True)
    cases["random-unreplicable-k4"] = (
        random_chain(4, seed=13, replicable_prob=0.0), 14, float("inf"), None,
        True, True)
    cases["random-norep-k4"] = (
        random_chain(4, seed=7), 14, float("inf"), None, False, True)
    cases["random-mem-norep-k3"] = (
        random_chain(3, seed=17, with_memory=True), 12, 1.0, None, False, True)
    cases["drift-study"] = (
        drift_study.study_chain(), drift_study.MACHINE_PROCS, float("inf"),
        None, True, False)
    return cases


def _chain_fingerprint(chain, P, mem, machine, replication, small) -> dict:
    out = {}
    ex = exhaustive_mapping(chain, P, mem, replication=replication)
    out["exhaustive"] = _plan(ex)
    out["bisect"] = _plan(bisect_mapping(chain, P, mem,
                                         replication=replication))
    out["heuristic"] = _plan(heuristic_mapping(chain, P, mem,
                                               replication=replication))
    mchain = build_module_chain(chain, ex.clustering, mem)
    for name, kw in (("greedy", {}), ("greedy-slowest", {"slowest_only": True}),
                     ("greedy-backtrack", {"backtracking": True})):
        out[name] = _plan(greedy_assignment(mchain, P,
                                            replication=replication, **kw))
    if machine is not None:
        out["feasible"] = _plan(optimal_feasible_mapping(
            chain, machine, replication=replication))
    out["latency"] = _plan(optimal_latency_assignment(mchain, P))
    out["frontier"] = [
        [float.hex(tp), float.hex(lat)]
        for tp, lat in throughput_latency_frontier(
            mchain, P, points=CURVE_POINTS, replication=replication)
    ]
    out["sizing"] = [
        _plan(r) + [r.processors]
        for r in sizing_curve(mchain, P, points=CURVE_POINTS,
                              replication=replication)
    ]
    out["comm-blind"] = _plan(comm_blind_assignment(
        mchain, P, replication=replication).performance)
    if small:
        out["brute-force"] = _plan(brute_force_mapping(
            chain, P, mem, replication=replication))
    return out


def _fj_graph(with_memory: bool) -> FJGraph:
    """capture -> (two camera branches) -> diff -> output."""
    def task(name, work, replicable=True):
        return Task(name, PolynomialExec(0.005, work), replicable=replicable,
                    mem_fixed_mb=0.5 if with_memory else 0.0,
                    mem_parallel_mb=2.0 if with_memory else 0.0)

    def ecom(c=0.02):
        return PolynomialEComm(c, 0.5, 0.5, 0.002, 0.002)

    section = ParallelSection(
        branches=[[task("cam0", 4.0), task("fil0", 2.0)], [task("cam1", 5.0)]],
        branch_edges=[[Edge(ecom=ecom())], []],
        fork_edges=[Edge(ecom=ecom()) for _ in range(2)],
        join_edges=[Edge(ecom=ecom()) for _ in range(2)],
    )
    return FJGraph(
        [task("capture", 1.0), section, task("diff", 12.0),
         Edge(ecom=ecom(0.05)), task("output", 1.0, replicable=False)],
        name="fj-mem" if with_memory else "fj",
    )


def _fj_fingerprint(with_memory: bool) -> dict:
    graph = _fj_graph(with_memory)
    mem, P = (2.0, 14) if with_memory else (float("inf"), 12)
    mapping, tp = greedy_fj_mapping(graph, P, mem)
    singletons = [tuple((i, i) for i in range(len(seg.tasks)))
                  for seg in graph.segments]
    modules = build_modules(graph, singletons, mem)
    totals, bf_tp = brute_force_fj(modules, P)
    return {
        "fj-greedy": [repr(mapping), float.hex(float(tp))],
        "fj-brute-force": [repr(totals), float.hex(float(bf_tp))],
    }


def _all_cases() -> dict:
    cases = {name: (lambda args=args: _chain_fingerprint(*args))
             for name, args in _chain_cases().items()}
    cases["fj"] = lambda: _fj_fingerprint(False)
    cases["fj-mem"] = lambda: _fj_fingerprint(True)
    return cases


CASES = _all_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_solvers_reproduce_fixture(name):
    golden = json.loads(GOLDEN.read_text())
    assert CASES[name]() == golden[name]


def test_fixture_covers_the_cases():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps({n: f() for n, f in sorted(CASES.items())},
                   indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
