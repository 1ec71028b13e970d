"""Property-based tests (hypothesis) for the solver/simulator/remap stack.

Three families of invariants from the ISSUE:

* **dominance** — the DP optimum beats the greedy heuristic, which beats a
  randomly drawn feasible allocation (the paper's §6.3 ordering);
* **model/simulator agreement** — the analytic ``1/max_i(f_i/r_i)``
  throughput matches the noise-free discrete-event simulator;
* **remap validity** — every mapping the :class:`RemapPlanner` produces
  for a shrunken machine is structurally valid *on the surviving
  processor set* and never beats the larger machine's optimum.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    InfeasibleError,
    Mapping,
    ModuleSpec,
    build_module_chain,
    ensure_valid_plan,
    evaluate_mapping,
    evaluate_module_chain,
    greedy_assignment,
    optimal_assignment,
    optimal_mapping,
    singleton_clustering,
    split_replicas,
)
from repro.core.remap import RemapPlanner
from repro.sim import FaultModel, ProcessorFailure, simulate, simulate_fault_tolerant

from ..conftest import make_random_chain


@st.composite
def chains(draw, min_k=2, max_k=4, replicable_prob=0.7):
    """Random well-behaved chains via the shared test factory."""
    k = draw(st.integers(min_k, max_k))
    seed = draw(st.integers(0, 10_000))
    return make_random_chain(k, seed=seed, replicable_prob=replicable_prob)


@st.composite
def feasible_totals(draw, k, P):
    """Per-module processor totals: each >= 1, summing to <= P."""
    totals = []
    budget = P - k  # reserve one processor per module
    for _ in range(k):
        take = draw(st.integers(0, max(budget, 0)))
        totals.append(1 + take)
        budget -= take
    return totals


# --------------------------------------------------------------------------
# Dominance: DP >= greedy >= random feasible
# --------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(chain=chains(), P=st.integers(4, 12), data=st.data())
def test_dp_beats_greedy_beats_random(chain, P, data):
    k = len(chain)
    mc = build_module_chain(chain, singleton_clustering(k))
    dp = optimal_assignment(mc, P)
    greedy = greedy_assignment(mc, P, backtracking=True)

    totals = data.draw(feasible_totals(k, P), label="totals")
    allocs = []
    for total, info in zip(totals, mc.infos):
        r, s = split_replicas(total, info.p_min, info.replicable)
        if r == 0:
            return  # drawn total below the module's memory floor
        allocs.append((s, r))
    random_tp = evaluate_module_chain(mc, allocs).throughput

    tol = 1 + 1e-9
    assert dp.throughput * tol >= greedy.throughput
    assert greedy.throughput * tol >= random_tp
    assert random_tp > 0


@settings(max_examples=25, deadline=None)
@given(chain=chains(), P=st.integers(4, 10))
def test_clustered_dp_beats_unclustered(chain, P):
    # Merging modules is an extra degree of freedom: the clustering search
    # can only improve on the singleton assignment.
    mc = build_module_chain(chain, singleton_clustering(len(chain)))
    singleton = optimal_assignment(mc, P)
    clustered = optimal_mapping(chain, P)
    assert clustered.throughput >= singleton.throughput * (1 - 1e-12)


# --------------------------------------------------------------------------
# Analytic model == noise-free simulator
# --------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(chain=chains(max_k=3, replicable_prob=1.0), P=st.integers(3, 8))
def test_analytic_matches_noise_free_simulation(chain, P):
    best = optimal_mapping(chain, P)
    result = simulate(chain, best.mapping, n_datasets=80)
    assert result.throughput == pytest.approx(best.throughput, rel=0.02)


@settings(max_examples=8, deadline=None)
@given(
    chain=chains(min_k=2, max_k=2, replicable_prob=1.0),
    procs=st.integers(1, 3),
    replicas=st.integers(1, 3),
)
def test_replicated_module_rate_scales(chain, procs, replicas):
    # 1/max_i(f_i/r_i) with an explicitly replicated module: the simulator
    # must agree with the closed form, replicas included.
    mapping = Mapping(
        [ModuleSpec(0, 0, procs, replicas), ModuleSpec(1, 1, procs, 1)]
    )
    analytic = evaluate_mapping(chain, mapping).throughput
    result = simulate(chain, mapping, n_datasets=80)
    assert result.throughput == pytest.approx(analytic, rel=0.02)


# --------------------------------------------------------------------------
# Remap validity on the surviving processor set
# --------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(chain=chains(), P=st.integers(5, 14), lost=st.integers(1, 3))
def test_remap_plans_fit_survivors(chain, P, lost):
    planner = RemapPlanner(chain)
    survivors = P - lost
    try:
        plan = planner.plan_after_failures(P, lost)
    except InfeasibleError:
        return  # chain legitimately does not fit the shrunken machine
    ensure_valid_plan(chain, plan.mapping, survivors)  # raises on any violation
    assert plan.mapping.total_procs <= survivors
    # Losing processors can never raise the optimum.
    full = planner.plan(P)
    assert plan.throughput <= full.throughput * (1 + 1e-9)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    fail_time=st.floats(1.0, 60.0, allow_nan=False),
)
def test_simulated_remap_produces_valid_mapping(seed, fail_time):
    # End to end: kill the unreplicated module mid-stream; whatever mapping
    # the runtime lands on must be valid for the survivors and every data
    # set must still complete exactly once.
    chain = make_random_chain(3, seed=seed, replicable_prob=0.0)
    machine = 8
    mapping = optimal_mapping(chain, machine).mapping
    faults = FaultModel(
        seed=seed, failures=[ProcessorFailure(fail_time, module=0, instance=0)]
    )
    result = simulate_fault_tolerant(
        chain, mapping, n_datasets=60, faults=faults, machine_procs=machine,
    )
    if not result.processor_failures:
        return  # stream finished before the scripted failure
    assert len(result.remaps) == 1
    survivors = machine - 1
    ensure_valid_plan(chain, result.final_mapping, survivors)
    assert result.final_mapping.total_procs <= survivors
    assert len(result.completions) == 60
    assert (result.completions > 0).all()
