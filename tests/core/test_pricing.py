"""One pricing table and one solve session per plan.

The probing solvers (greedy, its local search, brute force) price an
allocation by reading the DP's response factors through
:class:`~repro.core.response.ResponseReader`.  The property here pins that
the reader gives exactly the bits of the scalar reference,
:func:`evaluate_module_chain`, on every kind of chain the solvers see.  The
session tests pin, by counts rather than timings, that one
:class:`SegmentCache` per plan lets the heuristic and the feasible search
reuse the DP's work.
"""

from __future__ import annotations

import json
import math
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import (
    Edge,
    PolynomialExec,
    SegmentCache,
    Task,
    TaskChain,
    ZeroBinary,
    ZeroUnary,
    all_clusterings,
    build_module_chain,
    evaluate_module_chain,
    heuristic_mapping,
    optimal_mapping,
    singleton_clustering,
    throughput_of_totals,
    totals_to_allocations,
)
from repro.core.response import UNFIT, ResponseReader, strip_replication
from repro.machine import feasibility, presets
from repro.workloads import airshed, fft_hist, radar, random_chain, sar, stereo
from tests.conftest import build_every_part
from tests.core.test_solver_plans_golden import GOLDEN


def _hex(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


@st.composite
def priced_chains(draw):
    """A module chain as a solver probes it: any clustering, cached or
    not, replication on or off, with or without memory limits (``UNFIT``
    segments included) and zero-cost edges."""
    k = draw(st.integers(1, 5))
    chain = random_chain(k, seed=draw(st.integers(0, 10**6)),
                         with_memory=draw(st.booleans()))
    if draw(st.booleans()):
        chain = TaskChain(chain.tasks,
                          [Edge(ZeroUnary(), ZeroBinary()) for _ in chain.edges],
                          name="zero-edges")
    mem = draw(st.sampled_from([math.inf, 0.08, 0.15, 1.0, 4.0]))
    clustering = draw(st.sampled_from(list(all_clusterings(k))))
    if draw(st.booleans()):
        mchain = SegmentCache(chain, mem).module_chain(clustering)
    else:
        mchain = build_module_chain(chain, clustering, mem)
    if draw(st.booleans()):
        mchain = strip_replication(mchain)
    return mchain


@settings(max_examples=60, deadline=None)
@given(mchain=priced_chains(), data=st.data())
def test_reader_matches_scalar_reference(mchain, data):
    p_min = [info.p_min for info in mchain.infos]
    if UNFIT in p_min:
        # Nothing can run the unfit module, so no allocation does.
        totals = [8 if p == UNFIT else p for p in p_min]
        tp, eff = throughput_of_totals(mchain, totals)
        assert tp == 0.0
        assert all(math.isinf(e) for e, p in zip(eff, p_min) if p == UNFIT)
        return
    assume(sum(p_min) <= 160)
    if data.draw(st.booleans(), label="at_minimum"):
        totals = list(p_min)  # P equal to the sum of the minimums
        P = sum(totals)
    else:
        totals = [p + data.draw(st.integers(0, 6)) for p in p_min]
        P = sum(totals) + data.draw(st.integers(0, 8))
    ref = evaluate_module_chain(mchain, totals_to_allocations(mchain, totals))
    tp, eff = throughput_of_totals(mchain, totals)
    assert float.hex(tp) == float.hex(ref.throughput)
    assert _hex(eff) == _hex(ref.effective_responses)
    # Entries at index <= P do not depend on P: a reader built for the
    # machine prices the same bits.
    assert _hex(ResponseReader(mchain, P).responses(totals)) == _hex(eff)


class TestProbeContract:
    """Totals below ``p_min`` price at ``inf`` and throughput 0.0."""

    def test_below_minimum_probes_safely(self):
        chain = random_chain(3, seed=5, with_memory=True)
        mchain = build_module_chain(chain, singleton_clustering(3), 1.0)
        p_min = [info.p_min for info in mchain.infos]
        for i in range(3):
            totals = list(p_min)
            totals[i] -= 1
            tp, eff = throughput_of_totals(mchain, totals)
            assert tp == 0.0
            assert math.isinf(eff[i])

    def test_unfit_module_probes_safely(self):
        tasks = [Task(f"t{i}", PolynomialExec(0.01, 1.0), mem_fixed_mb=40)
                 for i in range(3)]
        mchain = build_module_chain(TaskChain(tasks), ((0, 1), (2, 2)), 64.0)
        assert mchain.infos[0].p_min == UNFIT
        tp, eff = throughput_of_totals(mchain, [6, 2])
        assert tp == 0.0
        assert eff == [math.inf, math.inf]

    def test_huge_minimum_prices_in_bounded_memory(self):
        # A module needing ~1e5 processors: pricing its one allocation must
        # not build per-size tables, which would take (P+1)^2 floats each.
        chain = random_chain(3, seed=2)
        tasks = list(chain.tasks)
        tasks[1] = Task("wide", PolynomialExec(0.2, 50.0, 1e-6),
                        replicable=True, mem_parallel_mb=1e5)
        mchain = build_module_chain(TaskChain(tasks, chain.edges),
                                    singleton_clustering(3), 1.0)
        assert mchain.infos[1].p_min == 100_000
        totals = [3, 2 * 100_000 + 7, 5]
        ref = evaluate_module_chain(mchain, totals_to_allocations(mchain, totals))
        tracemalloc.start()
        try:
            tp, eff = throughput_of_totals(mchain, totals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert float.hex(tp) == float.hex(ref.throughput)
        assert _hex(eff) == _hex(ref.effective_responses)
        assert peak < 4 * 2**20


# --------------------------------------------------------------------------
# One solve session
# --------------------------------------------------------------------------


def _paper_cases():
    msg, sys_ = presets.iwarp64_message(), presets.iwarp64_systolic()
    return [fft_hist(256, msg), fft_hist(512, sys_), radar(msg), stereo(sys_),
            airshed(msg), sar(sys_)]


PAPER = {f"{w.name}-{w.machine.name}": w for w in _paper_cases()}
#: The one paper case whose optimum is not machine-feasible (a 13-processor
#: instance is not a rectangle on the 8x8 grid).
CONSTRAINED = "fft-hist-512/systolic-iwarp64/systolic"


def _golden_row(name: str) -> dict:
    return json.loads(GOLDEN.read_text())[f"paper-{name}"]


@pytest.mark.parametrize("name", sorted(PAPER))
def test_heuristic_reads_the_dps_factors(name):
    w = PAPER[name]
    P, mem = w.machine.total_procs, w.machine.mem_per_proc_mb
    cache = SegmentCache(w.chain, mem)
    optimal_mapping(w.chain, P, mem, cache=cache)
    build_every_part(cache, P)
    dp_misses = cache.part_misses
    assert dp_misses > 0
    reads = []
    built = cache.parts

    def read(*args):
        reads.append(args)
        return built(*args)

    cache.parts = read
    heur = heuristic_mapping(w.chain, P, mem, cache=cache)
    assert reads   # the heuristic prices through the shared cache ...
    assert cache.part_misses == dp_misses   # ... and builds nothing new
    alone = heuristic_mapping(w.chain, P, mem)
    assert repr(heur.mapping) == repr(alone.mapping)
    assert float.hex(heur.throughput) == float.hex(alone.throughput)


@pytest.mark.parametrize("name", sorted(PAPER))
def test_feasible_search_starts_from_the_optimum(name, monkeypatch):
    w = PAPER[name]
    machine = w.machine
    cache = SegmentCache(w.chain, machine.mem_per_proc_mb)
    opt = optimal_mapping(w.chain, machine.total_procs,
                          machine.mem_per_proc_mb, cache=cache)
    solves = []
    real = feasibility.optimal_mapping

    def counted(*args, **kwargs):
        solves.append(kwargs.get("instance_size_ok"))
        return real(*args, **kwargs)

    monkeypatch.setattr(feasibility, "optimal_mapping", counted)
    feas = feasibility.optimal_feasible_mapping(
        w.chain, machine, cache=cache, optimum=opt)
    assert not feas.adjusted and feas.candidates_tried == 1
    if name == CONSTRAINED:
        assert len(solves) == 1 and solves[0] is not None
        assert repr(feas.mapping) != repr(opt.mapping)
    else:
        assert solves == []
        assert feas.performance is opt.performance
    golden = _golden_row(name)["feasible"]
    assert [repr(feas.mapping), float.hex(feas.throughput)] == golden
    # Without the optimum the search solves it first: one code path.
    solves.clear()
    cold = feasibility.optimal_feasible_mapping(w.chain, machine)
    assert [repr(cold.mapping), float.hex(cold.throughput)] == golden
    assert solves[0] is None and len(solves) == (2 if name == CONSTRAINED else 1)
