"""What a re-solve computes: part-free bounds and winner-only pricing.

The incumbent-bounded search bounds each clustering from the exec tables
and the boundary grids' minima instead of building its response parts,
and the exhaustive search prices only the DP results that can win.  Both
must leave every bit of the answer as it was: the bound must equal the
one read off the parts, a bound memoised without its part must go when
the part would, and the winner must be the one pricing every result
picks.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    Edge,
    InfeasibleError,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    RemapPlanner,
    ScaledBinary,
    SegmentCache,
    Task,
    TaskChain,
    ZeroBinary,
    ZeroUnary,
    optimal_assignment,
    optimal_mapping,
    scale_chain,
)
from repro.core import dp_cluster
from repro.core.dp_cluster import PRICE_MARGIN, _Podium, exhaustive_mapping
from repro.core.mapping import all_clusterings
from repro.core.response import (
    UNFIT,
    _compute_parts,
    _throughput_bound,
    build_module_chain,
    evaluate_module_chain,
)

from ..conftest import make_random_chain

PROCS = 8
MEM = 6.0


def bound_from_parts(mchain, i, P):
    """The bound as the incumbent search first computed it: minimise the
    built response parts over every real neighbour total."""
    ce, com_out, denom, feasible = _compute_parts(mchain, i, P)
    ce_min = ce[1:].min(axis=0) if i > 0 else ce[0]
    out_min = com_out[:, 1:].min(axis=1) if i < len(mchain) - 1 else com_out[:, 0]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        bound = 1.0 / ((ce_min + out_min) / denom)
    bound[~feasible] = 0.0
    return bound


coef = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def chains(draw):
    """Chains whose edges are plain, scaled or free, and whose tasks carry
    enough fixed memory that some merged segments fit on no processor."""
    k = draw(st.integers(2, 5), label="k")
    tasks = [
        Task(
            name=f"t{i}",
            exec_cost=PolynomialExec(draw(coef), draw(coef) * 10, draw(coef) / 100),
            replicable=draw(st.booleans()),
            mem_fixed_mb=draw(st.sampled_from([0.0, 1.0, 3.5])),
            mem_parallel_mb=draw(st.floats(0.0, 4.0)),
        )
        for i in range(k)
    ]
    edges = []
    for _ in range(k - 1):
        kind = draw(st.sampled_from(["plain", "scaled", "zero"]), label="edge")
        if kind == "zero":
            ecom = ZeroBinary()
        else:
            ecom = PolynomialEComm(*(draw(coef) for _ in range(5)))
            if kind == "scaled":
                ecom = ScaledBinary(ecom, draw(st.floats(0.05, 20.0)))
        edges.append(Edge(icom=PolynomialIComm(draw(coef) / 10), ecom=ecom))
    return TaskChain(tasks, edges, name=f"bounds-k{k}")


@given(chain=chains(), comm=st.floats(0.1, 10.0), mem=st.sampled_from([MEM, float("inf")]))
def test_part_free_bound_equals_the_bound_of_the_parts(chain, comm, mem):
    """Every module of every clustering, at both chain ends, before and
    after a comm-only rescale (whose scaled edges reuse the unscaled grids'
    minima), bit for bit — UNFIT segments included."""
    cache = SegmentCache(chain, mem)
    for current in (chain, scale_chain(chain, comm_scale=comm)):
        cache.chain = current
        cache.invalidate(edges=range(len(chain) - 1),
                         ecom_only=range(len(chain) - 1))
        for clustering in all_clusterings(len(chain)):
            mchain = cache.module_chain(clustering)
            plain = build_module_chain(current, clustering, mem)
            for i in range(len(mchain)):
                ref = bound_from_parts(plain, i, PROCS).tobytes()
                assert _throughput_bound(plain, i, PROCS).tobytes() == ref
                assert mchain.throughput_bound(i, PROCS).tobytes() == ref
    assert not cache._parts   # the bounds never built a part


def test_unfit_segment_bounds_to_zero():
    heavy = [Task(f"t{i}", PolynomialExec(0.1, 5.0), mem_fixed_mb=4.0)
             for i in range(2)]
    chain = TaskChain(heavy, [Edge(icom=ZeroUnary(),
                                   ecom=PolynomialEComm(0.1, 1.0, 1.0))])
    merged = build_module_chain(chain, [(0, 1)], MEM)
    assert merged.infos[0].p_min == UNFIT
    assert not merged.throughput_bound(0, PROCS).any()


def test_subnormal_cost_bounds_without_a_warning():
    """A subnormal lower bound overflows its reciprocal to inf, which is
    the bound; no ``RuntimeWarning`` may escape, because every solve with
    more than one clustering reads bounds."""
    tiny = [Task(f"t{i}", PolynomialExec(1e-310, 0.0)) for i in range(3)]
    chain = TaskChain(tiny, [Edge(icom=ZeroUnary(), ecom=ZeroBinary())] * 2,
                      name="tiny")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = _throughput_bound(build_module_chain(chain, [(0, 2)]), 0, PROCS)
        got = optimal_mapping(chain, PROCS)
        again = optimal_mapping(chain, PROCS, incumbent=got.throughput)
    assert np.isinf(bound[1:]).all()
    assert again.mapping == got.mapping and got.throughput == np.inf


def bound_every_module(cache, P):
    """Read every clustering's bounds, as a search that skips clusterings
    before their DP leaves them: bounds without their parts."""
    for clustering in all_clusterings(len(cache.chain)):
        mchain = cache.module_chain(clustering)
        for i in range(len(mchain)):
            mchain.throughput_bound(i, P)


def test_bound_without_its_part_is_evicted_with_it():
    """A clustering the search skips leaves a bound and no part; a
    comm-only update must evict that bound as it would the part, and the
    re-solve must still equal a cold solve."""
    base = make_random_chain(4, seed=11)
    planner = RemapPlanner(base)
    deployed = planner.plan(PROCS)
    whole = (0, len(base) - 1)   # borders no edge: its bound stays valid
    for comm in (1.01, 3.0, 0.2):
        bound_every_module(planner.cache, PROCS)
        lone = set(planner.cache._bounds) - set(planner.cache._parts)
        assert lone
        planner.update_chain(scale_chain(base, comm_scale=comm))
        stale = {key for key in lone if key[:2] != whole}
        assert stale and not stale & set(planner.cache._bounds)
        current = evaluate_module_chain(
            planner.cache.module_chain(deployed.clustering),
            [(m.procs, m.replicas) for m in deployed.mapping.modules],
        )
        warm = planner.plan(PROCS, incumbent=current.throughput)
        cold = optimal_mapping(planner.chain, PROCS)
        assert warm.mapping == cold.mapping
        assert warm.throughput == cold.throughput   # bit-equal


# -- winner-only pricing -------------------------------------------------------


def price_everything(chain, P, mem=float("inf"), replication=True):
    """The winner as the search first picked it: every clustering's DP
    result priced, the highest throughput winning, ties to the first."""
    best = None
    for at, clustering in enumerate(all_clusterings(len(chain))):
        mchain = build_module_chain(chain, clustering, mem)
        if mchain.total_min_procs > P:
            continue
        try:
            res = optimal_assignment(mchain, P, replication=replication)
        except InfeasibleError:
            continue
        if best is None or res.throughput > best[2].throughput:
            best = (at, clustering, res)
    return best


def uniform_chain(k: int) -> TaskChain:
    """Identical tasks and edges: many clusterings tie exactly."""
    exec_cost = PolynomialExec(0.1, 8.0, 0.01)
    edge = Edge(icom=PolynomialIComm(0.02), ecom=PolynomialEComm(0.05, 1.0, 1.0))
    return TaskChain([Task(f"u{i}", exec_cost, replicable=False)
                      for i in range(k)], [edge] * (k - 1), name=f"uniform-{k}")


class CountPricing:
    """Counts the scalar pricings of DP results."""

    def __init__(self, monkeypatch):
        self.calls = 0

        def counted(*args):
            self.calls += 1
            return evaluate_module_chain(*args)

        monkeypatch.setattr("repro.core.dp.evaluate_module_chain", counted)


def assert_same_winner(got, ref):
    _, clustering, res = ref
    assert got.clustering == clustering
    assert got.totals == res.totals
    assert got.mapping == res.mapping
    assert float.hex(got.throughput) == float.hex(res.throughput)


@given(k=st.integers(2, 6), seed=st.integers(0, 10_000),
       P=st.integers(4, 14), replication=st.booleans(),
       uniform=st.booleans())
def test_winner_only_pricing_matches_pricing_everything(
    k, seed, P, replication, uniform
):
    chain = uniform_chain(k) if uniform else make_random_chain(k, seed=seed)
    ref = price_everything(chain, P, replication=replication)
    got = exhaustive_mapping(chain, P, replication=replication)
    assert_same_winner(got, ref)


class RecordSolves:
    """Records, in order, the clusterings the exhaustive search runs its DP
    on and the results the DP returns."""

    def __init__(self, monkeypatch):
        self.clusterings = []
        self.results = []
        real = dp_cluster.optimal_assignment

        def recorded(mchain, *args, **kwargs):
            self.clusterings.append(mchain.clustering())
            res = real(mchain, *args, **kwargs)
            self.results.append(res)
            return res

        monkeypatch.setattr(dp_cluster, "optimal_assignment", recorded)

    def running_cut(self):
        """How many results lie, when computed, within the margin of the
        smallest DP value computed so far: the ones the search may price."""
        low, admitted = math.inf, 0
        for res in self.results:
            low = min(low, res.bottleneck_response)
            admitted += res.bottleneck_response <= low * (1.0 + PRICE_MARGIN)
        return admitted


def winner(results):
    """The podium's best after every result is added, in the given order."""
    podium = _Podium()
    for entry in results:
        podium.add(entry)
    return podium.best


def every_result(chain, P):
    """``(enumeration index, clustering, DPResult)`` of every clustering,
    the smallest DP value first."""
    return sorted(
        ((at, c, optimal_assignment(build_module_chain(chain, c), P))
         for at, c in enumerate(all_clusterings(len(chain)))),
        key=lambda entry: entry[2].bottleneck_response,
    )


def test_exact_tie_prices_only_the_tied_results(monkeypatch):
    # Two 2-module clusterings of the uniform 5-chain tie exactly at P=12.
    chain = uniform_chain(5)
    entries = every_result(chain, 12)
    best = min(res.bottleneck_response for _, _, res in entries)
    tied = sum(res.bottleneck_response <= best * (1 + PRICE_MARGIN)
               for _, _, res in entries)
    assert tied == 2
    counter = CountPricing(monkeypatch)
    # Smallest DP value first: the margin's cut is final from the start.
    assert winner(entries)[1] == ((0, 1), (2, 4))   # the first of the two
    assert counter.calls == tied
    counter.calls = 0
    solves = RecordSolves(monkeypatch)
    got = exhaustive_mapping(chain, 12)
    assert counter.calls == solves.running_cut()
    assert got.clustering == ((0, 1), (2, 4))
    assert_same_winner(got, price_everything(chain, 12))


def test_one_pricing_per_solve(monkeypatch):
    chain = make_random_chain(5, seed=3)
    entries = every_result(chain, PROCS)
    assert len(entries) == 16
    counter = CountPricing(monkeypatch)
    best = winner(entries)
    assert best[2].throughput > 0
    assert counter.calls == 1   # the one result within the margin
    counter.calls = 0
    solves = RecordSolves(monkeypatch)
    got = exhaustive_mapping(chain, PROCS)
    assert counter.calls == solves.running_cut()
    assert got.clusterings_examined == len(solves.results)
    assert_same_winner(got, best)


class Stub:
    """A DP result whose price is set by hand and whose reads are counted."""

    def __init__(self, value, throughput):
        self.bottleneck_response = value
        self._throughput = throughput
        self.priced = 0

    @property
    def throughput(self):
        self.priced += 1
        return self._throughput


def test_winner_prices_results_one_ulp_apart():
    v = 0.25
    up = np.nextafter(v, np.inf)
    # One ulp worse by table value but priced higher: within the margin,
    # so priced, and it wins.
    results = [(0, "a", Stub(v, 4.0)), (1, "b", Stub(up, 4.0 + 1e-15)),
               (2, "c", Stub(v * (1 + 4 * PRICE_MARGIN), 9.0))]
    assert winner(results)[1] == "b"
    assert results[2][2].priced == 0   # out of the margin: never priced
    # Exact price ties go to the first clustering in enumeration order,
    # whatever order the results arrive in.
    tied = [(3, "late", Stub(up, 4.0)), (1, "early", Stub(v, 4.0))]
    assert winner(tied)[1] == "early"
    assert winner([]) is None
