"""Unit tests for response-time / throughput evaluation (paper §2)."""

import math

import numpy as np
import pytest

from repro.core import (
    Edge,
    InfeasibleError,
    InvalidMappingError,
    LambdaUnary,
    Mapping,
    ModuleSpec,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    Task,
    TaskChain,
    build_module_chain,
    evaluate_mapping,
    evaluate_module_chain,
    module_info,
    singleton_clustering,
    throughput_of_totals,
)


def _simple_chain():
    """Two tasks with hand-computable costs."""
    t1 = Task("a", PolynomialExec(0.0, 8.0, 0.0))
    t2 = Task("b", PolynomialExec(0.0, 4.0, 0.0))
    e = Edge(
        icom=PolynomialIComm(0.5, 0.0, 0.0),
        ecom=PolynomialEComm(1.0, 0.0, 0.0, 0.0, 0.0),
    )
    return TaskChain([t1, t2], [e])


class TestModuleExecCost:
    def test_single_task_passthrough(self):
        chain = _simple_chain()
        assert module_info(chain, 0, 0).exec_cost(2) == pytest.approx(4.0)

    def test_merged_includes_internal_comm(self):
        chain = _simple_chain()
        # exec_a(2) + exec_b(2) + icom(2) = 4 + 2 + 0.5
        assert module_info(chain, 0, 1).exec_cost(2) == pytest.approx(6.5)


class TestResponses:
    def test_two_separate_modules(self):
        chain = _simple_chain()
        mchain = build_module_chain(chain, singleton_clustering(2))
        perf = evaluate_module_chain(mchain, [(2, 1), (4, 1)])
        # f_a = exec_a(2) + ecom = 4 + 1; f_b = ecom + exec_b(4) = 1 + 1.
        assert perf.responses == [pytest.approx(5.0), pytest.approx(2.0)]
        assert perf.bottleneck == 0
        assert perf.throughput == pytest.approx(1 / 5.0)

    def test_merged_module(self):
        chain = _simple_chain()
        mchain = build_module_chain(chain, ((0, 1),))
        perf = evaluate_module_chain(mchain, [(4, 1)])
        # exec_a(4) + icom(4) + exec_b(4) = 2 + 0.5 + 1
        assert perf.responses == [pytest.approx(3.5)]
        assert perf.throughput == pytest.approx(1 / 3.5)

    def test_replication_divides_response(self):
        chain = _simple_chain()
        mchain = build_module_chain(chain, singleton_clustering(2))
        one = evaluate_module_chain(mchain, [(2, 1), (4, 1)])
        two = evaluate_module_chain(mchain, [(2, 2), (4, 1)])
        assert two.effective_responses[0] == pytest.approx(one.responses[0] / 2)
        # Replication does not shorten the per-set response itself.
        assert two.responses[0] == pytest.approx(one.responses[0])

    def test_latency_counts_each_boundary_once(self):
        chain = _simple_chain()
        mchain = build_module_chain(chain, singleton_clustering(2))
        perf = evaluate_module_chain(mchain, [(2, 1), (4, 1)])
        # latency = exec_a(2) + ecom + exec_b(4) = 4 + 1 + 1
        assert perf.latency == pytest.approx(6.0)

    def test_bottleneck_is_throughput_reciprocal(self, three_chain):
        mchain = build_module_chain(three_chain, singleton_clustering(3))
        perf = evaluate_module_chain(mchain, [(4, 1), (8, 1), (4, 1)])
        assert perf.throughput == pytest.approx(
            1 / max(perf.effective_responses)
        )

    def test_rejects_below_minimum(self):
        chain = TaskChain(
            [
                Task("a", PolynomialExec(0.0, 1.0, 0.0), min_procs=4),
                Task("b", PolynomialExec(0.0, 1.0, 0.0)),
            ]
        )
        mchain = build_module_chain(chain, singleton_clustering(2))
        with pytest.raises(InfeasibleError):
            evaluate_module_chain(mchain, [(2, 1), (1, 1)])

    def test_rejects_replicating_nonreplicable(self):
        chain = TaskChain(
            [
                Task("a", PolynomialExec(0.0, 1.0, 0.0), replicable=False),
                Task("b", PolynomialExec(0.0, 1.0, 0.0)),
            ]
        )
        mchain = build_module_chain(chain, singleton_clustering(2))
        with pytest.raises(InvalidMappingError):
            evaluate_module_chain(mchain, [(2, 2), (1, 1)])

    def test_wrong_allocation_count(self, three_chain):
        mchain = build_module_chain(three_chain, singleton_clustering(3))
        with pytest.raises(InvalidMappingError):
            evaluate_module_chain(mchain, [(1, 1)])


def _flat_chain(execs):
    """Free communication, and task ``i`` costs ``execs[i]`` at any size."""
    tasks = [
        Task(f"t{i}", LambdaUnary(lambda p, c=c: 0.0 * p + c))
        for i, c in enumerate(execs)
    ]
    return TaskChain(tasks)


class TestBottleneckIndex:
    """The bottleneck follows ``np.argmax``'s rules: the first maximum
    wins a tie, and the first NaN wins if there is one."""

    @pytest.mark.parametrize("execs, expect", [
        ([2.0, 5.0, 5.0], 1),
        ([5.0, 5.0, 5.0], 0),
        ([0.0, 0.0], 0),
        ([1.0, math.inf, 3.0, math.inf], 1),
        ([1.0, math.nan, 3.0, math.nan], 1),
        ([math.inf, 2.0, math.nan], 2),
        ([math.nan, math.inf], 0),
        ([3.0], 0),
    ])
    def test_matches_argmax(self, execs, expect):
        mchain = build_module_chain(
            _flat_chain(execs), singleton_clustering(len(execs))
        )
        perf = evaluate_module_chain(mchain, [(1, 1)] * len(execs))
        assert perf.bottleneck == expect
        assert perf.bottleneck == int(np.argmax(perf.effective_responses))

    def test_inf_response_has_zero_throughput(self):
        mchain = build_module_chain(
            _flat_chain([1.0, math.inf]), singleton_clustering(2)
        )
        perf = evaluate_module_chain(mchain, [(1, 1), (1, 1)])
        assert perf.bottleneck == 1
        assert perf.throughput == 0.0


class TestEvaluateMapping:
    def test_full_mapping_evaluation(self):
        chain = _simple_chain()
        m = Mapping([ModuleSpec(0, 0, 2), ModuleSpec(1, 1, 4)])
        perf = evaluate_mapping(chain, m)
        assert perf.throughput == pytest.approx(1 / 5.0)
        assert perf.mapping == m


class TestThroughputOfTotals:
    def test_matches_explicit_evaluation(self, three_chain):
        mchain = build_module_chain(three_chain, singleton_clustering(3))
        tp, eff = throughput_of_totals(mchain, [4, 8, 4])
        # All tasks have p_min 1; task a and b replicate maximally (r = total),
        # task c is non-replicable.
        from repro.core import totals_to_allocations

        perf = evaluate_module_chain(
            mchain, totals_to_allocations(mchain, [4, 8, 4])
        )
        assert tp == pytest.approx(perf.throughput)
        assert eff == pytest.approx(perf.effective_responses)

    def test_infeasible_totals_probe_safely(self):
        chain = TaskChain(
            [
                Task("a", PolynomialExec(0.0, 1.0, 0.0), min_procs=4),
                Task("b", PolynomialExec(0.0, 1.0, 0.0)),
            ]
        )
        mchain = build_module_chain(chain, singleton_clustering(2))
        tp, eff = throughput_of_totals(mchain, [2, 1])
        assert tp == 0.0
        assert math.isinf(eff[0])


class TestResponseTensor:
    """The vectorised tensors must agree with scalar evaluation."""

    def test_tensor_matches_scalar(self, three_chain):
        from repro.core import totals_to_allocations

        P = 10
        mchain = build_module_chain(three_chain, singleton_clustering(3))
        tensors = [mchain.response_tensor(i, P) for i in range(3)]
        rng_totals = [(2, 3, 5), (1, 8, 1), (4, 4, 2), (3, 3, 4)]
        for totals in rng_totals:
            perf = evaluate_module_chain(
                mchain, totals_to_allocations(mchain, list(totals))
            )
            q, pl, pn = totals
            assert tensors[0][0, q, pl] == pytest.approx(perf.effective_responses[0])
            assert tensors[1][q, pl, pn] == pytest.approx(perf.effective_responses[1])
            assert tensors[2][pl, pn, 0] == pytest.approx(perf.effective_responses[2])

    def test_infeasible_allocations_are_inf(self):
        chain = TaskChain(
            [
                Task("a", PolynomialExec(0.0, 1.0, 0.0), min_procs=3),
                Task("b", PolynomialExec(0.0, 1.0, 0.0)),
            ]
        )
        P = 6
        mchain = build_module_chain(chain, singleton_clustering(2))
        R0 = mchain.response_tensor(0, P)
        assert math.isinf(R0[0, 2, 1])   # below p_min
        assert math.isfinite(R0[0, 3, 1])
