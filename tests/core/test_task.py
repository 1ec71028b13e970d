"""Unit tests for tasks, edges, chains, and the memory model."""

import pytest

from repro.core import (
    Edge,
    InfeasibleError,
    InvalidChainError,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    Task,
    TaskChain,
    min_processors,
)


def _task(name, replicable=True, fixed=0.0, par=0.0, minp=1):
    return Task(
        name,
        PolynomialExec(0.1, 5.0, 0.0),
        mem_fixed_mb=fixed,
        mem_parallel_mb=par,
        replicable=replicable,
        min_procs=minp,
    )


class TestTask:
    def test_rejects_nonpositive_min_procs(self):
        with pytest.raises(InvalidChainError):
            _task("x", minp=0)

    def test_rejects_negative_memory(self):
        with pytest.raises(InvalidChainError):
            _task("x", fixed=-1.0)

    def test_round_trip(self):
        t = _task("x", replicable=False, fixed=0.5, par=2.0, minp=3)
        u = Task.from_dict(t.to_dict())
        assert u.name == "x" and not u.replicable
        assert u.min_procs == 3
        assert u.exec_cost(4) == pytest.approx(t.exec_cost(4))


class TestMinProcessors:
    def test_pure_parallel_memory(self):
        # 8 MB of distributed data on 1 MB processors -> at least 8.
        assert min_processors(0.0, 8.0, 1.0) == 8

    def test_fixed_memory_shrinks_headroom(self):
        # 0.5 MB replicated leaves 0.5 MB headroom: 4 MB data -> 8 procs.
        assert min_processors(0.5, 4.0, 1.0) == 8

    def test_fixed_exceeding_memory_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            min_processors(2.0, 1.0, 1.0)

    def test_floor_is_respected(self):
        assert min_processors(0.0, 0.1, 64.0, floor=5) == 5

    def test_no_data_needs_one(self):
        assert min_processors(0.0, 0.0, 1.0) == 1


class TestTaskChain:
    def test_rejects_empty(self):
        with pytest.raises(InvalidChainError):
            TaskChain([])

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(InvalidChainError):
            TaskChain([_task("a"), _task("b")], [])

    def test_rejects_duplicate_names(self):
        with pytest.raises(InvalidChainError):
            TaskChain([_task("a"), _task("a")], [Edge()])

    def test_default_edges(self):
        chain = TaskChain([_task("a"), _task("b")])
        assert len(chain.edges) == 1
        assert chain.edges[0].icom(4) == 0.0

    def test_container_protocol(self):
        chain = TaskChain([_task("a"), _task("b"), _task("c")])
        assert len(chain) == 3
        assert chain[1].name == "b"
        assert [t.name for t in chain] == ["a", "b", "c"]
        assert chain.index_of("c") == 2
        with pytest.raises(KeyError):
            chain.index_of("zzz")

    def test_segment_memory_sums(self):
        chain = TaskChain([_task("a", fixed=0.1, par=1.0), _task("b", fixed=0.2, par=2.0)])
        assert chain.segment_memory(0, 1) == (pytest.approx(0.3), pytest.approx(3.0))

    def test_segment_min_procs_grows_when_merging(self):
        # Merging raises the memory requirement (paper §6.3 reasoning).
        chain = TaskChain([_task("a", par=2.0), _task("b", par=2.0)])
        single = chain.segment_min_procs(0, 0, mem_per_proc_mb=1.0)
        merged = chain.segment_min_procs(0, 1, mem_per_proc_mb=1.0)
        assert merged == 4 > single == 2

    def test_unlimited_memory_min_procs_is_the_task_floor(self):
        # The segment rule relies on this: with unlimited memory no
        # footprint raises p_min above the tasks' explicit minimums.
        chain = TaskChain([
            _task("a", fixed=0.5, par=9.0, minp=3), _task("b", par=1e6),
            _task("c", fixed=1e3, minp=2), _task("d"),
        ])
        for start in range(len(chain)):
            for stop in range(start, len(chain)):
                floor = max(t.min_procs for t in chain.segment_tasks(start, stop))
                assert chain.segment_min_procs(start, stop, float("inf")) == floor

    def test_segment_replicable_all_required(self):
        chain = TaskChain([_task("a"), _task("b", replicable=False), _task("c")])
        assert chain.segment_replicable(0, 0)
        assert not chain.segment_replicable(0, 1)
        assert not chain.segment_replicable(1, 2)

    def test_invalid_segment_rejected(self):
        chain = TaskChain([_task("a"), _task("b")])
        with pytest.raises(InvalidChainError):
            chain.segment_memory(1, 0)
        with pytest.raises(InvalidChainError):
            chain.segment_memory(0, 5)

    def test_round_trip(self):
        chain = TaskChain(
            [_task("a", par=1.0), _task("b", replicable=False)],
            [
                Edge(
                    icom=PolynomialIComm(0.1, 1.0, 0.0),
                    ecom=PolynomialEComm(0.1, 1.0, 1.0, 0.0, 0.0),
                )
            ],
            name="rt",
        )
        again = TaskChain.from_dict(chain.to_dict())
        assert again.name == "rt"
        assert [t.name for t in again] == ["a", "b"]
        assert again.edges[0].ecom(2, 3) == pytest.approx(chain.edges[0].ecom(2, 3))
