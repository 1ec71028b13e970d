"""Unit tests for mappings, modules, and clustering enumeration."""

import pytest

from repro.core import (
    InvalidMappingError,
    Mapping,
    ModuleSpec,
    PlanError,
    PolynomialExec,
    Task,
    TaskChain,
    all_clusterings,
    clustering_from_boundaries,
    ensure_valid_plan,
    singleton_clustering,
)


def _chain(k, nonreplicable=()):
    tasks = [
        Task(f"t{i}", PolynomialExec(0.1, 5.0, 0.0), replicable=i not in nonreplicable)
        for i in range(k)
    ]
    return TaskChain(tasks)


class TestModuleSpec:
    def test_properties(self):
        m = ModuleSpec(1, 3, procs=4, replicas=2)
        assert m.ntasks == 3
        assert m.total_procs == 8

    def test_rejects_bad_span(self):
        with pytest.raises(InvalidMappingError):
            ModuleSpec(2, 1, procs=1)

    def test_rejects_bad_procs(self):
        with pytest.raises(InvalidMappingError):
            ModuleSpec(0, 0, procs=0)
        with pytest.raises(InvalidMappingError):
            ModuleSpec(0, 0, procs=1, replicas=0)

    def test_round_trip(self):
        m = ModuleSpec(0, 2, 3, 4)
        assert ModuleSpec.from_dict(m.to_dict()) == m

    def test_lists_every_bad_field(self):
        with pytest.raises(PlanError) as err:
            ModuleSpec(3, 2, procs=0, replicas=0)
        assert len(err.value.violations) == 3


class TestMapping:
    def test_must_tile_chain(self):
        with pytest.raises(InvalidMappingError):
            Mapping([ModuleSpec(0, 1, 1), ModuleSpec(3, 4, 1)])  # gap at 2
        with pytest.raises(InvalidMappingError):
            Mapping([ModuleSpec(0, 2, 1), ModuleSpec(2, 3, 1)])  # overlap at 2
        with pytest.raises(InvalidMappingError):
            Mapping([ModuleSpec(1, 2, 1)])  # does not start at 0

    def test_lists_every_gap_and_overlap(self):
        with pytest.raises(PlanError) as err:
            Mapping([ModuleSpec(1, 2, 1), ModuleSpec(2, 3, 1), ModuleSpec(6, 6, 1)])
        assert [str(v) for v in err.value.violations] == [
            "structure: non-contiguous clustering: tasks 0..0 belong to no module",
            "structure: modules overlap at task 2",
            "structure: non-contiguous clustering: tasks 4..5 belong to no module",
        ]

    def test_orders_modules(self):
        m = Mapping([ModuleSpec(2, 3, 1), ModuleSpec(0, 1, 1)])
        assert m.clustering() == ((0, 1), (2, 3))

    def test_totals_and_lookup(self):
        m = Mapping([ModuleSpec(0, 0, 3, 8), ModuleSpec(1, 2, 4, 10)])
        assert m.total_procs == 3 * 8 + 4 * 10
        assert m.ntasks == 3
        assert m.module_of_task(0) == 0
        assert m.module_of_task(2) == 1

    def test_validate_task_count(self):
        m = Mapping([ModuleSpec(0, 1, 2)])
        with pytest.raises(InvalidMappingError):
            ensure_valid_plan(_chain(3), m)

    def test_validate_replication_legality(self):
        chain = _chain(2, nonreplicable={1})
        bad = Mapping([ModuleSpec(0, 0, 1), ModuleSpec(1, 1, 1, replicas=2)])
        with pytest.raises(InvalidMappingError):
            ensure_valid_plan(chain, bad)
        ok = Mapping([ModuleSpec(0, 0, 1, replicas=2), ModuleSpec(1, 1, 1)])
        ensure_valid_plan(chain, ok)

    def test_validate_machine_size(self):
        m = Mapping([ModuleSpec(0, 1, 8, 2)])
        with pytest.raises(InvalidMappingError):
            ensure_valid_plan(_chain(2), m, total_procs=15)
        ensure_valid_plan(_chain(2), m, total_procs=16)

    def test_round_trip(self):
        m = Mapping([ModuleSpec(0, 0, 3, 8), ModuleSpec(1, 2, 4, 10)])
        assert Mapping.from_dict(m.to_dict()) == m


class TestClusterings:
    def test_singleton(self):
        assert singleton_clustering(3) == ((0, 0), (1, 1), (2, 2))

    def test_from_boundaries(self):
        assert clustering_from_boundaries(4, [1]) == ((0, 1), (2, 3))
        assert clustering_from_boundaries(4, []) == ((0, 3),)
        with pytest.raises(InvalidMappingError):
            clustering_from_boundaries(4, [3])

    def test_enumeration_count(self):
        for k in (1, 2, 3, 5):
            cls = list(all_clusterings(k))
            assert len(cls) == 2 ** (k - 1)
            assert len(set(cls)) == len(cls)

    def test_enumeration_covers_chain(self):
        for clustering in all_clusterings(4):
            assert clustering[0][0] == 0
            assert clustering[-1][1] == 3
            for (a0, a1), (b0, b1) in zip(clustering, clustering[1:]):
                assert b0 == a1 + 1
