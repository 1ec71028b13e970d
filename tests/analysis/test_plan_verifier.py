"""Static mapping-plan verifier: crafted bad plans must be rejected
without running the simulator, and the runtime hooks must raise a
structured PlanError instead of failing mid-simulation."""

import json

import pytest

from repro.analysis import (
    QueueState,
    Reassignment,
    StaticPlan,
    load_plan,
    verify_plan,
    verify_redistribution,
)
from repro.core import (
    Edge,
    Mapping,
    ModuleSpec,
    PlanError,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    Task,
    TaskChain,
    ensure_valid_plan,
    preflight,
)
from repro.machine import by_name as machine_by_name
from repro.sim.pipeline import simulate, simulate_fault_tolerant


def three_task_chain(replicable=(True, True, True)):
    tasks = [
        Task(name=f"t{i}", exec_cost=PolynomialExec(0.1, 4.0),
             replicable=rep)
        for i, rep in enumerate(replicable)
    ]
    edges = [
        Edge(icom=PolynomialIComm(0.01, 0.2),
             ecom=PolynomialEComm(0.01, 0.5, 0.5))
        for _ in range(2)
    ]
    return TaskChain(tasks, edges, name="three")


def structure_violations(mods):
    """The structure family of :func:`verify_plan` on raw module dicts."""
    return verify_plan(StaticPlan(modules=mods)).violations


class TestVerifyStructure:
    def test_clean_plan_ok(self):
        mods = [
            {"start": 0, "stop": 1, "procs": 2},
            {"start": 2, "stop": 2, "procs": 1},
        ]
        assert structure_violations(mods) == []

    def test_gap_reported(self):
        mods = [
            {"start": 0, "stop": 0, "procs": 1},
            {"start": 2, "stop": 2, "procs": 1},
        ]
        v = structure_violations(mods)
        assert any("belong to no module" in str(x) for x in v)

    def test_overlap_reported(self):
        mods = [
            {"start": 0, "stop": 1, "procs": 1},
            {"start": 1, "stop": 2, "procs": 1},
        ]
        v = structure_violations(mods)
        assert any("overlap" in str(x) for x in v)

    def test_all_problems_reported_not_just_first(self):
        # The verifier must not stop at the first bad module: every one
        # is reported.
        mods = [
            {"start": 0, "stop": 0, "procs": 0},
            {"start": 3, "stop": 2, "procs": 1},
            {"start": 5, "stop": 6, "procs": -1},
        ]
        v = structure_violations(mods)
        assert len(v) >= 3

    def test_empty_plan_rejected(self):
        assert structure_violations([]) != []

    def test_malformed_entry_reported(self):
        v = structure_violations([{"start": 0}])
        assert any(x.code == "structure" for x in v)


class TestVerifyPlan:
    def test_over_budget_rejected(self):
        chain = three_task_chain()
        plan = StaticPlan(
            modules=[{"start": 0, "stop": 2, "procs": 64}],
            chain=chain,
            total_procs=8,
        )
        report = verify_plan(plan)
        assert not report.ok
        assert any(v.code == "budget" for v in report.violations)

    def test_illegal_replication_rejected(self):
        chain = three_task_chain(replicable=(True, False, True))
        plan = StaticPlan(
            modules=[
                {"start": 0, "stop": 0, "procs": 1},
                {"start": 1, "stop": 1, "procs": 1, "replicas": 2},
                {"start": 2, "stop": 2, "procs": 1},
            ],
            chain=chain,
            total_procs=8,
        )
        report = verify_plan(plan)
        assert not report.ok
        assert any(v.code == "replication" for v in report.violations)

    def test_geometry_checked_against_machine(self):
        machine = machine_by_name("iwarp64-message")
        plan = StaticPlan(
            modules=[{"start": 0, "stop": 2, "procs": 2 * machine.total_procs}],
            machine=machine,
            total_procs=machine.total_procs,
        )
        report = verify_plan(plan)
        assert not report.ok
        assert "geometry" in report.checked

    def test_valid_plan_passes(self):
        chain = three_task_chain()
        plan = StaticPlan(
            modules=[
                {"start": 0, "stop": 1, "procs": 2},
                {"start": 2, "stop": 2, "procs": 1},
            ],
            chain=chain,
            total_procs=8,
        )
        report = verify_plan(plan)
        assert report.ok
        assert "structure" in report.checked
        assert "preflight" in report.checked

    def test_report_round_trips_to_json(self):
        plan = StaticPlan(modules=[{"start": 1, "stop": 2, "procs": 1}])
        report = verify_plan(plan)
        payload = json.loads(report.to_json())
        assert payload["format"] == "repro-plan-check/v1"
        assert payload["ok"] is False
        assert payload["violations"]

    def test_raise_if_invalid(self):
        plan = StaticPlan(modules=[{"start": 1, "stop": 2, "procs": 1}])
        report = verify_plan(plan)
        with pytest.raises(PlanError) as err:
            report.raise_if_invalid()
        assert err.value.violations


class TestRedistributionDeadlock:
    # A 2-module mapping, module 1 with two instances degrading to one.
    REPLICAS = [1, 2]

    def queues(self, highs=(5, 3), alive=(True, True)):
        return [
            QueueState(1, 0, highs[0], alive[0]),
            QueueState(1, 1, highs[1], alive[1]),
        ]

    def test_ascending_move_accepted(self):
        moves = [Reassignment(1, 4, "exec", 1)]
        assert verify_redistribution(self.REPLICAS, self.queues(), moves) == []

    def test_insert_behind_larger_dataset_is_deadlock(self):
        # Instance 0 already started data set 5; moving data set 4 onto
        # it breaks queue ascent.
        moves = [Reassignment(1, 4, "exec", 0)]
        v = verify_redistribution(self.REPLICAS, self.queues(), moves)
        assert any(x.code == "deadlock" for x in v)

    def test_move_to_dead_instance_is_deadlock(self):
        moves = [Reassignment(1, 9, "recv", 1)]
        v = verify_redistribution(
            self.REPLICAS, self.queues(alive=(True, False)), moves
        )
        assert any(x.code == "deadlock" for x in v)

    def test_duplicate_dataset_ownership_is_deadlock(self):
        moves = [
            Reassignment(1, 7, "exec", 0),
            Reassignment(1, 7, "send", 1),
        ]
        v = verify_redistribution(self.REPLICAS, self.queues(), moves)
        assert any(x.code == "deadlock" for x in v)

    def test_sequential_moves_update_high_water(self):
        # Second move lands behind the first on the same queue: deadlock.
        moves = [
            Reassignment(1, 8, "exec", 1),
            Reassignment(1, 6, "exec", 1),
        ]
        v = verify_redistribution(self.REPLICAS, self.queues(), moves)
        assert any(x.code == "deadlock" for x in v)

    def test_unknown_stage_reported(self):
        moves = [Reassignment(1, 4, "warp", 1)]
        v = verify_redistribution(self.REPLICAS, self.queues(), moves)
        assert any("stage" in str(x) for x in v)

    def test_bad_target_instance_reported(self):
        moves = [Reassignment(1, 4, "exec", 5)]
        v = verify_redistribution(self.REPLICAS, self.queues(), moves)
        assert any(x.code == "structure" for x in v)


class TestPreflightHooks:
    def test_simulate_rejects_bad_coverage_with_plan_error(self):
        chain = three_task_chain()
        short = Mapping([ModuleSpec(0, 0, 1)])
        with pytest.raises(PlanError) as err:
            simulate(chain, short, n_datasets=4)
        assert any(v.code == "structure" for v in err.value.violations)

    def test_fault_tolerant_rejects_over_budget(self):
        chain = three_task_chain()
        big = Mapping([ModuleSpec(0, 2, 10_000)])
        with pytest.raises(PlanError) as err:
            simulate_fault_tolerant(
                chain, big, n_datasets=4, machine_procs=8
            )
        assert any(v.code == "budget" for v in err.value.violations)

    def test_preflight_returns_violations_without_raising(self):
        chain = three_task_chain()
        big = Mapping([ModuleSpec(0, 2, 10_000)])
        violations = preflight(chain, big, total_procs=8)
        assert any(v.code == "budget" for v in violations)

    def test_ensure_valid_plan_passes_good_mapping(self):
        chain = three_task_chain()
        good = Mapping([ModuleSpec(0, 2, 2)])
        ensure_valid_plan(chain, good, total_procs=8)  # no raise

    def test_plan_error_is_invalid_mapping_error(self):
        # Existing handlers catch InvalidMappingError; the structured
        # error must stay catchable there.
        from repro.core import InvalidMappingError

        assert issubclass(PlanError, InvalidMappingError)


class TestLoadPlan:
    def test_mapping_kind_round_trip(self, tmp_path):
        from repro.tools.persist import save_mapping

        mapping = Mapping([ModuleSpec(0, 2, 2)])
        path = save_mapping(mapping, tmp_path / "m.json")
        plan = load_plan(path)
        assert plan.modules == [m.to_dict() for m in mapping.modules]
        assert verify_plan(plan).ok

    def test_plan_check_kind_with_redistribution(self, tmp_path):
        payload = {
            "kind": "plan-check",
            "mapping": {"modules": [
                {"start": 0, "stop": 2, "procs": 1, "replicas": 2},
            ]},
            "total_procs": 8,
            "redistribution": {
                "queues": [
                    {"module": 0, "instance": 0, "high": 5},
                    {"module": 0, "instance": 1, "high": 3},
                ],
                "moves": [
                    {"module": 0, "dataset": 4, "stage": "exec",
                     "instance": 0},
                ],
            },
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        report = verify_plan(load_plan(path))
        assert not report.ok
        assert any(v.code == "deadlock" for v in report.violations)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(ValueError):
            load_plan(path)

    def test_unknown_machine_rejected(self, tmp_path):
        # A typo'd machine name used to drop the budget and geometry
        # checks silently, so a 10 000-processor module passed.
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({
            "kind": "plan-check",
            "machine": "iwarp64-mesage",
            "mapping": {"modules": [{"start": 0, "stop": 2, "procs": 10_000}]},
        }))
        with pytest.raises(ValueError, match="iwarp64-message"):
            load_plan(path)

    def test_spec_name_resolves_machine(self):
        # save_plan_summary records the machine's spec name, not its key.
        plan = StaticPlan.from_dict({
            "kind": "plan-check", "machine": "iwarp64/message",
            "mapping": {"modules": [{"start": 0, "stop": 2, "procs": 10_000}]},
        })
        assert plan.machine == machine_by_name("iwarp64-message")
        assert [v.code for v in verify_plan(plan).violations] == ["budget"]

    @pytest.mark.parametrize("move", [
        {"dataset": "x"},
        {"module": 0, "dataset": 4, "stage": "exec"},
        {"module": 0, "dataset": "x", "instance": 0},
    ])
    def test_malformed_redistribution_entry_reported(self, tmp_path, move):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "kind": "plan-check",
            "mapping": {"modules": [{"start": 0, "stop": 2, "procs": 1}]},
            "redistribution": {"queues": [{"module": 0}], "moves": [move]},
        }))
        report = verify_plan(load_plan(path))
        assert [v.code for v in report.violations] == ["structure", "structure"]
        assert "queues entry 0" in str(report.violations[0])
        assert "moves entry 0" in str(report.violations[1])


def _nonreplicable_chain():
    return TaskChain([
        Task("a", PolynomialExec(0.0, 1.0, 0.0), mem_parallel_mb=4.0,
             replicable=False),
    ])


def _fat_chain():
    """Three tasks whose 40 MB fixed footprints cannot share a 64 MB node."""
    return TaskChain([
        Task(f"t{i}", PolynomialExec(0.01, 1.0), mem_fixed_mb=40)
        for i in range(3)
    ])


def _floor_chain():
    """One task that needs at least four processors per instance."""
    return TaskChain([Task("a", PolynomialExec(0.0, 1.0, 0.0), min_procs=4)])


# (chain, modules, machine, total_procs, mem_per_proc_mb, expected ERROR codes)
BAD_MAPPINGS = {
    "task-count": (three_task_chain(), [ModuleSpec(0, 1, 2)], None, None, None,
                   ["structure"]),
    "replication": (three_task_chain(replicable=(True, False, True)),
                    [ModuleSpec(0, 0, 1), ModuleSpec(1, 1, 1, 2), ModuleSpec(2, 2, 1)],
                    None, 8, None, ["replication"]),
    "budget": (three_task_chain(), [ModuleSpec(0, 2, 65)], "iwarp64-message",
               None, None, ["budget"]),
    "memory": (_nonreplicable_chain(), [ModuleSpec(0, 0, 2)], None, None, 1.0,
               ["memory"]),
    "geometry": (None, [ModuleSpec(0, 1, 13), ModuleSpec(2, 2, 13)],
                 "iwarp64-message", None, None, ["geometry"]),
    # A non-replicable task mapped 2p x 3 on 4 processors with 1 MB each.
    "combined": (_nonreplicable_chain(), [ModuleSpec(0, 0, 2, 3)], None, 4, 1.0,
                 ["replication", "budget", "memory"]),
    # No processor count holds the merged module's replicated footprint.
    "unfit": (_fat_chain(), [ModuleSpec(0, 2, 4)], None, 8, 64.0, ["memory"]),
    # Below the task's min_procs floor with memory unlimited.
    "below-floor": (_floor_chain(), [ModuleSpec(0, 0, 2)], None, None, None,
                    ["memory"]),
}


class TestOneVocabulary:
    """diagnose, preflight and verify_plan share one owner for every
    legality check, so they must report the same ERROR codes."""

    @pytest.mark.parametrize("case", sorted(BAD_MAPPINGS))
    def test_checkers_agree(self, case):
        from repro.core import Severity, diagnose
        from repro.workloads import fft_hist

        chain, modules, machine, total, mem, expected = BAD_MAPPINGS[case]
        machine = machine and machine_by_name(machine)
        if chain is None:
            chain = fft_hist(256, machine).chain
        mapping = Mapping(modules)

        diagnosed = diagnose(chain, mapping, machine=machine,
                             mem_per_proc_mb=mem, total_procs=total)
        preflighted = preflight(chain, mapping, total, mem, machine=machine)
        report = verify_plan(StaticPlan(
            modules=[m.to_dict() for m in modules], chain=chain,
            machine=machine, total_procs=total, mem_per_proc_mb=mem,
        ))
        assert [v.code for v in diagnosed.violations
                if v.severity is Severity.ERROR] == expected
        assert [v.code for v in preflighted] == expected
        assert [v.code for v in report.violations] == expected
        with pytest.raises(PlanError) as err:
            report.raise_if_invalid()
        for code in expected:
            assert code in str(err.value)

    def test_unfit_module_names_its_footprint(self):
        # The "unfit" case above: the module's footprint, not a crash.
        chain, mapping = _fat_chain(), Mapping([ModuleSpec(0, 2, 4)])
        found = preflight(chain, mapping, total_procs=8, mem_per_proc_mb=64)
        assert "fixed footprint of 120 MB" in found[0].message
        with pytest.raises(PlanError) as err:
            ensure_valid_plan(chain, mapping, 8, 64)
        assert err.value.violations == found

    def test_below_floor_names_min_procs_and_cannot_simulate(self):
        chain, mapping = _floor_chain(), Mapping([ModuleSpec(0, 0, 2)])
        found = preflight(chain, mapping)
        why = "needs >= 4 processors per instance for its tasks' min_procs"
        assert why in found[0].message
        # A memory limit that is not the binding bound is not blamed.
        assert why in preflight(chain, mapping, mem_per_proc_mb=64)[0].message
        with pytest.raises(PlanError) as err:
            simulate(chain, mapping, n_datasets=4)
        assert err.value.violations == found

    def test_partial_machine_skips_geometry(self):
        # A total_procs override vets against surviving processors, which
        # no longer form the preset's grid: budget applies, geometry not.
        from repro.workloads import fft_hist

        machine = machine_by_name("iwarp64-message")
        chain = fft_hist(256, machine).chain
        bad_shape = Mapping([ModuleSpec(0, 1, 13), ModuleSpec(2, 2, 13)])
        assert preflight(chain, bad_shape, 60, machine=machine) == []
        assert preflight(chain, bad_shape, 20, machine=machine)[0].code == "budget"
