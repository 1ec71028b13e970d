"""Tests for training-set design (§5: 8 executions)."""

import pytest

from repro.core import InfeasibleError, PolynomialExec, Task, TaskChain, ensure_valid_plan
from repro.estimate import training_mappings
from tests.conftest import make_random_chain


class TestTrainingMappings:
    def test_default_budget_is_eight(self):
        chain = make_random_chain(3, seed=0)
        mappings = training_mappings(chain, 16)
        assert len(mappings) == 8

    def test_merged_and_split_families(self):
        chain = make_random_chain(3, seed=0)
        mappings = training_mappings(chain, 16)
        merged = [m for m in mappings if len(m) == 1]
        split = [m for m in mappings if len(m) == len(chain)]
        assert len(merged) == 3
        assert len(split) == 5

    def test_all_mappings_valid(self):
        chain = make_random_chain(4, seed=1, with_memory=True)
        for m in training_mappings(chain, 24, mem_per_proc_mb=1.0):
            ensure_valid_plan(chain, m, total_procs=24)

    def test_exec_size_diversity(self):
        """Each task must be observed at >= 3 distinct partition sizes, or
        the 3-coefficient exec model is underdetermined."""
        chain = make_random_chain(3, seed=2)
        mappings = training_mappings(chain, 32)
        sizes_per_task = {i: set() for i in range(3)}
        for m in mappings:
            for spec in m:
                for t in range(spec.start, spec.stop + 1):
                    sizes_per_task[t].add(spec.procs)
        for sizes in sizes_per_task.values():
            assert len(sizes) >= 3

    def test_ecom_pair_diversity(self):
        """Each edge must see several distinct (ps, pr) pairs."""
        chain = make_random_chain(3, seed=3)
        mappings = training_mappings(chain, 32)
        pairs = {e: set() for e in range(2)}
        for m in mappings:
            for a, b in zip(m.modules, m.modules[1:]):
                pairs[a.stop].add((a.procs, b.procs))
        for p in pairs.values():
            assert len(p) >= 4

    def test_merged_infeasible_falls_back_to_splits(self):
        """When the merged module's memory floor exceeds P, the split
        family must carry the training set alone."""
        tasks = [
            Task(f"t{i}", PolynomialExec(0.0, 4.0, 0.0), mem_parallel_mb=5.0)
            for i in range(2)
        ]
        chain = TaskChain(tasks)
        # Merged needs ceil(10/1) = 10 > 8; singletons need 5 + 5 = 10 > 8 too...
        # loosen: mem 2 -> merged needs 5, singles need 3+3=6; P=5 kills splits.
        mappings = training_mappings(chain, 5, mem_per_proc_mb=2.0)
        assert all(len(m) == 1 for m in mappings)

    def test_single_task_chain(self):
        chain = TaskChain([Task("solo", PolynomialExec(0.1, 4.0, 0.0))])
        mappings = training_mappings(chain, 8)
        assert all(len(m) == 1 for m in mappings)
        assert len({m[0].procs for m in mappings}) >= 2

    def test_nothing_fits(self):
        tasks = [Task("a", PolynomialExec(0.0, 1.0, 0.0), mem_parallel_mb=100.0)]
        chain = TaskChain(tasks)
        with pytest.raises(InfeasibleError):
            training_mappings(chain, 4, mem_per_proc_mb=1.0)
