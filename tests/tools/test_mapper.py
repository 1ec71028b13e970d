"""Tests for the end-to-end automatic mapping tool."""

import pytest

from repro.machine import check_feasible, iwarp64_message
from repro.sim import NoiseModel
from repro.tools import auto_map, measure
from repro.workloads import fft_hist


@pytest.fixture(scope="module")
def plan():
    wl = fft_hist(256, iwarp64_message())
    return wl, auto_map(wl, profile_noise=NoiseModel(seed=77, jitter=0.02))


class TestAutoMap:
    def test_produces_feasible_mapping(self, plan):
        wl, p = plan
        assert check_feasible(p.mapping, wl.machine).feasible

    def test_training_budget_is_eight(self, plan):
        _, p = plan
        assert p.estimation.training_runs == 8

    def test_solvers_agree_on_fft_hist(self, plan):
        """§6.3 key result, via the full tool path."""
        _, p = plan
        assert p.solvers_agree

    def test_predicted_close_to_true_optimum(self, plan):
        """Mapping on the fitted model should land near the true optimum."""
        from repro.core import optimal_mapping

        wl, p = plan
        truth = optimal_mapping(
            wl.chain, wl.machine.total_procs, wl.machine.mem_per_proc_mb,
        )
        assert p.predicted_throughput == pytest.approx(truth.throughput, rel=0.15)

    def test_measured_matches_predicted_within_paper_band(self, plan):
        wl, p = plan
        measured = measure(
            wl, p.mapping, n_datasets=150,
            noise=NoiseModel(seed=88, jitter=0.02, comm_interference=0.015),
        )
        rel = abs(measured.throughput - p.predicted_throughput) / p.predicted_throughput
        assert rel < 0.13  # the paper saw up to ~12%

    def test_chooses_paper_clustering(self, plan):
        _, p = plan
        assert p.optimal.clustering == ((0, 0), (1, 2))
