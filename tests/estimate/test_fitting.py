"""Tests for model fitting (§5)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import ModelFitError, PolynomialEComm, PolynomialExec
from repro.estimate import fit_ecom, fit_exec, fit_icom, fit_memory


class TestFitExec:
    def test_recovers_exact_polynomial(self):
        true = PolynomialExec(0.5, 12.0, 0.03)
        samples = [(p, true(p)) for p in (1, 2, 4, 8, 16)]
        model, diag = fit_exec(samples)
        for p in (1, 3, 5, 32):
            assert model(p) == pytest.approx(true(p), rel=1e-6)
        assert diag.relative_error < 1e-8

    def test_coefficients_nonnegative(self):
        # Noisy decreasing data must not produce negative overhead terms.
        rng = np.random.default_rng(0)
        samples = [(p, 10.0 / p * (1 + 0.05 * rng.standard_normal())) for p in (1, 2, 4, 8)]
        model, _ = fit_exec(samples)
        assert all(c >= 0 for c in model.coefficients())
        assert model(64) >= 0

    def test_underdetermined_still_fits(self):
        model, _ = fit_exec([(2, 5.0), (4, 2.5)])
        assert model(2) == pytest.approx(5.0, rel=0.05)

    def test_too_few_samples(self):
        with pytest.raises(ModelFitError):
            fit_exec([(4, 1.0)])

    def test_rejects_bad_processor_counts(self):
        with pytest.raises(ModelFitError):
            fit_exec([(0, 1.0), (2, 0.5)])

    def test_rejects_non_finite(self):
        with pytest.raises(ModelFitError):
            fit_exec([(1, float("nan")), (2, 0.5)])

    def test_noisy_fit_within_noise_floor(self):
        true = PolynomialExec(0.2, 8.0, 0.01)
        rng = np.random.default_rng(3)
        samples = [
            (p, true(p) * (1 + 0.02 * rng.standard_normal()))
            for p in (1, 2, 3, 4, 6, 8, 12, 16)
        ]
        model, diag = fit_exec(samples)
        assert diag.relative_error < 0.05
        for p in (2, 5, 10):
            assert model(p) == pytest.approx(true(p), rel=0.1)


class TestFitEcom:
    def test_recovers_exact_model(self):
        true = PolynomialEComm(0.1, 2.0, 3.0, 0.01, 0.02)
        samples = [
            (ps, pr, true(ps, pr))
            for ps in (1, 2, 4, 8)
            for pr in (1, 3, 6)
        ]
        model, diag = fit_ecom(samples)
        assert diag.relative_error < 1e-8
        assert model(5, 5) == pytest.approx(true(5, 5), rel=1e-6)

    def test_five_samples_identify_five_terms(self):
        """The paper's 8-run budget yields ~5 external samples per edge;
        that must be enough for an exact fit of clean data."""
        true = PolynomialEComm(0.05, 1.5, 2.5, 0.005, 0.01)
        pairs = [(1, 9), (9, 1), (3, 3), (2, 6), (8, 4)]
        model, _ = fit_ecom([(a, b, true(a, b)) for a, b in pairs])
        for a, b in [(4, 4), (2, 8), (10, 2)]:
            assert model(a, b) == pytest.approx(true(a, b), rel=0.05)

    def test_too_few(self):
        with pytest.raises(ModelFitError):
            fit_ecom([(1, 1, 0.5)])


class TestFitIcom:
    def test_same_family_as_exec(self):
        model, _ = fit_icom([(1, 3.0), (2, 1.6), (4, 0.9)])
        from repro.core import PolynomialIComm

        assert isinstance(model, PolynomialIComm)
        assert model(2) == pytest.approx(1.6, rel=0.1)


class TestFitMemory:
    def test_recovers_components(self):
        samples = [(p, 0.25 + 3.0 / p) for p in (1, 2, 4, 8)]
        fixed, parallel = fit_memory(samples)
        assert fixed == pytest.approx(0.25, abs=1e-6)
        assert parallel == pytest.approx(3.0, rel=1e-6)

    def test_too_few(self):
        with pytest.raises(ModelFitError):
            fit_memory([(2, 1.0)])


def test_mapper_import_leaves_scipy_out():
    """Importing the mapper loads no ``scipy.optimize``: the NNLS fit
    imports it on first use, so every CLI subcommand starts faster."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = "import sys, repro.tools.mapper; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
