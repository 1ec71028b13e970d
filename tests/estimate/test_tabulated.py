"""Tests for the tabulated/pointwise model family (§5's alternative to the
polynomial forms) and the scattered binary interpolator."""

import math

import pytest

from repro.core import ModelFitError, PolynomialEComm, ScatteredBinary, model_from_dict
from repro.core import optimal_mapping
from repro.estimate import (
    estimate_chain,
    fit_tabulated_binary,
    fit_tabulated_unary,
)
from tests.conftest import make_random_chain


class TestScatteredBinary:
    def test_exact_at_samples(self):
        m = ScatteredBinary([(1, 1, 4.0), (1, 8, 2.0), (8, 1, 3.0), (8, 8, 1.0)])
        assert m(1, 1) == pytest.approx(4.0)
        assert m(8, 8) == pytest.approx(1.0)

    def test_interpolates_inside_hull(self):
        m = ScatteredBinary([(1, 1, 4.0), (1, 8, 2.0), (8, 1, 3.0), (8, 8, 1.0)])
        mid = m(2, 2)
        assert 1.0 <= mid <= 4.0

    def test_clamps_outside_hull(self):
        m = ScatteredBinary([(2, 2, 5.0), (4, 4, 3.0), (2, 4, 4.0)])
        assert 3.0 <= m(64, 64) <= 5.0

    def test_single_point_nearest(self):
        m = ScatteredBinary([(4, 4, 2.5)])
        assert m(1, 9) == pytest.approx(2.5)

    def test_guard_on_invalid_counts(self):
        m = ScatteredBinary([(1, 1, 1.0), (2, 2, 2.0), (1, 2, 1.5)])
        assert math.isinf(m(0, 4))
        with pytest.raises(ValueError):
            ScatteredBinary([(0, 1, 1.0)])
        with pytest.raises(ValueError):
            ScatteredBinary([])

    def test_round_trip(self):
        m = ScatteredBinary([(1, 1, 4.0), (1, 8, 2.0), (8, 1, 3.0), (8, 8, 1.0)])
        again = model_from_dict(m.to_dict())
        for a, b in [(1, 1), (3, 5), (8, 8)]:
            assert again(a, b) == pytest.approx(m(a, b))


class TestFitTabulated:
    def test_unary_exact_at_sizes(self):
        model, diag = fit_tabulated_unary([(1, 10.0), (2, 6.0), (4, 4.0)])
        assert model(2) == pytest.approx(6.0)
        assert diag.relative_error == pytest.approx(0.0, abs=1e-12)

    def test_unary_averages_repeats(self):
        model, _ = fit_tabulated_unary([(2, 5.0), (2, 7.0)])
        assert model(2) == pytest.approx(6.0)

    def test_unary_rejects_garbage(self):
        with pytest.raises(ModelFitError):
            fit_tabulated_unary([])
        with pytest.raises(ModelFitError):
            fit_tabulated_unary([(0, 1.0)])
        with pytest.raises(ModelFitError):
            fit_tabulated_unary([(2, float("nan"))])

    def test_binary_matches_truth_at_samples(self):
        true = PolynomialEComm(0.1, 2.0, 3.0, 0.0, 0.0)
        pairs = [(1, 9), (9, 1), (3, 3), (2, 6), (8, 4)]
        model, diag = fit_tabulated_binary(
            [(a, b, true(a, b)) for a, b in pairs]
        )
        for a, b in pairs:
            assert model(a, b) == pytest.approx(true(a, b))
        assert diag.relative_error == pytest.approx(0.0, abs=1e-12)


class TestTabulatedEstimation:
    def test_tabulated_family_maps_like_polynomial(self):
        """On a polynomial-truth chain, both model families must steer the
        mapper to (essentially) the same optimum."""
        chain = make_random_chain(3, seed=21)
        est_p = estimate_chain(chain, 14, model_family="polynomial")
        est_t = estimate_chain(chain, 14, model_family="tabulated")
        rp = optimal_mapping(est_p.fitted_chain, 14)
        rt = optimal_mapping(est_t.fitted_chain, 14)
        truth = optimal_mapping(chain, 14)
        assert rp.throughput == pytest.approx(truth.throughput, rel=0.05)
        assert rt.throughput == pytest.approx(truth.throughput, rel=0.05)

    def test_unknown_family_rejected(self):
        chain = make_random_chain(2, seed=0)
        with pytest.raises(ValueError):
            estimate_chain(chain, 8, model_family="neural")
