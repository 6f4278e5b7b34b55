"""Bias correctors: hand values, the two estimators' agreement, and the
binned corrector's bucket mechanics."""

import numpy as np
import pytest

import skewcast as sc
from skewcast.biascorr import BIN_WIDTH, MIN_BIN_COUNT, BiasCorrector
from skewcast.errors import (
    ConfigError,
    EmptyInput,
    InsufficientData,
    LengthMismatch,
)
from skewcast.transform import forward, inverse

LOG = sc.TargetTransform(kind="log")


class TestVarianceBased:
    def test_zero_residuals_give_unit_factor(self):
        corr = sc.fit_variance_based(np.zeros(10))
        assert corr.factor == pytest.approx(1.0)

    def test_hand_value(self):
        """Population variance 0.5 must give exp(0.25) ~ 1.284025."""
        residuals = np.array([1.0, -1.0, 0.0, 0.0])  # population var = 0.5
        corr = sc.fit_variance_based(residuals)
        assert corr.factor == pytest.approx(np.exp(0.25), rel=1e-12)
        assert corr.factor == pytest.approx(1.284025, abs=1e-6)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            sc.fit_variance_based([0.3])

    def test_factor_at_least_one(self, rng):
        for _ in range(20):
            r = rng.normal(0.0, rng.uniform(0.05, 1.0), size=500)
            r -= r.mean()
            assert sc.fit_variance_based(r).factor >= 1.0


class TestSmearing:
    def test_zero_residuals_give_unit_factor(self):
        assert sc.fit_smearing(np.zeros(3)).factor == pytest.approx(1.0)

    def test_hand_value(self):
        """Residuals {ln 2, -ln 2}: (2 + 1/2) / 2 = 1.25 exactly."""
        corr = sc.fit_smearing(np.array([np.log(2.0), -np.log(2.0)]))
        assert corr.factor == pytest.approx(1.25, rel=1e-14)

    def test_zero_mean_sample_factor_at_least_one(self, rng):
        """mean(exp(r)) >= exp(mean(r)) = 1 for centered residuals."""
        for _ in range(20):
            r = rng.uniform(-2.0, 2.0, size=300)
            r -= r.mean()
            assert sc.fit_smearing(r).factor >= 1.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            sc.fit_smearing(np.array([]))

    def test_agrees_with_variance_based_on_gaussian_residuals(self, rng):
        """On normal residuals the closed form and the nonparametric
        estimate land within 2% of each other for sigma up to 0.6."""
        for sigma in (0.1, 0.3, 0.5, 0.6):
            r = rng.normal(0.0, sigma, size=10_000)
            vb = sc.fit_variance_based(r).factor
            sm = sc.fit_smearing(r).factor
            assert abs(vb - sm) / sm < 0.02


class TestApply:
    def test_none_is_identity(self):
        pred = np.array([1.0, 5.0])
        out = BiasCorrector(kind="none").apply(pred)
        np.testing.assert_array_equal(out, pred)
        assert out is not pred

    def test_scalar_kinds_multiply(self):
        corr = BiasCorrector(kind="smearing", factor=1.25)
        np.testing.assert_allclose(corr.apply(np.array([100.0])), [125.0])

    def test_binned_needs_transformed_predictions(self):
        corr = BiasCorrector(kind="prediction_binned", factor=1.0, bin_factors=(1.0, 2.0))
        with pytest.raises(ConfigError):
            corr.apply(np.array([1.0]))
        with pytest.raises(LengthMismatch):
            corr.apply(np.array([1.0]), np.array([1.0, 2.0]))

    def test_binned_bucket_lookup(self):
        corr = BiasCorrector(kind="prediction_binned", factor=1.0,
                             bin_factors=(1.0, 1.1, 1.2, 1.3, 1.4))
        raw = np.ones(4)
        z = np.array([5.0, 0.0, 9.9, 47.0])  # [4,6) -> 1.2; overflow -> last
        np.testing.assert_allclose(corr.apply(raw, z), [1.2, 1.0, 1.4, 1.4])

    def test_negative_transformed_prediction_uses_first_bucket(self):
        corr = BiasCorrector(kind="prediction_binned", factor=1.0, bin_factors=(1.5, 2.0))
        np.testing.assert_allclose(corr.apply(np.ones(1), np.array([-3.0])), [1.5])


class TestPredictionBinned:
    def test_perfect_predictions_give_unit_multipliers(self, rng):
        y = rng.lognormal(1.0, 1.0, size=2000)
        z = forward(LOG, y)
        corr = sc.fit_prediction_binned(y, z, LOG)
        np.testing.assert_allclose(corr.bin_factors, 1.0, rtol=1e-9)

    def test_bucket_count_follows_the_max_prediction(self, rng):
        """Transformed predictions topping out in [8, 10) produce the
        five-bucket layout [0,2),[2,4),[4,6),[6,8),[8,...)."""
        z = rng.uniform(0.0, 9.5, size=5000)
        z[0] = 9.4  # pin the max inside [8, 10)
        y = np.expm1(z)
        corr = sc.fit_prediction_binned(y, z, LOG)
        assert corr.n_bins == 5
        assert BIN_WIDTH == 2.0

    def test_hand_value_multiplier(self):
        """One bucket where actuals average 30 and back-transformed
        predictions average 20 gets multiplier 1.5."""
        z = np.full(40, 1.0)
        backmapped = np.expm1(1.0)
        y = np.full(40, backmapped * 1.5)
        corr = sc.fit_prediction_binned(y, z, LOG)
        assert corr.bin_factors[0] == pytest.approx(1.5, rel=1e-12)

    def test_sparse_bucket_falls_back_to_smearing(self, rng):
        y = rng.lognormal(0.5, 0.4, size=400)
        z = forward(LOG, y) - 0.1
        z[0] = 7.9  # a lone row in the top bucket
        corr = sc.fit_prediction_binned(y, z, LOG)
        expect_fallback = float(np.mean(np.exp(forward(LOG, y) - z)))
        assert corr.factor == pytest.approx(expect_fallback, rel=1e-12)
        assert corr.bin_factors[-1] == pytest.approx(expect_fallback, rel=1e-12)

    def test_bin_index_reproduces_the_fitted_bins(self, rng):
        """Each factor, fitted again from the rows the corrector's own
        ``bin_index`` puts in its bin, is the same bits; sparse bins hold
        the fallback."""
        y = rng.lognormal(1.5, 1.0, size=3000)
        z = forward(LOG, y) + rng.normal(0.0, 0.3, size=3000)
        z[:3] = [-0.5, 9.0, 9.5]  # a clipped low row and a sparse top bin
        corr = sc.fit_prediction_binned(y, z, LOG)
        idx = corr.bin_index(z)
        dense = []
        for b, factor in enumerate(corr.bin_factors):
            rows = idx == b
            dense.append(rows.sum() >= MIN_BIN_COUNT)
            expect = np.mean(y[rows]) / np.mean(inverse(LOG, z[rows])) if dense[-1] else corr.factor
            assert factor == expect, b
        assert corr.n_bins == 5 and dense[0] and not dense[-1]

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            sc.fit_prediction_binned(np.ones(3), np.ones(2), LOG)
        with pytest.raises(EmptyInput):
            sc.fit_prediction_binned(np.ones(0), np.ones(0), LOG)

    def test_corrects_a_deliberately_shrunk_prediction(self, rng):
        """Fitting on predictions that are 20% low in raw units yields
        multipliers near 1.25 and a near-zero corrected residual mean."""
        y = rng.lognormal(1.5, 0.5, size=20_000)
        z = forward(LOG, 0.8 * y)
        corr = sc.fit_prediction_binned(y, z, LOG)
        corrected = corr.apply(0.8 * y, z)
        assert abs(np.mean(y - corrected)) < 0.01 * y.mean()


class TestFitCorrector:
    def test_dispatch(self, rng):
        y = rng.lognormal(1.0, 0.5, size=500)
        z = forward(LOG, y) + rng.normal(0.0, 0.2, size=500)
        for kind in ("none", "variance_based", "smearing", "prediction_binned"):
            corr = sc.fit_corrector(kind, y, z, LOG)
            assert corr.kind == kind
        with pytest.raises(ConfigError):
            sc.fit_corrector("winsorize", y, z, LOG)

    def test_json_round_trip(self, rng):
        y = rng.lognormal(1.0, 0.5, size=500)
        z = forward(LOG, y) + rng.normal(0.0, 0.2, size=500)
        for kind in ("none", "variance_based", "smearing", "prediction_binned"):
            corr = sc.fit_corrector(kind, y, z, LOG)
            back = BiasCorrector.from_json(corr.to_json())
            assert back == corr

    def test_unknown_field_is_config_error(self):
        with pytest.raises(ConfigError, match="bias corrector JSON has unknown field 'factr'"):
            BiasCorrector.from_json({"kind": "none", "factr": 2})
