"""Bias correctors: hand values, the two estimators' agreement, the
binned corrector's bucket mechanics, the identity-transform rule, and
``correct`` against the three-branch formulas that corrected forecasts
before every corrector became one table of factors."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewcast as sc
from skewcast.biascorr import BIN_WIDTH, KINDS, MIN_BIN_COUNT, BiasCorrector, bin_index
from skewcast.errors import ConfigError, DataError
from skewcast.transform import forward, inverse

LOG = sc.TargetTransform(kind="log")
SQRT = sc.TargetTransform(kind="sqrt")


def _from_residuals(kind, residuals):
    """A ``kind`` corrector fitted on transformed-unit residuals exactly
    ``residuals``: zero sales, whose log(y + 1) is 0, against predictions
    of minus each residual."""
    residuals = np.asarray(residuals, dtype=np.float64)
    return sc.fit_corrector(kind, np.zeros(residuals.shape), -residuals, LOG)


class TestVarianceBased:
    def test_zero_residuals_give_unit_factor(self):
        corr = _from_residuals("variance_based", np.zeros(10))
        assert corr.factors == (pytest.approx(1.0),)

    def test_hand_value(self):
        """Population variance 0.5 must give exp(0.25) ~ 1.284025."""
        residuals = np.array([1.0, -1.0, 0.0, 0.0])  # population var = 0.5
        corr = _from_residuals("variance_based", residuals)
        (factor,) = corr.factors
        assert factor == pytest.approx(np.exp(0.25), rel=1e-12)
        assert factor == pytest.approx(1.284025, abs=1e-6)

    def test_insufficient_data(self):
        with pytest.raises(DataError, match="^a variance_based corrector needs at least 2 rows, "
                                            "got 1$"):
            _from_residuals("variance_based", [0.3])

    def test_factor_at_least_one(self, rng):
        for _ in range(20):
            r = rng.normal(0.0, rng.uniform(0.05, 1.0), size=500)
            r -= r.mean()
            assert _from_residuals("variance_based", r).factors[0] >= 1.0


class TestSmearing:
    def test_zero_residuals_give_unit_factor(self):
        assert _from_residuals("smearing", np.zeros(3)).factors == (pytest.approx(1.0),)

    def test_hand_value(self):
        """Residuals {ln 2, -ln 2}: (2 + 1/2) / 2 = 1.25 exactly."""
        corr = _from_residuals("smearing", np.array([np.log(2.0), -np.log(2.0)]))
        assert corr.factors == (pytest.approx(1.25, rel=1e-14),)

    def test_zero_mean_sample_factor_at_least_one(self, rng):
        """mean(exp(r)) >= exp(mean(r)) = 1 for centered residuals."""
        for _ in range(20):
            r = rng.uniform(-2.0, 2.0, size=300)
            r -= r.mean()
            assert _from_residuals("smearing", r).factors[0] >= 1.0

    def test_insufficient_data(self):
        with pytest.raises(DataError, match="^a smearing corrector needs at least 1 rows, got 0$"):
            _from_residuals("smearing", np.array([]))

    def test_agrees_with_variance_based_on_gaussian_residuals(self, rng):
        """On normal residuals the closed form and the nonparametric
        estimate land within 2% of each other for sigma up to 0.6."""
        for sigma in (0.1, 0.3, 0.5, 0.6):
            r = rng.normal(0.0, sigma, size=10_000)
            (vb,) = _from_residuals("variance_based", r).factors
            (sm,) = _from_residuals("smearing", r).factors
            assert abs(vb - sm) / sm < 0.02


def _three_branch_apply(kind, factor, bin_factors, pred_raw, pred_transformed):
    """How a corrector with a scalar ``factor`` and separate ``bin_factors``
    corrected a forecast: a copy for ``none``, ``factor * raw`` for the
    scalar kinds, and a clipped bucket lookup for ``prediction_binned``."""
    if kind == "none":
        return pred_raw.copy()
    if kind in ("variance_based", "smearing"):
        return factor * pred_raw
    idx = np.clip(np.floor(pred_transformed / BIN_WIDTH), 0, len(bin_factors) - 1)
    return pred_raw * np.asarray(bin_factors, dtype=np.float64)[idx.astype(np.int64)]


@st.composite
def _corrections(draw):
    kind = draw(st.sampled_from(KINDS))
    factor = st.floats(1e-3, 1e3)
    factors = ((1.0,) if kind == "none" else
               tuple(draw(st.lists(factor, min_size=1,
                                   max_size=6 if kind == "prediction_binned" else 1))))
    transform = draw(st.sampled_from([LOG, SQRT]))
    z = np.array(draw(st.lists(st.floats(-50.0, 50.0), max_size=20)))
    return kind, factors, transform, z


class TestApply:
    """``BiasCorrector.correct``: back-transform, then the bucket's factor."""

    def test_none_is_identity(self):
        z = np.log1p(np.array([1.0, 5.0]))
        out = BiasCorrector(kind="none").correct(LOG, z)
        np.testing.assert_array_equal(out, inverse(LOG, z))
        assert out is not z

    def test_scalar_kinds_multiply(self):
        corr = BiasCorrector(kind="smearing", factors=(1.25,))
        np.testing.assert_allclose(corr.correct(SQRT, np.array([10.0])), [125.0])

    def test_binned_bucket_lookup(self):
        corr = BiasCorrector(kind="prediction_binned", factors=(1.0, 1.1, 1.2, 1.3, 1.4))
        z = np.array([5.0, 0.0, 9.9, 47.0])  # [4,6) -> 1.2; overflow -> last
        np.testing.assert_allclose(corr.correct(SQRT, z), np.square(z) * [1.2, 1.0, 1.4, 1.4])

    def test_bin_index_opens_the_end_buckets(self):
        z = [-3.0, 0.0, 1.99, 2.0, 4.0, 47.0]
        np.testing.assert_array_equal(bin_index(z, 3), [0, 0, 0, 1, 2, 2])
        np.testing.assert_array_equal(bin_index(z, 1), [0] * 6)

    def test_one_factor_scales_a_nan_prediction_without_bucketing(self):
        """A NaN prediction is left for scoring to name, not cast to a bucket."""
        for kind in ("smearing", "prediction_binned"):
            out = BiasCorrector(kind, (1.5,)).correct(SQRT, [2.0, np.nan])
            np.testing.assert_array_equal(out, [6.0, np.nan])

    def test_binned_nan_prediction_stays_nan_without_a_warning(self):
        """A NaN prediction takes the first bucket, not an integer cast of
        NaN, so only scoring names it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = BiasCorrector("prediction_binned", (1.0, 2.0)).correct(LOG, [np.nan, 1.0])
        np.testing.assert_array_equal(out, [np.nan, np.expm1(1.0)])

    @settings(max_examples=300, deadline=None)
    @given(_corrections())
    def test_matches_the_three_branch_formulas(self, case):
        """Each corrected forecast is the back-transformed prediction
        corrected as the three branches corrected it."""
        kind, factors, transform, z = case
        got = BiasCorrector(kind, factors).correct(transform, z)
        raw = inverse(transform, z)
        assert np.array_equal(got, _three_branch_apply(kind, factors[0], factors, raw, z))


class TestPredictionBinned:
    def test_perfect_predictions_give_unit_multipliers(self, rng):
        y = rng.lognormal(1.0, 1.0, size=2000)
        z = forward(LOG, y)
        corr = sc.fit_corrector("prediction_binned", y, z, LOG)
        np.testing.assert_allclose(corr.factors, 1.0, rtol=1e-9)

    def test_bucket_count_follows_the_max_prediction(self, rng):
        """Transformed predictions topping out in [8, 10) produce the
        five-bucket layout [0,2),[2,4),[4,6),[6,8),[8,...)."""
        z = rng.uniform(0.0, 9.5, size=5000)
        z[0] = 9.4  # pin the max inside [8, 10)
        y = np.expm1(z)
        corr = sc.fit_corrector("prediction_binned", y, z, LOG)
        assert len(corr.factors) == 5
        assert BIN_WIDTH == 2.0

    def test_hand_value_multiplier(self):
        """One bucket where actuals average 30 and back-transformed
        predictions average 20 gets multiplier 1.5."""
        z = np.full(40, 1.0)
        backmapped = np.expm1(1.0)
        y = np.full(40, backmapped * 1.5)
        corr = sc.fit_corrector("prediction_binned", y, z, LOG)
        assert corr.factors[0] == pytest.approx(1.5, rel=1e-12)

    def test_sparse_bucket_falls_back_to_smearing(self, rng):
        y = rng.lognormal(0.5, 0.4, size=400)
        z = forward(LOG, y) - 0.1
        z[0] = 7.9  # a lone row in the top bucket
        corr = sc.fit_corrector("prediction_binned", y, z, LOG)
        expect_fallback = float(np.mean(np.exp(forward(LOG, y) - z)))
        assert corr.factors[-1] == pytest.approx(expect_fallback, rel=1e-12)

    def test_bin_with_no_positive_back_mapped_mean_falls_back(self, rng):
        """``MIN_BIN_COUNT`` predictions of 0 fill the first bin, whose
        back-mapped mean is ``expm1(0) == 0``: its factor is the global
        smearing factor, not a division by zero."""
        z = np.concatenate([np.zeros(MIN_BIN_COUNT), rng.uniform(2.0, 3.9, size=50)])
        y = np.concatenate([np.full(MIN_BIN_COUNT, 1.0), np.expm1(z[MIN_BIN_COUNT:]) * 1.2])
        corr = sc.fit_corrector("prediction_binned", y, z, LOG)
        assert len(corr.factors) == 2 and np.mean(inverse(LOG, z[:MIN_BIN_COUNT])) == 0.0
        assert corr.factors[0] == float(np.mean(np.exp(forward(LOG, y) - z)))
        assert corr.factors[1] == pytest.approx(1.2, rel=1e-12)

    def test_bin_index_reproduces_the_fitted_bins(self, rng):
        """Each factor, fitted again from the rows ``bin_index`` puts in its
        bin, is the same bits; sparse bins hold the fallback."""
        y = rng.lognormal(1.5, 1.0, size=3000)
        z = forward(LOG, y) + rng.normal(0.0, 0.3, size=3000)
        z[:3] = [-0.5, 9.0, 9.5]  # a clipped low row and a sparse top bin
        corr = sc.fit_corrector("prediction_binned", y, z, LOG)
        idx = bin_index(z, len(corr.factors))
        fallback = float(np.mean(np.exp(forward(LOG, y) - z)))
        dense = []
        for b, factor in enumerate(corr.factors):
            rows = idx == b
            dense.append(rows.sum() >= MIN_BIN_COUNT)
            expect = np.mean(y[rows]) / np.mean(inverse(LOG, z[rows])) if dense[-1] else fallback
            assert factor == expect, b
        assert len(corr.factors) == 5 and dense[0] and not dense[-1]

    def test_errors(self):
        with pytest.raises(DataError, match="^actuals and predictions differ in shape$"):
            sc.fit_corrector("prediction_binned", np.ones(3), np.ones(2), LOG)
        with pytest.raises(DataError, match="^a prediction_binned corrector needs at least 1 rows, "
                                            "got 0$"):
            sc.fit_corrector("prediction_binned", np.ones(0), np.ones(0), LOG)

    def test_corrects_a_deliberately_shrunk_prediction(self, rng):
        """Fitting on predictions that are 20% low in raw units yields
        multipliers near 1.25 and a near-zero corrected residual mean."""
        y = rng.lognormal(1.5, 0.5, size=20_000)
        z = forward(LOG, 0.8 * y)
        corr = sc.fit_corrector("prediction_binned", y, z, LOG)
        corrected = corr.correct(LOG, z)
        assert abs(np.mean(y - corrected)) < 0.01 * y.mean()


class TestCorrectorState:
    """A corrector holds only factors its kind applies."""

    @pytest.mark.parametrize("kind,factors,message", [
        ("smearing", (1.5, 3.0), "a smearing corrector holds one factor, got 2"),
        ("variance_based", (1.1, 1.2), "a variance_based corrector holds one factor"),
        ("none", (2.0,), "a none corrector's factor is 1, got 2.0"),
        ("none", (1.0, 1.0), "a none corrector holds one factor"),
        ("prediction_binned", (), "factors must be positive and finite"),
        ("smearing", (0.0,), "factors must be positive and finite"),
        ("prediction_binned", (1.0, float("nan")), "factors must be"),
    ], ids=["smearing-two", "variance-two", "none-two", "none-pair", "binned-empty",
            "zero", "nan"])
    def test_meaningless_state_is_config_error(self, kind, factors, message):
        with pytest.raises(ConfigError, match=message):
            BiasCorrector(kind, factors)
        with pytest.raises(ConfigError, match=message):
            BiasCorrector.from_json({"kind": kind, "factors": list(factors)})

    @pytest.mark.parametrize("retired", [{"factor": 2.0}, {"bin_factors": [3.0, 4.0]}],
                             ids=["factor", "bin_factors"])
    def test_retired_key_is_named(self, retired):
        key = next(iter(retired))
        with pytest.raises(ConfigError, match=f"bias corrector JSON has unknown field '{key}'"):
            BiasCorrector.from_json({"kind": "smearing", "factors": [1.5], **retired})

    def test_to_json_has_one_shape(self):
        for corr in (BiasCorrector(), BiasCorrector("variance_based", (1.1,)),
                     BiasCorrector("prediction_binned", (1.0, 1.3))):
            assert corr.to_json() == {"kind": corr.kind, "factors": list(corr.factors)}
        assert BiasCorrector.from_json({"kind": "none"}) == BiasCorrector()


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["none", "variance_based", "smearing", "prediction_binned"])
    @pytest.mark.parametrize("where", ["actuals", "transformed predictions"])
    def test_non_finite_input_is_domain_error(self, rng, where, kind, bad):
        """Checked before any residual: a NaN or infinite prediction used to
        end in a raw ValueError or OverflowError, or a silent factor."""
        y = rng.lognormal(1.0, 0.5, size=100)
        z = forward(LOG, y)
        (y if where == "actuals" else z)[7] = bad
        with pytest.raises(DataError, match=f"a {kind} corrector needs finite {where}$"):
            sc.fit_corrector(kind, y, z, LOG)

    @pytest.mark.parametrize("kind, y, z", [
        ("variance_based", [0.0, 1e300, 0.0, 1e300], [0.0] * 4),
        ("smearing", [1e300, 1e300], [-20.0, -20.0]),  # residuals above log(float max)
    ], ids=["variance_based", "smearing"])
    def test_a_factor_that_is_not_finite_is_data_error(self, kind, y, z):
        """An overflowing factor is a data problem, named with its kind and
        with no numpy warning; it used to be a ConfigError from the record's
        type check."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^a {kind} corrector's factor is not finite$"):
                sc.fit_corrector(kind, y, z, LOG)

    def test_an_overflowing_smearing_fallback_warns_of_nothing(self):
        """A binned corrector whose smearing fallback overflows falls back to 1."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corr = sc.fit_corrector("prediction_binned", [1e300, 1e300], [-20.0, -20.0], LOG)
        assert corr.factors == (1.0,)

    def test_unknown_field_is_config_error(self):
        with pytest.raises(ConfigError, match="bias corrector JSON has unknown field 'factr'"):
            BiasCorrector.from_json({"kind": "none", "factr": 2})

    @pytest.mark.parametrize("kind", ["variance_based", "smearing", "prediction_binned"])
    def test_identity_transform_takes_no_corrector(self, kind):
        """A raw-sales forecast has no back-transform to correct."""
        identity = sc.TargetTransform(kind="identity")
        y = np.arange(1.0, 41.0)
        with pytest.raises(ConfigError, match=f"a {kind} corrector needs a log or sqrt "
                                              "transform, not identity"):
            sc.fit_corrector(kind, y, y, identity)
        assert sc.fit_corrector("none", y, y, identity) == BiasCorrector()
