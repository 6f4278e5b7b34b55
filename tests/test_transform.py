"""Target transform behavior: round trips, clamping, and the Jensen gap."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import skewcast as sc
from skewcast.errors import ConfigError, DataError
from skewcast.transform import forward, inverse


class TestForwardInverse:
    def test_identity_round_trip(self):
        t = sc.TargetTransform(kind="identity")
        y = np.array([0.0, 0.5, 3.0, 120.0])
        np.testing.assert_array_equal(forward(t, y), y)
        np.testing.assert_array_equal(inverse(t, forward(t, y)), y)

    def test_log_default_offset_is_log1p(self):
        """The log kind is log(y + 1): its offset of 1 is fixed."""
        t = sc.TargetTransform(kind="log")
        y = np.array([0.0, 1.0, 9.0])
        np.testing.assert_allclose(forward(t, y), np.log1p(y), rtol=0, atol=0)
        np.testing.assert_allclose(inverse(t, forward(t, y)), y, atol=1e-12)

    def test_sqrt_round_trip(self):
        t = sc.TargetTransform(kind="sqrt")
        y = np.array([0.0, 4.0, 6.25])
        np.testing.assert_allclose(forward(t, y), np.sqrt(y))
        np.testing.assert_allclose(inverse(t, forward(t, y)), y, atol=1e-12)

    @given(kind=st.sampled_from(["identity", "sqrt", "log"]),
           y=st.floats(1e-3, 1e6) | st.just(0.0))
    def test_inverse_undoes_forward(self, kind, y):
        """Back within 32 ulps of y (of y + 1 for log): expm1 magnifies
        the rounding of the log by up to log(y + 1)."""
        t = sc.TargetTransform(kind=kind)
        back = inverse(t, forward(t, y))
        scale = y + 1.0 if kind == "log" else y
        assert abs(back - y) <= 32 * np.finfo(np.float64).eps * scale

    def test_inverse_clamps_below_zero(self):
        """A wildly negative model score must never become negative sales."""
        assert inverse(sc.TargetTransform(kind="identity"), -5.0) == 0.0
        assert inverse(sc.TargetTransform(kind="log"), -50.0) == 0.0
        assert inverse(sc.TargetTransform(kind="sqrt"), -2.0) == 0.0

    def test_scalar_in_scalar_out(self):
        t = sc.TargetTransform(kind="log")
        z = forward(t, 3.0)
        assert isinstance(z, float)
        assert isinstance(inverse(t, z), float)

    def test_negative_targets_rejected(self):
        with pytest.raises(DataError, match="^targets must be non-negative$"):
            forward(sc.TargetTransform(kind="log"), np.array([1.0, -0.1]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            sc.TargetTransform(kind="boxcox")


class TestLabelsAndJson:
    def test_json_round_trip(self):
        for kind in ("identity", "log", "sqrt"):
            t = sc.TargetTransform(kind=kind)
            assert t.to_json() == {"kind": kind}
            assert sc.TargetTransform.from_json(t.to_json()) == t

    def test_unknown_field_is_config_error(self):
        with pytest.raises(ConfigError, match="transform JSON has unknown field 'ofset'"):
            sc.TargetTransform.from_json({"kind": "log", "ofset": 0.0})


class TestJensenGap:
    def test_gap_positive_for_spread_sample_under_log(self, rng):
        ys = rng.lognormal(0.0, 1.0, size=500)
        report = sc.jensen_gap(sc.TargetTransform(kind="log"), ys)
        assert report.gap > 0.0
        assert report.relative_gap == pytest.approx(report.gap / ys.mean())

    def test_gap_positive_for_spread_sample_under_sqrt(self, rng):
        ys = rng.lognormal(0.0, 1.0, size=500)
        assert sc.jensen_gap(sc.TargetTransform(kind="sqrt"), ys).gap > 0.0

    def test_gap_zero_for_constant_sample(self):
        ys = np.full(64, 3.7)
        report = sc.jensen_gap(sc.TargetTransform(kind="log"), ys)
        assert report.gap == pytest.approx(0.0, abs=1e-12)

    def test_gap_zero_under_identity(self, rng):
        ys = rng.lognormal(0.0, 1.0, size=500)
        report = sc.jensen_gap(sc.TargetTransform(kind="identity"), ys)
        assert report.gap == pytest.approx(0.0, abs=1e-12)

    def test_two_point_sample_matches_hand_value(self):
        """For {1, e^2 - 1} under log(y+1): gap = mean - (e - 1)."""
        ys = np.array([1.0, np.e ** 2 - 1.0])
        report = sc.jensen_gap(sc.TargetTransform(kind="log"), ys)
        # transformed values are log(2) and 2, whose mean back-maps to
        # exp((log 2 + 2) / 2) - 1
        expect = ys.mean() - (np.exp(0.5 * (np.log(2.0) + 2.0)) - 1.0)
        assert report.gap == pytest.approx(expect, rel=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError, match="^jensen_gap needs a non-empty sample$"):
            sc.jensen_gap(sc.TargetTransform(kind="log"), np.array([]))
