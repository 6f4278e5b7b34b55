"""Loss family behavior: hand values, derivatives, minimizers, weights."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize
from scipy.special import xlogy

import skewcast as sc
from skewcast.errors import ConfigError, DomainError, IoFailure, LengthMismatch
from skewcast.losses import _WEIGHT_KINDS, HESS_FLOOR, _ylog_ratio, convexity_profile

ALL_SPECS = [
    sc.LossSpec.mse(),
    sc.LossSpec.pseudo_huber(1.0),
    sc.LossSpec.pseudo_huber(2.5),
    sc.LossSpec.poisson(),
    sc.LossSpec.gamma(),
    sc.LossSpec.tweedie(1.1),
    sc.LossSpec.tweedie(1.5),
    sc.LossSpec.tweedie(1.9),
]


def _probes(rng, spec, n):
    """Random (y, score) pairs inside the loss domain."""
    y = rng.lognormal(0.5, 1.0, size=n)
    if spec.kind == "poisson" or spec.kind == "tweedie":
        y[rng.uniform(size=n) < 0.2] = 0.0  # both families accept zero targets
    if spec.log_link:
        score = rng.uniform(-2.0, 3.0, size=n)
    else:
        score = rng.uniform(0.1, 20.0, size=n)
    return y, score


class TestDevianceHandValues:
    def test_mse_is_squared_error(self, rng):
        y = rng.uniform(0.0, 10.0, size=100)
        mu = rng.uniform(0.0, 10.0, size=100)
        np.testing.assert_array_equal(
            sc.deviance(sc.LossSpec.mse(), y, mu), np.square(y - mu)
        )

    def test_pseudo_huber_hand_value(self):
        # y=3, mu=1, delta=2: u=1, loss = 4 * (sqrt(2) - 1)
        got = sc.deviance(sc.LossSpec.pseudo_huber(2.0), 3.0, 1.0)
        assert got == pytest.approx(4.0 * (np.sqrt(2.0) - 1.0), rel=1e-14)

    def test_poisson_hand_values(self):
        spec = sc.LossSpec.poisson()
        assert sc.deviance(spec, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert sc.deviance(spec, 0.0, 3.0) == pytest.approx(6.0, rel=1e-14)
        assert sc.deviance(spec, 2.0, 1.0) == pytest.approx(
            2.0 * (2.0 * np.log(2.0) - 1.0), rel=1e-14
        )

    def test_gamma_hand_values(self):
        spec = sc.LossSpec.gamma()
        assert sc.deviance(spec, 2.0, 2.0) == pytest.approx(0.0, abs=1e-14)
        assert sc.deviance(spec, 2.0, 1.0) == pytest.approx(
            2.0 * (1.0 - np.log(2.0)), rel=1e-14
        )

    def test_tweedie_hand_values(self):
        spec = sc.LossSpec.tweedie(1.5)
        assert sc.deviance(spec, 4.0, 1.0) == pytest.approx(4.0, rel=1e-14)
        assert sc.deviance(spec, 0.0, 4.0) == pytest.approx(8.0, rel=1e-14)
        assert sc.deviance(spec, 4.0, 4.0) == pytest.approx(0.0, abs=1e-12)

    def test_deviance_zero_only_at_target(self, rng):
        y = rng.uniform(0.5, 8.0, size=50)
        mu = y * rng.uniform(1.1, 2.0, size=50)
        for spec in ALL_SPECS:
            assert np.all(sc.deviance(spec, y, y) < 1e-10)
            assert np.all(sc.deviance(spec, y, mu) > 0.0)

    def test_gamma_rejects_zero_target(self):
        with pytest.raises(DomainError):
            sc.deviance(sc.LossSpec.gamma(), 0.0, 1.0)

    def test_negative_target_rejected(self):
        with pytest.raises(DomainError):
            sc.deviance(sc.LossSpec.mse(), -1.0, 1.0)


# Targets: zero, subnormal, everyday, and far above any mean below.
_POISSON_Y = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2e-308),
    st.floats(1e-3, 1e3),
    st.floats(1e6, 1e12),
)
# Means as a log link produces them; with y <= 1e12 the ratio y / mu stays finite.
_POISSON_MU = st.one_of(st.floats(1e-12, 1e-3), st.floats(1e-3, 1e3), st.floats(1e3, 1e6))


class TestPoissonParity:
    """The numpy ``y * log(y / mu)`` term against ``scipy.special.xlogy``."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_matches_xlogy(self, data):
        n = data.draw(st.integers(1, 20), label="n")
        y = data.draw(hnp.arrays(np.float64, n, elements=_POISSON_Y), label="y")
        mu = data.draw(hnp.arrays(np.float64, n, elements=_POISSON_MU), label="mu")
        spec = sc.LossSpec.poisson()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            term = _ylog_ratio(y, mu)
            dev = sc.deviance(spec, y, mu)
            zero_dev = sc.deviance(spec, np.zeros(n), mu)
            scalar = sc.deviance(spec, y[0], mu[0])
            row = sc.deviance(spec, y[0], mu)
        ratio = y / mu
        # a subnormal target over a larger mean underflows the ratio to 0:
        # xlogy then gives -inf, this term 0 (the true term is < 2e-321 * mu)
        underflow = (ratio == 0) & (y > 0)
        np.testing.assert_array_max_ulp(term[~underflow], xlogy(y, ratio)[~underflow], maxulp=2)
        np.testing.assert_array_equal(term[underflow], 0.0)
        np.testing.assert_array_equal(dev, 2.0 * (term - y + mu))
        np.testing.assert_array_equal(zero_dev, 2.0 * mu)
        assert type(scalar) is float
        assert scalar == dev[0]
        np.testing.assert_array_equal(row, sc.deviance(spec, np.full(n, y[0]), mu))


class TestPoissonOverflow:
    """Where ``y / mu`` overflows, the term is ``y * (log y - log mu)``."""

    @pytest.mark.parametrize("mu", [1e-309, 5e-324])
    def test_tiny_mean_gives_finite_deviance(self, mu):
        spec = sc.LossSpec.poisson()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dev = sc.deviance(spec, 1.0, mu)
            row = sc.deviance(spec, np.array([0.0, 1.0, 4.0]), mu)
        expected = 2.0 * (-math.log(mu) - 1.0 + mu)
        assert math.isfinite(dev) and dev == pytest.approx(expected, rel=1e-15)
        assert row[0] == 2.0 * mu
        assert row[1] == dev
        assert row[2] == pytest.approx(2.0 * (4.0 * (math.log(4.0) - math.log(mu)) - 4.0),
                                       rel=1e-15)


class TestMeanFromScore:
    def test_identity_link_passthrough(self):
        assert sc.mean_from_score(sc.LossSpec.mse(), -3.0) == -3.0

    def test_log_link_exponentiates(self):
        assert sc.mean_from_score(sc.LossSpec.poisson(), 0.0) == 1.0
        assert sc.mean_from_score(sc.LossSpec.tweedie(1.5), 2.0) == pytest.approx(
            np.exp(2.0), rel=1e-14
        )


class TestGradHess:
    def test_mse_hand_values(self):
        gh = sc.grad_hess(sc.LossSpec.mse(), 3.0, 5.0)
        assert gh.grad == 4.0
        assert gh.hess == 2.0

    def test_poisson_hand_values(self):
        gh = sc.grad_hess(sc.LossSpec.poisson(), 2.0, 0.0)
        assert gh.grad == pytest.approx(-2.0)
        assert gh.hess == pytest.approx(2.0)

    def test_gamma_hand_values(self):
        gh = sc.grad_hess(sc.LossSpec.gamma(), 2.0, 0.0)
        assert gh.grad == pytest.approx(-2.0)
        assert gh.hess == pytest.approx(4.0)

    def test_tweedie_hand_values(self):
        gh = sc.grad_hess(sc.LossSpec.tweedie(1.5), 4.0, 0.0)
        assert gh.grad == pytest.approx(-6.0)
        assert gh.hess == pytest.approx(5.0)

    def test_pseudo_huber_hand_values(self):
        gh = sc.grad_hess(sc.LossSpec.pseudo_huber(1.0), 1.0, 0.0)
        assert gh.grad == pytest.approx(-1.0 / np.sqrt(2.0))
        assert gh.hess == pytest.approx(2.0 ** -1.5)

    def test_gradient_matches_finite_differences(self, rng):
        """Spot-check every loss against a central difference of the loss."""
        for spec in ALL_SPECS:
            y, score = _probes(rng, spec, 200)
            if spec.kind == "gamma":
                y = np.maximum(y, 0.1)
            h = 1e-6 * np.maximum(1.0, np.abs(score))
            up = sc.deviance(spec, y, sc.mean_from_score(spec, score + h))
            dn = sc.deviance(spec, y, sc.mean_from_score(spec, score - h))
            fd = (up - dn) / (2.0 * h)
            got = sc.grad_hess(spec, y, score).grad
            np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-7)

    def test_hessian_positive_and_floored(self, rng):
        for spec in ALL_SPECS:
            y, score = _probes(rng, spec, 200)
            if spec.kind == "gamma":
                y = np.maximum(y, 0.1)
            assert np.all(sc.grad_hess(spec, y, score).hess >= HESS_FLOOR)
        # underflowed hessian hits the floor instead of zero
        tiny = sc.grad_hess(sc.LossSpec.tweedie(1.9), 0.0, -400.0)
        assert tiny.hess == HESS_FLOOR

    def test_nonfinite_score_rejected(self):
        with pytest.raises(DomainError):
            sc.grad_hess(sc.LossSpec.mse(), 1.0, np.inf)


KINDS = ("mse", "pseudo_huber", "poisson", "gamma", "tweedie")


def _draw_spec(data, kind):
    """A loss of ``kind``; Tweedie powers anywhere in (1, 2)."""
    if kind == "tweedie":
        return sc.LossSpec.tweedie(data.draw(st.floats(1.01, 1.99), label="power"))
    if kind == "pseudo_huber":
        return sc.LossSpec.pseudo_huber(data.draw(st.floats(0.1, 10.0), label="delta"))
    return sc.LossSpec(kind=kind)


def _cancellation(spec):
    """How much the deviance formula amplifies rounding: Tweedie divides by
    p - 1 and 2 - p."""
    if spec.kind != "tweedie":
        return 1.0
    return 1.0 / (spec.power - 1.0) + 1.0 / (2.0 - spec.power)


class TestKernelProperties:
    """The shared loss kernel, for every kind and random Tweedie powers."""

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    def test_deviance_non_negative_and_zero_at_the_target(self, kind, data):
        spec = _draw_spec(data, kind)
        low = 1e-3 if kind == "gamma" else 0.0
        n = data.draw(st.integers(1, 20), label="n")
        y = data.draw(hnp.arrays(np.float64, n, elements=st.floats(low, 1e3)), label="y")
        mu_low = 1e-3 if spec.log_link else -1e3
        mu = data.draw(hnp.arrays(np.float64, n, elements=st.floats(mu_low, 1e3)), label="mu")
        tol = 1e-12 * _cancellation(spec) * (1.0 + y + np.abs(mu))
        assert np.all(sc.deviance(spec, y, mu) >= -tol)
        at = np.maximum(y, 1e-3) if spec.log_link else y
        zero = sc.deviance(spec, at, at)
        if kind == "tweedie":  # y * mu**(1-p) and y**(2-p) round apart
            assert np.all(np.abs(zero) <= tol)
        else:
            assert np.all(zero == 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    def test_grad_hess_match_central_differences(self, kind, data):
        spec = _draw_spec(data, kind)
        y = data.draw(st.floats(1e-2 if kind == "gamma" else 0.0, 100.0), label="y")
        score = data.draw(st.floats(-3.0, 3.0) if spec.log_link else st.floats(-50.0, 50.0),
                          label="score")
        h = 1e-6 * max(1.0, abs(score))

        def dev(s):
            return sc.deviance(spec, y, sc.mean_from_score(spec, s))

        gh = sc.grad_hess(spec, y, score)
        fd_grad = (dev(score + h) - dev(score - h)) / (2.0 * h)
        fd_hess = (sc.grad_hess(spec, y, score + h).grad
                   - sc.grad_hess(spec, y, score - h).grad) / (2.0 * h)
        # central differences lose about eps * |deviance| / h to rounding
        slack = 1e-8 * _cancellation(spec) * (1.0 + abs(dev(score)))
        assert gh.grad == pytest.approx(fd_grad, rel=1e-6, abs=slack)
        assert gh.hess == pytest.approx(fd_hess, rel=1e-6, abs=slack)


class TestSpecValidation:
    def test_family_losses_require_log_link(self):
        """The kind fixes the link, so a loss JSON naming one, even the right
        one, has an unknown field."""
        for obj in ({"kind": "poisson"}, {"kind": "gamma"}, {"kind": "tweedie", "power": 1.5}):
            assert sc.LossSpec.from_json(obj).log_link
            for link in ("log", "identity", None):
                with pytest.raises(ConfigError, match="loss JSON has unknown field 'link'"):
                    sc.LossSpec.from_json({**obj, "link": link})

    def test_raw_losses_require_identity_link(self):
        for obj in ({"kind": "mse"}, {"kind": "pseudo_huber", "delta": 1.0}):
            assert not sc.LossSpec.from_json(obj).log_link
            for link in ("identity", "log", "logit"):
                with pytest.raises(ConfigError, match="loss JSON has unknown field 'link'"):
                    sc.LossSpec.from_json({**obj, "link": link})

    @pytest.mark.parametrize("obj", [
        {"kind": "mse", "power": 1.5}, {"kind": "gamma", "delta": 1.0},
        {"kind": "tweedie", "power": 1.5, "delta": 1.0}, {"kind": "pseudo_huber", "power": 1.5},
    ], ids=["mse-power", "gamma-delta", "tweedie-delta", "huber-power"])
    def test_parameter_of_another_kind_is_config_error(self, obj):
        with pytest.raises(ConfigError, match="loss takes no (power|delta)"):
            sc.LossSpec.from_json(obj)

    @pytest.mark.parametrize("kind", [None, 3, ["mse"], {"kind": "mse"}])
    def test_kind_that_is_not_text_is_config_error(self, kind):
        with pytest.raises(ConfigError, match="unknown loss kind"):
            sc.LossSpec(kind=kind)

    def test_tweedie_power_strictly_inside_unit_interval(self):
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ConfigError):
                sc.LossSpec.tweedie(bad)

    def test_pseudo_huber_needs_positive_delta(self):
        with pytest.raises(ConfigError):
            sc.LossSpec.pseudo_huber(0.0)

    def test_labels(self):
        assert sc.LossSpec.mse().label() == "mse"
        assert sc.LossSpec.tweedie(1.5).label() == "tweedie(p=1.5)"
        assert sc.LossSpec.pseudo_huber(1.0).label() == "pseudo_huber(d=1)"

    def test_json_round_trip(self):
        for spec in ALL_SPECS:
            assert sc.LossSpec.from_json(spec.to_json()) == spec

    def test_json_holds_the_kind_and_its_parameter_only(self):
        assert sc.LossSpec.mse().to_json() == {"kind": "mse"}
        assert sc.LossSpec.gamma().to_json() == {"kind": "gamma"}
        assert sc.LossSpec.tweedie(1.5).to_json() == {"kind": "tweedie", "power": 1.5}
        assert sc.LossSpec.pseudo_huber(2.0).to_json() == {"kind": "pseudo_huber", "delta": 2.0}

    def test_unknown_field_is_config_error(self):
        with pytest.raises(ConfigError, match="loss JSON has unknown field 'powr'"):
            sc.LossSpec.from_json({"kind": "mse", "powr": 1.5})


class TestTotalLoss:
    def test_weighted_sum(self):
        spec = sc.LossSpec.mse()
        w = np.array([1.0, 3.0])
        y = np.array([1.0, 2.0])
        mu = np.array([0.0, 4.0])
        assert sc.total_loss(spec, w, y, mu) == pytest.approx(1.0 + 3.0 * 4.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sc.total_loss(sc.LossSpec.mse(), [1.0], [1.0, 2.0], [1.0, 2.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DomainError):
            sc.total_loss(sc.LossSpec.mse(), [0.0], [1.0], [1.0])


class TestConstantScore:
    def test_weighted_mean_for_mse(self):
        s = sc.constant_score(sc.LossSpec.mse(), [1.0, 3.0], [3.0, 1.0])
        assert s == pytest.approx(1.5, rel=1e-14)

    def test_family_losses_back_map_to_weighted_mean(self, rng):
        y = rng.lognormal(1.0, 0.8, size=400)
        w = rng.uniform(0.2, 3.0, size=400)
        expect = np.average(y, weights=w)
        for spec in (sc.LossSpec.poisson(), sc.LossSpec.gamma(),
                     sc.LossSpec.tweedie(1.3), sc.LossSpec.tweedie(1.7)):
            mu = sc.mean_from_score(spec, sc.constant_score(spec, y, w))
            assert mu == pytest.approx(expect, rel=1e-12)

    def test_pseudo_huber_matches_golden_section(self, rng):
        spec = sc.LossSpec.pseudo_huber(1.0)
        y = rng.lognormal(0.5, 1.0, size=300)
        w = rng.uniform(0.5, 2.0, size=300)

        def objective(s):
            return sc.total_loss(spec, w, y, np.full_like(y, s))

        oracle = optimize.minimize_scalar(
            objective, bracket=(y.min(), y.mean(), y.max()), method="golden",
            options={"xtol": 1e-12},
        ).x
        got = sc.constant_score(spec, y, w)
        assert got == pytest.approx(oracle, rel=1e-6)
        # the Newton solution is at least as good as the oracle's stop point
        assert objective(got) <= objective(oracle) + 1e-9


class TestWeightSchemes:
    def test_values(self):
        y = np.array([0.0, 1.0, 4.0])
        floor = 1e-6
        np.testing.assert_array_equal(
            sc.weights_for(sc.WeightScheme(kind="unit"), y), np.ones(3)
        )
        np.testing.assert_allclose(
            sc.weights_for(sc.WeightScheme(kind="log_sales"), y),
            np.log1p(y) + floor,
        )
        np.testing.assert_allclose(
            sc.weights_for(sc.WeightScheme(kind="sqrt_sales"), y),
            np.sqrt(y) + floor,
        )
        np.testing.assert_allclose(
            sc.weights_for(sc.WeightScheme(kind="linear_sales"), y), y + floor
        )

    def test_weights_always_strictly_positive(self, rng):
        y = np.concatenate([[0.0], rng.lognormal(0.0, 1.5, size=200)])
        for scheme in (sc.WeightScheme(kind="unit"),
                       sc.WeightScheme(kind="log_sales"),
                       sc.WeightScheme(kind="sqrt_sales"),
                       sc.WeightScheme(kind="linear_sales")):
            assert np.all(sc.weights_for(scheme, y) > 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown weight scheme 'cubic'"):
            sc.WeightScheme(kind="cubic")
        # power weights are retired: the kind and its exponent are both named
        with pytest.raises(ConfigError, match="unknown weight scheme 'power'"):
            sc.WeightScheme.from_json({"kind": "power"})
        with pytest.raises(ConfigError, match="unknown field 'alpha'"):
            sc.WeightScheme.from_json({"kind": "power", "alpha": 0.75})
        assert [f.name for f in dataclasses.fields(sc.WeightScheme)] == ["kind"]
        assert _WEIGHT_KINDS == ("unit", "log_sales", "sqrt_sales", "linear_sales")

    def test_negative_sales_rejected(self):
        with pytest.raises(DomainError):
            sc.weights_for(sc.WeightScheme(kind="linear_sales"), [-1.0])

    def test_json_round_trip(self):
        for kind in _WEIGHT_KINDS:
            scheme = sc.WeightScheme(kind=kind)
            assert scheme.to_json() == {"kind": kind}
            assert sc.WeightScheme.from_json(scheme.to_json()) == scheme

    def test_unknown_field_is_config_error(self):
        with pytest.raises(ConfigError, match="weight scheme JSON has unknown field 'alpah'"):
            sc.WeightScheme.from_json({"kind": "unit", "alpah": 2})


class TestConvexityProfile:
    def test_curvature_ordering_on_grid(self):
        """Lower Tweedie power means a sharper deviance bowl at the target,
        and raw squared error is sharper than any of them."""
        actual = 100.0
        grid = np.arange(10.0, 191.0, 10.0)
        specs = [sc.LossSpec.mse(), sc.LossSpec.tweedie(1.1),
                 sc.LossSpec.tweedie(1.5), sc.LossSpec.tweedie(1.9)]
        table = convexity_profile(specs, actual, grid)
        d2 = {}
        for spec in specs:
            col = table.column(spec.label())
            k = int(np.argmin(np.abs(grid - actual)))
            d2[spec.label()] = col[k - 1] - 2.0 * col[k] + col[k + 1]
        assert d2["tweedie(p=1.1)"] > d2["tweedie(p=1.5)"] > d2["tweedie(p=1.9)"]
        assert d2["mse"] > d2["tweedie(p=1.1)"]

    def test_csv_output(self, tmp_path):
        grid = np.array([50.0, 100.0, 150.0])
        table = convexity_profile([sc.LossSpec.mse()], 100.0, grid)
        path = tmp_path / "profile.csv"
        table.write_csv(path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].split(",")[0] == "mu"
        assert len(lines) == 1 + len(grid)
        with pytest.raises(IoFailure):
            table.write_csv(path / "under-a-file.csv")
