"""Boosted learner: initialization, training-loss behavior, determinism,
prediction contracts, and serialization."""

import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewcast as sc
from skewcast.errors import (
    ConfigError,
    DataError,
    DegenerateData,
    DomainError,
    EmptyInput,
    IoFailure,
    ShapeMismatch,
)
from skewcast import learner
from skewcast.learner import FitModel, _normal_matrix, _solve_step, write_pairs_csv
from skewcast.losses import (
    HESS_FLOOR,
    GradHess,
    _ylog_ratio,
    mean_from_score,
    total_loss,
    weights_for,
)
from skewcast.transform import forward

IDENTITY = sc.TargetTransform(kind="identity")
LOG = sc.TargetTransform(kind="log")
UNIT = sc.WeightScheme(kind="unit")
SQRT = sc.WeightScheme(kind="sqrt_sales")


def _quick_config(**kw):
    base = dict(rounds=20, max_depth=3, learning_rate=0.1, l2_reg=1.0)
    base.update(kw)
    return sc.LearnerConfig(**base)


class TestLearnerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            sc.LearnerConfig(base="forest")
        with pytest.raises(ConfigError):
            sc.LearnerConfig(rounds=-1)
        with pytest.raises(ConfigError):
            sc.LearnerConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            sc.LearnerConfig(learning_rate=1.5)
        with pytest.raises(ConfigError):
            sc.LearnerConfig(max_depth=0)
        with pytest.raises(ConfigError):
            sc.LearnerConfig(l2_reg=-0.5)

    def test_zero_rounds_allowed(self):
        assert sc.LearnerConfig(rounds=0).rounds == 0

    @pytest.mark.parametrize("field", ["rounds", "max_depth"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None, [3]])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            sc.LearnerConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            sc.LearnerConfig.from_json({field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "min_child_weight", "l2_reg"])
    @pytest.mark.parametrize("value", [True, "0.5", None, [0.5], float("nan"), float("inf"),
                                       pytest.param(10**400, id="huge-int")])
    def test_real_fields_reject_non_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            sc.LearnerConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            sc.LearnerConfig.from_json({field: value})

    def test_integer_values_accepted_for_real_fields(self):
        cfg = sc.LearnerConfig.from_json({"learning_rate": 1, "min_child_weight": 0, "l2_reg": 1})
        assert (cfg.learning_rate, cfg.min_child_weight, cfg.l2_reg) == (1, 0, 1)
        assert sc.LearnerConfig(rounds=np.int64(3), max_depth=np.int32(2)).rounds == 3

    def test_plan_learner_fails_at_load(self, tmp_path):
        plan = {"panel_path": str(tmp_path / "never_read.csv"), "arms": ["E4", "E5"],
                "baseline_id": "E5", "learner": {"max_depth": 2.5}}
        with pytest.raises(ConfigError, match="max_depth"):
            sc.BacktestPlan.from_json(plan)

    def test_json_round_trip(self):
        cfg = _quick_config(base="linear", min_child_weight=2.0)
        assert sc.LearnerConfig.from_json(cfg.to_json()) == cfg
        with pytest.raises(ConfigError):
            sc.LearnerConfig.from_json({"no_such_knob": 1})


class TestConstantInitialization:
    def test_zero_rounds_mse_predicts_weighted_mean(self, rng):
        X = rng.normal(size=(200, 2))
        y = rng.lognormal(0.0, 1.0, size=200)
        scheme = sc.WeightScheme(kind="linear_sales")
        model = sc.fit_arrays(X, y, IDENTITY, sc.LossSpec.mse(), scheme,
                              _quick_config(rounds=0))
        w = sc.weights_for(scheme, y)
        expect = np.average(y, weights=w)
        np.testing.assert_allclose(model.predict(X), expect, rtol=1e-12)

    def test_zero_rounds_tweedie_predicts_mean_through_link(self, rng):
        X = rng.normal(size=(200, 2))
        y = rng.lognormal(0.0, 1.0, size=200)
        model = sc.fit_arrays(X, y, IDENTITY, sc.LossSpec.tweedie(1.5), UNIT,
                              _quick_config(rounds=0))
        np.testing.assert_allclose(model.predict(X), y.mean(), rtol=1e-12)

    def test_zero_rounds_log_target_underpredicts_the_mean(self, rng):
        """Back-transforming the mean of log values lands below the raw
        mean on any spread sample: the bias this package measures."""
        X = rng.normal(size=(500, 2))
        y = rng.lognormal(0.0, 1.0, size=500)
        model = sc.fit_arrays(X, y, LOG, sc.LossSpec.mse(), UNIT,
                              _quick_config(rounds=0))
        assert float(model.predict(X)[0]) < y.mean()


class TestTrainingLoss:
    @pytest.mark.parametrize("loss", [
        sc.LossSpec.mse(),
        sc.LossSpec.pseudo_huber(1.0),
        sc.LossSpec.poisson(),
        sc.LossSpec.tweedie(1.5),
    ], ids=lambda spec: spec.label())
    def test_monotone_non_increasing(self, small_panel, loss):
        transform = LOG if loss.kind == "mse" else IDENTITY
        model = sc.fit(small_panel, transform, loss, UNIT, _quick_config())
        curve = np.asarray(model.training_loss)
        assert len(curve) == 21
        assert np.all(np.diff(curve) <= 1e-12)

    def test_loss_actually_improves(self, small_panel):
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT, _quick_config())
        assert model.training_loss[-1] < 0.9 * model.training_loss[0]

    @pytest.mark.parametrize("transform,loss,scheme", [
        (LOG, sc.LossSpec.mse(), UNIT),
        (LOG, sc.LossSpec.mse(), sc.WeightScheme(kind="sqrt_sales")),
        (IDENTITY, sc.LossSpec.tweedie(1.5), UNIT),
    ], ids=["log-mse", "log-mse-sqrt-weights", "tweedie"])
    def test_final_loss_matches_the_saved_model(self, small_panel, transform, loss, scheme):
        """The fit steps its scores by the leaf values written while each
        tree grows; the saved trees must give back the same scores."""
        model = sc.fit(small_panel, transform, loss, scheme, _quick_config())
        y = small_panel.sales
        w = weights_for(scheme, y)
        mu = mean_from_score(loss, model.score(small_panel.feature_matrix))
        assert total_loss(loss, w, forward(transform, y), mu) / np.sum(w) == model.training_loss[-1]


class TestDeterminism:
    def test_refit_is_bit_identical(self, small_panel):
        cfg = _quick_config(rounds=10)
        a = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT, cfg)
        b = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT, cfg)
        X = small_panel.feature_matrix
        np.testing.assert_array_equal(a.predict(X), b.predict(X))
        assert a.training_loss == b.training_loss


class TestPredictionContracts:
    def test_log_link_predictions_strictly_positive(self, small_panel):
        model = sc.fit(small_panel, IDENTITY, sc.LossSpec.tweedie(1.3), UNIT,
                       _quick_config())
        X = small_panel.feature_matrix
        assert np.all(model.predict(X) > 0.0)
        wild = np.array([[5.0, 2.0, 9.0, -8.0], [-5.0, 0.1, 1.0, 12.0]])
        assert np.all(model.predict(wild) > 0.0)

    def test_raw_mse_negative_score_clamps_to_zero(self):
        model = FitModel(
            transform=IDENTITY,
            loss=sc.LossSpec.mse(),
            weight_scheme=UNIT,
            learner=_quick_config(rounds=0),
            feature_names=["f0"],
            base_score=-5.0,
        )
        np.testing.assert_array_equal(model.predict(np.zeros((3, 1))), 0.0)

    def test_log_target_prediction_is_inverse_of_score(self, small_panel):
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT,
                       _quick_config(rounds=5))
        X = small_panel.feature_matrix
        zhat = model.predict_transformed(X)
        np.testing.assert_array_equal(model.predict(X), np.maximum(np.expm1(zhat), 0.0))

    def test_non_finite_features_rejected(self, small_panel):
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT,
                       _quick_config(rounds=1))
        for bad in (np.nan, np.inf, -np.inf):
            X = small_panel.feature_matrix[:3].copy()
            X[1, 0] = bad
            with pytest.raises(DataError):
                model.predict(X)

    def test_wrong_feature_count_rejected(self, small_panel):
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT,
                       _quick_config(rounds=1))
        with pytest.raises(ShapeMismatch):
            model.predict(np.zeros((2, 9)))


class TestFitValidation:
    def test_log_link_loss_needs_identity_transform(self, small_panel):
        with pytest.raises(ConfigError):
            sc.fit(small_panel, LOG, sc.LossSpec.tweedie(1.5), UNIT, _quick_config())

    def test_constant_target_is_degenerate(self, rng):
        X = rng.normal(size=(50, 2))
        y = np.full(50, 4.0)
        with pytest.raises(DegenerateData):
            sc.fit_arrays(X, y, IDENTITY, sc.LossSpec.mse(), UNIT, _quick_config())

    def test_non_finite_features_rejected(self, rng):
        X = rng.normal(size=(50, 2))
        X[7, 1] = np.nan
        with pytest.raises(DataError):
            sc.fit_arrays(X, rng.lognormal(size=50), IDENTITY, sc.LossSpec.mse(), UNIT,
                          _quick_config())

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            sc.fit_arrays(np.zeros((0, 2)), np.zeros(0), IDENTITY,
                          sc.LossSpec.mse(), UNIT, _quick_config())

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            sc.fit_arrays(rng.normal(size=30), rng.lognormal(size=30),
                          IDENTITY, sc.LossSpec.mse(), UNIT, _quick_config())
        with pytest.raises(ShapeMismatch):
            sc.fit_arrays(rng.normal(size=(30, 2)), rng.lognormal(size=29),
                          IDENTITY, sc.LossSpec.mse(), UNIT, _quick_config())


class TestLinearBase:
    def test_recovers_a_linear_signal(self, rng):
        X = rng.normal(size=(400, 2))
        y = np.maximum(2.0 * X[:, 0] - X[:, 1] + 5.0, 0.0)
        cfg = sc.LearnerConfig(base="linear", rounds=3, learning_rate=1.0,
                               l2_reg=1e-8)
        model = sc.fit_arrays(X, y, IDENTITY, sc.LossSpec.mse(), UNIT, cfg)
        keep = y > 0  # the clamp only bites where the signal was negative
        if keep.mean() > 0.9:
            X, y = X[keep], y[keep]
            model = sc.fit_arrays(X, y, IDENTITY, sc.LossSpec.mse(), UNIT, cfg)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-5)

    def test_linear_curve_non_increasing(self, small_panel):
        cfg = sc.LearnerConfig(base="linear", rounds=15, learning_rate=0.1,
                               l2_reg=1.0)
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT, cfg)
        assert np.all(np.diff(model.training_loss) <= 1e-12)
        assert model.trees == []
        assert len(model.betas) == 15


def _reference_normal_matrix(Xa, h, l2_reg):
    """The three-operand normal matrix, whose summation order the real
    step must reproduce bit for bit."""
    return np.einsum("ij,i,ik->jk", Xa, h, Xa) + l2_reg * np.eye(Xa.shape[1])


def _reference_linear_step(Xa, g, h, l2_reg):
    """The linear step with the three-operand normal matrix."""
    return np.linalg.solve(_reference_normal_matrix(Xa, h, l2_reg), -np.einsum("ij,i->j", Xa, g))


def _rebuilt_normal(last, Xa, h, l2_reg):
    """The reference for a fit's carried normal matrix: the three-operand
    matrix, built again in every round whatever the hessian."""
    return h, _reference_normal_matrix(Xa, h, l2_reg)


@pytest.fixture(scope="module")
def windows(small_panel):
    # two different target vectors of one length, so a term carried from
    # one fit into the next changes bits instead of failing on shape
    first, _ = small_panel.date_range
    day = dt.timedelta(days=1)
    return (small_panel.slice_days(first, first + 119 * day),
            small_panel.slice_days(first + 120 * day, first + 239 * day))


def _count_normal_matrices(monkeypatch):
    """A list that grows by one each time a fit builds a normal matrix."""
    built = []
    real_build = learner._normal_matrix

    def counted(Xa, h, l2_reg):
        built.append(len(h))
        return real_build(Xa, h, l2_reg)

    monkeypatch.setattr(learner, "_normal_matrix", counted)
    return built


class TestLinearStepBits:
    """The linear step's two-operand normal matrix sums in the same order as
    the three-operand reference, so the betas agree bit for bit; a fit
    builds that matrix again only when the hessian's bits change."""

    @settings(max_examples=80)
    @given(data=st.data())
    def test_matches_the_reference_step(self, data):
        # sizes on both sides of 8,192 rows, where a (k, n) layout stops matching
        n = data.draw(st.one_of(st.integers(1, 20_000), st.integers(8_000, 20_000),
                                st.sampled_from([8191, 8192, 8193, 8194, 16383, 16385])),
                      label="n")
        k = data.draw(st.integers(2, 9), label="k")
        decades = data.draw(st.sampled_from([0.0, 1.0, 6.0, 12.0]), label="decades")
        subset = data.draw(st.sampled_from([None, 0.7, 0.05]), label="subset")
        l2_reg = data.draw(st.sampled_from([1e-6, 1.0]), label="l2_reg")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        Xa = np.hstack([gen.normal(size=(n, k - 1)) * 10.0 ** gen.uniform(-3, 3, k - 1),
                        np.ones((n, 1))])
        g = gen.normal(size=n)
        h = 10.0 ** gen.uniform(-decades, decades, size=n)
        rows = slice(None) if subset is None else np.flatnonzero(gen.random(n) < subset)
        Xa, g, h = Xa[rows], g[rows], h[rows]
        if len(h) == 0:
            return
        try:
            expected = _reference_linear_step(Xa, g, h, l2_reg)
        except np.linalg.LinAlgError:  # same normal matrix, so both are singular
            with pytest.raises(DegenerateData):
                _solve_step(_normal_matrix(Xa, h, l2_reg), Xa, g)
            return
        assert np.array_equal(_solve_step(_normal_matrix(Xa, h, l2_reg), Xa, g), expected)

    @pytest.fixture(scope="class")
    def year_panel(self):
        """10,950 rows: more than 8,192."""
        return sc.generate(sc.GenConfig(n_items=30, n_days=365, seed=11))

    # a full step and the default shrinkage
    @pytest.mark.parametrize("learning_rate", [1.0, 0.1])
    # "mse" is E5 (log target, sqrt weights) and "tweedie" Tweedie 1.5 with
    # sqrt weights; E1, E4 and E5 keep one hessian, E2 and Tweedie do not
    @pytest.mark.parametrize("transform,loss,weights", [
        (LOG, sc.LossSpec.mse(), SQRT),
        (IDENTITY, sc.LossSpec.tweedie(1.5), SQRT),
        (IDENTITY, sc.LossSpec.mse(), UNIT),
        (IDENTITY, sc.LossSpec.pseudo_huber(1.0), UNIT),
        (LOG, sc.LossSpec.mse(), UNIT),
    ], ids=["mse", "tweedie", "E1", "E2", "E4"])
    def test_fit_matches_a_fit_with_the_reference_step(self, year_panel, monkeypatch,
                                                        learning_rate, transform, loss,
                                                        weights):
        panel = year_panel
        assert len(panel.sales) > 8192
        cfg = sc.LearnerConfig(base="linear", rounds=8, learning_rate=learning_rate)
        args = (panel, transform, loss, weights, cfg)
        model = sc.fit(*args)
        monkeypatch.setattr(learner, "_carried_normal", _rebuilt_normal)
        assert json.dumps(model.to_json()) == json.dumps(sc.fit(*args).to_json())

    @pytest.mark.parametrize("arm_id,builds", [
        ("E1", 1), ("E4", 1), ("E5", 1), ("E2", 6), ("E3.5", 6),
    ])
    def test_a_fit_builds_its_normal_matrix_once_per_distinct_hessian(
            self, small_panel, monkeypatch, arm_id, builds):
        built = _count_normal_matrices(monkeypatch)
        arm = sc.arm_by_id(arm_id)
        model = sc.fit(small_panel, arm.transform, arm.loss, arm.weight_scheme,
                       sc.LearnerConfig(base="linear", rounds=6))
        assert len(model.betas) == 6
        assert len(built) == builds

    def test_consecutive_fits_carry_nothing(self, windows, monkeypatch):
        # E1's hessian is 2 on every row of both windows: the same bits, so
        # a matrix kept past its fit would be taken for the second window
        assert len(windows[0].sales) == len(windows[1].sales)
        arm = sc.arm_by_id("E1")
        cfg = sc.LearnerConfig(base="linear", rounds=4)
        built = _count_normal_matrices(monkeypatch)
        models = [json.dumps(sc.fit(w, arm.transform, arm.loss, arm.weight_scheme, cfg)
                             .to_json()) for w in windows]
        assert len(built) == 2
        monkeypatch.setattr(learner, "_carried_normal", _rebuilt_normal)
        ref = sc.fit(windows[1], arm.transform, arm.loss, arm.weight_scheme, cfg)
        assert models[1] == json.dumps(ref.to_json())
        assert models[0] != models[1]

    def test_a_singular_first_round_is_degenerate(self, rng):
        # a feature that is zero on every row leaves a zero row and column
        X = np.column_stack([rng.normal(size=50), np.zeros(50)])
        cfg = sc.LearnerConfig(base="linear", rounds=3, l2_reg=0.0)
        with pytest.raises(DegenerateData, match="singular normal equations"):
            sc.fit_arrays(X, rng.lognormal(size=50), IDENTITY, sc.LossSpec.mse(), UNIT, cfg)


def _reference_grad_hess(spec, y, score, terms=None):
    """The per-call gradient/hessian: every term recomputed from ``score``."""
    y = np.asarray(y, dtype=np.float64)
    score = np.asarray(score, dtype=np.float64)
    if not np.all(np.isfinite(score)):
        raise DomainError("scores must be finite")
    mu = np.exp(score) if spec.log_link else score.copy()
    if spec.kind == "mse":
        g = 2.0 * (score - y)
        h = np.full_like(g, 2.0)
    elif spec.kind == "pseudo_huber":
        u = (y - score) / spec.delta
        root = np.sqrt(1.0 + u * u)
        g = (score - y) / root
        h = np.power(root, -3.0)
    elif spec.kind == "poisson":
        g = 2.0 * (mu - y)
        h = 2.0 * mu
    elif spec.kind == "gamma":
        g = 2.0 * (1.0 - y / mu)
        h = 2.0 * y / mu
    else:
        p = spec.power
        mu1 = np.power(mu, 1.0 - p)
        mu2 = np.power(mu, 2.0 - p)
        g = 2.0 * (mu2 - y * mu1)
        h = 2.0 * ((2.0 - p) * mu2 + (p - 1.0) * y * mu1)
    return GradHess(grad=g, hess=np.maximum(h, HESS_FLOOR))


def _reference_total_loss(spec, weights, ys, mus, terms=None):
    """The per-call training loss: every power recomputed from ``ys`` and ``mus``."""
    w = np.asarray(weights, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    mu = np.asarray(mus, dtype=np.float64)
    if spec.kind == "mse":
        out = np.square(y - mu)
    elif spec.kind == "pseudo_huber":
        d = spec.delta
        out = d * d * (np.sqrt(1.0 + np.square((y - mu) / d)) - 1.0)
    elif spec.kind == "poisson":
        out = 2.0 * (_ylog_ratio(y, mu) - y + mu)
    elif spec.kind == "gamma":
        out = 2.0 * (-np.log(y / mu) + (y - mu) / mu)
    else:
        p = spec.power
        term1 = (np.power(y, 2.0 - p) - y * np.power(mu, 1.0 - p)) / (1.0 - p)
        term2 = (np.power(y, 2.0 - p) - np.power(mu, 2.0 - p)) / (2.0 - p)
        out = 2.0 * (term1 - term2)
    return float(np.sum(w * out))


class TestLossKernelBits:
    """A fit's round loop evaluates each round's loss terms once, through the
    shared kernel in ``losses``.  Its models must equal, byte for byte, the
    models of the reference round loop: the same loop with ``grad_hess`` and
    ``total_loss`` replaced by per-call formulas that recompute the mean and
    every power from their own inputs."""

    # a full step and the default shrinkage
    @pytest.mark.parametrize("learning_rate", [1.0, 0.1])
    @pytest.mark.parametrize("base", ["tree", "linear"])
    @pytest.mark.parametrize("arm_id", ["E1", "E2", "E3.1", "E3.3", "E3.5", "E3.7", "E3.9",
                                        "E4", "E5"])
    def test_fit_matches_the_reference_round_loop(self, windows, monkeypatch,
                                                   arm_id, base, learning_rate):
        arm = sc.arm_by_id(arm_id)
        cfg = sc.LearnerConfig(base=base, rounds=4, max_depth=3, learning_rate=learning_rate)
        got = [json.dumps(sc.fit(w, arm.transform, arm.loss, arm.weight_scheme, cfg).to_json())
               for w in windows]
        monkeypatch.setattr(learner, "grad_hess", _reference_grad_hess)
        monkeypatch.setattr(learner, "total_loss", _reference_total_loss)
        for window, model in zip(windows, got):
            ref = sc.fit(window, arm.transform, arm.loss, arm.weight_scheme, cfg)
            assert model == json.dumps(ref.to_json())


class TestSerialization:
    def test_save_load_round_trip(self, small_panel, tmp_path):
        model = sc.fit(small_panel, IDENTITY, sc.LossSpec.tweedie(1.5), UNIT,
                       _quick_config(rounds=8))
        path = tmp_path / "model.json"
        sc.save_model(model, path)
        back = sc.load_model(path)
        X = small_panel.feature_matrix
        np.testing.assert_array_equal(back.predict(X), model.predict(X))
        assert back.loss == model.loss
        assert back.feature_names == model.feature_names

    @pytest.mark.parametrize("arm_id", ["E2", "E5", "E4-S", "E4-V", "E4-PB"])
    def test_saved_arm_models_load(self, small_panel, tmp_path, arm_id):
        """Every part a saved model holds passes the unknown-field check."""
        model = sc.fit_arm(sc.arm_by_id(arm_id), small_panel, _quick_config(rounds=2))
        path = tmp_path / "model.json"
        sc.save_model(model, path)
        assert sc.load_model(path).to_json() == model.to_json()

    def test_version_gate(self, small_panel, tmp_path):
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT,
                       _quick_config(rounds=1))
        obj = model.to_json()
        obj["version"] = "someone-elses-format"
        with pytest.raises(ConfigError):
            FitModel.from_json(obj)

    def test_v1_model_is_rejected_by_version(self, small_panel, tmp_path):
        """A v1 model, whose learner still holds subsample and seed, is rejected by version."""
        obj = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT, _quick_config(rounds=1)).to_json()
        obj["version"] = "skewcast-model-v1"
        obj["learner"].update(subsample=1.0, seed=0)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match="unsupported model version 'skewcast-model-v1'"):
            sc.load_model(path)

    def test_v2_model_is_rejected_by_version(self, small_panel, tmp_path):
        """A v2 model, whose transform still holds an offset and whose binned
        corrector a bin width, is rejected by version before its fields."""
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT, _quick_config(rounds=1))
        obj = model.with_corrector(sc.BiasCorrector("prediction_binned", 1.1, (1.0, 1.2))).to_json()
        obj["version"] = "skewcast-model-v2"
        obj["transform"]["offset"] = 1.0
        obj["bias_corrector"]["bin_width"] = 2.0
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match="unsupported model version 'skewcast-model-v2', "
                                              "expected 'skewcast-model-v4'"):
            sc.load_model(path)
        obj["version"] = sc.MODEL_FORMAT  # as the current version, each retired key is named
        with pytest.raises(ConfigError, match="transform JSON has unknown field 'offset'"):
            FitModel.from_json(obj)
        del obj["transform"]["offset"]
        with pytest.raises(ConfigError, match="bias corrector JSON has unknown field 'bin_width'"):
            FitModel.from_json(obj)
        del obj["bias_corrector"]["bin_width"]
        assert FitModel.from_json(obj).bias_corrector.bin_factors == (1.0, 1.2)

    @pytest.mark.parametrize("link", ["identity", "log"])
    def test_v3_model_is_rejected_by_version(self, small_panel, tmp_path, link):
        """A v3 model, whose loss still holds its derived link, is rejected by
        version; as the current version, its link key is named."""
        obj = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT, _quick_config(rounds=1)).to_json()
        assert obj["loss"] == {"kind": "mse"}
        obj["version"] = "skewcast-model-v3"
        obj["loss"]["link"] = link
        path = tmp_path / "v3.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match="unsupported model version 'skewcast-model-v3', "
                                              "expected 'skewcast-model-v4'"):
            sc.load_model(path)
        obj["version"] = sc.MODEL_FORMAT
        with pytest.raises(ConfigError, match="loss JSON has unknown field 'link'"):
            FitModel.from_json(obj)
        del obj["loss"]["link"]
        assert FitModel.from_json(obj).loss == sc.LossSpec.mse()

    @pytest.mark.parametrize("base,edit", [
        ("tree", lambda obj: obj["trees"][0]["feature"].__setitem__(0, 7)),
        ("linear", lambda obj: obj["betas"][0].pop()),
        ("linear", lambda obj: obj["betas"].__setitem__(0, [obj["betas"][0]])),
        ("linear", lambda obj: obj["betas"][0].__setitem__(0, float("inf"))),
        ("linear", lambda obj: obj["betas"].__setitem__(0, ["one", 2.0])),
        ("tree", lambda obj: obj.pop("transform")),
        ("tree", lambda obj: obj.pop("trees")),
        ("tree", lambda obj: obj.__setitem__("bias_corrector", ["smearing", 1.2])),
        ("tree", lambda obj: obj.__setitem__("loss", "mse")),
        ("tree", lambda obj: obj.__setitem__("feature_names", 3)),
        ("tree", lambda obj: obj["feature_names"].__setitem__(1, obj["feature_names"][0])),
        ("linear", lambda obj: obj["feature_names"].__setitem__(0, "")),
        ("tree", lambda obj: obj["feature_names"].__setitem__(1, "log_popularity\r")),
        ("linear", lambda obj: obj["feature_names"].__setitem__(0, "a,b")),
    ], ids=["tree-feature-out-of-range", "betas-too-short", "betas-not-1d",
            "betas-not-finite", "betas-not-numeric", "missing-transform", "missing-trees",
            "corrector-not-object", "loss-not-object", "feature-names-not-list",
            "feature-name-repeated", "feature-name-empty", "feature-name-carriage-return",
            "feature-name-comma"])
    def test_corrupt_model_rejected(self, small_panel, base, edit):
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT,
                       _quick_config(base=base, rounds=2))
        obj = model.to_json()
        FitModel.from_json(obj)  # the unedited model loads
        edit(obj)
        with pytest.raises(ConfigError):
            FitModel.from_json(obj)

    def test_unknown_model_field_rejected(self, small_panel):
        """A misspelt top-level field is named, not ignored."""
        obj = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT, _quick_config(rounds=1)).to_json()
        obj["bias_corector"] = {"kind": "smearing", "factor": 2.0}
        with pytest.raises(ConfigError, match="model JSON has unknown field 'bias_corector'"):
            FitModel.from_json(obj)

    @pytest.mark.parametrize("names", ["abcd", [1.5, None, 2, 3]], ids=["text", "numbers"])
    def test_feature_names_must_be_a_list_of_strings(self, small_panel, names):
        obj = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT, _quick_config(rounds=1)).to_json()
        obj["feature_names"] = names
        with pytest.raises(ConfigError, match="feature_names"):
            FitModel.from_json(obj)

    def test_load_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read model .*missing.json"):
            sc.load_model(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all", encoding="utf-8")
        with pytest.raises(ConfigError):
            sc.load_model(bad)

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["trees"][0]["feature"].__setitem__(0, 2**70),
        lambda obj: obj.__setitem__("base_score", 10**400),
        lambda obj: obj["training_loss"].__setitem__(0, 10**400),
        lambda obj: obj.__setitem__("bias_corrector", {"kind": "smearing", "factor": 10**400}),
    ], ids=["tree-feature", "base-score", "training-loss", "corrector-factor"])
    def test_number_too_large_to_convert_is_config_error(self, small_panel, tmp_path, edit):
        obj = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT, _quick_config(rounds=2)).to_json()
        edit(obj)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError):
            sc.load_model(path)

    @pytest.mark.parametrize("text", ['[1, 2]', '"model"',
                                      json.dumps({"version": sc.MODEL_FORMAT})],
                             ids=["list", "string", "only-version"])
    def test_malformed_model_json_is_config_error(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            sc.load_model(path)


class TestFitReport:
    def test_report_shape(self, small_panel):
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT,
                       _quick_config(rounds=6))
        report = sc.in_sample_fit_report(model, small_panel)
        assert report["n_rows"] == len(small_panel)
        assert report["rounds"] == 6
        assert len(report["pairs"]) == len(small_panel)
        assert report["final_training_loss"] <= report["initial_training_loss"]

    def test_log_target_raw_residual_mean_positive(self, small_panel):
        """Transformed residuals center near zero while raw residuals
        stay positive: the transformation bias in one report."""
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT,
                       _quick_config(rounds=30))
        report = sc.in_sample_fit_report(model, small_panel)
        z_std = np.sqrt(report["var_transformed_residual"])
        assert abs(report["mean_transformed_residual"]) < 0.01 * z_std
        assert report["mean_raw_residual"] > 0.0

    def test_pairs_csv(self, small_panel, tmp_path):
        model = sc.fit(small_panel, LOG, sc.LossSpec.mse(), UNIT,
                       _quick_config(rounds=2))
        report = sc.in_sample_fit_report(model, small_panel)
        path = tmp_path / "pairs.csv"
        write_pairs_csv(report, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "actual,predicted"
        assert len(lines) == 1 + len(small_panel)
        with pytest.raises(IoFailure):
            write_pairs_csv(report, path / "under-a-file.csv")
