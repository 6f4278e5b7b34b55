"""Backtest grid: scheduling, arms, trend runs, the forecast seam."""

import dataclasses
import datetime as dt
import json
import math
import re
import sys
import threading
import weakref

import numpy as np
import pytest
from conftest import scoring_actuals

import skewcast as sc
from skewcast.backtest import (
    LADDER_SCHEMES,
    SWEEP_POWERS,
    _count_inversions,
    version_origins,
    worker_count,
    write_backtest_outputs,
)
from skewcast import backtest
from skewcast.errors import ConfigError, DataError

FAST_LEARNER = sc.LearnerConfig(rounds=12, max_depth=3)


def _item_day_panel(sales, features, feature_names, start):
    """Items item00, item01, ... (rows of ``sales``) over consecutive days
    from ``start`` (columns); ``features`` is (items, days, k)."""
    n_items, n_days = sales.shape
    return sc.SalesPanel(
        [f"item{i:02d}" for i in range(n_items)],
        np.repeat(np.arange(n_items), n_days),
        np.tile(start.toordinal() + np.arange(n_days), n_items),
        sales.ravel(),
        features.reshape(n_items * n_days, -1),
        feature_names,
    )


def _item_code_feature(n_items, n_days):
    return np.repeat(np.arange(n_items, dtype=float), n_days).reshape(n_items, n_days, 1)


def _flat_panel(n_items=4, n_days=400, level=5.0, start=dt.date(2020, 1, 6)):
    return _item_day_panel(np.full((n_items, n_days), level),
                           _item_code_feature(n_items, n_days), ["item_code"], start)


def _wavy_panel(n_items=3, n_days=300, start=dt.date(2020, 1, 6)):
    """Deterministic panel whose sales vary by item and weekday."""
    item, day = np.meshgrid(np.arange(n_items), np.arange(n_days), indexing="ij")
    return _item_day_panel(5.0 + 2.0 * item + 0.3 * (day % 7),
                           _item_code_feature(n_items, n_days), ["item_code"], start)


def _symmetric_panel(n_items=20, n_days=180, start=dt.date(2020, 1, 6)):
    """Sales symmetric around 100 and independent of the features."""
    gen = np.random.default_rng(11)
    sales = np.empty((n_items, n_days))
    features = np.empty((n_items, n_days, 2))
    for i in range(n_items):
        sales[i] = np.maximum(gen.normal(100.0, 8.0, size=n_days), 0.0)
        features[i] = gen.uniform(-1, 1, size=(n_days, 2))
    return _item_day_panel(sales, features, ["f0", "f1"], start)


class TestScheduling:
    def test_origins_anchor_to_panel_end(self):
        panel = _flat_panel(n_days=400)
        plan = sc.BacktestPlan(train_window_days=100, n_versions=3,
                               horizons=(6, 12), learner=FAST_LEARNER)
        origins = version_origins(panel, plan)
        _, last_day = panel.date_range
        assert origins[-1] == last_day - dt.timedelta(days=7 * 12)
        assert len(origins) == 3
        assert origins == sorted(origins)
        assert all((b - a).days == 7 for a, b in zip(origins, origins[1:]))

    def test_retired_cadence_days_is_config_error(self):
        assert len(dataclasses.fields(sc.BacktestPlan)) == 8
        with pytest.raises(ConfigError, match="unknown field 'cadence_days'"):
            sc.BacktestPlan.from_json({"cadence_days": 7})

    def test_short_panel_rejected(self):
        panel = _flat_panel(n_days=120)
        plan = sc.BacktestPlan(train_window_days=100, n_versions=2, horizons=(6,))
        with pytest.raises(DataError, match=r"^panel starts 2020-01-06, but the plan \(n_versions 2, "
                                            r"a 6-week horizon, a 100-day window\) needs 150 "
                                            "days of history up to 2020-05-04$"):
            version_origins(panel, plan)

    def test_just_long_enough_panel_is_accepted(self):
        # a 100-day window, 2 versions a week apart and a 6-week horizon
        # need 100 + 1 + 7 + 42 = 150 days
        plan = sc.BacktestPlan(train_window_days=100, n_versions=2, horizons=(6,))
        start = dt.date(2020, 1, 6)
        origins = version_origins(_flat_panel(n_days=150, start=start), plan)
        assert origins[0] == start + dt.timedelta(days=100)
        with pytest.raises(DataError, match="needs 150 days of history"):
            version_origins(_flat_panel(n_days=149, start=start), plan)

    def test_empty_panel_is_empty_input(self):
        panel = sc.SalesPanel([], [], [], [], np.empty((0, 1)), ["f"])
        with pytest.raises(DataError, match="panel has no rows"):
            version_origins(panel, sc.BacktestPlan(train_window_days=100, n_versions=2,
                                                   horizons=(6,)))

    @pytest.mark.parametrize("start, plan", [
        (dt.date.min, sc.BacktestPlan(train_window_days=7, n_versions=1, horizons=(24,))),
        (dt.date(2020, 1, 6), sc.BacktestPlan(train_window_days=1_000_000, n_versions=1,
                                              horizons=(6,))),
        (dt.date(2020, 1, 6), sc.BacktestPlan(train_window_days=100, n_versions=200_000,
                                              horizons=(6,))),
    ], ids=["near-date-min", "long-window", "many-versions"])
    def test_history_outside_the_calendar_is_insufficient(self, start, plan):
        # each of these once reached past date.min and overflowed
        panel = _flat_panel(n_days=160, start=start)
        with pytest.raises(DataError, match=f"panel starts {start}, .* needs "):
            version_origins(panel, plan)

    def test_training_slice_never_touches_origin(self):
        panel = _flat_panel(n_days=400)
        origin = dt.date(2020, 10, 5)
        plan = sc.BacktestPlan(train_window_days=90, n_versions=1, horizons=(6,))
        train, _ = backtest._windows(panel, plan, origin)
        days = train.day_ordinals
        assert days.max() == (origin - dt.timedelta(days=1)).toordinal()
        assert days.min() == (origin - dt.timedelta(days=90)).toordinal()

    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            sc.BacktestPlan(train_window_days=0)
        with pytest.raises(ConfigError):
            sc.BacktestPlan(n_versions=0)
        with pytest.raises(ConfigError):
            sc.BacktestPlan(horizons=(5,))
        with pytest.raises(ConfigError, match=r"horizons .* got \[6, 6\]"):
            sc.BacktestPlan(horizons=(6, 6))
        with pytest.raises(ConfigError, match=r"horizons .* got \[12, 6, 12\]"):
            sc.BacktestPlan.from_json({"horizons": [12, 6, 12]})
        with pytest.raises(ConfigError):
            sc.BacktestPlan(arms=(sc.arm_by_id("E1"), sc.arm_by_id("E1")))

    @pytest.mark.parametrize("field", ["train_window_days", "n_versions"])
    @pytest.mark.parametrize("value", [1.5, 90.5, 7.0, True, "x", None, [7]])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            sc.BacktestPlan(**{field: value})
        with pytest.raises(ConfigError, match=field):
            sc.BacktestPlan.from_json({field: value})

    @pytest.mark.parametrize("horizon", [6.0, 12.5, True, "6", None, [6]])
    def test_horizons_must_be_integers(self, horizon):
        with pytest.raises(ConfigError, match="horizons"):
            sc.BacktestPlan(horizons=(12, horizon))
        with pytest.raises(ConfigError, match="horizons"):
            sc.BacktestPlan.from_json({"horizons": [12, horizon]})

    def test_numpy_integers_accepted(self):
        plan = sc.BacktestPlan(train_window_days=np.int64(90), n_versions=np.int64(2),
                               horizons=(np.int64(6),))
        assert (plan.train_window_days, plan.n_versions, plan.horizons) == (90, 2, (6,))


class TestArms:
    def test_standard_roster(self):
        ids = [arm.id for arm in sc.standard_arms()]
        assert ids == ["E1", "E2", "E3.1", "E3.3", "E3.5", "E3.7", "E3.9",
                       "E4", "E5", "E4-S", "E4-V", "E4-PB"]

    def test_design_of_named_arms(self):
        e1 = sc.arm_by_id("E1")
        assert e1.transform.kind == "identity" and e1.loss.kind == "mse"
        e4 = sc.arm_by_id("E4")
        assert e4.transform.kind == "log" and e4.loss.kind == "mse"
        assert e4.corrector_kind == "none"
        e5 = sc.arm_by_id("E5")
        assert e5.transform.kind == "log"
        assert e5.loss.kind == "mse" and e5.weight_scheme.kind == "sqrt_sales"
        e35 = sc.arm_by_id("E3.5")
        assert e35.loss.kind == "tweedie" and e35.loss.power == pytest.approx(1.5)
        assert sc.arm_by_id("E4-PB").corrector_kind == "prediction_binned"

    def test_unknown_arm_id(self):
        with pytest.raises(ConfigError):
            sc.arm_by_id("E9")

    def test_arm_id_validation(self):
        with pytest.raises(ConfigError):
            sc.ExperimentArm("a,b", sc.TargetTransform(kind="log"),
                             sc.LossSpec.mse(), sc.WeightScheme(kind="unit"))
        with pytest.raises(ConfigError):
            sc.ExperimentArm("ok", sc.TargetTransform(kind="log"),
                             sc.LossSpec.mse(), sc.WeightScheme(kind="unit"),
                             corrector_kind="mystery")

    @pytest.mark.parametrize("kind", ["variance_based", "smearing", "prediction_binned"])
    def test_identity_arm_takes_no_corrector(self, kind):
        identity = sc.TargetTransform(kind="identity")
        with pytest.raises(ConfigError, match=f"arm RAW: a {kind} corrector needs a log or "
                                              "sqrt transform, not identity"):
            sc.ExperimentArm("RAW", identity, sc.LossSpec.mse(), sc.WeightScheme(kind="unit"),
                             corrector_kind=kind)

    def test_plan_json_round_trip(self):
        plan = sc.BacktestPlan(train_window_days=200, n_versions=3,
                               horizons=(6, 24), baseline_id="E4",
                               arms=(sc.arm_by_id("E1"), sc.arm_by_id("E4")),
                               learner=FAST_LEARNER)
        again = sc.BacktestPlan.from_json(json.loads(json.dumps(plan.to_json())))
        assert again == plan

    def test_numpy_integer_plan_dumps_to_json(self):
        plan = sc.BacktestPlan(train_window_days=np.int64(200), n_versions=np.int64(3),
                               horizons=(np.int64(6),), learner=FAST_LEARNER)
        again = sc.BacktestPlan.from_json(json.loads(json.dumps(plan.to_json())))
        assert again == plan

    def test_unset_paths_are_left_out(self):
        plan = sc.BacktestPlan(n_versions=2, learner=FAST_LEARNER)
        obj = plan.to_json()
        assert "panel_path" not in obj and "gen_config_path" not in obj
        assert sc.BacktestPlan.from_json(obj) == plan
        obj = sc.BacktestPlan(panel_path="p.csv", gen_config_path="g.json").to_json()
        assert (obj["panel_path"], obj["gen_config_path"]) == ("p.csv", "g.json")

    def test_plan_accepts_arm_ids_as_strings(self):
        plan = sc.BacktestPlan.from_json({
            "train_window_days": 150,
            "n_versions": 2,
            "horizons": [6],
            "arms": ["E1", "E5"],
            "baseline_id": "E5",
        })
        assert [a.id for a in plan.arms] == ["E1", "E5"]
        assert plan.arms[1].weight_scheme.kind == "sqrt_sales"

    @pytest.mark.parametrize("edit", [
        lambda obj: [1, 2],
        lambda obj: {**obj, "transform": "log"},
        lambda obj: {**obj, "loss": 3},
        lambda obj: {**obj, "weight_scheme": ["unit"]},
        lambda obj: {**obj, "id": 7},
        lambda obj: {**obj, "transform": {"kind": "log", "offset": math.nan}},
        lambda obj: {**obj, "loss": {"kind": "pseudo_huber", "delta": math.inf}},
    ], ids=["arm-not-object", "transform-not-object", "loss-not-object",
            "weights-not-object", "id-not-text", "nan-offset", "inf-delta"])
    def test_malformed_arm_json_is_config_error(self, edit):
        obj = sc.arm_by_id("E5").to_json()
        with pytest.raises(ConfigError):
            sc.ExperimentArm.from_json(edit(obj))

    @pytest.mark.parametrize("field, value", [("oracle", "false"), ("oracle", True),
                                              ("corector_kind", "smearing")],
                             ids=["retired-oracle-text", "retired-oracle", "typo"])
    def test_unknown_arm_field_is_config_error(self, field, value):
        obj = {**sc.arm_by_id("E4").to_json(), field: value}
        with pytest.raises(ConfigError, match=f"unknown field '{field}'"):
            sc.ExperimentArm.from_json(obj)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field, make", [
        ("power", lambda v: sc.LossSpec.tweedie(v)),
        ("delta", lambda v: sc.LossSpec.pseudo_huber(v)),
    ], ids=["power", "delta"])
    def test_non_finite_parameters_are_config_errors(self, field, make, value):
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            make(value)

    @pytest.mark.parametrize("from_json", [
        sc.TargetTransform.from_json, sc.LossSpec.from_json, sc.WeightScheme.from_json,
        sc.BiasCorrector.from_json,
    ], ids=["transform", "loss", "weights", "corrector"])
    @pytest.mark.parametrize("obj", [["unit"], "log"])
    def test_arm_parts_need_an_object(self, from_json, obj):
        with pytest.raises(ConfigError):
            from_json(obj)

    @pytest.mark.parametrize("obj", [
        [1, 2], "plan", None, {"arms": 5}, {"arms": [3]}, {"horizons": 6},
    ], ids=["list", "string", "null", "arms-not-list", "arm-not-object",
            "horizons-not-list"])
    def test_malformed_plan_json_is_config_error(self, obj):
        with pytest.raises(ConfigError):
            sc.BacktestPlan.from_json(obj)


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SKEWCAST_THREADS", "3")
        assert worker_count() == 3

    def test_default_is_positive(self, monkeypatch):
        monkeypatch.delenv("SKEWCAST_THREADS", raising=False)
        assert worker_count() >= 1

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv("SKEWCAST_THREADS", "many")
        with pytest.raises(ConfigError):
            worker_count()
        monkeypatch.setenv("SKEWCAST_THREADS", "0")
        with pytest.raises(ConfigError):
            worker_count()


class TestInversionCount:
    def test_directions(self):
        assert _count_inversions([1.0, 2.0, 3.0], "non_decreasing") == 0
        assert _count_inversions([1.0, 2.0, 3.0], "non_increasing") == 2
        assert _count_inversions([3.0, 1.0, 2.0], "non_decreasing") == 1
        assert _count_inversions([2.0, 2.0], "non_increasing") == 0
        assert _count_inversions([5.0], "non_decreasing") == 0


@pytest.fixture(scope="module")
def oracle_report():
    panel = _wavy_panel()
    truth = sc.ExperimentArm("TRUTH", sc.TargetTransform(kind="log"),
                             sc.LossSpec.mse(), sc.WeightScheme(kind="unit"))
    plan = sc.BacktestPlan(train_window_days=60, n_versions=2,
                           horizons=(6, 12), arms=(truth, sc.arm_by_id("E1")),
                           baseline_id="E1", learner=FAST_LEARNER)
    with pytest.MonkeyPatch.context() as mp:
        scoring_actuals(mp, "TRUTH")
        return sc.run_backtest(plan, panel=panel)


class TestGridRuns:
    def test_oracle_grid_scores_zero(self, oracle_report):
        truth_rows = [vm for arm_id, vm in oracle_report.rows if arm_id == "TRUTH"]
        assert len(truth_rows) == 2 * 2  # versions x horizons
        for vm in truth_rows:
            assert vm.wmape == 0.0
            assert vm.wbias == 0.0

    def test_self_baseline_relatives(self, oracle_report):
        for h in (6, 12):
            rel = oracle_report.relatives["E1"][h]
            assert rel.wmape_rel == 1.0
            assert abs(rel.wbias_rel) == 1.0
            assert oracle_report.relatives["TRUTH"][h].wmape_rel == 0.0

    def test_output_files(self, oracle_report, tmp_path):
        write_backtest_outputs(oracle_report, tmp_path)
        csv_lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
        assert csv_lines[0] == ("config_id,version,horizon_weeks,wmape,wbias,total_actual,"
                                "skipped_items")
        assert len(csv_lines) == 1 + len(oracle_report.rows)
        obj = json.loads((tmp_path / "report.json").read_text())
        assert obj["baseline_id"] == "E1"
        assert obj["horizons"] == [6, 12]
        assert set(obj["arms"]) == {"TRUTH", "E1"}
        assert obj["arms"]["TRUTH"]["aggregates"]["6"]["wmape"] == 0.0

    def test_unwritable_outputs_are_io_failures(self, oracle_report, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="^cannot create output directory "
                                            f"{re.escape(str(afile / 'sub'))}: "):
            write_backtest_outputs(oracle_report, afile / "sub")
        report_json = tmp_path / "out" / "report.json"
        report_json.mkdir(parents=True)
        with pytest.raises(DataError, match=f"^cannot write {re.escape(str(report_json))}: "):
            write_backtest_outputs(oracle_report, tmp_path / "out")

    def test_baseline_must_be_in_plan(self):
        panel = _flat_panel(n_days=300)
        plan = sc.BacktestPlan(train_window_days=60, n_versions=1, horizons=(6,),
                               arms=(sc.arm_by_id("E1"),), baseline_id="E5",
                               learner=FAST_LEARNER)
        with pytest.raises(ConfigError):
            sc.run_backtest(plan, panel=panel)

    def test_missing_panel_and_path(self):
        plan = sc.BacktestPlan(train_window_days=60, n_versions=1, horizons=(6,),
                               arms=(sc.arm_by_id("E1"),), baseline_id="E1")
        with pytest.raises(ConfigError):
            sc.run_backtest(plan)

    def test_raw_target_avoids_transformation_bias(self, grid_report):
        """Fitting sales directly has no back-transformation step, so its
        bias stays far closer to zero than the naive log-target arm's."""
        for h in grid_report.horizons:
            e1 = grid_report.aggregates["E1"][h]
            e4 = grid_report.aggregates["E4"][h]
            assert abs(e1.wbias) < abs(e4.wbias)
            assert e4.wbias < 0.0


class _FitCounter:
    """Counts calls to ``backtest.fit``; grid jobs run on several threads."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._lock = threading.Lock()
        self._fit = backtest.fit
        monkeypatch.setattr(backtest, "fit", self)

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
        return self._fit(*args, **kwargs)


def _arm_rows(report, arm_id):
    return [vm for aid, vm in report.rows if aid == arm_id]


def _small_plan(arms, learner, baseline_id=None):
    return sc.BacktestPlan(train_window_days=120, n_versions=2, horizons=(6, 12),
                           arms=tuple(arms), baseline_id=baseline_id or arms[0].id,
                           learner=learner)


class TestModelGroups:
    """Arms sharing a model are fitted once per origin and score the same
    bits as when each runs alone."""

    @pytest.mark.parametrize("learner", [
        FAST_LEARNER,
        sc.LearnerConfig(base="linear", rounds=12),
    ], ids=["tree", "linear"])
    def test_grouped_rows_equal_solo_rows(self, small_panel, learner):
        e4 = sc.arm_by_id("E4")
        arms = [e4, sc.arm_by_id("E4-S"), sc.arm_by_id("E4-V"), sc.arm_by_id("E4-PB"),
                dataclasses.replace(e4, id="E4-copy")]
        grouped = sc.run_backtest(_small_plan(arms, learner), panel=small_panel)
        for arm in arms:
            alone = sc.run_backtest(_small_plan([arm], learner), panel=small_panel)
            assert len(alone.rows) == 2 * 2  # versions x horizons
            assert _arm_rows(grouped, arm.id) == _arm_rows(alone, arm.id)

    def test_standard_roster_fits_each_model_once(self, small_panel, monkeypatch):
        counter = _FitCounter(monkeypatch)
        plan = _small_plan(sc.standard_arms(), sc.LearnerConfig(base="linear", rounds=3),
                           baseline_id="E5")
        report = sc.run_backtest(plan, panel=small_panel)
        assert len(report.rows) == 12 * 2 * 2
        # E4, E4-S, E4-V and E4-PB share one model: 9 distinct of 12
        assert counter.calls == 9 * plan.n_versions

    def test_scoring_actuals_replaces_only_the_named_arm(self, small_panel, monkeypatch):
        e4 = sc.arm_by_id("E4")
        alone = sc.run_backtest(_small_plan([e4], FAST_LEARNER), panel=small_panel)
        counter = _FitCounter(monkeypatch)
        scoring_actuals(monkeypatch, "TRUTH")
        truth = dataclasses.replace(e4, id="TRUTH")
        report = sc.run_backtest(_small_plan([e4, truth], FAST_LEARNER), panel=small_panel)
        assert counter.calls == 2  # E4 and TRUTH share one model per origin
        truth_rows = _arm_rows(report, "TRUTH")
        assert len(truth_rows) == 2 * 2
        assert all(vm.wmape == 0.0 and vm.wbias == 0.0 for vm in truth_rows)
        assert _arm_rows(report, "E4") == _arm_rows(alone, "E4")
        assert _arm_rows(report, "E4")[0].wmape > 0.0


class TestForecastSeam:
    """``_forecasts`` corrects each arm exactly as ``FitModel.predict`` does."""

    def test_fit_arm_fits_a_group_once(self, small_panel, monkeypatch):
        """The arms share one fit and differ only in their correctors."""
        fits = []
        real_fit = backtest.fit
        monkeypatch.setattr(backtest, "fit", lambda *a: fits.append(1) or real_fit(*a))
        arms = [sc.arm_by_id(a) for a in ("E4", "E4-S", "E4-PB")]
        models = backtest.fit_arm(arms, small_panel, FAST_LEARNER)
        assert len(fits) == 1
        assert [m.bias_corrector.kind for m in models] == ["none", "smearing",
                                                          "prediction_binned"]
        assert all(m.trees is models[0].trees for m in models)

    def test_uncorrected_arms_get_the_fitted_model_itself(self, small_panel):
        e4 = sc.arm_by_id("E4")
        arms = [e4, sc.arm_by_id("E4-S"), dataclasses.replace(e4, id="E4-copy")]
        models = backtest.fit_arm(arms, small_panel, FAST_LEARNER)
        assert models[0] is models[2]
        assert models[0].bias_corrector == sc.BiasCorrector()
        assert models[1] is not models[0]

    def test_fit_arm_needs_one_shared_model(self, small_panel):
        with pytest.raises(ConfigError, match=r"share one transform, loss and weight scheme, "
                                              r"got \['E4', 'E5'\]"):
            backtest.fit_arm([sc.arm_by_id("E4"), sc.arm_by_id("E5")], small_panel,
                             FAST_LEARNER)

    @pytest.mark.parametrize("learner", [FAST_LEARNER,
                                         sc.LearnerConfig(base="linear", rounds=5)],
                             ids=["tree", "linear"])
    def test_matches_fit_arm_predict(self, small_panel, learner):
        arms = [sc.arm_by_id(a) for a in ("E4", "E4-S", "E4-V", "E4-PB")]
        plan = _small_plan(arms, learner)
        origin = version_origins(small_panel, plan)[0]
        test = small_panel.slice_days(origin + dt.timedelta(days=1),
                                      origin + dt.timedelta(days=7 * max(plan.horizons)))
        train, _ = backtest._windows(small_panel, plan, origin)
        got = backtest._forecasts(arms, plan, train, test)
        assert len(got) == len(arms)
        for arm, preds in zip(arms, got):
            (model,) = backtest.fit_arm([arm], train, learner)
            assert np.array_equal(preds, model.predict(test.feature_matrix)), arm.id


class TestGridErrors:
    """A failing job names its arms and origin and keeps its error family."""

    def test_data_error_names_arm_and_origin(self, small_panel):
        gamma = sc.ExperimentArm("GAMMA", sc.TargetTransform(kind="identity"),
                                 sc.LossSpec.gamma(), sc.WeightScheme(kind="unit"))
        assert (small_panel.sales == 0).any()  # gamma deviance needs y > 0
        plan = _small_plan([sc.arm_by_id("E1"), gamma], FAST_LEARNER)
        first_origin = version_origins(small_panel, plan)[0]
        with pytest.raises(DataError) as info:
            sc.run_backtest(plan, panel=small_panel)
        assert not isinstance(info.value, ConfigError)
        assert "arm GAMMA at origin " in str(info.value)
        assert first_origin.isoformat() in str(info.value)
        assert isinstance(info.value.__cause__, DataError)
        assert str(info.value.__cause__) == "gamma deviance needs y > 0"

    def test_config_error_names_every_arm_of_the_group(self, small_panel):
        log = sc.TargetTransform(kind="log")
        unit = sc.WeightScheme(kind="unit")
        arms = [sc.ExperimentArm("TW-LOG", log, sc.LossSpec.tweedie(1.5), unit),
                sc.ExperimentArm("TW-LOG-S", log, sc.LossSpec.tweedie(1.5), unit,
                                 corrector_kind="smearing")]
        with pytest.raises(ConfigError) as info:
            sc.run_backtest(_small_plan(arms, FAST_LEARNER), panel=small_panel)
        assert "arms TW-LOG, TW-LOG-S at origin " in str(info.value)
        assert isinstance(info.value.__cause__, ConfigError)


class TestPreflight:
    """Every job is checked before the first one starts: a plan that cannot work on
    its panel fails before the first fit, naming every failing arm and origin."""

    @pytest.mark.parametrize("transform,loss,message", [
        (sc.TargetTransform(kind="identity"), sc.LossSpec.gamma(),
         "gamma deviance needs y > 0"),
    ], ids=["gamma"])
    def test_zero_sales_fail_before_any_fit(self, small_panel, monkeypatch,
                                            transform, loss, message):
        assert (small_panel.sales == 0).any()
        bad = sc.ExperimentArm("BAD", transform, loss, sc.WeightScheme(kind="unit"))
        plan = _small_plan([sc.arm_by_id("E1"), bad], FAST_LEARNER)
        counter = _FitCounter(monkeypatch)
        with pytest.raises(DataError) as info:
            sc.run_backtest(plan, panel=small_panel)
        assert counter.calls == 0
        assert not isinstance(info.value, ConfigError)
        assert isinstance(info.value.__cause__, DataError)
        assert str(info.value.__cause__) == message
        for origin in version_origins(small_panel, plan):
            assert f"arm BAD at origin {origin}: {message}" in str(info.value)
        assert "E1" not in str(info.value)

    def test_constant_training_target_fails_before_any_fit(self, monkeypatch):
        panel = _flat_panel(n_days=400)
        plan = sc.BacktestPlan(train_window_days=100, n_versions=2, horizons=(6,),
                               arms=(sc.arm_by_id("E4"),), baseline_id="E4",
                               learner=FAST_LEARNER)
        counter = _FitCounter(monkeypatch)
        with pytest.raises(DataError, match="all target values are identical") as info:
            sc.run_backtest(plan, panel=panel)
        assert counter.calls == 0
        assert isinstance(info.value.__cause__, DataError)
        assert str(info.value.__cause__) == "all target values are identical; nothing to fit"

    def test_one_row_training_window_fails_before_any_fit(self, monkeypatch):
        """A window that passes holds at least two rows, not all equal, so
        every corrector has the rows it needs: smearing and binned one,
        variance two."""
        panel = _wavy_panel(n_items=1)
        arms = tuple(sc.arm_by_id(a) for a in ("E4-S", "E4-V", "E4-PB"))
        plan = sc.BacktestPlan(train_window_days=1, n_versions=2, horizons=(6,),
                               arms=arms, baseline_id="E4-S", learner=FAST_LEARNER)
        windows = [backtest._windows(panel, plan, origin)
                   for origin in version_origins(panel, plan)]
        assert [len(train) for train, _ in windows] == [1, 1]
        counter = _FitCounter(monkeypatch)
        with pytest.raises(DataError, match="all target values are identical"):
            sc.run_backtest(plan, panel=panel)
        assert counter.calls == 0

    def test_config_problem_fails_before_any_fit(self, small_panel, monkeypatch):
        arm = sc.ExperimentArm("TW-LOG", sc.TargetTransform(kind="log"),
                               sc.LossSpec.tweedie(1.5), sc.WeightScheme(kind="unit"))
        counter = _FitCounter(monkeypatch)
        with pytest.raises(ConfigError, match="arm TW-LOG at origin "):
            sc.run_backtest(_small_plan([sc.arm_by_id("E1"), arm], FAST_LEARNER),
                            panel=small_panel)
        assert counter.calls == 0


class _SliceCounter:
    """Counts calls to ``SalesPanel.slice_days``, from any thread."""

    def __init__(self, monkeypatch):
        self.calls = 0
        lock = threading.Lock()
        real_slice = sc.SalesPanel.slice_days

        def slice_days(panel, first, last):
            with lock:
                self.calls += 1
            return real_slice(panel, first, last)

        monkeypatch.setattr(sc.SalesPanel, "slice_days", slice_days)


class TestGridRunner:
    """A job is one origin: the calling thread runs jobs beside
    ``SKEWCAST_THREADS - 1`` helpers, and an origin's windows are sliced
    when its job starts and dropped when it ends."""

    @staticmethod
    def _plan():
        # two model groups (E1; E4 and E4-S) at each of 4 origins
        return sc.BacktestPlan(train_window_days=120, n_versions=4, horizons=(6,),
                               arms=tuple(sc.arm_by_id(a) for a in ("E1", "E4", "E4-S")),
                               baseline_id="E1", learner=sc.LearnerConfig(rounds=3, max_depth=2))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_calling_thread_runs_fits(self, small_panel, monkeypatch, threads):
        fit_threads = []
        real_fit = backtest.fit
        monkeypatch.setattr(backtest, "fit",
                            lambda *a: fit_threads.append(threading.get_ident()) or real_fit(*a))
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or real_start(thread))
        monkeypatch.setenv("SKEWCAST_THREADS", threads)
        sc.run_backtest(self._plan(), panel=small_panel)
        assert len(fit_threads) == 2 * 4
        assert threading.get_ident() in fit_threads
        if threads == "1":
            assert set(fit_threads) == {threading.get_ident()}
            assert started == []
        else:
            assert len(set(fit_threads)) <= 2
            assert len(started) == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_thread_holds_one_origin_s_windows(self, small_panel, monkeypatch, threads):
        """Counted at every fit, the training windows alive never outnumber
        the threads, and each origin's two windows are sliced once."""
        lock = threading.Lock()
        alive = 0
        at_fits = []

        def dropped():
            nonlocal alive
            with lock:
                alive -= 1

        real_windows = backtest._windows

        def windows(*args):
            nonlocal alive
            train, test = real_windows(*args)
            with lock:
                alive += 1
            weakref.finalize(train, dropped)
            return train, test

        real_fit = backtest.fit
        monkeypatch.setattr(backtest, "_windows", windows)
        monkeypatch.setattr(backtest, "fit", lambda *a: at_fits.append(alive) or real_fit(*a))
        slices = _SliceCounter(monkeypatch)
        monkeypatch.setenv("SKEWCAST_THREADS", threads)
        plan = self._plan()
        sc.run_backtest(plan, panel=small_panel)
        assert len(at_fits) == 2 * 4
        assert 1 <= max(at_fits) <= int(threads)
        assert alive == 0
        assert slices.calls == 2 * plan.n_versions

    def test_more_threads_than_cores_run_each_job_once(self, small_panel, monkeypatch):
        """Six threads share 8 origins under a short switch interval: no
        origin is lost or run twice, and the rows are the one-thread rows."""
        plan = dataclasses.replace(self._plan(), n_versions=8)
        monkeypatch.setenv("SKEWCAST_THREADS", "1")
        alone = sc.run_backtest(plan, panel=small_panel)
        fits = []
        real_fit = backtest.fit
        monkeypatch.setattr(backtest, "fit",
                            lambda train, *a: fits.append((train.date_range, *a[:3]))
                            or real_fit(train, *a))
        monkeypatch.setenv("SKEWCAST_THREADS", "6")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = sc.run_backtest(plan, panel=small_panel)
        finally:
            sys.setswitchinterval(interval)
        assert len(fits) == len(set(fits)) == 2 * 8
        assert report.rows == alone.rows

    def test_no_more_threads_than_origins(self, small_panel, monkeypatch):
        """Sixteen threads on two origins build one helper; a second one
        fails the run before any helper starts."""
        built = []
        real_thread = threading.Thread

        def thread(*args, **kwargs):
            built.append(1)
            assert len(built) == 1, "a helper thread for an origin that is not there"
            return real_thread(*args, **kwargs)

        monkeypatch.setattr(backtest.threading, "Thread", thread)
        monkeypatch.setenv("SKEWCAST_THREADS", "16")
        plan = dataclasses.replace(self._plan(), n_versions=2)
        report = sc.run_backtest(plan, panel=small_panel)
        assert len(built) == 1
        assert len(report.origins) == 2

    def test_a_failing_preflight_slices_no_window(self, small_panel, monkeypatch):
        gamma = sc.ExperimentArm("BAD", sc.TargetTransform(kind="identity"),
                                 sc.LossSpec.gamma(), sc.WeightScheme(kind="unit"))
        plan = dataclasses.replace(self._plan(), arms=(sc.arm_by_id("E1"), gamma))
        slices = _SliceCounter(monkeypatch)
        with pytest.raises(DataError, match="gamma deviance needs y > 0"):
            sc.run_backtest(plan, panel=small_panel)
        assert slices.calls == 0


@pytest.fixture(scope="module")
def control_ladder():
    panel = _symmetric_panel()
    plan = sc.BacktestPlan(train_window_days=100, n_versions=2,
                           horizons=(6,), learner=FAST_LEARNER)
    return sc.run_weight_ladder(plan, panel=panel)


@pytest.fixture(scope="module")
def control_sweep():
    plan = sc.BacktestPlan(train_window_days=100, n_versions=2,
                           horizons=(6,), learner=FAST_LEARNER)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backtest, "SWEEP_POWERS", (1.3, 1.7))
        return sc.run_power_sweep(plan, panel=_symmetric_panel())


_STUDIES = pytest.mark.parametrize("study, names", [
    ("oracle_report", ["metrics.csv", "report.json"]),
    ("control_ladder", ["ladder.csv", "metrics.csv", "report.json"]),
    ("control_sweep", ["sweep.csv", "metrics.csv", "report.json"]),
])


class TestStudyOutputs:
    """One writer for every study; each report names its own files."""

    @_STUDIES
    def test_the_writer_returns_the_names_it_wrote(self, request, tmp_path, study, names):
        out = tmp_path / "out"
        assert write_backtest_outputs(request.getfixturevalue(study), out) == names
        assert sorted(p.name for p in out.iterdir()) == sorted(names)

    @pytest.mark.parametrize("study, command", [
        ("oracle_report", "backtest"),
        ("control_ladder", "ladder"),
        ("control_sweep", "sweep"),
    ])
    def test_the_names_are_known_before_the_study_runs(self, request, tmp_path, study, command):
        """What the CLI checks against its inputs is what the writer writes."""
        report = request.getfixturevalue(study)
        assert backtest.STUDIES[command].files == write_backtest_outputs(report, tmp_path)

    @_STUDIES
    def test_a_report_is_frozen(self, request, study, names):
        report = request.getfixturevalue(study)
        for f in dataclasses.fields(report):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, f.name, getattr(report, f.name))

    @pytest.mark.parametrize("study, change", [
        ("oracle_report", lambda r: r.rows.clear()),
        ("oracle_report", lambda r: r.origins.append(dt.date(2021, 1, 1))),
        ("oracle_report", lambda r: r.aggregates.clear()),
        ("oracle_report", lambda r: r.aggregates["E1"].pop(6)),
        ("oracle_report", lambda r: r.relatives.__setitem__("E1", {})),
        ("control_ladder", lambda r: r.table.clear()),
        ("control_ladder", lambda r: r.table[0].__setitem__("wmape", 0.0)),
        ("control_ladder", lambda r: r.axis_values.append("x")),
        ("control_ladder", lambda r: r.verdicts[6].__setitem__("monotone", False)),
        ("control_ladder", lambda r: r.verdicts[6]["wbias_series"].append(0.0)),
        ("control_sweep", lambda r: r.extra["best_wmape_power"].__setitem__("6", "9.9")),
        ("control_sweep", lambda r: r.extra.clear()),
    ], ids=["rows", "origins", "aggregates", "aggregates-of-an-arm", "relatives", "table",
            "table-row", "axis-values", "verdict", "wbias-series", "extra-nested", "extra"])
    def test_a_finished_report_cannot_change(self, request, tmp_path, study, change):
        """Every container a report holds is a tuple or a read-only mapping,
        so what it writes is what its study found."""
        report = request.getfixturevalue(study)
        before = report.to_json()
        with pytest.raises((AttributeError, TypeError)):
            change(report)
        assert report.to_json() == before
        assert json.loads(json.dumps(before)) == before  # plain JSON values
        write_backtest_outputs(report, tmp_path)


class TestTrendRuns:
    def test_ladder_table_shape(self, control_ladder):
        assert control_ladder.axis_name == "scheme"
        assert control_ladder.axis_values == tuple(s.kind for s in LADDER_SCHEMES)
        assert {arm_id for arm_id, _ in control_ladder.rows} == {
            "W0-unit", "W1-log_sales", "W2-sqrt_sales", "W3-linear_sales"}
        assert len(control_ladder.table) == len(LADDER_SCHEMES)
        assert set(control_ladder.verdicts) == {6}
        verdict = control_ladder.verdicts[6]
        assert verdict["wbias_direction"] == "non_decreasing"
        assert len(verdict["wbias_series"]) == len(LADDER_SCHEMES)

    def test_symmetric_panel_gives_flat_ladder(self, control_ladder):
        """Without skew there is no transformation bias to repair, so
        every weighting rung lands near zero."""
        series = control_ladder.verdicts[6]["wbias_series"]
        assert max(abs(b) for b in series) < 0.03
        assert max(series) - min(series) < 0.02

    def test_trend_outputs(self, control_ladder, tmp_path):
        write_backtest_outputs(control_ladder, tmp_path)
        lines = (tmp_path / "ladder.csv").read_text().strip().split("\n")
        assert lines[0] == "scheme,horizon_weeks,wmape,wbias,total_actual,n_versions,skipped_items"
        assert len(lines) == 1 + len(control_ladder.table)
        assert lines[1].startswith("unit,6,")
        obj = json.loads((tmp_path / "report.json").read_text())
        assert obj["axis"] == "scheme"
        assert obj["order"][0] == "unit"
        assert (tmp_path / "metrics.csv").exists()

    def test_trend_csv_header_is_the_axis_the_horizon_and_the_aggregate_keys(
            self, control_ladder, tmp_path, monkeypatch):
        monkeypatch.setattr(backtest, "SWEEP_POWERS", (1.3, 1.7))
        plan = sc.BacktestPlan(train_window_days=100, n_versions=2,
                               horizons=(6,), learner=FAST_LEARNER)
        sweep = sc.run_power_sweep(plan, panel=_symmetric_panel())
        aggregate_keys = list(backtest._agg_json(sc.AggregateMetrics(6, 0.1, -0.1, 1.0, 1, 0)))
        for report, name in [(control_ladder, "ladder.csv"), (sweep, "sweep.csv")]:
            write_backtest_outputs(report, tmp_path)
            lines = (tmp_path / name).read_text().strip().split("\n")
            assert lines[0].split(",") == [report.axis_name, "horizon_weeks", *aggregate_keys]
            assert tuple(line.split(",")[0] for line in lines[1:]) == report.axis_values

    def test_unwritable_trend_outputs_are_io_failures(self, control_ladder, tmp_path):
        (tmp_path / "ladder.csv").mkdir()
        with pytest.raises(DataError,
                           match=f"^cannot write {re.escape(str(tmp_path / 'ladder.csv'))}: "):
            write_backtest_outputs(control_ladder, tmp_path)

    def test_sweep_reports_best_and_theoretical_power(self, tmp_path, small_panel, monkeypatch):
        cfg = sc.GenConfig(n_items=30, n_days=260, seed=7)
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
        plan = sc.BacktestPlan(train_window_days=150, n_versions=2,
                               horizons=(6,), learner=FAST_LEARNER,
                               gen_config_path=str(cfg_path))
        monkeypatch.setattr(backtest, "SWEEP_POWERS", (1.3, 1.7))
        report = sc.run_power_sweep(plan, panel=small_panel)
        assert report.extra["theoretical_tweedie_power"] == pytest.approx(1.5)
        assert report.extra["best_wmape_power"]["6"] in {"1.3", "1.7"}
        assert report.axis_values == ("1.3", "1.7")
        assert {r["power"] for r in report.table} == {"1.3", "1.7"}

    def test_sweep_with_a_missing_generator_config_fails_before_any_fit(
            self, tmp_path, small_panel, monkeypatch):
        forecasts = backtest._forecasts
        calls = []

        def counted(*args):
            calls.append(1)
            return forecasts(*args)

        monkeypatch.setattr(backtest, "_forecasts", counted)
        monkeypatch.setattr(backtest, "SWEEP_POWERS", (1.3, 1.7))
        plan = sc.BacktestPlan(train_window_days=150, n_versions=2,
                               horizons=(6,), learner=FAST_LEARNER,
                               gen_config_path=str(tmp_path / "missing.json"))
        with pytest.raises(ConfigError, match="missing.json"):
            sc.run_power_sweep(plan, panel=small_panel)
        assert calls == []

    def test_sweep_powers_are_the_five_classics(self):
        assert SWEEP_POWERS == (1.1, 1.3, 1.5, 1.7, 1.9)


def _files(report, out_dir) -> dict:
    """The bytes of each file ``write_backtest_outputs`` writes for ``report``."""
    return {name: (out_dir / name).read_bytes()
            for name in write_backtest_outputs(report, out_dir)}


def _fit_keys(monkeypatch) -> list:
    """Records each ``backtest.fit`` call as (training days, transform, loss,
    weights), from any thread."""
    keys = []
    real_fit = backtest.fit
    monkeypatch.setattr(backtest, "fit", lambda train, *a: keys.append((train.date_range, *a[:3]))
                        or real_fit(train, *a))
    return keys


class TestStudies:
    """``run_study`` runs the studies on one grid: each shared model is
    fitted once, and each report is the one its study gives alone."""

    _RUNNERS = {"backtest": sc.run_backtest, "ladder": sc.run_weight_ladder,
                "sweep": sc.run_power_sweep}

    @staticmethod
    def _plan():
        truth = dataclasses.replace(sc.arm_by_id("E4"), id="TRUTH")  # E4's design
        return _small_plan([sc.arm_by_id("E4"), sc.arm_by_id("E5"), truth], FAST_LEARNER,
                           baseline_id="E5")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_study_writes_the_bytes_it_writes_alone(self, small_panel, monkeypatch,
                                                         tmp_path, threads):
        monkeypatch.setenv("SKEWCAST_THREADS", threads)
        scoring_actuals(monkeypatch, "TRUTH")
        plan = self._plan()
        keys = _fit_keys(monkeypatch)
        together = sc.run_study(plan, panel=small_panel)
        # E4, TRUTH and W0-unit share a model, as do E5 and W2-sqrt_sales:
        # 2 + 2 + 5 distinct models at each of 2 origins
        assert len(keys) == len(set(keys)) == 9 * 2
        assert list(together) == list(backtest.STUDIES)
        for name, runner in self._RUNNERS.items():
            assert (_files(together[name], tmp_path / "together" / name)
                    == _files(runner(plan, panel=small_panel), tmp_path / "alone" / name)), name

    def test_scoring_actuals_replaces_only_the_named_arm(self, small_panel, monkeypatch):
        """TRUTH shares its fit with E4 and W0-unit, but only TRUTH scores the actuals."""
        plan = self._plan()
        alone = sc.run_backtest(dataclasses.replace(plan, arms=plan.arms[:2]), panel=small_panel)
        scoring_actuals(monkeypatch, "TRUTH")
        reports = sc.run_study(plan, panel=small_panel, names=["backtest", "ladder"])
        truth_rows = _arm_rows(reports["backtest"], "TRUTH")
        assert len(truth_rows) == 2 * 2
        assert all(vm.wmape == 0.0 and vm.wbias == 0.0 for vm in truth_rows)
        e4_rows = _arm_rows(reports["backtest"], "E4")
        assert e4_rows == _arm_rows(alone, "E4")
        assert e4_rows[0].wmape > 0.0
        assert _arm_rows(reports["ladder"], "W0-unit") == e4_rows  # E4's design

    def test_the_acceptance_studies_fit_each_model_once(self, default_panel, acceptance_plan,
                                                        monkeypatch):
        """The acceptance plan's 4 arms, the ladder's 4 and the sweep's 5 are
        10 models (ORACLE, E4 and W0-unit share one; E5 and W2-sqrt_sales
        another) at each of 4 origins: 40 fits, not 48."""
        # the count does not depend on the learner, and a one-round linear fit is quick
        plan = dataclasses.replace(acceptance_plan, learner=sc.LearnerConfig(base="linear",
                                                                             rounds=1))
        keys = _fit_keys(monkeypatch)
        sc.run_study(plan, panel=default_panel)
        assert len(keys) == len(set(keys)) == 10 * 4

    def test_an_arm_id_with_two_designs_fails_before_any_fit(self, small_panel, monkeypatch):
        not_w0 = sc.ExperimentArm("W0-unit", sc.TargetTransform(kind="identity"),
                                  sc.LossSpec.mse(), sc.WeightScheme(kind="unit"))
        plan = _small_plan([sc.arm_by_id("E4"), not_w0], FAST_LEARNER)
        counter = _FitCounter(monkeypatch)
        with pytest.raises(ConfigError, match="^arm id 'W0-unit' has two designs in studies "
                                              "backtest, ladder$"):
            sc.run_study(plan, panel=small_panel)
        assert counter.calls == 0
        sc.run_backtest(plan, panel=small_panel)  # each study alone is fine

    def test_an_arm_two_studies_name_is_fitted_and_scored_once(self, small_panel,
                                                              monkeypatch, tmp_path):
        w0 = sc.ExperimentArm("W0-unit", sc.TargetTransform(kind="log"), sc.LossSpec.mse(),
                              sc.WeightScheme(kind="unit"))  # the ladder's own
        plan = _small_plan([sc.arm_by_id("E1"), w0], FAST_LEARNER)
        ladder = sc.run_weight_ladder(plan, panel=small_panel)
        scored = []
        real_score = backtest._score_versions

        def score(*args):
            rows = real_score(*args)
            scored.extend(rows)
            return rows

        monkeypatch.setattr(backtest, "_score_versions", score)
        keys = _fit_keys(monkeypatch)
        reports = sc.run_study(plan, panel=small_panel, names=["backtest", "ladder"])
        assert len(keys) == len(set(keys)) == 5 * 2  # E1 and the ladder's 4
        assert sum(arm_id == "W0-unit" for arm_id, _ in scored) == 2 * 2
        assert _arm_rows(reports["backtest"], "W0-unit") == _arm_rows(ladder, "W0-unit")
        assert _files(reports["ladder"], tmp_path / "a") == _files(ladder, tmp_path / "b")

    def test_an_unknown_study_is_a_config_error(self, small_panel):
        with pytest.raises(ConfigError, match="^unknown study 'grid'; the studies are "
                                              "backtest, ladder, sweep$"):
            sc.run_study(self._plan(), panel=small_panel, names=["grid"])

    def test_a_study_check_fails_before_any_fit(self, small_panel, monkeypatch, tmp_path):
        plan = dataclasses.replace(self._plan(), baseline_id="E1",
                                   gen_config_path=str(tmp_path / "missing.json"))
        counter = _FitCounter(monkeypatch)
        with pytest.raises(ConfigError, match="baseline arm 'E1' is not in the plan"):
            sc.run_study(plan, panel=small_panel)
        with pytest.raises(ConfigError, match="missing.json"):
            sc.run_study(plan, panel=small_panel, names=["ladder", "sweep"])
        assert counter.calls == 0
