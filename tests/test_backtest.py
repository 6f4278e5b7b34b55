"""Backtest grid: scheduling, arms, trend runs, the forecast seam."""

import dataclasses
import datetime as dt
import json
import math
import threading

import numpy as np
import pytest
from conftest import scoring_actuals

import skewcast as sc
from skewcast.backtest import (
    LADDER_SCHEMES,
    SWEEP_POWERS,
    _count_inversions,
    _train_slice,
    version_origins,
    worker_count,
    write_backtest_outputs,
    write_trend_outputs,
)
from skewcast import backtest
from skewcast.errors import ConfigError, DataError, DomainError, InsufficientHistory, IoFailure
from skewcast.metrics import METRICS_CSV_HEADER

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

    def test_cadence_days_controls_spacing(self):
        panel = _flat_panel(n_days=400)
        plan = sc.BacktestPlan(train_window_days=100, n_versions=3,
                               cadence_days=14, horizons=(6,), learner=FAST_LEARNER)
        origins = version_origins(panel, plan)
        assert all((b - a).days == 14 for a, b in zip(origins, origins[1:]))

    def test_short_panel_rejected(self):
        panel = _flat_panel(n_days=120)
        plan = sc.BacktestPlan(train_window_days=100, n_versions=2, horizons=(6,))
        with pytest.raises(InsufficientHistory):
            version_origins(panel, plan)

    def test_training_slice_never_touches_origin(self):
        panel = _flat_panel(n_days=400)
        origin = dt.date(2020, 10, 5)
        train = _train_slice(panel, origin, 90)
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
        with pytest.raises(ConfigError):
            sc.BacktestPlan(arms=(sc.arm_by_id("E1"), sc.arm_by_id("E1")))

    @pytest.mark.parametrize("field", ["train_window_days", "cadence_days", "n_versions", "seed"])
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
        plan = sc.BacktestPlan(train_window_days=np.int64(90), cadence_days=np.int32(7),
                               n_versions=np.int64(2), seed=np.int64(1),
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

    def test_plan_json_round_trip(self):
        plan = sc.BacktestPlan(train_window_days=200, n_versions=3,
                               horizons=(6, 24), baseline_id="E4",
                               arms=(sc.arm_by_id("E1"), sc.arm_by_id("E4")),
                               learner=FAST_LEARNER, seed=3)
        again = sc.BacktestPlan.from_json(json.loads(json.dumps(plan.to_json())))
        assert again == plan

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
        ("offset", lambda v: sc.TargetTransform(kind="log", offset=v)),
        ("power", lambda v: sc.LossSpec.tweedie(v)),
        ("delta", lambda v: sc.LossSpec.pseudo_huber(v)),
        ("alpha", lambda v: sc.WeightScheme(kind="power", alpha=v)),
        ("bin_width", lambda v: sc.BiasCorrector(kind="prediction_binned", bin_width=v,
                                                 bin_factors=(1.0,))),
    ], ids=["offset", "power", "delta", "alpha", "bin_width"])
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
        assert csv_lines[0] == METRICS_CSV_HEADER
        assert len(csv_lines) == 1 + len(oracle_report.rows)
        obj = json.loads((tmp_path / "report.json").read_text())
        assert obj["baseline_id"] == "E1"
        assert obj["horizons"] == [6, 12]
        assert set(obj["arms"]) == {"TRUTH", "E1"}
        assert obj["arms"]["TRUTH"]["aggregates"]["6"]["wmape"] == 0.0

    def test_unwritable_outputs_are_io_failures(self, oracle_report, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        with pytest.raises(IoFailure):
            write_backtest_outputs(oracle_report, afile / "sub")
        (tmp_path / "out" / "report.json").mkdir(parents=True)
        with pytest.raises(IoFailure):
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
        sc.LearnerConfig(rounds=12, max_depth=3, subsample=0.6, seed=4),
        sc.LearnerConfig(base="linear", rounds=12),
    ], ids=["tree", "subsample", "linear"])
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

    @pytest.mark.parametrize("learner", [FAST_LEARNER,
                                         sc.LearnerConfig(base="linear", rounds=5)],
                             ids=["tree", "linear"])
    def test_matches_fit_arm_predict(self, small_panel, learner):
        arms = [sc.arm_by_id(a) for a in ("E4", "E4-S", "E4-V", "E4-PB")]
        plan = _small_plan(arms, learner)
        origin = version_origins(small_panel, plan)[0]
        test = small_panel.slice_days(origin + dt.timedelta(days=1),
                                      origin + dt.timedelta(days=7 * max(plan.horizons)))
        train = _train_slice(small_panel, origin, plan.train_window_days)
        got = backtest._forecasts(arms, plan, small_panel, origin, test)
        assert len(got) == len(arms)
        for arm, preds in zip(arms, got):
            expected = backtest.fit_arm(arm, train, learner).predict(test.feature_matrix)
            assert np.array_equal(preds, expected), arm.id


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
        assert isinstance(info.value.__cause__, DomainError)

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


@pytest.fixture(scope="module")
def control_ladder():
    panel = _symmetric_panel()
    plan = sc.BacktestPlan(train_window_days=100, n_versions=2,
                           horizons=(6,), learner=FAST_LEARNER)
    return sc.run_weight_ladder(plan, panel=panel)


class TestTrendRuns:
    def test_ladder_table_shape(self, control_ladder):
        assert control_ladder.axis_name == "scheme"
        assert control_ladder.axis_values == [s.label() for s in LADDER_SCHEMES]
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
        write_trend_outputs(control_ladder, tmp_path, "ladder.csv")
        lines = (tmp_path / "ladder.csv").read_text().strip().split("\n")
        assert lines[0] == "scheme,horizon_weeks,wmape,wbias,total_actual,n_versions,skipped_items"
        assert len(lines) == 1 + len(control_ladder.table)
        assert lines[1].startswith("unit,6,")
        obj = json.loads((tmp_path / "report.json").read_text())
        assert obj["axis"] == "scheme"
        assert obj["order"][0] == "unit"
        assert (tmp_path / "metrics.csv").exists()

    def test_unwritable_trend_outputs_are_io_failures(self, control_ladder, tmp_path):
        (tmp_path / "ladder.csv").mkdir()
        with pytest.raises(IoFailure):
            write_trend_outputs(control_ladder, tmp_path, "ladder.csv")

    def test_sweep_reports_best_and_theoretical_power(self, tmp_path, small_panel):
        cfg = sc.GenConfig(n_items=30, n_days=260, seed=7)
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
        plan = sc.BacktestPlan(train_window_days=150, n_versions=2,
                               horizons=(6,), learner=FAST_LEARNER,
                               gen_config_path=str(cfg_path))
        report = sc.run_power_sweep(plan, powers=(1.3, 1.7), panel=small_panel)
        assert report.extra["theoretical_tweedie_power"] == pytest.approx(1.5)
        assert report.extra["best_wmape_power"]["6"] in {"1.3", "1.7"}
        assert report.axis_values == ["1.3", "1.7"]
        assert {r["power"] for r in report.table} == {"1.3", "1.7"}

    def test_sweep_powers_are_the_five_classics(self):
        assert SWEEP_POWERS == (1.1, 1.3, 1.5, 1.7, 1.9)
