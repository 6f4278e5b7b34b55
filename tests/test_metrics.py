"""Accuracy metrics: hand values, algebraic invariants, aggregation, CSV."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import skewcast as sc
from skewcast.errors import (
    DegenerateBaseline,
    DomainError,
    EmptyInput,
    LengthMismatch,
    NoValidItems,
)
from skewcast.metrics import METRICS_CSV_HEADER, write_metrics_csv

ORIGIN = dt.date(2021, 6, 7)
V6 = sc.ForecastVersion(ORIGIN, 6)


def _days(n):
    return [ORIGIN + dt.timedelta(days=k) for k in range(1, n + 1)]


def _series(values, start=1):
    return {ORIGIN + dt.timedelta(days=start + i): v for i, v in enumerate(values)}


def _flat(total, n_days=42):
    return {d: total / n_days for d in _days(n_days)}


def _columns(forecasts, actuals):
    """Per-row forecasts and the panel of actuals holding the same
    item -> {day -> value} data; a day missing on one side counts 0."""
    ids = sorted(set(forecasts) | set(actuals))
    codes, days, sales, preds = [], [], [], []
    for code, item in enumerate(ids):
        f, a = forecasts.get(item, {}), actuals.get(item, {})
        for day in sorted(set(f) | set(a)):
            codes.append(code)
            days.append(day.toordinal())
            sales.append(a.get(day, 0.0))
            preds.append(f.get(day, 0.0))
    return np.array(preds), sc.SalesPanel(ids, codes, days, sales, np.zeros((len(codes), 0)), [])


def _score(forecasts, actuals, version=V6):
    return sc.version_metrics(*_columns(forecasts, actuals), version)


def _as_dicts(preds, panel):
    """item -> {day -> value} forecasts and actuals of a panel's rows."""
    forecasts, actuals = {}, {}
    for code, day, a, f in zip(panel.item_codes.tolist(), panel.day_ordinals.tolist(),
                               panel.sales.tolist(), np.asarray(preds).tolist()):
        item, day = panel.item_ids[code], dt.date.fromordinal(day)
        actuals.setdefault(item, {})[day] = a
        forecasts.setdefault(item, {})[day] = f
    return forecasts, actuals


def _running_sum(values):
    total = 0.0  # left to right; sum() compensates rounding from Python 3.12 on
    for v in values:
        total += v
    return total


def _reference_version_metrics(forecasts, actuals, version):
    """The dict-of-dicts scorer version_metrics replaced: per item, sum
    forecasts and actuals day by day over the window."""
    if set(forecasts) != set(actuals):
        raise LengthMismatch("forecast and actual item sets differ")
    if not actuals:
        raise NoValidItems("no items to score")
    days = [version.origin_day + dt.timedelta(days=k)
            for k in range(1, 7 * version.horizon_weeks + 1)]
    abs_sum = 0.0
    signed_sum = 0.0
    total_actual = 0.0
    skipped = 0
    for item in sorted(actuals):
        a_i = _running_sum(actuals[item].get(day, 0.0) for day in days)
        if a_i <= 0.0:
            skipped += 1
            continue
        f_i = _running_sum(forecasts[item].get(day, 0.0) for day in days)
        pe = (f_i - a_i) / a_i
        abs_sum += a_i * abs(pe)
        signed_sum += a_i * pe
        total_actual += a_i
    if total_actual <= 0.0:
        raise NoValidItems("every item has zero actuals over the horizon")
    return sc.VersionMetrics(version, abs_sum / total_actual,
                             signed_sum / total_actual, total_actual, skipped)


class TestVersionMetrics:
    def test_two_item_hand_value(self):
        """Item weights 100:300 with PE +0.1 and -0.2 give wmape 0.175
        and wbias -0.125."""
        forecasts = {"item1": _flat(110.0), "item2": _flat(240.0)}
        actuals = {"item1": _flat(100.0), "item2": _flat(300.0)}
        vm = _score(forecasts, actuals)
        assert vm.wmape == pytest.approx(0.175, rel=1e-12)
        assert vm.wbias == pytest.approx(-0.125, rel=1e-12)
        assert vm.total_actual == pytest.approx(400.0)
        assert vm.skipped_items == 0
        assert vm.horizon_weeks == 6

    def test_single_item(self):
        forecasts = {"a": _flat(90.0)}
        actuals = {"a": _flat(100.0)}
        vm = _score(forecasts, actuals)
        assert vm.wmape == pytest.approx(0.10, rel=1e-12)
        assert vm.wbias == pytest.approx(-0.10, rel=1e-12)

    def test_perfect_forecasts(self):
        forecasts = {"a": _flat(100.0), "b": _flat(30.0)}
        vm = _score(forecasts, {k: dict(v) for k, v in forecasts.items()})
        assert vm.wmape == 0.0
        assert vm.wbias == 0.0

    def test_zero_actual_items_are_skipped_and_counted(self):
        forecasts = {"a": _flat(110.0), "dead": _flat(5.0)}
        actuals = {"a": _flat(100.0), "dead": {}}
        vm = _score(forecasts, actuals)
        assert vm.skipped_items == 1
        assert vm.wmape == pytest.approx(0.10, rel=1e-12)

    def test_all_items_zero_actual(self):
        with pytest.raises(NoValidItems):
            _score({"a": _flat(1.0)}, {"a": {}})

    def test_item_sets_must_align(self):
        """Forecasts come one per panel row."""
        preds, panel = _columns({"a": _flat(1.0)}, {"a": _flat(1.0)})
        with pytest.raises(LengthMismatch):
            sc.version_metrics(preds[:-1], panel, V6)

    def test_no_items(self):
        with pytest.raises(NoValidItems):
            _score({}, {})

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_forecast_rejected(self, bad):
        """``inf`` or ``nan`` would become the score, and then text that no
        JSON reader takes."""
        preds, panel = _columns({"a": _flat(1.0), "b": _flat(2.0)},
                                {"a": _flat(1.0), "b": _flat(2.0)})
        preds[-1] = bad
        with pytest.raises(DomainError, match="a forecast is not finite"):
            sc.version_metrics(preds, panel, V6)

    def test_item_relabeling_invariance(self, rng):
        base_f = {f"i{k}": _flat(float(rng.uniform(50, 150))) for k in range(6)}
        base_a = {f"i{k}": _flat(float(rng.uniform(50, 150))) for k in range(6)}
        vm1 = _score(base_f, base_a)
        renamed_f = {f"x{k}": base_f[f"i{k}"] for k in range(6)}
        renamed_a = {f"x{k}": base_a[f"i{k}"] for k in range(6)}
        vm2 = _score(renamed_f, renamed_a)
        assert vm1.wmape == pytest.approx(vm2.wmape, rel=1e-14)
        assert vm1.wbias == pytest.approx(vm2.wbias, rel=1e-14)

    def test_bias_magnitude_bounded_by_wmape(self, rng):
        for _ in range(25):
            forecasts = {f"i{k}": _flat(float(rng.uniform(10, 200)))
                         for k in range(5)}
            actuals = {f"i{k}": _flat(float(rng.uniform(10, 200)))
                       for k in range(5)}
            vm = _score(forecasts, actuals)
            assert abs(vm.wbias) <= vm.wmape + 1e-15

    @settings(max_examples=200)
    @given(data=st.data())
    def test_bias_magnitude_bounded_by_wmape_on_random_panels(self, data):
        """Exactly, with no slack: each item adds a * |pe| to one sum and
        a * pe to the other in the same order, and rounding is monotone."""
        h = data.draw(st.sampled_from(sc.panel.HORIZONS))
        keys = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 7 * h + 3)),
                                  min_size=1, max_size=40, unique=True))
        n = len(keys)
        sales = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1e6)),
                                   min_size=n, max_size=n))
        forecasts = data.draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))
        # the forecasts ride along as a feature, so they stay aligned with the rows
        panel = sc.SalesPanel([f"i{c}" for c in range(5)], [c for c, _ in keys],
                              [ORIGIN.toordinal() + d for _, d in keys], sales,
                              np.array(forecasts).reshape(n, 1), ["forecast"])
        try:
            vm = sc.version_metrics(panel.feature_matrix[:, 0], panel,
                                    sc.ForecastVersion(ORIGIN, h))
        except NoValidItems:
            assume(False)
        assert abs(vm.wbias) <= vm.wmape

    def test_scale_invariance(self, rng):
        c = 7.3
        forecasts = {f"i{k}": _flat(float(rng.uniform(10, 200))) for k in range(5)}
        actuals = {f"i{k}": _flat(float(rng.uniform(10, 200))) for k in range(5)}
        vm = _score(forecasts, actuals)
        scaled_f = {i: {d: c * v for d, v in s.items()} for i, s in forecasts.items()}
        scaled_a = {i: {d: c * v for d, v in s.items()} for i, s in actuals.items()}
        vm_c = _score(scaled_f, scaled_a)
        assert abs(vm_c.wmape - vm.wmape) <= 1e-12
        assert abs(vm_c.wbias - vm.wbias) <= 1e-12


def _ragged_rows(rng, n_days=7 * 24):
    """Rows of (item, day offset after ORIGIN, actual, forecast) for an
    item per kind of gap the scorer must treat like the dict scorer."""
    rows = []
    for item, days in [
        ("a_full", range(1, n_days + 1)),
        ("b_gappy", [d for d in range(1, n_days + 1) if d % 5 and d % 11]),
        ("c_gone", range(1, 15)),               # drops out after two weeks
        ("d_zero", range(1, n_days + 1)),
        ("e_before", range(-20, 1)),            # rows only before the origin
        ("f_late", range(50, n_days + 1)),      # rows only past the 6-week window
    ]:
        for d in days:
            actual = 0.0 if item == "d_zero" else float(rng.gamma(0.6, 20.0))
            rows.append((item, d, actual, float(rng.uniform(0.0, 40.0))))
    return rows


class TestVersionMetricsMatchesReference:
    """The columnar scorer equals the dict-of-dicts reference bit for bit."""

    @staticmethod
    def _check(rows):
        forecasts, actuals = {}, {}
        for item, d, a, f in rows:
            actuals.setdefault(item, {})[ORIGIN + dt.timedelta(days=d)] = a
            forecasts.setdefault(item, {})[ORIGIN + dt.timedelta(days=d)] = f
        preds, panel = _columns(forecasts, actuals)
        skipped = {}
        for h in (6, 12, 24):
            version = sc.ForecastVersion(ORIGIN, h)
            new = sc.version_metrics(preds, panel, version)
            ref = _reference_version_metrics(*_as_dicts(preds, panel), version)
            assert new.wmape == ref.wmape
            assert new.wbias == ref.wbias
            assert new.total_actual == ref.total_actual
            assert new.skipped_items == ref.skipped_items
            skipped[h] = new.skipped_items
        return skipped

    def test_ragged_panel(self, rng):
        """Every item with a row counts: "d_zero" and "e_before" sell
        nothing in any window, and "f_late" nothing in the 6-week one."""
        assert self._check(_ragged_rows(rng)) == {6: 3, 12: 2, 24: 2}

    def test_random_ragged_panels(self, rng):
        for _ in range(10):
            rows = [r for r in _ragged_rows(rng) if rng.random() < 0.7]
            self._check(rows)

    def test_backtest_slice_matches_reference(self, small_panel):
        origin = small_panel.date_range[1] - dt.timedelta(days=7 * 24)
        test = small_panel.slice_days(origin + dt.timedelta(days=1), small_panel.date_range[1])
        preds = 0.9 * test.sales + np.sin(np.arange(len(test))) ** 2
        for h in (6, 12, 24):
            version = sc.ForecastVersion(origin, h)
            assert sc.version_metrics(preds, test, version) == \
                _reference_version_metrics(*_as_dicts(preds, test), version)


def _vm(total_actual, wmape, wbias, horizon=6, origin=ORIGIN):
    version = sc.ForecastVersion(origin, horizon)
    return sc.VersionMetrics(version, wmape, wbias, total_actual, 0)


class TestAggregateVersions:
    def test_single_version_is_identity(self):
        vm = _vm(100.0, 0.2, -0.1)
        agg = sc.aggregate_versions([vm])[6]
        assert agg.wmape == vm.wmape
        assert agg.wbias == vm.wbias
        assert agg.n_versions == 1

    def test_weighted_mean_hand_value(self):
        """Weights 1:3 over wmape {0.1, 0.2} average to 0.175."""
        vms = [_vm(100.0, 0.1, 0.05),
               _vm(300.0, 0.2, -0.15, origin=ORIGIN + dt.timedelta(days=7))]
        agg = sc.aggregate_versions(vms)[6]
        assert agg.wmape == pytest.approx(0.175, rel=1e-12)
        assert agg.wbias == pytest.approx((100 * 0.05 - 300 * 0.15) / 400.0, rel=1e-12)
        assert agg.total_actual == pytest.approx(400.0)
        assert agg.n_versions == 2

    def test_horizons_grouped_separately(self):
        vms = [_vm(100.0, 0.1, 0.0, horizon=6), _vm(100.0, 0.3, 0.0, horizon=12)]
        out = sc.aggregate_versions(vms)
        assert set(out) == {6, 12}
        assert out[6].wmape == pytest.approx(0.1)
        assert out[12].wmape == pytest.approx(0.3)

    def test_replication_idempotence(self):
        vms = [_vm(50.0, 0.12, -0.02),
               _vm(50.0, 0.12, -0.02, origin=ORIGIN + dt.timedelta(days=7))]
        agg = sc.aggregate_versions(vms)[6]
        assert agg.wmape == pytest.approx(0.12, rel=1e-14)
        assert agg.wbias == pytest.approx(-0.02, rel=1e-14)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            sc.aggregate_versions([])


class TestRelativize:
    def test_self_relativization(self):
        agg = sc.AggregateMetrics(6, 0.2, -0.1, 400.0, 2, 0)
        rel = sc.relativize(agg, agg, "E5")
        assert rel.wmape_rel == 1.0
        assert abs(rel.wbias_rel) == 1.0
        assert rel.wbias_rel == -1.0  # the target's sign survives
        assert rel.baseline_id == "E5"

    def test_hand_value(self):
        target = sc.AggregateMetrics(6, 0.5, -0.04, 100.0, 1, 0)
        baseline = sc.AggregateMetrics(6, 0.6, -0.02, 100.0, 1, 0)
        rel = sc.relativize(target, baseline, "base")
        assert rel.wbias_rel == pytest.approx(-2.0, rel=1e-12)
        assert rel.wmape_rel == pytest.approx(0.5 / 0.6, rel=1e-12)

    def test_degenerate_baseline(self):
        target = sc.AggregateMetrics(6, 0.5, -0.04, 100.0, 1, 0)
        with pytest.raises(DegenerateBaseline):
            sc.relativize(target, sc.AggregateMetrics(6, 0.0, -0.1, 1.0, 1, 0), "b")
        with pytest.raises(DegenerateBaseline):
            sc.relativize(target, sc.AggregateMetrics(6, 0.5, 0.0, 1.0, 1, 0), "b")


class TestMetricsCsv:
    def test_layout_and_ordering(self, tmp_path):
        rows = [
            ("E5", _vm(400.0, 0.175, -0.125)),
            ("E1", _vm(100.0, 0.3, 0.3, origin=ORIGIN + dt.timedelta(days=7))),
            ("E1", _vm(100.0, 0.2, 0.1)),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == METRICS_CSV_HEADER == (
            "config_id,version,horizon_weeks,wmape,wbias,total_actual,skipped_items")
        assert lines[1].startswith("E1,VDP_20210607,6,0.2,0.1,")
        assert lines[2].startswith("E1,VDP_20210614,6,")
        assert lines[3].startswith("E5,VDP_20210607,6,0.175,-0.125,400,0")
