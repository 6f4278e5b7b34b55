"""Panel data model and its CSV round trip."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewcast as sc
from skewcast.errors import (
    ConfigError,
    DataError,
    DuplicateKey,
    IoFailure,
    MalformedRow,
    NegativeSales,
)

D0 = dt.date(2021, 3, 1)


def _panel(items, day_offsets, sales, features=None, date_range=None):
    """A panel from per-row columns; every row's features default to (1.0, 2.0)."""
    ids = sorted(set(items))
    if features is None:
        features = [(1.0, 2.0)] * len(items)
    return sc.SalesPanel(ids, [ids.index(item) for item in items],
                         [D0.toordinal() + d for d in day_offsets], sales,
                         np.array(features, dtype=float).reshape(len(items), -1),
                         ["f_one", "f_two"], date_range)


def _tiny_panel():
    return _panel(["b", "a", "a", "b"], [1, 0, 1, 0], [3.0, 0.0, 2.5, 1.0])


def _assert_same_panel(a, b):
    assert a.item_ids == b.item_ids
    assert a.feature_names == b.feature_names
    assert a.date_range == b.date_range
    for name in ("item_codes", "day_ordinals", "sales", "feature_matrix"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestSalesPanel:
    def test_rows_sorted_by_item_then_day(self):
        panel = _tiny_panel()
        keys = list(zip(panel.item_codes.tolist(), panel.day_ordinals.tolist()))
        assert keys == sorted(keys)
        assert panel.item_ids == sorted(panel.item_ids)

    def test_cached_arrays(self):
        panel = _tiny_panel()
        np.testing.assert_array_equal(panel.sales, [0.0, 2.5, 1.0, 3.0])
        assert panel.feature_matrix.shape == (4, 2)
        assert panel.item_ids == ["a", "b"]
        np.testing.assert_array_equal(panel.item_codes, [0, 0, 1, 1])
        assert panel.date_range == (D0, D0 + dt.timedelta(days=1))

    def test_ids_recoded_ascending_and_unused_dropped(self):
        panel = sc.SalesPanel(["z", "unused", "m"], [2, 0, 2], [5, 5, 6], [1.0, 2.0, 3.0],
                              np.zeros((3, 0)), [])
        assert panel.item_ids == ["m", "z"]
        np.testing.assert_array_equal(panel.item_codes, [0, 0, 1])
        np.testing.assert_array_equal(panel.sales, [1.0, 3.0, 2.0])

    def test_slice_days_inclusive(self):
        panel = _tiny_panel()
        sub = panel.slice_days(D0 + dt.timedelta(days=1), D0 + dt.timedelta(days=1))
        assert len(sub) == 2
        assert (sub.day_ordinals == D0.toordinal() + 1).all()

    def test_slice_days_is_a_row_filter(self):
        panel = sc.generate(sc.GenConfig(n_items=4, n_days=30, seed=3))
        first = panel.date_range[0] + dt.timedelta(days=7)
        last = panel.date_range[0] + dt.timedelta(days=19)
        sub = panel.slice_days(first, last)
        keep = [r for r, d in enumerate(panel.day_ordinals)
                if first.toordinal() <= d <= last.toordinal()]
        assert len(sub) == len(keep) == 4 * 13
        assert sub.item_ids == panel.item_ids
        assert sub.date_range == (first, last)
        np.testing.assert_array_equal(sub.item_codes, panel.item_codes[keep])
        np.testing.assert_array_equal(sub.day_ordinals, panel.day_ordinals[keep])
        np.testing.assert_array_equal(sub.sales, panel.sales[keep])
        np.testing.assert_array_equal(sub.feature_matrix, panel.feature_matrix[keep])
        keys = list(zip(sub.item_codes.tolist(), sub.day_ordinals.tolist()))
        assert keys == sorted(keys)

    def test_slice_days_drops_items_without_rows(self):
        panel = _panel(["a", "b", "b"], [0, 3, 4], [1.0, 2.0, 3.0])
        sub = panel.slice_days(D0 + dt.timedelta(days=2), D0 + dt.timedelta(days=9))
        assert sub.item_ids == ["b"]
        np.testing.assert_array_equal(sub.item_codes, [0, 0])

    def test_duplicate_key_rejected(self):
        with pytest.raises(DuplicateKey):
            _panel(["a", "a"], [0, 0], [1.0, 2.0])

    def test_negative_sales_rejected(self):
        with pytest.raises(DataError):
            _panel(["a"], [0], [-1.0])

    @pytest.mark.parametrize("sales, features", [
        (float("nan"), (1.0, 2.0)),
        (float("inf"), (1.0, 2.0)),
        (1.0, (float("inf"), 2.0)),
        (1.0, (1.0, float("nan"))),
    ])
    def test_non_finite_values_rejected(self, sales, features):
        with pytest.raises(DataError):
            _panel(["a", "b"], [0, 0], [1.0, sales], [(1.0, 2.0), features])

    def test_feature_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            _panel(["a"], [0], [1.0], [(1.0,)])

    def test_comma_in_item_id_rejected(self):
        with pytest.raises(DataError):
            _panel(["a,b"], [0], [1.0])

    def test_day_outside_declared_range_rejected(self):
        with pytest.raises(DataError):
            _panel(["a"], [5], [1.0], date_range=(D0, D0))


class TestCsvRoundTrip:
    def test_write_read_identity(self, tmp_path):
        panel = _tiny_panel()
        path = tmp_path / "panel.csv"
        sc.write_panel(panel, path)
        back = sc.read_panel(path)
        _assert_same_panel(back, panel)

    def test_generated_panel_round_trip(self, tmp_path):
        """Values survive at the format's 12 significant digits, and a
        re-written file is byte-identical (the format is a fixed point)."""
        panel = sc.generate(sc.GenConfig(n_items=5, n_days=40, seed=11))
        path = tmp_path / "panel.csv"
        sc.write_panel(panel, path)
        back = sc.read_panel(path)
        np.testing.assert_allclose(back.sales, panel.sales, rtol=1e-11)
        np.testing.assert_allclose(back.feature_matrix, panel.feature_matrix, rtol=1e-11)
        again = tmp_path / "again.csv"
        sc.write_panel(back, again)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=100)
    @given(data=st.data())
    def test_rewrite_of_any_panel_is_byte_identical(self, tmp_path_factory, data):
        """write -> read -> write gives the same bytes for any ids, days and values."""
        id_text = st.text(st.characters(blacklist_characters=",\n\r",
                                        blacklist_categories=("Cs",)), min_size=1, max_size=6)
        ids = data.draw(st.lists(id_text, min_size=1, max_size=4, unique=True))
        keys = data.draw(st.lists(st.tuples(st.integers(0, len(ids) - 1), st.integers(0, 400)),
                                  min_size=1, max_size=30, unique=True))
        n, k = len(keys), data.draw(st.integers(0, 3))
        sales = data.draw(st.lists(st.floats(0.0, 1e15), min_size=n, max_size=n))
        features = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=n * k,
                                      max_size=n * k))
        panel = sc.SalesPanel(ids, [c for c, _ in keys], [D0.toordinal() + d for _, d in keys],
                              sales, np.array(features).reshape(n, k),
                              [f"f{j}" for j in range(k)])
        folder = tmp_path_factory.mktemp("round_trip")
        first, again = folder / "first.csv", folder / "again.csv"
        sc.write_panel(panel, first)
        sc.write_panel(sc.read_panel(first), again)
        assert again.read_bytes() == first.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "panel.csv"
        sc.write_panel(_tiny_panel(), path)
        first = path.read_text(encoding="utf-8").split("\n", 1)[0]
        assert first == "item_id,day,sales,f_one,f_two"


class TestCsvErrors:
    def _write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            sc.read_panel(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = self._write(tmp_path, "foo,bar,baz\n")
        with pytest.raises(MalformedRow) as err:
            sc.read_panel(path)
        assert err.value.line_no == 1

    def test_bad_date_reports_one_based_line(self, tmp_path):
        path = self._write(
            tmp_path,
            "item_id,day,sales,f1\n"
            "a,2021-03-01,1.0,0.5\n"
            "a,not-a-date,1.0,0.5\n",
        )
        with pytest.raises(MalformedRow) as err:
            sc.read_panel(path)
        assert err.value.line_no == 3

    def test_column_count_mismatch(self, tmp_path):
        path = self._write(tmp_path, "item_id,day,sales,f1\na,2021-03-01,1.0\n")
        with pytest.raises(MalformedRow) as err:
            sc.read_panel(path)
        assert err.value.line_no == 2

    def test_negative_sales_line_number(self, tmp_path):
        path = self._write(
            tmp_path,
            "item_id,day,sales,f1\n"
            "a,2021-03-01,2.0,0.5\n"
            "a,2021-03-02,-2.0,0.5\n",
        )
        with pytest.raises(NegativeSales) as err:
            sc.read_panel(path)
        assert err.value.line_no == 3

    def test_duplicate_row(self, tmp_path):
        path = self._write(
            tmp_path,
            "item_id,day,sales,f1\n"
            "a,2021-03-01,2.0,0.5\n"
            "a,2021-03-01,3.0,0.5\n",
        )
        with pytest.raises(DuplicateKey):
            sc.read_panel(path)

    def test_non_finite_value(self, tmp_path):
        path = self._write(tmp_path, "item_id,day,sales,f1\na,2021-03-01,nan,0.5\n")
        with pytest.raises(MalformedRow):
            sc.read_panel(path)


class TestForecastVersion:
    def test_label_and_window_follow_the_origin(self):
        origin = dt.date(2021, 6, 7)
        v = sc.ForecastVersion(origin, 6)
        assert v.label == "VDP_20210607"
        assert v.window_start == origin + dt.timedelta(days=1)
        assert v.window_end == origin + dt.timedelta(days=42)

    def test_horizon_must_be_supported(self):
        with pytest.raises(ConfigError):
            sc.ForecastVersion(dt.date(2021, 6, 7), 5)
