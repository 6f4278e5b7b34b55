"""Panel data model and its CSV round trip."""

import datetime as dt
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewcast as sc
from skewcast import panel as panel_module
from skewcast.errors import (
    ConfigError,
    DataError,
    DuplicateKey,
    IoFailure,
    MalformedRow,
    NegativeSales,
    SkewcastError,
)

D0 = dt.date(2021, 3, 1)


def _reference_read_panel(path):
    """``read_panel`` as a plain row loop: the reference the block reader must match."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedRow(raw.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedRow(1, "empty file, expected a header row")
    header = lines[0].split(",")
    if header[:3] != ["item_id", "day", "sales"]:
        raise MalformedRow(1, f"header must start with item_id,day,sales (got {lines[0]!r})")
    names = header[3:]
    for i, name in enumerate(names):
        if not name or name in names[:i]:
            raise MalformedRow(1, f"feature name {name!r} is {'repeated' if name else 'empty'}")
        if "\r" in name:  # the only character of the CSV-name rule a header cell can hold
            raise MalformedRow(1, f"feature name {name!r} is not representable in CSV")
    ncol = len(header)
    codes: dict[str, int] = {}  # item id -> code, in order of first appearance
    item_codes: list[int] = []
    days: list[int] = []
    values: list[list[float]] = []  # sales then features, one list per row
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != ncol:
            raise MalformedRow(line_no, f"expected {ncol} columns, got {len(parts)}")
        if not parts[0]:
            raise MalformedRow(line_no, "empty item_id")
        text = parts[1]  # ASCII YYYY-MM-DD and nothing else, on every Python
        digits = text[:4] + text[5:7] + text[8:]
        try:
            if not (len(text) == 10 and text[4] == text[7] == "-" and digits.isascii()
                    and digits.isdigit()):
                raise ValueError(text)
            day = dt.date(int(text[:4]), int(text[5:7]), int(text[8:]))
        except ValueError:
            raise MalformedRow(line_no, f"bad date {parts[1]!r}") from None
        try:
            row = [float(p) for p in parts[2:]]
        except ValueError as exc:
            raise MalformedRow(line_no, str(exc)) from None
        if not all(math.isfinite(v) for v in row):
            raise MalformedRow(line_no, "non-finite value")
        if row[0] < 0:
            raise NegativeSales(line_no, row[0])
        item_codes.append(codes.setdefault(parts[0], len(codes)))
        days.append(day.toordinal())
        values.append(row)
    table = np.array(values, dtype=np.float64).reshape(len(values), ncol - 2)
    return sc.SalesPanel(list(codes), item_codes, days, table[:, 0], table[:, 1:], header[3:])


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

    @pytest.mark.parametrize("names, message", [
        (["f", "f"], "feature name 'f' is repeated"),
        (["f", ""], "feature name '' is empty"),
    ], ids=["repeated", "empty"])
    def test_repeated_or_empty_feature_name_rejected(self, names, message):
        with pytest.raises(DataError, match=message):
            sc.SalesPanel(["a"], [0], [D0.toordinal()], [1.0], [(1.0, 2.0)], names)

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "log_popularity\r", 7, None])
    def test_feature_name_must_be_a_csv_name(self, name):
        """A name that ``write_panel`` could not write as one header cell is
        rejected when the panel is built."""
        with pytest.raises(DataError, match=re.escape(f"feature name {name!r} is not repr")):
            sc.SalesPanel(["a"], [0], [D0.toordinal()], [1.0], [(1.0, 2.0)], ["f", name])

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

    @pytest.mark.parametrize("date", ["20210301", "2021-W09-1", "2021-060", "2021-03-01T00",
                                      " 2021-03-01", "\uff12\uff10\uff12\uff11-03-01"],
                             ids=["compact", "week", "ordinal", "time", "space", "wide-digits"])
    def test_only_yyyy_mm_dd_is_a_date(self, tmp_path, date):
        """One date rule on every Python: ``date.fromisoformat`` on 3.11
        also reads compact and week dates, which 3.10 rejects."""
        path = self._write(tmp_path, f"item_id,day,sales\na,2021-03-01,1.0\nb,{date},1.0\n")
        with pytest.raises(MalformedRow, match=f"line 3: bad date {date!r}"):
            sc.read_panel(path)

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

    @pytest.mark.parametrize("header, message", [
        ("item_id,day,sales,f,f", "feature name 'f' is repeated"),
        ("item_id,day,sales,f,g,f", "feature name 'f' is repeated"),
        ("item_id,day,sales,f,", "feature name '' is empty"),
        ("item_id,day,sales,,f", "feature name '' is empty"),
    ], ids=["repeated", "repeated-apart", "trailing-comma", "empty-first"])
    def test_bad_feature_name_is_named_on_line_one(self, tmp_path, header, message):
        ncol = header.count(",") + 1
        path = self._write(tmp_path, f"{header}\na,2021-03-01{',1.0' * (ncol - 2)}\n")
        with pytest.raises(MalformedRow, match=f"line 1: {message}") as err:
            sc.read_panel(path)
        assert err.value.line_no == 1

    def test_crlf_file_is_named_on_line_one(self, tmp_path):
        """Every row of a CRLF file parses, since ``float`` strips the ``\\r``,
        so only the header's last name shows the line ends."""
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"item_id,day,sales,log_popularity\r\n"
                         b"a,2021-03-01,2.0,0.5\r\na,2021-03-02,3.0,0.5\r\n")
        with pytest.raises(MalformedRow, match="line 1: feature name 'log_popularity\\\\r' "
                                               "is not representable in CSV"):
            sc.read_panel(path)



def _outcome(reader, path):
    """What a reader makes of a file: the panel's exact bits, or its error."""
    try:
        panel = reader(path)
    except SkewcastError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    columns = [(a.dtype, a.shape, a.strides, a.tobytes()) for a in (
        panel.item_codes, panel.day_ordinals, panel.sales, panel.feature_matrix)]
    return panel.item_ids, panel.feature_names, panel.date_range, columns


_ID_TEXT = st.text(st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)),
                   min_size=1, max_size=5)


def _number_text(least: float):
    """Number cells as a CSV may spell them; ``float()`` takes every one."""
    return st.one_of(
        st.floats(least, 1e15).map(repr),
        st.floats(least, 1e15).map(lambda x: f"{x:.12g}"),
        st.floats(least, 1e6).map(lambda x: f" {x:.4e}\t"),
        st.integers(max(0, int(least)), 10**7).map(lambda n: f"{n:_}"),
    )


@st.composite
def _panel_lines(draw, min_rows: int = 0) -> list[str]:
    """A valid panel CSV as its lines, header first, rows in any order."""
    k = draw(st.integers(0, 2))
    ids = draw(st.lists(_ID_TEXT, min_size=1, max_size=4, unique=True))
    keys = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 60)),
                         min_size=min_rows, max_size=25, unique=True))
    lines = [",".join(["item_id", "day", "sales", *(f"f{j}" for j in range(k))])]
    for item, offset in keys:
        day = D0 + dt.timedelta(days=offset)
        numbers = [draw(_number_text(0.0))] + [draw(_number_text(-1e15)) for _ in range(k)]
        lines.append(",".join([item, day.isoformat(), *numbers]))
    return lines


# one way each to break a line's cells; each takes (cells, draw) and returns the new cells
_CORRUPTIONS = {
    "column count": lambda cells, draw: draw(st.sampled_from([cells[:-1], cells + ["1"]])),
    "empty id": lambda cells, draw: ["", *cells[1:]],
    "bad date": lambda cells, draw: [cells[0], draw(st.sampled_from(
        ["2021-02-30", "not-a-date", "", "2021-3-1", "20210301", "2021-W09-1",
         "\uff12\uff10\uff12\uff11-03-01"])), *cells[2:]],
    "text in a number": lambda cells, draw: _replace_number(cells, draw, ["abc", "1.2.3", "", "0x10"]),
    "non-finite": lambda cells, draw: _replace_number(cells, draw, ["nan", "inf", "-inf", "1e400"]),
    "negative sales": lambda cells, draw: [*cells[:2], draw(st.sampled_from(
        ["-1.5", "-1e-300", "-0.0"])), *cells[3:]],
}


def _replace_number(cells, draw, texts):
    j = draw(st.integers(min(2, len(cells) - 1), len(cells) - 1))  # a number cell if any
    return [*cells[:j], draw(st.sampled_from(texts)), *cells[j + 1:]]


@st.composite
def _corrupted_file(draw) -> bytes:
    """A valid panel CSV with one or two of its lines broken."""
    lines = [line.encode("utf-8") for line in draw(_panel_lines(min_rows=1))]
    for _ in range(draw(st.integers(1, 2))):
        # a row mostly: a broken header hides every row rule
        at = 0 if draw(st.integers(0, 7)) == 0 else draw(st.integers(1, len(lines) - 1))
        kind = draw(st.sampled_from([*_CORRUPTIONS, "non-UTF-8 byte", "CRLF", "blank line"]))
        line = lines[at]
        if kind == "non-UTF-8 byte":
            cut = draw(st.integers(0, len(line)))
            lines[at] = line[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + line[cut:]
        elif kind == "CRLF":
            lines[at] = line + b"\r"
        elif kind == "blank line":
            lines.insert(at + draw(st.integers(0, 1)), b"")
        else:
            cells = line.decode("utf-8", "surrogateescape").split(",")
            cells = _CORRUPTIONS[kind](cells, draw)
            lines[at] = ",".join(cells).encode("utf-8", "surrogateescape")
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


class TestBlockReader:
    """``read_panel`` parses blocks of rows at once; it must give what the row
    loop gives, bit for bit, and the same error for the same file."""

    _BLOCKS = st.one_of(st.integers(1, 120), st.just(panel_module._BLOCK_CHARS))

    def _both(self, folder, data: bytes, block_chars: int):
        path = folder / "panel.csv"
        path.write_bytes(data)
        with mock.patch.object(panel_module, "_BLOCK_CHARS", block_chars):
            return _outcome(sc.read_panel, path), _outcome(_reference_read_panel, path)

    @settings(max_examples=200)
    @given(lines=_panel_lines(), end=st.sampled_from(["\n", ""]), block_chars=_BLOCKS)
    def test_valid_panels_read_bit_equal(self, tmp_path_factory, lines, end, block_chars):
        data = ("\n".join(lines) + end).encode("utf-8")
        got, want = self._both(tmp_path_factory.mktemp("csv"), data, block_chars)
        assert got == want
        assert isinstance(got[0], list)  # a panel, not an error

    @settings(max_examples=400)
    @given(data=_corrupted_file(), block_chars=_BLOCKS)
    def test_broken_files_raise_the_same_error(self, tmp_path_factory, data, block_chars):
        got, want = self._both(tmp_path_factory.mktemp("csv"), data, block_chars)
        assert got == want

    @pytest.mark.parametrize("text", ["", "\n", "item_id,day,sales", "item_id,day,sales\n",
                                      "item_id,day,sales\n\n", "item_id,day\na,2021-03-01\n"])
    def test_empty_and_header_only_files(self, tmp_path, text):
        got, want = self._both(tmp_path, text.encode("utf-8"), panel_module._BLOCK_CHARS)
        assert got == want


class TestForecastVersion:
    def test_label_and_window_follow_the_origin(self):
        origin = dt.date(2021, 6, 7)
        v = sc.ForecastVersion(origin, 6)
        assert v.label == "VDP_20210607"
        assert v.window_start == origin + dt.timedelta(days=1)
        assert v.window_end == origin + dt.timedelta(days=42)
        assert sc.ForecastVersion.window_length(24) == dt.timedelta(days=168)

    def test_horizon_must_be_supported(self):
        with pytest.raises(ConfigError):
            sc.ForecastVersion(dt.date(2021, 6, 7), 5)
