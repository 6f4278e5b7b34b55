"""Sales panel data model and its CSV contract.

A panel is the universal currency between modules: item x day rows with
non-negative sales and a fixed-length feature vector, held as parallel
columns ordered by (item, day).  ``item_codes`` index the ascending
``item_ids`` and days are ``date.toordinal()`` values.  CSV is the sole
on-disk format: ``item_id,day,sales,<feature names...>`` with
``YYYY-MM-DD`` dates, floats at 12 significant digits, and no quoting
(so item ids and feature names must pass ``is_csv_name``).

``read_panel`` parses in blocks of lines, not row by row: it splits a
block's cells at once, converts each number column with one
``np.array(cells, dtype=np.float64)`` (which applies ``float()`` to every
cell), parses each distinct date string once and checks the row rules on
whole arrays.  Only a block that breaks a rule is read again row by row,
to raise the first bad row's error with its line number.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DuplicateKey,
    IoFailure,
    MalformedRow,
    NegativeSales,
    write_text,
)

HORIZONS = (6, 12, 24)

# read_panel parses its rows in blocks that end at the first line break
# after this many characters; a block's cells are about 7 times its text in
# memory, and 1 << 20 added 8 MB to the peak RSS of a default-panel read
_BLOCK_CHARS = 1 << 16


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _cell(value) -> str:
    """A CSV cell: a float through ``_fmt``, anything else through ``str``."""
    return _fmt(value) if isinstance(value, float) else str(value)


# date.fromisoformat alone also reads 20210301 and week dates on Python 3.11, not on 3.10
_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_day(text: str) -> dt.date:
    """An ASCII ``YYYY-MM-DD`` date on every Python; anything else is a ``ValueError``."""
    if not _ISO_DAY.fullmatch(text):
        raise ValueError(f"date must be YYYY-MM-DD, got {text!r}")
    return dt.date.fromisoformat(text)


def is_csv_name(name) -> bool:
    """Non-empty text with no comma, line feed or carriage return: a CSV cell as it is."""
    return isinstance(name, str) and name != "" and not any(c in name for c in ",\n\r")


def _feature_name_problem(names: list[str]) -> str | None:
    """Why a panel cannot have these feature names, or None if it can."""
    for i, name in enumerate(names):
        if name == "" or name in names[:i]:
            return f"feature name {name!r} is {'repeated' if name else 'empty'}"
        if not is_csv_name(name):
            return f"feature name {name!r} is not representable in CSV"
    return None


@dataclass(eq=False)
class SalesPanel:
    """Validated, canonically ordered panel columns.

    ``item_codes[r]`` indexes ``item_ids`` for row r.  Construction
    accepts the ids in any order, keeps those that have rows, sorts them
    ascending and re-codes the rows, then sorts rows by (item, day).  It
    checks that the columns agree in length, item ids are distinct and
    CSV names, feature names are distinct CSV names, (item,
    day) pairs are unique, sales and features are finite, sales are
    non-negative, and every day lies inside ``date_range``.  Instances
    are treated as immutable after construction and are safe to share
    across threads.
    """

    item_ids: list[str]
    item_codes: np.ndarray
    day_ordinals: np.ndarray
    sales: np.ndarray
    feature_matrix: np.ndarray
    feature_names: list[str]
    date_range: tuple[dt.date, dt.date] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        ids = list(self.item_ids)
        codes = np.asarray(self.item_codes, dtype=np.int64)
        days = np.asarray(self.day_ordinals, dtype=np.int64)
        sales = np.asarray(self.sales, dtype=np.float64)
        X = np.asarray(self.feature_matrix, dtype=np.float64)
        n, k = len(codes), len(self.feature_names)
        if days.shape != (n,) or sales.shape != (n,) or X.shape != (n, k):
            raise DataError(f"{n} rows with {k} features expected, got days {days.shape}, "
                            f"sales {sales.shape}, features {X.shape}")
        if len(set(ids)) != len(ids):
            raise DataError("item ids are not distinct")
        problem = _feature_name_problem(list(self.feature_names))
        if problem:
            raise DataError(problem)
        if n and (codes.min() < 0 or codes.max() >= len(ids)):
            raise DataError(f"item codes must lie in [0, {len(ids)})")
        keep = sorted(np.flatnonzero(np.bincount(codes, minlength=len(ids))).tolist(),
                      key=ids.__getitem__)
        recode = np.zeros(len(ids), dtype=np.int64)
        recode[keep] = np.arange(len(keep))
        self.item_ids = [ids[c] for c in keep]
        for item in self.item_ids:
            if not is_csv_name(item):
                raise DataError(f"item_id {item!r} is not representable in panel CSV")
        codes = recode[codes]
        order = np.lexsort((days, codes))
        codes, days, sales, X = codes[order], days[order], sales[order], X[order]

        def first_key(mask) -> tuple[str, dt.date]:
            r = int(np.argmax(mask))
            return self.item_ids[codes[r]], dt.date.fromordinal(int(days[r]))

        repeated = (codes[1:] == codes[:-1]) & (days[1:] == days[:-1])
        if repeated.any():
            raise DuplicateKey(*first_key(repeated))
        bad = ~np.isfinite(sales) | ~np.isfinite(X).all(axis=1)
        if bad.any():
            raise DataError("non-finite value for (%s, %s)" % first_key(bad))
        if (sales < 0).any():
            raise DataError("negative sales for (%s, %s)" % first_key(sales < 0))
        if self.date_range is None:
            ends = (int(days.min()), int(days.max())) if n else (1, 1)  # 1 is date.min
            self.date_range = tuple(dt.date.fromordinal(d) for d in ends)
        first, last = self.date_range
        outside = (days < first.toordinal()) | (days > last.toordinal())
        if outside.any():
            raise DataError("(%s, %s) lies outside %s..%s" % (*first_key(outside), first, last))
        self.item_codes, self.day_ordinals, self.sales, self.feature_matrix = codes, days, sales, X
        self.feature_names = list(self.feature_names)

    def __len__(self) -> int:
        return len(self.sales)

    def slice_days(self, first: dt.date, last: dt.date) -> "SalesPanel":
        """Sub-panel of the rows with first <= day <= last."""
        keep = (self.day_ordinals >= first.toordinal()) & (self.day_ordinals <= last.toordinal())
        return SalesPanel(self.item_ids, self.item_codes[keep], self.day_ordinals[keep],
                          self.sales[keep], self.feature_matrix[keep], self.feature_names,
                          (first, last))


@dataclass(frozen=True)
class ForecastVersion:
    """A weekly forecast origin: everything before it trains, the window
    (origin, origin + 7 * horizon_weeks] is scored."""

    origin_day: dt.date
    horizon_weeks: int

    def __post_init__(self):
        if self.horizon_weeks not in HORIZONS:
            raise ConfigError(f"horizon_weeks must be one of {HORIZONS}")

    @property
    def label(self) -> str:
        return f"VDP_{self.origin_day:%Y%m%d}"

    @property
    def window_start(self) -> dt.date:
        return self.origin_day + dt.timedelta(days=1)

    @property
    def window_end(self) -> dt.date:
        return self.origin_day + self.window_length(self.horizon_weeks)

    @staticmethod
    def window_length(horizon_weeks: int) -> dt.timedelta:
        """How far past its origin a version's window ends."""
        return dt.timedelta(days=7 * horizon_weeks)


def read_panel(path) -> SalesPanel:
    """Parse and validate a panel CSV, a block of lines at a time.

    Raises MalformedRow / NegativeSales with 1-based line numbers (a
    byte that is not UTF-8 included, wherever it is, before any row
    error), and DuplicateKey for repeated (item, day) pairs.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(raw.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    del raw
    if not text:
        raise MalformedRow(1, "empty file, expected a header row")
    end = len(text) - text.endswith("\n")  # a final line break ends the last row
    header_end = text.find("\n", 0, end)
    if header_end < 0:
        header_end = end
    header = text[:header_end].split(",")
    if header[:3] != ["item_id", "day", "sales"]:
        raise MalformedRow(1, "header must start with item_id,day,sales "
                              f"(got {text[:header_end]!r})")
    problem = _feature_name_problem(header[3:])
    if problem:
        raise MalformedRow(1, problem)
    ncol = len(header)
    n = text.count("\n", 0, end)
    item_codes = np.empty(n, dtype=np.int64)
    days = np.empty(n, dtype=np.int64)
    values = np.empty((n, ncol - 2))  # sales then features, one row per CSV row
    codes: dict[str, int] = {}  # item id -> code, in order of first appearance
    ordinals: dict[str, int] = {}  # date string -> day ordinal
    start, row = header_end + 1, 0
    while row < n:
        stop = text.find("\n", start + _BLOCK_CHARS, end)
        if stop < 0:
            stop = end
        lines = text[start:stop].split("\n")
        rows = slice(row, row + len(lines))
        try:
            _parse_block(lines, codes, ordinals, item_codes[rows], days[rows], values[rows])
        except ValueError:
            _check_rows(lines, row + 2, ncol)
            raise  # no row broke a rule, so the bulk parse itself is at fault
        start, row = stop + 1, rows.stop
    del text  # the largest object, before the panel sorts its copies
    return SalesPanel(list(codes), item_codes, days, values[:, 0], values[:, 1:], header[3:])


def _parse_block(lines: list[str], codes: dict[str, int], ordinals: dict[str, int],
                 item_codes: np.ndarray, days: np.ndarray, values: np.ndarray) -> None:
    """Parse a block of CSV rows into the given row slices, all at once.

    New item ids get the next codes and new date strings their ordinals.
    Any row that breaks a rule of ``_check_rows`` makes this raise
    ``ValueError``.
    """
    ncol = values.shape[1] + 2
    if set(map(str.count, lines, repeat(","))) != {ncol - 1}:
        raise ValueError("a row has the wrong column count")
    cells = ",".join(lines).split(",")
    ids, dates = cells[0::ncol], cells[1::ncol]
    if "" in ids:
        raise ValueError("empty item_id")
    for item in dict.fromkeys(ids):
        codes.setdefault(item, len(codes))
    for date in set(dates).difference(ordinals):
        ordinals[date] = parse_day(date).toordinal()
    item_codes[:] = np.fromiter(map(codes.__getitem__, ids), dtype=np.int64, count=len(ids))
    days[:] = np.fromiter(map(ordinals.__getitem__, dates), dtype=np.int64, count=len(dates))
    for j in range(2, ncol):  # float() on every cell
        values[:, j - 2] = np.array(cells[j::ncol], dtype=np.float64)
    if not np.isfinite(values).all() or (values[:, 0] < 0).any():
        raise ValueError("a value is non-finite or a sales value negative")


def _check_rows(lines: list[str], line_no: int, ncol: int) -> None:
    """Raise the error of the first row in ``lines`` that breaks a row rule.

    ``line_no`` is the 1-based line number of ``lines[0]``.
    """
    for line_no, line in enumerate(lines, start=line_no):
        parts = line.split(",")
        if len(parts) != ncol:
            raise MalformedRow(line_no, f"expected {ncol} columns, got {len(parts)}")
        if not parts[0]:
            raise MalformedRow(line_no, "empty item_id")
        try:
            parse_day(parts[1])
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


def write_panel(panel: SalesPanel, path) -> None:
    """Write a panel CSV with deterministic (item_id, day) row order."""
    out = [",".join(["item_id", "day", "sales", *panel.feature_names])]
    iso = {d: dt.date.fromordinal(d).isoformat() for d in set(panel.day_ordinals.tolist())}
    for code, day, sales, features in zip(panel.item_codes.tolist(), panel.day_ordinals.tolist(),
                                          panel.sales.tolist(), panel.feature_matrix.tolist()):
        out.append(",".join([panel.item_ids[code], iso[day], _fmt(sales), *map(_fmt, features)]))
    write_text(path, "\n".join(out) + "\n")
