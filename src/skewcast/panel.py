"""Sales panel data model and its CSV contract.

A panel is the universal currency between modules: item x day rows with
non-negative sales and a fixed-length feature vector, held as parallel
columns ordered by (item, day).  ``item_codes`` index the ascending
``item_ids`` and days are ``date.toordinal()`` values.  CSV is the sole
on-disk format: ``item_id,day,sales,<feature names...>`` with
``YYYY-MM-DD`` dates and no quoting, written by ``write_csv`` like every
table of the package (so item ids must pass ``is_csv_name``, and feature
names must too and may not be ``item_id``, ``day`` or ``sales``).

``read_panel`` parses in blocks of lines, not row by row: it splits a
block's cells at once, converts each number column with one
``np.array(cells, dtype=np.float64)`` (which applies ``float()`` to every
cell), parses each distinct date string once and checks the row rules on
whole arrays.  Only a block that breaks a rule is read again row by row,
to raise the first bad row's error with its line number.

``write_csv`` streams: it reads its rows once, lazily, and formats and
writes ``_BLOCK_ROWS`` lines at a time, and ``write_panel`` turns its
columns into Python values one such slice at a time, so a write holds one
block, not the file's text or whole-column lists.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, fields
from itertools import chain, islice, repeat

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    parse_day,
    write_blocks,
)

HORIZONS = (6, 12, 24)
PANEL_COLUMNS = ("item_id", "day", "sales")  # the first columns; no feature takes their names
_FLOATS = (float, np.floating)  # the cells write_csv writes at 12 significant digits

# read_panel parses its rows in blocks that end at the first line break
# after this many characters; a block's cells are about 7 times its text in
# memory, and 1 << 20 added 8 MB to the peak RSS of a default-panel read
_BLOCK_CHARS = 1 << 16
# write_csv formats and writes this many lines at a time, and write_panel
# turns this many rows of its columns into Python values at a time, so a
# write holds one block of text, not the whole file (which took 72 MB for
# the default panel)
_BLOCK_ROWS = 1024


def is_csv_name(name) -> bool:
    """Non-empty text with no comma, line feed or carriage return: a CSV cell as it is."""
    return isinstance(name, str) and name != "" and not any(c in name for c in ",\n\r")


def _feature_name_problem(names: tuple[str, ...]) -> str | None:
    """Why a panel cannot have these feature names, or None if it can."""
    for i, name in enumerate(names):
        if name == "" or name in names[:i]:
            return f"feature name {name!r} is {'repeated' if name else 'empty'}"
        if name in PANEL_COLUMNS:
            return f"feature name {name!r} is the name of a panel column"
        if not is_csv_name(name):
            return f"feature name {name!r} is not representable in CSV"
    return None


@dataclass(frozen=True, eq=False)
class SalesPanel:
    """Validated, canonically ordered panel columns.

    ``item_codes[r]`` indexes ``item_ids`` for row r.  Construction
    accepts the ids in any order, keeps those that have rows, sorts them
    ascending and re-codes the rows, then sorts rows by (item, day).  It
    checks that the columns agree in length, item ids are distinct and
    CSV names, feature names are distinct CSV names, (item,
    day) pairs are unique, sales and features are finite, sales are
    non-negative, and every day lies inside ``date_range``.  A panel is
    frozen, with tuples of ids and feature names and read-only columns, so
    instances are safe to share across threads.
    """

    item_ids: tuple[str, ...]
    item_codes: np.ndarray
    day_ordinals: np.ndarray
    sales: np.ndarray
    feature_matrix: np.ndarray
    feature_names: tuple[str, ...]
    date_range: tuple[dt.date, dt.date] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        ids = list(self.item_ids)
        names = tuple(self.feature_names)
        codes = np.asarray(self.item_codes, dtype=np.int64)
        days = np.asarray(self.day_ordinals, dtype=np.int64)
        sales = np.asarray(self.sales, dtype=np.float64)
        X = np.asarray(self.feature_matrix, dtype=np.float64)
        n, k = len(codes), len(names)
        if days.shape != (n,) or sales.shape != (n,) or X.shape != (n, k):
            raise DataError(f"{n} rows with {k} features expected, got days {days.shape}, "
                            f"sales {sales.shape}, features {X.shape}")
        if len(set(ids)) != len(ids):
            raise DataError("item ids are not distinct")
        problem = _feature_name_problem(names)
        if problem:
            raise DataError(problem)
        if n and (codes.min() < 0 or codes.max() >= len(ids)):
            raise DataError(f"item codes must lie in [0, {len(ids)})")
        keep = sorted(np.flatnonzero(np.bincount(codes, minlength=len(ids))).tolist(),
                      key=ids.__getitem__)
        recode = np.zeros(len(ids), dtype=np.int64)
        recode[keep] = np.arange(len(keep))
        ids = tuple(ids[c] for c in keep)
        for item in ids:
            if not is_csv_name(item):
                raise DataError(f"item_id {item!r} is not representable in panel CSV")
        codes = recode[codes]
        order = np.lexsort((days, codes))
        codes, days, sales, X = codes[order], days[order], sales[order], X[order]

        def first_key(mask) -> tuple[str, dt.date]:
            r = int(np.argmax(mask))
            return ids[codes[r]], dt.date.fromordinal(int(days[r]))

        repeated = (codes[1:] == codes[:-1]) & (days[1:] == days[:-1])
        if repeated.any():
            raise DataError("duplicate (item, day) pair: (%r, %s)" % first_key(repeated))
        bad = ~np.isfinite(sales) | ~np.isfinite(X).all(axis=1)
        if bad.any():
            raise DataError("non-finite value for (%s, %s)" % first_key(bad))
        if (sales < 0).any():
            raise DataError("negative sales for (%s, %s)" % first_key(sales < 0))
        date_range = self.date_range
        if date_range is None:
            ends = (int(days.min()), int(days.max())) if n else (1, 1)  # 1 is date.min
            date_range = tuple(dt.date.fromordinal(d) for d in ends)
        first, last = date_range
        outside = (days < first.toordinal()) | (days > last.toordinal())
        if outside.any():
            raise DataError("(%s, %s) lies outside %s..%s" % (*first_key(outside), first, last))
        for column in (codes, days, sales, X):  # fresh arrays from the row sort
            column.setflags(write=False)
        for f, value in zip(fields(self), (ids, codes, days, sales, X, names, date_range)):
            object.__setattr__(self, f.name, value)  # each field once, in declared order

    def __len__(self) -> int:
        return len(self.sales)

    def days_mask(self, first: dt.date, last: dt.date) -> np.ndarray:
        """Which rows have first <= day <= last: the rows ``slice_days`` keeps."""
        return (self.day_ordinals >= first.toordinal()) & (self.day_ordinals <= last.toordinal())

    def slice_days(self, first: dt.date, last: dt.date) -> "SalesPanel":
        """Sub-panel of the rows with first <= day <= last."""
        keep = self.days_mask(first, last)
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

    Every failure is a ``DataError``: a malformed row's message starts
    with its 1-based ``line N:`` (a byte that is not UTF-8 included,
    wherever it is, before any row error), and a repeated (item, day)
    pair's names the pair.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError("line %d: not UTF-8 text" % (raw.count(b"\n", 0, exc.start) + 1)) from None
    del raw
    if not text:
        raise DataError("line 1: empty file, expected a header row")
    end = len(text) - text.endswith("\n")  # a final line break ends the last row
    header_end = text.find("\n", 0, end)
    if header_end < 0:
        header_end = end
    header = tuple(text[:header_end].split(","))
    if header[:3] != PANEL_COLUMNS:
        raise DataError(f"line 1: header must start with {','.join(PANEL_COLUMNS)} "
                        f"(got {text[:header_end]!r})")
    problem = _feature_name_problem(header[3:])
    if problem:
        raise DataError(f"line 1: {problem}")
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
            raise DataError(f"line {line_no}: expected {ncol} columns, got {len(parts)}")
        if not parts[0]:
            raise DataError(f"line {line_no}: empty item_id")
        try:
            parse_day(parts[1])
        except ValueError:
            raise DataError(f"line {line_no}: bad date {parts[1]!r}") from None
        try:
            row = [float(p) for p in parts[2:]]
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from None
        if not all(math.isfinite(v) for v in row):
            raise DataError(f"line {line_no}: non-finite value")
        if row[0] < 0:
            raise DataError(f"line {line_no}: negative sales {row[0]}")


def write_csv(path, header, rows) -> None:
    """Write ``header``, then each of ``rows`` (read once, lazily), as lines that end in ``\n``;
    a float cell (Python or numpy) is written at 12 significant digits, any other by ``str``.

    At most ``_BLOCK_ROWS`` lines are formatted at a time, and each block is
    written before the next is formatted.
    """
    lines = chain([header], rows)

    def blocks():
        while block := [",".join([f"{c:.12g}" if isinstance(c, _FLOATS) else str(c) for c in row])
                        for row in islice(lines, _BLOCK_ROWS)]:
            yield "\n".join(block) + "\n"

    write_blocks(path, blocks())


def write_panel(panel: SalesPanel, path) -> None:
    """Write a panel CSV with deterministic (item_id, day) row order, its
    columns turned into Python values one ``_BLOCK_ROWS`` slice at a time."""
    ids = panel.item_ids
    iso: dict[int, str] = {}  # day ordinal -> date text

    def rows():
        for start in range(0, len(panel), _BLOCK_ROWS):
            part = slice(start, start + _BLOCK_ROWS)
            days = panel.day_ordinals[part].tolist()
            for day in set(days).difference(iso):
                iso[day] = dt.date.fromordinal(day).isoformat()
            for code, day, sales, x in zip(panel.item_codes[part].tolist(), days,
                                           panel.sales[part].tolist(),
                                           panel.feature_matrix[part].tolist()):
                yield [ids[code], iso[day], sales, *x]

    write_csv(path, [*PANEL_COLUMNS, *panel.feature_names], rows())
