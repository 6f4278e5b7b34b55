"""Sales panel data model and its CSV contract.

A panel is the universal currency between modules: item x day rows with
non-negative sales and a fixed-length feature vector, held as parallel
columns ordered by (item, day).  ``item_codes`` index the ascending
``item_ids`` and days are ``date.toordinal()`` values.  CSV is the sole
on-disk format: ``item_id,day,sales,<feature names...>`` with ISO dates,
floats at 12 significant digits, and no quoting (item ids containing
commas are rejected outright).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

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


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@dataclass(eq=False)
class SalesPanel:
    """Validated, canonically ordered panel columns.

    ``item_codes[r]`` indexes ``item_ids`` for row r.  Construction
    accepts the ids in any order, keeps those that have rows, sorts them
    ascending and re-codes the rows, then sorts rows by (item, day).  It
    checks that the columns agree in length, item ids are distinct and
    CSV-representable, (item, day) pairs are unique, sales and features
    are finite, sales are non-negative, and every day lies inside
    ``date_range``.  Instances are treated as immutable after
    construction and are safe to share across threads.
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
        if n and (codes.min() < 0 or codes.max() >= len(ids)):
            raise DataError(f"item codes must lie in [0, {len(ids)})")
        keep = sorted(np.unique(codes).tolist(), key=ids.__getitem__)
        recode = np.zeros(len(ids), dtype=np.int64)
        recode[keep] = np.arange(len(keep))
        self.item_ids = [ids[c] for c in keep]
        for item in self.item_ids:
            if not item or any(c in item for c in ",\n\r"):
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
        return self.origin_day + dt.timedelta(days=7 * self.horizon_weeks)


def read_panel(path) -> SalesPanel:
    """Parse and validate a panel CSV.

    Raises MalformedRow / NegativeSales with 1-based line numbers (a
    byte that is not UTF-8 included), and DuplicateKey for repeated
    (item, day) pairs.
    """
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
        try:
            day = dt.date.fromisoformat(parts[1])
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
    return SalesPanel(list(codes), item_codes, days, table[:, 0], table[:, 1:], header[3:])


def write_panel(panel: SalesPanel, path) -> None:
    """Write a panel CSV with deterministic (item_id, day) row order."""
    out = [",".join(["item_id", "day", "sales", *panel.feature_names])]
    iso = {d: dt.date.fromordinal(d).isoformat() for d in set(panel.day_ordinals.tolist())}
    for code, day, sales, features in zip(panel.item_codes.tolist(), panel.day_ordinals.tolist(),
                                          panel.sales.tolist(), panel.feature_matrix.tolist()):
        out.append(",".join([panel.item_ids[code], iso[day], _fmt(sales), *map(_fmt, features)]))
    write_text(path, "\n".join(out) + "\n")
