"""Forecast accuracy metrics: weighted MAPE and weighted bias.

Forecasts are judged per forecast version: for every item, forecasts
and actuals are summed over the version's horizon window and turned
into one percent error per item.  Items are then aggregated weighted by
their actual totals, so high-volume items dominate, matching how the
business reads the numbers.  WBias keeps the sign (negative means
under-forecasting); WMAPE takes absolute values, so |WBias| <= WMAPE
always.

Versions aggregate into one summary per horizon via sales-weighted
averaging, and summaries are reported relative to a baseline
configuration: wmape_rel = wmape / baseline wmape, wbias_rel = wbias /
|baseline wbias| (sign of the target preserved).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateBaseline,
    DomainError,
    EmptyInput,
    LengthMismatch,
    NoValidItems,
    write_text,
)
from .panel import ForecastVersion, SalesPanel, _cell


@dataclass(frozen=True)
class VersionMetrics:
    """Accuracy of one configuration on one forecast version."""

    version: ForecastVersion
    wmape: float
    wbias: float
    total_actual: float
    skipped_items: int

    @property
    def horizon_weeks(self) -> int:
        return self.version.horizon_weeks


# a metrics.csv row is its config id, its version's label and horizon, then these
_SCORES = tuple(f.name for f in fields(VersionMetrics) if f.name != "version")
METRICS_CSV_HEADER = ",".join(("config_id", "version", "horizon_weeks", *_SCORES))


@dataclass(frozen=True)
class AggregateMetrics:
    """Sales-weighted average of version metrics at one horizon."""

    horizon_weeks: int
    wmape: float
    wbias: float
    total_actual: float
    n_versions: int
    skipped_items: int


@dataclass(frozen=True)
class RelativeMetrics:
    """Metrics of a configuration relative to a named baseline."""

    wmape_rel: float
    wbias_rel: float
    baseline_id: str


def version_metrics(forecasts, panel: SalesPanel, version: ForecastVersion) -> VersionMetrics:
    """Actual-weighted |PE| and PE across items for one version.

    ``forecasts`` holds one finite value per row of ``panel``, whose sales
    are the actuals.  Both are summed per item over the version's window,
    day by day in row order.  Every item of the panel is scored; items
    whose actual total over the window is zero carry no weight and are
    skipped (the percent error is undefined there); they are counted in
    ``skipped_items``.
    """
    forecasts = np.asarray(forecasts, dtype=np.float64)
    if forecasts.shape != panel.sales.shape:
        raise LengthMismatch(f"{forecasts.shape} forecasts for {len(panel)} panel rows")
    if not np.isfinite(forecasts).all():
        raise DomainError("a forecast is not finite")
    if not len(panel):
        raise NoValidItems("no items to score")
    days = panel.day_ordinals
    inside = (days >= version.window_start.toordinal()) & (days <= version.window_end.toordinal())
    codes, n_items = panel.item_codes[inside], len(panel.item_ids)
    # bincount adds in row order, as a running sum would; np.sum would not
    actual = np.bincount(codes, weights=panel.sales[inside], minlength=n_items)
    forecast = np.bincount(codes, weights=forecasts[inside], minlength=n_items)
    abs_sum = 0.0
    signed_sum = 0.0
    total_actual = 0.0
    skipped = 0
    for a_i, f_i in zip(actual.tolist(), forecast.tolist()):
        if a_i <= 0.0:
            skipped += 1
            continue
        pe = (f_i - a_i) / a_i
        abs_sum += a_i * abs(pe)
        signed_sum += a_i * pe
        total_actual += a_i
    if total_actual <= 0.0:
        raise NoValidItems("every item has zero actuals over the horizon")
    return VersionMetrics(
        version=version,
        wmape=abs_sum / total_actual,
        wbias=signed_sum / total_actual,
        total_actual=total_actual,
        skipped_items=skipped,
    )


def aggregate_versions(per_version: list[VersionMetrics]) -> dict[int, AggregateMetrics]:
    """Sales-weighted average of wmape and wbias, one summary per horizon."""
    if not per_version:
        raise EmptyInput("no version metrics to aggregate")
    out: dict[int, AggregateMetrics] = {}
    for h in sorted({vm.horizon_weeks for vm in per_version}):
        group = [vm for vm in per_version if vm.horizon_weeks == h]
        weight = sum(vm.total_actual for vm in group)
        out[h] = AggregateMetrics(
            horizon_weeks=h,
            wmape=sum(vm.total_actual * vm.wmape for vm in group) / weight,
            wbias=sum(vm.total_actual * vm.wbias for vm in group) / weight,
            total_actual=weight,
            n_versions=len(group),
            skipped_items=sum(vm.skipped_items for vm in group),
        )
    return out


def relativize(target: AggregateMetrics, baseline: AggregateMetrics,
               baseline_id: str) -> RelativeMetrics:
    """Target metrics over baseline metrics; wbias keeps the target's sign."""
    if baseline.wmape <= 0.0:
        raise DegenerateBaseline("baseline wmape is zero; ratios are undefined")
    if baseline.wbias == 0.0:
        raise DegenerateBaseline("baseline wbias is zero; ratios are undefined")
    return RelativeMetrics(
        wmape_rel=target.wmape / baseline.wmape,
        wbias_rel=target.wbias / abs(baseline.wbias),
        baseline_id=baseline_id,
    )


def row_order(row: tuple[str, VersionMetrics]) -> tuple[str, str, int]:
    """Sort key of a (config id, version metrics) row: config, version, horizon."""
    config_id, vm = row
    return config_id, vm.version.label, vm.horizon_weeks


def write_metrics_csv(rows: list[tuple[str, VersionMetrics]], path) -> None:
    """Write per-version metric rows in ``row_order``."""
    ordered = sorted(rows, key=row_order)
    lines = [METRICS_CSV_HEADER]
    for config_id, vm in ordered:
        lines.append(",".join([config_id, vm.version.label, str(vm.horizon_weeks),
                               *(_cell(getattr(vm, name)) for name in _SCORES)]))
    write_text(path, "\n".join(lines) + "\n")
