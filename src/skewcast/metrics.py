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

Items within a version and versions within a horizon are weighted by
one rule, ``_weighted_mean``, which refuses a sum that overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, finite
from .panel import ForecastVersion, SalesPanel, write_csv


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


# a metrics.csv row is its config id, its version's label, then the rest as its metrics' fields
_COLUMNS = ("config_id", "version", "horizon_weeks",
            *(f.name for f in fields(VersionMetrics) if f.name != "version"))


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


def _weighted_mean(weights, values, what: str) -> tuple[float, float]:
    """The total of ``weights`` and the mean of ``values`` under them, each
    sum taken left to right (``sum()`` compensates its rounding from Python
    3.12 on); a total or mean that is not finite is a ``DataError`` naming
    ``what``, the mean."""
    total = weighted = 0.0
    for w, v in zip(weights, values):
        total += w
        weighted += w * v
    finite(total, f"the sales total of {what}")
    return total, finite(weighted / total, what)


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
        raise DataError(f"{forecasts.shape} forecasts for {len(panel)} panel rows")
    finite(forecasts, "a forecast")
    if not len(panel):
        raise DataError("no items to score")
    inside = panel.days_mask(version.window_start, version.window_end)
    codes, n_items = panel.item_codes[inside], len(panel.item_ids)
    # bincount adds in row order, as a running sum would; np.sum would not
    actual = np.bincount(codes, weights=panel.sales[inside], minlength=n_items)
    forecast = np.bincount(codes, weights=forecasts[inside], minlength=n_items)
    scored = actual > 0.0
    if not scored.any():
        raise DataError("every item has zero actuals over the horizon")
    weights = actual[scored].tolist()
    pe = [(f_i - a_i) / a_i for f_i, a_i in zip(forecast[scored].tolist(), weights)]
    h = version.horizon_weeks
    total, wmape = _weighted_mean(weights, map(abs, pe), f"the {h}-week wmape")
    _, wbias = _weighted_mean(weights, pe, f"the {h}-week wbias")
    return VersionMetrics(version, wmape, wbias, total, n_items - len(weights))


def aggregate_versions(per_version: list[VersionMetrics]) -> dict[int, AggregateMetrics]:
    """Sales-weighted average of wmape and wbias, one summary per horizon;
    each sum runs over the versions in the order given."""
    if not per_version:
        raise DataError("no version metrics to aggregate")
    out: dict[int, AggregateMetrics] = {}
    for h in sorted({vm.horizon_weeks for vm in per_version}):
        group = [vm for vm in per_version if vm.horizon_weeks == h]
        weights = [vm.total_actual for vm in group]
        total, wmape = _weighted_mean(weights, (vm.wmape for vm in group),
                                      f"the {h}-week wmape over {len(group)} versions")
        _, wbias = _weighted_mean(weights, (vm.wbias for vm in group),
                                  f"the {h}-week wbias over {len(group)} versions")
        out[h] = AggregateMetrics(h, wmape, wbias, total, len(group),
                                  sum(vm.skipped_items for vm in group))
    return out


def relativize(target: AggregateMetrics, baseline: AggregateMetrics,
               baseline_id: str) -> RelativeMetrics:
    """Target metrics over baseline metrics; wbias keeps the target's sign.
    A ratio that is not finite is a ``DataError`` naming its horizon and
    baseline."""
    if baseline.wmape <= 0.0:
        raise DataError("baseline wmape is zero; ratios are undefined")
    if baseline.wbias == 0.0:
        raise DataError("baseline wbias is zero; ratios are undefined")

    def ratio(name: str, over: float) -> float:
        return finite(getattr(target, name) / over,
                      f"the {target.horizon_weeks}-week {name} relative to {baseline_id}")

    return RelativeMetrics(ratio("wmape", baseline.wmape), ratio("wbias", abs(baseline.wbias)),
                           baseline_id)


def row_order(row: tuple[str, VersionMetrics]) -> tuple[str, str, int]:
    """Sort key of a (config id, version metrics) row: config, version, horizon."""
    config_id, vm = row
    return config_id, vm.version.label, vm.horizon_weeks


def write_metrics_csv(rows: list[tuple[str, VersionMetrics]], path) -> None:
    """Write per-version metric rows in ``row_order``."""
    write_csv(path, _COLUMNS, ([arm_id, vm.version.label, *(getattr(vm, c) for c in _COLUMNS[2:])]
                               for arm_id, vm in sorted(rows, key=row_order)))
