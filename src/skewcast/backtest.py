"""Rolling-origin backtesting and the experiment grid.

A backtest walks weekly forecast origins ("versions") anchored at the
panel's end: at each origin, every experiment arm trains on the
trailing window strictly before the origin, fits its bias corrector on
training residuals, forecasts the horizon windows, and is scored with
version metrics.  Results aggregate sales-weighted per horizon and are
reported relative to a baseline arm.

The standard grid covers the five design choices usually compared on
skewed sales data (raw squared error, pseudo-Huber, the Tweedie power
range, log target, log target + sqrt-sales weights) plus bias-corrected
variants of the log-target arm, a weight-escalation ladder, and a
Tweedie power sweep.

The grid's unit of work is one (distinct model, origin) job.  Arms that
share a transform, loss and weight scheme fit the same model, so they
form one group: the job fits that model once, predicts the test rows
once, then fits each arm's own corrector on the training predictions
and scores every arm at every horizon.  Jobs run in parallel threads
(``SKEWCAST_THREADS`` caps the pool); every job is pure and writes to
its own slot, and the final assembly is sorted, so ``metrics.csv`` and
``report.json`` are the same bytes at any thread count.
"""

from __future__ import annotations

import datetime as dt
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .biascorr import BiasCorrector, fit_corrector
from .biascorr import KINDS as CORRECTOR_KINDS
from .datagen import load_gen_config, theoretical_tweedie_power
from .errors import (
    ConfigError,
    DataError,
    InsufficientHistory,
    IoFailure,
    check_numbers,
    is_integer,
    json_object,
    write_text,
)
from .learner import FitModel, LearnerConfig, fit
from .losses import LossSpec, WeightScheme
from .metrics import (
    AggregateMetrics,
    RelativeMetrics,
    VersionMetrics,
    aggregate_versions,
    relativize,
    version_metrics,
    write_metrics_csv,
)
from .panel import HORIZONS, ForecastVersion, SalesPanel, _fmt, read_panel
from .transform import TargetTransform, inverse

LADDER_SCHEMES = (
    WeightScheme(kind="unit"),
    WeightScheme(kind="log_sales"),
    WeightScheme(kind="sqrt_sales"),
    WeightScheme(kind="linear_sales"),
)

SWEEP_POWERS = (1.1, 1.3, 1.5, 1.7, 1.9)


def worker_count() -> int:
    """Thread-pool size; SKEWCAST_THREADS overrides the default."""
    raw = os.environ.get("SKEWCAST_THREADS")
    if raw is None:
        return min(8, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"SKEWCAST_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError("SKEWCAST_THREADS must be >= 1")
    return n


@dataclass(frozen=True)
class ExperimentArm:
    """One grid configuration: transform x loss x weights x corrector."""

    id: str
    transform: TargetTransform
    loss: LossSpec
    weight_scheme: WeightScheme
    corrector_kind: str = "none"

    def __post_init__(self):
        if not self.id or any(c in self.id for c in ",\n\r"):
            raise ConfigError(f"arm id {self.id!r} is not representable in CSV")
        if self.corrector_kind not in CORRECTOR_KINDS:
            raise ConfigError(f"unknown corrector kind {self.corrector_kind!r}")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "transform": self.transform.to_json(),
            "loss": self.loss.to_json(),
            "weight_scheme": self.weight_scheme.to_json(),
            "corrector_kind": self.corrector_kind,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentArm":
        obj = json_object(obj, "arm")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"arm JSON has unknown field {unknown[0]!r}")
        try:
            return cls(
                id=obj["id"],
                transform=TargetTransform.from_json(obj["transform"]),
                loss=LossSpec.from_json(obj["loss"]),
                weight_scheme=WeightScheme.from_json(obj["weight_scheme"]),
                corrector_kind=obj.get("corrector_kind", "none"),
            )
        except KeyError as exc:
            raise ConfigError(f"arm JSON missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad arm JSON: {exc}") from None


def standard_arms() -> list[ExperimentArm]:
    """The five classic design choices plus bias-corrected log arms."""
    identity = TargetTransform(kind="identity")
    log = TargetTransform(kind="log")
    unit = WeightScheme(kind="unit")
    arms = [
        ExperimentArm("E1", identity, LossSpec.mse(), unit),
        ExperimentArm("E2", identity, LossSpec.pseudo_huber(1.0), unit),
    ]
    for p in SWEEP_POWERS:
        arms.append(ExperimentArm(f"E3.{round(10 * (p - 1.0))}", identity,
                                  LossSpec.tweedie(p), unit))
    arms += [
        ExperimentArm("E4", log, LossSpec.mse(), unit),
        ExperimentArm("E5", log, LossSpec.mse(), WeightScheme(kind="sqrt_sales")),
        ExperimentArm("E4-S", log, LossSpec.mse(), unit, corrector_kind="smearing"),
        ExperimentArm("E4-V", log, LossSpec.mse(), unit, corrector_kind="variance_based"),
        ExperimentArm("E4-PB", log, LossSpec.mse(), unit, corrector_kind="prediction_binned"),
    ]
    return arms


def arm_by_id(arm_id: str) -> ExperimentArm:
    for arm in standard_arms():
        if arm.id == arm_id:
            return arm
    raise ConfigError(f"unknown arm id {arm_id!r}")


@dataclass(frozen=True)
class BacktestPlan:
    """Everything a backtest run depends on; JSON-serializable."""

    panel_path: str | None = None
    train_window_days: int = 730
    cadence_days: int = 7
    n_versions: int = 8
    horizons: tuple[int, ...] = HORIZONS
    arms: tuple[ExperimentArm, ...] = field(default_factory=lambda: tuple(standard_arms()))
    baseline_id: str = "E5"
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    seed: int = 0
    gen_config_path: str | None = None

    def __post_init__(self):
        check_numbers(self, integers={"train_window_days": 1, "cadence_days": 1,
                                      "n_versions": 1, "seed": None})
        if not self.horizons or any(not is_integer(h) or h not in HORIZONS
                                    for h in self.horizons):
            raise ConfigError(f"horizons must be a nonempty subset of {HORIZONS}, "
                              f"got {list(self.horizons)!r}")
        ids = [arm.id for arm in self.arms]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate arm ids in plan")

    def to_json(self) -> dict:
        return {
            "panel_path": self.panel_path,
            "train_window_days": self.train_window_days,
            "cadence_days": self.cadence_days,
            "n_versions": self.n_versions,
            "horizons": list(self.horizons),
            "arms": [arm.to_json() for arm in self.arms],
            "baseline_id": self.baseline_id,
            "learner": self.learner.to_json(),
            "seed": self.seed,
            "gen_config_path": self.gen_config_path,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BacktestPlan":
        kwargs = dict(json_object(obj, "backtest plan"))
        try:
            if "horizons" in kwargs:
                kwargs["horizons"] = tuple(kwargs["horizons"])
            if "arms" in kwargs:
                kwargs["arms"] = tuple(
                    arm_by_id(a) if isinstance(a, str) else ExperimentArm.from_json(a)
                    for a in kwargs["arms"]
                )
            if "learner" in kwargs:
                kwargs["learner"] = LearnerConfig.from_json(kwargs["learner"])
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad backtest plan: {exc}") from None


def load_plan(path) -> BacktestPlan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read plan {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"plan {path} is not valid JSON: {exc}") from None
    return BacktestPlan.from_json(obj)


def version_origins(panel: SalesPanel, plan: BacktestPlan) -> list[dt.date]:
    """Weekly origins anchored so the longest horizon ends at the panel end."""
    first_day, last_day = panel.date_range
    max_h = max(plan.horizons)
    last_origin = last_day - dt.timedelta(days=7 * max_h)
    origins = [
        last_origin - dt.timedelta(days=plan.cadence_days * k)
        for k in range(plan.n_versions)
    ]
    origins.sort()
    needed_start = origins[0] - dt.timedelta(days=plan.train_window_days)
    if needed_start < first_day:
        raise InsufficientHistory(
            f"panel starts {first_day}, but {plan.n_versions} versions with a "
            f"{plan.train_window_days}-day window need history back to {needed_start}"
        )
    return origins


def _train_slice(panel: SalesPanel, origin: dt.date, window_days: int) -> SalesPanel:
    train = panel.slice_days(origin - dt.timedelta(days=window_days),
                             origin - dt.timedelta(days=1))
    late = train.day_ordinals >= origin.toordinal()  # no-leakage contract, checked every fit
    if late.any():
        day = dt.date.fromordinal(int(train.day_ordinals[late][0]))
        raise DataError(f"leakage: training row on {day} at origin {origin}")
    return train


def _fit_correctors(
    arms: list[ExperimentArm],
    model: FitModel,
    train: SalesPanel,
) -> list[BiasCorrector]:
    """Each arm's bias corrector on a model the arms share.

    The training rows are predicted once, and only if some arm corrects.
    """
    zhat = None
    correctors = []
    for arm in arms:
        if arm.corrector_kind == "none":
            correctors.append(BiasCorrector())
            continue
        if zhat is None:
            zhat = model.predict_transformed(train.feature_matrix)
        correctors.append(fit_corrector(arm.corrector_kind, train.sales, zhat, arm.transform))
    return correctors


def fit_arm(arm: ExperimentArm, train: SalesPanel, learner_cfg: LearnerConfig) -> FitModel:
    """Fit an arm's model on a training panel, corrector included."""
    model = fit(train, arm.transform, arm.loss, arm.weight_scheme, learner_cfg)
    (corrector,) = _fit_correctors([arm], model, train)
    return model.with_corrector(corrector)


def _model_groups(arms) -> list[list[ExperimentArm]]:
    """Arms grouped by the model they fit, in first-seen order."""
    groups: dict[tuple, list[ExperimentArm]] = {}
    for arm in arms:
        groups.setdefault((arm.transform, arm.loss, arm.weight_scheme), []).append(arm)
    return list(groups.values())


def _forecasts(
    arms: list[ExperimentArm],
    plan: BacktestPlan,
    panel: SalesPanel,
    origin: dt.date,
    test: SalesPanel,
) -> list[np.ndarray]:
    """Fit one group's model at one origin; each arm's forecast of the test rows."""
    train = _train_slice(panel, origin, plan.train_window_days)
    lead = arms[0]
    model = fit(train, lead.transform, lead.loss, lead.weight_scheme, plan.learner)
    # corrected exactly as FitModel.predict corrects
    zhat = model.predict_transformed(test.feature_matrix)
    raw = inverse(model.transform, zhat)
    return [c.apply(raw, zhat) for c in _fit_correctors(arms, model, train)]


def _score_versions(
    arms: list[ExperimentArm],
    plan: BacktestPlan,
    panel: SalesPanel,
    origin: dt.date,
) -> list[tuple[str, VersionMetrics]]:
    """Fit one group's model at one origin; score each arm at every horizon.

    A failure is re-raised in its own family (config or data), naming the
    group's arms and the origin.
    """
    try:
        max_h = max(plan.horizons)
        test = panel.slice_days(origin + dt.timedelta(days=1),
                                origin + dt.timedelta(days=7 * max_h))
        forecasts = _forecasts(arms, plan, panel, origin, test)
        return [
            (arm.id, version_metrics(preds, test, ForecastVersion.from_origin(origin, h)))
            for arm, preds in zip(arms, forecasts)
            for h in sorted(plan.horizons)
        ]
    except (ConfigError, DataError) as exc:
        family = ConfigError if isinstance(exc, ConfigError) else DataError
        ids = ", ".join(arm.id for arm in arms)
        noun = "arm" if len(arms) == 1 else "arms"
        raise family(f"{noun} {ids} at origin {origin}: {exc}") from exc


@dataclass
class BacktestReport:
    """Grid results: per-version rows plus per-arm aggregates/relatives."""

    baseline_id: str
    horizons: tuple[int, ...]
    origins: list[dt.date]
    rows: list[tuple[str, VersionMetrics]]
    aggregates: dict[str, dict[int, AggregateMetrics]]
    relatives: dict[str, dict[int, RelativeMetrics]]

    def to_json(self) -> dict:
        arms_obj: dict = {}
        for arm_id, per_h in self.aggregates.items():
            arms_obj[arm_id] = {
                "aggregates": {str(h): _agg_json(m) for h, m in per_h.items()},
                "relative": {
                    str(h): _rel_json(m)
                    for h, m in self.relatives.get(arm_id, {}).items()
                },
            }
        return {
            "baseline_id": self.baseline_id,
            "horizons": list(self.horizons),
            "origins": [d.isoformat() for d in self.origins],
            "arms": arms_obj,
        }


def _agg_json(m: AggregateMetrics) -> dict:
    return {
        "wmape": m.wmape,
        "wbias": m.wbias,
        "total_actual": m.total_actual,
        "n_versions": m.n_versions,
        "skipped_items": m.skipped_items,
    }


def _rel_json(m: RelativeMetrics) -> dict:
    return {
        "wmape_rel": m.wmape_rel,
        "wbias_rel": m.wbias_rel,
        "baseline_id": m.baseline_id,
    }


def _run_grid(
    arms: tuple[ExperimentArm, ...] | list[ExperimentArm],
    plan: BacktestPlan,
    panel: SalesPanel,
) -> tuple[list[tuple[str, VersionMetrics]], dict[str, dict[int, AggregateMetrics]]]:
    """Run every (distinct model, origin) job; sorted rows and per-arm aggregates."""
    origins = version_origins(panel, plan)
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        futures = [pool.submit(_score_versions, group, plan, panel, origin)
                   for group in _model_groups(arms) for origin in origins]
        rows = [row for fut in futures for row in fut.result()]
    rows.sort(key=lambda r: (r[0], r[1].version.label, r[1].horizon_weeks))
    aggregates = {
        arm.id: aggregate_versions([vm for aid, vm in rows if aid == arm.id])
        for arm in arms
    }
    return rows, aggregates


def _panel_of(plan: BacktestPlan, panel: SalesPanel | None) -> SalesPanel:
    """The supplied panel, else the one at the plan's panel_path."""
    if panel is not None:
        return panel
    if plan.panel_path is None:
        raise ConfigError("plan has no panel_path and no panel was supplied")
    return read_panel(plan.panel_path)


def run_backtest(plan: BacktestPlan, panel: SalesPanel | None = None) -> BacktestReport:
    """Run the experiment grid and relativize against the baseline arm."""
    panel = _panel_of(plan, panel)
    ids = [arm.id for arm in plan.arms]
    if plan.baseline_id not in ids:
        raise ConfigError(f"baseline arm {plan.baseline_id!r} is not in the plan")
    rows, aggregates = _run_grid(plan.arms, plan, panel)
    base = aggregates[plan.baseline_id]
    relatives = {
        arm_id: {
            h: relativize(per_h[h], base[h], plan.baseline_id)
            for h in per_h
        }
        for arm_id, per_h in aggregates.items()
    }
    return BacktestReport(
        baseline_id=plan.baseline_id,
        horizons=tuple(sorted(plan.horizons)),
        origins=version_origins(panel, plan),
        rows=rows,
        aggregates=aggregates,
        relatives=relatives,
    )


def make_out_dir(out_dir) -> None:
    """Create an output directory (and its parents) if it is missing."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {out_dir}: {exc}") from exc


def write_backtest_outputs(report: BacktestReport, out_dir) -> None:
    """Emit metrics.csv and report.json into out_dir."""
    make_out_dir(out_dir)
    write_metrics_csv(report.rows, os.path.join(out_dir, "metrics.csv"))
    _write_json(report.to_json(), os.path.join(out_dir, "report.json"))


def _write_json(obj: dict, path) -> None:
    write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _count_inversions(values: list[float], direction: str) -> int:
    """Adjacent pairs violating a non-decreasing/non-increasing trend."""
    bad = 0
    for a, b in zip(values, values[1:]):
        if direction == "non_decreasing" and b < a:
            bad += 1
        elif direction == "non_increasing" and b > a:
            bad += 1
    return bad


@dataclass
class TrendReport:
    """Aggregated metrics along an ordered axis plus a monotonicity verdict."""

    axis_name: str
    axis_values: list[str]
    table: list[dict]  # one entry per (axis value, horizon)
    verdicts: dict[int, dict]
    rows: list[tuple[str, VersionMetrics]]
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "axis": self.axis_name,
            "order": self.axis_values,
            "table": self.table,
            "verdicts": {str(h): v for h, v in self.verdicts.items()},
            **self.extra,
        }


def _trend(
    plan: BacktestPlan,
    panel: SalesPanel,
    arms: list[ExperimentArm],
    axis_name: str,
    axis_values: list[str],
    direction: str,
) -> TrendReport:
    rows, aggregates = _run_grid(arms, plan, panel)
    table = []
    verdicts: dict[int, dict] = {}
    for h in sorted(plan.horizons):
        series = [aggregates[arm.id][h] for arm in arms]
        for value, agg in zip(axis_values, series):
            table.append({
                axis_name: value,
                "horizon_weeks": h,
                "wmape": agg.wmape,
                "wbias": agg.wbias,
                "total_actual": agg.total_actual,
                "n_versions": agg.n_versions,
                "skipped_items": agg.skipped_items,
            })
        wbias_series = [agg.wbias for agg in series]
        inversions = _count_inversions(wbias_series, direction)
        verdicts[h] = {
            "wbias_direction": direction,
            "inversions": inversions,
            "monotone": inversions == 0,
            "within_tolerance": inversions <= 1,
            "wbias_series": wbias_series,
        }
    table.sort(key=lambda r: (r["horizon_weeks"], axis_values.index(r[axis_name])))
    return TrendReport(
        axis_name=axis_name,
        axis_values=axis_values,
        table=table,
        verdicts=verdicts,
        rows=rows,
    )


def run_weight_ladder(
    plan: BacktestPlan,
    schemes=LADDER_SCHEMES,
    panel: SalesPanel | None = None,
) -> TrendReport:
    """Log-target Mse arms with increasingly sales-proportional weights.

    The expected trend: wbias climbs from strongly negative toward zero
    as weights escalate from unit to linear-in-sales.
    """
    panel = _panel_of(plan, panel)
    log = TargetTransform(kind="log")
    arms = [
        ExperimentArm(f"W{i}-{s.label()}", log, LossSpec.mse(), s)
        for i, s in enumerate(schemes)
    ]
    return _trend(plan, panel, arms, "scheme", [s.label() for s in schemes],
                  direction="non_decreasing")


def run_power_sweep(
    plan: BacktestPlan,
    powers=SWEEP_POWERS,
    panel: SalesPanel | None = None,
) -> TrendReport:
    """Identity-transform Tweedie arms across the variance-power range.

    The expected trend: wbias falls (from positive toward or past zero)
    as p rises; wmape bottoms out near the generator's true power, which
    is recorded in the report when the plan points at its config.
    """
    panel = _panel_of(plan, panel)
    identity = TargetTransform(kind="identity")
    unit = WeightScheme(kind="unit")
    arms = [
        ExperimentArm(f"P{p:.1f}", identity, LossSpec.tweedie(p), unit)
        for p in powers
    ]
    report = _trend(plan, panel, arms, "power", [f"{p:.1f}" for p in powers],
                    direction="non_increasing")
    best = {}
    for h in sorted(plan.horizons):
        at_h = [r for r in report.table if r["horizon_weeks"] == h]
        best[str(h)] = min(at_h, key=lambda r: r["wmape"])["power"]
    report.extra["best_wmape_power"] = best
    if plan.gen_config_path is not None:
        cfg = load_gen_config(plan.gen_config_path)
        report.extra["theoretical_tweedie_power"] = theoretical_tweedie_power(cfg)
    return report


def write_trend_outputs(report: TrendReport, out_dir, csv_name: str) -> None:
    """Emit <csv_name> (trend table), metrics.csv (per-version), report.json."""
    make_out_dir(out_dir)
    write_metrics_csv(report.rows, os.path.join(out_dir, "metrics.csv"))
    header = [report.axis_name, "horizon_weeks", "wmape", "wbias",
              "total_actual", "n_versions", "skipped_items"]
    lines = [",".join(header)]
    for row in report.table:
        lines.append(",".join([
            str(row[report.axis_name]),
            str(row["horizon_weeks"]),
            _fmt(row["wmape"]),
            _fmt(row["wbias"]),
            _fmt(row["total_actual"]),
            str(row["n_versions"]),
            str(row["skipped_items"]),
        ]))
    write_text(os.path.join(out_dir, csv_name), "\n".join(lines) + "\n")
    _write_json(report.to_json(), os.path.join(out_dir, "report.json"))
