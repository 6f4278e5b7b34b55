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
and scores every arm at every horizon.  Before the pool starts, each
origin's training and test windows are sliced once and shared by every
group's job, and every job is checked (non-empty windows, fittable
training targets), so a plan that cannot work fails before its first
fit and names every failing arm and origin.  Jobs run in parallel threads
(``SKEWCAST_THREADS`` caps the pool); every job is pure and writes to
its own slot, and the final assembly is sorted, so ``metrics.csv`` and
``report.json`` are the same bytes at any thread count.
"""

from __future__ import annotations

import datetime as dt
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .biascorr import BiasCorrector, fit_corrector
from .biascorr import KINDS as CORRECTOR_KINDS
from .datagen import load_gen_config, theoretical_tweedie_power
from .errors import (
    ConfigError,
    DataError,
    EmptyInput,
    InsufficientHistory,
    IoFailure,
    check_numbers,
    is_integer,
    json_object,
    read_json,
    write_text,
)
from .learner import FitModel, LearnerConfig, fit, fit_targets
from .losses import LossSpec, WeightScheme
from .metrics import (
    AggregateMetrics,
    RelativeMetrics,
    VersionMetrics,
    aggregate_versions,
    relativize,
    row_order,
    version_metrics,
    write_metrics_csv,
)
from .panel import HORIZONS, ForecastVersion, SalesPanel, _cell, is_csv_name, read_panel
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
        if not is_csv_name(self.id):
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
        obj = json_object(obj, "arm", cls)
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
    n_versions: int = 8
    horizons: tuple[int, ...] = HORIZONS
    arms: tuple[ExperimentArm, ...] = field(default_factory=lambda: tuple(standard_arms()))
    baseline_id: str = "E5"
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    gen_config_path: str | None = None

    def __post_init__(self):
        check_numbers(self, integers={"train_window_days": 1, "n_versions": 1})
        if (not self.horizons or any(not is_integer(h) or h not in HORIZONS
                                     for h in self.horizons)
                or len(set(self.horizons)) != len(self.horizons)):
            raise ConfigError(f"horizons must be distinct members of {HORIZONS}, "
                              f"got {list(self.horizons)!r}")
        ids = [arm.id for arm in self.arms]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate arm ids in plan")

    def to_json(self) -> dict:
        return {
            "panel_path": self.panel_path,
            "train_window_days": self.train_window_days,
            "n_versions": self.n_versions,
            "horizons": list(self.horizons),
            "arms": [arm.to_json() for arm in self.arms],
            "baseline_id": self.baseline_id,
            "learner": self.learner.to_json(),
            "gen_config_path": self.gen_config_path,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BacktestPlan":
        kwargs = dict(json_object(obj, "backtest plan", cls))
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
    return BacktestPlan.from_json(read_json(path, "plan"))


def version_origins(panel: SalesPanel, plan: BacktestPlan) -> list[dt.date]:
    """Weekly origins anchored so the longest horizon ends at the panel end; the
    history they need is checked on day ordinals, before any date is built."""
    if len(panel) == 0:
        raise EmptyInput("panel has no rows")
    first_day, last_day = panel.date_range
    last_origin = last_day.toordinal() - ForecastVersion.window_length(max(plan.horizons)).days
    first_origin = last_origin - 7 * (plan.n_versions - 1)
    if first_origin - plan.train_window_days < first_day.toordinal():
        needed = last_day.toordinal() - first_origin + plan.train_window_days + 1
        raise InsufficientHistory(
            f"panel starts {first_day}, but the plan (n_versions {plan.n_versions}, "
            f"a {max(plan.horizons)}-week horizon, a {plan.train_window_days}-day "
            f"window) needs {needed} days of history up to {last_day}"
        )
    return [dt.date.fromordinal(d) for d in range(first_origin, last_origin + 1, 7)]


def _windows(
    panel: SalesPanel, plan: BacktestPlan, origins: list[dt.date],
) -> list[tuple[dt.date, SalesPanel, SalesPanel]]:
    """Each origin's training and test windows, sliced once for every job.

    The training window is the trailing ``train_window_days`` strictly
    before the origin (the no-leakage contract is checked here); the test
    window is the longest horizon's.  An error names its origin.
    """
    windows = []
    for origin in origins:
        with _naming(f"origin {origin}"):
            train = _train_slice(panel, origin, plan.train_window_days)
            longest = ForecastVersion(origin, max(plan.horizons))
            test = panel.slice_days(longest.window_start, longest.window_end)
        windows.append((origin, train, test))
    return windows


def _train_slice(panel: SalesPanel, origin: dt.date, window_days: int) -> SalesPanel:
    train = panel.slice_days(origin - dt.timedelta(days=window_days),
                             origin - dt.timedelta(days=1))
    late = train.day_ordinals >= origin.toordinal()  # the no-leakage contract
    if late.any():
        day = dt.date.fromordinal(int(train.day_ordinals[late][0]))
        raise DataError(f"leakage: training row on {day}")
    return train


@contextmanager
def _naming(what: str):
    """Re-raise a config or data error in its own family, prefixed with ``what``."""
    try:
        yield
    except (ConfigError, DataError) as exc:
        family = ConfigError if isinstance(exc, ConfigError) else DataError
        raise family(f"{what}: {exc}") from exc


def _arms_at(arms: list[ExperimentArm], origin: dt.date) -> str:
    noun = "arm" if len(arms) == 1 else "arms"
    return f"{noun} {', '.join(arm.id for arm in arms)} at origin {origin}"


def _preflight(groups: list[list[ExperimentArm]], windows) -> None:
    """Check that every (model group, origin) job can start, before any fit.

    Both windows must hold rows, and the training targets must pass the
    fit's own checks (`fit_targets`).  Every problem is reported in one
    error, a ``ConfigError`` if any problem is one and else a
    ``DataError``, chained to the first problem of its family.
    """
    problems = []
    for group in groups:
        lead = group[0]
        for origin, train, test in windows:
            try:
                if len(train) == 0:
                    raise EmptyInput("empty training window")
                if len(test) == 0:
                    raise EmptyInput("empty test window")
                fit_targets(lead.transform, lead.loss, train.sales)
            except (ConfigError, DataError) as exc:
                problems.append((_arms_at(group, origin), exc))
    if problems:
        detail = "; ".join(f"{who}: {exc}" for who, exc in problems)
        first = next((exc for _, exc in problems if isinstance(exc, ConfigError)),
                     problems[0][1])
        family = ConfigError if isinstance(first, ConfigError) else DataError
        raise family(detail) from first


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
    train: SalesPanel,
    test: SalesPanel,
) -> list[np.ndarray]:
    """Fit one group's model on a training window; each arm's forecast of the test rows."""
    lead = arms[0]
    model = fit(train, lead.transform, lead.loss, lead.weight_scheme, plan.learner)
    # corrected exactly as FitModel.predict corrects
    zhat = model.predict_transformed(test.feature_matrix)
    raw = inverse(model.transform, zhat)
    return [c.apply(raw, zhat) for c in _fit_correctors(arms, model, train)]


def _score_versions(
    arms: list[ExperimentArm],
    plan: BacktestPlan,
    origin: dt.date,
    train: SalesPanel,
    test: SalesPanel,
) -> list[tuple[str, VersionMetrics]]:
    """Fit one group's model at one origin; score each arm at every horizon.

    A failure is re-raised in its own family (config or data), naming the
    group's arms and the origin.
    """
    with _naming(_arms_at(arms, origin)):
        forecasts = _forecasts(arms, plan, train, test)
        return [
            (arm.id, version_metrics(preds, test, ForecastVersion(origin, h)))
            for arm, preds in zip(arms, forecasts)
            for h in sorted(plan.horizons)
        ]


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
                    str(h): asdict(m) for h, m in self.relatives.get(arm_id, {}).items()
                },
            }
        return {
            "baseline_id": self.baseline_id,
            "horizons": list(self.horizons),
            "origins": [d.isoformat() for d in self.origins],
            "arms": arms_obj,
        }


def _agg_json(m: AggregateMetrics) -> dict:
    """An aggregate's fields but its horizon, which keys it in the report."""
    obj = asdict(m)
    del obj["horizon_weeks"]
    return obj


def _run_grid(
    arms: tuple[ExperimentArm, ...] | list[ExperimentArm],
    plan: BacktestPlan,
    panel: SalesPanel,
) -> tuple[list[dt.date], list[tuple[str, VersionMetrics]],
           dict[str, dict[int, AggregateMetrics]]]:
    """Run every (distinct model, origin) job; the origins, sorted rows and
    per-arm aggregates.

    Each origin's windows are sliced once, and every job is checked,
    before the pool starts.
    """
    origins = version_origins(panel, plan)
    windows = _windows(panel, plan, origins)
    groups = _model_groups(arms)
    _preflight(groups, windows)
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        futures = [pool.submit(_score_versions, group, plan, *window)
                   for group in groups for window in windows]
        rows = [row for fut in futures for row in fut.result()]
    rows.sort(key=row_order)
    aggregates = {
        arm.id: aggregate_versions([vm for aid, vm in rows if aid == arm.id])
        for arm in arms
    }
    return origins, rows, aggregates


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
    origins, rows, aggregates = _run_grid(plan.arms, plan, panel)
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
        origins=origins,
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


def write_backtest_outputs(report: BacktestReport | TrendReport, out_dir) -> None:
    """Emit metrics.csv and report.json into out_dir."""
    make_out_dir(out_dir)
    write_metrics_csv(report.rows, os.path.join(out_dir, "metrics.csv"))
    write_text(os.path.join(out_dir, "report.json"),
               json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")


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
    _, rows, aggregates = _run_grid(arms, plan, panel)
    table = []
    verdicts: dict[int, dict] = {}
    for h in sorted(plan.horizons):
        series = [aggregates[arm.id][h] for arm in arms]
        for value, agg in zip(axis_values, series):
            table.append({axis_name: value, **asdict(agg)})
        wbias_series = [agg.wbias for agg in series]
        inversions = _count_inversions(wbias_series, direction)
        verdicts[h] = {
            "wbias_direction": direction,
            "inversions": inversions,
            "monotone": inversions == 0,
            "within_tolerance": inversions <= 1,
            "wbias_series": wbias_series,
        }
    return TrendReport(
        axis_name=axis_name,
        axis_values=axis_values,
        table=table,
        verdicts=verdicts,
        rows=rows,
    )


def run_weight_ladder(plan: BacktestPlan, panel: SalesPanel | None = None) -> TrendReport:
    """Log-target Mse arms with increasingly sales-proportional weights.

    The expected trend: wbias climbs from strongly negative toward zero
    as weights escalate from unit to linear-in-sales.
    """
    panel = _panel_of(plan, panel)
    log = TargetTransform(kind="log")
    arms = [
        ExperimentArm(f"W{i}-{s.kind}", log, LossSpec.mse(), s)
        for i, s in enumerate(LADDER_SCHEMES)
    ]
    return _trend(plan, panel, arms, "scheme", [s.kind for s in LADDER_SCHEMES],
                  direction="non_decreasing")


def run_power_sweep(plan: BacktestPlan, panel: SalesPanel | None = None) -> TrendReport:
    """Identity-transform Tweedie arms across the variance-power range.

    The expected trend: wbias falls (from positive toward or past zero)
    as p rises; wmape bottoms out near the generator's true power, which
    is recorded in the report when the plan points at its config.
    """
    panel = _panel_of(plan, panel)
    # a bad generator config must fail before the first fit, not after the last
    cfg = None if plan.gen_config_path is None else load_gen_config(plan.gen_config_path)
    identity = TargetTransform(kind="identity")
    unit = WeightScheme(kind="unit")
    arms = [
        ExperimentArm(f"P{p:.1f}", identity, LossSpec.tweedie(p), unit)
        for p in SWEEP_POWERS
    ]
    report = _trend(plan, panel, arms, "power", [f"{p:.1f}" for p in SWEEP_POWERS],
                    direction="non_increasing")
    best = {}
    for h in sorted(plan.horizons):
        at_h = [r for r in report.table if r["horizon_weeks"] == h]
        best[str(h)] = min(at_h, key=lambda r: r["wmape"])["power"]
    report.extra["best_wmape_power"] = best
    if cfg is not None:
        report.extra["theoretical_tweedie_power"] = theoretical_tweedie_power(cfg)
    return report


def write_trend_outputs(report: TrendReport, out_dir, csv_name: str) -> None:
    """Emit <csv_name> (trend table), metrics.csv (per-version), report.json."""
    write_backtest_outputs(report, out_dir)
    lines = [",".join(report.table[0])]  # the axis, the horizon, then the aggregate's fields
    for row in report.table:
        lines.append(",".join(map(_cell, row.values())))
    write_text(os.path.join(out_dir, csv_name), "\n".join(lines) + "\n")
