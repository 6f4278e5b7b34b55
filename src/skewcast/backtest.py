"""Rolling-origin backtesting and the experiment grid.

A backtest walks weekly forecast origins ("versions") anchored at the
panel's end: at each origin, every experiment arm trains on the
trailing window strictly before the origin, fits its bias corrector on
training residuals, forecasts the horizon windows, and is scored with
version metrics.  Results aggregate sales-weighted per horizon and are
reported relative to a baseline arm.

``STUDIES`` holds the paper's three studies, one row per CLI command:
the grid of design choices, a weight-escalation ladder and a Tweedie
power sweep.  ``run_study`` runs any of them on one grid, so a model
two studies share is fitted once per origin; a study is added as a
roster function and a row.

The grid's unit of work is one origin's job.  Arms that share a
transform, loss and weight scheme fit the same model, so they form one
group: for each group in plan order, the job fits that model once and
each arm's own corrector on the training predictions (``fit_arm``,
which ``skewcast fit`` also runs), predicts the test rows once, corrects
them per arm and scores every arm at every horizon.  The job slices its
origin's training and test windows, shares them among the groups and
drops them when it returns, so at most ``worker_count()`` origins'
windows are alive at once.  Before the first job, every (group, origin)
pair is checked on the panel itself, with no window built (a non-empty
training window, a sale in every horizon's window, fittable training
targets), so a plan that cannot work fails before its first fit and
names every failing arm and origin.  The
calling thread runs jobs, with ``min(SKEWCAST_THREADS, origins) - 1``
helper threads beside it; every job is pure and writes to its own slot,
and the final assembly is sorted, so ``metrics.csv`` and
``report.json`` are the same bytes at any thread count.

Study reports are frozen, and one writer, ``write_backtest_outputs``,
writes any study's files: the ones its row's ``files`` names.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from .biascorr import check_corrector, fit_corrector
from .datagen import load_gen_config, theoretical_tweedie_power
from .errors import (
    ConfigError,
    DataError,
    JsonRecord,
    at_least,
    read_json,
    write_text,
)
from .learner import FitModel, LearnerConfig, fit, fit_targets, forecasts
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
from .panel import HORIZONS, ForecastVersion, SalesPanel, is_csv_name, read_panel, write_csv
from .transform import TargetTransform

LADDER_SCHEMES = (
    WeightScheme(kind="unit"),
    WeightScheme(kind="log_sales"),
    WeightScheme(kind="sqrt_sales"),
    WeightScheme(kind="linear_sales"),
)

SWEEP_POWERS = (1.1, 1.3, 1.5, 1.7, 1.9)


def worker_count() -> int:
    """Threads that run grid jobs, the calling one included; SKEWCAST_THREADS
    overrides the default."""
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
class ExperimentArm(JsonRecord):
    """One grid configuration: transform x loss x weights x corrector."""

    JSON_NAME = "arm"

    id: str
    transform: TargetTransform
    loss: LossSpec
    weight_scheme: WeightScheme
    corrector_kind: str = "none"

    def __post_init__(self):
        super().__post_init__()
        if not is_csv_name(self.id):
            raise ConfigError(f"arm id {self.id!r} is not representable in CSV")
        with _naming(f"arm {self.id}"):
            check_corrector(self.corrector_kind, self.transform)

    @classmethod
    def from_json(cls, obj) -> "ExperimentArm":
        """An arm object, or the id of a standard arm (as in a plan's ``arms``)."""
        return arm_by_id(obj) if isinstance(obj, str) else super().from_json(obj)


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
class BacktestPlan(JsonRecord):
    """Everything a backtest run depends on; JSON-serializable."""

    JSON_NAME = "backtest plan"

    panel_path: str | None = None
    train_window_days: int = 730
    n_versions: int = 8
    horizons: tuple[int, ...] = HORIZONS
    arms: tuple[ExperimentArm, ...] = field(default_factory=lambda: tuple(standard_arms()))
    baseline_id: str = "E5"
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    gen_config_path: str | None = None

    def __post_init__(self):
        super().__post_init__()
        at_least(self, train_window_days=1, n_versions=1)
        if (not self.horizons or any(h not in HORIZONS for h in self.horizons)
                or len(set(self.horizons)) != len(self.horizons)):
            raise ConfigError(f"horizons must be distinct members of {HORIZONS}, "
                              f"got {list(self.horizons)!r}")
        ids = [arm.id for arm in self.arms]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate arm ids in plan")


def load_plan(path) -> BacktestPlan:
    return BacktestPlan.from_json(read_json(path, "plan"))


def version_origins(panel: SalesPanel, plan: BacktestPlan) -> list[dt.date]:
    """Weekly origins anchored so the longest horizon ends at the panel end; the
    history they need is checked on day ordinals, before any date is built."""
    if len(panel) == 0:
        raise DataError("panel has no rows")
    first_day, last_day = panel.date_range
    last_origin = last_day.toordinal() - ForecastVersion.window_length(max(plan.horizons)).days
    first_origin = last_origin - 7 * (plan.n_versions - 1)
    if first_origin - plan.train_window_days < first_day.toordinal():
        needed = last_day.toordinal() - first_origin + plan.train_window_days + 1
        raise DataError(
            f"panel starts {first_day}, but the plan (n_versions {plan.n_versions}, "
            f"a {max(plan.horizons)}-week horizon, a {plan.train_window_days}-day "
            f"window) needs {needed} days of history up to {last_day}"
        )
    return [dt.date.fromordinal(d) for d in range(first_origin, last_origin + 1, 7)]


def _origin_days(plan: BacktestPlan, origin: dt.date) -> tuple[tuple[dt.date, dt.date], ...]:
    """An origin's (first, last) training days and (first, last) test days.

    Training is the trailing ``train_window_days`` strictly before the
    origin; the test window is the longest horizon's.
    """
    longest = ForecastVersion(origin, max(plan.horizons))
    return ((origin - dt.timedelta(days=plan.train_window_days), origin - dt.timedelta(days=1)),
            (longest.window_start, longest.window_end))


def _windows(panel: SalesPanel, plan: BacktestPlan,
             origin: dt.date) -> tuple[SalesPanel, SalesPanel]:
    """An origin's training and test windows; the no-leakage contract is
    checked here, and an error names the origin."""
    train_days, test_days = _origin_days(plan, origin)
    with _naming(f"origin {origin}"):
        train = panel.slice_days(*train_days)
        late = train.day_ordinals >= origin.toordinal()  # the no-leakage contract
        if late.any():
            day = dt.date.fromordinal(int(train.day_ordinals[late][0]))
            raise DataError(f"leakage: training row on {day}")
        return train, panel.slice_days(*test_days)


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


def _preflight(groups: list[list[ExperimentArm]], plan: BacktestPlan, panel: SalesPanel,
               origins: list[dt.date]) -> None:
    """Check that every (model group, origin) pair can run, before any fit.

    The training window must hold rows, each horizon's window a positive
    sale to weight its scores, and the training targets must pass the
    fit's own checks (`fit_targets`).  No window is built: an origin's
    sales are read through the panel's ``days_mask``, the rows its
    windows will hold.  Every problem is reported in one error, group by
    group, a ``ConfigError`` if any problem is one and else a
    ``DataError``, chained to the first problem of its family.
    """
    by_group: list[list] = [[] for _ in groups]
    for origin in origins:
        train_days, _ = _origin_days(plan, origin)
        train_sales = panel.sales[panel.days_mask(*train_days)]
        windows = [ForecastVersion(origin, h) for h in sorted(plan.horizons)]
        unsold = [w.horizon_weeks for w in windows
                  if not panel.sales[panel.days_mask(w.window_start, w.window_end)].any()]
        for group, found in zip(groups, by_group):
            try:
                if len(train_sales) == 0:
                    raise DataError("empty training window")
                if unsold:
                    raise DataError(f"no sales in the {unsold[0]}-week horizon window")
                fit_targets(group[0].transform, group[0].loss, train_sales)
            except (ConfigError, DataError) as exc:
                found.append((_arms_at(group, origin), exc))
    problems = [problem for found in by_group for problem in found]
    if problems:
        detail = "; ".join(f"{who}: {exc}" for who, exc in problems)
        first = next((exc for _, exc in problems if isinstance(exc, ConfigError)),
                     problems[0][1])
        family = ConfigError if isinstance(first, ConfigError) else DataError
        raise family(detail) from first


def _model_groups(arms) -> list[list[ExperimentArm]]:
    """Arms grouped by the model they fit, in first-seen order."""
    groups: dict[tuple, list[ExperimentArm]] = {}
    for arm in arms:
        groups.setdefault((arm.transform, arm.loss, arm.weight_scheme), []).append(arm)
    return list(groups.values())


def fit_arm(arms: list[ExperimentArm], train: SalesPanel, learner: LearnerConfig) -> list[FitModel]:
    """Fit the model a group of arms shares, once, on a training panel;
    each arm's model, with its own bias corrector.

    An arm that does not correct gets the fitted model itself, whose
    corrector is already ``none``.  The training rows are predicted once,
    and only if some arm corrects.
    """
    if len(_model_groups(arms)) != 1:
        raise ConfigError("fit_arm fits arms that share one transform, loss and weight "
                          f"scheme, got {[arm.id for arm in arms]}")
    lead = arms[0]
    model = fit(train, lead.transform, lead.loss, lead.weight_scheme, learner)
    zhat = None
    models = []
    for arm in arms:
        if arm.corrector_kind == "none":
            models.append(model)
            continue
        if zhat is None:
            zhat = model.predict_transformed(train.feature_matrix)
        corrector = fit_corrector(arm.corrector_kind, train.sales, zhat, arm.transform)
        models.append(replace(model, bias_corrector=corrector))
    return models


def _forecasts(
    arms: list[ExperimentArm],
    plan: BacktestPlan,
    train: SalesPanel,
    test: SalesPanel,
) -> list[np.ndarray]:
    """Fit one group's model on a training window; each arm's forecast of the test rows."""
    # a forecast that overflows is named by version_metrics
    return forecasts(fit_arm(arms, train, plan.learner), test.feature_matrix)[1]


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


def _read_only(value):
    """``value`` with every list a tuple and every dict a read-only mapping,
    nested ones included."""
    if isinstance(value, (dict, MappingProxyType)):
        return MappingProxyType({k: _read_only(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_read_only(v) for v in value)
    return value


def _plain(value):
    """What ``_read_only`` made of ``value``, as plain dicts and lists for JSON."""
    if isinstance(value, MappingProxyType):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class _FinishedReport:
    """A frozen report whose containers cannot change either: each field
    is held as ``_read_only`` makes it, so what a report writes is what
    its study found."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _read_only(getattr(self, f.name)))


@dataclass(frozen=True)
class BacktestReport(_FinishedReport):
    """Grid results: per-version rows plus per-arm aggregates/relatives."""

    baseline_id: str
    horizons: tuple[int, ...]
    origins: tuple[dt.date, ...]
    rows: tuple[tuple[str, VersionMetrics], ...]
    aggregates: MappingProxyType[str, MappingProxyType[int, AggregateMetrics]]
    relatives: MappingProxyType[str, MappingProxyType[int, RelativeMetrics]]

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
) -> tuple[list[dt.date], list[tuple[str, VersionMetrics]]]:
    """Run every origin's job; the origins and every arm's version rows,
    in ``row_order``.  Each study aggregates its own arms' rows.

    Every (model group, origin) pair is checked before the first job.  A
    job slices its origin's two windows, runs every model group on them
    in plan order and drops them, so at most ``worker_count()`` origins'
    windows are alive at once.  The calling thread runs jobs, and
    ``min(worker_count(), len(origins)) - 1`` helper threads are started
    to take origins, in order, from the same iterator.  The failure of
    the lowest-index origin is raised, and no fit of a later origin
    starts after a failure, at any thread count: a job checks before
    each group's fit that no earlier origin has failed.
    """
    origins = version_origins(panel, plan)
    groups = _model_groups(arms)
    _preflight(groups, plan, panel, origins)
    results: list = [None] * len(origins)  # each origin's rows, or its error
    failed = len(origins)  # the least index of a failed origin
    todo = enumerate(origins)
    lock = threading.Lock()

    def job(i: int, origin: dt.date) -> list[tuple[str, VersionMetrics]]:
        train, test = _windows(panel, plan, origin)
        rows = []
        for group in groups:
            if failed < i:
                break  # never read: an earlier origin failed
            rows += _score_versions(group, plan, origin, train, test)
        return rows

    def work() -> None:
        nonlocal failed
        while True:
            with lock:
                i, origin = next(todo, (len(origins), None))
            if i >= failed:  # the origins are used up, or an earlier one failed
                return
            try:
                results[i] = job(i, origin)
            except BaseException as exc:  # raised below, once every thread is done
                results[i] = exc
                with lock:
                    failed = min(failed, i)

    n_helpers = min(worker_count(), len(origins)) - 1
    helpers = [threading.Thread(target=work) for _ in range(n_helpers)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failed < len(origins):
        raise results[failed]
    return origins, sorted((row for part in results for row in part), key=row_order)


def run_backtest(plan: BacktestPlan, panel: SalesPanel | None = None) -> BacktestReport:
    """Run the experiment grid and relativize against the baseline arm."""
    return run_study(plan, panel, ["backtest"])["backtest"]


def _grid_arms(plan: BacktestPlan) -> dict[str, ExperimentArm]:
    """The plan's arms, by id; the baseline must be one of them."""
    ids = {arm.id: arm for arm in plan.arms}
    if plan.baseline_id not in ids:
        raise ConfigError(f"baseline arm {plan.baseline_id!r} is not in the plan")
    return ids


def _grid_report(plan: BacktestPlan, origins, rows, aggregates) -> BacktestReport:
    base = aggregates[plan.baseline_id]
    relatives = {}
    for arm_id, per_h in aggregates.items():
        with _naming(f"arm {arm_id}"):
            relatives[arm_id] = {h: relativize(per_h[h], base[h], plan.baseline_id) for h in per_h}
    return BacktestReport(
        baseline_id=plan.baseline_id,
        horizons=tuple(sorted(plan.horizons)),
        origins=origins,
        rows=rows,
        aggregates=aggregates,
        relatives=relatives,
    )


_STUDY_FILES = ("metrics.csv", "report.json")  # every study's, after a trend's table CSV


def write_backtest_outputs(report: BacktestReport | TrendReport, out_dir) -> None:
    """Write a study's files, its ``Study.files``, into out_dir, made if missing."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out_dir}: {exc}") from exc
    metrics_csv, report_json = _STUDY_FILES
    write_metrics_csv(report.rows, os.path.join(out_dir, metrics_csv))
    write_text(os.path.join(out_dir, report_json),
               json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
    if isinstance(report, TrendReport):
        # each trend row: axis, horizon, aggregate
        write_csv(os.path.join(out_dir, report.csv_name), report.table[0],
                  (row.values() for row in report.table))


def _count_inversions(values: list[float], direction: str) -> int:
    """Adjacent pairs violating a non-decreasing/non-increasing trend."""
    bad = 0
    for a, b in zip(values, values[1:]):
        if direction == "non_decreasing" and b < a:
            bad += 1
        elif direction == "non_increasing" and b > a:
            bad += 1
    return bad


@dataclass(frozen=True)
class TrendReport(_FinishedReport):
    """Aggregated metrics along an ordered axis plus a monotonicity verdict."""

    axis_name: str
    axis_values: tuple[str, ...]
    table: tuple[MappingProxyType, ...]  # one entry per (axis value, horizon)
    verdicts: MappingProxyType[int, MappingProxyType]
    rows: tuple[tuple[str, VersionMetrics], ...]
    csv_name: str  # the file the table is written to
    extra: MappingProxyType = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "axis": self.axis_name,
            "order": _plain(self.axis_values),
            "table": _plain(self.table),
            "verdicts": {str(h): _plain(v) for h, v in self.verdicts.items()},
            **_plain(self.extra),
        }


def _trend(study: Study, plan: BacktestPlan, arms: dict[str, ExperimentArm], rows,
           aggregates, extra) -> TrendReport:
    table = []
    verdicts: dict[int, dict] = {}
    for h in sorted(plan.horizons):
        series = [aggregates[arm.id][h] for arm in arms.values()]
        for value, agg in zip(arms, series):
            table.append({study.axis: value, **asdict(agg)})
        wbias_series = [agg.wbias for agg in series]
        inversions = _count_inversions(wbias_series, study.direction)
        verdicts[h] = {
            "wbias_direction": study.direction,
            "inversions": inversions,
            "monotone": inversions == 0,
            "within_tolerance": inversions <= 1,
            "wbias_series": wbias_series,
        }
    return TrendReport(
        axis_name=study.axis,
        axis_values=list(arms),
        table=table,
        verdicts=verdicts,
        rows=rows,
        csv_name=study.csv_name,
        extra=extra(table) if extra else {},
    )


def _ladder_arms(plan: BacktestPlan) -> dict[str, ExperimentArm]:
    """Log-target Mse arms under escalating sales weights: wbias should climb toward 0."""
    log = TargetTransform(kind="log")
    return {s.kind: ExperimentArm(f"W{i}-{s.kind}", log, LossSpec.mse(), s)
            for i, s in enumerate(LADDER_SCHEMES)}


def _sweep_arms(plan: BacktestPlan) -> dict[str, ExperimentArm]:
    """Identity-transform Tweedie arms across the power range: wbias should fall as p
    rises, and wmape bottom out near the generator's power (see ``_sweep_extra``)."""
    identity = TargetTransform(kind="identity")
    unit = WeightScheme(kind="unit")
    return {f"{p:.1f}": ExperimentArm(f"P{p:.1f}", identity, LossSpec.tweedie(p), unit)
            for p in SWEEP_POWERS}


def _sweep_extra(plan: BacktestPlan):
    """The sweep's extra report fields, as a function of its table: the power
    of least wmape per horizon, and the generator's if the plan names its config."""
    # a bad generator config must fail before the first fit, not after the last
    cfg = None if plan.gen_config_path is None else load_gen_config(plan.gen_config_path)
    theory = {} if cfg is None else {"theoretical_tweedie_power": theoretical_tweedie_power(cfg)}

    def extra(table) -> dict:
        best = {}
        for h in sorted(plan.horizons):
            at_h = [r for r in table if r["horizon_weeks"] == h]
            best[str(h)] = min(at_h, key=lambda r: r["wmape"])["power"]
        return {"best_wmape_power": best, **theory}

    return extra


@dataclass(frozen=True)
class Study:
    """A row of ``STUDIES``: its command's help, its arms for a plan (by
    id, or by axis value for a trend study) and, for a trend study, its
    axis, wbias direction and table CSV, and ``extra``, which is called
    with the plan before the first fit and maps the table to the report's
    extra fields."""

    help: str
    roster: Callable[[BacktestPlan], dict[str, ExperimentArm]]
    axis: str | None = None
    direction: str | None = None
    csv_name: str | None = None
    extra: Callable | None = None

    @property
    def files(self) -> list[str]:
        """The files ``write_backtest_outputs`` writes for this study, in the CLI's order."""
        return [self.csv_name, *_STUDY_FILES] if self.csv_name else list(_STUDY_FILES)


STUDIES = {
    "backtest": Study("run the rolling-origin experiment grid", _grid_arms),
    "ladder": Study("weight-escalation study", _ladder_arms, axis="scheme",
                    direction="non_decreasing", csv_name="ladder.csv"),
    "sweep": Study("Tweedie variance-power study", _sweep_arms, axis="power",
                   direction="non_increasing", csv_name="sweep.csv", extra=_sweep_extra),
}


def run_study(plan: BacktestPlan, panel: SalesPanel | None = None,
              names=tuple(STUDIES)) -> dict[str, BacktestReport | TrendReport]:
    """Run the named studies of ``STUDIES`` on one grid over ``panel``, else the
    panel at the plan's panel_path; their reports, by name.

    A model two studies share is fitted once per origin, and an arm two
    studies name is one arm.  Each study aggregates its own arms' rows of
    the shared ones: the same bytes as its study run alone.  Each study's
    own checks, and the check that no arm id has two designs, fail before
    the first fit.
    """
    if panel is None:
        if plan.panel_path is None:
            raise ConfigError("plan has no panel_path and no panel was supplied")
        panel = read_panel(plan.panel_path)
    arms: dict[str, ExperimentArm] = {}
    rosters, extras = {}, {}
    for name in names:
        if name not in STUDIES:
            raise ConfigError(f"unknown study {name!r}; the studies are {', '.join(STUDIES)}")
        study = STUDIES[name]
        rosters[name] = study.roster(plan)
        extras[name] = study.extra(plan) if study.extra else None
        for arm in rosters[name].values():
            if arms.setdefault(arm.id, arm) != arm:
                raise ConfigError(f"arm id {arm.id!r} has two designs in studies "
                                  f"{', '.join(rosters)}")
    origins, rows = _run_grid(list(arms.values()), plan, panel)
    reports = {}
    for name, roster in rosters.items():
        own = {}
        for arm in roster.values():
            with _naming(f"arm {arm.id}"):
                own[arm.id] = aggregate_versions([vm for aid, vm in rows if aid == arm.id])
        own_rows = [row for row in rows if row[0] in own]
        study = STUDIES[name]
        reports[name] = (_grid_report(plan, origins, own_rows, own) if study.axis is None
                         else _trend(study, plan, roster, own_rows, own, extras[name]))
    return reports
