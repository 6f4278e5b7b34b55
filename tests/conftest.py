"""Shared fixtures and the acceptance-summary reporting hook.

Heavy artifacts (the default synthetic panel, the backtest grid, the
weighting ladder and the power sweep, all three from one ``run_study``
grid, and a full-panel log-target fit) are session-scoped so every test
module reuses a single instance.

Acceptance-level checks register their verdict through
``record_criterion``; after the run, a terminal-summary hook prints one
PASS/FAIL line per recorded criterion so the overall verdict is
readable at a glance.

Grids that need a forecast equal to the actuals (criterion 14) get it
from ``scoring_actuals``, which swaps the named arms' forecasts at the
one seam the grid has for it, ``backtest._forecasts``.

Property tests share one ``hypothesis`` profile: derandomized, so every
run replays the same examples, and without a per-example deadline,
since run time on a shared host says nothing about correctness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import skewcast as sc
from skewcast import backtest

settings.register_profile("skewcast", derandomize=True, deadline=None)
settings.load_profile("skewcast")

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str, str]] = {}


def record_criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[number] = (bool(ok), description, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance summary")
    for number in sorted(ACCEPTANCE_RESULTS):
        ok, description, detail = ACCEPTANCE_RESULTS[number]
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"{status}: criterion {number:2d}: {description}{suffix}")


ACCEPTANCE_LEARNER = sc.LearnerConfig(rounds=60, max_depth=4)


def scoring_actuals(monkeypatch, *arm_ids: str) -> None:
    """Grid jobs forecast the test rows' actuals for the named arms.

    The real ``backtest._forecasts`` still runs, so every group fits
    its model as before; only the named arms' forecasts are replaced.
    """
    real = backtest._forecasts

    def forecasts(arms, plan, train, test):
        preds = real(arms, plan, train, test)
        return [test.sales.copy() if arm.id in arm_ids else p for arm, p in zip(arms, preds)]

    monkeypatch.setattr(backtest, "_forecasts", forecasts)


def _oracle_arm() -> sc.ExperimentArm:
    """Forecasts the actuals under ``scoring_actuals``; its design is E4's."""
    return sc.ExperimentArm(
        "ORACLE",
        sc.TargetTransform(kind="log"),
        sc.LossSpec.mse(),
        sc.WeightScheme(kind="unit"),
    )


@pytest.fixture(scope="session")
def default_panel() -> sc.SalesPanel:
    return sc.generate(sc.GenConfig())


@pytest.fixture(scope="session")
def acceptance_plan() -> sc.BacktestPlan:
    return sc.BacktestPlan(
        train_window_days=365,
        n_versions=4,
        horizons=(6, 12, 24),
        arms=[sc.arm_by_id("E1"), sc.arm_by_id("E4"), sc.arm_by_id("E5"), _oracle_arm()],
        baseline_id="E5",
        learner=ACCEPTANCE_LEARNER,
    )


@pytest.fixture(scope="session")
def acceptance_studies(default_panel, acceptance_plan) -> dict:
    """Every study on the acceptance plan, run as one grid that fits each
    shared model once: ORACLE, E4 and W0-unit share one, E5 and W2-sqrt_sales
    another."""
    with pytest.MonkeyPatch.context() as mp:
        scoring_actuals(mp, "ORACLE")
        return sc.run_study(acceptance_plan, panel=default_panel)


@pytest.fixture(scope="session")
def grid_report(acceptance_studies) -> sc.BacktestReport:
    return acceptance_studies["backtest"]


@pytest.fixture(scope="session")
def ladder_report(acceptance_studies) -> sc.TrendReport:
    return acceptance_studies["ladder"]


@pytest.fixture(scope="session")
def sweep_report(acceptance_studies) -> sc.TrendReport:
    return acceptance_studies["sweep"]


@pytest.fixture(scope="session")
def log_target_fit(default_panel):
    """A log-target squared-error fit of the whole default panel.

    Returns the model plus the arrays every bias-correction check
    needs: actuals, transformed predictions, and the naive (uncorrected)
    back-transformed predictions.
    """
    model = sc.fit(
        default_panel,
        sc.TargetTransform(kind="log"),
        sc.LossSpec.mse(),
        sc.WeightScheme(kind="unit"),
        ACCEPTANCE_LEARNER,
    )
    X = default_panel.feature_matrix
    y = default_panel.sales
    zhat = model.predict_transformed(X)
    naive = model.predict(X)
    return {"model": model, "X": X, "y": y, "zhat": zhat, "naive": naive}


@pytest.fixture(scope="session")
def small_panel() -> sc.SalesPanel:
    """A light panel for learner and backtest unit tests."""
    return sc.generate(sc.GenConfig(n_items=30, n_days=260, seed=7))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240405)
