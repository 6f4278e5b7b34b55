"""The package runs on numpy and the standard library alone, and does not
load ``numpy.ma``, ``concurrent.futures`` or ``logging``.

This test process imports ``scipy`` itself (other tests use
``scipy.optimize``), so the check runs a fresh interpreter that imports
the package, evaluates every loss, runs one small fit, reads and slices a
panel and runs a two-origin grid, then lists the modules it loaded.
``numpy.ma`` costs every process that loads it about 15 ms and 1.2 MB
(in numpy 2.4, ``np.unique`` imports it).
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PROBE = """
import datetime as dt, json, os, sys, tempfile
import numpy as np
import skewcast as sc
import skewcast.cli
specs = [sc.LossSpec.mse(), sc.LossSpec.pseudo_huber(1.0), sc.LossSpec.poisson(),
         sc.LossSpec.gamma(), sc.LossSpec.tweedie(1.5)]
assert sorted(s.kind for s in specs) == sorted(sc.losses._LOSS_KINDS)
y = np.array([0.5, 1.0, 4.0])
for spec in specs:
    mu = np.array([1.0, 2.0, 3.0])
    sc.deviance(spec, y, mu)
    sc.grad_hess(spec, y, np.log(mu) if spec.log_link else mu)
    sc.total_loss(spec, np.ones(3), y, mu)
rng = np.random.default_rng(0)
X = rng.normal(size=(40, 2))
sc.fit_arrays(X, np.exp(X[:, 0]), sc.TargetTransform(kind="log"), sc.LossSpec.mse(),
              sc.WeightScheme(kind="unit"), sc.LearnerConfig(rounds=2, max_depth=2))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "panel.csv")
    sc.write_panel(sc.generate(sc.GenConfig(n_items=3, n_days=160, seed=5)), path)
    panel = sc.read_panel(path)
    first = panel.date_range[0]
    panel.slice_days(first + dt.timedelta(days=7), first + dt.timedelta(days=40))
    for learner in (sc.LearnerConfig(rounds=2, max_depth=2),
                    sc.LearnerConfig.from_json({"base": "linear", "rounds": 2})):
        plan = sc.BacktestPlan(train_window_days=60, n_versions=2, horizons=(6, 12),
                               learner=learner)
        sc.backtest.write_backtest_outputs(sc.run_backtest(plan, panel=panel), tmp)
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def modules() -> list[str]:
    """The modules loaded by a fresh interpreter that ran the probe."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "skewcast.cli" in loaded
    return loaded


def test_no_scipy_at_run_time(modules):
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


def test_no_numpy_ma_at_run_time(modules):
    assert "numpy.ma" not in modules


def test_no_thread_pool_at_run_time(modules):
    """The grid starts its own threads; ``concurrent.futures`` and the
    ``logging`` it loads cost every process about 4.5 ms of import."""
    assert "concurrent.futures" not in modules
    assert "logging" not in modules
