"""The package runs on numpy and the standard library alone.

This test process imports ``scipy`` itself (other tests use
``scipy.optimize``), so the check runs a fresh interpreter that imports
the package, evaluates every loss and runs one small fit, then lists the
modules it loaded.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PROBE = """
import json, sys
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
print(json.dumps(sorted(sys.modules)))
"""


def test_no_scipy_at_run_time():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert "skewcast.cli" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
