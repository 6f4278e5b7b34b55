"""The benchmark's per-layer trace still resolves against the package.

``bench/tracer.py`` wraps skewcast functions by name from the outside.  A
refactor that renames or re-routes one of them leaves that layer's
numbers at zero; this runs one traced worker per workload and checks
that every target resolved and that the layers recorded their spans.
The worker's own result must pass its checks and, under the numpy of
``bench/reference.json``, reproduce that workload's reference hash at the
default seed.
"""

import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "bench", "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


def _trace(workload, tmp_path):
    """Run one traced worker of ``workload`` at the reference seed; its trace,
    once its result has passed the worker's checks."""
    trace_path, result_path = tmp_path / "trace.json", tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "workloads.py"), workload,
         str(REFERENCE["seed"]), str(tmp_path / "out"), str(result_path),
         str(tmp_path / "unused.csv"), "--trace", str(trace_path)],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "SKEWCAST_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(result_path.read_text(encoding="utf-8"))["runs"][0]
    assert run["problems"] == []
    if np.__version__ == REFERENCE["numpy"]:  # other numpy builds may round differently
        assert run["sha256"] == REFERENCE["sha256"][workload]
    return json.loads(trace_path.read_text(encoding="utf-8"))


def _count(trace, name):
    return sum(1 for s in trace["spans"] if s["name"] == name)


def test_grid_fit_trace_resolves(tmp_path):
    trace = _trace("grid-fit", tmp_path)
    assert trace["missing"] == []
    # each of the 4 origins' training and test windows is sliced once
    assert _count(trace, "panel.slice_days") == 8
    grow = [s for s in trace["spans"] if s["name"] == "trees.grow_tree"]
    predict = [s for s in trace["spans"] if s["name"] == "trees.Tree.predict"]
    assert grow and all(s["rows"] > 0 and s["nodes"] >= 1 for s in grow)
    # 12 fits (3 arms at 4 origins) of 20 rounds, one tree each
    assert len(grow) == 240
    # every grid-fit model is distinct, and a fit takes its training-row
    # steps from tree growth: predict runs once per tree, on the test rows
    assert len(predict) == len(grow)


def test_roster_linear_fits_each_model_once(tmp_path):
    trace = _trace("roster-linear", tmp_path)
    assert trace["missing"] == []
    keys = [s["key"] for s in trace["spans"] if s["name"] == "learner.fit"]
    # 12 arms, of which E4/E4-S/E4-V/E4-PB share a model: 9 fits at each of 4 origins
    assert len(keys) == 36
    assert len(set(keys)) == len(keys)
    # 9 model groups share each origin's two windows, sliced once
    assert _count(trace, "panel.slice_days") == 8
    # every fit still reaches the loss layer by its traced names: one gradient
    # per round of the 36 fits of 20 rounds (720), plus the Newton steps of
    # the 4 pseudo-Huber (E2) fits' constant starting scores (34)
    assert _count(trace, "losses.grad_hess") == 754
    assert _count(trace, "losses.total_loss") >= 1
