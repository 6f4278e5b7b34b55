"""The benchmark's workloads, and the process that runs them.

``run.py`` starts this file several times per run, so set-up is paid by
a fresh interpreter each time, as a user pays it:

    python3 bench/workloads.py WORKLOAD SEED OUT_DIR RESULT_JSON PANEL_CSV \
        (--seconds S | --trace TRACE_JSON)

The process imports skewcast from the checkout's ``src``, reads the panel
CSV and builds the plan (set-up), then runs the grid again and again for
``S`` seconds (at least once).  Each timed grid run is bracketed by the
calibration kernel, and its outputs are checked before the next one
starts.  Timings, resource use and output hashes go to RESULT_JSON.  With
``--trace`` it wraps the package's layers first (see ``tracer.py``),
generates and writes its own copy of the panel so that ``datagen``,
``rng`` and ``write_panel`` are traced too, runs the grid once and writes
the spans to TRACE_JSON.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

DEFAULT_SEED = 20240405  # GenConfig().seed
N_ITEMS = 12
N_DAYS = 730
HORIZONS = (6, 12, 24)
N_ORIGINS = 4

# Both workloads run the rolling-origin grid of the acceptance plan (365-day
# window, 4 weekly origins, horizons 6/12/24) on a panel cut from 200 to 12
# items and with 20 rounds instead of 60, so that one grid run takes a few
# CPU seconds and a run of the benchmark holds a dozen of them; see README.md.
WORKLOADS = {
    # trees do most of the work; every fit is distinct
    "grid-fit": {"arms": ("E1", "E4", "E5"), "learner": {"rounds": 20, "max_depth": 4}},
    # no trees; slicing, losses and metrics dominate; E4/E4-S/E4-V/E4-PB
    # share one model, so 9 of 12 fits per origin are distinct
    "roster-linear": {"arms": None, "learner": {"base": "linear", "rounds": 20}},
}


def prepare_panel(seed: int, path: str) -> None:
    """Write the seeded panel CSV the grids read."""
    from skewcast import datagen, panel

    cfg = datagen.GenConfig(n_items=N_ITEMS, n_days=N_DAYS, seed=seed)
    panel.write_panel(datagen.generate(cfg), path)


def calibrate() -> float:
    """Thread CPU seconds of a fixed kernel that uses no skewcast code.

    It mixes what the grids spend their time on (sorts, cumulative sums
    and gathers over arrays of a few thousand floats, and interpreted
    loops over dicts and lists), so its time moves with the host's speed
    for such work.  ``run.py`` divides every timing by it.
    """
    start = time.thread_time()
    rng = np.random.default_rng(12345)
    x = rng.random((8, 4096))
    g = rng.standard_normal(4096)
    acc = 0.0
    for _ in range(24):
        for col in x:
            order = np.argsort(col, kind="stable")
            gs = np.cumsum(g[order])
            acc += float(np.max(gs * gs / np.arange(1, gs.size + 1)))
        rows = {}
        for i in range(4000):
            key = (i * 7919) % 211
            rows.setdefault(key, []).append(i * 0.5)
        acc += sum(len(v) for v in rows.values())
    if acc <= 0:  # consume the result so no step can be skipped
        raise RuntimeError("calibration kernel produced no result")
    return time.thread_time() - start


def _cpu_now() -> float:
    """User + system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _sha256(*paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _setup(workload: str, panel_csv: str):
    import skewcast as sc
    from skewcast import panel

    spec = WORKLOADS[workload]
    data = panel.read_panel(panel_csv)
    arms = (tuple(sc.standard_arms()) if spec["arms"] is None
            else tuple(sc.arm_by_id(a) for a in spec["arms"]))
    plan = sc.BacktestPlan(
        train_window_days=365, n_versions=N_ORIGINS, horizons=HORIZONS, arms=arms,
        baseline_id="E5", learner=sc.LearnerConfig.from_json(spec["learner"]),
    )
    return data, plan


def _run(data, plan, out_dir) -> None:
    from skewcast import backtest

    report = backtest.run_backtest(plan, panel=data)
    backtest.write_backtest_outputs(report, out_dir)


def _check(plan, out_dir) -> tuple[str, list[str]]:
    """Output hash, and every property a correct grid has on any seed."""
    problems = []
    metrics_path = os.path.join(out_dir, "metrics.csv")
    report_path = os.path.join(out_dir, "report.json")
    with open(metrics_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expected = len(plan.arms) * N_ORIGINS * len(HORIZONS)
    if len(rows) != expected:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {expected}")
    for row in rows:
        if abs(float(row["wbias"])) > float(row["wmape"]):
            problems.append(f"|wbias| > wmape in {row['config_id']} {row['version']} "
                            f"h={row['horizon_weeks']}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    for h in HORIZONS:
        wbias = report["arms"]["E4"]["aggregates"][str(h)]["wbias"]
        if not wbias < 0:  # the paper's direction: log target under-forecasts
            problems.append(f"E4 aggregate wbias at h={h} is {wbias}, expected < 0")
    return _sha256(metrics_path, report_path), problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("out_dir")
    ap.add_argument("result")
    ap.add_argument("panel")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import skewcast  # noqa: F401  (import time is part of set-up)

    os.makedirs(args.out_dir, exist_ok=True)
    tracer = None
    panel_csv = args.panel
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        panel_csv = os.path.join(args.out_dir, "panel.csv")
        prepare_panel(args.seed, panel_csv)

    data, plan = _setup(args.workload, panel_csv)
    ready = time.monotonic()
    setup_cpu_s = _cpu_now()

    runs = []
    until = ready + (args.seconds or 0.0)
    while not runs or time.monotonic() < until:
        cal_before = calibrate()
        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        _run(data, plan, args.out_dir)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_now() - cpu0
        cal_s = (cal_before + calibrate()) / 2
        sha, problems = _check(plan, args.out_dir)
        runs.append({"wall_s": wall_s, "cpu_s": cpu_s, "cal_s": cal_s,
                     "sha256": sha, "problems": problems})

    if tracer is not None:
        tracer.dump(args.trace)
    result = {
        "setup_cpu_s": setup_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": len(plan.arms) * N_ORIGINS,
        "runs": runs,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
