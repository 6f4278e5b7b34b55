"""skewcast benchmark: one workload, end-to-end costs or a per-layer trace.

    python3 bench/run.py --workload grid-fit --seed 20240405 --seconds 45 --trace 0

Starts worker processes one after another for ``--seconds``; each pays
the set-up in a fresh interpreter, then runs the grid again and again
(see workloads.py).  Every grid run's outputs are checked.  Prints the
environment, a metric table and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (medians over the grid runs and
workers); with ``--trace 1`` one more, traced worker gives the per-layer
ones.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import layer_metrics
from workloads import DEFAULT_SEED, HERE, SRC, WORKLOADS, prepare_panel

ROOT = os.path.dirname(HERE)
# one worker thread: on a small shared host a second thread measures the
# scheduler and the other tenants more than the program
THREADS = "1"
# each worker process runs grids for this long after its set-up
WORKER_SECONDS = 10.0
# calibration kernel seconds on the host the baseline was measured on;
# timings are reported as if the host ran at that speed (README.md)
REFERENCE_CAL_S = 0.135
# stop starting workers once this much of the run has passed, and end any
# worker still running at the deadline, so a hung program cannot hold the
# run past 180 s
RUN_BUDGET_S = 120.0
DEADLINE_S = 170.0


def _environment(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "SKEWCAST_THREADS": THREADS,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "seed": seed,
    }


def _worker(workload, seed, work_dir, index, panel_csv, mode, timeout):
    """Run one worker process; its result, or None if it failed.

    ``mode`` is ``["--seconds", s]`` or, for the traced one, ``["--trace", json]``.
    """
    out_dir = os.path.join(work_dir, f"worker{index}")
    result_json = os.path.join(work_dir, f"worker{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), workload, str(seed),
           out_dir, result_json, panel_csv, *mode]
    env = dict(os.environ, SKEWCAST_THREADS=THREADS)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker {index} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    with open(result_json, encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(out_dir, ignore_errors=True)
    for i, run in enumerate(result["runs"]):
        for problem in run["problems"]:
            print(f"worker {index} grid run {i}: {problem}", file=sys.stderr)
    return result


def _reference_sha(workload: str, seed: int, numpy_version: str):
    """Checked-in output hash for the default seed; byte-determinism holds
    only within one numpy build, so other builds have none."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    if seed != ref["seed"] or numpy_version != ref["numpy"]:
        return None
    return ref["sha256"][workload]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _scaled(seconds: float, cal_s: float) -> float:
    """``seconds`` at the reference host speed (see REFERENCE_CAL_S)."""
    return seconds * REFERENCE_CAL_S / cal_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "skewcast", "__init__.py")):
        print(f"no skewcast sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    start = time.monotonic()
    env = _environment(args.seed)
    work_dir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        panel_csv = os.path.join(work_dir, "panel.csv")
        prepare_panel(args.seed, panel_csv)

        def time_left():
            return max(1.0, DEADLINE_S - (time.monotonic() - start))

        workers, lost = [], 0
        loop_end = time.monotonic() + args.seconds
        while (not workers or time.monotonic() < loop_end) and \
                time.monotonic() - start < RUN_BUDGET_S:
            slice_s = min(WORKER_SECONDS, max(0.0, loop_end - time.monotonic()))
            result = _worker(args.workload, args.seed, work_dir, len(workers) + lost,
                             panel_csv, ["--seconds", f"{slice_s:.3f}"], time_left())
            if result is None:
                lost += 1
            else:
                workers.append(result)
        traced = trace = None
        if args.trace:
            trace_json = os.path.join(work_dir, "trace.json")
            traced = _worker(args.workload, args.seed, work_dir, len(workers) + lost,
                             panel_csv, ["--trace", trace_json], time_left())
            if traced is None:
                lost += 1
            else:
                with open(trace_json, encoding="utf-8") as fh:
                    trace = json.load(fh)
                for what in trace["missing"]:
                    print(f"trace: no {what}; its metrics read 0", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not workers or (args.trace and trace is None):
        print("no worker completed; nothing to report", file=sys.stderr)
        return 1

    # Every grid run must produce the same bytes, and at the default seed
    # the checked-in ones.  A lost worker counts as one failed grid run.
    runs = [run for w in workers for run in w["runs"]]
    all_runs = runs + (traced["runs"] if traced else [])
    expected = (_reference_sha(args.workload, args.seed, env["numpy"])
                or all_runs[0]["sha256"])
    attempted = len(all_runs) + lost
    failed = lost + sum(1 for r in all_runs if r["problems"] or r["sha256"] != expected)
    if any(r["sha256"] != expected for r in all_runs):
        print(f"output hashes {sorted({r['sha256'] for r in all_runs})} differ from "
              f"{expected}", file=sys.stderr)

    cpu_s = statistics.median(_scaled(r["cpu_s"], r["cal_s"]) for r in runs)
    if args.trace:
        traced_cpu_s = _scaled(traced["runs"][0]["cpu_s"], traced["runs"][0]["cal_s"])
        metrics = layer_metrics(trace, traced_cpu_s, cpu_s)
    else:
        # set-up is scaled by the median calibration of its own process
        jobs = workers[0]["jobs"]
        metrics = {
            "setup_s": _metric(statistics.median(
                _scaled(w["setup_cpu_s"], statistics.median(r["cal_s"] for r in w["runs"]))
                for w in workers), "s"),
            "cpu_s": _metric(cpu_s, "s"),
            "jobs_per_cpu_s": _metric(statistics.median(
                jobs / _scaled(r["cpu_s"], r["cal_s"]) for r in runs), "1/s"),
            "peak_rss_mb": _metric(statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
        }

    print(json.dumps({"environment": env, "workload": args.workload,
                      "workers": len(workers), "grid_runs": len(runs),
                      "raw": [{"setup_cpu_s": w["setup_cpu_s"],
                               "runs": [{k: r[k] for k in ("wall_s", "cpu_s", "cal_s")}
                                        for r in w["runs"]]} for w in workers]}))
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'run_s (wall, not scaled)':<32} "
          f"{statistics.median(r['wall_s'] for r in runs):>14.6g} s")
    print(f"  {'error_rate':<32} {failed / attempted:>14.6g} ({failed} of {attempted} failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
