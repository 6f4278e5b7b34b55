"""Outside-in tracer: wraps skewcast functions where callers look them up.

Nothing under ``src/skewcast`` knows about tracing.  ``install`` replaces
module attributes and class methods with timing wrappers, so only the
traced pass pays for them; the untraced passes run unmodified code.

A span records name, parent (from a thread-local stack), wall start and
end, and thread CPU (``time.thread_time``).  Self time is a span's wall
duration minus the wall time of its direct children on the same thread.
Spans stay in memory until ``dump`` writes them at the end of the pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time


def _fit_attrs(a, result):
    # a fit is identified by its design and its training window; equal keys
    # mean the same model was fitted twice
    return {"key": repr((a["transform"], a["loss"], a["weight_scheme"], a["config"],
                         a["panel"].date_range))}


def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# (module, attribute path, span name, attrs from (bound arguments, result))
SPAN_TARGETS = (
    ("skewcast.backtest", "run_backtest", "backtest.run_backtest", None),
    ("skewcast.backtest", "_score_versions", "backtest.job", None),
    ("skewcast.backtest", "fit_arm", "backtest.fit_arm", None),
    ("skewcast.backtest", "fit", "learner.fit", _fit_attrs),
    ("skewcast.backtest", "fit_corrector", "biascorr.fit_corrector", None),
    ("skewcast.backtest", "version_metrics", "metrics.version_metrics",
     lambda a, result: {"items": len(a["forecasts"])}),
    ("skewcast.backtest", "write_metrics_csv", "metrics.write_metrics_csv", None),
    ("skewcast.learner", "grow_tree", "trees.grow_tree",
     lambda a, result: {"rows": len(a["X"]), "nodes": result.n_nodes}),
    ("skewcast.learner", "grad_hess", "losses.grad_hess", None),
    ("skewcast.losses", "grad_hess", "losses.grad_hess", None),
    ("skewcast.learner", "total_loss", "losses.total_loss", None),
    ("skewcast.trees", "Tree.predict", "trees.Tree.predict",
     lambda a, result: {"rows": len(a["X"])}),
    ("skewcast.learner", "FitModel.predict", "learner.FitModel.predict", None),
    ("skewcast.panel", "SalesPanel.slice_days", "panel.slice_days",
     lambda a, result: {"rows": len(result)}),
    ("skewcast.panel", "read_panel", "panel.read_panel", _file_bytes),
    ("skewcast.backtest", "read_panel", "panel.read_panel", _file_bytes),
    ("skewcast.panel", "write_panel", "panel.write_panel", None),
    ("skewcast.datagen", "generate", "datagen.generate",
     lambda a, result: {"rows": len(result)}),
)

# called too often for a span each; only the calls are counted
COUNT_TARGETS = (
    ("skewcast.datagen", "keyed_stream", "rng.keyed_stream"),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def _resolve(self, module_name: str, path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            self._note_missing(f"{module_name}.{path}")
            return None, attr
        return owner, attr

    def _span_wrapper(self, fn, name, attrs_of):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = {
                "name": name,
                "parent": stack[-1]["name"] if stack else None,
                "child_s": 0.0,
                "child_cpu_s": 0.0,
            }
            stack.append(span)
            span["start"] = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu0
                span["end"] = time.perf_counter()
                stack.pop()
            wall = span["end"] - span["start"]
            span["cpu_s"] = cpu
            span["self_s"] = wall - span.pop("child_s")
            span["self_cpu_s"] = cpu - span.pop("child_cpu_s")
            if stack:
                stack[-1]["child_s"] += wall
                stack[-1]["child_cpu_s"] += cpu
            if attrs_of is not None:
                try:
                    span.update(attrs_of(signature.bind(*args, **kwargs).arguments, result))
                except (KeyError, TypeError, AttributeError):
                    tracer._note_missing(f"attributes of {name}")
            tracer.spans.append(span)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self
        tracer.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the package no longer has is listed
        in ``missing`` and its metrics read zero."""
        wrapped: dict[int, object] = {}
        for module_name, path, name, attrs_of in SPAN_TARGETS:
            owner, attr = self._resolve(module_name, path)
            if owner is None:
                continue
            fn = getattr(owner, attr)
            # one function bound under two names gets one wrapper
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._span_wrapper(fn, name, attrs_of)
            setattr(owner, attr, wrapped[id(fn)])
        for module_name, path, name in COUNT_TARGETS:
            owner, attr = self._resolve(module_name, path)
            if owner is not None:
                setattr(owner, attr, self._count_wrapper(getattr(owner, attr), name))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, fh)


def _sum(spans, name, field):
    return sum(s.get(field, 0) for s in spans if s["name"] == name)


def _calls(spans, name):
    return sum(1 for s in spans if s["name"] == name)


# (metric, unit, better) in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("trees.grow_tree.s", "s", "lower"),
    ("trees.grow_tree.calls", "count", "lower"),
    ("trees.grow_tree.nodes", "count", "lower"),
    ("trees.grow_tree.rows", "count", "lower"),
    ("trees.Tree.predict.s", "s", "lower"),
    ("trees.Tree.predict.calls", "count", "lower"),
    ("trees.Tree.predict.rows", "count", "lower"),
    ("learner.fit.s", "s", "lower"),
    ("learner.fit.calls", "count", "lower"),
    ("learner.fit.unique_ratio", "ratio", "higher"),
    ("learner.FitModel.predict.s", "s", "lower"),
    ("losses.grad_hess.s", "s", "lower"),
    ("losses.grad_hess.calls", "count", "lower"),
    ("losses.total_loss.s", "s", "lower"),
    ("panel.slice_days.s", "s", "lower"),
    ("panel.slice_days.calls", "count", "lower"),
    ("panel.slice_days.rows", "count", "lower"),
    ("panel.read_panel.s", "s", "lower"),
    ("panel.read_panel.mb_per_s", "MB/s", "higher"),
    ("panel.write_panel.s", "s", "lower"),
    ("datagen.generate.s", "s", "lower"),
    ("datagen.generate.rows", "count", "lower"),
    ("rng.keyed_stream.calls", "count", "lower"),
    ("biascorr.fit_corrector.s", "s", "lower"),
    ("biascorr.fit_corrector.calls", "count", "lower"),
    ("metrics.version_metrics.s", "s", "lower"),
    ("metrics.version_metrics.calls", "count", "lower"),
    ("metrics.version_metrics.items", "count", "lower"),
    ("metrics.write_metrics_csv.s", "s", "lower"),
    ("backtest.run_backtest.s", "s", "lower"),
    ("backtest.fit_arm.s", "s", "lower"),
    ("backtest.fit_arm.wait_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_metrics(trace: dict, traced_cpu_s: float, untraced_cpu_s: float) -> dict:
    """Per-layer values from one traced pass.  Counts repeat exactly; a
    ratio over zero calls reads 0.  ``traced_cpu_s`` is the traced grid
    run's scaled CPU time and ``untraced_cpu_s`` the untraced median."""
    spans = trace["spans"]
    values: dict[str, float] = {}
    for name, field in (("trees.grow_tree", "rows"), ("trees.grow_tree", "nodes"),
                        ("trees.Tree.predict", "rows"), ("panel.slice_days", "rows"),
                        ("datagen.generate", "rows"), ("metrics.version_metrics", "items")):
        values[f"{name}.{field}"] = _sum(spans, name, field)
    for name in ("trees.grow_tree", "trees.Tree.predict", "learner.fit", "losses.grad_hess",
                 "panel.slice_days", "biascorr.fit_corrector", "metrics.version_metrics"):
        values[f"{name}.calls"] = _calls(spans, name)
    for name in ("trees.grow_tree", "trees.Tree.predict", "learner.fit",
                 "learner.FitModel.predict", "losses.grad_hess", "losses.total_loss",
                 "panel.slice_days", "panel.read_panel", "panel.write_panel",
                 "datagen.generate", "biascorr.fit_corrector", "metrics.version_metrics",
                 "metrics.write_metrics_csv", "backtest.fit_arm"):
        values[f"{name}.s"] = _sum(spans, name, "self_s")
    fits = [s["key"] for s in spans if s["name"] == "learner.fit"]
    values["learner.fit.unique_ratio"] = len(set(fits)) / len(fits) if fits else 0.0
    read_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "panel.read_panel")
    read_mb = _sum(spans, "panel.read_panel", "bytes") / 1e6
    values["panel.read_panel.mb_per_s"] = read_mb / read_s if read_s > 0 else 0.0
    values["rng.keyed_stream.calls"] = trace["counts"].get("rng.keyed_stream", 0)
    # The main thread only waits while the pool runs, so its CPU is the
    # assembly work; per-job code outside every wrapped layer (row dict
    # building, test slicing glue) is the jobs' self time on the workers.
    values["backtest.run_backtest.s"] = (_sum(spans, "backtest.run_backtest", "self_cpu_s")
                                         + _sum(spans, "backtest.job", "self_s"))
    values["backtest.fit_arm.wait_s"] = sum(
        (s["end"] - s["start"]) - s["cpu_s"] for s in spans if s["name"] == "backtest.fit_arm")
    values["trace.overhead_frac"] = traced_cpu_s / untraced_cpu_s - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
