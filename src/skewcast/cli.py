"""Command-line interface.

Subcommands:
  gen        synthesize a sales panel from a generator config
  fit        train one arm on a panel and save the model JSON
  backtest, ladder, sweep   the studies of ``backtest.STUDIES``
  convexity  deviance-vs-prediction curves for a fixed actual

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import backtest as bt
from .datagen import generate, load_gen_config
from .errors import ConfigError, DataError, read_json, real
from .learner import (
    LearnerConfig,
    in_sample_fit_report,
    save_model,
    write_pairs_csv,
)
from .losses import _LOSS_KINDS, LossSpec, convexity_profile
from .panel import read_panel, write_panel


def _cmd_gen(args) -> int:
    cfg = load_gen_config(args.config)
    _check_out_path(args.out)  # fail before generating, not after it
    _check_outputs([("--out", args.out)], [("--config", args.config)])
    panel = generate(cfg)
    write_panel(panel, args.out)
    print(f"wrote {len(panel)} rows to {args.out}")
    return 0


def _arm_file(spec: str) -> str | None:
    """The arm JSON path ``spec`` names: None for a standard grid id, which
    always names that arm, or for a spec that is no path (an unknown arm id)."""
    if not os.path.exists(spec) or spec in {arm.id for arm in bt.standard_arms()}:
        return None
    return spec


def _load_arm(spec: str) -> bt.ExperimentArm:
    path = _arm_file(spec)
    if path is None:
        return bt.arm_by_id(spec)
    return bt.ExperimentArm.from_json(read_json(path, "arm"))


def _load_learner(path: str | None) -> LearnerConfig:
    if path is None:
        return LearnerConfig()
    return LearnerConfig.from_json(read_json(path, "learner config"))


def _check_out_path(path) -> None:
    """``DataError`` unless ``path`` can name a file in an existing directory."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(parent):
        raise DataError(f"cannot write {path}: not a file in an existing directory")


def _check_outputs(outputs, inputs) -> None:
    """``ConfigError`` if an output would write over another output or an input file.

    Both are lists of (option, path) pairs, with None for an option not
    given; paths are compared by ``os.path.realpath``, and an input only
    if it exists.
    """
    outputs = [(option, path) for option, path in outputs if path is not None]
    inputs = [(option, path) for option, path in inputs
              if path is not None and os.path.exists(path)]
    for i, (option, path) in enumerate(outputs):
        for other, other_path in outputs[i + 1:] + inputs:
            if os.path.realpath(path) == os.path.realpath(other_path):
                raise ConfigError(f"{option} {path} is the {other} file")


def _check_out_dir(path) -> None:
    """``DataError`` unless ``path`` is, or could be made, a directory.

    Nothing is created: the nearest existing ancestor of ``path`` (or
    ``path`` itself) must be a directory this process may write in.
    """
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing) or not os.access(existing, os.W_OK | os.X_OK):
        raise DataError(f"cannot create output directory {path}: "
                        f"{existing} is not a writable directory")


def _cmd_fit(args) -> int:
    arm = _load_arm(args.arm)
    learner_cfg = _load_learner(args.learner)
    for path in (args.model_out, args.report):
        if path is not None:  # fail before the fit, not after it
            _check_out_path(path)
    _check_outputs([("--report", args.report), ("--model-out", args.model_out)],
                   [("--panel", args.panel), ("--arm", _arm_file(args.arm)),
                    ("--learner", args.learner)])
    panel = read_panel(args.panel)
    (model,) = bt.fit_arm([arm], panel, learner_cfg)
    save_model(model, args.model_out)
    report = in_sample_fit_report(model, panel)
    if args.report is not None:
        write_pairs_csv(report, args.report)
    del report["pairs"]
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_study(args) -> int:
    plan = bt.load_plan(args.plan)
    _check_out_dir(args.out_dir)  # fail before the grid, not after it
    inputs = [("--plan", args.plan), ("panel_path", plan.panel_path),
              ("gen_config_path", plan.gen_config_path)]
    _check_outputs([("--out-dir", os.path.join(args.out_dir, name))
                    for name in bt.STUDIES[args.command].files],
                   [(f"{option} {path}", path) for option, path in inputs])
    report = bt.run_study(plan, names=[args.command])[args.command]
    *names, last = bt.write_backtest_outputs(report, args.out_dir)
    print(f"wrote {', '.join(names)} and {last} to {args.out_dir}")
    return 0


_MAX_GRID_POINTS = 10**6


def _number(text: str, what: str) -> float:
    """``text`` as a finite float; otherwise a ``ConfigError`` naming ``what``."""
    try:
        return real(float(text), what)
    except ValueError:
        raise ConfigError(f"{what} must be a finite number, got {text!r}") from None


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid must look like start:stop:step, got {text!r}")
    start, stop, step = (_number(p, f"--grid {name}")
                         for p, name in zip(parts, ("start", "stop", "step")))
    if step <= 0 or stop < start:
        raise ConfigError("--grid needs step > 0 and stop >= start")
    if (stop - start) / step + 1 > _MAX_GRID_POINTS:  # checked before anything is allocated
        raise ConfigError(f"--grid {text!r} has more than {_MAX_GRID_POINTS} points")
    return np.arange(start, stop + 0.5 * step, step)


def _parse_losses(text: str) -> list[LossSpec]:
    """``kind`` or ``kind:value`` tokens, each built by the ``LossSpec`` method of its kind."""
    specs = []
    for token in text.split(","):
        name, colon, param = token.strip().partition(":")
        if name not in _LOSS_KINDS:
            raise ConfigError(f"--losses: unknown loss {name!r}")
        param_name = _LOSS_KINDS[name][1]
        if param_name is None and colon:
            raise ConfigError(f"--losses: {name} takes no parameter, got {token.strip()!r}")
        args = (_number(param, f"--losses {name} {param_name}"),) if param else ()
        try:
            specs.append(getattr(LossSpec, name)(*args))
        except TypeError:  # no value for a parameter without a default
            raise ConfigError(f"--losses: {name} needs a {param_name}, e.g. {name}:1.5") from None
    return specs


_DEFAULT_CONVEXITY = ",".join(["mse", *(f"tweedie:{p}" for p in bt.SWEEP_POWERS)])


def _cmd_convexity(args) -> int:
    real(args.actual, "--actual")
    specs = _parse_losses(args.losses)
    grid = _parse_grid(args.grid)
    _check_out_path(args.out)
    table = convexity_profile(specs, args.actual, grid)
    table.write_csv(args.out)
    print(f"wrote {len(grid)} grid rows for {len(specs)} losses to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewcast",
        description="Forecasting on skewed sales data: transforms, Tweedie "
                    "losses, bias correction, and rolling-origin backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic sales panel")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output panel CSV")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fit", help="fit one arm on a panel")
    p.add_argument("--panel", required=True, help="panel CSV")
    p.add_argument("--arm", required=True, help="standard arm id or arm JSON path")
    p.add_argument("--model-out", required=True, help="output model JSON")
    p.add_argument("--learner", default=None, help="learner config JSON (optional)")
    p.add_argument("--report", default=None,
                   help="optional CSV of in-sample (actual, predicted) pairs")
    p.set_defaults(func=_cmd_fit)

    for command, study in bt.STUDIES.items():
        p = sub.add_parser(command, help=study.help)
        p.add_argument("--plan", required=True, help="backtest plan JSON")
        p.add_argument("--out-dir", required=True)
        p.set_defaults(func=_cmd_study)

    p = sub.add_parser("convexity", help="deviance curves over a prediction grid")
    p.add_argument("--actual", type=float, default=100.0)
    p.add_argument("--grid", default="10:190:10", help="start:stop:step (inclusive)")
    p.add_argument("--losses", default=_DEFAULT_CONVEXITY,
                   help="comma list, e.g. mse,tweedie:1.5,poisson")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_convexity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
