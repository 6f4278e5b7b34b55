"""Package-level acceptance checks.

Each test guards one headline behavior, registers a PASS/FAIL verdict
for the end-of-run summary, and then asserts.  Heavy artifacts (default
panel, backtest grid, ladder, sweep, full-panel fit) come from the
session fixtures in conftest.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import record_criterion

import skewcast as sc
from skewcast.biascorr import fit_corrector
from skewcast.losses import (
    LossSpec,
    deviance,
    grad_hess,
    mean_from_score,
    total_loss,
    weights_for,
)
from skewcast.transform import TargetTransform, jensen_gap

from scipy import optimize


def _check(number: int, description: str, ok, detail: str = "") -> None:
    record_criterion(number, description, bool(ok), detail)
    assert ok, f"criterion {number}: {description} ({detail})"


class TestTransformBiasSign:
    def test_gap_sign_for_concave_transforms(self, rng):
        log = TargetTransform(kind="log")
        sqrt = TargetTransform(kind="sqrt")
        worst = np.inf
        ok = True
        sample = rng.lognormal(1.0, 1.2, size=1000)
        for t in (log, sqrt):
            gap = jensen_gap(t, sample).gap
            worst = min(worst, gap)
            ok = ok and gap > 0.0
        for _ in range(100):
            n = int(rng.integers(2, 500))
            draw = {
                0: lambda: rng.lognormal(0.0, 1.0, size=n),
                1: lambda: rng.uniform(0.1, 40.0, size=n),
                2: lambda: rng.exponential(3.0, size=n) + 0.05,
            }[int(rng.integers(3))]()
            for t in (log, sqrt):
                gap = jensen_gap(t, draw).gap
                worst = min(worst, gap)
                ok = ok and gap > 0.0
        for c in (0.7, 13.0):
            for t in (log, sqrt):
                degenerate = jensen_gap(t, np.full(17, c)).gap
                ok = ok and abs(degenerate) <= 1e-12
        _check(1, "back-transformed means never overshoot the true mean",
               ok, f"smallest gap on non-degenerate samples {worst:.3e}")


ALL_LOSSES = [
    LossSpec.mse(),
    LossSpec.pseudo_huber(1.0),
    LossSpec.pseudo_huber(2.5),
    LossSpec.poisson(),
    LossSpec.gamma(),
    LossSpec.tweedie(1.1),
    LossSpec.tweedie(1.5),
    LossSpec.tweedie(1.9),
]


def _probes(spec: LossSpec, gen: np.random.Generator, n: int):
    if spec.log_link:
        y = gen.lognormal(1.0, 1.0, size=n)
        if spec.kind != "gamma":
            y[gen.uniform(size=n) < 0.2] = 0.0
        s = gen.uniform(-2.0, 5.0, size=n)
    else:
        y = gen.uniform(0.0, 50.0, size=n)
        s = gen.uniform(-10.0, 60.0, size=n)
    return y, s


def _loss_through_link(spec: LossSpec, y, s):
    return deviance(spec, y, mean_from_score(spec, s))


class TestGradientOracle:
    def test_gradients_match_finite_differences(self, rng):
        worst_grad = 0.0
        worst_hess = 0.0
        for spec in ALL_LOSSES:
            y, s = _probes(spec, rng, 10_000)
            h = 1e-6 * np.maximum(1.0, np.abs(s))
            fd_grad = (_loss_through_link(spec, y, s + h)
                       - _loss_through_link(spec, y, s - h)) / (2.0 * h)
            fd_hess = (grad_hess(spec, y, s + h).grad
                       - grad_hess(spec, y, s - h).grad) / (2.0 * h)
            got = grad_hess(spec, y, s)
            denom_g = np.maximum(np.maximum(np.abs(fd_grad), np.abs(got.grad)), 1e-3)
            denom_h = np.maximum(np.maximum(np.abs(fd_hess), np.abs(got.hess)), 1e-3)
            worst_grad = max(worst_grad, float(np.max(np.abs(got.grad - fd_grad) / denom_g)))
            worst_hess = max(worst_hess, float(np.max(np.abs(got.hess - fd_hess) / denom_h)))
        ok = worst_grad <= 1e-5 and worst_hess <= 1e-3
        _check(2, "analytic gradients match central finite differences",
               ok, f"max rel err grad {worst_grad:.2e}, hess {worst_hess:.2e}")


class TestPowerFamilyLimits:
    def test_power_family_limit_cases(self, rng):
        n = 4000
        y = rng.uniform(0.5, 20.0, size=n)
        # Keep mu away from y: at the curve's minimum the deviance itself
        # is ~0 and a relative comparison measures only rounding noise.
        ratio = np.exp(rng.uniform(0.05, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n))
        mu = y * ratio
        y_with_zeros = y.copy()
        y_with_zeros[: n // 10] = 0.0

        def _max_rel(spec_a, spec_b, ys):
            s = np.log(mu)
            gh_a, gh_b = grad_hess(spec_a, ys, s), grad_hess(spec_b, ys, s)
            pairs = [
                (deviance(spec_a, ys, mu), deviance(spec_b, ys, mu)),
                (gh_a.grad, gh_b.grad),
                (gh_a.hess, gh_b.hess),
            ]
            return max(
                float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-9)))
                for a, b in pairs
            )

        near_one = _max_rel(LossSpec.tweedie(1.0 + 1e-6), LossSpec.poisson(),
                            y_with_zeros)
        near_two = _max_rel(LossSpec.tweedie(2.0 - 1e-6), LossSpec.gamma(), y)
        sq = rng.uniform(-30.0, 30.0, size=n)
        mse_exact = np.array_equal(deviance(LossSpec.mse(), y, sq), (y - sq) ** 2)
        ok = near_one <= 1e-3 and near_two <= 1e-3 and mse_exact
        _check(3, "variance-power family collapses to its limit cases",
               ok, f"rel err near 1: {near_one:.2e}, near 2: {near_two:.2e}, "
                   f"squared error exact: {mse_exact}")


class TestConstantMinimizer:
    def test_round_zero_prediction_is_weighted_mean(self, rng):
        y = rng.lognormal(0.5, 0.9, size=600)
        X = rng.normal(size=(600, 3))
        scheme = sc.WeightScheme(kind="sqrt_sales")
        w = weights_for(scheme, y)
        wmean = float(np.sum(w * y) / np.sum(w))
        identity = TargetTransform(kind="identity")
        cfg = sc.LearnerConfig(rounds=0)
        worst = 0.0
        for spec in (LossSpec.mse(), LossSpec.poisson(), LossSpec.gamma(),
                      LossSpec.tweedie(1.5)):
            model = sc.fit_arrays(X, y, identity, spec, scheme, cfg)
            pred = float(model.predict(X[:1])[0])
            oracle = optimize.minimize_scalar(
                lambda m: total_loss(spec, w, y, np.full_like(y, m)),
                bracket=(1e-6, wmean, float(np.max(y)) * 3.0),
                method="golden",
                options={"xtol": 1e-12},
            ).x
            worst = max(worst, abs(pred - wmean) / wmean,
                        abs(oracle - wmean) / wmean)
        ok = worst <= 1e-6
        _check(4, "round-0 prediction is the weighted mean of sales",
               ok, f"max rel dev from weighted mean {worst:.2e}")


class TestUnderForecastReproduction:
    def test_log_target_underforecasts_default_panel(self, grid_report):
        biases = {h: grid_report.aggregates["E4"][h].wbias
                  for h in grid_report.horizons}
        ok = all(b < 0.0 for b in biases.values())
        _check(5, "naive log-target arm under-forecasts at every horizon",
               ok, "wbias " + ", ".join(f"h={h}: {b:+.4f}"
                                        for h, b in sorted(biases.items())))


class TestBiasCorrectionEfficacy:
    def test_smearing_reduces_mean_residual(self, log_target_fit):
        y, zhat = log_target_fit["y"], log_target_fit["zhat"]
        naive = log_target_fit["naive"]
        log = TargetTransform(kind="log")
        corrected = fit_corrector("smearing", y, zhat, log).correct(log, zhat)
        before = abs(float(np.mean(y - naive)))
        after = abs(float(np.mean(y - corrected)))
        reduction = 1.0 - after / before
        ok = reduction >= 0.40
        _check(6, "smearing removes at least 40% of the mean residual",
               ok, f"|mean residual| {before:.4f} -> {after:.4f} "
                   f"({100 * reduction:.1f}% reduction)")

    def test_binned_correction_centers_residuals(self, log_target_fit):
        y, zhat = log_target_fit["y"], log_target_fit["zhat"]
        log = TargetTransform(kind="log")
        corrected = fit_corrector("prediction_binned", y, zhat, log).correct(log, zhat)
        resid = abs(float(np.mean(y - corrected)))
        budget = 0.05 * float(np.mean(y))
        ok = resid <= budget
        _check(7, "binned correction leaves at most 5% mean residual",
               ok, f"|mean residual| {resid:.4f} vs budget {budget:.4f}")

    def test_variance_and_smearing_agree_on_gaussian(self, rng):
        worst = 0.0
        log = TargetTransform(kind="log")
        for sigma in (0.1, 0.25, 0.4, 0.6):
            eps = rng.normal(0.0, sigma, size=10_000)
            # zero sales, log(0 + 1) = 0, against predictions -eps: residuals eps
            v = fit_corrector("variance_based", np.zeros(eps.size), -eps, log).factors[0]
            s = fit_corrector("smearing", np.zeros(eps.size), -eps, log).factors[0]
            worst = max(worst, abs(v / s - 1.0))
        ok = worst <= 0.02
        _check(8, "variance and smearing factors agree on Gaussian noise",
               ok, f"max factor disagreement {100 * worst:.2f}%")


class TestTrendReproductions:
    def test_weight_ladder_raises_bias_toward_zero(self, ladder_report):
        details = []
        ok = True
        for h, verdict in sorted(ladder_report.verdicts.items()):
            series = verdict["wbias_series"]
            strict_violations = sum(1 for a, b in zip(series, series[1:])
                                    if b <= a)
            ok = ok and strict_violations <= 1
            details.append(f"h={h}: " + " ".join(f"{b:+.3f}" for b in series)
                           + f" ({strict_violations} inversions)")
        _check(9, "heavier sales weighting pulls bias up toward zero",
               ok, "; ".join(details))

    def test_power_sweep_bias_and_accuracy(self, sweep_report):
        details = []
        ok = True
        for h, verdict in sorted(sweep_report.verdicts.items()):
            series = verdict["wbias_series"]
            inversions = sum(1 for a, b in zip(series, series[1:]) if b > a)
            ok = ok and inversions <= 1
            details.append(f"h={h}: {inversions} inversions")
        best = sweep_report.extra["best_wmape_power"]
        for h, p in best.items():
            ok = ok and p in {"1.3", "1.5", "1.7"}
        details.append("best wmape power " + ", ".join(
            f"h={h}: {p}" for h, p in sorted(best.items())))
        _check(10, "bias falls with variance power; accuracy peaks near truth",
               ok, "; ".join(details))


class TestDevianceGeometry:
    def test_deviance_curvature_ordering(self):
        actual, step = 100.0, 10.0

        def second_diff(spec):
            lo = float(deviance(spec, actual, actual - step))
            mid = float(deviance(spec, actual, actual))
            hi = float(deviance(spec, actual, actual + step))
            return lo - 2.0 * mid + hi

        d11 = second_diff(LossSpec.tweedie(1.1))
        d15 = second_diff(LossSpec.tweedie(1.5))
        d19 = second_diff(LossSpec.tweedie(1.9))
        dmse = second_diff(LossSpec.mse())
        ok = d11 > d15 > d19 and dmse > d11
        _check(11, "deviance curvature flattens as variance power rises",
               ok, f"second differences mse {dmse:.3f} > p1.1 {d11:.3f} "
                   f"> p1.5 {d15:.3f} > p1.9 {d19:.3f}")


class TestMetricsAlgebra:
    def test_metrics_algebra(self, grid_report, ladder_report, sweep_report, rng):
        all_rows = grid_report.rows + ladder_report.rows + sweep_report.rows
        bound_ok = all(abs(vm.wbias) <= vm.wmape + 1e-12 for _, vm in all_rows)

        import datetime as dt
        origin = dt.date(2021, 6, 7)
        version = sc.ForecastVersion(origin, 6)
        forecasts, actuals = np.empty((8, 42)), np.empty((8, 42))
        for i in range(8):
            forecasts[i] = rng.uniform(1, 30, size=42)
            actuals[i] = rng.uniform(1, 30, size=42)

        def panel_of(sales):
            return sc.SalesPanel([f"i{i}" for i in range(8)], np.repeat(np.arange(8), 42),
                                 np.tile(origin.toordinal() + np.arange(1, 43), 8),
                                 sales.ravel(), np.zeros((8 * 42, 0)), [])

        vm = sc.version_metrics(forecasts.ravel(), panel_of(actuals), version)
        c = 7.3
        vm_scaled = sc.version_metrics(c * forecasts.ravel(), panel_of(c * actuals), version)
        scale_ok = (abs(vm_scaled.wmape - vm.wmape) <= 1e-12
                    and abs(vm_scaled.wbias - vm.wbias) <= 1e-12)

        agg = sc.aggregate_versions([vm])[6]
        rel = sc.relativize(agg, agg, "self")
        self_ok = rel.wmape_rel == 1.0 and abs(rel.wbias_rel) == 1.0

        ok = bound_ok and scale_ok and self_ok
        _check(12, "bias is bounded by error and metrics are scale-free",
               ok, f"{len(all_rows)} rows bound-checked, "
                   f"scale drift {max(abs(vm_scaled.wmape - vm.wmape), abs(vm_scaled.wbias - vm.wbias)):.1e}, "
                   f"self-relative ({rel.wmape_rel}, {rel.wbias_rel})")


class TestDeterminism:
    def test_grid_byte_determinism(self, tmp_path):
        gen_cfg = {"n_items": 40, "n_days": 420, "seed": 1234}
        (tmp_path / "gen.json").write_text(json.dumps(gen_cfg), encoding="utf-8")
        plan = {
            "panel_path": str(tmp_path / "panel.csv"),
            "train_window_days": 180,
            "n_versions": 2,
            "horizons": [6, 12],
            "learner": {"rounds": 12, "max_depth": 3},
        }
        (tmp_path / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

        def run(cmd_args, threads):
            env = {**os.environ, "SKEWCAST_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "skewcast.cli", *cmd_args],
                capture_output=True, text=True, env=env, timeout=480)
            assert proc.returncode == 0, proc.stderr
            return proc

        run(["gen", "--config", str(tmp_path / "gen.json"),
             "--out", str(tmp_path / "panel.csv")], "1")
        outputs = {}
        for name, threads in (("first", "1"), ("again", "1"), ("wide", "8")):
            out_dir = tmp_path / name
            run(["backtest", "--plan", str(tmp_path / "plan.json"),
                 "--out-dir", str(out_dir)], threads)
            outputs[name] = {
                f: (out_dir / f).read_bytes()
                for f in ("metrics.csv", "report.json")
            }
        repeat_ok = outputs["first"] == outputs["again"]
        threads_ok = outputs["first"] == outputs["wide"]
        ok = repeat_ok and threads_ok
        _check(13, "grid outputs are byte-identical across runs and thread counts",
               ok, f"rerun identical: {repeat_ok}, 1 vs 8 threads identical: {threads_ok}")


class TestOracleArm:
    def test_oracle_arm_scores_zero(self, grid_report):
        rows = [vm for arm_id, vm in grid_report.rows if arm_id == "ORACLE"]
        ok = (len(rows) > 0
              and all(vm.wmape == 0.0 and vm.wbias == 0.0 for vm in rows)
              and all(grid_report.aggregates["ORACLE"][h].wmape == 0.0
                      and grid_report.aggregates["ORACLE"][h].wbias == 0.0
                      for h in grid_report.horizons))
        _check(14, "a forecast equal to the actuals scores exactly zero",
               ok, f"{len(rows)} oracle version rows, all exact zeros: {ok}")
