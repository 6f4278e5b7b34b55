"""End-to-end command-line runs in subprocesses, including exit codes."""

import json
import math
import subprocess
import sys

import pytest

import skewcast as sc

GEN_CFG = {
    "n_items": 6,
    "n_days": 150,
    "seed": 99,
    "gamma_shape": 1.0,
    "gamma_scale": 1.0,
}

LEARNER_CFG = {"rounds": 5, "max_depth": 2}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "skewcast.cli", *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A panel CSV plus the config files the subcommands consume."""
    root = tmp_path_factory.mktemp("cli")
    (root / "gen.json").write_text(json.dumps(GEN_CFG), encoding="utf-8")
    (root / "learner.json").write_text(json.dumps(LEARNER_CFG), encoding="utf-8")
    proc = run_cli("gen", "--config", str(root / "gen.json"),
                   "--out", str(root / "panel.csv"))
    assert proc.returncode == 0, proc.stderr
    return root


def _plan(root, **overrides):
    plan = {
        "panel_path": str(root / "panel.csv"),
        "train_window_days": 90,
        "n_versions": 1,
        "horizons": [6],
        "arms": ["E4", "E5"],
        "baseline_id": "E5",
        "learner": LEARNER_CFG,
    }
    plan.update(overrides)
    return plan


class TestGen:
    def test_output_parses_as_panel(self, workdir):
        panel = sc.read_panel(workdir / "panel.csv")
        assert len(panel.item_ids) == 6
        assert (panel.date_range[1] - panel.date_range[0]).days == 149

    def test_reports_row_count(self, workdir):
        proc = run_cli("gen", "--config", str(workdir / "gen.json"),
                       "--out", str(workdir / "panel2.csv"))
        assert proc.returncode == 0
        assert f"wrote {6 * 150} rows" in proc.stdout

    def test_repeat_runs_are_byte_identical(self, workdir):
        first = (workdir / "panel.csv").read_bytes()
        second = (workdir / "panel2.csv").read_bytes()
        assert first == second

    def test_missing_config_is_config_error(self, workdir):
        proc = run_cli("gen", "--config", str(workdir / "nope.json"),
                       "--out", str(workdir / "x.csv"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("edit", [{"n_items": 2.5, "n_days": 30}, {"seed": "x"}],
                             ids=["float-items", "text-seed"])
    def test_mistyped_config_is_config_error(self, workdir, edit):
        path = workdir / "typed_gen.json"
        path.write_text(json.dumps({**GEN_CFG, **edit}), encoding="utf-8")
        proc = run_cli("gen", "--config", str(path), "--out", str(workdir / "x.csv"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestFit:
    def test_standard_arm_fit(self, workdir):
        model_path = workdir / "model.json"
        report_path = workdir / "pairs.csv"
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", "E4", "--model-out", str(model_path),
                       "--learner", str(workdir / "learner.json"),
                       "--report", str(report_path))
        assert proc.returncode == 0, proc.stderr
        model = sc.load_model(model_path)
        assert model.transform.kind == "log"
        assert len(model.trees) == 5
        summary = json.loads(proc.stdout)
        assert summary["n_rows"] == 6 * 150
        assert "mean_raw_residual" in summary
        assert "pairs" not in summary  # pairs go to the CSV, not stdout
        header = report_path.read_text(encoding="utf-8").split("\n", 1)[0]
        assert header == "actual,predicted"

    def test_arm_from_json_file(self, workdir):
        arm_path = workdir / "arm.json"
        arm = sc.ExperimentArm("CUSTOM", sc.TargetTransform(kind="sqrt"),
                               sc.LossSpec.pseudo_huber(2.0),
                               sc.WeightScheme(kind="unit"))
        arm_path.write_text(json.dumps(arm.to_json()), encoding="utf-8")
        model_path = workdir / "custom_model.json"
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", str(arm_path), "--model-out", str(model_path),
                       "--learner", str(workdir / "learner.json"))
        assert proc.returncode == 0, proc.stderr
        assert sc.load_model(model_path).transform.kind == "sqrt"

    def test_unknown_arm_is_config_error(self, workdir):
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", "E99", "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("arm", [
        [1, 2],
        {**sc.arm_by_id("E4").to_json(), "weight_scheme": ["unit"]},
        {**sc.arm_by_id("E4").to_json(), "loss": {"kind": "pseudo_huber", "delta": math.inf}},
        {**sc.arm_by_id("E4").to_json(), "transform": {"kind": "log", "offset": math.nan}},
    ], ids=["arm-not-object", "weights-not-object", "inf-delta", "nan-offset"])
    def test_malformed_arm_json_is_config_error(self, workdir, arm):
        arm_path = workdir / "malformed_arm.json"
        arm_path.write_text(json.dumps(arm), encoding="utf-8")
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", str(arm_path), "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_arm_directory_is_config_error(self, workdir, tmp_path):
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", str(tmp_path), "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 2
        assert f"cannot read arm {tmp_path}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("learner", [
        {"rounds": 2.5},
        {"rounds": 3, "subsample": 0.5, "seed": 1.5},
        {"max_depth": 2.5},
        {"l2_reg": "1"},
    ], ids=["float-rounds", "float-seed", "float-depth", "string-l2"])
    def test_mistyped_learner_is_config_error(self, workdir, learner):
        learner_path = workdir / "mistyped_learner.json"
        learner_path.write_text(json.dumps(learner), encoding="utf-8")
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", "E4", "--model-out", str(workdir / "m.json"),
                       "--learner", str(learner_path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_corrupt_panel_is_data_error(self, workdir):
        bad = workdir / "bad_panel.csv"
        good = (workdir / "panel.csv").read_text(encoding="utf-8").split("\n")
        good[2] = good[2].replace(good[2].split(",")[2], "-4.0", 1)
        bad.write_text("\n".join(good), encoding="utf-8")
        proc = run_cli("fit", "--panel", str(bad),
                       "--arm", "E4", "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 3
        assert "data error" in proc.stderr


class TestBacktest:
    def test_grid_and_outputs(self, workdir):
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(_plan(workdir)), encoding="utf-8")
        out_dir = workdir / "grid_out"
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report["arms"]) == {"E4", "E5"}
        assert (out_dir / "metrics.csv").exists()

    def test_invalid_plan_is_config_error(self, workdir):
        plan_path = workdir / "bad_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir, horizons=[5])),
                             encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "nope"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("edit", [{"n_versions": 1.5}, {"train_window_days": 90.5},
                                      {"cadence_days": True}, {"seed": "x"},
                                      {"horizons": [6.0]}],
                             ids=["n_versions", "train_window_days", "cadence_days", "seed",
                                  "horizons"])
    def test_mistyped_plan_is_config_error(self, workdir, edit):
        plan_path = workdir / "typed_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir, **edit)), encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "typed_out"))
        assert proc.returncode == 2
        assert f"config error: {next(iter(edit))}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workdir / "typed_out").exists()

    def test_retired_oracle_field_is_config_error(self, workdir):
        arm = {**sc.arm_by_id("E4").to_json(), "id": "MINE", "oracle": "false"}
        plan_path = workdir / "oracle_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir, arms=["E5", arm])), encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "oracle_out"))
        assert proc.returncode == 2
        assert "unknown field 'oracle'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workdir / "oracle_out").exists()

    def test_plan_not_object_is_config_error(self, workdir):
        plan_path = workdir / "list_plan.json"
        plan_path.write_text("[1, 2]", encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "nope"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_failing_job_names_arm_and_origin(self, workdir):
        gamma = sc.ExperimentArm("GAMMA", sc.TargetTransform(kind="identity"),
                                 sc.LossSpec.gamma(), sc.WeightScheme(kind="unit"))
        plan_path = workdir / "gamma_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir, arms=["E5", gamma.to_json()])),
                             encoding="utf-8")
        assert (sc.read_panel(workdir / "panel.csv").sales == 0).any()
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "gamma_out"))
        assert proc.returncode == 3
        assert "data error: arm GAMMA at origin " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_too_short_history_is_data_error(self, workdir):
        plan_path = workdir / "short_plan.json"
        plan_path.write_text(
            json.dumps(_plan(workdir, train_window_days=720)), encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "nope2"))
        assert proc.returncode == 3


class TestTrendCommands:
    def test_ladder(self, workdir):
        plan_path = workdir / "ladder_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir)), encoding="utf-8")
        out_dir = workdir / "ladder_out"
        proc = run_cli("ladder", "--plan", str(plan_path),
                       "--out-dir", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        lines = (out_dir / "ladder.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4  # header + one row per weighting rung
        report = json.loads((out_dir / "report.json").read_text())
        assert report["order"] == ["unit", "log_sales", "sqrt_sales", "linear_sales"]

    def test_sweep(self, workdir):
        gen_path = workdir / "gen.json"
        plan_path = workdir / "sweep_plan.json"
        plan_path.write_text(
            json.dumps(_plan(workdir, gen_config_path=str(gen_path))),
            encoding="utf-8")
        out_dir = workdir / "sweep_out"
        proc = run_cli("sweep", "--plan", str(plan_path),
                       "--out-dir", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 5  # header + one row per power
        report = json.loads((out_dir / "report.json").read_text())
        assert report["order"] == ["1.1", "1.3", "1.5", "1.7", "1.9"]
        assert report["theoretical_tweedie_power"] == pytest.approx(1.5)
        assert "best_wmape_power" in report


class TestConvexity:
    def test_curve_csv(self, workdir):
        out = workdir / "curves.csv"
        proc = run_cli("convexity", "--actual", "100", "--grid", "10:190:10",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].startswith("mu,mse,tweedie(p=1.1)")
        assert len(lines) == 1 + 19

    def test_bad_grid_is_config_error(self, workdir):
        proc = run_cli("convexity", "--grid", "10:5:1",
                       "--out", str(workdir / "c.csv"))
        assert proc.returncode == 2
        proc = run_cli("convexity", "--grid", "oops",
                       "--out", str(workdir / "c.csv"))
        assert proc.returncode == 2

    def test_unknown_loss_is_config_error(self, workdir):
        proc = run_cli("convexity", "--losses", "hinge",
                       "--out", str(workdir / "c.csv"))
        assert proc.returncode == 2


class TestUnwritableOutput:
    """An output path under a regular file ends as a data error (exit 3)
    with a message, not a traceback; the grid commands fail before the
    first fit."""

    @pytest.fixture(scope="class")
    def afile(self, workdir):
        path = workdir / "afile"
        path.write_text("not a directory\n", encoding="utf-8")
        plan_path = workdir / "io_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir)), encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", ["backtest", "ladder", "sweep"])
    def test_grid_out_dir(self, workdir, afile, command):
        proc = run_cli(command, "--plan", str(workdir / "io_plan.json"),
                       "--out-dir", str(afile / "sub"))
        assert proc.returncode == 3
        assert "data error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_fit_report(self, workdir, afile):
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", "E4", "--model-out", str(workdir / "io_model.json"),
                       "--learner", str(workdir / "learner.json"),
                       "--report", str(afile / "pairs.csv"))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr

    def test_convexity_out(self, afile):
        proc = run_cli("convexity", "--out", str(afile / "curves.csv"))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
