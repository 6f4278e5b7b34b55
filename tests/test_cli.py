"""End-to-end command-line runs in subprocesses, including exit codes;
the ``--losses`` parser and the output-directory check in-process."""

import datetime as dt
import json
import math
import subprocess
import sys

import pytest

import skewcast as sc
from skewcast import backtest, cli
from skewcast.backtest import SWEEP_POWERS
from skewcast.cli import _parse_losses, main
from skewcast.losses import _LOSS_KINDS

GEN_CFG = {
    "n_items": 6,
    "n_days": 150,
    "seed": 99,
    "gamma_shape": 1.0,
    "gamma_scale": 1.0,
}

LEARNER_CFG = {"rounds": 5, "max_depth": 2}


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "skewcast.cli", *args],
        input=stdin, capture_output=True, text=True, timeout=300,
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

    def test_out_on_the_config_file_is_config_error(self, workdir, tmp_path, capsys):
        config = tmp_path / "gen.json"
        config.write_bytes((workdir / "gen.json").read_bytes())
        assert main(["gen", "--config", str(config), "--out", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: --out {config} is the --config file\n"
        assert config.read_bytes() == (workdir / "gen.json").read_bytes()

    def test_missing_config_is_config_error(self, workdir):
        proc = run_cli("gen", "--config", str(workdir / "nope.json"),
                       "--out", str(workdir / "x.csv"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("edit,field", [
        ({"n_items": 2.5, "n_days": 30}, "n_items"),
        ({"seed": "x"}, "seed"),
        ({"base_rate_lognormal": [1]}, "base_rate_lognormal"),
        ({"base_rate_lognormal": [1, -1]}, "base_rate_lognormal"),
        ({"base_rate_lognormal": [1, math.nan]}, "base_rate_lognormal"),
        ({"weekly_seasonality": [1, 1, 1, 1, 1, 1, -1]}, "weekly_seasonality"),
        ({"weekly_seasonality": [1, 1, 1, 1, 1, 1, "x"]}, "weekly_seasonality"),
        ({"spike_days": [[3, math.nan]]}, "spike_days"),
        ({"base_rate_lognormal": 5}, "base_rate_lognormal"),
        ({"weekly_seasonality": 5}, "weekly_seasonality"),
        ({"spike_days": [[math.inf, 3.0]]}, "spike_days"),
        ({"spike_days": [[3, 10**400]]}, "spike_days"),
        ({"n_items": 2**70, "n_days": 10}, "n_items * n_days"),
        ({"n_days": 30, "start_day": "9999-12-20"}, "start_day 9999-12-20 and n_days 30"),
        ({"spike_days": [[10, 2.0], [10, 3.0]]}, "spike_days must name distinct days >= 0"),
        ({"spike_days": [[-1, 2.0]]}, "spike_days must name distinct days >= 0"),
        ({"spike_days": {}}, "spike_days must be a list, got dict"),
    ], ids=["float-items", "text-seed", "one-number", "negative-sigma", "nan-sigma",
            "negative-weekday", "text-weekday", "nan-spike", "scalar-lognormal",
            "scalar-weekly", "infinite-spike-day", "huge-spike", "huge-panel",
            "last-day-past-9999", "repeated-spike-day", "negative-spike-day",
            "spike-days-object"])
    def test_mistyped_config_is_config_error(self, workdir, edit, field):
        path = workdir / "typed_gen.json"
        path.write_text(json.dumps({**GEN_CFG, **edit}), encoding="utf-8")
        proc = run_cli("gen", "--config", str(path), "--out", str(workdir / "x.csv"))
        assert proc.returncode == 2
        assert f"config error: {field}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("edit,cell", [
        ({"base_rate_lognormal": [800, 1]}, "item 0, day 0"),
        ({"price_elasticity": -1e300}, "item 1, day 0"),
        ({"price_walk_sigma": 1e300}, "item 0, day 0"),
        ({"weekly_seasonality": [1e308] * 7}, "item 0, day 0"),
        ({"spike_days": [[3, 1e308]]}, "item 0, day 3"),
        ({"gamma_scale": 1e308}, "item 0, day 0"),
    ], ids=["popularity", "elasticity", "price-walk", "weekly", "spike", "gamma-scale"])
    def test_overflowing_demand_is_config_error(self, workdir, edit, cell):
        """A finite config whose demand no float holds names the first such
        cell and the fields that set its level, without numpy's warnings."""
        path = workdir / "overflow_gen.json"
        path.write_text(json.dumps({"n_items": 2, "n_days": 20, **edit}), encoding="utf-8")
        proc = run_cli("gen", "--config", str(path), "--out", str(workdir / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"config error: {cell}: the demand level is too large to draw sales from; it is "
            "set by base_rate_lognormal, weekly_seasonality, spike_days, price_elasticity, "
            "price_walk_sigma and gamma_scale\n")

    def test_spike_day_too_large_for_an_integer_is_config_error(self, workdir):
        """JSON reads 1e400 as infinity, which no integer holds."""
        path = workdir / "huge_spike_gen.json"
        text = json.dumps({**GEN_CFG, "spike_days": [[0, 3.0]]})
        path.write_text(text.replace("[[0, 3.0]]", "[[1e400, 3.0]]"), encoding="utf-8")
        proc = run_cli("gen", "--config", str(path), "--out", str(workdir / "x.csv"))
        assert proc.returncode == 2
        assert "config error: spike_days" in proc.stderr
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

    def test_retired_offset_is_config_error(self, workdir):
        """The log offset is retired: an arm that sets it, even to its old
        default of 1, is named before the panel is read."""
        arm = sc.arm_by_id("E4").to_json()
        arm["transform"]["offset"] = 1.0
        arm_path = workdir / "offset_arm.json"
        arm_path.write_text(json.dumps(arm), encoding="utf-8")
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", str(arm_path), "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 2
        assert "config error: transform JSON has unknown field 'offset'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workdir / "m.json").exists()

    @pytest.mark.parametrize("kind", ["variance_based", "smearing", "prediction_binned"])
    def test_corrector_on_identity_transform_is_config_error(self, workdir, kind):
        arm = {**sc.arm_by_id("E1").to_json(), "id": "RAW-C", "corrector_kind": kind}
        arm_path = workdir / "identity_corrected_arm.json"
        arm_path.write_text(json.dumps(arm), encoding="utf-8")
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", str(arm_path), "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 2
        assert proc.stderr == (f"config error: arm RAW-C: a {kind} corrector needs a log or "
                               "sqrt transform, not identity\n")

    @pytest.mark.parametrize("delta", [1e200, 2**1000], ids=["1e200", "2**1000"])
    def test_pseudo_huber_delta_with_no_finite_square_is_config_error(self, workdir, delta):
        """The deviance scales by delta squared; an overflow there used to
        fit a NaN training loss, or end in a raw OverflowError."""
        arm = {**sc.arm_by_id("E2").to_json(), "loss": {"kind": "pseudo_huber", "delta": delta}}
        arm_path = workdir / "huge_delta_arm.json"
        arm_path.write_text(json.dumps(arm), encoding="utf-8")
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", str(arm_path), "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 2
        assert proc.stderr == ("config error: pseudo_huber delta must have a finite square, "
                               f"got {delta:g}\n")
        assert not (workdir / "m.json").exists()

    @pytest.mark.parametrize("delta", [1e-200, 1e-160])
    def test_pseudo_huber_loss_that_is_not_finite_is_data_error(self, workdir, delta):
        """A tiny delta overflows the training loss before the first round;
        the loss and the round are named, with no numpy warning above them."""
        arm = {**sc.arm_by_id("E2").to_json(), "loss": {"kind": "pseudo_huber", "delta": delta}}
        arm_path = workdir / "tiny_delta_arm.json"
        arm_path.write_text(json.dumps(arm), encoding="utf-8")
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", str(arm_path), "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 3
        assert proc.stderr == (f"data error: the training loss of pseudo_huber(d={delta:g}) "
                               "is not finite at round 0\n")
        assert not (workdir / "m.json").exists()

    def test_report_on_the_model_file_is_config_error(self, workdir):
        """The pairs CSV would overwrite the saved model; the run is refused
        before the fit, also when the two paths differ only in spelling."""
        model_path = workdir / "same.out"
        report = f"{workdir}/./same.out"  # a Path would drop the "."
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"), "--arm", "E4",
                       "--model-out", str(model_path), "--report", report)
        assert proc.returncode == 2
        assert proc.stderr == f"config error: --report {report} is the --model-out file\n"
        assert not model_path.exists()

    @pytest.mark.parametrize("output,the_input", [
        ("--model-out", "--panel"), ("--report", "--panel"), ("--model-out", "--learner"),
        ("--model-out", "--arm"), ("--report", "--arm"), ("--model-out", "--panel-link"),
    ])
    def test_an_output_on_an_input_file_is_config_error(self, workdir, tmp_path, capsys,
                                                        output, the_input):
        """The run is refused before any work, and the input keeps its bytes,
        also when the output reaches the input through a symbolic link."""
        inputs = {"--panel": tmp_path / "panel.csv", "--learner": tmp_path / "learner.json",
                  "--arm": tmp_path / "arm.json"}
        inputs["--panel"].write_bytes((workdir / "panel.csv").read_bytes())
        inputs["--learner"].write_bytes((workdir / "learner.json").read_bytes())
        inputs["--arm"].write_text(json.dumps(sc.arm_by_id("E4").to_json()), encoding="utf-8")
        before = {option: path.read_bytes() for option, path in inputs.items()}
        target = tmp_path / "link.csv" if the_input == "--panel-link" else inputs[the_input]
        if the_input == "--panel-link":
            target.symlink_to(inputs["--panel"])
        outputs = {"--model-out": str(tmp_path / "model.json"), output: str(target)}
        argv = ["fit", *(arg for option, path in inputs.items() for arg in (option, str(path))),
                *(arg for option, path in outputs.items() for arg in (option, path))]
        assert main(argv) == 2
        named = "--panel" if the_input == "--panel-link" else the_input
        assert capsys.readouterr().err == f"config error: {output} {target} is the {named} file\n"
        assert {option: path.read_bytes() for option, path in inputs.items()} == before
        assert not (tmp_path / "model.json").exists()  # refused before the fit

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

    @pytest.mark.parametrize("part,edit,field", [
        ("transform", {"kind": "log", "ofset": 0.0}, "ofset"),
        ("loss", {"kind": "mse", "powr": 1.5}, "powr"),
        ("weight_scheme", {"kind": "unit", "alpah": 2}, "alpah"),
    ])
    def test_unknown_field_in_arm_part_is_config_error(self, workdir, part, edit, field):
        arm_path = workdir / "typo_arm.json"
        arm_path.write_text(json.dumps({**sc.arm_by_id("E4").to_json(), part: edit}),
                            encoding="utf-8")
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", str(arm_path), "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 2
        assert f"unknown field '{field}'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_standard_arm_id_is_never_read_as_a_path(self, workdir, tmp_path, monkeypatch,
                                                     capsys):
        """A directory named E4 does not hide the E4 arm; a spec that is
        neither a standard id nor a path is named as an unknown arm id."""
        (tmp_path / "E4").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "--panel", str(workdir / "panel.csv"), "--arm", "E4",
                     "--model-out", "e4_model.json",
                     "--learner", str(workdir / "learner.json")]) == 0
        assert capsys.readouterr().err == ""
        model = sc.load_model(tmp_path / "e4_model.json")
        assert (model.transform, model.loss) == (sc.TargetTransform(kind="log"),
                                                 sc.LossSpec.mse())
        assert main(["fit", "--panel", str(workdir / "panel.csv"), "--arm", "E9",
                     "--model-out", "e9_model.json"]) == 2
        assert capsys.readouterr().err == "config error: unknown arm id 'E9'\n"

    def test_arm_directory_is_config_error(self, workdir, tmp_path):
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", str(tmp_path), "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 2
        assert f"cannot read arm {tmp_path}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("learner,named", [
        ({"rounds": 2.5}, "rounds"),
        # subsample and seed are retired: the first unknown field is named
        ({"rounds": 3, "subsample": 0.5, "seed": 1.5}, "learner JSON has unknown field 'seed'"),
        ({"max_depth": 2.5}, "max_depth"),
        ({"l2_reg": "1"}, "l2_reg"),
        ({"rounds": 3, "subsample": 1.0}, "learner JSON has unknown field 'subsample'"),
        ({"base": "linear", "rounds": 10**9}, "rounds must be at most 100,000"),
    ], ids=["float-rounds", "float-seed", "float-depth", "string-l2", "retired-subsample",
            "unbounded-rounds"])
    def test_mistyped_learner_is_config_error(self, workdir, learner, named):
        learner_path = workdir / "mistyped_learner.json"
        learner_path.write_text(json.dumps(learner), encoding="utf-8")
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", "E4", "--model-out", str(workdir / "m.json"),
                       "--learner", str(learner_path))
        assert proc.returncode == 2
        assert f"config error: {named}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_panel_names_its_line(self, workdir):
        bad = workdir / "latin1_panel.csv"
        bad.write_bytes(b"item_id,day,sales\nitem_a,2020-01-01,1\n\xff,2020-01-02,2\n")
        proc = run_cli("fit", "--panel", str(bad),
                       "--arm", "E4", "--model-out", str(workdir / "m.json"))
        assert proc.returncode == 3
        assert "data error: line 3: not UTF-8 text" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("header, message", [
        ("item_id,day,sales,f,f", "feature name 'f' is repeated"),
        ("item_id,day,sales,f,", "feature name '' is empty"),
        ("item_id,day,sales,f,g\r", "feature name 'g\\r' is not representable in CSV"),
        ("item_id,day,sales,sales,day", "feature name 'sales' is the name of a panel column"),
    ], ids=["repeated", "trailing-comma", "crlf-header", "panel-columns"])
    def test_bad_feature_name_is_data_error(self, workdir, header, message):
        bad = workdir / "bad_names_panel.csv"
        bad.write_text(f"{header}\nitem_a,2020-01-01,1.0,0.5,0.5\n"
                       "item_a,2020-01-02,3.0,0.5,0.5\n", encoding="utf-8")
        model_path = workdir / "bad_names_model.json"
        proc = run_cli("fit", "--panel", str(bad), "--arm", "E4",
                       "--model-out", str(model_path))
        assert proc.returncode == 3
        assert f"data error: line 1: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not model_path.exists()

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
        out_dir = workdir / "grid_out" / "sub"  # made, parents too, when written
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote metrics.csv and report.json to {out_dir}\n"
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

    @staticmethod
    def _overflowing_plan(tmp_path):
        """A price of -10000 over the last 42 days drives the linear E3.5 and
        E4 forecasts past the largest float; the plan's path and its first origin."""
        made = sc.generate(sc.GenConfig(n_items=4, n_days=260, seed=5))
        X = made.feature_matrix.copy()
        X[made.day_ordinals > made.day_ordinals.max() - 42,
          made.feature_names.index("log_price")] = -10000.0
        sc.write_panel(sc.SalesPanel(made.item_ids, made.item_codes, made.day_ordinals,
                                     made.sales, X, made.feature_names), tmp_path / "panel.csv")
        plan = {"panel_path": str(tmp_path / "panel.csv"), "train_window_days": 120,
                "n_versions": 2, "horizons": [6], "arms": ["E3.5", "E1", "E4"],
                "baseline_id": "E1", "learner": {"base": "linear", "rounds": 5}}
        (tmp_path / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        first_origin = backtest.version_origins(sc.read_panel(tmp_path / "panel.csv"),
                                                sc.BacktestPlan.from_json(plan))[0]
        return tmp_path / "plan.json", first_origin

    def test_non_finite_forecast_is_data_error(self, tmp_path, capsys):
        """The run names the first arm and origin and writes nothing, instead
        of ``inf`` scores; numpy's overflow warning is not printed above it."""
        plan_path, first_origin = self._overflowing_plan(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["backtest", "--plan", str(plan_path), "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == (f"data error: arm E3.5 at origin {first_origin}: "
                                           "a forecast is not finite\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_a_failing_grid_starts_no_later_job(self, tmp_path, capsys, monkeypatch, threads):
        """E3.5, the first model group, fails at the first of 2 origins: a job
        already running may finish its fit, but no later fit starts, and the
        error is the same at any thread count, also with more helper threads
        than origins."""
        plan_path, first_origin = self._overflowing_plan(tmp_path)
        fits = []
        real_fit = backtest.fit
        monkeypatch.setattr(backtest, "fit", lambda *a: fits.append(1) or real_fit(*a))
        monkeypatch.setenv("SKEWCAST_THREADS", threads)
        assert main(["backtest", "--plan", str(plan_path),
                     "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (f"data error: arm E3.5 at origin {first_origin}: "
                                           "a forecast is not finite\n")
        assert len(fits) <= 2 * int(threads)

    @pytest.mark.parametrize("command, the_input, name", [
        ("backtest", "--plan", "report.json"),
        ("backtest", "panel_path", "metrics.csv"),
        ("ladder", "panel_path", "ladder.csv"),
        ("sweep", "gen_config_path", "sweep.csv"),
        ("sweep", "panel_path-link", "metrics.csv"),
    ])
    def test_an_output_on_an_input_file_is_config_error(self, workdir, tmp_path, capsys,
                                                        monkeypatch, command, the_input, name):
        """A study that would write one of its files over its plan, panel or
        generator config is refused before the grid runs, also through a
        symbolic link, and the input keeps its bytes."""
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        inputs = {"--plan": tmp_path / "plan.json", "panel_path": tmp_path / "panel.csv",
                  "gen_config_path": tmp_path / "gen.json"}
        output = out_dir / name
        if the_input == "panel_path-link":
            output.symlink_to(inputs["panel_path"])
        else:
            inputs[the_input] = output
        inputs["panel_path"].write_bytes((workdir / "panel.csv").read_bytes())
        inputs["gen_config_path"].write_bytes((workdir / "gen.json").read_bytes())
        inputs["--plan"].write_text(json.dumps(_plan(
            workdir, panel_path=str(inputs["panel_path"]),
            gen_config_path=str(inputs["gen_config_path"]))), encoding="utf-8")
        before = {option: path.read_bytes() for option, path in inputs.items()}
        fits = []
        real_fit = backtest.fit
        monkeypatch.setattr(backtest, "fit", lambda *a: fits.append(1) or real_fit(*a))
        assert main([command, "--plan", str(inputs["--plan"]), "--out-dir", str(out_dir)]) == 2
        named = "panel_path" if the_input == "panel_path-link" else the_input
        assert capsys.readouterr().err == (f"config error: --out-dir {output} is the "
                                           f"{named} {inputs[named]} file\n")
        assert {option: path.read_bytes() for option, path in inputs.items()} == before
        assert fits == []
        assert [p.name for p in out_dir.iterdir()] == [name]

    def test_unbounded_rounds_are_config_error(self, workdir):
        """A billion rounds would run for days; the plan is refused at once."""
        plan_path = workdir / "rounds_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir, learner={"base": "linear",
                                                                "rounds": 10**9})),
                             encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "skewcast.cli", "backtest",
                               "--plan", str(plan_path), "--out-dir", str(workdir / "rounds")],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert proc.stderr == "config error: rounds must be at most 100,000, got 1000000000\n"

    @pytest.mark.parametrize("edit", [{"n_versions": 1.5}, {"train_window_days": 90.5},
                                      {"horizons": [6.0]}, {"horizons": [6, 6]},
                                      {"arms": "E4"}, {"horizons": 6}],
                             ids=["n_versions", "train_window_days", "horizons",
                                  "repeated-horizon", "arms-text", "horizons-number"])
    def test_mistyped_plan_is_config_error(self, workdir, edit):
        plan_path = workdir / "typed_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir, **edit)), encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "typed_out"))
        assert proc.returncode == 2
        assert f"config error: {next(iter(edit))}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workdir / "typed_out").exists()

    @pytest.mark.parametrize("edit,field", [
        ({"seed": 0}, "seed"),
        ({"cadence_days": 7}, "cadence_days"),
        ({"learner": {**LEARNER_CFG, "subsample": 1.0}}, "subsample"),
        ({"learner": {**LEARNER_CFG, "seed": 0}}, "seed"),
    ], ids=["plan-seed", "plan-cadence_days", "learner-subsample", "learner-seed"])
    def test_retired_plan_field_is_config_error(self, workdir, edit, field):
        plan_path = workdir / "retired_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir, **edit)), encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "retired_out"))
        assert proc.returncode == 2
        assert f"unknown field '{field}'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workdir / "retired_out").exists()

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

    @pytest.mark.parametrize("scheme, named", [
        ({"kind": "power", "alpha": 0.75}, "weight scheme JSON has unknown field 'alpha'"),
        ({"kind": "power"}, "unknown weight scheme 'power'"),
    ], ids=["alpha", "power"])
    def test_retired_power_weights_are_config_error(self, workdir, scheme, named):
        arm = {**sc.arm_by_id("E4").to_json(), "id": "MINE", "weight_scheme": scheme}
        plan_path = workdir / "power_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir, arms=["E5", arm])), encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "power_out"))
        assert proc.returncode == 2
        assert f"config error: {named}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workdir / "power_out").exists()

    @pytest.mark.parametrize("command,field,value", [
        ("backtest", "panel_path", 0), ("backtest", "panel_path", True),
        ("sweep", "gen_config_path", []), ("ladder", "baseline_id", 5),
        ("sweep", "baseline_id", 5),
    ], ids=["panel-path-zero", "panel-path-true", "gen-config-path-list",
            "ladder-baseline-number", "sweep-baseline-number"])
    def test_non_text_plan_field_is_config_error(self, workdir, command, field, value):
        """A plan's paths and ids are text: ``panel_path`` 0 is no file
        descriptor, so the panel CSV on stdin is never read."""
        plan_path = workdir / "text_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir, **{field: value})), encoding="utf-8")
        proc = run_cli(command, "--plan", str(plan_path), "--out-dir", str(workdir / "text_out"),
                       stdin=(workdir / "panel.csv").read_text(encoding="utf-8"))
        assert proc.returncode == 2
        assert proc.stderr == (f"config error: {field} must be text, "
                               f"got {type(value).__name__}\n")
        assert not (workdir / "text_out").exists()

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
        assert not (workdir / "gamma_out").exists()

    def test_too_short_history_is_data_error(self, workdir):
        plan_path = workdir / "short_plan.json"
        plan_path.write_text(
            json.dumps(_plan(workdir, train_window_days=720)), encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "nope2"))
        assert proc.returncode == 3
        assert not (workdir / "nope2").exists()

    @pytest.mark.parametrize("case, command", [
        ("header-only", "backtest"), ("near-date-min", "backtest"), ("long-window", "backtest"),
        ("many-versions", "backtest"), ("many-versions", "ladder"), ("header-only", "sweep"),
    ])
    def test_history_outside_the_calendar_is_data_error(self, workdir, case, command):
        """Each case once overflowed the calendar and ended in a traceback."""
        panel_path, edit = workdir / "panel.csv", {}
        if case == "header-only":
            panel_path = workdir / "header_only_panel.csv"
            panel_path.write_text("item_id,day,sales,f\n", encoding="utf-8")
        elif case == "near-date-min":  # 60 days from 0001-01-01, a 24-week horizon
            panel_path = workdir / "early_panel.csv"
            rows = [f"item_a,{dt.date.min + dt.timedelta(d)},1.0,0.5" for d in range(60)]
            panel_path.write_text("\n".join(["item_id,day,sales,f", *rows]) + "\n",
                                  encoding="utf-8")
            edit = {"horizons": [24]}
        elif case == "long-window":
            edit = {"train_window_days": 1_000_000}
        else:
            edit = {"n_versions": 200_000}
        plan_path = workdir / f"calendar_{case}.json"
        plan_path.write_text(json.dumps(_plan(workdir, **{"panel_path": str(panel_path),
                                                          **edit})), encoding="utf-8")
        proc = run_cli(command, "--plan", str(plan_path),
                       "--out-dir", str(workdir / f"calendar_{case}_out"))
        assert proc.returncode == 3
        if case == "header-only":
            assert "data error: panel has no rows" in proc.stderr
        else:
            assert "data error: panel starts " in proc.stderr
            assert "days of history" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workdir / f"calendar_{case}_out").exists()

    def test_feature_named_as_a_panel_column_is_data_error(self, workdir):
        """Such a panel was read with features ``sales`` and ``day``, and
        ``write_panel`` wrote it back with repeated column names."""
        panel_path = workdir / "column_named_panel.csv"
        panel_path.write_text("item_id,day,sales,sales,day\nitem_a,2020-01-01,1.0,0.5,0.5\n",
                              encoding="utf-8")
        plan_path = workdir / "column_named_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir, panel_path=str(panel_path))),
                             encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(plan_path),
                       "--out-dir", str(workdir / "column_named_out"))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("data error: line 1: feature name 'sales' is the name of "
                               "a panel column\n")
        assert not (workdir / "column_named_out").exists()


class TestTrendCommands:
    def test_ladder(self, workdir):
        plan_path = workdir / "ladder_plan.json"
        plan_path.write_text(json.dumps(_plan(workdir)), encoding="utf-8")
        out_dir = workdir / "ladder_out"
        proc = run_cli("ladder", "--plan", str(plan_path),
                       "--out-dir", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote ladder.csv, metrics.csv and report.json to {out_dir}\n"
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
        assert proc.stdout == f"wrote sweep.csv, metrics.csv and report.json to {out_dir}\n"
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
        # the default losses: squared error and the sweep's Tweedie powers
        assert lines[0].split(",") == ["mu", "mse",
                                       *(sc.LossSpec.tweedie(p).label() for p in SWEEP_POWERS)]
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

    @pytest.mark.parametrize("argv,named", [
        (["--losses", "tweedie:abc"], "--losses tweedie power"),
        (["--losses", "pseudo_huber:x"], "--losses pseudo_huber delta"),
        (["--losses", "tweedie:nan"], "--losses tweedie power"),
        (["--losses", "tweedie"], "--losses: tweedie needs a power"),
        (["--losses", "mse,mse:3"], "--losses: mse takes no parameter, got 'mse:3'"),
        (["--losses", "poisson:x"], "--losses: poisson takes no parameter, got 'poisson:x'"),
        (["--losses", "gamma:1,mse"], "--losses: gamma takes no parameter, got 'gamma:1'"),
        (["--grid", "0:nan:1"], "--grid stop"),
        (["--grid", "inf:1:1"], "--grid start"),
        (["--grid", "0:1:-inf"], "--grid step"),
        (["--grid", "0:1e300:1e-300"], "--grid"),
        (["--grid", "0:1000000:1"], "--grid"),
        (["--actual", "nan"], "--actual"),
        (["--actual", "inf"], "--actual"),
    ], ids=["text-power", "text-delta", "nan-power", "no-power", "mse-value", "poisson-value",
            "gamma-value", "nan-stop", "infinite-start",
            "infinite-step", "tiny-step", "one-point-too-many", "nan-actual", "inf-actual"])
    def test_bad_argument_is_named_config_error(self, tmp_path, argv, named):
        """Each grid here holds more points than the cap, so none is allocated."""
        out = tmp_path / "c.csv"
        proc = run_cli("convexity", *argv, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"config error: {named}")
        assert not out.exists()


class TestLossTokens:
    """``--losses`` tokens, parsed in-process."""

    def test_every_loss_kind_parses(self):
        tokens = [f"{kind}:1.5" if kind == "tweedie" else kind for kind in _LOSS_KINDS]
        assert [spec.kind for spec in _parse_losses(",".join(tokens))] == list(_LOSS_KINDS)

    def test_parameters_and_their_defaults(self):
        assert _parse_losses("pseudo_huber") == [sc.LossSpec.pseudo_huber()]
        assert _parse_losses(" pseudo_huber:2 ,tweedie:1.4") == [sc.LossSpec.pseudo_huber(2.0),
                                                                 sc.LossSpec.tweedie(1.4)]


def test_subcommands_in_order():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "{gen,fit,backtest,ladder,sweep,convexity}" in proc.stdout


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
        assert f"data error: cannot create output directory {afile / 'sub'}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("under", ["afile", "missing-under-afile"])
    def test_grid_out_dir_fails_before_the_first_fit(self, workdir, afile, monkeypatch,
                                                     capsys, under):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the output directory was checked")

        monkeypatch.setattr(backtest, "fit", no_fit)
        out_dir = afile if under == "afile" else afile / "missing" / "sub"
        assert main(["backtest", "--plan", str(workdir / "io_plan.json"),
                     "--out-dir", str(out_dir)]) == 3
        assert f"cannot create output directory {out_dir}" in capsys.readouterr().err

    def test_fit_report(self, workdir, afile):
        proc = run_cli("fit", "--panel", str(workdir / "panel.csv"),
                       "--arm", "E4", "--model-out", str(workdir / "io_model.json"),
                       "--learner", str(workdir / "learner.json"),
                       "--report", str(afile / "pairs.csv"))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert f"cannot write {afile / 'pairs.csv'}" in proc.stderr
        assert not (workdir / "io_model.json").exists()  # checked before the fit

    def test_fit_model_out_in_missing_directory(self, workdir):
        model_out = workdir / "no_such_dir" / "m.json"
        proc = run_cli("fit", "--panel", str(workdir / "no_such_panel.csv"),
                       "--arm", "E4", "--model-out", str(model_out))
        assert proc.returncode == 3
        assert f"cannot write {model_out}" in proc.stderr  # before the panel is read
        assert "Traceback" not in proc.stderr

    def test_convexity_out(self, afile):
        proc = run_cli("convexity", "--out", str(afile / "curves.csv"))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command,work", [("gen", "generate"),
                                              ("convexity", "convexity_profile")])
    @pytest.mark.parametrize("under", ["afile", "missing-dir"])
    def test_out_is_checked_before_the_work(self, workdir, afile, monkeypatch, capsys,
                                            command, work, under):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(cli, work, no_work)
        out = afile / "p.csv" if under == "afile" else workdir / "no_such_dir" / "p.csv"
        argv = ["--config", str(workdir / "gen.json")] if command == "gen" else []
        assert main([command, *argv, "--out", str(out)]) == 3
        assert f"data error: cannot write {out}" in capsys.readouterr().err


class TestUnreadableJson:
    """A JSON input that is not UTF-8, nests too deeply or holds a number
    too long to parse is a config error (exit 2) naming its file, not a
    traceback."""

    @pytest.fixture(scope="class")
    def utf16(self, workdir):
        path = workdir / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(_plan(workdir)).encode("utf-16-le"))
        return path

    @pytest.mark.parametrize("args,what", [
        (["gen", "--config", "{path}", "--out", "{dir}/x.csv"], "generator config"),
        (["fit", "--panel", "{dir}/panel.csv", "--arm", "{path}", "--model-out", "{dir}/m.json"],
         "arm"),
        (["fit", "--panel", "{dir}/panel.csv", "--arm", "E4", "--model-out", "{dir}/m.json",
          "--learner", "{path}"], "learner config"),
        (["backtest", "--plan", "{path}", "--out-dir", "{dir}/utf16_out"], "plan"),
    ], ids=["gen-config", "arm", "learner", "plan"])
    def test_non_utf8_file(self, workdir, utf16, args, what):
        proc = run_cli(*(a.format(path=utf16, dir=workdir) for a in args))
        assert proc.returncode == 2
        assert f"config error: cannot read {what} {utf16}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_deeply_nested_plan(self, workdir):
        path = workdir / "nested_plan.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(path), "--out-dir", str(workdir / "nested_out"))
        assert proc.returncode == 2
        assert f"config error: plan {path} nests too deeply to parse" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_integer_of_too_many_digits(self, workdir):
        """Python parses at most 4,300 digits of an integer by default."""
        path = workdir / "long_int_plan.json"
        path.write_text('{"train_window_days": ' + "9" * 5000 + "}", encoding="utf-8")
        proc = run_cli("backtest", "--plan", str(path), "--out-dir", str(workdir / "long_out"))
        assert proc.returncode == 2
        assert f"config error: plan {path} is not valid JSON" in proc.stderr
        assert "Traceback" not in proc.stderr
