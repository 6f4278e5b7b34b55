"""Output bytes that a refactor must keep, pinned by their SHA-256.

``bench/reference.json`` pins the two benchmark grids.  This pins the
panel CSV that ``write_panel`` writes for a small generator config, and
the rest of what the command line writes from a fitted model: the saved
model, the summary line and the pairs CSV of ``skewcast fit`` for the
log-target arm and its three corrected variants, with a tree and a
linear learner, and the ``backtest``, ``ladder`` and ``sweep`` outputs
of a small plan.  Other numpy builds may round differently, so the
hashes are checked only under the numpy that ``bench/reference.json``
names.

A change that means to move some of these bytes updates the hashes it
moves, and the diff shows which outputs those are.
"""

import hashlib
import json
import os

import numpy as np
import pytest

import skewcast as sc
from skewcast.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "bench", "reference.json"), encoding="utf-8") as _fh:
    REFERENCE_NUMPY = json.load(_fh)["numpy"]

pytestmark = pytest.mark.skipif(np.__version__ != REFERENCE_NUMPY,
                                reason=f"hashes were taken under numpy {REFERENCE_NUMPY}")

GEN = sc.GenConfig(n_items=12, n_days=220, seed=977)

PANEL_PIN = "3d5f1593c59215cd20ba87ae2857b20862b7b32eb2da261eb485f51a50d7eb61"

LEARNERS = {
    "tree": {"rounds": 8, "max_depth": 3},
    "linear": {"base": "linear", "rounds": 8},
}

PLAN = {
    "train_window_days": 120,
    "n_versions": 2,
    "horizons": [6, 12],
    "learner": LEARNERS["tree"],
}

# (model JSON, summary line, pairs CSV) of each arm and learner
FIT_PINS = {
    ("E4", "linear"): (
        "d626973137ddf731ffe3bbea0e80172267f2b968b9b661a2e71214f1ea0578a2",
        "f67941fcf6aa6df0f9eca46cc35eec7319a3c6f142b732f047c3dc4e2797c57a",
        "515768cf830f2a18888b5c7c8e795f39ce61818f04b76811827e961464ac9d72",
    ),
    ("E4", "tree"): (
        "4d7856fc63c63a1295cc7d864f172d0e6e4d30b7ecc6bf34c6cf4fa0ccb42dbf",
        "5dcfc3ff8ddf8a9ad23b53b1fe8bb19b21a29d3427a0e1b0400387d5bc308522",
        "c568ba5119c333047a20a722fbb8dc2835a1608a7df162dec7b9cebb6ac6f23e",
    ),
    ("E4-S", "linear"): (
        "ddfb3fb3614d246cdc2ba271818f2dc516f67d00e3ea70342cdbe85060628dce",
        "8c5d9e3bf5c4bb7175c1e21efc150be1fa95f7823476917c6cde36f3dec0adde",
        "ed20485bc964a98863099b3e35763ef403734af812b7ae51a142b64f03cd645b",
    ),
    ("E4-S", "tree"): (
        "c02bb3a86f1c4b5b30e42d387b19632e270556a3df3c121d1cae0dbf8b29a214",
        "b10de6e18fa508d7b0916a5d9674c2c6ecff0aa596e0025d8d733a299991956e",
        "0082a045d561cb66c8d5d0c1db4d77d86ce1aeca8d388f636d23791626d10d7a",
    ),
    ("E4-V", "linear"): (
        "9e2349525c3fe99126ad83d79771c1c734026aa17734c54fae9075f070bb375a",
        "25073ced88a5ddf435d6ff1bd8fb1595ffce822e2a8e1b3d1519a4ad96458b4e",
        "ac7b586efd801bd3cb4cfe6d88fcf72d58a50e598fb98d3cf1fdb787f7431529",
    ),
    ("E4-V", "tree"): (
        "d85abe84b8398bbfd0446c4225fa66197895c078d7b04dcf78d387de95da6517",
        "ca5d4ba3985a970bc4b69eab5a108ccfbe3a548e908794cbccf393c43c8b3dcd",
        "5cc95248edf5bf498f46cb11dff847ce851dfc582f571ecb556fac94a5fda032",
    ),
    ("E4-PB", "linear"): (
        "fb1b90535dcafc5f90d7555c8d3dc5d446a7cbd13129b8a056ed7e2d8be36267",
        "d68d37513ca5cc97bb53d687480dde77a0677d2770deb0fed8110a9e30cd457e",
        "f661d85840dc785cd3ce73c0b8383739b4fbca88ce14a20678ca5ac6e001e065",
    ),
    ("E4-PB", "tree"): (
        "7e82c63fa47915bb8b53d7d93930ba850d2abc15048fc6aa16884f92a1c3970e",
        "e732a9f3c5183b501619b070e348f9fa60d71e0608f4036560194de46f8667b3",
        "a07f067dc53d429d659e6d4e39c430fd1e94516751018150e0e792318d9f9fc3",
    ),
}

GRID_PINS = {
    "backtest": {
        "metrics.csv": "01322e7dec7b579569b5ee4a574455fa7d950cce6c6e36a90962a6d4a83e6336",
        "report.json": "a8e22009e9b27a0f418ab5f2557701db26d15fcae50b531d96f41fc88dd72197",
    },
    "ladder": {
        "ladder.csv": "94e7db6d93161373f4918c3bf2f575e6de25d14aa8bed9bd180a542f0f26bb50",
        "metrics.csv": "5a74fdc72def14fc57e73dadcb5168d616203a014e22bbbcccd056c9fb2a455e",
        "report.json": "a13deac9d6581dd3bbd57d2c8c63ccee9799b3feae00a0bf228c98ae3e7e060c",
    },
    "sweep": {
        "sweep.csv": "06bfc6ebd55e7ff058fe5e01f402da93ad6d11f08877befabe5ad8a608332a61",
        "metrics.csv": "72d6e20885ad8079040bae21191aec97392621bdc987d284eca9fd6a98b775b0",
        "report.json": "2abb66eb7d3ebd62a827599fbace3ab917225dcc7ebe151c52c4917f040af9d2",
    },
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    (root / "gen.json").write_text(json.dumps(GEN.to_json()), encoding="utf-8")
    sc.write_panel(sc.generate(GEN), root / "panel.csv")
    for name, learner in LEARNERS.items():
        (root / f"{name}.json").write_text(json.dumps(learner), encoding="utf-8")
    return root


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_panel_csv_keeps_its_bytes(workdir):
    assert _sha((workdir / "panel.csv").read_bytes()) == PANEL_PIN


@pytest.mark.parametrize("learner", sorted(LEARNERS))
@pytest.mark.parametrize("arm_id", ["E4", "E4-S", "E4-V", "E4-PB"])
def test_fit_outputs_keep_their_bytes(workdir, capsys, arm_id, learner):
    out = workdir / f"fit-{arm_id}-{learner}"
    out.mkdir()
    assert main(["fit", "--panel", str(workdir / "panel.csv"), "--arm", arm_id,
                 "--learner", str(workdir / f"{learner}.json"),
                 "--model-out", str(out / "model.json"),
                 "--report", str(out / "pairs.csv")]) == 0
    got = (_sha((out / "model.json").read_bytes()),
           _sha(capsys.readouterr().out.encode("utf-8")),
           _sha((out / "pairs.csv").read_bytes()))
    assert got == FIT_PINS[arm_id, learner]


@pytest.mark.parametrize("command,arms,files", [
    ("backtest", ["E4", "E4-S", "E4-V", "E4-PB", "E5"], ["metrics.csv", "report.json"]),
    ("ladder", ["E5"], ["ladder.csv", "metrics.csv", "report.json"]),
    ("sweep", ["E5"], ["sweep.csv", "metrics.csv", "report.json"]),
])
def test_grid_outputs_keep_their_bytes(workdir, capsys, command, arms, files):
    plan = {**PLAN, "panel_path": str(workdir / "panel.csv"), "arms": arms,
            "baseline_id": "E5", "gen_config_path": str(workdir / "gen.json")}
    (workdir / f"{command}.json").write_text(json.dumps(plan), encoding="utf-8")
    out = workdir / command
    assert main([command, "--plan", str(workdir / f"{command}.json"),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    got = {name: _sha((out / name).read_bytes()) for name in files}
    assert got == GRID_PINS[command]
