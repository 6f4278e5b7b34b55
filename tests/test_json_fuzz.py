"""Fuzzed JSON inputs: every field path of a valid plan, arm, learner
config, generator config and model takes each of a set of hostile values.

Only a ``ConfigError`` or ``DataError`` may escape a loader, and a field
that holds a number must reject text, bools and non-finite values.  The
loaders only parse: nothing here generates a panel or fits a model.
"""

import copy
import math

import pytest

import skewcast as sc
from skewcast.errors import ConfigError, DataError

HOSTILE = [None, True, False, "x", "1.5", [], {}, [[1]], 1, -1, 0, 10**400, 2**70,
           math.nan, math.inf, -math.inf]
NOT_NUMBERS = [True, False, "x", "1.5", math.nan, math.inf, -math.inf]

TWEEDIE_ARM = {
    "id": "T",
    "transform": {"kind": "log"},
    "loss": {"kind": "tweedie", "power": 1.5},
    "weight_scheme": {"kind": "sqrt_sales"},
    "corrector_kind": "smearing",
}
HUBER_ARM = {
    "id": "H",
    "transform": {"kind": "identity"},
    "loss": {"kind": "pseudo_huber", "delta": 2.0},
    "weight_scheme": {"kind": "unit"},
}
LEARNER = {"base": "tree", "rounds": 3, "learning_rate": 0.1, "max_depth": 2,
           "min_child_weight": 1.0, "l2_reg": 1.0}
PLAN = {
    "panel_path": "panel.csv",
    "train_window_days": 365,
    "n_versions": 2,
    "horizons": [6, 12],
    "arms": ["E1", "E4-PB", TWEEDIE_ARM, HUBER_ARM],
    "baseline_id": "E1",
    "learner": LEARNER,
    "gen_config_path": "gen.json",
}
TREE_MODEL = {
    "version": sc.MODEL_FORMAT,
    "transform": {"kind": "log"},
    "loss": {"kind": "mse"},
    "weight_scheme": {"kind": "sqrt_sales"},
    "learner": LEARNER,
    "feature_names": ["f0", "f1"],
    "base_score": 1.5,
    "trees": [{"feature": [1, -1, -1], "threshold": [0.5, 0.0, 0.0],
               "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, -0.25, 0.25]}],
    "betas": [],
    "training_loss": [0.5, 0.25],
    "bias_corrector": {"kind": "prediction_binned", "factor": 1.1, "bin_factors": [1.05, 1.2]},
}
LINEAR_MODEL = {
    **TREE_MODEL,
    "loss": {"kind": "gamma"},
    "learner": {**LEARNER, "base": "linear"},
    "trees": [],
    "betas": [[0.1, -0.2, 1.0], [0.0, 0.5, -1]],
    "bias_corrector": {"kind": "variance_based", "factor": 1.2},
}

DOCUMENTS = {
    "plan": (sc.BacktestPlan.from_json, PLAN),
    "arm": (sc.ExperimentArm.from_json, TWEEDIE_ARM),
    "learner": (sc.LearnerConfig.from_json, LEARNER),
    "generator": (sc.GenConfig.from_json, sc.GenConfig().to_json()),
    "tree-model": (sc.FitModel.from_json, TREE_MODEL),
    "linear-model": (sc.FitModel.from_json, LINEAR_MODEL),
}


def _paths(obj, prefix=()):
    """The path to every value inside ``obj``, containers included."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


def _with(obj, path, value):
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_fuzzed_fields_fail_only_as_config_or_data_errors(name):
    load, doc = DOCUMENTS[name]
    load(copy.deepcopy(doc))  # the document itself is valid
    problems = []
    for path, original in _paths(doc):
        for value in HOSTILE:
            try:
                load(_with(doc, path, value))
            except (ConfigError, DataError):
                continue
            except Exception as exc:  # what escapes is the finding
                problems.append(f"{path} = {value!r}: raw {type(exc).__name__}: {exc}")
                continue
            if _is_number(original) and any(value is v for v in NOT_NUMBERS):
                problems.append(f"{path} = {value!r} was accepted for a number")
    assert problems == []


@pytest.mark.parametrize("load,doc,path,value,field", [
    (sc.FitModel.from_json, TREE_MODEL, ("base_score",), math.nan, "base_score"),
    (sc.FitModel.from_json, TREE_MODEL, ("base_score",), "1.5", "base_score"),
    (sc.FitModel.from_json, TREE_MODEL, ("training_loss", 1), math.nan, "training_loss"),
    (sc.FitModel.from_json, TREE_MODEL, ("trees", 0, "threshold", 0), "1.5", "tree threshold"),
    (sc.FitModel.from_json, TREE_MODEL, ("trees", 0, "value", 1), True, "tree value"),
    (sc.FitModel.from_json, TREE_MODEL, ("trees", 0, "left", 0), 1.0, "tree left"),
    (sc.FitModel.from_json, LINEAR_MODEL, ("betas", 0, 0), "1.5", "betas"),
    (sc.BiasCorrector.from_json, TREE_MODEL["bias_corrector"], ("factor",), "2", "factor"),
    (sc.BiasCorrector.from_json, TREE_MODEL["bias_corrector"], ("factor",), True, "factor"),
    (sc.BiasCorrector.from_json, TREE_MODEL["bias_corrector"], ("bin_factors",), ["1.5", True],
     "bin_factors"),
    (sc.GenConfig.from_json, {"spike_days": [[170, 3.0]]}, ("spike_days", 0, 0), True,
     "spike_days"),
    (sc.GenConfig.from_json, {"spike_days": [[170, 3.0]]}, ("spike_days", 0, 1), "4",
     "spike_days"),
], ids=["nan-base-score", "text-base-score", "nan-training-loss", "text-threshold",
        "bool-value", "float-child", "text-beta", "text-factor", "bool-factor",
        "text-bin-factors", "bool-spike-day", "text-spike-multiplier"])
def test_rejected_number_names_its_field(load, doc, path, value, field):
    load(copy.deepcopy(doc))  # the document itself is valid
    with pytest.raises(ConfigError, match=field):
        load(_with(doc, path, value))


@pytest.mark.parametrize("path", [("feature_names",), ("feature_names", 1)], ids=["list", "name"])
@pytest.mark.parametrize("doc", [TREE_MODEL, LINEAR_MODEL], ids=["tree", "linear"])
def test_feature_names_must_be_a_list_of_strings(doc, path):
    for value in HOSTILE + ["f0f1"]:
        # these leave a list of strings (an empty one fails on the trees or betas)
        if (value == [] if path == ("feature_names",) else isinstance(value, str)):
            continue
        with pytest.raises(ConfigError, match="feature_names"):
            sc.FitModel.from_json(_with(doc, path, value))
