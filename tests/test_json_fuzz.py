"""Fuzzed JSON inputs: every field path of a valid plan, arm, learner
config, generator config, model and model part (transform, loss, weight
scheme, corrector), and each document as a whole, takes each of a set of
hostile values.

Only a ``ConfigError`` or ``DataError`` may escape a loader, a field that
holds a number must reject text, bools and non-finite values, and a field
that holds text must reject every value that is not text.  Every field
of every record, found by walking ``JsonRecord``'s subclasses, rejects a
value of the wrong type with the same error whether the record is built
in code or read from JSON.  The loaders only parse: nothing here
generates a panel or fits a model.
"""

import copy
import dataclasses
import math
import typing

import numpy as np
import pytest

import skewcast as sc
from skewcast.errors import ConfigError, DataError, IntArray, JsonRecord
from skewcast.trees import Tree

HOSTILE = [None, True, False, "x", "1.5", [], {}, [[1]], 1, -1, 0, 10**400, 2**70,
           math.nan, math.inf, -math.inf]
NOT_NUMBERS = [True, False, "x", "1.5", math.nan, math.inf, -math.inf]
# text fields that may also be null
NULLABLE = {("panel_path",), ("gen_config_path",)}

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
    "learner": {**LEARNER, "rounds": 1},  # one tree, and a loss before and after it
    "feature_names": ["f0", "f1"],
    "base_score": 1.5,
    "trees": [{"feature": [1, -1, -1], "threshold": [0.5, 0.0, 0.0],
               "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, -0.25, 0.25]}],
    "betas": [],
    "training_loss": [0.5, 0.25],
    "bias_corrector": {"kind": "prediction_binned", "factors": [1.05, 1.2]},
}
LINEAR_MODEL = {
    **TREE_MODEL,
    "loss": {"kind": "gamma"},
    "learner": {**LEARNER, "base": "linear", "rounds": 2},
    "trees": [],
    "betas": [[0.1, -0.2, 1.0], [0.0, 0.5, -1]],
    "training_loss": [0.5, 0.25, 0.125],
    "bias_corrector": {"kind": "variance_based", "factors": [1.2]},
}

DOCUMENTS = {
    "plan": (sc.BacktestPlan.from_json, PLAN),
    "arm": (sc.ExperimentArm.from_json, TWEEDIE_ARM),
    "learner": (sc.LearnerConfig.from_json, LEARNER),
    "generator": (sc.GenConfig.from_json, sc.GenConfig().to_json()),
    "tree-model": (sc.FitModel.from_json, TREE_MODEL),
    "linear-model": (sc.FitModel.from_json, LINEAR_MODEL),
    "transform": (sc.TargetTransform.from_json, {"kind": "log"}),
    "loss": (sc.LossSpec.from_json, {"kind": "pseudo_huber", "delta": 2.0}),
    "weights": (sc.WeightScheme.from_json, {"kind": "sqrt_sales"}),
    "corrector": (sc.BiasCorrector.from_json, TREE_MODEL["bias_corrector"]),
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
    """A copy of ``obj`` with ``value`` at ``path``; the empty path replaces it whole."""
    if not path:
        return copy.deepcopy(value)
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
    for path, original in [((), doc), *_paths(doc)]:
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
            if isinstance(original, str) and not isinstance(value, str) and not (
                    value is None and path in NULLABLE):
                problems.append(f"{path} = {value!r} was accepted for text")
    assert problems == []


def _records(cls=JsonRecord):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


RECORDS = sorted(_records(), key=lambda cls: cls.__name__)


# one valid document of each record class
VALID = {load.__self__: doc for load, doc in DOCUMENTS.values()} | {Tree: TREE_MODEL["trees"][0]}


def test_every_config_and_model_class_is_a_record():
    """Each record the walk finds has a valid document, so a new record is
    fuzzed here and its every field checked below."""
    assert set(RECORDS) == set(VALID)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_is_frozen(cls):
    """A record is checked whole when it is built, so no field may change afterwards."""
    assert cls.__dataclass_params__.frozen


def _as_given(value):
    """``value`` as a caller may pass it in code: a tuple as a list, an array writable."""
    if isinstance(value, tuple):
        return [_as_given(v) for v in value]
    return value.copy() if isinstance(value, np.ndarray) else value


def _change(given) -> None:
    """Change in place every list and array that ``_as_given`` made."""
    if isinstance(given, list):
        for item in given:
            _change(item)
        given.append(given[0] if given else 0)
    elif isinstance(given, np.ndarray):
        given += 1


def _held_fixed(value) -> bool:
    """Nothing in ``value`` can change in place: tuples and read-only arrays all the way down."""
    if isinstance(value, tuple):
        return all(map(_held_fixed, value))
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    return not isinstance(value, (list, dict))


@pytest.mark.parametrize("cls,name", [(cls, name) for cls in RECORDS
                                      for name, kind in typing.get_type_hints(cls).items()
                                      if typing.get_origin(kind) is tuple
                                      or kind in (np.ndarray, IntArray)],
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_a_record_holds_no_value_its_caller_can_change(cls, name):
    """A record stores a list given in code as a tuple and a writable array
    as a read-only copy, so its caller cannot change it after its checks."""
    record = cls.from_json(copy.deepcopy(VALID[cls]))
    assert _held_fixed(getattr(record, name))
    given = _as_given(getattr(record, name))
    built = dataclasses.replace(record, **{name: given})
    assert _held_fixed(getattr(built, name))
    _change(given)
    assert built.to_json() == record.to_json()


def test_a_plan_keeps_the_horizons_it_was_given():
    """A changed list once changed the plan, which its own JSON then refused."""
    horizons = [6, 12]
    plan = sc.BacktestPlan(horizons=horizons)
    horizons.append(-3)
    assert plan.horizons == (6, 12)
    assert sc.BacktestPlan.from_json(plan.to_json()) == plan


def test_a_read_only_array_is_held_as_it_is_and_a_writable_one_copied():
    arrays = {name: np.array(value) for name, value in TREE_MODEL["trees"][0].items()}
    arrays["value"].flags.writeable = False
    tree = Tree(**arrays)
    assert tree.value is arrays["value"]
    assert tree.threshold is not arrays["threshold"]
    arrays["threshold"][0] = 9.0
    assert tree.threshold.tolist() == [0.5, 0.0, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        tree.threshold[0] = 9.0


def _wrong_value(kind):
    """A JSON value of the wrong type for a field declared ``kind``: text
    where a number fits, else a number."""
    return "3" if {int, float} & {kind, *typing.get_args(kind)} else 3


@pytest.mark.parametrize("cls,name", [(cls, f.name) for cls in RECORDS
                                      for f in dataclasses.fields(cls)],
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_wrong_type_is_the_same_error_in_code_and_json(cls, name):
    """A record built in code passes the type rule its JSON reader applies."""
    doc = VALID[cls]
    value = _wrong_value(typing.get_type_hints(cls)[name])
    with pytest.raises(ConfigError, match=f"^{name} must be ") as in_code:
        dataclasses.replace(cls.from_json(copy.deepcopy(doc)), **{name: value})
    with pytest.raises(ConfigError) as in_json:
        cls.from_json({**copy.deepcopy(doc), name: value})
    assert str(in_json.value) == str(in_code.value)


@pytest.mark.parametrize("make,message", [
    (lambda: sc.BacktestPlan(panel_path=0), "panel_path must be text, got int"),
    (lambda: sc.BacktestPlan(baseline_id=5), "baseline_id must be text, got int"),
    (lambda: sc.BacktestPlan(learner=3), "learner must be an object, got int"),
    (lambda: sc.BacktestPlan(arms=("E4",)), "arms must be an object, got str"),
    (lambda: sc.LossSpec("tweedie", power="1.5"), "power must be a finite number, got str"),
    (lambda: sc.BiasCorrector("smearing", (True,)), "factors must be a finite number, got bool"),
], ids=["panel-path-zero", "baseline-number", "learner-number", "arm-id", "text-power",
        "bool-factor"])
def test_record_built_in_code_is_type_checked(make, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_annotations_resolve(cls):
    """The reader reads each field by its evaluated annotation, so one it
    cannot evaluate on this Python fails here, not at a user's first load."""
    hints = typing.get_type_hints(cls)
    assert {f.name for f in dataclasses.fields(cls)} <= set(hints)
    assert isinstance(cls.JSON_NAME, str)


@pytest.mark.parametrize("load,doc,path,value,field", [
    (sc.FitModel.from_json, TREE_MODEL, ("base_score",), math.nan, "base_score"),
    (sc.FitModel.from_json, TREE_MODEL, ("base_score",), "1.5", "base_score"),
    (sc.FitModel.from_json, TREE_MODEL, ("training_loss", 1), math.nan, "training_loss"),
    (sc.FitModel.from_json, TREE_MODEL, ("trees", 0, "threshold", 0), "1.5", "threshold"),
    (sc.FitModel.from_json, TREE_MODEL, ("trees", 0, "value", 1), True, "value"),
    (sc.FitModel.from_json, TREE_MODEL, ("trees", 0, "left", 0), 1.0, "left"),
    (sc.FitModel.from_json, LINEAR_MODEL, ("betas", 0, 0), "1.5", "betas"),
    (sc.BiasCorrector.from_json, LINEAR_MODEL["bias_corrector"], ("factors", 0), "2", "factors"),
    (sc.BiasCorrector.from_json, LINEAR_MODEL["bias_corrector"], ("factors", 0), True, "factors"),
    (sc.BiasCorrector.from_json, TREE_MODEL["bias_corrector"], ("factors",), ["1.5", True],
     "factors"),
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
