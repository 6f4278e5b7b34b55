"""Second-order boosting on a chosen loss, transform, and weight scheme.

The learner maintains an additive internal score.  Fitting starts from
the constant score minimizing the weighted loss, then repeatedly fits a
base learner (regression tree or ridge-regularized linear model) to the
weighted gradient/hessian of the loss at the current score and takes a
damped Newton step.  The mean prediction is recovered from the score
through the loss's link, mapped back through the target transform, and
finally rescaled by an optional bias corrector.

Every round fits its base learner on all rows.  Everything is
deterministic: a tree fit sorts each feature column once and every
round's tree grows from that order, features are scanned in order, and
the linear step builds its normal equations with einsum on the
row-major ``(n, k)`` design, which fixes the summation order: each
entry of the normal matrix is a left-to-right sum over rows of
``(x_ij * h_i) * x_ik``, at any row count.  A ``(k, n)`` layout, BLAS
(``@``, ``np.dot``, ``tensordot``) or ``optimize=True`` would sum in
another order, and the bits of the fit would then depend on the row
count and the library.

A linear fit builds that normal matrix again only when the round's
hessian differs from the previous round's in any bit; a squared error
fit with fixed weights (every round's hessian ``2 w``) builds it once.
The carried matrix lives in one call of ``fit_arrays``: nothing outlives
the fit or passes between fits, so a fit's bits never depend on what
ran before it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .biascorr import BiasCorrector
from .errors import (
    ConfigError,
    DataError,
    DegenerateData,
    DomainError,
    EmptyInput,
    ShapeMismatch,
    check_numbers,
    json_numbers,
    json_object,
    read_json,
    real,
    write_text,
)
from .losses import (
    LossSpec,
    Objective,
    WeightScheme,
    check_targets,
    constant_score,
    grad_hess,
    mean_from_score,
    total_loss,
    weights_for,
)
from .panel import _cell, _feature_name_problem
from .transform import TargetTransform, forward, inverse
from .trees import Tree, grow_tree, presort

MODEL_FORMAT = "skewcast-model-v4"

_BASES = ("tree", "linear")


@dataclass(frozen=True)
class LearnerConfig:
    """Boosting hyperparameters; defaults suit daily retail panels."""

    base: str = "tree"
    rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 6
    min_child_weight: float = 1.0
    l2_reg: float = 1.0

    def __post_init__(self):
        if self.base not in _BASES:
            raise ConfigError(f"unknown base learner {self.base!r}")
        check_numbers(self, integers={"rounds": 0, "max_depth": 1},
                      reals=("learning_rate", "min_child_weight", "l2_reg"))
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigError("learning_rate must lie in (0, 1]")
        if self.min_child_weight < 0:
            raise ConfigError("min_child_weight must be >= 0")
        if self.l2_reg < 0:
            raise ConfigError("l2_reg must be >= 0")

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "rounds": self.rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_child_weight": self.min_child_weight,
            "l2_reg": self.l2_reg,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LearnerConfig":
        return cls(**json_object(obj, "learner", cls))


@dataclass
class FitModel:
    """A fitted forecaster: score function plus the back-mapping recipe."""

    transform: TargetTransform
    loss: LossSpec
    weight_scheme: WeightScheme
    learner: LearnerConfig
    feature_names: list[str]
    base_score: float
    trees: list[Tree] = field(default_factory=list)
    betas: list[np.ndarray] = field(default_factory=list)
    training_loss: list[float] = field(default_factory=list)
    bias_corrector: BiasCorrector = field(default_factory=BiasCorrector)

    def score(self, X) -> np.ndarray:
        """Raw additive score for each feature row."""
        X = _check_matrix(X, len(self.feature_names))
        s = np.full(len(X), self.base_score, dtype=np.float64)
        lr = self.learner.learning_rate
        for tree in self.trees:
            s += lr * tree.predict(X)
        if self.betas:
            coef = lr * np.sum(self.betas, axis=0)
            s += np.einsum("ij,j->i", _augment(X), coef)
        return s

    def predict_transformed(self, X) -> np.ndarray:
        """Mean prediction in transformed-target units."""
        return mean_from_score(self.loss, self.score(X))

    def predict(self, X) -> np.ndarray:
        """Raw-sales prediction: back-transformed and bias-corrected."""
        zhat = self.predict_transformed(X)
        return self.bias_corrector.apply(inverse(self.transform, zhat), zhat)

    def with_corrector(self, corrector: BiasCorrector) -> "FitModel":
        return replace(self, bias_corrector=corrector)

    def to_json(self) -> dict:
        return {
            "version": MODEL_FORMAT,
            "transform": self.transform.to_json(),
            "loss": self.loss.to_json(),
            "weight_scheme": self.weight_scheme.to_json(),
            "learner": self.learner.to_json(),
            "feature_names": list(self.feature_names),
            "base_score": self.base_score,
            "trees": [t.to_json() for t in self.trees],
            "betas": [b.tolist() for b in self.betas],
            "training_loss": list(self.training_loss),
            "bias_corrector": self.bias_corrector.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FitModel":
        obj = json_object(obj, "model")
        if obj.get("version") != MODEL_FORMAT:
            raise ConfigError(
                f"unsupported model version {obj.get('version')!r}, expected {MODEL_FORMAT!r}"
            )
        json_object(obj, "model", cls, extra=("version",))
        try:
            model = cls(
                transform=TargetTransform.from_json(obj["transform"]),
                loss=LossSpec.from_json(obj["loss"]),
                weight_scheme=WeightScheme.from_json(obj["weight_scheme"]),
                learner=LearnerConfig.from_json(obj["learner"]),
                feature_names=_names(obj["feature_names"]),
                base_score=real(obj["base_score"], "base_score"),
                trees=[Tree.from_json(t) for t in obj["trees"]],
                betas=[np.asarray(json_numbers(b, "betas")) for b in obj["betas"]],
                training_loss=json_numbers(obj["training_loss"], "training_loss"),
                bias_corrector=BiasCorrector.from_json(obj["bias_corrector"]),
            )
        except KeyError as exc:
            raise ConfigError(f"model JSON missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad model JSON: {exc}") from None
        n_features = len(model.feature_names)
        for tree in model.trees:
            if (tree.feature >= n_features).any():
                raise ConfigError(f"tree splits on a feature beyond the model's {n_features}")
        for beta in model.betas:
            if beta.shape != (n_features + 1,):
                raise ConfigError(
                    f"betas must have {n_features + 1} entries (features and intercept), "
                    f"got shape {beta.shape}"
                )
        return model


def _check_matrix(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ShapeMismatch(
            f"feature matrix must be (n, {n_features}), got {X.shape}"
        )
    if not np.isfinite(X).all():
        raise DataError("feature matrix has non-finite values")
    return X


def _names(value) -> list[str]:
    """A model JSON's ``feature_names``: names a panel could carry, or a ``ConfigError``."""
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ConfigError(f"feature_names must be a list of strings, got {value!r}")
    problem = _feature_name_problem(value)
    if problem:
        raise ConfigError(f"feature_names: {problem}")
    return list(value)


def _augment(X: np.ndarray) -> np.ndarray:
    """Append an intercept column of ones."""
    return np.hstack([X, np.ones((len(X), 1))])


def fit(
    panel,
    transform: TargetTransform,
    loss: LossSpec,
    weight_scheme: WeightScheme,
    config: LearnerConfig,
) -> FitModel:
    """Fit a boosted model of transform(sales) on a sales panel."""
    return fit_arrays(
        panel.feature_matrix,
        panel.sales,
        transform,
        loss,
        weight_scheme,
        config,
        feature_names=list(panel.feature_names),
    )


def fit_arrays(
    X,
    y,
    transform: TargetTransform,
    loss: LossSpec,
    weight_scheme: WeightScheme,
    config: LearnerConfig,
    feature_names: list[str] | None = None,
) -> FitModel:
    """Fit a boosted model of transform(y) on feature rows X.

    y is raw sales; sample weights are evaluated on it before any
    transformation.  Deviance losses (Poisson/Gamma/Tweedie) model raw
    sales through their own log link and therefore require the identity
    target transform; stacking them on an already-compressed target
    would double-count the concavity.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise EmptyInput("cannot fit on an empty panel")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatch(f"feature matrix must be 2-D, got shape {X.shape}")
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    X = _check_matrix(X, len(feature_names))
    if len(X) != len(y):
        raise ShapeMismatch(f"{len(X)} feature rows vs {len(y)} targets")

    z = fit_targets(transform, loss, y)
    w = weights_for(weight_scheme, y)
    try:
        base = constant_score(loss, z, w)
    except DomainError as exc:
        raise DegenerateData(f"cannot initialize fit: {exc}") from None

    objective = Objective(loss, z, w)
    scores = np.full(len(y), base, dtype=np.float64)
    w_total = float(np.sum(w))
    # one evaluation per round serves the round's loss and the next round's step
    terms = objective.at(scores)
    curve = [total_loss(loss, w, z, terms.mu, terms) / w_total]

    model = FitModel(
        transform=transform,
        loss=loss,
        weight_scheme=weight_scheme,
        learner=config,
        feature_names=list(feature_names),
        base_score=base,
    )
    Xa = _augment(X) if config.base == "linear" else None
    # a tree fit sorts the features once; each row's step is the leaf it grew into
    presorted = (presort(X, config.max_depth, config.min_child_weight, config.l2_reg)
                 if config.base == "tree" else None)
    normal = None  # the last linear round's (hessian, normal matrix)
    for _ in range(config.rounds):
        gh = grad_hess(loss, z, scores, terms)
        g = w * gh.grad
        h = w * gh.hess
        if config.base == "linear":
            normal = _carried_normal(normal, Xa, h, config.l2_reg)
            beta = _solve_step(normal[1], Xa, g)
            model.betas.append(beta)
            step = np.einsum("ij,j->i", Xa, beta)
        else:
            step = np.empty(len(y))
            model.trees.append(grow_tree(X, g, h, presorted, out=step))
        scores += config.learning_rate * step
        terms = objective.at(scores)
        curve.append(total_loss(loss, w, z, terms.mu, terms) / w_total)
    model.training_loss = curve
    return model


def fit_targets(transform: TargetTransform, loss: LossSpec, y: np.ndarray) -> np.ndarray:
    """The targets a fit models, ``transform(y)``, checked as the fit checks them.

    A log-link loss must see raw sales; the targets must not all be
    equal, and they must lie in the transform's and the loss's domains.
    The grid runs this on every training window before its first fit.
    """
    if loss.log_link and not transform.is_identity:
        raise ConfigError(
            f"{loss.kind} loss works on raw sales; combine it with the identity transform"
        )
    z = forward(transform, y)
    if np.all(z == z[0]):
        raise DegenerateData("all target values are identical; nothing to fit")
    check_targets(loss, z)
    return z


def _normal_matrix(Xa: np.ndarray, h: np.ndarray, l2_reg: float) -> np.ndarray:
    """The linear step's normal matrix ``Xa' diag(h) Xa + l2 I``.

    ``Xa`` is row-major ``(n, k)``.  Entry (j, k) is the left-to-right
    sum over rows i of ``(x_ij * h_i) * x_ik``: the hessian scales the
    rows first, and the two-operand einsum then sums in the same order
    as the three-operand ``einsum("ij,i,ik->jk", Xa, h, Xa)``, bit for
    bit at every row count.  A ``(k, n)`` layout, BLAS or
    ``optimize=True`` would not keep that order.  A fit builds it again
    in each round whose hessian differs in any bit from the previous
    round's, and in no other.
    """
    return np.einsum("ij,ik->jk", Xa * h[:, None], Xa) + l2_reg * np.eye(Xa.shape[1])


def _carried_normal(last, Xa: np.ndarray, h: np.ndarray, l2_reg: float):
    """The pair ``(h, normal matrix)`` for this round of one fit.

    ``last`` is the previous round's pair, or None in the first round.
    It is returned as it is when ``h`` has its hessian's bits, since the
    matrix would be built again bit for bit; otherwise the matrix is
    built for ``h``.  Each round's ``h`` is a new array that nothing
    writes to afterwards, so holding it is safe.  The pair is a local of
    one ``fit_arrays`` call, so no other fit or thread sees it.
    """
    if last is not None and np.array_equal(h.view(np.uint64), last[0].view(np.uint64)):
        return last
    return h, _normal_matrix(Xa, h, l2_reg)


def _solve_step(A: np.ndarray, Xa: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One round's linear Newton step, a global score adjustment: the
    solve of ``A beta = -Xa' g``."""
    b = -np.einsum("ij,i->j", Xa, g)
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise DegenerateData(
            "singular normal equations in linear step; increase l2_reg"
        ) from None


def in_sample_fit_report(model: FitModel, panel) -> dict:
    """Residual summary in transformed and raw units, with (y, yhat) pairs.

    The "pairs" entry is plot-ready: one (actual, predicted) tuple per
    row, raw units, after any bias correction.
    """
    X = panel.feature_matrix
    y = panel.sales
    if y.size == 0:
        raise EmptyInput("cannot report on an empty panel")
    z = forward(model.transform, y)
    zhat = model.predict_transformed(X)
    yhat = model.predict(X)
    rz = z - zhat
    ry = y - yhat
    return {
        "n_rows": int(len(y)),
        "rounds": len(model.training_loss) - 1,
        "initial_training_loss": model.training_loss[0],
        "final_training_loss": model.training_loss[-1],
        "mean_transformed_residual": float(np.mean(rz)),
        "var_transformed_residual": float(np.var(rz)),
        "mean_raw_residual": float(np.mean(ry)),
        "var_raw_residual": float(np.var(ry)),
        "pairs": list(zip(y.tolist(), yhat.tolist())),
    }


def write_pairs_csv(report: dict, path) -> None:
    """Write a fit report's (actual, predicted) pairs as a two-column CSV."""
    lines = ["actual,predicted"]
    for pair in report["pairs"]:
        lines.append(",".join(map(_cell, pair)))
    write_text(path, "\n".join(lines) + "\n")


def save_model(model: FitModel, path) -> None:
    write_text(path, json.dumps(model.to_json(), sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path) -> FitModel:
    return FitModel.from_json(read_json(path, "model"))
