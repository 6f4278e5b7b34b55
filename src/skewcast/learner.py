"""Second-order boosting on a chosen loss, transform, and weight scheme.

The learner maintains an additive internal score.  Fitting starts from
the constant score minimizing the weighted loss, then repeatedly fits a
base learner (regression tree or ridge-regularized linear model) to the
weighted gradient/hessian of the loss at the current score and takes a
damped Newton step.  The mean prediction is recovered from the score
through the loss's link, mapped back through the target transform, and
finally rescaled by an optional bias corrector.

Every round fits its base learner on all rows.  A round whose training
loss is not finite ends the fit in a ``DataError`` naming the loss and
the round.  The rounds are collected and the frozen ``FitModel`` is
built once, from the finished fit, so its checks see every step it
holds.  Everything is deterministic: a tree fit sorts each feature
column once and every round's tree grows from that order, features are
scanned in order, and the linear step builds its normal equations with
einsum on the row-major ``(n, k)`` design, which fixes the summation
order: with k >= 2 columns (a feature and the intercept), each entry of
the normal matrix is a left-to-right sum over rows of
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
from dataclasses import dataclass

import numpy as np

from .biascorr import BiasCorrector, check_corrector
from .errors import (
    ConfigError,
    DataError,
    JsonRecord,
    at_least,
    json_object,
    read_json,
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
from .panel import _feature_name_problem, write_csv
from .transform import TargetTransform, forward
from .trees import Tree, grow_tree, presort

MODEL_FORMAT = "skewcast-model-v5"

_BASES = ("tree", "linear")

# the most boosting rounds a config may ask for, 500 times the default 200;
# the bound keeps a mistyped count from running a grid for days
MAX_ROUNDS = 100_000


@dataclass(frozen=True)
class LearnerConfig(JsonRecord):
    """Boosting hyperparameters; defaults suit daily retail panels."""

    JSON_NAME = "learner"

    base: str = "tree"
    rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 6
    min_child_weight: float = 1.0
    l2_reg: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.base not in _BASES:
            raise ConfigError(f"unknown base learner {self.base!r}")
        at_least(self, rounds=0, max_depth=1, min_child_weight=0, l2_reg=0)
        if self.rounds > MAX_ROUNDS:
            raise ConfigError(f"rounds must be at most {MAX_ROUNDS:,}, got {self.rounds}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigError("learning_rate must lie in (0, 1]")


@dataclass(frozen=True)
class FitModel(JsonRecord):
    """A fitted forecaster: score function plus the back-mapping recipe."""

    JSON_NAME = "model"

    transform: TargetTransform
    loss: LossSpec
    weight_scheme: WeightScheme
    learner: LearnerConfig
    feature_names: tuple[str, ...]
    base_score: float
    trees: tuple[Tree, ...]
    betas: tuple[np.ndarray, ...]
    training_loss: tuple[float, ...]
    bias_corrector: BiasCorrector

    def __post_init__(self):  # the checks across parts, in code as in a loaded model
        super().__post_init__()
        problem = _feature_name_problem(self.feature_names)
        if problem:
            raise ConfigError(f"feature_names: {problem}")
        own, foreign = ("trees", "betas") if self.learner.base == "tree" else ("betas", "trees")
        if getattr(self, foreign):
            raise ConfigError(f"a {self.learner.base} model holds no {foreign}")
        rounds, steps = self.learner.rounds, len(getattr(self, own))
        if steps != rounds:
            raise ConfigError(f"{own} must number learner.rounds ({rounds}), got {steps}")
        if len(self.training_loss) != rounds + 1:
            raise ConfigError(f"training_loss must hold learner.rounds + 1 ({rounds + 1}) "
                              f"values, got {len(self.training_loss)}")
        check_corrector(self.bias_corrector.kind, self.transform)
        n_features = len(self.feature_names)
        for tree in self.trees:
            if (tree.feature >= n_features).any():
                raise ConfigError(f"tree splits on a feature beyond the model's {n_features}")
        for beta in self.betas:
            if beta.shape != (n_features + 1,):
                raise ConfigError(f"betas must have {n_features + 1} entries (features and "
                                  f"intercept), got shape {beta.shape}")
        for name, steps in (("tree threshold", [t.threshold for t in self.trees]),
                            ("tree value", [t.value for t in self.trees]), ("betas", self.betas)):
            if not np.isfinite(np.concatenate([[], *steps])).all():  # JSON holds no NaN or inf
                raise ConfigError(f"{name} must hold finite numbers")

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
        return self.bias_corrector.correct(self.transform, self.predict_transformed(X))

    def to_json(self) -> dict:
        return {"version": MODEL_FORMAT, **super().to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "FitModel":
        """The record reader, after the version check."""
        version = json_object(obj, cls.JSON_NAME).get("version")
        if version != MODEL_FORMAT:
            raise ConfigError(f"unsupported model version {version!r}, expected {MODEL_FORMAT!r}")
        return super().from_json({k: v for k, v in obj.items() if k != "version"})


def _check_matrix(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DataError(
            f"feature matrix must be (n, {n_features}), got {X.shape}"
        )
    if not np.isfinite(X).all():
        raise DataError("feature matrix has non-finite values")
    return X


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
        feature_names=panel.feature_names,
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
        raise DataError("cannot fit on an empty panel")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"feature matrix must be 2-D, got shape {X.shape}")
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    X = _check_matrix(X, len(feature_names))
    if len(X) != len(y):
        raise DataError(f"{len(X)} feature rows vs {len(y)} targets")

    z = fit_targets(transform, loss, y)
    w = weights_for(weight_scheme, y)
    w_total = float(np.sum(w))
    trees, betas, curve = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a loss that is not finite is named below
        try:
            base = constant_score(loss, z, w)
        except DataError as exc:
            raise DataError(f"cannot initialize fit: {exc}") from None
        objective = Objective(loss, z, w)
        scores = np.full(len(y), base, dtype=np.float64)
        Xa = _augment(X) if config.base == "linear" else None
        # a tree fit sorts the features once; each row's step is the leaf it grew into
        presorted = (presort(X, config.max_depth, config.min_child_weight, config.l2_reg)
                     if config.base == "tree" else None)
        normal = None  # the last linear round's (hessian, normal matrix)
        for round_no in range(config.rounds + 1):
            # one evaluation serves the round's loss and the next round's step
            terms = objective.at(scores)
            curve.append(total_loss(loss, w, z, terms.mu, terms) / w_total)
            if not np.isfinite(curve[-1]):
                raise DataError(f"the training loss of {loss.label()} is not finite "
                                f"at round {round_no}")
            if round_no == config.rounds:
                break
            gh = grad_hess(loss, z, scores, terms)
            g = w * gh.grad
            h = w * gh.hess
            if config.base == "linear":
                normal = _carried_normal(normal, Xa, h, config.l2_reg)
                betas.append(_solve_step(normal[1], Xa, g))
                step = np.einsum("ij,j->i", Xa, betas[-1])
            else:
                step = np.empty(len(y))
                trees.append(grow_tree(X, g, h, presorted, out=step))
            scores += config.learning_rate * step
    return FitModel(
        transform=transform,
        loss=loss,
        weight_scheme=weight_scheme,
        learner=config,
        feature_names=tuple(feature_names),
        base_score=base,
        trees=tuple(trees),
        betas=tuple(betas),
        training_loss=tuple(curve),
        bias_corrector=BiasCorrector(),
    )


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
        raise DataError("all target values are identical; nothing to fit")
    check_targets(loss, z)
    return z


def _normal_matrix(Xa: np.ndarray, h: np.ndarray, l2_reg: float) -> np.ndarray:
    """The linear step's normal matrix ``Xa' diag(h) Xa + l2 I``.

    ``Xa`` is row-major ``(n, k)``.  For k >= 2, entry (j, k) is the
    left-to-right sum over rows i of ``(x_ij * h_i) * x_ik``: the hessian
    scales the rows first, and the two-operand einsum then sums in the
    same order as the three-operand ``einsum("ij,i,ik->jk", Xa, h, Xa)``,
    bit for bit at every row count.  With k = 1 (a panel with no feature
    column) the two einsums can differ in the last bits, and the order
    is numpy's.  A ``(k, n)`` layout, BLAS or
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
        raise DataError(
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
        raise DataError("cannot report on an empty panel")
    z = forward(model.transform, y)
    zhat = model.predict_transformed(X)
    yhat = model.bias_corrector.correct(model.transform, zhat)
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
    write_csv(path, ("actual", "predicted"), report["pairs"])


def save_model(model: FitModel, path) -> None:
    write_text(path, json.dumps(model.to_json(), sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path) -> FitModel:
    return FitModel.from_json(read_json(path, "model"))
