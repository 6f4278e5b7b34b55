"""Loss family: squared error, pseudo-Huber, and the Tweedie deviances.

Each loss exposes three things the boosting loop needs: the per-sample
deviance, its analytic gradient/hessian with respect to the learner's
internal score, and the constant score that minimizes the weighted total.
The Poisson and Gamma deviances are explicit branches rather than p-limits
of the Tweedie formula, which avoids cancellation near p = 1 and p = 2.

Every formula lives once, in one kernel (``LossTerms``): ``deviance``,
``grad_hess`` and ``total_loss`` all evaluate through it.  A fit binds
its loss to its fixed targets and weights once (``Objective``: weights
checked, Tweedie ``y**(2-p)`` taken), then evaluates the kernel once per
round, so the round's mean and its powers serve both the training loss
and the next Newton step.  Sharing changes no bits: each expression
keeps its evaluation order.

Deviance values keep the conventional factor of 2 so they are directly
comparable with the usual definitions; the factor cancels in any argmin.
A zero target takes the limit y * log(y / mu) -> 0 in the Poisson
deviance, so it contributes exactly 2 * mu.

Scores relate to mean predictions through the link: identity for squared
error and pseudo-Huber, log for Poisson/Gamma/Tweedie (so mean = exp(score)
is always positive).  The kind fixes the link, and a loss JSON names
only the kind and its parameter, because Newton boosting needs a
positive second derivative, which e.g. squared error under a log link
cannot guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    LengthMismatch,
    json_object,
    real,
    write_text,
)
from .panel import _fmt

HESS_FLOOR = 1e-16
WEIGHT_FLOOR = 1e-6

# kind -> (log link?, name of its one parameter or None)
_LOSS_KINDS = {
    "mse": (False, None),
    "pseudo_huber": (False, "delta"),
    "poisson": (True, None),
    "gamma": (True, None),
    "tweedie": (True, "power"),
}
_WEIGHT_KINDS = ("unit", "log_sales", "sqrt_sales", "linear_sales")


@dataclass(frozen=True)
class LossSpec:
    """One member of the loss family; its link follows from the kind.

    ``power`` is the Tweedie variance power, restricted to the open
    interval (1, 2): the compound Poisson-Gamma regime.  ``delta`` is the
    pseudo-Huber scale in model units.  The link is log for Poisson,
    Gamma and Tweedie and identity for the others.
    """

    kind: str
    power: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        param = _LOSS_KINDS[self.kind][1]
        for name in ("power", "delta"):
            if name != param and getattr(self, name) is not None:
                raise ConfigError(f"the {self.kind} loss takes no {name}")
        if param is not None:
            real(getattr(self, param), f"{self.kind} {param}")
        if self.kind == "tweedie" and not 1.0 < self.power < 2.0:
            raise ConfigError("tweedie power must lie strictly inside (1, 2)")
        if self.kind == "pseudo_huber" and self.delta <= 0:
            raise ConfigError("pseudo_huber delta must be positive")

    @classmethod
    def mse(cls) -> "LossSpec":
        return cls(kind="mse")

    @classmethod
    def pseudo_huber(cls, delta: float = 1.0) -> "LossSpec":
        return cls(kind="pseudo_huber", delta=delta)

    @classmethod
    def poisson(cls) -> "LossSpec":
        return cls(kind="poisson")

    @classmethod
    def gamma(cls) -> "LossSpec":
        return cls(kind="gamma")

    @classmethod
    def tweedie(cls, power: float) -> "LossSpec":
        return cls(kind="tweedie", power=power)

    @property
    def log_link(self) -> bool:
        return _LOSS_KINDS[self.kind][0]

    def label(self) -> str:  # tweedie(p=1.5): the parameter's initial and value
        param = _LOSS_KINDS[self.kind][1]
        return self.kind if param is None else f"{self.kind}({param[0]}={getattr(self, param):g})"

    def to_json(self) -> dict:
        param = _LOSS_KINDS[self.kind][1]
        return {"kind": self.kind, **({} if param is None else {param: getattr(self, param)})}

    @classmethod
    def from_json(cls, obj: dict) -> "LossSpec":
        obj = json_object(obj, "loss", cls)
        return cls(kind=obj["kind"], power=obj.get("power"), delta=obj.get("delta"))


@dataclass(frozen=True)
class GradHess:
    """Per-sample first and second derivative with respect to the score,
    before any sample-weight multiplication."""

    grad: float
    hess: float


@dataclass(frozen=True)
class WeightScheme:
    """Sample-weight rule evaluated on raw sales.

    The escalation ladder runs unit -> log_sales -> sqrt_sales ->
    linear_sales.  Every weight gets a 1e-6 floor added so zero-sales
    rows keep negligible but nonzero influence.
    """

    kind: str = "unit"

    def __post_init__(self):
        if self.kind not in _WEIGHT_KINDS:
            raise ConfigError(f"unknown weight scheme {self.kind!r}")

    def to_json(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, obj: dict) -> "WeightScheme":
        obj = json_object(obj, "weight scheme", cls)
        return cls(kind=obj["kind"])


def weights_for(scheme: WeightScheme, ys) -> np.ndarray:
    """Evaluate a weight scheme on raw sales; strictly positive output."""
    y = np.asarray(ys, dtype=np.float64)
    if np.any(y < 0):
        raise DomainError("sales weights need non-negative sales")
    if scheme.kind == "unit":
        return np.ones_like(y)
    if scheme.kind == "log_sales":
        return np.log1p(y) + WEIGHT_FLOOR
    if scheme.kind == "sqrt_sales":
        return np.sqrt(y) + WEIGHT_FLOOR
    return y + WEIGHT_FLOOR


def check_targets(spec: LossSpec, y) -> None:
    """``DomainError`` unless every target lies in the loss's domain.

    A fit's targets never change, so a fit checks them once, before its
    first round, and the grid checks every training window this way
    before its first fit.
    """
    if np.any(y < 0):
        raise DomainError("targets must be non-negative")
    if spec.kind == "gamma" and np.any(y <= 0):
        raise DomainError("gamma deviance needs y > 0")


def _check_mean(spec: LossSpec, mu) -> None:
    if spec.log_link and np.any(mu <= 0):
        raise DomainError(f"{spec.kind} deviance needs mu > 0")


def _check_weights(w: np.ndarray, y: np.ndarray, mu: np.ndarray) -> None:
    if not (w.shape == y.shape == mu.shape):
        raise LengthMismatch(
            f"weights/ys/mus lengths differ: {w.shape} vs {y.shape} vs {mu.shape}"
        )
    if np.any(w <= 0):
        raise DomainError("weights must be strictly positive")


def _ylog_ratio(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """y * log(y / mu), taken as 0 where the ratio is 0.

    A zero ratio is a zero target, whose limit is 0, or a subnormal target
    whose ratio underflows; there the term is below 2e-321 * mu in size,
    so 0 leaves ``- y + mu`` unchanged.  The log only sees positive
    ratios, so neither case raises a warning.  A ratio that overflows (a
    mean below about ``y * 5.6e-309``) takes ``y * (log y - log mu)``.
    """
    y, mu = np.broadcast_arrays(y, mu)
    with np.errstate(over="ignore"):
        ratio = y / mu
    log_ratio = np.log(ratio, out=np.zeros_like(ratio), where=ratio > 0)
    big = np.isinf(ratio)
    if big.any():
        log_ratio[big] = np.log(y[big]) - np.log(mu[big])
    return y * log_ratio


class LossTerms:
    """The loss kernel: one loss's per-sample terms at targets y and means mu.

    Every loss formula lives here once; ``deviance``, ``grad_hess`` and
    ``total_loss`` all evaluate through it.  The constructor takes the
    intermediates the deviance and its derivatives share (the pseudo-Huber
    root, the Gamma ratio ``y / mu``, and the Tweedie ``mu**(1-p)``,
    ``mu**(2-p)`` and ``y * mu**(1-p)``), so a boosting round that needs
    both its gradient/hessian and its training loss takes them once.
    ``y_pow``, the Tweedie ``y**(2-p)``, depends on the targets alone, so
    `Objective` passes it in once per fit.  Nothing is checked here.
    """

    def __init__(self, spec: LossSpec, y: np.ndarray, mu: np.ndarray, y_pow=None):
        self.spec = spec
        self.y = y
        self.mu = mu
        self.y_pow = y_pow
        if spec.kind == "pseudo_huber":
            u = (y - mu) / spec.delta
            self.root = np.sqrt(1.0 + u * u)
        elif spec.kind == "gamma":
            self.ratio = y / mu
        elif spec.kind == "tweedie":
            p = spec.power
            self.mu1 = np.power(mu, 1.0 - p)
            self.mu2 = np.power(mu, 2.0 - p)
            self.y_mu1 = y * self.mu1

    def deviance(self) -> np.ndarray:
        spec, y, mu = self.spec, self.y, self.mu
        if spec.kind == "mse":
            return np.square(y - mu)
        if spec.kind == "pseudo_huber":
            d = spec.delta
            return d * d * (self.root - 1.0)
        if spec.kind == "poisson":
            return 2.0 * (_ylog_ratio(y, mu) - y + mu)
        if spec.kind == "gamma":
            return 2.0 * (-np.log(self.ratio) + (y - mu) / mu)
        p = spec.power
        y_pow = np.power(y, 2.0 - p) if self.y_pow is None else self.y_pow
        # written so that y = 0 never forms 0 * inf
        term1 = (y_pow - self.y_mu1) / (1.0 - p)
        term2 = (y_pow - self.mu2) / (2.0 - p)
        return 2.0 * (term1 - term2)

    def grad_hess(self) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and hessian with respect to the score; the hessian is floored."""
        spec, y, mu = self.spec, self.y, self.mu
        if spec.kind == "mse":
            g = 2.0 * (mu - y)
            h = np.full_like(g, 2.0)
        elif spec.kind == "pseudo_huber":
            g = (mu - y) / self.root
            h = np.power(self.root, -3.0)
        elif spec.kind == "poisson":
            g = 2.0 * (mu - y)
            h = 2.0 * mu
        elif spec.kind == "gamma":
            g = 2.0 * (1.0 - self.ratio)
            h = 2.0 * y / mu
        else:
            p = spec.power
            g = 2.0 * (self.mu2 - self.y_mu1)
            h = 2.0 * ((2.0 - p) * self.mu2 + (p - 1.0) * y * self.mu1)
        return g, np.maximum(h, HESS_FLOOR)


class Objective:
    """A loss on one fit's targets and weights, which stay fixed as its scores move.

    The weights are checked once here, and the Tweedie ``y**(2-p)`` is
    taken once; the targets must already have passed `check_targets`.
    ``at`` evaluates the kernel at one round's scores, mapping them to
    means once for both the round's gradient/hessian and its loss.
    """

    def __init__(self, spec: LossSpec, y: np.ndarray, w: np.ndarray):
        _check_weights(w, y, y)
        self.spec = spec
        self.y = y
        self.y_pow = np.power(y, 2.0 - spec.power) if spec.kind == "tweedie" else None

    def at(self, score: np.ndarray) -> LossTerms:
        mu = mean_from_score(self.spec, score)
        _check_mean(self.spec, mu)
        return LossTerms(self.spec, self.y, mu, self.y_pow)


def deviance(spec: LossSpec, y, mu):
    """Per-sample deviance at target y and mean prediction mu.

    Scalar or array inputs; broadcasting follows numpy rules.
    """
    y = np.asarray(y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    check_targets(spec, y)
    _check_mean(spec, mu)
    out = LossTerms(spec, y, mu).deviance()
    return float(out) if out.ndim == 0 else out


def mean_from_score(spec: LossSpec, score):
    """Map internal score to mean prediction through the link."""
    score = np.asarray(score, dtype=np.float64)
    out = np.exp(score) if spec.log_link else score.copy()
    return float(out) if out.ndim == 0 else out


def grad_hess(spec: LossSpec, y, score, terms: LossTerms | None = None):
    """Analytic d(deviance)/d(score) and second derivative.

    The hessian is floored at 1e-16 to keep Newton steps finite where it
    underflows; it is mathematically positive everywhere the loss/link
    pairing is valid.  A fit passes ``terms``, the kernel its `Objective`
    already evaluated at ``score`` on the targets ``y``; then only the
    scores are checked.
    """
    score = np.asarray(score, dtype=np.float64)
    if not np.all(np.isfinite(score)):
        raise DomainError("scores must be finite")
    if terms is None:
        y = np.asarray(y, dtype=np.float64)
        mu = np.asarray(mean_from_score(spec, score))
        check_targets(spec, y)
        _check_mean(spec, mu)
        terms = LossTerms(spec, y, mu)
    g, h = terms.grad_hess()
    if g.ndim == 0:
        return GradHess(grad=float(g), hess=float(h))
    return GradHess(grad=g, hess=h)


def total_loss(spec: LossSpec, weights, ys, mus, terms: LossTerms | None = None) -> float:
    """Weighted sum of per-sample deviances.

    numpy's pairwise summation keeps the total independent of chunking,
    so serial and parallel evaluations agree to ~1e-12 relative.  A fit
    passes ``terms``, the kernel its `Objective` already evaluated at
    ``mus`` on the targets ``ys``, whose weights it checked once.
    """
    w = np.asarray(weights, dtype=np.float64)
    if terms is None:
        y = np.asarray(ys, dtype=np.float64)
        mu = np.asarray(mus, dtype=np.float64)
        _check_weights(w, y, mu)
        check_targets(spec, y)
        _check_mean(spec, mu)
        terms = LossTerms(spec, y, mu)
    return float(np.sum(w * terms.deviance()))


def constant_score(spec: LossSpec, targets, weights) -> float:
    """Score s* minimizing sum_i w_i * deviance(t_i, mean_from_score(s*)).

    Squared error and the whole Tweedie family share the weighted mean as
    the minimizing mean prediction; pseudo-Huber has no closed form and is
    solved by Newton iteration on the 1-D problem.
    """
    t = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if spec.kind == "pseudo_huber":
        s = float(np.average(t, weights=w))
        for _ in range(100):
            gh = grad_hess(spec, t, np.full_like(t, s))
            step = float(np.sum(w * gh.grad) / np.sum(w * gh.hess))
            s -= step
            if abs(step) < 1e-13 * max(1.0, abs(s)):
                break
        return s
    mean = float(np.average(t, weights=w))
    if spec.log_link:
        if mean <= 0:
            raise DomainError("log link needs a positive weighted mean target")
        return float(np.log(mean))
    return mean


@dataclass(frozen=True)
class ConvexityTable:
    """Deviance evaluated over a mean-prediction grid, one column per loss."""

    actual: float
    mu_grid: np.ndarray
    labels: list[str]
    values: np.ndarray  # shape (n_specs, n_grid)

    def column(self, label: str) -> np.ndarray:
        return self.values[self.labels.index(label)]

    def write_csv(self, path) -> None:
        lines = ["mu," + ",".join(self.labels)]
        for j, m in enumerate(self.mu_grid):
            lines.append(",".join([_fmt(m), *map(_fmt, self.values[:, j])]))
        write_text(path, "\n".join(lines) + "\n")


def convexity_profile(specs: list[LossSpec], actual: float, mu_grid) -> ConvexityTable:
    """Deviance of each loss along a grid of mean predictions.

    Reproduces the cost-function comparison at a fixed actual: lower
    Tweedie powers are visibly more convex, and squared error dwarfs them
    all.
    """
    grid = np.asarray(mu_grid, dtype=np.float64)
    values = np.empty((len(specs), grid.size))
    for i, spec in enumerate(specs):
        values[i] = deviance(spec, actual, grid)
    return ConvexityTable(
        actual=float(actual),
        mu_grid=grid,
        labels=[s.label() for s in specs],
        values=values,
    )
