"""Loss family: squared error, pseudo-Huber, and the Tweedie deviances.

Each loss exposes three things the boosting loop needs: the per-sample
deviance, its analytic gradient/hessian with respect to the learner's
internal score, and the constant score that minimizes the weighted total.
The Poisson and Gamma deviances are explicit branches rather than p-limits
of the Tweedie formula, which avoids cancellation near p = 1 and p = 2.

Deviance values keep the conventional factor of 2 so they are directly
comparable with the usual definitions; the factor cancels in any argmin.
A zero target takes the limit y * log(y / mu) -> 0 in the Poisson
deviance, so it contributes exactly 2 * mu.

Scores relate to mean predictions through the link: identity for squared
error and pseudo-Huber, log for Poisson/Gamma/Tweedie (so mean = exp(score)
is always positive).  Other pairings are rejected because Newton boosting
needs a positive second derivative, which e.g. squared error under a log
link cannot guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    LengthMismatch,
    check_numbers,
    json_object,
    write_text,
)

HESS_FLOOR = 1e-16
WEIGHT_FLOOR = 1e-6

_LOSS_KINDS = ("mse", "pseudo_huber", "poisson", "gamma", "tweedie")
_WEIGHT_KINDS = ("unit", "log_sales", "sqrt_sales", "linear_sales", "power")


@dataclass(frozen=True)
class LossSpec:
    """One member of the loss family plus its link.

    ``power`` is the Tweedie variance power, restricted to the open
    interval (1, 2): the compound Poisson-Gamma regime.  ``delta`` is the
    pseudo-Huber scale in model units.
    """

    kind: str
    power: float | None = None
    delta: float | None = None
    link: str = "identity"

    def __post_init__(self):
        if self.kind not in _LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.link not in ("identity", "log"):
            raise ConfigError(f"unknown link {self.link!r}")
        check_numbers(self, reals=[f for f in ("power", "delta") if getattr(self, f) is not None])
        if self.kind == "tweedie":
            if self.power is None or not (1.0 < self.power < 2.0):
                raise ConfigError("tweedie power must lie strictly inside (1, 2)")
        elif self.power is not None:
            raise ConfigError("power only applies to the tweedie loss")
        if self.kind == "pseudo_huber":
            if self.delta is None or self.delta <= 0:
                raise ConfigError("pseudo_huber delta must be positive")
        elif self.delta is not None:
            raise ConfigError("delta only applies to the pseudo_huber loss")
        if self.kind in ("poisson", "gamma", "tweedie") and self.link != "log":
            raise ConfigError(f"{self.kind} loss requires the log link")
        if self.kind in ("mse", "pseudo_huber") and self.link != "identity":
            raise ConfigError(f"{self.kind} loss requires the identity link")

    @classmethod
    def mse(cls) -> "LossSpec":
        return cls(kind="mse")

    @classmethod
    def pseudo_huber(cls, delta: float = 1.0) -> "LossSpec":
        return cls(kind="pseudo_huber", delta=delta)

    @classmethod
    def poisson(cls) -> "LossSpec":
        return cls(kind="poisson", link="log")

    @classmethod
    def gamma(cls) -> "LossSpec":
        return cls(kind="gamma", link="log")

    @classmethod
    def tweedie(cls, power: float) -> "LossSpec":
        return cls(kind="tweedie", power=power, link="log")

    @property
    def log_link(self) -> bool:
        return self.link == "log"

    def label(self) -> str:
        if self.kind == "tweedie":
            return f"tweedie(p={self.power:g})"
        if self.kind == "pseudo_huber":
            return f"pseudo_huber(d={self.delta:g})"
        return self.kind

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "link": self.link}
        if self.power is not None:
            out["power"] = self.power
        if self.delta is not None:
            out["delta"] = self.delta
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "LossSpec":
        obj = json_object(obj, "loss")
        return cls(
            kind=obj["kind"],
            power=obj.get("power"),
            delta=obj.get("delta"),
            link=obj.get("link", "identity"),
        )


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
    linear_sales; ``power`` generalizes past linear with exponent
    ``alpha``.  Every weight gets a 1e-6 floor added so zero-sales rows
    keep negligible but nonzero influence.
    """

    kind: str = "unit"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _WEIGHT_KINDS:
            raise ConfigError(f"unknown weight scheme {self.kind!r}")
        if self.alpha is not None:
            check_numbers(self, reals=("alpha",))
        if self.kind == "power":
            if self.alpha is None or self.alpha < 0:
                raise ConfigError("power weights need a non-negative exponent")
        elif self.alpha is not None:
            raise ConfigError("alpha only applies to power weights")

    def label(self) -> str:
        if self.kind == "power":
            return f"power(a={self.alpha:g})"
        return self.kind

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "WeightScheme":
        obj = json_object(obj, "weight scheme")
        return cls(kind=obj["kind"], alpha=obj.get("alpha"))


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
    if scheme.kind == "linear_sales":
        return y + WEIGHT_FLOOR
    return np.power(y, scheme.alpha) + WEIGHT_FLOOR


def _check_mu_domain(spec: LossSpec, y: np.ndarray, mu: np.ndarray) -> None:
    if np.any(y < 0):
        raise DomainError("targets must be non-negative")
    if spec.kind in ("poisson", "gamma", "tweedie") and np.any(mu <= 0):
        raise DomainError(f"{spec.kind} deviance needs mu > 0")
    if spec.kind == "gamma" and np.any(y <= 0):
        raise DomainError("gamma deviance needs y > 0")


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


def deviance(spec: LossSpec, y, mu):
    """Per-sample deviance at target y and mean prediction mu.

    Scalar or array inputs; broadcasting follows numpy rules.
    """
    y = np.asarray(y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    _check_mu_domain(spec, y, mu)
    if spec.kind == "mse":
        out = np.square(y - mu)
    elif spec.kind == "pseudo_huber":
        d = spec.delta
        out = d * d * (np.sqrt(1.0 + np.square((y - mu) / d)) - 1.0)
    elif spec.kind == "poisson":
        out = 2.0 * (_ylog_ratio(y, mu) - y + mu)
    elif spec.kind == "gamma":
        out = 2.0 * (-np.log(y / mu) + (y - mu) / mu)
    else:
        p = spec.power
        # written so that y = 0 never forms 0 * inf
        term1 = (np.power(y, 2.0 - p) - y * np.power(mu, 1.0 - p)) / (1.0 - p)
        term2 = (np.power(y, 2.0 - p) - np.power(mu, 2.0 - p)) / (2.0 - p)
        out = 2.0 * (term1 - term2)
    return float(out) if out.ndim == 0 else out


def mean_from_score(spec: LossSpec, score):
    """Map internal score to mean prediction through the link."""
    score = np.asarray(score, dtype=np.float64)
    out = np.exp(score) if spec.log_link else score.copy()
    return float(out) if out.ndim == 0 else out


def grad_hess(spec: LossSpec, y, score):
    """Analytic d(deviance)/d(score) and second derivative.

    The hessian is floored at 1e-16 to keep Newton steps finite where it
    underflows; it is mathematically positive everywhere the loss/link
    pairing is valid.
    """
    y = np.asarray(y, dtype=np.float64)
    score = np.asarray(score, dtype=np.float64)
    if not np.all(np.isfinite(score)):
        raise DomainError("scores must be finite")
    mu = mean_from_score(spec, score)
    _check_mu_domain(spec, y, np.asarray(mu, dtype=np.float64))
    if spec.kind == "mse":
        g = 2.0 * (score - y)
        h = np.full_like(g, 2.0)
    elif spec.kind == "pseudo_huber":
        u = (y - score) / spec.delta
        root = np.sqrt(1.0 + u * u)
        g = (score - y) / root
        h = np.power(root, -3.0)
    elif spec.kind == "poisson":
        g = 2.0 * (mu - y)
        h = 2.0 * mu
    elif spec.kind == "gamma":
        g = 2.0 * (1.0 - y / mu)
        h = 2.0 * y / mu
    else:
        p = spec.power
        mu1 = np.power(mu, 1.0 - p)
        mu2 = np.power(mu, 2.0 - p)
        g = 2.0 * (mu2 - y * mu1)
        h = 2.0 * ((2.0 - p) * mu2 + (p - 1.0) * y * mu1)
    h = np.maximum(h, HESS_FLOOR)
    if g.ndim == 0:
        return GradHess(grad=float(g), hess=float(h))
    return GradHess(grad=g, hess=h)


def total_loss(spec: LossSpec, weights, ys, mus) -> float:
    """Weighted sum of per-sample deviances.

    numpy's pairwise summation keeps the total independent of chunking,
    so serial and parallel evaluations agree to ~1e-12 relative.
    """
    w = np.asarray(weights, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    mu = np.asarray(mus, dtype=np.float64)
    if not (w.shape == y.shape == mu.shape):
        raise LengthMismatch(
            f"weights/ys/mus lengths differ: {w.shape} vs {y.shape} vs {mu.shape}"
        )
    if np.any(w <= 0):
        raise DomainError("weights must be strictly positive")
    return float(np.sum(w * deviance(spec, y, mu)))


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
            lines.append(",".join([f"{m:.12g}"] + [f"{v:.12g}" for v in self.values[:, j]]))
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
