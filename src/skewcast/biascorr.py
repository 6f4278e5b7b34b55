"""Multiplicative bias correction for back-transformed forecasts.

Training on a concave transform of sales and inverting the point
forecast systematically undershoots the conditional mean.  The
correctors here all scale the back-transformed prediction up:

* ``variance_based``: exp(var(residuals)/2), the lognormal-error
  closed form; residuals are taken in transformed units.
* ``smearing``: mean(exp(residuals)), Duan's nonparametric smearing.
* ``prediction_binned``: a separate empirical multiplier per bucket of
  the transformed prediction, mean(actual)/mean(back-transformed
  prediction) within each bucket, so large forecasts (which are
  squeezed hardest by a concave transform) get a larger boost.  Sparse
  buckets fall back to the global smearing factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptyInput,
    InsufficientData,
    LengthMismatch,
    check_numbers,
    is_real,
    json_numbers,
    json_object,
    real,
)
from .transform import TargetTransform, forward, inverse

KINDS = ("none", "variance_based", "smearing", "prediction_binned")

BIN_WIDTH = 2.0
MIN_BIN_COUNT = 30


@dataclass(frozen=True)
class BiasCorrector:
    """Fitted corrector; ``apply`` rescales back-transformed predictions."""

    kind: str = "none"
    factor: float = 1.0
    bin_factors: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown bias corrector kind {self.kind!r}")
        check_numbers(self, reals=("factor",))
        if self.factor <= 0.0:
            raise ConfigError("bias correction factor must be positive")
        if self.kind == "prediction_binned":
            if len(self.bin_factors) < 1:
                raise ConfigError("prediction_binned corrector needs at least one bin")
            if any(not is_real(f) or f <= 0.0 for f in self.bin_factors):
                raise ConfigError("bin factors must be positive and finite")

    @property
    def n_bins(self) -> int:
        return len(self.bin_factors)

    def bin_index(self, pred_transformed: np.ndarray) -> np.ndarray:
        """Bucket of each transformed prediction; the last bin is open-ended."""
        idx = np.floor(np.asarray(pred_transformed, dtype=np.float64) / BIN_WIDTH)
        return np.clip(idx, 0, self.n_bins - 1).astype(np.int64)

    def apply(self, pred_raw, pred_transformed=None):
        """Corrected prediction; binned correction needs the transformed one."""
        pred_raw = np.asarray(pred_raw, dtype=np.float64)
        if self.kind == "none":
            return pred_raw.copy()
        if self.kind in ("variance_based", "smearing"):
            return self.factor * pred_raw
        if pred_transformed is None:
            raise ConfigError("prediction_binned correction needs transformed predictions")
        pred_transformed = np.asarray(pred_transformed, dtype=np.float64)
        if pred_transformed.shape != pred_raw.shape:
            raise LengthMismatch("raw and transformed predictions differ in shape")
        factors = np.asarray(self.bin_factors, dtype=np.float64)
        return pred_raw * factors[self.bin_index(pred_transformed)]

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.kind in ("variance_based", "smearing"):
            obj["factor"] = self.factor
        elif self.kind == "prediction_binned":
            obj["factor"] = self.factor
            obj["bin_factors"] = list(self.bin_factors)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "BiasCorrector":
        obj = json_object(obj, "bias corrector", cls)
        return cls(
            kind=obj.get("kind", "none"),
            factor=real(obj.get("factor", 1.0), "factor"),
            bin_factors=tuple(json_numbers(obj.get("bin_factors", ()), "bin_factors")),
        )


def fit_variance_based(residuals) -> BiasCorrector:
    """exp(var/2) from transformed-space residuals (population variance)."""
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.size < 2:
        raise InsufficientData("variance-based correction needs at least 2 residuals")
    factor = float(np.exp(0.5 * np.var(residuals)))
    return BiasCorrector(kind="variance_based", factor=factor)


def fit_smearing(residuals) -> BiasCorrector:
    """mean(exp(residual)) from transformed-space residuals."""
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.size < 1:
        raise InsufficientData("smearing correction needs at least 1 residual")
    factor = float(np.mean(np.exp(residuals)))
    return BiasCorrector(kind="smearing", factor=factor)


def fit_prediction_binned(y_raw, pred_transformed, transform: TargetTransform) -> BiasCorrector:
    """Per-bucket empirical multipliers over the transformed prediction.

    Buckets are [0, w), [w, 2w), ... in transformed units, with
    w = ``BIN_WIDTH``; the last one is open above.  A bucket's multiplier
    is mean(actual) over mean of the back-transformed prediction,
    provided it holds at least ``MIN_BIN_COUNT`` rows and its denominator
    is positive; otherwise the global smearing factor is used.
    """
    y_raw = np.asarray(y_raw, dtype=np.float64)
    pred_transformed = np.asarray(pred_transformed, dtype=np.float64)
    if y_raw.shape != pred_transformed.shape:
        raise LengthMismatch("actuals and predictions differ in shape")
    if y_raw.size == 0:
        raise EmptyInput("no rows to fit a bias corrector on")

    backmapped = inverse(transform, pred_transformed)
    residuals = forward(transform, y_raw) - pred_transformed
    fallback = float(np.mean(np.exp(residuals)))
    if not (fallback > 0.0 and math.isfinite(fallback)):
        fallback = 1.0

    n_bins = max(1, int(np.floor(np.max(pred_transformed) / BIN_WIDTH)) + 1)
    idx = BiasCorrector("prediction_binned", bin_factors=(1.0,) * n_bins).bin_index(
        pred_transformed)
    factors = []
    for b in range(n_bins):
        mask = idx == b
        count = int(np.sum(mask))
        if count < MIN_BIN_COUNT:
            factors.append(fallback)
            continue
        denom = float(np.mean(backmapped[mask]))
        if denom <= 0.0:
            factors.append(fallback)
            continue
        factors.append(float(np.mean(y_raw[mask])) / denom)
    factors = [f if (f > 0.0 and math.isfinite(f)) else fallback for f in factors]
    return BiasCorrector(kind="prediction_binned", factor=fallback, bin_factors=tuple(factors))


def fit_corrector(kind: str, y_raw, pred_transformed, transform: TargetTransform) -> BiasCorrector:
    """Fit any corrector kind from actuals and transformed predictions."""
    if kind == "none":
        return BiasCorrector(kind="none")
    y_raw = np.asarray(y_raw, dtype=np.float64)
    pred_transformed = np.asarray(pred_transformed, dtype=np.float64)
    if y_raw.shape != pred_transformed.shape:
        raise LengthMismatch("actuals and predictions differ in shape")
    residuals = forward(transform, y_raw) - pred_transformed
    if kind == "variance_based":
        return fit_variance_based(residuals)
    if kind == "smearing":
        return fit_smearing(residuals)
    if kind == "prediction_binned":
        return fit_prediction_binned(y_raw, pred_transformed, transform)
    raise ConfigError(f"unknown bias corrector kind {kind!r}")
