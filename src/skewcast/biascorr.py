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

A fitted corrector of any kind is one table of multipliers, one per
bucket of the transformed prediction; only a binned corrector has more
than one bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptyInput,
    InsufficientData,
    JsonRecord,
    LengthMismatch,
    is_real,
    json_numbers,
    json_object,
)
from .transform import TargetTransform, forward, inverse

KINDS = ("none", "variance_based", "smearing", "prediction_binned")

BIN_WIDTH = 2.0
MIN_BIN_COUNT = 30


def bin_index(pred_transformed, n_bins: int) -> np.ndarray:
    """Bucket of each transformed prediction among ``n_bins`` buckets
    [0, w), [w, 2w), ... with w = ``BIN_WIDTH``; the first bucket is open
    below and the last open above."""
    idx = np.floor(np.asarray(pred_transformed, dtype=np.float64) / BIN_WIDTH)
    return np.clip(idx, 0, n_bins - 1).astype(np.int64)


@dataclass(frozen=True)
class BiasCorrector(JsonRecord):
    """Fitted corrector: one multiplier per bucket of the transformed
    prediction (see ``bin_index``).  A ``prediction_binned`` corrector may
    hold several, any other kind exactly one, and ``none`` exactly 1."""

    kind: str = "none"
    factors: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown bias corrector kind {self.kind!r}")
        if not self.factors or any(not is_real(f) or f <= 0.0 for f in self.factors):
            raise ConfigError(f"bias correction factors must be positive and finite, "
                              f"got {list(self.factors)!r}")
        if len(self.factors) > 1 and self.kind != "prediction_binned":
            raise ConfigError(f"a {self.kind} corrector holds one factor, "
                              f"got {len(self.factors)}")
        if self.kind == "none" and self.factors[0] != 1.0:
            raise ConfigError(f"a none corrector's factor is 1, got {self.factors[0]!r}")

    def apply(self, pred_raw, pred_transformed) -> np.ndarray:
        """Each raw prediction times the factor of its transformed prediction's bucket."""
        pred_raw = np.asarray(pred_raw, dtype=np.float64)
        pred_transformed = np.asarray(pred_transformed, dtype=np.float64)
        if pred_transformed.shape != pred_raw.shape:
            raise LengthMismatch("raw and transformed predictions differ in shape")
        factors = np.asarray(self.factors, dtype=np.float64)
        if len(factors) == 1:  # one bucket: a NaN prediction is scaled, not bucketed
            return pred_raw * factors[0]
        return pred_raw * factors[bin_index(pred_transformed, len(factors))]

    @classmethod
    def from_json(cls, obj: dict) -> "BiasCorrector":
        obj = json_object(obj, "bias corrector", cls)
        return cls(kind=obj.get("kind", "none"),
                   factors=tuple(json_numbers(obj.get("factors", [1.0]), "factors")))


def fit_variance_based(residuals) -> BiasCorrector:
    """exp(var/2) from transformed-space residuals (population variance)."""
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.size < 2:
        raise InsufficientData("variance-based correction needs at least 2 residuals")
    return BiasCorrector("variance_based", (float(np.exp(0.5 * np.var(residuals))),))


def fit_smearing(residuals) -> BiasCorrector:
    """mean(exp(residual)) from transformed-space residuals."""
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.size < 1:
        raise InsufficientData("smearing correction needs at least 1 residual")
    return BiasCorrector("smearing", (float(np.mean(np.exp(residuals))),))


def fit_prediction_binned(y_raw, pred_transformed, transform: TargetTransform) -> BiasCorrector:
    """Per-bucket empirical multipliers over the transformed prediction.

    Buckets (see ``bin_index``) run up to the one holding the largest
    prediction.  A bucket's multiplier is mean(actual) over mean of the
    back-transformed prediction, provided it holds at least
    ``MIN_BIN_COUNT`` rows and its denominator is positive; otherwise the
    global smearing factor is used.
    """
    return fit_corrector("prediction_binned", y_raw, pred_transformed, transform)


def fit_corrector(kind: str, y_raw, pred_transformed, transform: TargetTransform) -> BiasCorrector:
    """Fit any corrector kind from actuals and transformed predictions."""
    if kind not in KINDS:
        raise ConfigError(f"unknown bias corrector kind {kind!r}")
    if kind == "none":
        return BiasCorrector()
    y_raw = np.asarray(y_raw, dtype=np.float64)
    pred_transformed = np.asarray(pred_transformed, dtype=np.float64)
    if y_raw.shape != pred_transformed.shape:
        raise LengthMismatch("actuals and predictions differ in shape")
    residuals = forward(transform, y_raw) - pred_transformed
    if kind == "variance_based":
        return fit_variance_based(residuals)
    if kind == "smearing":
        return fit_smearing(residuals)
    if y_raw.size == 0:
        raise EmptyInput("no rows to fit a bias corrector on")

    fallback = float(np.mean(np.exp(residuals)))
    if not (fallback > 0.0 and math.isfinite(fallback)):
        fallback = 1.0
    backmapped = inverse(transform, pred_transformed)
    n_bins = max(1, int(np.floor(np.max(pred_transformed) / BIN_WIDTH)) + 1)
    idx = bin_index(pred_transformed, n_bins)
    factors = []
    for b in range(n_bins):
        mask = idx == b
        denom = float(np.mean(backmapped[mask])) if np.sum(mask) >= MIN_BIN_COUNT else 0.0
        factor = float(np.mean(y_raw[mask])) / denom if denom > 0.0 else fallback
        factors.append(factor if factor > 0.0 and math.isfinite(factor) else fallback)
    return BiasCorrector("prediction_binned", tuple(factors))
