"""Multiplicative bias correction for back-transformed forecasts.

Training on a concave transform of sales and inverting the point
forecast systematically undershoots the conditional mean.  The
correctors here all scale the back-transformed prediction up, fitted
on residuals r = transform(actual) - prediction in transformed units:

* ``variance_based``: exp(var(r)/2), the lognormal-error closed form,
  from the population variance of at least 2 residuals.
* ``smearing``: mean(exp(r)), Duan's nonparametric smearing.
* ``prediction_binned``: a separate empirical multiplier per bucket of
  the transformed prediction (see ``bin_index``), up to the bucket of
  the largest one: mean(actual)/mean(back-transformed prediction)
  within the bucket, so large forecasts (which are squeezed hardest by
  a concave transform) get a larger boost.  A bucket of fewer than
  ``MIN_BIN_COUNT`` rows, or whose mean back-transformed prediction is
  not positive, falls back to the smearing factor (to 1 if that is not
  positive and finite).

A fitted corrector of any kind is one table of multipliers, one per
bucket of the transformed prediction; only a binned corrector has more
than one bucket.  ``fit_corrector`` fits every kind, and
``BiasCorrector.correct`` is the one map from a transformed prediction
to the forecast: back-transform, then the bucket's factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, JsonRecord, finite
from .transform import TargetTransform, forward, inverse

KINDS = ("none", "variance_based", "smearing", "prediction_binned")

BIN_WIDTH = 2.0
MIN_BIN_COUNT = 30


def bin_index(pred_transformed, n_bins: int) -> np.ndarray:
    """Bucket of each transformed prediction among ``n_bins`` buckets
    [0, w), [w, 2w), ... with w = ``BIN_WIDTH``; the first bucket is open
    below and the last open above; a NaN prediction takes the first."""
    idx = np.floor(np.asarray(pred_transformed, dtype=np.float64) / BIN_WIDTH)
    return np.clip(np.nan_to_num(idx), 0, n_bins - 1).astype(np.int64)


@dataclass(frozen=True)
class BiasCorrector(JsonRecord):
    """Fitted corrector: one multiplier per bucket of the transformed
    prediction (see ``bin_index``).  A ``prediction_binned`` corrector may
    hold several, any other kind exactly one, and ``none`` exactly 1."""

    JSON_NAME = "bias corrector"

    kind: str = "none"
    factors: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in KINDS:
            raise ConfigError(f"unknown bias corrector kind {self.kind!r}")
        if not self.factors or any(f <= 0.0 for f in self.factors):
            raise ConfigError(f"bias correction factors must be positive and finite, "
                              f"got {list(self.factors)!r}")
        if len(self.factors) > 1 and self.kind != "prediction_binned":
            raise ConfigError(f"a {self.kind} corrector holds one factor, "
                              f"got {len(self.factors)}")
        if self.kind == "none" and self.factors[0] != 1.0:
            raise ConfigError(f"a none corrector's factor is 1, got {self.factors[0]!r}")

    def correct(self, transform: TargetTransform, zhat) -> np.ndarray:
        """The raw-sales forecast of transformed predictions ``zhat``: each
        back-transformed, then times the factor of its bucket."""
        zhat = np.asarray(zhat, dtype=np.float64)
        raw = inverse(transform, zhat)
        factors = np.asarray(self.factors, dtype=np.float64)
        return raw * factors[bin_index(zhat, len(factors))]


def check_corrector(kind: str, transform: TargetTransform) -> None:
    """``ConfigError`` unless ``kind`` is a corrector kind ``transform`` can use.

    Only ``none`` suits the identity transform: there is no back-transform
    to correct, and the exponential of a raw-sales residual is no factor.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown bias corrector kind {kind!r}")
    if kind != "none" and transform.is_identity:
        raise ConfigError(f"a {kind} corrector needs a log or sqrt transform, not identity")


def fit_corrector(kind: str, y_raw, pred_transformed, transform: TargetTransform) -> BiasCorrector:
    """Fit a corrector of ``kind`` (see the module docstring) from actuals
    and transformed predictions; a factor that is not finite is a ``DataError``."""
    check_corrector(kind, transform)
    y_raw = np.asarray(y_raw, dtype=np.float64)
    pred_transformed = np.asarray(pred_transformed, dtype=np.float64)
    if y_raw.shape != pred_transformed.shape:
        raise DataError("actuals and predictions differ in shape")
    for values, what in ((y_raw, "actuals"), (pred_transformed, "transformed predictions")):
        if not np.isfinite(values).all():
            raise DataError(f"a {kind} corrector needs finite {what}")
    if kind == "none":
        return BiasCorrector()
    needed = 2 if kind == "variance_based" else 1
    if y_raw.size < needed:
        raise DataError(f"a {kind} corrector needs at least {needed} rows, "
                        f"got {y_raw.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # a factor that is not finite is named below
        residuals = forward(transform, y_raw) - pred_transformed
        if kind == "variance_based":
            factors = [float(np.exp(0.5 * np.var(residuals)))]
        else:
            smearing = float(np.mean(np.exp(residuals)))
            factors = ([smearing] if kind == "smearing"
                       else _binned_factors(y_raw, pred_transformed, transform, smearing))
    return BiasCorrector(kind, tuple(finite(factors, f"a {kind} corrector's factor")))


def _binned_factors(y_raw, pred_transformed, transform: TargetTransform,
                    smearing: float) -> list[float]:
    """A prediction_binned corrector's factors; each falls back as the module
    docstring says, so every one is positive and finite."""
    fallback = smearing if smearing > 0.0 and math.isfinite(smearing) else 1.0
    backmapped = inverse(transform, pred_transformed)
    n_bins = max(1, int(np.floor(np.max(pred_transformed) / BIN_WIDTH)) + 1)
    idx = bin_index(pred_transformed, n_bins)
    factors = []
    for b in range(n_bins):
        mask = idx == b
        denom = float(np.mean(backmapped[mask])) if np.sum(mask) >= MIN_BIN_COUNT else 0.0
        factor = float(np.mean(y_raw[mask])) / denom if denom > 0.0 else fallback
        factors.append(factor if factor > 0.0 and math.isfinite(factor) else fallback)
    return factors
