"""Target transforms and direct measurement of the Jensen gap.

A concave transform of the target (log or square root) followed by a
naive inverse of the point prediction systematically under-shoots the
mean of the raw variable.  ``jensen_gap`` quantifies that shortfall on a
sample: the difference between the arithmetic mean and the
back-transformed mean of the transformed values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, JsonRecord

_KINDS = ("identity", "log", "sqrt")


@dataclass(frozen=True)
class TargetTransform(JsonRecord):
    """Target-variable transform: identity, log(y + 1), or sqrt(y).

    The log kind adds 1 so that zero-sales days stay representable.
    """

    JSON_NAME = "transform"

    kind: str

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown transform kind {self.kind!r}")

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"


@dataclass(frozen=True)
class JensenGapReport:
    """Arithmetic mean vs. back-transformed mean of the transformed sample."""

    mean_of_transformed_backmapped: float
    mean_raw: float
    gap: float
    relative_gap: float


def forward(t: TargetTransform, y):
    """Apply the transform to non-negative targets (scalar or array)."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 0):
        raise DataError("targets must be non-negative")
    if t.kind == "identity":
        out = y.copy()
    elif t.kind == "log":
        out = np.log1p(y)  # accurate near zero, where log(y + 1) would round
    else:
        out = np.sqrt(y)
    return float(out) if out.ndim == 0 else out


def inverse(t: TargetTransform, z):
    """Back-transform model-unit values; the result is clamped at 0."""
    z = np.asarray(z, dtype=np.float64)
    if t.kind == "identity":
        out = np.maximum(z, 0.0)
    elif t.kind == "log":
        out = np.maximum(np.expm1(z), 0.0)
    else:
        out = np.square(np.maximum(z, 0.0))
    return float(out) if out.ndim == 0 else out


def jensen_gap(t: TargetTransform, ys) -> JensenGapReport:
    """Measure E[Y] - f_inverse(E[f(Y)]) on a sample.

    For concave transforms (log, sqrt) the gap is non-negative and is
    zero only when all values coincide: this is exactly the bias
    introduced by back-transforming a mean prediction.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.size == 0:
        raise DataError("jensen_gap needs a non-empty sample")
    mean_raw = float(np.mean(ys))
    backmapped = float(inverse(t, float(np.mean(forward(t, ys)))))
    gap = mean_raw - backmapped
    rel = gap / mean_raw if mean_raw != 0.0 else 0.0
    return JensenGapReport(
        mean_of_transformed_backmapped=backmapped,
        mean_raw=mean_raw,
        gap=gap,
        relative_gap=rel,
    )
