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

from .errors import ConfigError, DomainError, EmptyInput, check_numbers, json_object

_KINDS = ("identity", "log", "sqrt")


@dataclass(frozen=True)
class TargetTransform:
    """Target-variable transform: identity, log(y + offset), or sqrt(y).

    ``offset`` only applies to the log kind.  The default offset of 1.0
    keeps zero-sales days representable; offset 0 requires strictly
    positive targets.
    """

    kind: str = "identity"
    offset: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown transform kind {self.kind!r}")
        check_numbers(self, reals=("offset",))
        if self.offset < 0:
            raise ConfigError("log offset must be non-negative")

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    def label(self) -> str:
        if self.kind == "log":
            return f"log(y+{self.offset:g})"
        return self.kind

    def to_json(self) -> dict:
        return {"kind": self.kind, "offset": self.offset}

    @classmethod
    def from_json(cls, obj: dict) -> "TargetTransform":
        obj = json_object(obj, "transform")
        return cls(kind=obj["kind"], offset=float(obj.get("offset", 1.0)))


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
        raise DomainError("targets must be non-negative")
    if t.kind == "identity":
        out = y.copy()
    elif t.kind == "log":
        if np.any(y + t.offset <= 0):
            raise DomainError("log transform needs y + offset > 0")
        # log1p keeps the round trip accurate near zero for the default offset
        out = np.log1p(y) if t.offset == 1.0 else np.log(y + t.offset)
    else:
        out = np.sqrt(y)
    return float(out) if out.ndim == 0 else out


def inverse(t: TargetTransform, z):
    """Back-transform model-unit values; the result is clamped at 0."""
    z = np.asarray(z, dtype=np.float64)
    if t.kind == "identity":
        out = np.maximum(z, 0.0)
    elif t.kind == "log":
        raw = np.expm1(z) if t.offset == 1.0 else np.exp(z) - t.offset
        out = np.maximum(raw, 0.0)
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
        raise EmptyInput("jensen_gap needs a non-empty sample")
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
