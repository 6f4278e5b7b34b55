"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the CLI exit codes):
configuration problems (bad knobs, incompatible choices) and data
problems (malformed files, values outside a valid domain).
"""

import math
from numbers import Integral, Real


class SkewcastError(Exception):
    """Base class for all package errors."""


class ConfigError(SkewcastError):
    """Invalid or incompatible configuration."""


class DataError(SkewcastError):
    """Input data violates a contract."""


class MalformedRow(DataError):
    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: {detail}")
        self.line_no = line_no


class NegativeSales(DataError):
    def __init__(self, line_no: int, value: float):
        super().__init__(f"line {line_no}: negative sales {value}")
        self.line_no = line_no


class DuplicateKey(DataError):
    def __init__(self, item_id: str, day):
        super().__init__(f"duplicate (item, day) pair: ({item_id!r}, {day})")
        self.item_id = item_id
        self.day = day


class IoFailure(DataError):
    """Filesystem write failed."""


def write_text(path, text: str) -> None:
    """Write a whole text file as UTF-8; an ``OSError`` becomes ``IoFailure``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def json_object(obj, what: str) -> dict:
    """``obj`` itself if it is a JSON object; otherwise a ``ConfigError`` naming ``what``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def is_integer(value) -> bool:
    """An integral number that is not a ``bool``."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_numbers(obj, integers: dict | None = None, reals=()) -> None:
    """``ConfigError`` unless the named fields of ``obj`` hold numbers.

    ``integers`` maps each integer field to its least allowed value, or
    to None for any integer; each field in ``reals`` must be a finite
    real number.  A ``bool`` is neither, and an integer is also real.
    """
    for name, least in (integers or {}).items():
        value = getattr(obj, name)
        if not is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if least is not None and value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")
    for name in reals:
        value = getattr(obj, name)
        if not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


class DomainError(DataError):
    """Value outside the valid domain of a transform or loss."""


class EmptyInput(DataError):
    pass


class LengthMismatch(DataError):
    pass


class ShapeMismatch(DataError):
    pass


class InsufficientData(DataError):
    pass


class InsufficientHistory(DataError):
    pass


class DegenerateData(DataError):
    pass


class NoValidItems(DataError):
    pass


class DegenerateBaseline(DataError):
    pass
