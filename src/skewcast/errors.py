"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the CLI exit codes):
configuration problems (bad knobs, incompatible choices) and data
problems (malformed files, values outside a valid domain).
"""

import datetime as dt
import json
import math
from dataclasses import fields
from numbers import Integral, Real

import numpy as np


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


def read_json(path, what: str):
    """The JSON value in a UTF-8 file; any failure is a ``ConfigError`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{what} {path} nests too deeply to parse") from None


def json_object(obj, what: str, cls=None, extra=()) -> dict:
    """``obj`` itself if it is a JSON object; otherwise a ``ConfigError`` naming ``what``.

    With a dataclass ``cls``, every key must also name one of its fields
    or be one of ``extra``, so a misspelt field is an error, not a silent
    default.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if cls is not None:
        unknown = sorted(set(obj) - {f.name for f in fields(cls)} - set(extra))
        if unknown:
            raise ConfigError(f"{what} JSON has unknown field {unknown[0]!r}")
    return obj


class JsonRecord:
    """A dataclass written as JSON by one rule, the writer's side of
    ``json_object``: each field that is not None, by name.

    A nested record becomes an object, a tuple or list a list, a numpy
    array or scalar its ``tolist()`` and a date its ISO text.
    """

    def to_json(self) -> dict:
        return {f.name: _json_value(value) for f in fields(self)
                if (value := getattr(self, f.name)) is not None}


def _json_value(value):
    if isinstance(value, JsonRecord):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dt.date):
        return value.isoformat()
    return value


def is_integer(value) -> bool:
    """An integral number that is not a ``bool``."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite real number that is not a ``bool``; an integer is also real."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


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
        real(getattr(obj, name), name)


def real(value, name: str) -> float:
    """``value`` as a float if it is a finite real number; else a
    ``ConfigError`` naming ``name``."""
    if not is_real(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def json_numbers(values, name: str, integers: bool = False) -> list:
    """A JSON list of finite real numbers as floats, or with ``integers`` of
    integers as they are; otherwise a ``ConfigError`` naming ``name``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {type(values).__name__}")
    if integers:
        for value in values:
            if not is_integer(value):
                raise ConfigError(f"{name} must hold integers, got {value!r}")
        return list(values)
    return [real(value, name) for value in values]


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
