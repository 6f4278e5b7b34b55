"""Exception hierarchy shared across the package, and the one JSON
reader and writer of its configs and saved models (``JsonRecord``).

Two broad families matter to callers (and to the CLI exit codes):
configuration problems (bad knobs, incompatible choices) and data
problems (malformed files, values outside a valid domain).
"""

import datetime as dt
import json
import math
import re
import types
import typing
from dataclasses import MISSING, fields
from functools import cache
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


def json_object(obj, what: str, cls=None) -> dict:
    """``obj`` itself if it is a JSON object; otherwise a ``ConfigError`` naming ``what``.

    With a dataclass ``cls``, every key must also name one of its fields,
    so a misspelt field is an error, not a silent default.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if cls is not None:
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"{what} JSON has unknown field {unknown[0]!r}")
    return obj


# date.fromisoformat alone also reads 20210301 and week dates on Python 3.11, not on 3.10
_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_day(text: str) -> dt.date:
    """An ASCII ``YYYY-MM-DD`` date on every Python; anything else is a ``ValueError``."""
    if not _ISO_DAY.fullmatch(text):
        raise ValueError(f"date must be YYYY-MM-DD, got {text!r}")
    return dt.date.fromisoformat(text)


class JsonRecord:
    """A dataclass written and read as JSON by one rule each way.

    ``to_json`` writes each field that is not None under its name: a record
    as an object, a tuple or list as a list, a numpy array or scalar as its
    ``tolist()`` and a date as ISO text.  ``from_json`` reads it back: a key
    may be left out only if its field has a default, and each value must
    have its field's declared type (``_read``); nothing is converted, and
    ``__post_init__`` checks the values as in any construction.
    ``JSON_NAME`` names the record in errors.
    """

    def to_json(self) -> dict:
        return {f.name: _json_value(value) for f in fields(self)
                if (value := getattr(self, f.name)) is not None}

    @classmethod
    def from_json(cls, obj):
        obj = json_object(obj, cls.JSON_NAME, cls)
        kwargs = {}
        for name, kind, required in _json_fields(cls):
            if name in obj:
                kwargs[name] = _read(obj[name], kind, name)
            elif required:
                raise ConfigError(f"{cls.JSON_NAME} JSON missing field {name!r}")
        return cls(**kwargs)


@cache
def _json_fields(cls) -> tuple:
    """(name, declared type, required?) of each field of a record class."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


def _read(value, kind, name: str):
    """JSON ``value`` as field ``name`` of declared type ``kind``: text for
    ``str``, an integer for ``int``, a finite number (an integer too) for
    ``float``, null or an X for ``X | None``, a list for a tuple or list
    (of exactly its length for a fixed tuple), an object for a record, a
    list of finite numbers for a numpy array and ``YYYY-MM-DD`` for a date."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (types.UnionType, typing.Union):  # X | None
        return None if value is None else _read(value, args[0], name)
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {type(value).__name__}")
        if origin is list or args[1:] == (...,):
            return origin(_read(v, args[0], name) for v in value)
        if len(value) != len(args):
            raise ConfigError(f"{name} must be a list of {len(args)}, got {len(value)} items")
        return tuple(_read(v, a, name) for v, a in zip(value, args))
    if isinstance(kind, type) and issubclass(kind, JsonRecord):
        return kind.from_json(value)
    if kind is np.ndarray:
        return json_numbers(value, name)
    if kind is dt.date:
        try:
            return parse_day(_read(value, str, name))
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    accepts, expected = _SCALARS[kind]
    if not accepts(value):
        raise ConfigError(f"{name} must be {expected}, got {type(value).__name__}")
    return value


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


# each scalar type a record field may declare: (test of a JSON value, what it must be)
_SCALARS = {str: (lambda v: isinstance(v, str), "text"),
            int: (is_integer, "an integer"),
            float: (is_real, "a finite number")}


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


def json_numbers(values, name: str, integers: bool = False) -> np.ndarray:
    """A JSON list of finite real numbers as a float64 array, or with
    ``integers`` of integers as int64; otherwise a ``ConfigError`` naming ``name``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {type(values).__name__}")
    if integers:
        for value in values:
            if not is_integer(value):
                raise ConfigError(f"{name} must hold integers, got {value!r}")
        return np.asarray(values, dtype=np.int64)
    return np.asarray([real(value, name) for value in values], dtype=np.float64)


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
