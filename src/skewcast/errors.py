"""The package's two error families, and the one type rule, JSON reader and
JSON writer of its configs, trees and saved models (``JsonRecord``): a
field's declared type, checked as a frozen record is built.

Every failure the package reports is a ``ConfigError`` (a bad or
incompatible setting, plan, arm or saved model; CLI exit 2) or a
``DataError`` (a panel, array or file the run cannot use, a failed read or
write, a value outside a loss's or transform's domain; CLI exit 3), both
under ``SkewcastError``. Callers tell failures apart by family; the message
names the cause: the file, line, field, arm or origin.
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
from operator import is_

import numpy as np


class SkewcastError(Exception):
    """Base class for all package errors."""


class ConfigError(SkewcastError):
    """Invalid or incompatible configuration."""


class DataError(SkewcastError):
    """Input data violates a contract."""


def write_blocks(path, blocks) -> None:
    """Write a text file as UTF-8, each of ``blocks`` (read once, lazily) as it comes;
    an ``OSError``, partway through too, becomes a ``DataError`` naming the file."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for block in blocks:
                fh.write(block)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write a whole text file as UTF-8: one block of ``write_blocks``."""
    write_blocks(path, (text,))


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
    """A frozen dataclass with one type rule for its fields, in code and in JSON.

    A field's declared type is its rule (``_typed``): ``str`` is text,
    ``int`` an integer, ``float`` a finite number (an integer too; a
    ``bool`` is neither), ``X | None`` None or an X, ``tuple[...]`` a tuple
    or list of its items (exactly its length for a fixed tuple), a record an
    instance, ``np.ndarray`` an array of numbers (finite ones in JSON),
    ``IntArray`` an array of integers, and ``dt.date`` an instance.
    ``__post_init__`` checks every field by it and stores a list as a
    tuple and a writable array as a read-only copy, so a record built in
    code passes the rule a JSON one does and holds nothing its caller can
    change; a record's own ``__post_init__`` calls it first and then
    checks only values.  Every record is declared ``frozen=True``: it is
    checked whole once, when it is constructed, and ``dataclasses.replace``
    is the one way to a changed record, checked again.

    ``to_json`` writes each field that is not None under its name: a record
    as an object, a tuple as a list, a numpy array or scalar as its
    ``tolist()`` and a date as ISO text.  ``from_json`` reads it back: a key
    may be left out only if its field has a default, and a JSON list,
    object or text becomes the tuple, array, record or date its
    field declares; nothing else is converted.  ``JSON_NAME`` names the
    record in errors.
    """

    def __post_init__(self):
        for name, kind, _ in _json_fields(type(self)):
            object.__setattr__(self, name, _typed(getattr(self, name), kind, name))

    def to_json(self) -> dict:
        return {f.name: _json_value(value) for f in fields(self)
                if (value := getattr(self, f.name)) is not None}

    @classmethod
    def from_json(cls, obj):
        obj = json_object(obj, cls.JSON_NAME, cls)
        kwargs = {}
        for name, kind, required in _json_fields(cls):
            if name in obj:
                kwargs[name] = _typed(obj[name], kind, name, read=True)
            elif required:
                raise ConfigError(f"{cls.JSON_NAME} JSON missing field {name!r}")
        return cls(**kwargs)


@cache
def _json_fields(cls) -> tuple:
    """(name, declared type, required?) of each field of a record class."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


# the declared type of an array of integers, such as a tree's node indices
IntArray = np.ndarray[typing.Any, np.dtype[np.int64]]

# what a value of each declared type must be; any other type is a record
_EXPECTED = {str: "text", int: "an integer", float: "a finite number",
             np.ndarray: "an array of numbers", IntArray: "an integer array",
             dt.date: "a date"}


def _typed(value, kind, name: str, read: bool = False):
    """``value`` as a record holds it (a tuple, an array read-only) if it has field
    ``name``'s declared type ``kind``; else a ``ConfigError`` naming the field.  With
    ``read``, ``value`` is JSON, and a list, object or text becomes what ``kind`` declares."""
    origin, args = _parts(kind)
    if origin is types.UnionType:  # X | None
        return None if value is None else _typed(value, args[0], name, read)
    if origin is tuple:
        if not isinstance(value, (tuple, list)):
            raise ConfigError(f"{name} must be a list, got {type(value).__name__}")
        if args[1:] == (...,):
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{name} must be a list of {len(args)}, got {len(value)} items")
        items = tuple(_typed(v, a, name, read) for v, a in zip(value, args))
        return value if isinstance(value, tuple) and all(map(is_, items, value)) else items
    if read and kind not in _EXPECTED and isinstance(value, (dict, str)):
        return kind.from_json(value)  # an object, or the id of a standard arm
    if read and kind in (np.ndarray, IntArray) and isinstance(value, list):
        item, dtype = (float, np.float64) if kind is np.ndarray else (int, np.int64)
        try:
            value = np.asarray([_typed(v, item, name) for v in value], dtype=dtype)
        except OverflowError:  # an integer beyond 64 bits
            raise ConfigError(f"{name} must hold 64-bit integers") from None
    if read and kind is dt.date and isinstance(value, str):
        try:
            return parse_day(value)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    check = _CHECKS.get(kind)
    if not (check(value) if check else isinstance(value, kind)):
        raise ConfigError(f"{name} must be {_EXPECTED.get(kind, 'an object')}, "
                          f"got {type(value).__name__}")
    if isinstance(value, np.ndarray) and value.flags.writeable:  # the record's own, read-only
        value = value.copy()
        value.setflags(write=False)
    return value


@cache
def _parts(kind) -> tuple:
    """``typing``'s origin and arguments of a declared type, taken once per type."""
    return typing.get_origin(kind), typing.get_args(kind)


def _json_value(value):
    if isinstance(value, JsonRecord):
        return value.to_json()
    if isinstance(value, tuple):
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


def at_least(obj, **bounds) -> None:
    """``ConfigError`` unless each named field of ``obj`` is at least its bound."""
    for name, least in bounds.items():
        if getattr(obj, name) < least:
            raise ConfigError(f"{name} must be >= {least}, got {getattr(obj, name)}")


# the declared types an ``isinstance`` test does not decide
_CHECKS = {int: is_integer, float: is_real,
           np.ndarray: lambda value: isinstance(value, np.ndarray) and value.dtype.kind in "iuf",
           IntArray: lambda value: isinstance(value, np.ndarray) and value.dtype.kind == "i"}


def finite(values, what: str):
    """``values`` if every one is a finite number; else a ``DataError``
    saying that ``what`` is not finite."""
    if not np.isfinite(values).all():
        raise DataError(f"{what} is not finite")
    return values


def real(value, name: str) -> float:
    """``value`` as a float if it is a finite real number; else a
    ``ConfigError`` naming ``name``."""
    if not is_real(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)
