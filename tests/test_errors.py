"""The package's failures come in two families, ``ConfigError`` and
``DataError``, under ``SkewcastError``; callers and the CLI tell them
apart by family, and the message names the cause."""

import importlib
import pkgutil

import skewcast as sc


def test_the_package_defines_only_the_two_families():
    """A subclass that no caller tells apart from its family would carry
    no information the message does not."""
    defined = set()
    for info in pkgutil.iter_modules(sc.__path__, "skewcast."):
        module = importlib.import_module(info.name)
        defined |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == info.name}
    assert defined == {sc.SkewcastError, sc.ConfigError, sc.DataError}
    assert sc.ConfigError.__bases__ == sc.DataError.__bases__ == (sc.SkewcastError,)
