"""The JSON dict round trip and field type checks shared by every config dataclass.

A field's annotation is the only statement of its type: ``DictConfig``
checks every field against it before the class's own range checks run,
so a JSON ``true``, ``2.5`` or ``"2"`` never passes as an integer, a
number or a flag.
"""

from __future__ import annotations

import sys
import types
import typing
from dataclasses import MISSING, fields
from typing import Mapping

import numpy as np

from .exceptions import ConfigError


_SCALARS = {  # annotation -> (accepted types, what the error says is needed)
    int: ((int, np.integer), "an integer"),
    float: ((int, float, np.integer, np.floating), "a finite number"),
    bool: ((bool, np.bool_), "true or false"),
    str: ((str,), "text"),
    dict: ((dict,), "an object"),
}


def check_type(name: str, value, hint):
    """``value`` checked against the annotation ``hint`` and normalised.

    An ``int`` is an integer, never a bool, stored as plain ``int``; a
    ``float`` is a finite real, never a bool, kept as given so that
    written bytes do not move; a ``bool`` is stored as plain ``bool``; a
    tuple is read from a list or a tuple, element by element.  Anything
    else is a ``ConfigError``.
    """
    if isinstance(hint, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        size = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
            raise ConfigError(f"{name} must be a list of {size or 'any number of'} "
                              f"values, got {value!r}")
        return tuple(check_type(f"{name}[{i}]", v, args[0]) for i, v in enumerate(value))
    accepted, needed = _SCALARS[hint]
    # Finite: within the double range, so not NaN, inf or a too-large integer.
    if isinstance(value, accepted) and (hint is bool or not isinstance(value, bool)) \
            and (hint is not float or abs(value) <= sys.float_info.max):
        return value if hint is float else hint(value)
    raise ConfigError(f"{name} must be {needed}, got {value!r}")


def require_min(cfg, **minimums: int) -> None:
    """Check that each named field of ``cfg``, or each entry of a tuple field,
    is >= its minimum; ``None`` passes."""
    for name, low in minimums.items():
        value = getattr(cfg, name)
        if any(v < low for v in (value if isinstance(value, tuple) else (value,))
               if v is not None):
            raise ConfigError(f"{name} must be >= {low}, got {value!r}")


class DictConfig:
    """Mixin for config dataclasses: type checks, ``to_dict`` and ``from_dict``.

    Tuples are written as JSON lists and JSON lists are read back as
    tuples.  A subclass's ``__post_init__`` calls this one first, then
    keeps only its range checks.
    """

    def __post_init__(self) -> None:
        for name, hint in typing.get_type_hints(type(self)).items():
            setattr(self, name, check_type(name, getattr(self, name), hint))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, d: Mapping):
        """Build from a parsed JSON object; an unknown, missing or bad key is a ``ConfigError``."""
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown {cls.__name__} keys: {sorted(extra)}")
        missing = [f.name for f in fields(cls) if f.name not in d
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"missing {cls.__name__} keys: {missing}")
        return cls(**d)
