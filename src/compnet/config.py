"""The JSON dict round trip shared by every config dataclass."""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Mapping

import numpy as np

from .exceptions import ConfigError


def require_ints(cfg, **minimums: int) -> None:
    """Check that each named field of ``cfg`` is an integer (not a bool) >= its minimum.

    Valid values are stored back as plain ``int``; anything else is a
    ``ConfigError``.
    """
    for name, low in minimums.items():
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
                or value < low:
            raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        setattr(cfg, name, int(value))


def require_floats(cfg, *names: str) -> None:
    """Check that each named field of ``cfg`` is a finite real number.

    A bool, text or a non-finite value is a ``ConfigError``, so a JSON
    ``true`` cannot pass a range check as 1.0.  Valid values are kept as
    given; the range checks stay with each config class.
    """
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                             np.floating)) \
                or not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def require_bools(cfg, *names: str) -> None:
    """Check that each named field of ``cfg`` is a bool, stored back as plain ``bool``.

    Anything else is a ``ConfigError``, so the JSON text ``"false"`` cannot
    pass as true.
    """
    for name in names:
        value = getattr(cfg, name)
        if not isinstance(value, (bool, np.bool_)):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        setattr(cfg, name, bool(value))


class DictConfig:
    """Mixin for config dataclasses: ``to_dict`` and a validating ``from_dict``.

    Tuples are written as JSON lists and JSON lists are read back as
    tuples.
    """

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, d: Mapping):
        """Build from a parsed JSON object; any bad key or value is a ``ConfigError``."""
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown {cls.__name__} keys: {sorted(extra)}")
        try:
            return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {cls.__name__}: {exc}") from None
