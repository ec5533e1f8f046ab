"""The JSON dict round trip shared by every config dataclass."""

from __future__ import annotations

from dataclasses import fields
from typing import Mapping

from .exceptions import ConfigError


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
        except TypeError as exc:
            raise ConfigError(f"bad {cls.__name__}: {exc}") from None
