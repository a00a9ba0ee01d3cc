"""Exception types shared across the package, and the one check of a config value.

``check_fields`` runs ``check_value`` over every field of a config dataclass,
with the type from the field's annotation string and, from its metadata, the
lower bound (``{">=": low}`` or ``{">": low}``) and the key if not the name.
"""

import math
import numbers
from dataclasses import fields


class NumericError(ArithmeticError):
    """A non-finite value appeared where the dynamics require finite numbers."""


class FormatError(ValueError):
    """A binary or CSV artifact does not follow its declared layout."""


class ConfigError(ValueError):
    """An experiment or command configuration is malformed."""


def check_value(key: str, value, kind: str, low=None, strict: bool = False) -> None:
    """Check that ``value`` is a ``kind`` ("float", "int" or "bool") at or above ``low``.

    A float is a finite real and an int an integral one, neither a bool; with
    ``strict`` the value must exceed ``low``. Any other kind is not checked.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind == "float" and not (real and math.isfinite(value)):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if kind == "int" and not (real and isinstance(value, numbers.Integral)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if kind == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    if low is not None and (value <= low if strict else value < low):
        raise ConfigError(f"{key} must be {'>' if strict else '>='} {low}, got {value}")


def check_fields(config) -> None:
    """``check_value`` on every field of the dataclass ``config``, in declaration order."""
    for f in fields(config):
        strict = ">" in f.metadata
        low = f.metadata[">"] if strict else f.metadata.get(">=")
        check_value(f.metadata.get("key", f.name), getattr(config, f.name), f.type, low, strict)
