"""Exception types shared across the package, and the one reader of a config block.

``read_block`` reads every JSON block of a config (the top level, the
dataset, the classifier and a ``synth`` spec) into its config dataclass:
it refuses a non-object, unknown keys and missing required keys by name.
The dataclass then runs ``check_fields``, which runs ``check_value`` over
each of its fields, with the type from the field's annotation string (``T |
None`` for a nullable one) and, from its metadata, the lower bound
(``{">=": low}`` or ``{">": low}``) and the JSON key if not the name.
"""

import math
import numbers
from dataclasses import MISSING, fields


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
        value, kind = getattr(config, f.name), f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        strict = ">" in f.metadata
        low = f.metadata[">"] if strict else f.metadata.get(">=")
        check_value(f.metadata.get("key") or f.name, value, kind, low, strict)


def read_block(cls, raw, block: str, path=None, *, nested=False, nulls=False):
    """Build the config dataclass ``cls`` from ``raw``, the JSON value of a ``block``.

    ``cls`` may be a kind table, ``{kind: dataclass}``, whose entry the
    block's ``kind`` key picks. A non-object (naming ``path``, the file it
    came from, if given), an unknown kind, unknown keys and missing required
    keys are refused by name. A field's JSON key is its ``key`` metadata,
    else its name; a field whose key is None is not read. With ``nulls`` a
    null value keeps its field's default; with ``nested`` a value ``cls``
    refuses is named as the block's.
    """
    if not isinstance(raw, dict):
        where = "" if path is None else f"{path}: "
        raise ConfigError(f"{where}{block} must be a JSON object, got {raw!r}")
    if isinstance(cls, dict):
        kind = raw.get("kind")
        if not isinstance(kind, str) or kind not in cls:
            raise ConfigError(f"unknown {block} kind {kind!r}")
        cls, raw = cls[kind], {k: v for k, v in raw.items() if k != "kind"}
    if nulls:
        raw = {k: v for k, v in raw.items() if v is not None}
    names = {f.metadata.get("key", f.name): f for f in fields(cls)}
    names.pop(None, None)  # a field that its owner sets, not the block
    extra = set(raw) - set(names)
    if extra:
        raise ConfigError(f"unknown {block} keys {sorted(extra)}")
    missing = [key for key, f in names.items()
               if key not in raw and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing required {block} keys {sorted(missing)}")
    try:
        return cls(**{names[key].name: value for key, value in raw.items()})
    except ConfigError as exc:
        if not nested:
            raise
        raise ConfigError(f"{block}: {exc}") from exc
