"""Exception hierarchy shared by all dctnet modules, and the value checks
that turn a wrongly typed, non-finite or unknown setting into a
``ConfigError``."""

import dataclasses
import math
import numbers


class DCTNetError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DCTNetError):
    """Invalid configuration or parameter value (bad extents, p >= 1, ...)."""


class ContractError(DCTNetError):
    """An operation was called with arguments violating its contract."""


class DataError(DCTNetError):
    """Malformed or insufficient input data (CSV cells, short splits, ...)."""


class CheckpointError(DCTNetError):
    """Unreadable, truncated, or incompatible checkpoint file."""


class TrainingError(DCTNetError):
    """Training diverged or otherwise failed mid-run."""


class SingularityError(DCTNetError):
    """A non-invertible affine map was asked to invert itself."""


def finite_number(name: str, value) -> float:
    """``value`` as a float; ``ConfigError`` unless a real number that is
    finite in float64."""
    try:
        ok = not isinstance(value, bool) and isinstance(value, numbers.Real) \
            and math.isfinite(value)
    except OverflowError:                   # an int beyond float64's range
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def whole_number(name: str, value) -> int:
    """``value`` as an int; ``ConfigError`` unless an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def from_fields(cls, section: str, d: dict):
    """``cls(**d)``, with keys that are not fields of ``cls`` named in a
    ``ConfigError`` instead of a ``TypeError``."""
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} fields: {sorted(unknown)}")
    return cls(**d)
