"""Exception hierarchy shared by all dctnet modules, and the value checks
that turn a wrongly typed, non-finite, out-of-range or unknown setting into
a ``ConfigError``; a checked number comes back as a plain ``int`` or
``float``."""

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


def finite_number(name: str, value, *, at_least=None, above=None,
                  below=None) -> float:
    """``value`` as a float; ``ConfigError`` naming ``name`` unless a real
    number, finite in float64, that is ``>= at_least``, ``> above`` and
    ``< below`` (each bound when given)."""
    try:
        ok = not isinstance(value, bool) and isinstance(value, numbers.Real) \
            and math.isfinite(value)
    except OverflowError:                   # an int beyond float64's range
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return _bounded(name, float(value), at_least, above, below)


def whole_number(name: str, value, *, at_least=None, below=None) -> int:
    """``value`` as an int; ``ConfigError`` naming ``name`` unless an
    integer (not a bool) that is ``>= at_least`` and ``< below`` (each bound
    when given)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return _bounded(name, int(value), at_least, None, below)


def _bounded(name: str, value, at_least, above, below):
    if at_least is not None and value < at_least:
        rule = f">= {at_least}"
    elif above is not None and value <= above:
        rule = f"> {above}"
    elif below is not None and value >= below:
        rule = f"< {below}"
    else:
        return value
    raise ConfigError(f"{name} must be {rule}, got {value!r}")


def from_fields(cls, section: str, d: dict):
    """``cls(**d)``, with keys that are not fields of ``cls`` named in a
    ``ConfigError`` instead of a ``TypeError``."""
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} fields: {sorted(unknown)}")
    return cls(**d)
