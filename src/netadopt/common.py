"""Shared constants and error types used across the package."""

from __future__ import annotations

import math
from fractions import Fraction

# Sentinel adoption time for an agent that never adopts.  Using the float
# infinity keeps arithmetic like ``tau + k + 1`` and comparisons against
# integer periods well defined.
NEVER = math.inf


def is_never(t) -> bool:
    """True when an adoption time is the NEVER sentinel."""
    return t == NEVER

STATE_HIGH = "H"
STATE_LOW = "L"
STATES = (STATE_HIGH, STATE_LOW)


class StrategyViolationError(RuntimeError):
    """A strategy consulted information it cannot observe."""


class ImpossibleHistoryError(ValueError):
    """A conditioning history has probability zero under the profile."""


class RegimeError(ValueError):
    """Parameters fall outside the regime a construction requires."""


class TruncationError(ValueError):
    """A truncated network is too small for the requested computation."""


def as_fraction(x) -> Fraction:
    """Convert a number to an exact Fraction, reading floats decimally.

    A float like 0.9 is taken to mean nine tenths (via its shortest decimal
    repr), not the underlying binary value.  Fractions, ints and numeric
    strings pass through exactly; a bool is refused.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot convert {x!r} to an exact fraction")
        return Fraction(str(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a fraction")


def as_int(x) -> int:
    """Convert a number or numeric string to an int, refusing to truncate:
    3.7, "3.5", None and the bools raise ValueError."""
    try:
        number = None if isinstance(x, bool) else int(x)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (not isinstance(x, str) and number != x):
        raise ValueError(f"must be an integer, got {x!r}")
    return number


def as_bool(x) -> bool:
    """A JSON boolean as is; anything else, such as "false" or 0, raises
    ValueError."""
    if not isinstance(x, bool):
        raise ValueError(f"must be true or false, got {x!r}")
    return x


_REQUIRED = object()


def spec_value(body, name: str, where: str, convert, default=_REQUIRED):
    """body[name] of the config fragment where, through convert.

    A null body has no fields, and a null field gives default.  A missing
    required field, a body that is not a mapping, and a value convert
    rejects are each a ValueError that names the field as where.name, or
    as name when where is empty (a top-level field).
    """
    label = f"{where}.{name}" if where else name
    if body is None:
        body = {}
    if not isinstance(body, dict):
        raise ValueError(f"{where} must be a mapping, got {body!r}")
    value = body.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"{label} is required")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{label}: {exc}") from None
