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
    strings pass through exactly.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot convert {x!r} to an exact fraction")
        return Fraction(str(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a fraction")
