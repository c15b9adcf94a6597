"""Small helpers for exact rational values used throughout the pipeline."""

from __future__ import annotations

import numbers
from fractions import Fraction

from .errors import ValidationError


def as_fraction(value) -> Fraction:
    """Coerce a threshold-like value to an exact Fraction.

    Strings accept decimals and fractions ("11.5", "23/2", "-3"). Floats, and
    other real numbers such as numpy's float32, are converted through their
    shortest decimal repr, so 11.5 means 23/2 and 0.1 means 1/10. Integers,
    numpy's int64 among them, are taken as they are; booleans are refused.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"cannot interpret {value!r} as a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = str(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {value!r} as a rational number") from exc
    # numpy's integers and floats; its bool_ is neither Integral nor Real
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, numbers.Real):
        return as_fraction(str(value))
    raise ValidationError(f"cannot interpret {value!r} as a rational number")


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as 'n' or 'n/d' (exact, parseable by as_fraction)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
