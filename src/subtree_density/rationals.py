"""Rendering helpers for exact rationals (no floating point in results)."""

from __future__ import annotations

import decimal
from fractions import Fraction


def to_decimal(value: Fraction, digits: int) -> str:
    """Decimal rendering of an exact rational to `digits` significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return str(d)


def _int_text(value: int) -> str:
    """str(value), also past the interpreter's int-to-str digit limit, which stays as set."""
    try:
        return str(value)
    except ValueError:  # Decimal(int) is exact, not bound by that limit, and prints the same digits
        return str(decimal.Decimal(value))


def ratio_json(value: Fraction) -> dict:
    return {"num": _int_text(value.numerator), "den": _int_text(value.denominator)}


def format_ratio(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
