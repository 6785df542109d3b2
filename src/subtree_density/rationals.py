"""Exact rationals and counts as text; `_int_text` is the one way a count becomes digits."""

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
    """str(value) at any digit count. The int-to-str digit limit stays as set, guarding parsing."""
    try:
        return str(value)
    except ValueError:  # Decimal(int) is exact, not bound by that limit, and prints the same digits
        return str(decimal.Decimal(value))


def ratio_json(value: Fraction) -> dict:
    return {"num": _int_text(value.numerator), "den": _int_text(value.denominator)}


def format_ratio(value: Fraction) -> str:
    if value.denominator == 1:
        return _int_text(value.numerator)
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"
