"""Exact rationals and counts as text; `_int_text` is the one way a count becomes digits.

CPython's int-to-str conversion is quadratic in the digit count and refuses
ints past the interpreter's digit limit.  `_int_text` hands `str()` at most
`_CHUNK` = 600 digits at a time: a longer int is split by divmod on a ladder
of cached powers 10**(600 * 2**j), and each piece below the top one is
zero-padded to its full width.  The divmods are quadratic too in CPython
3.11, but cheaper per digit than `str()` on a long int.  600 is below 640,
the lowest non-zero limit CPython allows, so the limit stays as set,
guarding parsing.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from functools import lru_cache

_CHUNK = 600
_SHORT = 10 ** _CHUNK  # an int below it has at most _CHUNK digits and goes straight to str()


@lru_cache(maxsize=None)
def _rung(j: int) -> int:
    """10**(_CHUNK * 2**j): the ladder holds one rung per doubling of the digit count."""
    return _SHORT if j == 0 else _rung(j - 1) ** 2


def _int_text(value: int) -> str:
    """str(value) at any digit count, with `str()` seeing at most _CHUNK digits at a time."""
    if value < 0:
        return "-" + _int_text(-value)
    if value < _SHORT:
        return str(value)
    j = 0
    while _rung(j + 1) <= value:
        j += 1
    high, low = divmod(value, _rung(j))
    return _int_text(high) + _padded_text(low, j)


def _padded_text(value: int, j: int) -> str:
    """value < _rung(j) as exactly _CHUNK * 2**j digits, with leading zeros."""
    if j == 0:
        return str(value).zfill(_CHUNK)
    high, low = divmod(value, _rung(j - 1))
    return _padded_text(high, j - 1) + _padded_text(low, j - 1)


def _leaf_rule_text(text: str, halve: bool) -> str:
    """Digits of x / 2 + 1 (halve; x even) or of 2x - 2 from the digits of x.

    Linear time: Decimal parses and prints digits without int conversion.  The
    precision holds every digit of the result and Inexact is trapped, so any
    rounding would raise instead of printing wrong digits.
    """
    ctx = decimal.Context(prec=len(text) + 1, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    x = decimal.Decimal(text)
    return str(ctx.add(ctx.divide(x, 2), 1) if halve else ctx.subtract(ctx.multiply(x, 2), 2))


def to_decimal(value: Fraction, digits: int) -> str:
    """Decimal rendering of an exact rational to `digits` significant digits.

    Both Decimals are parsed from `_int_text` digits: Decimal(str) is linear
    in the digit count, Decimal(int) quadratic.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = decimal.Decimal(_int_text(value.numerator)) / decimal.Decimal(_int_text(value.denominator))
    return str(d)


def ratio_json(value: Fraction) -> dict:
    return {"num": _int_text(value.numerator), "den": _int_text(value.denominator)}


def format_ratio(value: Fraction) -> str:
    if value.denominator == 1:
        return _int_text(value.numerator)
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"
