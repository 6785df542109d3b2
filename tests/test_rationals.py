import decimal
import random
import sys
from fractions import Fraction

import pytest

from subtree_density.rationals import _CHUNK, _int_text, _leaf_rule_text, to_decimal


@pytest.fixture
def lifted():
    """str() of any int: the int-to-str digit limit lifted for the test, then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit to lift
        yield
        return
    found = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(found)


class TestIntText:
    @pytest.mark.parametrize("value", [0, 1, -1, 9, -10, 10 ** _CHUNK - 1, -(10 ** _CHUNK)],
                             ids=["0", "1", "-1", "9", "-10", "10**600-1", "-10**600"])
    def test_short(self, value):
        assert _int_text(value) == str(value)

    @pytest.mark.parametrize("j", range(7))
    def test_ladder_boundaries(self, lifted, j):
        # 10**k - 1, 10**k and 10**k + 1 on the boundary k = 600 * 2**j
        for d in (-1, 0, 1):
            value = 10 ** (_CHUNK << j) + d
            assert _int_text(value) == str(value)
            assert _int_text(-value) == str(-value)

    def test_random_up_to_100000_bits(self, lifted):
        rng = random.Random(0)
        for _ in range(25):
            value = rng.getrandbits(rng.randrange(1, 100_000))
            assert _int_text(value) == str(value)

    def test_chunks_with_zero_runs(self, lifted):
        # a chunk of all zeros, and chunks that are themselves short, must keep full width
        value = 7 * 10 ** 5000 + 3 * 10 ** 1800 + 5
        assert _int_text(value) == str(value)


class TestLeafRuleText:
    @pytest.mark.parametrize("x", [10 ** 1200, 10 ** 1200 + 1, 2 ** 4000 + 1, 3 ** 3000 - 1],
                             ids=["10**1200", "10**1200+1", "2**4000+1", "3**3000-1"])
    def test_both_ways(self, lifted, x):
        assert _leaf_rule_text(str(2 * x - 2), True) == str(x)
        assert _leaf_rule_text(str(x), False) == str(2 * x - 2)


class TestToDecimal:
    @pytest.mark.parametrize("value", [
        Fraction(0), Fraction(-7, 3), Fraction(3 ** 5000, 7 ** 3000), Fraction(-(2 ** 9000) - 1, 3),
    ], ids=["0", "-7/3", "3**5000/7**3000", "-(2**9000+1)/3"])
    @pytest.mark.parametrize("digits", [1, 15, 200])
    def test_matches_decimal_of_ints(self, value, digits):
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            expected = str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))
        assert to_decimal(value, digits) == expected
