import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebconst.bounds import ln_bounds, sqrt_bounds

LN2 = Fraction("0.69314718055994530941723212145817656807")
LN10 = Fraction("2.30258509299404568401799145468436420760")


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(10**9)))
@settings(max_examples=200, deadline=None)
def test_sqrt_brackets_exactly(y):
    lo, hi = sqrt_bounds(y, 48)
    assert lo * lo <= y
    assert hi * hi > y
    assert hi - lo == Fraction(1, 1 << 48)


def test_sqrt_of_perfect_square_is_tight():
    lo, hi = sqrt_bounds(Fraction(144), 32)
    assert lo == 12
    assert hi == 12 + Fraction(1, 1 << 32)


def test_ln_known_values():
    for y, reference in [(2, LN2), (10, LN10), (1024, 10 * LN2)]:
        lo, hi = ln_bounds(Fraction(y), 80)
        assert lo <= reference <= hi
        assert hi - lo <= Fraction(1, 1 << 80)


def _ln_reference(y: Fraction) -> Fraction:
    with mpmath.workdps(60):  # error below 10**-55
        return Fraction(str(mpmath.log(mpmath.mpf(y.numerator) / y.denominator)))


@pytest.mark.parametrize("y", [
    # y in (1, 2) is its own mantissa: e = 0 returns the series bounds.
    Fraction(3, 2), Fraction(7, 5), Fraction(10**6 + 1, 10**6),
    Fraction(2 * 10**6 - 1, 10**6),
    # At 2**e the mantissa is exactly 1, just below it close to 2.
    *(Fraction(1 << e) for e in range(1, 70, 7)),
    *((1 << e) - Fraction(1, 3) for e in range(1, 70, 7)),
])
def test_ln_brackets_mpmath_reference(y):
    lo, hi = ln_bounds(y, 80)
    assert lo <= _ln_reference(y) <= hi
    assert hi - lo <= Fraction(1, 1 << 80)


def test_ln_one_is_zero():
    assert ln_bounds(Fraction(1), 30) == (0, 0)


def test_ln_reciprocal_negates():
    lo, hi = ln_bounds(Fraction(1, 7), 60)
    lo7, hi7 = ln_bounds(Fraction(7), 60)
    assert lo == -hi7 and hi == -lo7


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_ln_brackets_float_reference(y):
    lo, hi = ln_bounds(Fraction(y), 60)
    ref = Fraction(math.log(y))
    slack = Fraction(1, 1 << 40)  # double-precision reference error margin
    assert lo - slack <= ref <= hi + slack
    assert hi - lo <= Fraction(1, 1 << 60)
    assert lo > 0


@given(st.integers(min_value=2, max_value=10**6),
       st.integers(min_value=2, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_ln_additive_consistency(a, b):
    # ln(a*b) bounds and ln(a)+ln(b) bounds must overlap.
    lo_ab, hi_ab = ln_bounds(Fraction(a * b), 70)
    lo_sum = ln_bounds(Fraction(a), 70)[0] + ln_bounds(Fraction(b), 70)[0]
    hi_sum = ln_bounds(Fraction(a), 70)[1] + ln_bounds(Fraction(b), 70)[1]
    assert lo_ab <= hi_sum and lo_sum <= hi_ab
