"""Certified rational enclosures of sqrt and ln, and the 2**(-k/2) test.

Every bound returned here is an exact Fraction bracketing the true value,
so inequality checks built on them are rigorous: comparing an exact
left-hand side against the *lower* bound of a right-hand side can only
under-report, never over-report, a pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt


def sqrt_bounds(y, prec: int = 64) -> tuple[Fraction, Fraction]:
    """lo <= sqrt(y) <= hi with hi - lo = 2**-prec."""
    y = Fraction(y)
    if y < 0:
        raise ValueError("sqrt_bounds requires y >= 0")
    scale = 1 << (2 * prec)
    t = isqrt(y.numerator * scale // y.denominator)
    return Fraction(t, 1 << prec), Fraction(t + 1, 1 << prec)


def exceeds_half_power(num: int, den: int, k: int) -> bool:
    """num/den > 2**(-k/2) for den > 0, as num**2 * 2**k > den**2."""
    return num > 0 and num * num << k > den * den


def _atanh_ln(m: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    # ln m = 2*atanh(z) with z = (m-1)/(m+1); for m in [1, 2] we get
    # z <= 1/3, so the odd series converges geometrically (ratio <= 1/9)
    # and its wholly positive tail is bounded by the geometric majorant.
    z = (m - 1) / (m + 1)
    if z == 0:
        return Fraction(0), Fraction(0)
    z2 = z * z
    target = Fraction(1, 1 << (prec + 1))
    partial = Fraction(0)
    power = z
    i = 0
    while True:
        partial += power / (2 * i + 1)
        power *= z2
        tail = power / ((2 * i + 3) * (1 - z2))
        if tail <= target:
            break
        i += 1
    return 2 * partial, 2 * (partial + tail)


@lru_cache(maxsize=None)
def _ln2(prec: int) -> tuple[Fraction, Fraction]:
    return _atanh_ln(Fraction(2), prec)


def ln_bounds(y, prec: int = 64) -> tuple[Fraction, Fraction]:
    """lo <= ln(y) <= hi with hi - lo <= 2**-prec."""
    y = Fraction(y)
    if y <= 0:
        raise ValueError("ln_bounds requires y > 0")
    if y == 1:
        return Fraction(0), Fraction(0)
    if y < 1:
        lo, hi = ln_bounds(1 / y, prec)
        return -hi, -lo
    # Reduce to y = m * 2**e with m in [1, 2).
    e = 0
    m = y
    while m >= 2:
        m /= 2
        e += 1
    # Spread the precision target over the e*ln2 + ln m recombination.
    inner = prec + max(e, 1).bit_length() + 1
    m_lo, m_hi = _atanh_ln(m, inner)
    if e == 0:
        return m_lo, m_hi
    l2_lo, l2_hi = _ln2(inner)
    return e * l2_lo + m_lo, e * l2_hi + m_hi
