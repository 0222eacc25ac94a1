import os
import sys
from math import isqrt

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(SRC))

import numpy as np
import pytest

from ebconst import expand_sieve

# First 52 fractional bits of E = 1.6066951..., the published reference
# expansion; reproduced independently by both expansion methods.
GOLDEN_52 = "1001101101010000010111111001111001000011111100100010"


@pytest.fixture(scope="session")
def golden52() -> str:
    return GOLDEN_52


@pytest.fixture(scope="session")
def sieve_16384():
    return expand_sieve(16384)


def _clausen_enclosure(pos: int, work: int) -> tuple[int, int]:
    """(lower, slack): 2**work * 2**(pos-1) E lies in [lower, lower +
    slack] modulo 2**work, from Clausen's identity
    E = sum_k 2**(-k*k) (2**k + 1)/(2**k - 1).

    Term k of 2**(pos-1) E is 2**(pos-1-k*k) + 2**(pos-k*k)/(2**k - 1).
    For k <= K = isqrt(pos - 1) the first part is an integer and, as
    2**k = 1 modulo 2**k - 1, the second is 2**(pos mod k)/(2**k - 1)
    modulo 1. That is below 2**(-D) unless k - (pos mod k) <= D, and with
    D = work + bit_length(K) + 1 the at most K skipped terms add below one
    unit. Each kept term is floored (under one unit each); the terms
    k > K are taken whole while 2**(work+pos-1-k*k) >= 1, and the rest,
    each below 3 * 2**(work+pos-1-k*k), add below two units.
    """
    top = isqrt(pos - 1)
    near = work + top.bit_length() + 1
    lower = terms = 0
    for lo in range(2, top + 1, 1 << 18):
        ks = np.arange(lo, min(top + 1, lo + (1 << 18)), dtype=np.int64)
        for k in ks[ks - pos % ks <= near].tolist():
            lower += (1 << (work + pos % k)) // ((1 << k) - 1)
            terms += 1
    k = top + 1
    while (e := work + pos - 1 - k * k) >= 0:
        lower += ((1 << k) + 1 << e) // ((1 << k) - 1)
        terms += 1
        k += 1
    return lower, terms + 3


def clausen_window(pos: int, width: int) -> str:
    """Bits of E at pos..pos+width-1 from _clausen_enclosure: big-integer
    divisions by Mersenne numbers, sharing no divisor count, prime table
    or factoring with the library's divisor route."""
    guard = 16
    while True:
        lower, slack = _clausen_enclosure(pos, width + guard)
        if lower >> guard == (lower + slack) >> guard:
            return format((lower >> guard) % (1 << width), "b").zfill(width)
        guard *= 2


@pytest.fixture(scope="session")
def clausen():
    """The Clausen positional oracle, clausen_window(pos, width)."""
    return clausen_window
