"""Certified binary digits of E = sum_{n>=1} 1/(2**n - 1) = sum d(n)/2**n.

Two independent expansion algorithms (reciprocal series and divisor-sieve
series) plus positional digit extraction, which reads the bits at
position n from the divisor route frac(2**(n-1) E) = frac(sum_l
d(n+l)/2**(l+1)) over one short run of divisor counts; the sieve series
and the divisor route read divisors.divisor_prefix and divisor_tail. Every
emitted digit is certified by one loop, _certify: each path encloses its
scaled value in exact integers [lower, lower + slack], and digits are
released only when both ends agree once the guard bits are discarded.
Position 1 is the first bit after the binary point; the integer part (1
for E) is kept separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divisors import divisor_prefix, divisor_tail, tail_majorant

_RETRY_CAP = 10

# expand_naive refuses more bits than this: its work grows as the cube of
# the precision.
NAIVE_PRECISION_LIMIT = 1 << 14


class CertificationError(RuntimeError):
    """Certification failed to converge within the retry cap."""


@dataclass(frozen=True)
class DigitExpansion:
    """Certified fractional bits of E.

    bits[0] is position 1 (first bit after the binary point); certified
    means the lower/upper enclosure of 2**(precision+guard_bits) * E agreed
    on every emitted bit after the guard bits were discarded.
    """

    precision: int
    integer_part: int
    bits: str
    guard_bits: int
    method: str
    certified: bool


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x > 1 else 0


def _certify(enclose, keep: int, guard: int) -> tuple[int, int, int]:
    """(lower, slack, guard) of the first enclosure whose ends agree above
    the guard bits, which implies slack < 2**guard.

    enclose(work) brackets the value scaled by 2**work, work = keep + guard,
    as [lower, lower + slack]. On a straddle a guard carry could flip a
    kept bit, so the guard doubles, at most _RETRY_CAP times.
    """
    for _ in range(_RETRY_CAP + 1):
        lower, slack = enclose(keep + guard)
        if lower >> guard == (lower + slack) >> guard:
            return lower, slack, guard
        guard *= 2
    raise CertificationError(f"enclosure of {keep} bits failed to certify "
                             f"after {_RETRY_CAP} guard doublings")


def _bits(value: int, width: int) -> str:
    """The low width bits of value as '0'/'1', most significant first."""
    # Padded on the right to whole bytes, then one ASCII code per bit.
    pad = -width % 8
    low = (value & ((1 << width) - 1)) << pad
    codes = np.unpackbits(np.frombuffer(
        low.to_bytes((width + pad) // 8, "big"), np.uint8))[:width]
    codes += ord("0")
    return str(codes.data, "ascii")


def _expansion(precision: int, method: str, enclose) -> DigitExpansion:
    """Certified expansion of E from enclose(work), as for _certify."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    lower, _, guard = _certify(enclose, precision, _ceil_log2(precision) + 8)
    value = lower >> guard
    return DigitExpansion(precision, value >> precision, _bits(value, precision),
                          guard, method, True)


def expand_naive(precision: int) -> DigitExpansion:
    """Expansion from sum_a 1/(2**a - 1), one big floor-division per term.

    With K = precision + guard + 1 terms, each floored term loses < 1 ulp
    and the omitted tail is below 2**(1-K) <= 1 ulp, so the true scaled
    value lies in [sum, sum + K + 1]. This is the oracle method; the sieve
    method is the fast path at large precision. Precision above
    NAIVE_PRECISION_LIMIT raises ValueError before any work.
    """
    if precision > NAIVE_PRECISION_LIMIT:
        raise ValueError(
            f"the naive method supports at most {NAIVE_PRECISION_LIMIT} "
            f"bits, got {precision}"
        )

    def enclose(work: int) -> tuple[int, int]:
        scale = 1 << work
        return sum(scale // ((1 << a) - 1) for a in range(1, work + 2)), work + 2

    return _expansion(precision, "naive", enclose)


def expand_sieve(precision: int) -> DigitExpansion:
    """Expansion from sum_n d(n)/2**n, enclosed by divisor_prefix."""
    return _expansion(precision, "sieve", divisor_prefix)


def digit_window(pos: int, width: int) -> str:
    """Bits of E at positions pos..pos+width-1 without earlier digits.

    At scale 2**work the divisor tail from pos encloses 2**(pos-1) E less
    an integer (the terms d(t)/2**t with t < pos), so its low work bits
    certify the window once _certify settles them.
    """
    if pos < 1 or width < 1:
        raise ValueError("pos and width must be >= 1")
    lower, _, guard = _certify(lambda work: divisor_tail(pos, work), width,
                               _ceil_log2(tail_majorant(pos)) + 8)
    return _bits(lower >> guard, width)


def _check_bits(s: str, name: str) -> np.ndarray:
    """The characters of s as ASCII codes, after checking they are bits."""
    raw = np.frombuffer(s.encode("ascii", "replace"), np.uint8)
    # Two reductions make no temporary array; min() raises on an empty one.
    if raw.size and (raw.min() < ord("0") or raw.max() > ord("1")):
        raise ValueError(f"{name} must contain only '0'/'1' characters")
    return raw


def bits_to_hex(bits: str) -> str:
    """Pack fractional bits four per character, most significant bit first.

    A final partial nibble is zero-padded on the right. Any character
    other than '0' or '1' raises ValueError.
    """
    values = _check_bits(bits, "bits") - ord("0")
    # packbits zero-pads the last byte; drop the hex digit a pad nibble makes.
    return np.packbits(values).tobytes().hex()[: -(-len(values) // 4)]
