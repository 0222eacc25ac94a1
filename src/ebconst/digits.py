"""Certified binary digits of E = sum_{n>=1} 1/(2**n - 1) = sum d(n)/2**n.

Two independent expansion algorithms (reciprocal series and divisor-sieve
series) plus positional digit extraction, which reads the bits at
position n from the divisor route frac(2**(n-1) E) = frac(sum_l
d(n+l)/2**(l+1)) over one short run of divisor counts. Every emitted digit
is certified by one loop, _certify: each path encloses its scaled value in
exact integers [lower, lower + slack], and digits are released only when
both ends agree once the guard bits are discarded. Position 1 is the first
bit after the binary point; the integer part (1 for E) is kept separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .divisors import divisor_sieve, divisor_tail, tail_majorant

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
    on every emitted bit after the guard bits were discarded. terms_used
    counts the series terms summed in that accepted attempt.
    """

    precision: int
    integer_part: int
    bits: str
    guard_bits: int
    terms_used: int
    method: str
    certified: bool


@dataclass(frozen=True)
class FractionEnclosure:
    """Exact dyadic bracket lower <= frac(2**(n-1) E) <= upper."""

    lower: Fraction
    upper: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def membership(self, lo: Fraction, hi: Fraction) -> bool | None:
        """True/False membership in [lo, hi); None when the bracket straddles
        an endpoint and cannot decide."""
        if self.lower >= lo and self.upper < hi:
            return True
        if self.upper < lo or self.lower >= hi:
            return False
        return None


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
    return format(value & ((1 << width) - 1), "b").zfill(width)


def _expansion(precision: int, method: str, enclose, extra: int) -> DigitExpansion:
    """Certified expansion of E; enclose(work) sums work + extra terms."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    lower, _, guard = _certify(enclose, precision, _ceil_log2(precision) + 8)
    value = lower >> guard
    return DigitExpansion(precision, value >> precision, _bits(value, precision),
                          guard, precision + guard + extra, method, True)


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

    return _expansion(precision, "naive", enclose, 1)


def _pack_weighted(counts: np.ndarray, m: int) -> int:
    """sum(counts[n] * 2**(m - n) for n in 1..m), exact.

    Bytes are assembled in one vectorized pass: terms are grouped eight to
    a byte position, three-byte group values are added at overlapping
    offsets, and carries are normalized before int.from_bytes. Entries
    must be below 2**16, as in a DivisorTable, so a group is below
    2**16 * 255 < 2**24 and the work arrays fit in 32 bits; only the
    16-bit table is copied in full, and the work arrays hold one entry per
    eight terms.
    """
    c = np.zeros(-(-m // 8) * 8, np.uint16)
    c[:m] = counts[m:0:-1]  # c[i] weights 2**i
    group = c[0::8].astype(np.uint32)
    for i in range(1, 8):
        group += c[i::8].astype(np.uint32) << i
    acc = np.zeros(len(group) + 3, np.uint32)
    acc[: len(group)] += group & 0xFF
    acc[1 : len(group) + 1] += (group >> 8) & 0xFF
    acc[2 : len(group) + 2] += group >> 16
    while True:
        carry = acc >> 8
        if not carry.any():
            break
        acc &= 0xFF
        acc[1:] += carry[:-1]
    return int.from_bytes(acc.astype(np.uint8).tobytes(), "little")


def expand_sieve(precision: int) -> DigitExpansion:
    """Expansion from sum_n d(n)/2**n over a divisor-count table.

    At scale 2**m the packed table is divisor_tail(1, m), the exact sum
    over n <= m, so the omitted terms add at most tail_majorant(m + 1).
    """
    def enclose(m: int) -> tuple[int, int]:
        table = divisor_sieve(m)
        return _pack_weighted(table.counts, m), tail_majorant(m + 1)

    return _expansion(precision, "sieve", enclose, 0)


def _frac_series_scaled(pos: int, work_bits: int) -> tuple[int, int]:
    """Scaled enclosure of 2**(pos-1) * E before reduction mod 1.

    Since 2**(pos-1) mod (2**a - 1) = 2**((pos-1) mod a), term a of the
    reciprocal series contributes 2**((pos-1) mod a)/(2**a - 1) to the
    fractional part. Summing a = 2..pos+work_bits floored at work_bits
    fractional bits loses < 1 ulp per term, and the omitted tail is below
    2**(pos - (pos+work_bits)) = 1 ulp. Returns (lower, slack) at scale
    2**work_bits. It costs O(pos) big-integer divisions and shares no
    arithmetic with the divisor route, so it serves as that route's oracle.
    """
    top = pos + work_bits
    lower = 0
    for a in range(2, top + 1):
        e = (pos - 1) % a
        if a - e > work_bits:  # floored term is zero; its loss is in slack
            continue
        lower += (1 << (work_bits + e)) // ((1 << a) - 1)
    return lower, top


def _frac_enclosure(pos: int, keep: int) -> tuple[int, int, int]:
    """(lower, slack, work): frac(2**(pos-1) E) lies in [lower, lower +
    slack] / 2**work, certified on keep bits, by the divisor route (the
    terms d(t)/2**t with t < pos are integers at this scaling)."""
    lower, slack, guard = _certify(lambda work: divisor_tail(pos, work), keep,
                                   _ceil_log2(tail_majorant(pos)) + 8)
    work = keep + guard
    return lower & ((1 << work) - 1), slack, work


def digit_window(pos: int, width: int) -> str:
    """Bits of E at positions pos..pos+width-1 without earlier digits."""
    if pos < 1 or width < 1:
        raise ValueError("pos and width must be >= 1")
    lower, _, work = _frac_enclosure(pos, width)
    return _bits(lower >> (work - width), width)


def fractional_part_enclosure(n: int, precision: int = 32) -> FractionEnclosure:
    """Rigorous enclosure of frac(2**(n-1) * E) of width < 2**-precision."""
    if n < 1 or precision < 1:
        raise ValueError("n and precision must be >= 1")
    lower, slack, work = _frac_enclosure(n, precision)
    return FractionEnclosure(Fraction(lower, 1 << work),
                             Fraction(lower + slack, 1 << work))


def _check_bits(s: str, name: str) -> np.ndarray:
    """The characters of s as ASCII codes, after checking they are bits."""
    raw = np.frombuffer(s.encode("ascii", "replace"), np.uint8)
    if (raw - ord("0") > 1).any():
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


_HEX_DIGITS = frozenset("0123456789abcdef")


def hex_to_bits(hexdigits: str, precision: int) -> str:
    """Inverse of bits_to_hex given the original bit count.

    Strict: hexdigits must be exactly what bits_to_hex emits for some
    string of precision bits, that is ceil(precision / 4) lowercase hex
    digits whose pad bits past precision are zero. Anything else (another
    length, uppercase, a sign, a 0x prefix, whitespace, underscores)
    raises ValueError.
    """
    if precision < 0:
        raise ValueError("precision must be >= 0")
    need = -(-precision // 4)
    if len(hexdigits) != need:
        raise ValueError(
            f"{precision} bits pack into {need} hex digits, got {len(hexdigits)}")
    if not _HEX_DIGITS.issuperset(hexdigits):
        raise ValueError("hexdigits must contain only the characters 0-9a-f")
    if not hexdigits:
        return ""
    bits = format(int(hexdigits, 16), "b").zfill(4 * need)
    if "1" in bits[precision:]:
        raise ValueError("pad bits past precision must be zero")
    return bits[:precision]
