"""Exact divisor-function machinery.

Everything here is integer-exact and deterministic: primality via
Miller-Rabin with as many of the 13 prime bases 2..41 as n needs, proven
correct below psi_13 (about 2**81.4), factorization by trial division
against a cached prime table (one read-only int64 array; primes_upto and
primes_in_range return slices of it) that stops at the square root of the
unfactored part, d(n) tables by a Dirichlet-hyperbola sieve that needs
strided adds only for divisors up to sqrt(limit), d(n) over a short run of
consecutive integers by a segmented sieve (a float64 hit test finds the
odd primes with a multiple in the run, and only pairs with p**2 | n take
an exact valuation; both float steps are exact below 2**53), and exact
divisor sums over arithmetic progressions. One kernel, pack_weighted,
computes every weighted divisor sum sum_i d_i * 2**(-i) at a fixed scale:
divisor_tail (the digit-window and witness tails), lemma3's per-row tails
and the whole table of expand_sieve.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import isqrt, prod

import numpy as np

# Trial division is sized for inputs up to this bound; it reads the cached
# primes up to isqrt(FACTOR_LIMIT) = 10**7 (664,579 of them).
FACTOR_LIMIT = 10**14

# Ceiling for the prime table and each divisor_sieve table.
SIEVE_MEMORY_BUDGET = 512 * 1024 * 1024

# Miller-Rabin with the first k primes as bases decides primality for every
# n < psi_k, the least strong pseudoprime to all of them (Jaeschke 1993;
# Jiang and Deng 2014; Sorenson and Webster 2015). psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11, so 8, 10 and 11 bases are never chosen. psi_13,
# about 2**81.4, bounds the deterministic range, well past FACTOR_LIMIT and
# the 64-bit range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


class SieveBudgetError(ValueError):
    """Raised when a requested table would exceed SIEVE_MEMORY_BUDGET."""


def _check_budget(need: int, what: str) -> None:
    if need > SIEVE_MEMORY_BUDGET:
        raise SieveBudgetError(
            f"{what} needs about {need} bytes, past the "
            f"{SIEVE_MEMORY_BUDGET}-byte sieve memory budget"
        )


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < psi_13 (about 2**81.4):
    Miller-Rabin with the first k prime bases for the least k with
    n < psi_k; larger n raise ValueError."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    k = bisect_right(_MR_PSI, n) + 1
    if k > len(_MR_WITNESSES):
        raise ValueError(f"{n} exceeds the deterministic witness range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Every prime <= _prime_limit, ascending, as one read-only int64 array, and
# its read-only float64 twin for the hit test of divisor_counts. A regrow
# binds new arrays, so slices handed out earlier stay valid.
_prime_array = np.zeros(0, dtype=np.int64)
_prime_array.flags.writeable = False
_prime_floats = np.zeros(0, dtype=np.float64)
_prime_floats.flags.writeable = False
_prime_limit = 0


def _extend_primes(limit: int) -> None:
    """Sieve the odd integers up to at least limit into _prime_array and
    _prime_floats, at least doubling them but never past max(limit,
    isqrt(FACTOR_LIMIT)).

    The peak is max(sieve + table, table + twin): the one-byte-per-odd
    sieve is freed before the float64 twin is built. Each term fits in
    the 9 bytes per odd integer checked against the budget: the sieve and
    at most one int64 per odd integer, and 16 bytes per prime, since
    fewer than 9/16 of the odd integers below any table (>= 2**16) are
    prime.
    """
    global _prime_array, _prime_floats, _prime_limit
    if limit <= _prime_limit:
        return
    grown = min(max(limit, 2 * _prime_limit, 1 << 16),
                max(limit, isqrt(FACTOR_LIMIT)))
    _check_budget(9 * ((grown + 1) // 2), f"a prime table up to {limit}")
    # odd[i] stands for 2i + 1, and odd[0] for 2 (1 is not prime).
    odd = np.ones((grown + 1) // 2, dtype=bool)
    for i in range(1, (isqrt(grown) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd)
    del odd
    primes *= 2
    primes += 1
    primes[0] = 2
    primes.flags.writeable = False
    floats = primes.astype(np.float64)
    floats.flags.writeable = False
    # The limit is bound last: a reader that sees it sees both new arrays.
    _prime_array, _prime_floats, _prime_limit = primes, floats, grown


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int64 array (a view of
    the cached table, not a copy)."""
    if limit < 2:
        return _prime_array[:0]
    _extend_primes(limit)
    return _prime_array[: _prime_array.searchsorted(limit, side="right")]


def primes_in_range(low: int, high: int) -> np.ndarray:
    """All primes p with low <= p <= high: a slice of primes_upto(high)."""
    if high < low:
        return _prime_array[:0]
    primes = primes_upto(high)
    return primes[primes.searchsorted(max(low, 2)) :]


# Primes reduced against n per vectorised step of factorize.
_FACTOR_CHUNK = 1 << 12


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Full prime factorization of n >= 1 by deterministic trial division,
    as ((prime, exponent), ...) sorted by prime.

    The primes p <= isqrt(n) are scanned in chunks of _FACTOR_CHUNK: one
    vectorised n % p per chunk finds the prime factors in it, and their
    exponents are divided out of n at once. The scan stops when the next
    prime exceeds isqrt of what is left of n; a cofactor above 1 then has
    no prime factor <= its square root, so it is prime. Inputs above
    FACTOR_LIMIT (< 2**63, so n % p is exact in int64) are rejected rather
    than risking an unbounded prime sieve.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > FACTOR_LIMIT:
        raise ValueError(f"factorize supports n <= {FACTOR_LIMIT}, got {n}")
    primes = primes_upto(isqrt(n))
    entries: list[tuple[int, int]] = []
    for i in range(0, len(primes), _FACTOR_CHUNK):
        chunk = primes[i : i + _FACTOR_CHUNK]
        if int(chunk[0]) ** 2 > n:
            break
        for p in chunk[n % chunk == 0].tolist():
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            entries.append((p, e))
    if n > 1:
        entries.append((n, 1))
    return tuple(entries)


def divisor_count(n: int) -> int:
    """d(n), the number of positive divisors of n >= 1."""
    return prod(e + 1 for _, e in factorize(n))


def _isqrt_ceil(x: int) -> int:
    r = isqrt(x)
    return r if r * r == x else r + 1


def _valuations(n: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p**v, v), v the exponent of the odd prime p in n, for int64 arrays
    with p | n <= FACTOR_LIMIT. p**k fits int64 for k = 63 // bit_length(p)
    (frexp's exponent), and k >= v, so gcd(n, p**k) = p**v exactly; p**v
    is exact in float64 too, and log(p**v) / log(p) lies within a few ulps
    of v <= 29. A test runs every such p**e <= FACTOR_LIMIT through this."""
    power = np.gcd(n, p ** (63 // np.frexp(p)[1]))
    return power, (np.log(power) / np.log(p) + 0.5).astype(np.int64)


# Integers per segment of divisor_counts; bounds its work arrays.
_SEGMENT = 1 << 12

# What one entry of a divisor_counts run costs its caller at most: the
# int64 run, pack_weighted's uint16 reversal and byte groups (12 bytes at
# the peak of divisor_tail), and lemma3's int64 column sums (20 in all).
_BYTES_PER_COUNT = 24

# Primes per step of the hit test, so that each step's float64 quotients
# (256 KiB) stay in L2.
_PRIME_CHUNK = 1 << 15


def _with_multiple(primes: np.ndarray, floats: np.ndarray, start: int,
                   end: int) -> np.ndarray:
    """The primes p in primes (floats: the same values as float64) with a
    multiple in [start, end], for 1 <= start <= end < 2**53.

    The largest multiple of p up to end is k*p, k = floor(end/p), and
    floor(fl(end/p)) is k exactly: a non-integer end/p lies at least 1/p
    below k + 1, and rounding moves it by at most end * 2**-53 / p < 1/p.
    k*p <= end < 2**53 is then exact as well, so p has a multiple in the
    run exactly when k*p >= start. The float division vectorises; an int64
    remainder would not.
    """
    hits = []
    for i in range(0, len(primes), _PRIME_CHUNK):
        chunk = floats[i : i + _PRIME_CHUNK]
        x = np.divide(float(end), chunk)
        np.floor(x, out=x)
        x *= chunk
        hits.append(primes[i : i + _PRIME_CHUNK][x >= float(start)])
    return hits[0] if len(hits) == 1 else np.concatenate([primes[:0], *hits])


def divisor_counts(lo: int, count: int) -> np.ndarray:
    """d(lo), d(lo + 1), ..., d(lo + count - 1) as an int64 array, by a
    segmented sieve.

    Each segment of consecutive integers finds the odd primes p <=
    isqrt(hi) with a multiple in it by one float64 hit test per prime
    (_with_multiple: floor(end / p) * p >= start, exact for end < 2**53,
    which FACTOR_LIMIT < 2**47 keeps), over chunks of _PRIME_CHUNK primes,
    and makes one (position, p) pair per multiple. A pair doubles d(n) and
    divides p out of n, but a deep one, p**2 | n, multiplies d(n) by v + 1
    and divides p**v out, v from _valuations. The power of 2 is the lowest
    set bit, n & -n, so p = 2 brings no deep pairs. A cofactor above 1
    left afterwards has no prime factor <= isqrt(hi), so it is one prime
    and doubles d. A segment costs a fixed number of array operations,
    whatever the exponents in it (Bays and Hudson's segmented sieve of
    Eratosthenes, counting divisors instead of marking composites).
    """
    if lo < 1 or count < 1:
        raise ValueError("divisor_counts requires lo, count >= 1")
    hi = lo + count - 1
    if hi > FACTOR_LIMIT:
        raise ValueError(
            f"divisor_counts supports n <= {FACTOR_LIMIT}, the exact "
            f"divisor-count ceiling of this implementation; got n = {hi}"
        )
    _check_budget(_BYTES_PER_COUNT * count, f"a run of {count} divisor counts")
    primes = primes_upto(isqrt(hi))[1:]  # 2 is read off the lowest set bit
    floats = _prime_floats[1 : len(primes) + 1]
    out = np.empty(count, np.int64)
    for start in range(lo, hi + 1, _SEGMENT):
        size = min(_SEGMENT, hi + 1 - start)
        p = _with_multiple(primes, floats, start, start + size - 1)
        # Pair heads[i] + j, j < reps[i], sits at first[i] + j*p[i].
        first = (-start) % p
        reps = (size - 1 - first) // p + 1
        base = p.repeat(reps)
        heads = reps.cumsum() - reps
        where = (first - heads * p).repeat(reps) + np.arange(len(base)) * base
        whole = np.arange(start, start + size, dtype=np.int64)
        n = whole[where]
        deep = n // base % base == 0
        at = where[deep]
        power, v = _valuations(n[deep], base[deep])
        low = whole & -whole  # 2**v2, and frexp(2**v2) = (0.5, v2 + 1)
        counts = np.frexp(low)[1] << (np.bincount(where, minlength=size)
                                      - np.bincount(at, minlength=size))
        np.multiply.at(counts, at, v + 1)
        base[deep] = power
        cofactor = whole // low
        np.floor_divide.at(cofactor, where, base)
        counts <<= cofactor > 1
        out[start - lo : start - lo + size] = counts
    return out


def tail_majorant(end: int) -> int:
    """2*ceil(sqrt(end)) + 2 >= sum_{t>=0} d(end + t) * 2**(-1-t), from
    d(N) <= 2*sqrt(N), sqrt(a + b) <= sqrt(a) + sqrt(b) and
    sum_{t>=0} sqrt(t)*2**-t < 2."""
    return 2 * _isqrt_ceil(end) + 2


# Runs up to this length fold in Python ints; longer ones pack bytes in
# NumPy. The pack overtakes the fold near 512 entries, for an int64 run
# from divisor_counts and for a uint16 table slice alike.
_FOLD_MAX = 512


def pack_weighted(counts) -> int:
    """sum(counts[i] * 2**(len(counts) - 1 - i)), exact, for a list or
    array of integers in [0, 2**16).

    A run of at most _FOLD_MAX entries is folded as Python ints (through
    tolist: NumPy scalars would wrap). A longer run is packed in one
    vectorised pass: terms are grouped eight to a byte position,
    three-byte group values are added at overlapping offsets, and carries
    are normalized before int.from_bytes. An entry outside [0, 2**16) in
    a longer run raises ValueError; below 2**16 a group is below
    2**16 * 255 < 2**24, so the work arrays fit in 32 bits, and they hold
    one entry per eight terms.
    """
    m = len(counts)
    if m <= _FOLD_MAX:
        scaled = 0
        for d in np.asarray(counts).tolist():
            scaled = (scaled << 1) + d
        return scaled
    values = np.asarray(counts)
    if values.dtype != np.uint16 and (values.min() < 0
                                      or values.max() >= 1 << 16):
        raise ValueError("pack_weighted entries must lie in [0, 2**16)")
    c = np.zeros(-(-m // 8) * 8, np.uint16)
    c[:m] = values[::-1]  # c[i] weights 2**i
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


def divisor_tail(start: int, count: int) -> tuple[int, int]:
    """Weighted divisor tail (scaled, slack) at scale 2**count: scaled =
    sum d(start + i) * 2**(count - 1 - i) over 0 <= i < count is exact, and
    the terms i >= count add at most slack = tail_majorant(start + count)."""
    return (pack_weighted(divisor_counts(start, count)),
            tail_majorant(start + count))


def divisor_sieve(limit: int) -> np.ndarray:
    """Divisor-count table counts[n] = d(n) for 1 <= n <= limit (counts[0]
    is unused), as a uint16 array, from sqrt(limit) strided adds.

    Uses the hyperbola form d(m) = 2*#{d | m : d < sqrt(m)} + [m is a
    square], which at x = 1/2 is Clausen's Lambert-series identity
    sum x**n/(1 - x**n) = sum x**(n*n) * (1 + x**n)/(1 - x**n). Each
    d <= isqrt(limit) adds 1 at d*d and 2 at every multiple of d from
    d*d + d on, so the table costs isqrt(limit) slice updates. Entries are
    16-bit, wide enough for every d(n) with n within any budget-permitted
    limit.
    """
    if limit < 1:
        raise ValueError("divisor_sieve requires limit >= 1")
    _check_budget(2 * (limit + 1), f"a divisor table up to {limit}")
    counts = np.zeros(limit + 1, dtype=np.uint16)
    for d in range(1, isqrt(limit) + 1):
        counts[d * d] += 1
        counts[d * d + d :: d] += 2
    return counts


_shared_table: np.ndarray | None = None
_SHARED_TABLE_CAP = 4 * 10**6


def _shared_counts(limit: int) -> np.ndarray | None:
    """Process-wide divisor table for repeated small-range sums."""
    global _shared_table
    if limit > _SHARED_TABLE_CAP:
        return None
    if _shared_table is None or len(_shared_table) <= limit:
        _shared_table = divisor_sieve(max(limit, 1 << 16))
    return _shared_table


def progression_divisor_sum(a: int, step: int, count: int) -> int:
    """Exact sum of d(a + m*step) over m = 0..count-1."""
    if a < 1 or step < 1 or count < 1:
        raise ValueError("progression_divisor_sum requires a, step, count >= 1")
    last = a + (count - 1) * step
    if last > FACTOR_LIMIT:
        raise ValueError(
            f"last term {last} exceeds the supported range {FACTOR_LIMIT}"
        )
    if count >= 16:
        counts = _shared_counts(last)
        if counts is not None:
            return int(counts[a : last + 1 : step].sum(dtype=np.int64))
    return sum(divisor_count(a + m * step) for m in range(count))
