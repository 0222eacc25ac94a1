"""Exact divisor-function machinery.

Everything here is integer-exact and deterministic: primality via
Miller-Rabin with as many of the 13 prime bases 2..41 as n needs, proven
correct below psi_13 (about 2**81.4), factorization by trial division
against a cached prime table (one read-only int64 array; primes_upto and
primes_in_range return slices of it) that stops at the square root of the
unfactored part, tables of d(n) // 2 by a Dirichlet-hyperbola sieve that
needs strided adds only over the odd entries, one for each odd divisor up
to sqrt(limit), and fills each even 2**a * m (m odd) from
d(2**a * m) = (a + 1) * d(m), d(n) over a run of consecutive integers by a
segmented sieve (a float64 hit test finds the odd primes with a multiple
in the run, and only pairs with p**2 | n take an exact valuation; both
float steps are exact below 2**53), and exact divisor sums over arithmetic
progressions. One kernel, pack_weighted, computes every weighted divisor
sum sum_i d_i * 2**(-i) at a fixed scale:
divisor_tail (the digit-window and witness tails), lemma3's per-row tails
and divisor_prefix (the sieve expansion's half-count table). One check,
check_divisor_ceiling, refuses every divisor count past FACTOR_LIMIT.
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

# The least n with d(n) >= 512; below it d(n) <= 504, so d(n) // 2 fits a byte.
_HALF_COUNT_BYTE_LIMIT = 17_297_280

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


def check_divisor_ceiling(hi: int, what: str) -> None:
    """Refuse hi past FACTOR_LIMIT, naming it as what."""
    if hi > FACTOR_LIMIT:
        raise ValueError(f"this implementation supports n <= {FACTOR_LIMIT}, "
                         f"its exact divisor-count ceiling; got {what}")


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
# int64 run (8 bytes), pack_weighted's uint16 cast (2), its uint32 groups
# (0.5) and one column's cast and shift temporaries (1), so 11.5 bytes at
# the divisor_tail peak, and lemma3's int64 column sums (19.5 in all).
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
    check_divisor_ceiling(hi, f"n = {hi}")
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
    tolist: NumPy scalars would wrap). A longer run of m entries folds its
    first m % 8 entries the same way and reads the rest, body, forward in
    G = m // 8 groups: group g = sum_r body[8g + r] * 2**(7 - r) weighs
    2**(8 * (G - 1 - g)), so byte plane b of the groups is one big-endian
    int.from_bytes, added at 2**(8b). Eight entries below 2**w make a group
    below 2**(w + 8): a uint8 run takes uint16 groups (two planes) and a
    uint16 run uint32 groups (three); any other run is range-checked over
    every entry, raising ValueError on one outside [0, 2**16), and cast to
    uint16 first.
    """
    values = np.asarray(counts)
    m = len(values)
    q = m if m <= _FOLD_MAX else m % 8
    if q < m and values.dtype not in (np.uint8, np.uint16):
        if values.min() < 0 or values.max() >= 1 << 16:
            raise ValueError("pack_weighted entries must lie in [0, 2**16)")
        values = values.astype(np.uint16)
    scaled = 0
    for d in values[:q].tolist():
        scaled = (scaled << 1) + d
    if q == m:
        return scaled
    body = values[q:]
    wide = np.dtype(f"<u{2 * values.itemsize}")
    group = body[0::8].astype(wide) << 7
    for r in range(1, 8):
        group += body[r::8].astype(wide) << (7 - r)
    planes = group.view(np.uint8)
    return (scaled << m - q) + sum(
        int.from_bytes(planes[b :: wide.itemsize].tobytes(), "big") << 8 * b
        for b in range(values.itemsize + 1))


def divisor_tail(start: int, count: int) -> tuple[int, int]:
    """Weighted divisor tail (scaled, slack) at scale 2**count: scaled =
    sum d(start + i) * 2**(count - 1 - i) over 0 <= i < count is exact, and
    the terms i >= count add at most slack = tail_majorant(start + count)."""
    return (pack_weighted(divisor_counts(start, count)),
            tail_majorant(start + count))


def divisor_prefix(m: int) -> tuple[int, int]:
    """Weighted divisor prefix (scaled, slack) at scale 2**m: scaled =
    sum d(n) * 2**(m - n) over n <= m is twice the packed divisor_sieve(m)
    plus sum_{k*k <= m} 2**(m - k*k), as d(n) = 2*half[n] + [n is a square],
    and the terms n > m add at most slack = tail_majorant(m + 1)."""
    e = m - np.arange(1, isqrt(m) + 1, dtype=np.int64) ** 2
    squares = np.zeros(m // 8 + 1, np.uint8)
    # .at, not |= by fancy index: the bits of the largest squares
    # (m - 1, m - 4, m - 9) lie fewer than 8 apart and share bytes at
    # every m.
    np.bitwise_or.at(squares, e >> 3, np.left_shift(1, e & 7).astype(np.uint8))
    return (2 * pack_weighted(divisor_sieve(m)[1:])
            + int.from_bytes(squares, "little"), tail_majorant(m + 1))


def divisor_sieve(limit: int) -> np.ndarray:
    """Half-count table half[n] = #{d | n : d < sqrt(n)} = d(n) // 2 for
    1 <= n <= limit (half[0] is unused), from strided adds over the odd
    entries only.

    The hyperbola form d(n) = 2*half[n] + [n is a square], which at x = 1/2
    is Clausen's Lambert-series identity sum x**n/(1 - x**n) = sum
    x**(n*n) * (1 + x**n)/(1 - x**n), gives d(n) back. An odd n has only
    odd divisors, so each odd d <= isqrt(limit) adds 1 at the odd multiples
    d*e with e > d odd: a stride-d slice of the odd entries. Every even
    n = 2**a * m with m odd then follows from d(2**a * m) = (a + 1) * d(m):
    half[n] = (a + 1)*half[m], plus (a + 1) // 2 where m is a square,
    written one column of equal a at a time into the table itself. Entries
    are uint8 below _HALF_COUNT_BYTE_LIMIT and uint16 from there on, wide
    enough for every n within any budget-permitted limit; the budget
    charges that width.
    """
    if limit < 1:
        raise ValueError("divisor_sieve requires limit >= 1")
    dtype = np.dtype(np.uint8 if limit < _HALF_COUNT_BYTE_LIMIT else np.uint16)
    _check_budget(dtype.itemsize * (limit + 1), f"a divisor table up to {limit}")
    half = np.zeros(limit + 1, dtype)
    odd = half[1::2]  # odd[i] is half[2*i + 1]
    for d in range(1, isqrt(limit) + 1, 2):
        odd[(d * d + 2 * d - 1) // 2 :: d] += 1  # from d*(d + 2) on
    a = 1
    while 1 << a <= limit:
        column = half[1 << a :: 2 << a]  # column[i] is half[2**a * (2*i + 1)]
        np.multiply(odd[: len(column)], a + 1, out=column)
        # The odd squares m = r*r <= 2*len(column) - 1 sit at column[r*r // 2].
        roots = np.arange(1, isqrt(2 * len(column) - 1) + 1, 2, dtype=np.int64)
        column[roots * roots // 2] += (a + 1) // 2
        a += 1
    return half


_shared_table: np.ndarray | None = None
_SHARED_TABLE_CAP = 4 * 10**6


def _shared_half_counts(limit: int) -> np.ndarray | None:
    """Process-wide half-count table for repeated small-range sums."""
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
    check_divisor_ceiling(last, f"a last term n = {last}")
    if count >= 16:
        half = _shared_half_counts(last)
        if half is not None:
            # d(n) = 2*half[n] + [n is a square]: count the k*k in the terms.
            roots = np.arange(_isqrt_ceil(a), isqrt(last) + 1, dtype=np.int64)
            return int(2 * half[a : last + 1 : step].sum(dtype=np.int64)
                       + np.count_nonzero((roots * roots - a) % step == 0))
    return sum(divisor_count(a + m * step) for m in range(count))
