import random
import tracemalloc
from math import gcd, isqrt, prod

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebconst import divisors
from ebconst.divisors import (
    _MR_PSI,
    _MR_WITNESSES,
    _PRIME_CHUNK,
    _SEGMENT,
    FACTOR_LIMIT,
    SieveBudgetError,
    divisor_count,
    divisor_counts,
    divisor_sieve,
    divisor_tail,
    factorize,
    is_prime,
    pack_weighted,
    primes_in_range,
    primes_upto,
    progression_divisor_sum,
)


def brute_divisor_count(n: int) -> int:
    count = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            count += 1 if d * d == n else 2
    return count


def brute_factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1) == ()

    @pytest.mark.parametrize("n", [12, 45, 2, 97, 1024, 2 * 3 * 5 * 7 * 11])
    def test_matches_trial_division(self, n):
        assert dict(factorize(n)) == brute_factorize(n)

    def test_examples(self):
        assert dict(factorize(12)) == {2: 2, 3: 1}
        assert dict(factorize(45)) == {3: 2, 5: 1}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_over_limit_rejected(self):
        with pytest.raises(ValueError):
            factorize(FACTOR_LIMIT + 1)

    def test_entries_sorted_and_positive(self):
        fm = factorize(2**3 * 17 * 101**2)
        primes = [p for p, _ in fm]
        assert primes == sorted(primes)
        assert all(e >= 1 for _, e in fm)
        assert prod(p**e for p, e in fm) == 2**3 * 17 * 101**2

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_reconstructs_input(self, n):
        fm = factorize(n)
        assert prod(p**e for p, e in fm) == n
        assert all(is_prime(p) for p, _ in fm)

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert dict(factorize(p * q)) == {p: 1, q: 1}

    def test_sympy_agreement_sampled(self):
        rng = random.Random(20261018)
        for _ in range(200):
            n = rng.randint(1, 10 ** rng.randint(1, 14))
            assert dict(factorize(n)) == sympy.factorint(n), n

    @pytest.mark.parametrize("n", [
        9999973 * 9999991,   # the two largest primes below 10**7
        9999991**2,
        99999999999973,      # the largest prime below 10**14
        2**46,
        1,
        38873**2,            # the first prime of the second scan chunk, squared
        38867 * 38873,       # the last prime of one chunk times the first of the next
        84017 * 84047 * 2**10,  # the same across the next chunk edge, times 2**10
        2**20 * 9999991,     # the early exit leaves a large prime cofactor
    ])
    def test_sympy_agreement_at_the_ceiling(self, n):
        assert dict(factorize(n)) == sympy.factorint(n)


class TestDivisorCount:
    @pytest.mark.parametrize("n,expected", [(1, 1), (12, 6), (45, 6)])
    def test_examples(self, n, expected):
        assert divisor_count(n) == expected

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, n):
        assert divisor_count(n) == brute_divisor_count(n)

    @given(st.integers(min_value=1, max_value=10**4),
           st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_on_coprime_pairs(self, m, n):
        if gcd(m, n) == 1:
            assert divisor_count(m * n) == divisor_count(m) * divisor_count(n)

    def test_sympy_agreement_sampled(self):
        rng = random.Random(20240517)
        for _ in range(200):
            n = rng.randint(1, 10**10)
            assert divisor_count(n) == sympy.divisor_count(n)


class TestPrimality:
    def test_small_values(self):
        known = {p for p in sympy.primerange(0, 2000)}
        for n in range(2000):
            assert is_prime(n) == (n in known)

    def test_sympy_agreement_sampled(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(2, 10**12)
            assert is_prime(n) == sympy.isprime(n)

    PSI_12 = 318665857834031151167461   # = 399165290221 * 798330580441
    PSI_13 = 3317044064679887385961981

    def test_psi_12_is_composite(self):
        # The least strong pseudoprime to every prime base up to 37.
        assert self.PSI_12 == 399165290221 * 798330580441
        assert not is_prime(self.PSI_12)

    def test_psi_13_is_past_the_deterministic_range(self):
        with pytest.raises(ValueError, match="deterministic witness range"):
            is_prime(self.PSI_13)
        assert is_prime(self.PSI_13 - 2) == sympy.isprime(self.PSI_13 - 2)

    def test_sympy_agreement_below_psi_13(self):
        rng = random.Random(41)
        primes = [sympy.nextprime(rng.randrange(self.PSI_12, self.PSI_13 - 10**6))
                  for _ in range(20)]
        semiprimes = [sympy.nextprime(rng.getrandbits(40)) * sympy.nextprime(
            rng.getrandbits(41)) for _ in range(20)]
        odd = [rng.randrange(self.PSI_12, self.PSI_13) | 1 for _ in range(200)]
        for n in primes + semiprimes + odd:
            assert is_prime(n) == sympy.isprime(n), n

    @staticmethod
    def strong_probable_prime(n: int, a: int) -> bool:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        x = pow(a, d, n)
        if x in (1, n - 1):
            return True
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    @pytest.mark.parametrize("k", range(1, 13))
    def test_psi_k_is_composite(self, k):
        # psi_k passes the first k bases, so is_prime must use k + 1 of them.
        psi = _MR_PSI[k - 1]
        assert all(self.strong_probable_prime(psi, a)
                   for a in _MR_WITNESSES[:k])
        assert not sympy.isprime(psi)
        assert not is_prime(psi)

    def test_sympy_agreement_in_every_base_band(self):
        # Seeded n in [psi_(k-1), psi_k), each band read with k bases.
        rng = random.Random(1613)
        for low, high in zip((3, *_MR_PSI), _MR_PSI):
            if low == high:
                continue
            samples = [rng.randrange(low, high) | 1 for _ in range(40)]
            samples += [sympy.prevprime(high), high - 2, low + 2]
            samples += [sympy.nextprime(rng.randrange(low, high))
                        for _ in range(5)]
            for n in samples:
                if n < high:
                    assert is_prime(n) == sympy.isprime(n), n

    def test_prime_ranges(self):
        assert primes_in_range(5, 20).tolist() == [5, 7, 11, 13, 17, 19]
        assert primes_in_range(14, 16).tolist() == []
        assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.fixture
def fresh_prime_table(monkeypatch):
    """An empty prime table for one test; the cached one is restored after."""
    monkeypatch.setattr(divisors, "_prime_array", divisors._prime_array[:0])
    monkeypatch.setattr(divisors, "_prime_floats", divisors._prime_floats[:0])
    monkeypatch.setattr(divisors, "_prime_limit", 0)


class TestPrimeTable:
    def test_primes_upto_matches_sympy(self, fresh_prime_table):
        # The first build covers exactly 2**16; 2**16 + 1 (a prime) regrows.
        for limit in [*range(301), 2**16 - 1, 2**16, 2**16 + 1]:
            expected = list(sympy.primerange(2, limit + 1))
            assert primes_upto(limit).tolist() == expected, limit

    def test_primes_in_range_edges(self):
        assert primes_in_range(20, 5).tolist() == []
        assert primes_in_range(10**30, 5).tolist() == []
        assert primes_in_range(-7, 1).tolist() == []
        assert primes_in_range(0, 0).tolist() == []
        assert primes_in_range(-7, 2).tolist() == [2]
        assert primes_in_range(7, 31).tolist() == [7, 11, 13, 17, 19, 23, 29, 31]
        assert primes_in_range(65521, 65537).tolist() == [65521, 65537]

    def test_results_are_read_only_int64(self):
        for primes in (primes_upto(100), primes_in_range(10, 20), primes_upto(1),
                       primes_in_range(20, 5)):
            assert primes.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                primes[:1] = 0

    def test_answer_unchanged_by_regrow(self, fresh_prime_table):
        before = primes_in_range(100, 200)
        expected = before.tolist()
        primes_upto(3 * 2**16)
        assert divisors._prime_limit >= 3 * 2**16
        assert before.tolist() == expected
        assert primes_in_range(100, 200).tolist() == expected

    def test_float_twin_matches_the_table(self, fresh_prime_table):
        for limit in (100, 3 * 2**16):
            primes_upto(limit)
            floats = divisors._prime_floats
            assert floats.dtype == np.float64 and not floats.flags.writeable
            assert floats.tolist() == divisors._prime_array.tolist()

    def test_regrow_stops_at_the_factoring_root(self, fresh_prime_table):
        primes_upto(6 * 10**6)
        primes_upto(10**7)
        assert divisors._prime_limit == isqrt(FACTOR_LIMIT) == 10**7

    def test_table_past_the_memory_budget_is_refused(self):
        limit = divisors._prime_limit
        with pytest.raises(ValueError, match="prime table up to 10000000000000 "):
            primes_upto(10**13)
        assert divisors._prime_limit == limit

    def test_peak_memory_of_the_factoring_table(self, fresh_prime_table):
        # The primes up to 10**7 need a 4.8 MiB odd-only sieve and a 5.1 MiB
        # int64 table. A full-width sieve (9.5 MiB) or a second copy of the
        # table as a Python list (25 MiB) would pass the bound. tracemalloc
        # sees numpy's buffers; ru_maxrss cannot serve in a subprocess of
        # the test run, which inherits the runner's high-water mark.
        tracemalloc.start()
        try:
            primes_upto(isqrt(FACTOR_LIMIT))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestDivisorSieve:
    def test_examples(self):
        assert divisor_sieve(1)[1:].tolist() == [1]
        assert divisor_sieve(6)[1:].tolist() == [1, 2, 2, 3, 2, 4]
        assert divisor_sieve(12)[12] == 6

    def test_budget_rejection_names_sizes(self, monkeypatch):
        monkeypatch.setattr(divisors, "SIEVE_MEMORY_BUDGET", 1000)
        with pytest.raises(SieveBudgetError, match="2000002 bytes.*1000-byte"):
            divisor_sieve(10**6)

    def test_invariants_against_independent_sieve(self):
        # Full-range cross-check to 10**6: the additive divisor-count fill
        # against a multiplicative build from a smallest-prime-factor sieve.
        limit = 10**6
        counts = divisor_sieve(limit)
        spf = np.zeros(limit + 1, dtype=np.int64)
        for p in range(2, isqrt(limit) + 1):
            if spf[p] == 0:
                spf[p * p :: p][spf[p * p :: p] == 0] = p
        expected = np.ones(limit + 1, dtype=np.int64)
        for n in range(2, limit + 1):
            p = spf[n] or n
            m, e = n, 0
            while m % p == 0:
                m //= p
                e += 1
            expected[n] = expected[m] * (e + 1)
        assert np.array_equal(counts[1:].astype(np.int64), expected[1:])
        # d(1) = 1 and d(p) = 2 for every prime p in range.
        assert counts[1] == 1
        prime_mask = np.zeros(limit + 1, dtype=bool)
        prime_mask[primes_upto(limit)] = True
        assert np.all(counts[prime_mask] == 2)
        # Pairing bound as an integer inequality: d(n)**2 <= 4n.
        n_values = np.arange(1, limit + 1, dtype=np.int64)
        d_values = counts[1:].astype(np.int64)
        assert np.all(d_values * d_values <= 4 * n_values)

    def test_random_entries_match_divisor_count(self):
        limit = 10**6
        counts = divisor_sieve(limit)
        rng = random.Random(1234)
        for _ in range(10**4):
            n = rng.randint(1, limit)
            assert counts[n] == divisor_count(n)

    def test_every_small_limit_matches_brute_force(self):
        # The hyperbola fill changes shape at k*k - 1, k*k and k*k + k;
        # every limit up to 400 passes those boundaries for k <= 20.
        expected = [brute_divisor_count(n) for n in range(1, 401)]
        for limit in range(1, 401):
            counts = divisor_sieve(limit)
            assert len(counts) == limit + 1
            assert counts[1:].tolist() == expected[:limit]

    def test_zero_limit_rejected(self):
        with pytest.raises(ValueError):
            divisor_sieve(0)


class TestDivisorCounts:
    def termwise(self, lo: int, count: int) -> list[int]:
        return [divisor_count(lo + i) for i in range(count)]

    def test_from_one_across_segments(self):
        count = 2 * _SEGMENT + 5
        counts = divisor_counts(1, count)
        assert counts.dtype == np.int64 and len(counts) == count
        assert counts.tolist() == [brute_divisor_count(n)
                                   for n in range(1, count + 1)]

    def test_many_segments_match_sieve(self):
        lo, count = 10**6 - 3 * _SEGMENT, 3 * _SEGMENT + 17
        table = divisor_sieve(lo + count - 1)
        assert divisor_counts(lo, count).tolist() == table[lo:].tolist()

    @pytest.mark.parametrize("lo,count", [
        (9967**2 - 20, 41),          # p**2
        (2**40 - 7, 15),             # p**k for p = 2
        (3**29 - 5, 11),             # p**k for an odd prime
        (9999991**2 - 30, 31),       # ends at p**2, p = isqrt(hi)
        (9999973 * 9999991 - 8, 17),   # primes either side of isqrt(hi)
        (10**13 + 37, 1),            # a single term
    ])
    def test_prime_power_and_root_intervals(self, lo, count):
        assert divisor_counts(lo, count).tolist() == self.termwise(lo, count)

    def test_seeded_intervals(self):
        rng = random.Random(4711)
        for _ in range(40):
            lo = rng.randint(1, int(2**46.5))
            count = rng.randint(1, 80)
            assert (divisor_counts(lo, count).tolist()
                    == self.termwise(lo, count)), lo

    def test_interval_ending_at_factor_limit(self):
        assert (divisor_counts(FACTOR_LIMIT - 63, 64).tolist()
                == self.termwise(FACTOR_LIMIT - 63, 64))
        with pytest.raises(ValueError, match="supports n <="):
            divisor_counts(FACTOR_LIMIT - 63, 65)

    @pytest.mark.parametrize("lo,count", [
        (2**46 - 30, 61),            # 2**cap(2), cap(2) = 46
        (3**29 - 30, 61),
        (5**20 - 30, 61),
        (7**16 - 30, 61),
        (9999991**2 - 40, 81),
        (FACTOR_LIMIT - 63, 64),
        (3**15 - _SEGMENT, 2 * _SEGMENT + 1),   # crosses two segment edges
    ])
    def test_sympy_agreement(self, lo, count):
        assert divisor_counts(lo, count).tolist() == [
            sympy.divisor_count(lo + i) for i in range(count)]

    # lo log-uniform: a bit length first, then a value of that length.
    @given(st.integers(min_value=0, max_value=46).flatmap(
               lambda b: st.integers(min_value=2**b,
                                     max_value=min(2 ** (b + 1), FACTOR_LIMIT - 199))),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_sympy_agreement_property(self, lo, count):
        assert divisor_counts(lo, count).tolist() == [
            sympy.divisor_count(lo + i) for i in range(count)]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            divisor_counts(0, 4)
        with pytest.raises(ValueError):
            divisor_counts(5, 0)

    def test_run_past_the_budget_refused_before_work(self):
        # 10**9 counts would hold about 12 GB between the run and the pack.
        with pytest.raises(SieveBudgetError, match="a run of 1000000000 "):
            divisor_counts(1, 10**9)
        with pytest.raises(SieveBudgetError):
            divisor_tail(10**9, 10**9)


def _sympy_runs(lo: int, count: int) -> tuple[list[int], list[int]]:
    """(d(n) for n in the run, primes <= isqrt(hi) dividing some n), by sympy."""
    bound = isqrt(lo + count - 1)
    counts, hit = [], set()
    for n in range(lo, lo + count):
        factors = sympy.factorint(n)
        counts.append(prod(e + 1 for e in factors.values()))
        hit.update(p for p in factors if p <= bound)
    return counts, sorted(hit)


# The largest primes below 10**7 = isqrt(FACTOR_LIMIT), and the last prime of
# the first hit-test chunk and the first of the second.
P1, P2 = 9999991, 9999973
C1, C2 = primes_upto(10**6)[_PRIME_CHUNK - 1 : _PRIME_CHUNK + 1].tolist()


def _next_to(a: int, b: int, low: int) -> int:
    """The least n >= low with a | n and b | n + 1."""
    n = a * (-pow(a, -1, b) % b)
    return n + -(-(low - n) // (a * b)) * a * b


class TestHitTest:
    """The float64 multiple test of divisor_counts against sympy."""

    def test_factor_limit_keeps_the_hit_test_exact(self):
        # floor(end / p) in float64 is exact only for end < 2**53; lifting
        # the factoring ceiling past it needs another hit test.
        assert FACTOR_LIMIT < 2**53

    @pytest.mark.parametrize("lo,count", [
        (P1 * P1, 9),                   # starts at p**2, p = isqrt(hi)
        (P2 * (P2 + 30), 20),           # starts at a multiple of p
        (P1 * P2, 1),                   # a single term p*q
        (P2 * (P2 + 30) + 1, 20),       # starts one past a multiple of p
        (P1 * P1 + 1, 30),
        (P2 * (P1 + 4) - 15, 16),       # ends on a multiple of p
        (P1 * P1 - 40, 41),             # ends on p**2
        (_next_to(C1, C2, C2**2), 2),   # one hit either side of the chunk edge
        (_next_to(C1, C2, 2**40) - 5, 12),
        (_next_to(C2, C1, 2**41), 2),
        (FACTOR_LIMIT - 40, 40),        # ends at FACTOR_LIMIT - 1
        (FACTOR_LIMIT - 39, 40),        # ends at FACTOR_LIMIT
    ])
    def test_matches_sympy(self, lo, count):
        hi = lo + count - 1
        counts, hit = _sympy_runs(lo, count)
        primes = primes_upto(isqrt(hi))
        floats = divisors._prime_floats[: len(primes)]
        assert divisors._with_multiple(primes, floats, lo, hi).tolist() == hit
        assert divisor_counts(lo, count).tolist() == counts

    def test_across_segment_and_chunk_edges(self):
        # Two segments, at a height where the primes fill two chunks; sympy
        # checks 24 terms at each end and either side of the segment edge.
        lo = _next_to(C1, C2, 2**40) - _SEGMENT + 3
        count = _SEGMENT + 12
        assert len(primes_upto(isqrt(lo + count))) > _PRIME_CHUNK
        counts = divisor_counts(lo, count).tolist()
        for i in (0, _SEGMENT - 12, count - 24):
            assert counts[i : i + 24] == _sympy_runs(lo + i, 24)[0], i


def _squarefree_run(low: int, count: int) -> int:
    """The least lo >= low with lo, ..., lo + count - 1 squarefree."""
    lo = low
    while not all(max(sympy.factorint(n).values()) == 1
                  for n in range(lo, lo + count)):
        lo += 1
    return lo


class TestDeepPairs:
    """The exact valuation of divisor_counts, taken only where p**2 | n."""

    def test_valuations_of_every_prime_power_in_range(self):
        # Every p**e <= FACTOR_LIMIT of an odd prime p <= isqrt(FACTOR_LIMIT):
        # cap(p) = 1 + #{e >= 2 : p <= the exact e-th root of FACTOR_LIMIT}.
        primes = primes_upto(isqrt(FACTOR_LIMIT))[1:]
        caps = np.ones(len(primes), dtype=np.int64)
        for e in range(2, FACTOR_LIMIT.bit_length()):
            root = int(FACTOR_LIMIT ** (1 / e)) + 1
            while root**e > FACTOR_LIMIT:
                root -= 1
            caps += primes <= root
        p = primes.repeat(caps)
        e = np.arange(len(p)) - (caps.cumsum() - caps).repeat(caps) + 1
        n = p**e
        assert len(n) == 1_334_700 - 46 and n.max() <= FACTOR_LIMIT
        assert (n > FACTOR_LIMIT // p)[caps.cumsum() - 1].all()  # e = cap(p)
        power, v = divisors._valuations(n, p)
        assert (power == n).all()
        assert (v == e).all()

    def test_valuations_of_multiples(self):
        p = np.array([3, 3, 5, 7, 9999991], dtype=np.int64)
        n = np.array([3**5 * 2, 3**29, 5**2 * 7**3, 7**2 * 3**4,
                      9999991**2], dtype=np.int64)
        power, v = divisors._valuations(n, p)
        assert power.tolist() == [3**5, 3**29, 5**2, 7**2, 9999991**2]
        assert v.tolist() == [5, 29, 2, 2, 2]

    @pytest.mark.parametrize("n", [
        2**46,
        3**29,
        (2999 * 3001) ** 2,              # two deep primes
        2**10 * 3**5 * 1000003,          # 2**a * 3**b * q, q > sqrt(n)
        9999991**2,                      # p = isqrt(n)
        9999973**2,
        7**16,
    ])
    def test_runs_where_every_pair_is_deep(self, n):
        factors = sympy.factorint(n)
        assert all(e >= 2 for p, e in factors.items() if p <= isqrt(n))
        assert divisor_counts(n, 1).tolist() == [sympy.divisor_count(n)]

    @pytest.mark.parametrize("low,count", [
        (10**6, 3),
        (2**40, 3),
        (FACTOR_LIMIT - 100, 3),
        (2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37, 1),
    ])
    def test_runs_with_no_deep_pair(self, low, count):
        lo = _squarefree_run(low, count)
        assert divisor_counts(lo, count).tolist() == [
            sympy.divisor_count(lo + i) for i in range(count)]


class TestDivisorTail:
    @pytest.mark.parametrize("start,count", [
        (1, 1), (1, 64), (49, 14), (10**6 + 3, 40), (10**12 + 1, 70),
        (2**44 - 17, 33), (5, 2 * _SEGMENT + 1),
    ])
    def test_matches_big_int_sum(self, start, count):
        scaled, slack = divisor_tail(start, count)
        assert scaled == sum(divisor_count(start + i) << (count - 1 - i)
                             for i in range(count))
        root = isqrt(start + count)
        if root * root < start + count:
            root += 1
        assert slack == 2 * root + 2


def _weighted(values: list[int]) -> int:
    return sum(v << (len(values) - 1 - i) for i, v in enumerate(values))


class TestPackWeighted:
    @given(st.lists(st.integers(min_value=0, max_value=1500),
                    min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_matches_horner(self, values):
        expected = 0
        for v in values:
            expected = (expected << 1) + v
        assert pack_weighted(values) == expected

    # Lengths uniform over 1..2000 cross divisors._FOLD_MAX, the fold/pack
    # switch; all-0xFFFF runs carry at every byte position.
    @given(st.integers(min_value=1, max_value=2000),
           st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @example(512, 0, True)
    @example(513, 0, True)
    @settings(max_examples=60, deadline=None)
    def test_lists_and_arrays_either_side_of_the_fold(self, m, seed, ones):
        values = (np.full(m, 0xFFFF, np.uint16) if ones else
                  np.random.default_rng(seed).integers(0, 1 << 16, m, np.uint16))
        expected = _weighted(values.tolist())
        assert pack_weighted(values.tolist()) == expected
        assert pack_weighted(values) == expected

    def test_short_uint16_array_does_not_wrap(self):
        # NumPy 2 keeps uint16 arithmetic in uint16: folding the array's
        # own scalars would give 65529.
        assert pack_weighted(np.array([0xFFFF] * 3, np.uint16)) == 458745

    @pytest.mark.parametrize("bad", [1 << 16, -1, 1 << 70])
    def test_out_of_range_entries_rejected_on_the_vector_path(self, bad):
        values = [7] * 600 + [bad] + [3] * 5
        with pytest.raises(ValueError, match=r"\[0, 2\*\*16\)"):
            pack_weighted(values)
        if abs(bad) < 1 << 63:
            with pytest.raises(ValueError):
                pack_weighted(np.array(values, dtype=np.int64))

    def test_empty_run_is_zero(self):
        assert pack_weighted([]) == 0


class TestProgressionDivisorSum:
    @pytest.mark.parametrize("a,A,M,expected", [
        (5, 7, 1, 2),
        (1, 2, 5, 10),
        (1, 1, 3, 5),
    ])
    def test_examples(self, a, A, M, expected):
        assert progression_divisor_sum(a, A, M) == expected

    def test_random_triples_match_termwise_sum(self):
        rng = random.Random(42)
        for _ in range(10**3):
            a = rng.randint(1, 500)
            step = rng.randint(1, 300)
            count = rng.randint(1, 60)
            expected = sum(divisor_count(a + m * step) for m in range(count))
            assert progression_divisor_sum(a, step, count) == expected

    def test_range_rejection(self):
        with pytest.raises(ValueError, match="supported range"):
            progression_divisor_sum(1, FACTOR_LIMIT, 2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            progression_divisor_sum(0, 1, 1)
