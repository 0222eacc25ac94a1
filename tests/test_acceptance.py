"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion runs at its stated tolerance and budget; independent oracles
(brute-force scans, termwise sums, a second library) confirm the library's
own results wherever the criterion demands re-verification.
"""

import random
import time
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
import sympy

import ebconst as eb

GOLDEN_52 = "1001101101010000010111111001111001000011111100100010"


def _report(number: int, name: str, ok: bool, elapsed: float | None = None) -> None:
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}{timing}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def witness_run():
    params = eb.WitnessParams(k=3, prime_window=(5, 20), m_max=10**6)
    start = time.monotonic()
    cert = eb.run_witness_pipeline(params)
    elapsed = time.monotonic() - start
    assert not isinstance(cert, eb.NoWitnessInRange)
    return cert, elapsed


def test_criterion_1_golden_digits():
    start = time.monotonic()
    naive = eb.expand_naive(52)
    sieve = eb.expand_sieve(52)
    elapsed = time.monotonic() - start
    ok = (
        naive.bits == GOLDEN_52
        and sieve.bits == GOLDEN_52
        and naive.integer_part == 1
        and sieve.integer_part == 1
        and elapsed < 1.0
    )
    _report(1, "golden digits", ok, elapsed)


def test_criterion_2_series_identity_at_scale():
    start = time.monotonic()
    ok = True
    for n in (64, 1024, 16384):
        naive = eb.expand_naive(n)
        sieve = eb.expand_sieve(n)
        ok = ok and naive.bits == sieve.bits and naive.certified and sieve.certified
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(2, "series identity", ok, elapsed)


def test_criterion_3_window_extraction():
    start = time.monotonic()
    reference = eb.expand_sieve(16384).bits
    rng = random.Random(16384)
    ok = True
    for _ in range(100):
        width = rng.randint(1, 32)
        pos = rng.randint(1, 16384 - width)
        ok = ok and eb.digit_window(pos, width) == reference[pos - 1 : pos - 1 + width]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(3, "window extraction", ok, elapsed)


def test_criterion_4_performance_floor():
    start = time.monotonic()
    big = eb.expand_sieve(10**7)
    elapsed = time.monotonic() - start
    small = eb.expand_sieve(10**6)
    ok = (
        elapsed < 600.0
        and big.certified
        and big.bits[: 10**6] == small.bits
    )
    _report(4, "performance floor", ok, elapsed)


def test_criterion_5_end_to_end_witness(witness_run, clausen):
    cert, search_elapsed = witness_run
    start = time.monotonic()
    report = eb.verify_certificate(cert)
    ok = report.ok and cert.all_checks_pass

    # Digit claim, both ways: the divisor route and the Clausen oracle.
    ok = ok and eb.digit_window(cert.n, 2) == "11"
    ok = ok and clausen(cert.n, 2) == "11"

    # Brute-force rescan of every m below the accepted one with an
    # independent implementation: no earlier m may satisfy the acceptance
    # predicate.
    def independent_accepts(m: int) -> bool:
        p = cert.s + m * cert.B
        if not sympy.isprime(p):
            return False
        n = cert.r + m * cert.A
        if sympy.divisor_count(n + 2) != 6:
            return False
        if (n + 2) % cert.q0**2 != 0 or (n + 2) % cert.q0**3 == 0:
            return False
        if sympy.divisor_count(n) % 2 or sympy.divisor_count(n + 1) % 4:
            return False
        cutoff = cert.tail.cutoff
        value = sum(
            Fraction(int(sympy.divisor_count(n + l)), 2**l)
            for l in range(3, cutoff + 1)
        )
        root = isqrt(n + cutoff + 1)
        root += root * root < n + cutoff + 1
        remainder = Fraction(2 * root + 2, 2**cutoff)
        t = value // 2
        return value + remainder < 2 * t + Fraction(1, 2)

    ok = ok and not any(independent_accepts(m) for m in range(cert.m))
    ok = ok and independent_accepts(cert.m)
    elapsed = search_elapsed + (time.monotonic() - start)
    ok = ok and elapsed < 600.0
    _report(5, "end-to-end witness", ok, elapsed)


def test_criterion_6_unboundedness_shadow():
    start = time.monotonic()
    windows = [(5, 20), (7, 35), (11, 60)]
    previous = 0
    ok = True
    for window in windows:
        cert = eb.run_witness_pipeline(
            eb.WitnessParams(k=3, prime_window=window, m_max=10**5)
        )
        ok = ok and not isinstance(cert, eb.NoWitnessInRange)
        if not ok:
            break
        ok = ok and eb.verify_certificate(cert).ok
        ok = ok and cert.n + 2 == cert.q0**2 * cert.p
        ok = ok and eb.is_prime(cert.p)
        ok = ok and cert.n >= 2 * cert.q0**2 - 2
        ok = ok and cert.n > previous
        previous = cert.n
    elapsed = time.monotonic() - start
    _report(6, "unboundedness shadow", ok, elapsed)


def test_criterion_7_lemma2_suite():
    start = time.monotonic()
    instances = eb.generate_lemma2_instances(1000, 10**6, seed=1_000_003)
    failures = [
        inst for inst in instances if not eb.check_lemma2(inst).passed
    ]
    elapsed = time.monotonic() - start
    if failures:
        print(f"VIOLATIONS (would falsify the bound): {failures[:5]}")
    _report(7, "average divisor-sum suite", not failures, elapsed)


def test_criterion_8_lemma3_suite():
    start = time.monotonic()
    ok = True

    # Exact split-sum partition at a shared cutoff on the witness progression.
    system = eb.build_witness_system(
        *eb.select_primes(eb.WitnessParams(k=3, prime_window=(5, 20)))
    )
    report = eb.check_lemma3_decomposition(
        (system.r, system.A, 8), k=3, L_analog=16, cutoff=67
    )
    ok = ok and report.bounds_checked["partition"] == "pass"
    ok = ok and report.S1 + report.S2 == report.sumT

    # Counting step exact on every generated collection.
    rng = random.Random(56)
    for _ in range(200):
        k = rng.randint(0, 10)
        values = [Fraction(rng.randint(0, 4096), 1024) for _ in range(25)]
        counting = eb.check_lemma3_decomposition(
            None, k, k, k, tail_values=values
        )
        ok = ok and counting.bounds_checked["markov"] == "pass"

    # Near-sum bound on an instance meeting every hypothesis: the step is a
    # prime above L_analog and divides r + 0.
    applicable = eb.check_lemma3_decomposition(
        (101, 101, 40), k=3, L_analog=16, cutoff=40, Y=Fraction(4200)
    )
    ok = ok and applicable.bounds_checked["s1_bound"] == "pass"
    elapsed = time.monotonic() - start
    _report(8, "tail decomposition suite", ok, elapsed)


def test_criterion_9_zero_run_demo():
    start = time.monotonic()
    result = eb.erdos_zero_run(
        eb.ErdosRunParams(t=2, prime_groups=((3,), (5, 7)))
    )
    ok = result.x == 6159 and result.ok

    # Brute-force CRT scan oracle.
    scanned = next(
        x for x in range(1, 9 * 1225 + 1)
        if x % 9 == 3 and (x + 1) % 1225 == 35
    )
    ok = ok and scanned == 6159

    # Divisor enumeration oracle.
    def enumerate_divisors(n):
        return sum(1 for d in range(1, n + 1) if n % d == 0)

    ok = ok and enumerate_divisors(6159) % 2 == 0
    ok = ok and enumerate_divisors(6160) % 4 == 0
    elapsed = time.monotonic() - start
    _report(9, "zero-run demo", ok, elapsed)


def test_criterion_10_crt_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(314159)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    ok = True
    for _ in range(500):
        rng.shuffle(primes)
        pairs = []
        product = 1
        for p in primes[: rng.randint(1, 4)]:
            modulus = p ** rng.randint(1, 3)
            if product * modulus > 10**6:
                continue
            pairs.append((rng.randrange(modulus), modulus))
            product *= modulus
        if not pairs:
            pairs, product = [(1, 2)], 2
        solution = eb.crt_solve(pairs)
        candidates = np.arange(product, dtype=np.int64)
        mask = np.ones(product, dtype=bool)
        for residue, modulus in pairs:
            mask &= candidates % modulus == residue
        matches = np.flatnonzero(mask)
        ok = ok and len(matches) == 1 and int(matches[0]) == solution.residue
        ok = ok and solution.modulus == product
    elapsed = time.monotonic() - start
    _report(10, "simultaneous congruence oracle", ok, elapsed)


def test_criterion_11_scanner():
    start = time.monotonic()
    report = eb.scan_block(GOLDEN_52, "11")

    def brute(digits, pattern):
        return [
            i + 1
            for i in range(len(digits) - len(pattern) + 1)
            if digits[i : i + len(pattern)] == pattern
        ]

    expected = brute(GOLDEN_52, "11")
    ok = list(report.positions) == expected
    ok = ok and report.count == len(expected) == 15
    ok = ok and report.positions[0] == 4
    for block_len in (1, 2, 3, 4):
        table = eb.block_frequency_table(GOLDEN_52, block_len)
        ok = ok and sum(table.values()) == 52 - block_len + 1
    elapsed = time.monotonic() - start
    _report(11, "block scanner", ok, elapsed)
