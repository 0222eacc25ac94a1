import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from ebconst.construction import build_witness_system, select_primes, WitnessParams
from ebconst.divisors import divisor_count, is_prime, primes_upto
from ebconst.lemmas import (
    _exceeds_threshold,
    Lemma2Instance,
    check_agp_progression,
    check_lemma2,
    check_lemma3_decomposition,
    euler_phi,
    generate_lemma2_instances,
)


class TestLemma2:
    def test_reference_instance(self):
        report = check_lemma2(Lemma2Instance(1, 2, 5, Fraction(9)))
        assert report.lhs == 10
        assert report.main_bound_holds
        assert report.second_bound_applicable  # sqrt(9) = 3 <= 5*ln(9)
        assert report.passed

    def test_gcd_precondition(self):
        with pytest.raises(ValueError, match="gcd"):
            Lemma2Instance(2, 4, 3, Fraction(20))

    def test_minimal_instance(self):
        report = check_lemma2(Lemma2Instance(1, 1, 1, Fraction(3)))
        assert report.lhs == 1
        assert report.passed

    def test_range_precondition(self):
        with pytest.raises(ValueError):
            Lemma2Instance(5, 7, 3, Fraction(10))  # 5 + 2*7 = 19 > 10

    def test_y_minimum(self):
        with pytest.raises(ValueError):
            Lemma2Instance(1, 1, 1, Fraction(2))

    def test_seeded_suite_deterministic(self):
        first = generate_lemma2_instances(50, 10**5, seed=5)
        second = generate_lemma2_instances(50, 10**5, seed=5)
        assert first == second
        assert all(check_lemma2(inst).passed for inst in first)

    def test_record_is_single_line(self):
        line = check_lemma2(Lemma2Instance(1, 2, 5, Fraction(9))).record()
        assert "\n" not in line
        assert "lhs=10" in line and "verdict=pass" in line


class TestLemma3:
    def test_hand_values(self):
        report = check_lemma3_decomposition(
            None, 2, 2, 2, tail_values=[Fraction(1), Fraction(0), Fraction(0)]
        )
        assert report.exceed_count == 1
        assert report.bounds_checked["markov"] == "pass"
        assert report.sumT == 1

    def test_all_zero_values(self):
        report = check_lemma3_decomposition(
            None, 2, 2, 2, tail_values=[Fraction(0)] * 4
        )
        assert report.exceed_count == 0
        assert report.bounds_checked["markov"] == "pass"

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            check_lemma3_decomposition(None, 2, 2, 2,
                                       tail_values=[Fraction(-1)])

    def test_partition_exact_on_witness_progression(self):
        system = build_witness_system(
            *select_primes(WitnessParams(k=3, prime_window=(5, 20)))
        )
        report = check_lemma3_decomposition(
            (system.r, system.A, 6), k=3, L_analog=16, cutoff=67
        )
        assert report.bounds_checked["partition"] == "pass"
        assert report.bounds_checked["partition_with_remainder"] == "pass"
        assert report.bounds_checked["markov"] == "pass"
        assert report.S1 + report.S2 == report.sumT

    def test_partition_against_termwise_oracle(self):
        r, step, count, k, L, cutoff = 11, 7, 5, 2, 6, 24
        report = check_lemma3_decomposition((r, step, count), k, L, cutoff)
        s1 = sum(
            Fraction(divisor_count(r + m * step + l), 2**l)
            for m in range(count) for l in range(k, L)
        )
        s2 = sum(
            Fraction(divisor_count(r + m * step + l), 2**l)
            for m in range(count) for l in range(L, cutoff + 1)
        )
        assert report.S1 == s1
        assert report.S2 == s2

    def test_markov_on_random_collections(self):
        import random

        rng = random.Random(8)
        for _ in range(100):
            k = rng.randint(0, 12)
            values = [Fraction(rng.randint(0, 1000), 256) for _ in range(20)]
            report = check_lemma3_decomposition(None, k, k, k,
                                                tail_values=values)
            assert report.bounds_checked["markov"] == "pass"

    # The integer test against the Fraction form it replaces; the examples
    # sit on the threshold (scaled**2 * 2**k == 4**cutoff) and next to it.
    @given(st.integers(0, 2**70), st.integers(0, 80), st.integers(0, 40))
    @example(1 << 30, 32, 4)
    @example((1 << 30) + 1, 32, 4)
    @example((1 << 30) - 1, 32, 4)
    @example(0, 5, 0)
    def test_threshold_in_integers_matches_fractions(self, scaled, cutoff, k):
        value = Fraction(scaled, 1 << cutoff)
        assert _exceeds_threshold(scaled, 1 << cutoff, k) == (
            value > 0 and value * value * (1 << k) > 1)

    def test_s1_bound_applicable_case(self):
        # Prime-step progression engineered so every hypothesis is checkable:
        # step 101 > L_analog = 8, r + j = 0 (mod 101) for j = 0.
        r, step, count = 101, 101, 40
        y = Fraction(r + 7 + (count - 1) * step + 1000)
        report = check_lemma3_decomposition(
            (r, step, count), k=3, L_analog=8, cutoff=40, Y=y
        )
        assert report.bounds_checked["s1_bound"] in ("pass", "not applicable")
        assert report.bounds_checked["partition"] == "pass"

    def test_s1_bound_not_applicable_without_y(self):
        report = check_lemma3_decomposition((11, 7, 3), 2, 6, 20)
        assert report.bounds_checked["s1_bound"] == "not applicable"

    def test_peak_memory_of_a_long_progression(self):
        # 500 rows of 3998 divisor counts: held all at once they take
        # 16 MiB; one row with the column sums takes well under 1 MiB.
        tracemalloc.start()
        try:
            report = check_lemma3_decomposition((1000003, 30, 500), 3, 16, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.bounds_checked["partition"] == "pass"
        assert peak < 4 * 2**20


class TestAgp:
    def test_reference_count(self):
        report = check_agp_progression(100, 3, 1)
        assert report.count == 11
        assert report.phi_d == 2
        assert report.satisfied
        assert float(report.bound_upper) == pytest.approx(5.4287, abs=1e-3)

    def test_gcd_rejected(self):
        with pytest.raises(ValueError, match="gcd"):
            check_agp_progression(100, 4, 2)

    def test_modulus_beyond_range(self):
        report = check_agp_progression(10**6, 5_010_005, 1_774_161)
        assert report.count == 0
        assert not report.satisfied
        assert "at most one term" in report.note

    def test_independent_enumeration_method(self):
        # Second method: walk the progression itself and primality-test.
        for X, d, a in [(10**5, 7, 3), (10**4, 4, 1), (10**5, 10, 9)]:
            report = check_agp_progression(X, d, a)
            walked = sum(1 for n in range(a, X + 1, d) if is_prime(n))
            assert report.count == walked

    def test_counts_across_chunks(self):
        # pi(10**7) = 664579 primes, many counting chunks: the residues
        # coprime to 10 hold all of them but 2 and 5.
        counts = [check_agp_progression(10**7, 10, a).count for a in (1, 3, 7, 9)]
        assert sum(counts) + 2 == 664579
        assert counts[0] == int((primes_upto(10**7) % 10 == 1).sum())

    def test_peak_memory_of_a_count(self):
        # The 5.1 MiB table of primes up to 10**7 is built first; the count
        # itself needs one chunk of residues, not a copy of the table.
        primes_upto(10**7)
        tracemalloc.start()
        try:
            check_agp_progression(10**7, 10, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_phi_matches_sympy(self):
        for d in (1, 2, 12, 97, 5_010_005, 3**5 * 7):
            assert euler_phi(d) == sympy.totient(d)
