import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebconst.digits import (
    _RETRY_CAP,
    NAIVE_PRECISION_LIMIT,
    CertificationError,
    _certify,
    _check_bits,
    bits_to_hex,
    digit_window,
    expand_naive,
    expand_sieve,
)
from ebconst.divisors import divisor_counts, pack_weighted, tail_majorant


# A full expansion just past 2**20, the old hand-over point between the
# reciprocal-series and divisor routes of positional extraction.
PAST_2_20 = (1 << 20) + 64


@pytest.fixture(scope="module")
def bits_past_2_20() -> str:
    return expand_sieve(PAST_2_20).bits


def _seeded_positions(seed: int, count: int) -> list[int]:
    # Half log-uniform, so small positions are well covered, half uniform.
    rng = random.Random(seed)
    positions = []
    for i in range(count):
        if i % 2:
            positions.append(rng.randint(1, PAST_2_20))
        else:
            positions.append(min(PAST_2_20, int(2 ** rng.uniform(0, 20.0001))))
    return positions


class TestExpansions:
    def test_golden_52_naive(self, golden52):
        result = expand_naive(52)
        assert result.bits == golden52
        assert result.integer_part == 1
        assert result.certified
        assert result.method == "naive"

    def test_golden_52_sieve(self, golden52):
        result = expand_sieve(52)
        assert result.bits == golden52
        assert result.integer_part == 1
        assert result.certified

    @pytest.mark.parametrize("n,expected", [(1, "1"), (4, "1001")])
    def test_short_prefixes(self, n, expected):
        assert expand_naive(n).bits == expected
        assert expand_sieve(n).bits == expected

    def test_methods_agree_at_1024(self):
        assert expand_naive(1024).bits == expand_sieve(1024).bits

    def test_methods_agree_at_every_small_precision_and_2_14(self, sieve_16384):
        # The sieve adds the squares term 2**(m - k*k) to twice the packed
        # half counts; every precision up to 64 moves its scale past new
        # squares, and 2**14 takes the byte-plane pack.
        for n in range(1, 65):
            naive, sieve = expand_naive(n), expand_sieve(n)
            assert (naive.integer_part, naive.bits) == (sieve.integer_part,
                                                        sieve.bits), n
        assert expand_naive(16384).bits == sieve_16384.bits

    @pytest.mark.parametrize("expand", [expand_naive, expand_sieve])
    def test_prefix_stability(self, expand, golden52):
        a = expand(20).bits
        b = expand(52).bits
        assert b.startswith(a)
        assert b == golden52

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            expand_naive(0)
        with pytest.raises(ValueError):
            expand_sieve(-3)

    def test_naive_refuses_past_its_work_bound(self):
        for precision in (NAIVE_PRECISION_LIMIT + 1, 300_000_000):
            with pytest.raises(ValueError, match="at most 16384 bits"):
                expand_naive(precision)


class TestCertify:
    @staticmethod
    def _straddling(times, calls):
        # Value 2**work - 1 exactly: an enclosure [v - 1, v + 1] crosses the
        # carry boundary at 2**work; after `times` straddles it is [v, v].
        def enclose(work):
            calls.append(work)
            value = (1 << work) - 1
            return (value - 1, 2) if len(calls) <= times else (value, 0)
        return enclose

    def test_retries_double_the_guard(self):
        calls = []
        lower, slack, guard = _certify(self._straddling(2, calls), 6, 5)
        assert calls == [11, 16, 26]
        assert guard == 20
        assert (lower, slack) == ((1 << 26) - 1, 0)
        assert lower >> guard == 0b111111

    def test_never_deciding_raises(self):
        calls = []
        with pytest.raises(CertificationError):
            _certify(self._straddling(10**9, calls), 6, 5)
        assert len(calls) == _RETRY_CAP + 1


class TestTailMajorant:
    @pytest.mark.parametrize("m", [1, 4, 52, 1000])
    def test_sieve_tail_bound_dominates_partial_sums(self, m):
        # The sieve expansion's slack tail_majorant(m + 1) * 2**-m must
        # dominate the true omitted tail sum_{n>m} d(n)*2**-n; a 400-term
        # lower partial sum of 2*sqrt(n)*2**-n (floor square roots), which
        # bounds d(n) from above, is an exact dyadic witness.
        from math import isqrt

        majorant = Fraction(tail_majorant(m + 1), 1 << m)
        partial = sum(
            Fraction(2 * isqrt(n), 1 << n) for n in range(m + 1, m + 400)
        )
        assert partial < majorant
        exact = sum(Fraction(d, 1 << n) for n, d in
                    enumerate(divisor_counts(m + 1, 399).tolist(),
                              start=m + 1))
        assert exact < majorant


class TestPacking:
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65, 1000, 4097])
    def test_uint16_tables_match_big_int_sum(self, m):
        # A uint16 table slice, as divisor_sieve makes from 17297280 on, over
        # the full 16-bit range, plus an all-ones table whose byte groups
        # fill three planes; entries past m must not leak into the sum.
        rng = np.random.default_rng(m)
        for counts in (rng.integers(0, 1 << 16, m + 5, dtype=np.uint16),
                       np.full(m + 5, 0xFFFF, np.uint16)):
            expected = sum(int(counts[n]) << (m - n) for n in range(1, m + 1))
            assert pack_weighted(counts[1 : m + 1]) == expected


class TestDigitWindow:
    @pytest.mark.parametrize("pos,width,expected", [
        (1, 4, "1001"),
        (5, 4, "1011"),
        (49, 4, "0010"),
    ])
    def test_reference_windows(self, pos, width, expected):
        assert digit_window(pos, width) == expected

    def test_windows_match_expansion_slices(self, sieve_16384):
        bits = sieve_16384.bits
        rng = random.Random(7)
        for _ in range(30):
            width = rng.randint(1, 24)
            pos = rng.randint(1, 16384 - width)
            assert digit_window(pos, width) == bits[pos - 1 : pos - 1 + width]

    def test_routes_agree(self, clausen):
        # The divisor route against the Clausen oracle, which shares no
        # divisor count with it, up to the 10**14 golden position.
        rng = random.Random(11)
        positions = [rng.randint(100, 5000) for _ in range(10)]
        for pos in positions + [(1 << 20) - 3, (1 << 20) + 5, 10**12 + 1,
                                2 * 10**12 + 12345, 10**13 + 7,
                                99999999999000]:
            assert digit_window(pos, 64) == clausen(pos, 64), pos

    def test_large_position_uses_divisor_route(self):
        # Divisor counts near 10**9, with no digit before the window.
        bits = digit_window(10**9 + 7, 8)
        assert len(bits) == 8 and set(bits) <= {"0", "1"}

    def test_route_boundary_matches_expansion(self, bits_past_2_20):
        # Positions on both sides of 2**20, where positional extraction
        # once switched from the series route to the divisor route, agree
        # with a full expansion.
        for pos in ((1 << 20) - 4, (1 << 20) + 4):
            assert digit_window(pos, 8) == bits_past_2_20[pos - 1 : pos + 7]

    @pytest.mark.parametrize("pos,width", [(1, 4096), (777, 5000),
                                           ((1 << 20) - 4100, 4100)])
    def test_wide_windows_match_expansion(self, bits_past_2_20, pos, width):
        # Past 512 terms the tail is packed by the vectorised kernel.
        assert digit_window(pos, width) == bits_past_2_20[pos - 1 : pos - 1 + width]

    def test_seeded_windows_up_to_2_20_match_expansion(self, bits_past_2_20):
        rng = random.Random(31)
        for pos in _seeded_positions(29, 300):
            width = rng.randint(1, 64)
            if pos - 1 + width > PAST_2_20:
                pos = PAST_2_20 - width + 1
            assert digit_window(pos, width) == bits_past_2_20[pos - 1 : pos - 1 + width]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            digit_window(0, 4)
        with pytest.raises(ValueError):
            digit_window(4, 0)


class TestFractionalEnclosure:
    # frac(2**(n-1) E) in a quarter band [a/4, (a+1)/4) is the two-bit
    # window of a at position n.
    def test_first_position_bits(self):
        assert digit_window(1, 2) == "10"

    def test_position_4_inside_three_quarters(self):
        assert digit_window(4, 2) == "11"

    def test_position_5_in_half_band(self):
        assert digit_window(5, 2) == "10"

    def test_width_respects_precision(self):
        # A narrower certified window is a prefix of a wider one.
        widest = digit_window(9, 48)
        for precision in (8, 24):
            assert digit_window(9, precision) == widest[:precision]

    def test_consistent_with_window(self, clausen):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 4000)
            precision = rng.randint(4, 20)
            assert clausen(n, precision) == digit_window(n, precision)

    def test_seeded_enclosures_up_to_2_20_match_expansion(self, bits_past_2_20,
                                                          clausen):
        # The oracle itself against a full expansion.
        rng = random.Random(37)
        for n in _seeded_positions(41, 300):
            precision = rng.randint(1, 48)
            if n - 1 + precision > PAST_2_20:
                n = PAST_2_20 - precision + 1
            assert clausen(n, precision) == bits_past_2_20[n - 1 : n - 1 + precision]


class TestHexFormat:
    def test_nibble_packing_msb_first(self):
        assert bits_to_hex("1001") == "9"
        assert bits_to_hex("10011011") == "9b"
        assert bits_to_hex("1") == "8"  # right-padded to a nibble
        assert bits_to_hex("") == ""

    @pytest.mark.parametrize("bad", ["102", "1_0", " 10", "10 ", "1é0"])
    def test_non_bits_rejected(self, bad):
        with pytest.raises(ValueError):
            bits_to_hex(bad)

    @pytest.mark.parametrize("bad", ["/", "2", "\x00", "\x7f", "1\u00b9",
                                     "\uff11", "0\u0660"])
    def test_check_bits_edges(self, bad):
        # The codes just outside '0'..'1', the ends of ASCII, and digits one
        # and zero outside ASCII (superscript, fullwidth, Arabic-Indic).
        assert _check_bits("", "bits").size == 0
        assert _check_bits("01", "bits").tolist() == [48, 49]
        with pytest.raises(ValueError, match="bits must contain only '0'/'1'"):
            _check_bits(bad, "bits")

    @staticmethod
    def assert_encodes(hexdigits: str, bits: str) -> None:
        # ceil(len / 4) lowercase digits whose value is the bits,
        # zero-padded on the right to a whole nibble.
        pad = -len(bits) % 4
        assert len(hexdigits) == (len(bits) + pad) // 4
        assert set(hexdigits) <= set("0123456789abcdef")
        assert int(hexdigits, 16) == int(bits, 2) << pad

    def test_round_trip(self, golden52):
        self.assert_encodes(bits_to_hex(golden52), golden52)

    @given(st.text(alphabet="01", min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random(self, bits):
        self.assert_encodes(bits_to_hex(bits), bits)
