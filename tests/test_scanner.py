import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebconst import scanner
from ebconst.digits import expand_sieve
from ebconst.scanner import block_frequency_table, scan_block


def brute_positions(digits, pattern, overlapping=True):
    positions = []
    i = 0
    while i + len(pattern) <= len(digits):
        if digits[i : i + len(pattern)] == pattern:
            positions.append(i + 1)
            i += 1 if overlapping else len(pattern)
        else:
            i += 1
    return positions


def test_golden_string_has_15_overlapping_11(golden52):
    report = scan_block(golden52, "11")
    assert report.count == 15
    assert report.positions[0] == 4
    assert list(report.positions) == brute_positions(golden52, "11")


def test_hand_checked_overlap():
    report = scan_block("111", "11")
    assert report.positions.tolist() == [1, 2]
    assert report.count == 2


def test_non_overlapping_mode():
    report = scan_block("111", "11", overlapping=False)
    assert report.positions.tolist() == [1]


def test_pattern_longer_than_digits():
    assert scan_block("10", "101").count == 0


@pytest.mark.parametrize("digits,pattern", [("10", "101"), ("", "1"), ("", "11")])
@pytest.mark.parametrize("overlapping", [True, False])
def test_no_room_for_a_match(digits, pattern, overlapping):
    report = scan_block(digits, pattern, overlapping=overlapping)
    assert report.count == 0
    assert report.positions.shape == (0,)
    assert report.positions.dtype == np.int64
    assert report.window == (1, len(digits))


@pytest.mark.parametrize("overlapping", [True, False])
def test_positions_are_read_only_int64(overlapping):
    positions = scan_block("0110111", "11", overlapping=overlapping).positions
    assert positions.dtype == np.int64 and positions.ndim == 1
    with pytest.raises(ValueError):
        positions[0] = 7


def test_reports_compare_by_value():
    report = scan_block("0110111", "11")
    assert report == scan_block("0110111", "11")
    assert report != scan_block("0111011", "11")  # same count, other starts
    assert report != scan_block("0110111", "11", overlapping=False)
    assert hash(report) == hash(scan_block("0110111", "11"))


def test_expansion_past_2_20_matches_regex():
    bits = expand_sieve(1 << 20).bits
    report = scan_block(bits, "11")
    expected = [m.start() + 1 for m in re.finditer("(?=11)", bits)]
    assert report.count == len(expected)
    assert report.positions.tolist() == expected


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        scan_block("10", "")


def test_non_binary_rejected():
    with pytest.raises(ValueError):
        scan_block("102", "1")


@given(st.text(alphabet="01", min_size=0, max_size=200),
       st.text(alphabet="01", min_size=1, max_size=5),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_matches_brute_force(digits, pattern, overlapping):
    report = scan_block(digits, pattern, overlapping=overlapping)
    assert list(report.positions) == brute_positions(digits, pattern, overlapping)
    assert report.count == len(report.positions)
    assert list(report.positions) == sorted(report.positions)


def test_block_frequency_single_bit():
    assert block_frequency_table("10", 1) == {"0": 1, "1": 1}


def test_block_frequency_totals(golden52):
    for block_len in (1, 2, 3):
        table = block_frequency_table(golden52, block_len)
        assert len(table) == 2**block_len
        assert sum(table.values()) == 52 - block_len + 1


def test_block_frequency_validates():
    with pytest.raises(ValueError):
        block_frequency_table("10", 0)
    with pytest.raises(ValueError):
        block_frequency_table("10", 3)


@given(st.text(alphabet="01", min_size=4, max_size=120),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=130))
@settings(max_examples=150, deadline=None)
def test_frequency_identity(digits, block_len, chunk):
    # Chunks of a few starts make blocks straddle chunk ends.
    with mock.patch.object(scanner, "_FREQ_CHUNK", chunk):
        table = block_frequency_table(digits, block_len)
    assert sum(table.values()) == len(digits) - block_len + 1
    for block, count in table.items():
        assert count == len(brute_positions(digits, block))
