"""Block-occurrence statistics over bit strings."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

# All 2**block_len blocks are tabulated, so cap the table size.
MAX_BLOCK_LEN = 20


@dataclass(frozen=True)
class BlockScanReport:
    pattern: str
    window: tuple[int, int]
    count: int
    positions: tuple[int, ...]
    overlapping: bool


def _check_bits(s: str, name: str) -> np.ndarray:
    """The characters of s as ASCII codes, after checking they are bits."""
    raw = np.frombuffer(s.encode("ascii", "replace"), np.uint8)
    if (raw - ord("0") > 1).any():
        raise ValueError(f"{name} must contain only '0'/'1' characters")
    return raw


def scan_block(digits: str, pattern: str, overlapping: bool = True) -> BlockScanReport:
    """Match positions of pattern in digits, 1-indexed from the start.

    Overlapping matching (the default) counts every start position;
    non-overlapping matching greedily skips past each match.
    """
    if not pattern:
        raise ValueError("pattern must be nonempty")
    raw = _check_bits(digits, "digits")
    pat = _check_bits(pattern, "pattern")
    # Candidates start where the first character matches; each later
    # character filters the survivors, so the cost follows their number.
    idx = np.flatnonzero(raw[: max(len(raw) - len(pat) + 1, 0)] == pat[0])
    for j in range(1, len(pat)):
        idx = idx[raw[idx + j] == pat[j]]
    idx += 1
    positions = idx.tolist()
    if not overlapping:
        kept: list[int] = []
        free = 0
        for i in positions:
            if i >= free:
                kept.append(i)
                free = i + len(pat)
        positions = kept
    return BlockScanReport(
        pattern=pattern,
        window=(1, len(digits)),
        count=len(positions),
        positions=tuple(positions),
        overlapping=overlapping,
    )


def block_frequency_table(digits: str, block_len: int) -> dict[str, int]:
    """Overlapping counts of every block of the given length.

    All 2**block_len blocks appear as keys; the counts total
    len(digits) - block_len + 1.
    """
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    if block_len > len(digits):
        raise ValueError("block_len exceeds the digit sequence length")
    if block_len > MAX_BLOCK_LEN:
        raise ValueError(f"block_len is capped at {MAX_BLOCK_LEN}")
    _check_bits(digits, "digits")
    table = {"".join(bits): 0 for bits in product("01", repeat=block_len)}
    for i in range(len(digits) - block_len + 1):
        table[digits[i : i + block_len]] += 1
    return table
