"""Block-occurrence statistics over bit strings."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .digits import _check_bits

# All 2**block_len blocks are tabulated, so cap the table size.
MAX_BLOCK_LEN = 20

# Block starts counted per step of block_frequency_table.
_FREQ_CHUNK = 1 << 22


@dataclass(frozen=True)
class BlockScanReport:
    """Matches of pattern in a digit string.

    positions is a read-only 1-D int64 array of the 1-indexed match
    starts, ascending; reports compare equal when every field, positions
    element by element, is equal.
    """

    pattern: str
    window: tuple[int, int]
    count: int
    positions: np.ndarray = field(hash=False)
    overlapping: bool

    def __eq__(self, other):
        if not isinstance(other, BlockScanReport):
            return NotImplemented
        return ((self.pattern, self.window, self.count, self.overlapping)
                == (other.pattern, other.window, other.count, other.overlapping)
                and np.array_equal(self.positions, other.positions))


def scan_block(digits: str, pattern: str, overlapping: bool = True) -> BlockScanReport:
    """Match positions of pattern in digits, 1-indexed from the start.

    Overlapping matching (the default) counts every start position;
    non-overlapping matching greedily skips past each match.
    """
    if not pattern:
        raise ValueError("pattern must be nonempty")
    raw = _check_bits(digits, "digits")
    pat = _check_bits(pattern, "pattern")
    n = max(len(raw) - len(pat) + 1, 0)
    # One mask over every start, narrowed by each pattern character in turn.
    mask = raw[:n] == pat[0]
    for j in range(1, len(pat)):
        mask &= raw[j : j + n] == pat[j]
    positions = np.flatnonzero(mask).astype(np.int64, copy=False)
    positions += 1
    if not overlapping:
        kept: list[int] = []
        free = 0
        for i in positions.tolist():
            if i >= free:
                kept.append(i)
                free = i + len(pat)
        positions = np.array(kept, np.int64)
    positions.setflags(write=False)
    return BlockScanReport(
        pattern=pattern,
        window=(1, len(digits)),
        count=len(positions),
        positions=positions,
        overlapping=overlapping,
    )


def block_frequency_table(digits: str, block_len: int) -> dict[str, int]:
    """Overlapping counts of every block of the given length.

    All 2**block_len blocks appear as keys, in ascending binary order; the
    counts total len(digits) - block_len + 1.
    """
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    if block_len > len(digits):
        raise ValueError("block_len exceeds the digit sequence length")
    if block_len > MAX_BLOCK_LEN:
        raise ValueError(f"block_len is capped at {MAX_BLOCK_LEN}")
    bits = _check_bits(digits, "digits") - ord("0")
    n = len(bits) - block_len + 1
    counts = np.zeros(1 << block_len, np.int64)
    # Starts in chunks, each reading block_len - 1 bits past its end; intp
    # values, since bincount would copy any other dtype to intp.
    for start in range(0, n, _FREQ_CHUNK):
        size = min(_FREQ_CHUNK, n - start)
        # Value of the block at each start, first bit most significant.
        values = np.zeros(size, np.intp)
        for j in range(block_len):
            values <<= 1
            values |= bits[start + j : start + j + size]
        counts += np.bincount(values, minlength=1 << block_len)
    return {format(v, f"0{block_len}b"): c for v, c in enumerate(counts.tolist())}
