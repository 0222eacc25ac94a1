"""Machine-speed gauge: fixed reference kernels timed in between the ops.

On a shared host the speed of one core swings by a quarter within minutes,
and the op time swings with it. The gauge times a fixed chunk of reference
work right after every slice of ops, so each op has a speed reading taken
within a fraction of a second of it. Dividing an op's time by the reference
speed of its slice gives its time on a machine of nominal speed: a change in
the program moves it, a change in the machine mostly does not.

The kernels use only the standard library and numpy, never ebconst, so a
change to the library cannot change them.
"""

from __future__ import annotations

import functools
import statistics
import time
from fractions import Fraction

import numpy as np


def python_kernel() -> None:
    """Fraction series and modular powers: the big-int arithmetic that the
    bounds, the digit windows and the witness search spend their time in."""
    for _ in range(10):
        x, t = Fraction(0), Fraction(1)
        for k in range(1, 60):
            t *= Fraction(2 * k - 1, 3 * k + 1)
            x += t / (k * k + 1)
        acc = 0
        for i in range(1, 300):
            acc ^= pow(3, i * 7919, (1 << 89) - 1)


@functools.cache
def _table() -> np.ndarray:
    return np.zeros((1 << 20) + 1, dtype=np.uint16)


def numpy_kernel() -> None:
    """Strided adds over a 2**20-cell table for every 37th divisor: a scale
    model of the library's divisor sieve at N = 2**20, with its mix of long
    memory-bound strides (small divisors) and short per-slice work (large
    ones). The table is allocated once: a fresh one per call made single
    calls vary by a quarter, from page faults alone."""
    cells = _table()
    cells.fill(0)
    for d in range(1, len(cells) // 2 + 1, 37):
        cells[2 * d :: d] += 1


# Seconds one call takes at nominal speed: the median on a 2-core Intel Xeon
# VM at 2.0 GHz. Only the ratio of measured to nominal is used, so these
# fix the unit of the normalised figures and nothing else.
KERNELS = {"python": (python_kernel, 0.022), "numpy": (numpy_kernel, 0.036)}


class Gauge:
    """Speed readings of one reference kernel; 1.0 is nominal speed and 1.2
    a machine that takes 20% longer."""

    def __init__(self, kernel: str):
        self.kernel, self.nominal = KERNELS[kernel]
        self.kernel()  # first call pays for allocation and imports

    def read(self, min_seconds: float = 0.0) -> float:
        """Run the kernel at least once and until `min_seconds` have passed;
        return the median slowdown of the calls."""
        times = []
        started = time.perf_counter()
        while not times or time.perf_counter() - started < min_seconds:
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times) / self.nominal
