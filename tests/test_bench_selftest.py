"""The benchmark's self-test, run as part of the test suite.

bench/selftest.py drives every bench workload's input generator against
the library, warms the lemma2 workload and checks that its timed region
builds no divisor table, and compares the sympy window oracle with
digit_window. A library change that breaks what the bench calls fails
here, not only when the benchmark runs.
"""

import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def test_bench_selftest_passes():
    result = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
