"""Mutation check of the decisions that certify bits, witnesses and lemmas.

Each mutant replaces one exact text, which must occur exactly once in its
file, by a broken variant. For each mutant the script copies the
repository into a temporary directory, applies the mutant there and runs
the tier-1 suite with -x: a failing suite kills the mutant. A mutant that
cannot change any result (an equivalent mutant) carries its reason and is
expected to survive; every other mutant is expected to be killed. Any
outcome other than the expected one is news, and the script then exits 1.

Run from anywhere (a mutant costs one tier-1 run, 5-60 s; this is not part
of tier-1):

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME ...     # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str
    replacement: str
    equivalent: str | None = None  # why it cannot change a result

    @property
    def expected(self) -> str:
        return "survived" if self.equivalent else "killed"


MUTANTS = (
    Mutant("leq_ln_halves_rhs", "src/ebconst/lemmas.py",
           "tuple(c * b for b in ln_bounds(y, prec))",
           "tuple(c * b / 2 for b in ln_bounds(y, prec))"),
    Mutant("sqrt_below_m_ln_doubles_m", "src/ebconst/lemmas.py",
           "_leq_ln(sqrt_bounds(y, 128)[1], M, y)",
           "_leq_ln(sqrt_bounds(y, 128)[1], 2 * M, y)"),
    Mutant("ladder_proves_only_below_lo", "src/ebconst/lemmas.py",
           "if lhs <= lo:", "if lhs < lo:"),
    Mutant("ladder_refutes_at_hi", "src/ebconst/lemmas.py",
           "if lhs > hi:", "if lhs >= hi:"),
    Mutant("ladder_fails_open", "src/ebconst/lemmas.py",
           "    # report only what is proven.\n    return False",
           "    # report only what is proven.\n    return True"),
    Mutant("ladder_stops_at_256", "src/ebconst/lemmas.py",
           "_PRECISIONS = (64, 128, 256, 512)", "_PRECISIONS = (64, 128, 256)"),
    Mutant("markov_strict", "src/ebconst/lemmas.py",
           "exceed * exceed <= total * total * (1 << k)",
           "exceed * exceed < total * total * (1 << k)"),
    Mutant("s1_y_cap_doubled", "src/ebconst/lemmas.py",
           "3 <= y <= 1 << L_analog", "3 <= y <= 2 << L_analog"),
    Mutant("ln_reduction_exponent_plus_1", "src/ebconst/bounds.py",
           "(y.numerator // y.denominator).bit_length() - 1",
           "(y.numerator // y.denominator).bit_length()"),
    Mutant("half_power_at_equality", "src/ebconst/bounds.py",
           "num * num << k > den * den", "num * num << k >= den * den"),
    Mutant("half_power_without_sign_test", "src/ebconst/bounds.py",
           "return num > 0 and num * num << k > den * den",
           "return num * num << k > den * den",
           equivalent="every caller passes num >= 0, and at num = 0 the "
                      "square test is false as well"),
    Mutant("tail_below_half_k_negated", "src/ebconst/construction.py",
           "return not exceeds_half_power(", "return exceeds_half_power("),
    Mutant("tail_window_closed", "src/ebconst/construction.py",
           "2 * (vn * rd + rn * vd) < (4 * t + 1) * vd * rd",
           "2 * (vn * rd + rn * vd) <= (4 * t + 1) * vd * rd"),
    Mutant("json_bool_as_int", "src/ebconst/construction.py",
           "if type(value) is not kind:", "if not isinstance(value, kind):"),
    Mutant("json_m_max_as_string", "src/ebconst/construction.py",
           '("M", "m_max", int)', '("M", "m_max", str)'),
    Mutant("valuation_without_cube_test", "src/ebconst/construction.py",
           "(n + 2) % q0**2 == 0 != (n + 2) % q0**3", "(n + 2) % q0**2 == 0"),
    Mutant("residues_without_r", "src/ebconst/construction.py",
           "(rebuilt.A, rebuilt.B, rebuilt.r) == (cert.A, cert.B, cert.r)",
           "(rebuilt.A, rebuilt.B) == (cert.A, cert.B)"),
    Mutant("tail_flag_unchecked", "src/ebconst/construction.py",
           "and cert.tail_below_half_k == tail_below_half_k(fresh)",
           "and True"),
    Mutant("pattern_divides_inexactly", "src/ebconst/construction.py",
           "(cert.n + j) % (pj * pj) == pj", "(cert.n + j) % pj == 0"),
    Mutant("pattern_without_group_primality", "src/ebconst/construction.py",
           "and all(is_prime(q) for q in group)", "and True"),
    Mutant("pattern_without_distinctness", "src/ebconst/construction.py",
           "len(set(group)) == len(group) == sizes[j]",
           "len(group) == sizes[j]"),
    Mutant("group_rule_reserves_3", "src/ebconst/construction.py",
           "for j in range(k) if j != 2}", "for j in range(k) if j != 3}"),
    Mutant("s_without_gcd", "src/ebconst/construction.py",
           "and gcd(cert.s, cert.B) == 1", "and True"),
    Mutant("d6_without_size_bound", "src/ebconst/construction.py",
           "and n + 2 >= 2 * q0 * q0", "and True",
           equivalent="the same conjunction requires n + 2 = q0^2 * p with "
                      "p prime, so p >= 2 gives n + 2 >= 2 * q0^2"),
    Mutant("erdos_congruence_plus_j", "src/ebconst/construction.py",
           "(G ** (t - 1) - j)", "(G ** (t - 1) + j)"),
    Mutant("certify_straddle_short", "src/ebconst/digits.py",
           "lower >> guard == (lower + slack) >> guard",
           "lower >> guard == (lower + slack - 1) >> guard"),
    Mutant("emission_pad_sign", "src/ebconst/digits.py",
           "pad = -width % 8", "pad = width % 8"),
    Mutant("squares_fancy_index_or", "src/ebconst/divisors.py",
           "np.bitwise_or.at(squares, e >> 3, np.left_shift(1, e & 7).astype(np.uint8))",
           "squares[e >> 3] |= np.left_shift(1, e & 7).astype(np.uint8)"),
    Mutant("ceiling_inclusive", "src/ebconst/divisors.py",
           "if hi > FACTOR_LIMIT:", "if hi >= FACTOR_LIMIT:"),
    Mutant("tail_majorant_without_2", "src/ebconst/divisors.py",
           "return 2 * _isqrt_ceil(end) + 2", "return 2 * _isqrt_ceil(end)"),
    Mutant("hit_test_strict", "src/ebconst/divisors.py",
           "[x >= float(start)]", "[x > float(start)]"),
    Mutant("deep_test_off_by_one", "src/ebconst/divisors.py",
           "deep = n // base % base == 0", "deep = n // base % base == 1"),
    Mutant("pack_drops_top_byte_plane", "src/ebconst/divisors.py",
           "range(values.itemsize + 1)", "range(values.itemsize)"),
    Mutant("pack_head_mod_4", "src/ebconst/divisors.py",
           "else m % 8", "else m % 4"),
    Mutant("pack_group_0_shift_6", "src/ebconst/divisors.py",
           "body[0::8].astype(wide) << 7", "body[0::8].astype(wide) << 6"),
    Mutant("valuation_log_truncated", "src/ebconst/divisors.py",
           "np.log(p) + 0.5)", "np.log(p) + 0.0)"),
    Mutant("odd_sieve_start_past_d_times_d_plus_2", "src/ebconst/divisors.py",
           "(d * d + 2 * d - 1) // 2 :: d]", "(d * d + 2 * d + 1) // 2 :: d]"),
    Mutant("odd_sieve_without_d_1", "src/ebconst/divisors.py",
           "range(1, isqrt(limit) + 1, 2)", "range(3, isqrt(limit) + 1, 2)"),
    Mutant("even_column_factor_a", "src/ebconst/divisors.py",
           "np.multiply(odd[: len(column)], a + 1, out=column)",
           "np.multiply(odd[: len(column)], a, out=column)"),
    Mutant("even_square_a_over_2_at_odd_a", "src/ebconst/divisors.py",
           "column[roots * roots // 2] += (a + 1) // 2",
           "column[roots * roots // 2] += a // 2"),
    Mutant("even_square_a_plus_2_over_2_at_even_a", "src/ebconst/divisors.py",
           "column[roots * roots // 2] += (a + 1) // 2",
           "column[roots * roots // 2] += (a + 2) // 2"),
    Mutant("cofactor_at_least_1", "src/ebconst/divisors.py",
           "cofactor > 1", "cofactor >= 1"),
    Mutant("cofactor_adds_instead_of_doubling", "src/ebconst/divisors.py",
           "counts <<= cofactor > 1", "counts += cofactor > 1"),
    Mutant("cofactor_above_2", "src/ebconst/divisors.py",
           "counts <<= cofactor > 1", "counts <<= cofactor > 2",
           equivalent="n & -n is divided out before, so every cofactor is "
                      "odd and cofactor > 1 equals cofactor > 2"),
)


def run(mutant: Mutant) -> tuple[str, float]:
    """("killed" or "survived", seconds) of one mutant on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="ebconst-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info",
            "results"))
        target = copy / mutant.path
        source = target.read_text()
        if source.count(mutant.text) != 1:
            raise SystemExit(f"{mutant.name}: the text must occur exactly "
                             f"once in {mutant.path}")
        target.write_text(source.replace(mutant.text, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        result = subprocess.run(
            # The anchor check would fail on every mutant, so it sits out.
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore", "tests/test_mutants.py"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
    return ("killed" if result.returncode else "survived"), elapsed


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    news = 0
    for mutant in chosen:
        outcome, seconds = run(mutant)
        ok = outcome == mutant.expected
        news += not ok
        note = f"\tequivalent: {mutant.equivalent}" if mutant.equivalent else ""
        print(f"{mutant.name}\t{outcome}\t{seconds:.1f}s\t"
              f"{'as expected' if ok else 'UNEXPECTED'}{note}", flush=True)
    return 1 if news else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
