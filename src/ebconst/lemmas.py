"""Exact-arithmetic checks of the average-divisor and tail inequalities.

Inequalities with transcendental right-hand sides are decided with directed
rounding: an exact left-hand side is compared against certified rational
bounds on the right, and the working precision is raised until the
comparison is decisive. A reported pass is therefore rigorous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .bounds import exceeds_half_power, ln_bounds, sqrt_bounds
from .divisors import (
    divisor_counts,
    factorize,
    pack_weighted,
    primes_upto,
    progression_divisor_sum,
    tail_majorant,
)

_PRECISIONS = (64, 128, 256, 512)


def _leq_with_rounding(lhs: Fraction, rhs_of_prec) -> bool:
    """Decide lhs <= rhs where rhs_of_prec(prec) -> (lo, hi) brackets rhs."""
    for prec in _PRECISIONS:
        lo, hi = rhs_of_prec(prec)
        if lhs <= lo:
            return True
        if lhs > hi:
            return False
    # Bounds at the top precision still straddle lhs; to stay one-sided,
    # report only what is proven.
    return False


def _leq_ln(lhs: Fraction, c, y) -> bool:
    """Decide lhs <= c*ln(y) for c >= 0, one ln_bounds(y, prec) a rung."""
    return _leq_with_rounding(
        lhs, lambda prec: tuple(c * b for b in ln_bounds(y, prec)))


def _sqrt_below_m_ln(y, M: int) -> bool:
    """The hypothesis sqrt(y) <= M*ln(y), certified: True only when proven."""
    return _leq_ln(sqrt_bounds(y, 128)[1], M, y)


# ---------------------------------------------------------------------------
# Average divisor sums over progressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma2Instance:
    a: int
    A: int
    M: int
    Y: Fraction

    def __post_init__(self):
        if min(self.a, self.A, self.M) < 1:
            raise ValueError("a, A, M must be positive")
        if self.Y < 3:
            raise ValueError("Y must be >= 3")
        if gcd(self.a, self.A) != 1:
            raise ValueError(f"requires gcd(a, A) = 1, got gcd({self.a}, {self.A}) "
                             f"= {gcd(self.a, self.A)}")
        if self.a + (self.M - 1) * self.A > self.Y:
            raise ValueError("requires a + (M-1)*A <= Y")


@dataclass(frozen=True)
class Lemma2Report:
    instance: Lemma2Instance
    lhs: int
    main_rhs_lower: Fraction
    second_rhs_lower: Fraction | None
    main_bound_holds: bool
    second_bound_applicable: bool
    second_bound_holds: bool | None

    @property
    def passed(self) -> bool:
        return self.main_bound_holds and (not self.second_bound_applicable
                                          or bool(self.second_bound_holds))

    def record(self) -> str:
        inst = self.instance
        second = (
            "n/a" if not self.second_bound_applicable
            else ("pass" if self.second_bound_holds else "fail")
        )
        second_rhs = (
            "n/a" if self.second_rhs_lower is None
            else f"{float(self.second_rhs_lower):.4f}"
        )
        verdict = "pass" if self.passed else "fail"
        return (
            f"a={inst.a}\tA={inst.A}\tM={inst.M}\tY={inst.Y}\tlhs={self.lhs}\t"
            f"rhs_main>={float(self.main_rhs_lower):.4f}\t"
            f"rhs_second>={second_rhs}\t"
            f"main={'pass' if self.main_bound_holds else 'fail'}\t"
            f"second={second}\tverdict={verdict}"
        )


def check_lemma2(instance: Lemma2Instance) -> Lemma2Report:
    """sum d(a + mA) <= 2M(1 + ln(Y)/2) + 2*sqrt(Y), and when
    sqrt(Y) <= M*ln(Y) also <= 5*M*ln(Y); both decided rigorously."""
    lhs = Fraction(progression_divisor_sum(instance.a, instance.A, instance.M))
    M, Y = instance.M, instance.Y

    def main_rhs(prec):  # 2M(1 + ln/2) is 2M + M*ln exactly
        (ln_lo, ln_hi), (sq_lo, sq_hi) = ln_bounds(Y, prec), sqrt_bounds(Y, prec)
        return 2 * M + M * ln_lo + 2 * sq_lo, 2 * M + M * ln_hi + 2 * sq_hi

    applicable = _sqrt_below_m_ln(Y, M)
    return Lemma2Report(
        instance, int(lhs), main_rhs(64)[0],
        5 * M * ln_bounds(Y, 64)[0] if applicable else None,
        _leq_with_rounding(lhs, main_rhs), applicable,
        _leq_ln(lhs, 5 * M, Y) if applicable else None)


def generate_lemma2_instances(count: int, y_max: int, seed: int) -> list[Lemma2Instance]:
    """Seeded valid instances with Y <= y_max, covering edge shapes."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if y_max < 3:
        raise ValueError("y_max must be >= 3")
    rng = random.Random(seed)
    instances = [
        Lemma2Instance(1, 1, 1, Fraction(3)),
        Lemma2Instance(1, 1, min(1000, y_max), Fraction(max(3, min(1000, y_max)))),
    ]
    while len(instances) < count:
        step = rng.randint(1, 1000)
        a = rng.randint(1, 1000)
        if gcd(a, step) != 1:
            continue
        span = y_max - a
        if span < 0:
            continue
        m = rng.randint(1, max(1, min(2000, span // step + 1)))
        last = a + (m - 1) * step
        if last > y_max:
            continue
        y = rng.randint(max(3, last), y_max)
        instances.append(Lemma2Instance(a, step, m, Fraction(y)))
    return instances[:count]


# ---------------------------------------------------------------------------
# Tail decomposition and the counting step
# ---------------------------------------------------------------------------

@dataclass
class Lemma3Report:
    k: int
    S1: Fraction | None
    S2: Fraction | None
    sumT: Fraction
    joint_remainder: Fraction | None
    exceed_count: int
    bounds_checked: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v in ("pass", "not applicable")
                   for v in self.bounds_checked.values())

    def record(self) -> str:
        parts = [f"k={self.k}", f"sumT={self.sumT}", f"exceed={self.exceed_count}"]
        parts += [f"{name}={verdict}" for name, verdict in self.bounds_checked.items()]
        return "\t".join(parts)


# lemma3 refuses k, L_analog or cutoff above this before any 2**k, 2**L or
# 2**cutoff is built. The record prints sumT exactly, over a denominator up
# to 2**cutoff: 1,234 digits at the cap, within Python's 4,300-digit
# int-to-str limit (cutoff = 65,536 ran but could not print its record).
_SCALE_CAP = 1 << 12


def _markov_holds(exceed: int, total: Fraction, k: int) -> bool:
    """exceed * 2**(-k/2) <= total, via squares."""
    return total >= 0 and exceed * exceed <= total * total * (1 << k)


def check_lemma3_decomposition(
    source: tuple[int, int, int] | None,
    k: int,
    L_analog: int,
    cutoff: int,
    *,
    tail_values: list[Fraction] | None = None,
    Y: Fraction | int | None = None,
) -> Lemma3Report:
    """Split-sum partition, counting step, and the near/far-bound checks.

    source is (r, A, M) for the progression n_m = r + m*A; tail_values
    bypasses divisor sums entirely and checks only the counting step. The
    partition S1 + S2 = sum of truncated tails is asserted exactly at the
    shared cutoff. One row of divisor counts is held at a time, with the
    column sums and running totals. k, L_analog and cutoff above
    _SCALE_CAP raise ValueError before any work.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if max(k, L_analog, cutoff) > _SCALE_CAP:
        raise ValueError(
            f"lemma3 supports k, L and cutoff up to {_SCALE_CAP}; got k = {k}, "
            f"L = {L_analog}, cutoff = {cutoff}"
        )

    if tail_values is not None:
        values = [Fraction(v) for v in tail_values]
        if any(v < 0 for v in values):
            raise ValueError("tail values must be nonnegative")
        total = sum(values, Fraction(0))
        exceed = sum(exceeds_half_power(*v.as_integer_ratio(), k) for v in values)
        report = Lemma3Report(k, None, None, total, None, exceed)
        report.bounds_checked["markov"] = (
            "pass" if _markov_holds(exceed, total, k) else "fail"
        )
        report.bounds_checked["partition"] = "not applicable"
        report.bounds_checked["s1_bound"] = "not applicable"
        return report

    if not k <= L_analog <= cutoff:
        raise ValueError("requires k <= L_analog <= cutoff")
    if source is None or source[2] < 1:
        raise ValueError("no progression members to check")
    r0, step, M = source
    if min(r0, r0 + (M - 1) * step) < 1:
        raise ValueError("progression members must be >= 1")

    # Row n holds d(n + ell) for k <= ell <= cutoff. Each row is packed
    # into its exact scaled tail and added into the column sums; S1 and S2
    # then sum the columns, column ell into S1 for ell < L, so the
    # partition compares two summation orders.
    columns = 0
    total_scaled = 0
    remainder_scaled = 0
    exceed = 0
    for m in range(M):
        n = r0 + m * step
        row = divisor_counts(n + k, cutoff - k + 1)
        columns += row
        scaled = pack_weighted(row)
        total_scaled += scaled
        exceed += exceeds_half_power(scaled, 1 << cutoff, k)
        remainder_scaled += tail_majorant(n + cutoff + 1)
        del row  # not held while the next row is built
    s1_scaled = 0
    s2_scaled = 0
    for ell, column in enumerate(columns.tolist(), start=k):
        if ell < L_analog:
            s1_scaled += column << (cutoff - ell)
        else:
            s2_scaled += column << (cutoff - ell)
    S1 = Fraction(s1_scaled, 1 << cutoff)
    S2 = Fraction(s2_scaled, 1 << cutoff)
    total = Fraction(total_scaled, 1 << cutoff)
    joint_remainder = Fraction(remainder_scaled, 1 << cutoff)

    report = Lemma3Report(k, S1, S2, total, joint_remainder, exceed)
    report.bounds_checked["partition"] = "pass" if S1 + S2 == total else "fail"
    report.bounds_checked["partition_with_remainder"] = (
        "pass" if S1 + S2 + joint_remainder >= total else "fail"
    )
    report.bounds_checked["markov"] = (
        "pass" if _markov_holds(exceed, total, k) else "fail"
    )

    # The near-sum bound S1 <= 10*M*ln(Y)*2**-k applies only when the
    # hypotheses hold: Y <= 2**L, sqrt(Y) <= M*ln(Y), last term <= Y, and
    # every prime divisor p of the step exceeds L_analog with some shift
    # j_p < k aligned on p.
    verdict = "not applicable"
    if Y is not None:
        y = Fraction(Y)
        if (3 <= y <= 1 << L_analog and _sqrt_below_m_ln(y, M)
                and r0 + (L_analog - 1) + (M - 1) * step <= y
                and all(p > L_analog and any((r0 + j) % p == 0 for j in range(k))
                        for p, _ in factorize(step))):
            verdict = "pass" if _leq_ln(S1 * (1 << k), 10 * M, y) else "fail"
    report.bounds_checked["s1_bound"] = verdict
    return report


# ---------------------------------------------------------------------------
# Primes in arithmetic progressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgpReport:
    X: int
    d: int
    a: int
    count: int
    phi_d: int
    bound_upper: Fraction
    satisfied: bool
    note: str = ""

    def record(self) -> str:
        return (
            f"X={self.X}\td={self.d}\ta={self.a}\tcount={self.count}\t"
            f"phi={self.phi_d}\tbound<={float(self.bound_upper):.6f}\t"
            f"satisfied={'yes' if self.satisfied else 'no'}"
            + (f"\tnote={self.note}" if self.note else "")
        )


def euler_phi(d: int) -> int:
    phi = d
    for p, _ in factorize(d):
        phi = phi // p * (p - 1)
    return phi


# Primes reduced modulo d per step of check_agp_progression.
_AGP_CHUNK = 1 << 16


def check_agp_progression(X: int, d: int, a: int) -> AgpReport:
    """Exact count of primes p <= X with p = a (mod d) against the
    reference lower bound X / (2*phi(d)*ln X). The flag only reports; the
    bound is not a theorem for every modulus."""
    if X < 3:
        raise ValueError("X must be >= 3")
    if d < 1 or a < 1:
        raise ValueError("d and a must be positive")
    if gcd(a, d) != 1:
        raise ValueError(f"requires gcd(a, d) = 1, got gcd({a}, {d}) = {gcd(a, d)}")
    phi = euler_phi(d)  # rejects d > FACTOR_LIMIT, so d fits int64 below
    # Counted a chunk at a time: a full-width p % d would copy the table.
    primes = primes_upto(X)
    count = sum(
        int(np.count_nonzero(primes[i : i + _AGP_CHUNK] % d == a % d))
        for i in range(0, len(primes), _AGP_CHUNK)
    )

    # count >= X / (2*phi*ln X) is X / (2*phi) <= count * ln X: satisfied
    # is claimed only when that holds against the lower bound of ln X.
    satisfied = _leq_ln(Fraction(X, 2 * phi), count, X)
    bound_upper = Fraction(X, 2 * phi) / ln_bounds(X, 64)[0]
    note = ""
    if d > X:
        note = "modulus exceeds X; the progression has at most one term in range"
    return AgpReport(X, d, a, count, phi, bound_upper, satisfied, note)
