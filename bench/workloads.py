"""The four benchmark workloads: seeded inputs, one timed operation each, and
the correctness checks that run outside the timed region.

Each workload draws its timed inputs from the stream "<name>/timed/<seed>"
and its warm-up inputs from "<name>/warmup/<seed>", so the same seed always
gives the same inputs and warm-up never replays a timed input. The library
only sees the generated inputs; every constant that shapes a workload lives
here, not in ebconst, so a change to the library cannot change the workload.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from math import isqrt

GOLDEN_52 = "1001101101010000010111111001111001000011111100100010"

# Position band edge for digit_window spans and the expand cross-check: the
# library's series route covers pos <= 2**20 at the time the benchmark was
# written. The band stays fixed when the library moves its route switch.
SERIES_BAND_MAX = 1 << 20

# The library's factoring ceiling when the benchmark was written. Witness
# inputs are filtered against this constant so the mix stays the same when
# a later change lifts the ceiling.
FACTOR_LIMIT = 10**14


# Steps of the low-discrepancy sequences that spread window inputs evenly.
GOLDEN = (5**0.5 - 1) / 2
SILVER = 2**0.5 - 1


def stream(workload: str, purpose: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{purpose}/{seed}")


def _isqrt_ceil(x: int) -> int:
    r = isqrt(x)
    return r if r * r == x else r + 1


class Workload:
    """Defaults for the per-op hooks the worker calls."""

    # A timed run stops only after a whole number of blocks; a block is one
    # full round of the input mix where the mix has rounds.
    BLOCK = 1
    # The speed.py kernel whose instruction mix is closest to the op's.
    REFERENCE = "python"

    def units(self, x, out) -> int:
        """Work units one op completed (certified bits for expand)."""
        return 1

    def funnel(self, out) -> dict[str, int]:
        """Exact per-op work counts the op's result reports."""
        return {}

    def deferred_checks(self) -> list[str]:
        """Checks that need an oracle too heavy to load before the run ends."""
        return []


class Expand(Workload):
    """expand_sieve(N) -> bits_to_hex -> scan_block(bits, "11"), N near 2**20:
    the `ebconst digits` / `scan` path, dominated by the divisor sieve."""

    name = "expand"
    REFERENCE = "numpy"
    N_CENTER = 1 << 20
    N_SPREAD = 1 << 12
    CHECK_WINDOWS = 2  # digit_window cross-checks per op
    CHECK_WIDTH = 16
    sizes = {"n": [N_CENTER - N_SPREAD, N_CENTER + N_SPREAD],
             "pattern": "11", "check_windows_per_op": CHECK_WINDOWS}

    def __init__(self, eb, seed: int):
        self.eb = eb
        self.seed = seed
        self.check_rng = stream(self.name, "check", seed)

    def inputs(self):
        rng = stream(self.name, "timed", self.seed)
        while True:
            yield self.N_CENTER + rng.randint(-self.N_SPREAD, self.N_SPREAD)

    def warm_up(self) -> None:
        # expand keeps no cache between calls; one small op loads the code.
        n = 4096 + stream(self.name, "warmup", self.seed).randint(0, 256)
        error = self.check(n, self.run(n))
        if error:
            raise RuntimeError(f"warm-up check failed: {error}")

    def run(self, n: int):
        eb = self.eb
        expansion = eb.expand_sieve(n)
        hexdigits = eb.bits_to_hex(expansion.bits)
        report = eb.scan_block(expansion.bits, "11")
        return expansion, hexdigits, report

    def units(self, n: int, out) -> int:
        return n  # certified fractional bits emitted

    def check(self, n: int, out) -> str | None:
        expansion, hexdigits, report = out
        bits = expansion.bits
        if not expansion.certified or expansion.integer_part != 1 or len(bits) != n:
            return f"N={n}: uncertified or malformed expansion"
        if bits[:52] != GOLDEN_52:
            return f"N={n}: first 52 bits differ from the reference expansion"
        pad = -n % 4
        if len(hexdigits) != (n + pad) // 4 or int(hexdigits, 16) != int(bits, 2) << pad:
            return f"N={n}: hex output does not encode the bits"
        if report.count != sum(1 for _ in re.finditer("(?=11)", bits)):
            return f"N={n}: scan_block count {report.count} is wrong"
        # digit_window at pos <= 2**20 sums the reciprocal series, which
        # shares no arithmetic with the divisor sieve.
        top = min(n, SERIES_BAND_MAX) - self.CHECK_WIDTH + 1
        for _ in range(self.CHECK_WINDOWS):
            pos = self.check_rng.randint(1, top)
            window = self.eb.digit_window(pos, self.CHECK_WIDTH)
            if window != bits[pos - 1 : pos - 1 + self.CHECK_WIDTH]:
                return f"N={n}: bits at {pos} disagree with digit_window"
        return None


def oracle_window(divisor_count, pos: int, width: int) -> str:
    """Bits pos..pos+width-1 of E from frac(2**(pos-1) E) =
    frac(sum_l d(pos+l)/2**(l+1)), with d taken from the given oracle and
    the tail past W terms bounded by (2*sqrt(pos+W) + 2) * 2**-W."""
    work = width + 48
    while True:
        lower = 0
        for offset in range(work):
            lower += int(divisor_count(pos + offset)) << (work - 1 - offset)
        upper = lower + 2 * _isqrt_ceil(pos + work) + 2
        drop = work - width
        if lower >> drop == upper >> drop:
            return format((lower >> drop) & ((1 << width) - 1), "b").zfill(width)
        work += 32


class Window(Workload):
    """digit_window(pos, w), pos log-uniform in [2**4, 2**44], w in 1..64."""

    name = "window"
    LOG2_LO, LOG2_HI = 4, 44
    MAX_WIDTH = 64
    WARM_OPS = 8
    BLOCK = LOG2_HI - LOG2_LO  # one position per octave
    # Share of divisor-band windows re-derived with sympy after the run.
    CHECK_SHARE = 0.05
    sizes = {"pos_log2": [LOG2_LO, LOG2_HI], "width": [1, MAX_WIDTH],
             "pos_strata": LOG2_HI - LOG2_LO, "sympy_check_share": CHECK_SHARE}

    def __init__(self, eb, seed: int):
        self.eb = eb
        self.seed = seed
        self.check_rng = stream(self.name, "check", seed)
        self.sampled: list[tuple[int, int, str]] = []

    def _windows(self, rng: random.Random):
        # Stratified log-uniform positions: each block of 40 ops holds one
        # position from every octave, so a run's cost mix barely depends on
        # the seed even though a window at 2**20 costs 1000x one at 2**5.
        # Within an octave, successive blocks step by the golden ratio from
        # a seeded start (width likewise, by sqrt(2) - 1), so a run's
        # positions and widths cover each octave evenly and the tail
        # latencies do not hinge on where a few draws happened to land.
        strata = self.LOG2_HI - self.LOG2_LO
        starts = [(rng.random(), rng.random()) for _ in range(strata)]
        for block in itertools.count():
            order = list(range(strata))
            rng.shuffle(order)
            for stratum in order:
                pos_start, width_start = starts[stratum]
                u = (stratum + (pos_start + block * GOLDEN) % 1.0) / strata
                pos = int(2.0 ** (self.LOG2_LO + strata * u))
                v = (width_start + block * SILVER) % 1.0
                yield pos, 1 + int(v * self.MAX_WIDTH)

    def inputs(self):
        return self._windows(stream(self.name, "timed", self.seed))

    def warm_up(self) -> None:
        # The prime list behind factorize grows lazily up to sqrt(pos).
        self.eb.primes_upto(isqrt((1 << self.LOG2_HI) + 4096))
        warm = self._windows(stream(self.name, "warmup", self.seed))
        for pos, width in itertools.islice(warm, self.WARM_OPS):
            self.eb.digit_window(pos, width)

    def run(self, x):
        return self.eb.digit_window(*x)

    def units(self, x, out) -> int:
        return x[1]

    def check(self, x, out) -> str | None:
        pos, width = x
        if not isinstance(out, str) or len(out) != width or set(out) - {"0", "1"}:
            return f"window({pos}, {width}): malformed result {out!r}"
        if pos > SERIES_BAND_MAX and self.check_rng.random() < self.CHECK_SHARE:
            self.sampled.append((pos, width, out))
        return None

    def deferred_checks(self) -> list[str]:
        from sympy import divisor_count  # test-only oracle

        errors = []
        for pos, width, bits in self.sampled:
            expected = oracle_window(divisor_count, pos, width)
            if bits != expected:
                errors.append(f"window({pos}, {width}) = {bits}, sympy says {expected}")
        return errors


def witness_pool(k: int, low: int, high: int, m_max: int, margin: int):
    """Every ascending set of distinct primes in [low, high] of the size
    select_primes needs for k, kept only when the whole scan
    n = r + m*A (m < m_max) plus `margin` stays within FACTOR_LIMIT.

    A and r are computed here, independently of the library, so the filter
    is an input property and not a library result.
    """
    primes = [p for p in range(max(2, low), high + 1)
              if all(p % q for q in range(2, isqrt(p) + 1))]
    groups = [j for j in range(k) if j != 2]
    need = 1 + sum(j + 1 for j in groups)
    pool = []
    for combo in itertools.combinations(primes, need):
        q0, at = combo[0], 1
        congruences = [(q0 * q0 - 2, q0**3)]
        for j in groups:
            pj = 1
            for p in combo[at : at + j + 1]:
                pj *= p
            at += j + 1
            congruences.append(((pj - j) % pj**2, pj**2))
        r, a = 0, 1
        for res, mod in congruences:
            r += a * ((res - r) * pow(a, -1, mod) % mod)
            a *= mod
        if r + (m_max - 1) * a + margin <= FACTOR_LIMIT:
            pool.append(combo)
    return pool


class Witness(Workload):
    """select_primes -> build_witness_system -> search_witness -> JSON round
    trip -> factorize.cache_clear() -> verify_certificate, k = 3."""

    name = "witness"
    K = 3
    PRIMES = (5, 61)
    # m_max fixes the admissible pool: 28 prime sets at 50_000. A run covers
    # the pool several times, so the seed sets the order, not the mix. At
    # m_max = 1000 the pool has 382 sets with a heavy cost tail, and 10 s
    # runs drawn from it would differ by 14% in ops/s from seed to seed.
    M_MAX = 50_000
    # Room above the last scanned n for the tail cutoff (k + at most 4096)
    # and the digit checks' work bits.
    MARGIN = 1 << 13
    sizes = {"k": K, "primes": list(PRIMES), "m_max": M_MAX,
             "factor_limit": FACTOR_LIMIT}

    def __init__(self, eb, seed: int):
        self.eb = eb
        self.seed = seed
        self.pool = witness_pool(self.K, *self.PRIMES, self.M_MAX, self.MARGIN)
        self.BLOCK = len(self.pool)  # one pass over the pool
        self.sizes = dict(self.sizes, pool=len(self.pool))

    def _sets(self, rng: random.Random):
        while True:
            order = list(self.pool)
            rng.shuffle(order)
            yield from order

    def inputs(self):
        return self._sets(stream(self.name, "timed", self.seed))

    def warm_up(self) -> None:
        # Trial division reaches primes up to sqrt(n) <= sqrt(FACTOR_LIMIT).
        self.eb.primes_upto(isqrt(FACTOR_LIMIT))
        primes = next(self._sets(stream(self.name, "warmup", self.seed)))
        error = self.check(primes, self.run(primes))
        if error:
            raise RuntimeError(f"warm-up check failed: {error}")

    def run(self, primes):
        eb = self.eb
        params = eb.WitnessParams(k=self.K, primes=primes, m_max=self.M_MAX)
        q0, groups = eb.select_primes(params)
        system = eb.build_witness_system(q0, groups)
        found = eb.search_witness(params, system)
        if isinstance(found, eb.NoWitnessInRange):
            return found, None, None
        restored = eb.certificate_from_json(eb.certificate_to_json(found))
        eb.factorize.cache_clear()  # a verifier runs in its own process
        return found, restored, eb.verify_certificate(restored)

    def funnel(self, out) -> dict[str, int]:
        found = out[0]
        return {"search.m_scanned": found.m + 1,
                "search.prime_hits": found.prime_hits,
                "search.certificates": 1}

    def check(self, primes, out) -> str | None:
        found, restored, report = out
        if report is None:
            return f"primes {primes}: no witness for m < {self.M_MAX}"
        if (restored.n, restored.m, restored.p) != (found.n, found.m, found.p):
            return f"primes {primes}: JSON round trip changed the certificate"
        if not (report.ok and restored.all_checks_pass):
            failed = [r.name for r in report.results if not r.passed]
            return f"primes {primes}: verification failed {failed}"
        return None


class Lemma2(Workload):
    """check_lemma2 over generate_lemma2_instances(., 10**6, seed)."""

    name = "lemma2"
    Y_MAX = 10**6
    BATCH = 4096
    WARM_OPS = 32
    BLOCK = 256
    sizes = {"y_max": Y_MAX}

    def __init__(self, eb, seed: int):
        self.eb = eb
        self.seed = seed

    def _instances(self, purpose: str):
        # generate_lemma2_instances returns prefixes of one sequence, so a
        # longer request extends the batch already used.
        library_seed = stream(self.name, purpose, self.seed).getrandbits(63)
        done, count = 0, self.BATCH
        while True:
            batch = self.eb.generate_lemma2_instances(count, self.Y_MAX, library_seed)
            yield from batch[done:]
            done, count = count, 2 * count

    def inputs(self):
        return self._instances("timed")

    def warm_up(self) -> None:
        # The shared divisor table must already cover every timed term
        # (all are <= Y_MAX), so its growth is paid here and not timed.
        eb = self.eb
        cover = eb.Lemma2Instance(self.Y_MAX - 15, 1, 16, Fraction(self.Y_MAX))
        for instance in [cover, *itertools.islice(self._instances("warmup"),
                                                  self.WARM_OPS)]:
            if not eb.check_lemma2(instance).passed:
                raise RuntimeError(f"warm-up instance failed: {instance}")

    def run(self, instance):
        return self.eb.check_lemma2(instance)

    def check(self, instance, report) -> str | None:
        if not report.passed:
            return f"lemma2 failed: {report.record()}"
        return None


WORKLOADS = {w.name: w for w in (Expand, Window, Witness, Lemma2)}
