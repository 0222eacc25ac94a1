"""Constructive digit-block machinery.

Two pipelines live here. The zero-run construction solves a system of
prime-power congruences so that d(x+j) is divisible by t**(j+1) for a run
of consecutive arguments. The "11"-witness pipeline builds a modulus pair
(A, B), a CRT residue r, and a progression n_m = r + m*A along which
n_m + 2 = q0**2 * (s + m*B); whenever s + m*B is prime the divisor counts
near n_m force the two binary digits of E at positions n_m, n_m + 1 to be
1, provided the weighted divisor tail past the constructed window is small
enough. Every claimed property of an emitted certificate is re-verified
from scratch, never trusted from the search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

from .bounds import exceeds_half_power
from .crt import crt_solve
from .digits import digit_window
from .divisors import (FACTOR_LIMIT, check_divisor_ceiling, divisor_count,
                       divisor_tail, is_prime, primes_in_range)


class ConstructionError(ValueError):
    """A construction invariant failed; the message names the relation."""


# ---------------------------------------------------------------------------
# Tail estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    """Enclosure of T = sum_{l>=k} d(n+l)/2**l.

    value is the exact partial sum over k <= l <= cutoff; remainder_bound
    dominates the omitted sum over l > cutoff, so
    value <= T <= value + remainder_bound.
    """

    n: int
    k: int
    cutoff: int
    value: Fraction
    remainder_bound: Fraction


def tail_estimate(n: int, k: int, cutoff: int) -> TailEstimate:
    """Exact truncated tail plus the remainder bound
    tail_majorant(n + cutoff + 1) * 2**-cutoff."""
    if n < 1:
        raise ValueError("tail_estimate requires n >= 1")
    if k < 0 or cutoff < k:
        raise ValueError("tail_estimate requires cutoff >= k >= 0")
    scaled, slack = divisor_tail(n + k, cutoff - k + 1)  # at scale 2**cutoff
    return TailEstimate(
        n=n,
        k=k,
        cutoff=cutoff,
        value=Fraction(scaled, 1 << cutoff),
        remainder_bound=Fraction(slack, 1 << cutoff),
    )


def tail_window(estimate: TailEstimate) -> tuple[bool, int]:
    """Certify T in [2t, 2t + 1/2) for some integer t >= 0.

    Together with the divisibility pattern and d(n+2) = 6 this pins
    frac(2**(n-1) E) = 3/4 + (T/2 - t) inside [3/4, 1): the whole-unit part
    of T/2 is absorbed by the integer digit prefix, and the half-unit
    window keeps the leftover below 1/4. Decided in integers.
    """
    (vn, vd), (rn, rd) = (estimate.value.as_integer_ratio(),
                          estimate.remainder_bound.as_integer_ratio())
    t = vn // (2 * vd)
    return 2 * (vn * rd + rn * vd) < (4 * t + 1) * vd * rd, t


def tail_below_half_k(estimate: TailEstimate) -> bool:
    """Whether value + remainder <= 2**(-k/2) (integer squares)."""
    upper = estimate.value + estimate.remainder_bound
    return not exceeds_half_power(*upper.as_integer_ratio(), estimate.k)


# ---------------------------------------------------------------------------
# Witness pipeline
# ---------------------------------------------------------------------------

# Tail span cutoff - k of every search: it keeps 4*remainder_bound <=
# 2**(-k/2) for every n + k + 65 < 2**121, far past FACTOR_LIMIT >= n.
_CUTOFF_SPAN = 64
# Largest tail span cutoff - k that search may use and verify will compute.
_CUTOFF_SPAN_CAP = 4096
# Largest k verify accepts: P_{k-1}, a product of k distinct primes, divides
# n + k - 1 <= FACTOR_LIMIT + k, and the first 13 primes multiply to > 3*10**14.
_VERIFY_K_CAP = 12


@dataclass(frozen=True)
class WitnessParams:
    """Desk-scale knobs for the witness pipeline.

    k >= 3 is the window-length parameter; index j = 2 is reserved for the
    d(n+2) = 6 slot and never receives a prime group. Primes come either
    from an inclusive window [low, high] or an explicit list. m_max bounds
    the scan.
    """

    k: int
    prime_window: tuple[int, int] | None = None
    primes: tuple[int, ...] | None = None
    m_max: int = 100_000

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("witness construction requires k >= 3")
        if (self.prime_window is None) == (self.primes is None):
            raise ValueError("provide exactly one of prime_window or primes")
        if self.m_max < 0:
            raise ValueError("m_max must be >= 0")

    @property
    def group_indices(self) -> list[int]:
        return [j for j in range(self.k) if j != 2]

    @property
    def required_primes(self) -> int:
        # 1 + sum_{j != 2} (j+1) = k(k+1)/2 - 2, without listing range(k)
        return self.k * (self.k + 1) // 2 - 2


def select_primes(params: WitnessParams) -> tuple[int, dict[int, list[int]]]:
    """Deterministic ascending assignment: q0 first, then group 0, 1, 3, ...

    Raises with the required count when the window is too small.
    """
    if params.primes is not None:
        pool = sorted(set(params.primes))
        for p in pool:
            if not is_prime(p):
                raise ValueError(f"{p} in the explicit prime list is not prime")
        if len(pool) != len(params.primes):
            raise ValueError("explicit prime list contains duplicates")
        source = f"list of {len(pool)} primes"
    else:
        low, high = params.prime_window
        pool = primes_in_range(low, high).tolist()  # Python ints for P_j
        source = f"window [{low}, {high}] ({len(pool)} primes)"
    need = params.required_primes
    if len(pool) < need:
        raise ValueError(
            f"k={params.k} requires {need} distinct primes but the {source} "
            f"is too small"
        )
    q0 = pool[0]
    groups: dict[int, list[int]] = {}
    at = 1
    for j in params.group_indices:
        groups[j] = pool[at : at + j + 1]
        at += j + 1
    return q0, groups


def _erdos_congruences(slots) -> list[tuple[int, int]]:
    """Erdos's congruence x + j = G**(t-1) (mod G**t) for each slot
    (j, G, t): each prime of a squarefree G divides x + j exactly t-1 times."""
    return [((G ** (t - 1) - j) % G**t, G**t) for j, G, t in slots]


@dataclass(frozen=True)
class WitnessSystem:
    """Moduli, residue and progression data shared by every candidate m."""

    q0: int
    groups: dict[int, tuple[int, ...]]
    prime_products: dict[int, int]  # j -> P_j
    A: int
    B: int
    r: int
    s: int


def build_witness_system(q0: int, groups: dict[int, list[int]]) -> WitnessSystem:
    """Solve the residue system and derive (A, B, r, s), verifying each
    property before returning; any failure aborts naming the relation."""
    all_primes = [q0] + [p for js in sorted(groups) for p in groups[js]]
    if len(set(all_primes)) != len(all_primes):
        raise ConstructionError("q0 and the group primes must be distinct")
    for p in all_primes:
        if not is_prime(p):
            raise ConstructionError(f"{p} is not prime")
    if 2 in groups:
        raise ConstructionError("group index j = 2 is reserved and must be absent")

    products = {j: prod(members) for j, members in groups.items()}
    A = q0**3 * prod(pj**2 for pj in products.values())
    B = A // q0**2

    # n + 2 = q0^2 (mod q0^3) and n + j = P_j (mod P_j^2)
    solution = crt_solve(_erdos_congruences(
        [(2, q0, 3)] + [(j, products[j], 2) for j in sorted(products)]))
    r = solution.residue

    if solution.modulus != A:
        raise ConstructionError("modulus product != A = q0^3 * prod(P_j^2)")
    if not 0 <= r < A:
        raise ConstructionError("residue not normalized to 0 <= r < A")
    if (r + 2) % q0**2 != 0:
        raise ConstructionError("r + 2 not divisible by q0^2")
    s = (r + 2) // q0**2
    if s % q0 != 1:
        raise ConstructionError("s != 1 (mod q0)")
    if not 1 <= s < B:
        raise ConstructionError("s outside [1, B)")
    if gcd(s, B) != 1:
        raise ConstructionError("gcd(s, B) != 1")
    return WitnessSystem(
        q0=q0,
        groups={j: tuple(g) for j, g in groups.items()},
        prime_products=products,
        A=A,
        B=B,
        r=r,
        s=s,
    )


CHECK_RELATIONS = {
    "residues": (
        "A = q0^3 * prod(P_j^2); B = A/q0^2; r = CRT(q0^2 - 2 mod q0^3, "
        "P_j - j mod P_j^2); 0 <= r < A"
    ),
    "s_properties": (
        "s = (r + 2)/q0^2 exactly; s = 1 (mod q0); 1 <= s < B; gcd(s, B) = 1"
    ),
    "d6": (
        "p = s + m*B prime; n = r + m*A; n + 2 = q0^2 * p; d(n+2) = 6; "
        "n + 2 >= 2*q0^2"
    ),
    "valuation": "nu_q0(n + 2) = 2",
    "divisibility_pattern": "2^(j+1) | d(n+j) for 0 <= j < k, j != 2",
    "tail": (
        "sum_{l>=k} d(n+l)/2^l certified inside [2t, 2t + 1/2), hence "
        "frac(2^(n-1) E) = 3/4 + theta with theta in [0, 1/4)"
    ),
    "digits": "frac(2^(n-1) E) in [3/4, 1) and digits at n, n+1 are '11'",
}

CHECK_NAMES = tuple(CHECK_RELATIONS)


@dataclass(frozen=True)
class WitnessCertificate(WitnessSystem):
    """The system plus the accepted candidate m and its verification flags.

    tail_below_half_k records the stricter comparison
    value + remainder <= 2**(-k/2). verify recomputes it, but it is not an
    acceptance condition, because the minimum possible tail 2**(2-k)
    already exceeds that threshold whenever k < 4.
    """

    k: int
    m_max: int
    m: int
    p: int
    n: int
    prime_hits: int
    tail: TailEstimate
    tail_window_index: int
    tail_below_half_k: bool
    checks: dict[str, bool]

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.get(name, False) for name in CHECK_NAMES)


@dataclass(frozen=True)
class NoWitnessInRange:
    """Structured outcome of an exhausted scan."""

    m_scanned: int
    prime_hits: int


def search_witness(params: WitnessParams,
                   system: WitnessSystem) -> WitnessCertificate | NoWitnessInRange:
    """Scan m = 0..m_max-1 ascending; the first candidate passing every
    acceptance condition wins. Exhaustion is a structured result.

    Only primality of p and the tail window are tested per candidate; the
    divisor pattern, d(n+2) = 6 and the digit claim follow from the
    construction (see the comment in the loop), so nothing is factored.
    """
    q0, A, B, r, s = system.q0, system.A, system.B, system.r, system.s
    prime_hits = 0
    for m in range(params.m_max):
        p = s + m * B
        if not is_prime(p):
            continue
        prime_hits += 1
        n = r + m * A
        if n + 2 != q0 * q0 * p:
            continue
        # Once p is prime, every other check holds by construction, since
        # build_witness_system proved its premises. s = 1 (mod q0) and
        # q0 | B give p = 1 (mod q0), so p != q0 and n + 2 = q0^2 * p has
        # d(n+2) = 6 and nu_q0(n+2) = 2. P_j^2 | A and r = P_j - j
        # (mod P_j^2) give n + j = P_j (mod P_j^2), so P_j, a product of
        # j+1 distinct primes, exactly divides n + j and 2^(j+1) | d(n+j).
        # With the tail window below, frac(2^(n-1) E) lies in [3/4, 1)
        # (CHECK_RELATIONS["tail"]), which is the digit claim.
        estimate = tail_estimate(n, params.k, params.k + _CUTOFF_SPAN)
        accepted, window_index = tail_window(estimate)
        if not accepted:
            continue
        return WitnessCertificate(
            **vars(system),
            k=params.k,
            m_max=params.m_max,
            m=m,
            p=p,
            n=n,
            prime_hits=prime_hits,
            tail=estimate,
            tail_window_index=window_index,
            tail_below_half_k=tail_below_half_k(estimate),
            checks=dict.fromkeys(CHECK_NAMES, True),
        )
    return NoWitnessInRange(m_scanned=params.m_max, prime_hits=prime_hits)


def run_witness_pipeline(params: WitnessParams) -> WitnessCertificate | NoWitnessInRange:
    """select_primes -> build_witness_system -> search_witness."""
    q0, groups = select_primes(params)
    system = build_witness_system(q0, groups)
    return search_witness(params, system)


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append(CheckResult(name, passed, detail))


def _pattern_holds(cert: WitnessCertificate) -> bool:
    """Group j holds j+1 distinct primes with product P_j, and
    n + j = P_j (mod P_j^2), for every 0 <= j < k, j != 2.

    Then P_j exactly divides n + j, so 2^(j+1) | d(n+j) with nothing
    factored. The group keys are checked without listing range(k), and the
    congruence bounds P_j by n + j before Miller-Rabin sees a group prime.
    """
    k = cert.k
    if len(cert.groups) != max(k, 0) - (k > 2):
        return False
    for j, group in cert.groups.items():
        pj = cert.prime_products.get(j)
        if not (0 <= j < k and j != 2
                and len(set(group)) == len(group) == j + 1
                and pj == prod(group) and pj > 1
                and (cert.n + j) % (pj * pj) == pj
                and all(is_prime(q) for q in group)):
            return False
    return True


def verify_certificate(cert: WitnessCertificate) -> VerificationReport:
    """Re-derive every certified property from scratch.

    Nothing stored in the certificate is trusted. residues rebuilds the
    system from q0 and the groups and compares P_j, A, B and r with the
    certificate's. s_properties, d6, valuation and divisibility_pattern are
    congruences and equalities plus the primality of p, q0 and the group
    primes: d(n+2) = 6 follows from n + 2 = q0^2 * p with p != q0 both
    prime, and 2^(j+1) | d(n+j) from n + j = P_j (mod P_j^2), so no term is
    factored. tail recomputes the tail enclosure. digits is derived, not
    computed: d6, the pattern and the recomputed tail window together place
    frac(2**(n-1) E) in [3/4, 1) (CHECK_RELATIONS["tail"]). One
    digit_window(n, 2) == "11" is also required, as a check that the digit
    engine agrees; it reads the same divisor-tail sum as the tail check, so
    it is not independent of it.

    A certificate with k > 12, a tail span cutoff - k outside [0, 4096],
    or n + cutoff past FACTOR_LIMIT fails the tail check before any divisor
    count is computed, and nothing else is checked. The tail check also
    fails unless the stored tail and tail_below_half_k equal the ones
    recomputed from n, k and the stored cutoff.
    Groups past the k(k+1)/2 - 3 primes k assigns fail residues unrebuilt.
    """
    report = VerificationReport()
    n, k, cutoff = cert.n, cert.k, cert.tail.cutoff
    if not (0 <= k <= _VERIFY_K_CAP and k <= cutoff <= k + _CUTOFF_SPAN_CAP
            and 1 <= n <= FACTOR_LIMIT - cutoff):
        report.add("tail", False,
                   f"k = {k} must not exceed {_VERIFY_K_CAP}, tail span "
                   f"cutoff - k = {cutoff - k} must lie in "
                   f"[0, {_CUTOFF_SPAN_CAP}] and n + cutoff must not exceed "
                   f"{FACTOR_LIMIT}; nothing was recomputed")
        return report

    held = sum(map(len, cert.groups.values()))
    cap = k * (k + 1) // 2 - 3 * (k > 2)  # j + 1 primes in group j < k, j != 2
    try:
        if held > cap:  # a rebuild's work grows as held**2
            raise ValueError(f"the groups hold {held} primes, past the {cap} "
                             f"that k = {k} assigns")
        rebuilt = build_witness_system(
            cert.q0, {j: list(g) for j, g in cert.groups.items()}
        )
    except ValueError as exc:
        report.add("residues", False, f"rebuild failed: {exc}")
    else:
        residues_ok = (
            rebuilt.prime_products == cert.prime_products
            and (rebuilt.A, rebuilt.B, rebuilt.r) == (cert.A, cert.B, cert.r)
        )
        report.add("residues", residues_ok, CHECK_RELATIONS["residues"])

    p, q0 = cert.p, cert.q0
    # Guards the divisions by q0; q0**2 | n + 2 bounds q0
    # before Miller-Rabin sees it.
    q0_prime = 2 <= q0 and q0 * q0 <= n + 2 and is_prime(q0)
    s_ok = (
        q0_prime
        and (cert.r + 2) % q0**2 == 0
        and cert.s == (cert.r + 2) // q0**2
        and cert.s % q0 == 1
        and 1 <= cert.s < cert.B
        and gcd(cert.s, cert.B) == 1
    )
    report.add("s_properties", s_ok, CHECK_RELATIONS["s_properties"])

    # The equalities come first: they bound p by n <= FACTOR_LIMIT before
    # Miller-Rabin sees it.
    d6_ok = (
        p == cert.s + cert.m * cert.B
        and n == cert.r + cert.m * cert.A
        and n + 2 == q0 * q0 * p
        and p != q0
        and is_prime(p)
        and q0_prime
        and n + 2 >= 2 * q0 * q0
    )
    report.add("d6", d6_ok, CHECK_RELATIONS["d6"])

    report.add("valuation",
               q0_prime and (n + 2) % q0**2 == 0 != (n + 2) % q0**3,
               CHECK_RELATIONS["valuation"])

    pattern_ok = _pattern_holds(cert)
    report.add("divisibility_pattern", pattern_ok,
               CHECK_RELATIONS["divisibility_pattern"])

    fresh = tail_estimate(n, k, cutoff)
    window_ok, window_index = tail_window(fresh)
    tail_ok = (
        fresh == cert.tail
        and window_ok
        and window_index == cert.tail_window_index
        and cert.tail_below_half_k == tail_below_half_k(fresh)
    )
    report.add("tail", tail_ok, CHECK_RELATIONS["tail"])

    engine_agrees = digit_window(n, 2) == "11"
    report.add("digits", d6_ok and pattern_ok and window_ok and engine_agrees,
               CHECK_RELATIONS["digits"])

    # The stored flags themselves are untrusted input: they must agree
    # with what was just recomputed, or the certificate was altered.
    recomputed = {r.name: r.passed for r in report.results}
    mismatched = sorted(
        name for name in CHECK_NAMES
        if cert.checks.get(name) != recomputed.get(name)
    )
    report.add(
        "stored_flags",
        not mismatched,
        "stored check flags match re-verification"
        if not mismatched else f"flags disagree with re-verification: {mismatched}",
    )
    return report


# ---------------------------------------------------------------------------
# Certificate serialization (flat JSON, big integers as decimal strings)
# ---------------------------------------------------------------------------

# (JSON key, attribute, JSON type) of each scalar field; str means the
# int is written as a decimal string.
_FIELDS = (
    ("k", "k", int), ("q0", "q0", str), ("A", "A", str), ("B", "B", str),
    ("r", "r", str), ("s", "s", str), ("M", "m_max", int), ("m", "m", int),
    ("p", "p", str), ("n", "n", str), ("prime_hits", "prime_hits", int),
    ("tail_window_index", "tail_window_index", str),
    ("tail_below_half_k", "tail_below_half_k", bool),
)
_TAIL_FIELDS = (("n", "n", str), ("k", "k", int), ("cutoff", "cutoff", int))


def _write_fields(obj, fields) -> dict:
    return {key: str(getattr(obj, attr)) if kind is str else getattr(obj, attr)
            for key, attr, kind in fields}


def _read_fields(data: dict, fields) -> dict:
    return {attr: _field(data[key], kind) for key, attr, kind in fields}


def certificate_to_json(cert: WitnessCertificate) -> str:
    tail = cert.tail
    payload = {
        **_write_fields(cert, _FIELDS),
        "groups": {str(j): [str(p) for p in g] for j, g in sorted(cert.groups.items())},
        "P": {str(j): str(v) for j, v in sorted(cert.prime_products.items())},
        "tail": {
            **_write_fields(tail, _TAIL_FIELDS),
            "value_num": str(tail.value.numerator),
            "value_den": str(tail.value.denominator),
            "remainder_num": str(tail.remainder_bound.numerator),
            "remainder_den": str(tail.remainder_bound.denominator),
        },
        "checks": {name: bool(cert.checks[name]) for name in CHECK_NAMES},
        "paper_refs": [f"{name}: {CHECK_RELATIONS[name]}" for name in CHECK_NAMES],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _field(value, kind: type = str):
    """A field in exactly the JSON type certificate_to_json writes (a bool is
    no int); a decimal string, the default, is parsed to its int."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return int(value) if kind is str else value


def certificate_from_json(text: str) -> WitnessCertificate:
    """Parse certificate_to_json output. Any malformed document (bad JSON,
    nesting too deep to decode, a missing key, a field of another JSON type
    than certificate_to_json writes, an unparsable decimal string or a zero
    denominator) raises ValueError."""
    try:
        data = json.loads(text)
        tail = data["tail"]
        return WitnessCertificate(
            **_read_fields(data, _FIELDS),
            groups={int(j): tuple(map(_field, _field(g, list)))
                    for j, g in data["groups"].items()},
            prime_products={int(j): _field(v) for j, v in data["P"].items()},
            tail=TailEstimate(
                **_read_fields(tail, _TAIL_FIELDS),
                value=Fraction(_field(tail["value_num"]), _field(tail["value_den"])),
                remainder_bound=Fraction(_field(tail["remainder_num"]),
                                         _field(tail["remainder_den"])),
            ),
            checks={name: _field(data["checks"][name], bool)
                    for name in CHECK_NAMES},
        )
    except (ValueError, KeyError, TypeError, AttributeError,
            ArithmeticError, RecursionError) as exc:
        raise ValueError(f"unreadable certificate: {exc}") from None


# ---------------------------------------------------------------------------
# Zero-run construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErdosRunParams:
    """Base t >= 2 and k prime groups; group j holds j+1 distinct primes."""

    t: int
    prime_groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.t < 2:
            raise ValueError("base t must be >= 2")
        if not self.prime_groups:
            raise ValueError("at least one prime group is required")
        seen: set[int] = set()
        for j, group in enumerate(self.prime_groups):
            if len(group) != j + 1:
                raise ValueError(f"group {j} must hold exactly {j + 1} primes")
            for p in group:
                if not is_prime(p):
                    raise ValueError(f"{p} is not prime")
                if p in seen:
                    raise ValueError(f"prime {p} repeated across groups")
                seen.add(p)

    @property
    def k(self) -> int:
        return len(self.prime_groups)


@dataclass(frozen=True)
class ErdosRunResult:
    x: int
    modulus: int
    checks: tuple[tuple[int, int, int, bool], ...]  # (j, d(x+j), t**(j+1), ok)

    @property
    def ok(self) -> bool:
        return all(ok for *_, ok in self.checks)


def erdos_zero_run(params: ErdosRunParams) -> ErdosRunResult:
    """Solve x + j = G_j**(t-1) (mod G_j**t) for G_j the group products,
    then verify t**(j+1) | d(x+j) for every j.

    x >= 1 gives x + j >= G_j**(t-1), so a G_j**(t-1) past FACTOR_LIMIT,
    where d(x+j) is refused anyway, is refused before G_j**t is built; the
    test raises G_j to at most 47, as 2**47 > FACTOR_LIMIT.
    """
    t = params.t
    slots = [(j, prod(group), t) for j, group in enumerate(params.prime_groups)]
    for j, g, _ in slots:
        check_divisor_ceiling(g ** min(t - 1, FACTOR_LIMIT.bit_length()),
                              f"x + {j} >= {g}**{t - 1}")
    solution = crt_solve(_erdos_congruences(slots))
    x = solution.residue if solution.residue > 0 else solution.modulus
    checks = []
    for j in range(params.k):
        d = divisor_count(x + j)
        required = t ** (j + 1)
        checks.append((j, d, required, d % required == 0))
    return ErdosRunResult(x=x, modulus=solution.modulus, checks=tuple(checks))
