import random
from dataclasses import fields, replace
from fractions import Fraction
from math import floor

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from ebconst import construction

from ebconst.construction import (
    ConstructionError,
    ErdosRunParams,
    NoWitnessInRange,
    TailEstimate,
    WitnessCertificate,
    WitnessParams,
    build_witness_system,
    certificate_from_json,
    certificate_to_json,
    erdos_zero_run,
    run_witness_pipeline,
    search_witness,
    select_primes,
    tail_below_half_k,
    tail_estimate,
    tail_window,
    verify_certificate,
)
from ebconst.crt import crt_solve
from ebconst.digits import digit_window
from ebconst.divisors import (FACTOR_LIMIT, _MR_PSI, divisor_count, is_prime,
                              primes_in_range, tail_majorant)


@pytest.fixture(scope="module")
def desk_certificate():
    params = WitnessParams(k=3, prime_window=(5, 20), m_max=10**4)
    outcome = run_witness_pipeline(params)
    assert not isinstance(outcome, NoWitnessInRange)
    return outcome


class TestSelectPrimes:
    def test_k3_window(self):
        q0, groups = select_primes(WitnessParams(k=3, prime_window=(5, 20)))
        assert q0 == 5
        assert groups == {0: [7], 1: [11, 13]}

    def test_window_too_small_names_count(self):
        with pytest.raises(ValueError, match="4 distinct primes"):
            select_primes(WitnessParams(k=3, prime_window=(5, 11)))

    def test_k4_assignment(self):
        q0, groups = select_primes(WitnessParams(k=4, prime_window=(5, 40)))
        assert q0 == 5
        assert groups == {0: [7], 1: [11, 13], 3: [17, 19, 23, 29]}
        assert 1 + sum(len(g) for g in groups.values()) == 8

    def test_required_count_formula(self):
        # 1 + sum_{j != 2, j < k} (j+1) = k(k+1)/2 - 2
        for k in range(3, 9):
            params = WitnessParams(k=k, prime_window=(5, 10**4))
            assert params.required_primes == k * (k + 1) // 2 - 2

    def test_explicit_prime_list(self):
        q0, groups = select_primes(
            WitnessParams(k=3, primes=(13, 5, 7, 11))
        )
        assert (q0, groups) == (5, {0: [7], 1: [11, 13]})

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            WitnessParams(k=2, prime_window=(5, 20))


class TestBuildWitnessSystem:
    def test_reference_moduli(self):
        system = build_witness_system(5, {0: [7], 1: [11, 13]})
        assert system.prime_products == {0: 7, 1: 143}
        assert system.A == 125_250_125
        assert system.B == 5_010_005

    def test_residue_back_substitution(self):
        system = build_witness_system(5, {0: [7], 1: [11, 13]})
        assert system.r % 125 == 23
        assert system.r % 49 == 7
        assert system.r % 20449 == 142
        assert 0 <= system.r < system.A
        assert (system.r + 2) % 25 == 0
        assert system.s == (system.r + 2) // 25

    def test_repeated_prime_rejected(self):
        with pytest.raises((ConstructionError, ValueError)):
            build_witness_system(5, {0: [7], 1: [7, 11]})

    def test_group_two_rejected(self):
        with pytest.raises(ConstructionError, match="reserved"):
            build_witness_system(5, {0: [7], 2: [11, 13]})


class TestTailEstimate:
    def test_termwise_oracle(self):
        est = tail_estimate(1, 3, 10)
        expected = sum(Fraction(divisor_count(1 + l), 2**l) for l in range(3, 11))
        assert est.value == expected == Fraction(363, 512)
        assert est.remainder_bound > 0

    def test_single_term_at_cutoff_equals_k(self):
        est = tail_estimate(9, 4, 4)
        assert est.value == Fraction(divisor_count(13), 16)

    def test_remainder_decreases_with_cutoff(self):
        shallow = tail_estimate(100, 3, 10)
        deep = tail_estimate(100, 3, 20)
        assert deep.remainder_bound < shallow.remainder_bound
        assert deep.value >= shallow.value

    def test_upper_bounds_true_tail(self):
        # value + remainder at a shallow cutoff dominates any deeper value.
        shallow = tail_estimate(50, 3, 12)
        deep = tail_estimate(50, 3, 80)
        assert shallow.value + shallow.remainder_bound >= deep.value

    def test_half_k_threshold_unreachable_at_k3(self):
        # sum_{l>=3} d(n+l)/2**l >= 1/2 > 2**(-3/2) for every n, so the
        # strict threshold can never hold at k = 3.
        for n in (1, 17, 10**6 + 3):
            est = tail_estimate(n, 3, 40)
            assert est.value >= Fraction(1, 2)
            assert not tail_below_half_k(est)

    # The integer decisions against the Fraction forms they replace; the
    # examples sit exactly on each boundary.
    @given(st.fractions(min_value=0, max_value=64),
           st.fractions(min_value=0, max_value=4), st.integers(0, 12))
    @example(Fraction(4), Fraction(1, 2), 3)           # upper == 2t + 1/2
    @example(Fraction(9, 2), Fraction(0), 0)
    @example(Fraction(1, 8), Fraction(1, 8), 4)        # upper == 2**(-k/2)
    @example(Fraction(1, 3), Fraction(1, 7), 3)
    def test_integer_decisions_match_fractions(self, value, remainder, k):
        est = TailEstimate(n=1, k=k, cutoff=k, value=value,
                           remainder_bound=remainder)
        upper = value + remainder
        t = floor(value / 2)
        assert tail_window(est) == (upper < 2 * t + Fraction(1, 2), t)
        assert tail_below_half_k(est) == (upper * upper * 2**k <= 1)

    def test_search_span_keeps_remainder_small_past_psi13(self):
        # search_witness takes cutoff = k + _CUTOFF_SPAN for every n: then
        # 4*remainder_bound <= 2**(-k/2) at n = psi_13, past FACTOR_LIMIT
        # and so past every n whose tail is computed, and tail_majorant
        # grows with n.
        psi13, span = _MR_PSI[-1], construction._CUTOFF_SPAN
        assert FACTOR_LIMIT < psi13
        for k in range(13):
            rem = Fraction(tail_majorant(psi13 + k + span + 1),
                           2 ** (k + span))
            assert 16 * rem * rem * 2**k <= 1, k

    def test_remainder_dominates_true_tail_partial_sums(self):
        # Necessary condition for rigor: the remainder bound must exceed
        # exact-dyadic lower partial sums of the omitted terms.
        from math import isqrt

        for n, k, cutoff in [(1, 3, 10), (1000, 3, 20), (10**8, 3, 40)]:
            est = tail_estimate(n, k, cutoff)
            partial = sum(
                Fraction(divisor_count(n + l), 2**l)
                for l in range(cutoff + 1, cutoff + 80)
            )
            assert partial < est.remainder_bound
            # and the generic divisor bound it relies on: d(x)**2 <= 4x
            for l in range(cutoff + 1, cutoff + 80):
                assert divisor_count(n + l) ** 2 <= 4 * (n + l)
            assert isqrt(n + cutoff + 1) ** 2 <= n + cutoff + 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            tail_estimate(0, 3, 10)
        with pytest.raises(ValueError):
            tail_estimate(1, 5, 4)


class TestSearchWitness:
    def test_empty_scan_is_structured(self):
        params = WitnessParams(k=3, prime_window=(5, 20), m_max=0)
        system = build_witness_system(*select_primes(params))
        outcome = search_witness(params, system)
        assert isinstance(outcome, NoWitnessInRange)
        assert outcome.m_scanned == 0

    def test_desk_certificate_all_checks(self, desk_certificate):
        cert = desk_certificate
        assert cert.all_checks_pass
        assert cert.n + 2 == cert.q0**2 * cert.p
        assert cert.n >= 2 * cert.q0**2 - 2
        assert 1 <= cert.prime_hits <= cert.m + 1  # hits are a subset of the scan
        window_ok, index = tail_window(cert.tail)
        assert window_ok and index == cert.tail_window_index

    def test_verification_from_scratch(self, desk_certificate):
        report = verify_certificate(desk_certificate)
        assert report.ok
        names = [r.name for r in report.results]
        for expected in ("residues", "s_properties", "d6", "valuation",
                         "divisibility_pattern", "tail", "digits"):
            assert expected in names

    def test_sympy_cross_check(self, desk_certificate):
        cert = desk_certificate
        assert sympy.isprime(cert.p)
        assert sympy.divisor_count(cert.n + 2) == 6
        assert sympy.divisor_count(cert.n) % 2 == 0
        assert sympy.divisor_count(cert.n + 1) % 4 == 0
        value = sum(
            Fraction(int(sympy.divisor_count(cert.n + l)), 2**l)
            for l in range(3, cert.tail.cutoff + 1)
        )
        assert value == cert.tail.value


class TestTamperDetection:
    def test_corrupted_field_fails_named_check(self, desk_certificate):
        cert = desk_certificate
        assert cert.q0 == 5 and cert.groups == {0: (7,), 1: (11, 13)}
        cases = [
            ({"A": cert.A + 25}, "residues"),
            ({"r": cert.r + 1}, "residues"),
            ({"prime_products": {0: 7, 1: 143 * 17}}, "residues"),
            ({"s": cert.s + cert.q0}, "s_properties"),
            ({"p": cert.p + 2}, "d6"),
            ({"n": cert.n + cert.A}, "d6"),
            # Each case below breaks one relation of one check; the residues
            # rebuild may fail it too, which would hide the check's own verdict.
            # 143^2 | n + 1: P_1 = 143 divides n + 1, but not exactly.
            ({"n": crt_solve([(7, 49), (-1 % 143**2, 143**2)]).residue},
             "divisibility_pattern"),
            # 1 * 143 = P_1, and n + 1 = 143 (mod 143^2) still holds.
            ({"groups": {0: (7,), 1: (1, 143)}}, "divisibility_pattern"),
            # P_1 = 11 * 11 and n + 1 = 121 (mod 121^2).
            ({"n": crt_solve([(7, 49), (120, 121**2)]).residue,
              "groups": {0: (7,), 1: (11, 11)}, "prime_products": {0: 7, 1: 121}},
             "divisibility_pattern"),
            # r + 2 = 25 * 21 and 21 = 1 (mod 5), but 7 divides s and B.
            ({"s": 21, "r": 523}, "s_properties"),
        ]
        for changes, failing_check in cases:
            report = verify_certificate(replace(cert, **changes))
            assert not report.ok, changes
            failures = {r.name for r in report.results if not r.passed}
            assert failing_check in failures, (changes, failures)

    def test_flipped_flag_detected(self, desk_certificate):
        for name in desk_certificate.checks:
            tampered = replace(
                desk_certificate,
                checks={**desk_certificate.checks, name: False},
            )
            report = verify_certificate(tampered)
            assert not report.ok, name
            failures = {r.name for r in report.results if not r.passed}
            assert "stored_flags" in failures

    @pytest.mark.parametrize("changes", [{"n": 12345}, {"k": 4}])
    def test_stored_tail_bound_to_certificate(self, desk_certificate, changes):
        tail = desk_certificate.tail
        bad_tail = replace(tail, **{name: getattr(tail, name) + shift
                                    for name, shift in changes.items()})
        report = verify_certificate(replace(desk_certificate, tail=bad_tail))
        assert not report.ok
        failures = {r.name for r in report.results if not r.passed}
        assert failures == {"tail", "stored_flags"}

    def test_corrupted_tail_value(self, desk_certificate):
        bad_tail = replace(desk_certificate.tail,
                           value=desk_certificate.tail.value + 1)
        report = verify_certificate(replace(desk_certificate, tail=bad_tail))
        assert not report.ok
        assert "tail" in {r.name for r in report.results if not r.passed}


class TestVerifyWorkBound:
    @pytest.mark.parametrize("n_shift,cutoff_shift", [
        (0, 4097 - 64),          # cutoff - k = 4097
        (0, -67),                # cutoff < k
        (10**14, 0),             # n + cutoff past FACTOR_LIMIT
    ])
    def test_refused_before_any_divisor_count(self, desk_certificate,
                                              monkeypatch, n_shift,
                                              cutoff_shift):
        import ebconst.construction as construction

        def forbidden(*args):
            raise AssertionError("divisor count computed")

        monkeypatch.setattr(construction, "divisor_count", forbidden)
        monkeypatch.setattr(construction, "divisor_tail", forbidden)
        cert = desk_certificate
        assert cert.tail.cutoff == cert.k + 64
        tail = replace(cert.tail, cutoff=cert.tail.cutoff + cutoff_shift)
        report = verify_certificate(
            replace(cert, n=cert.n + n_shift, tail=tail))
        assert not report.ok
        assert [(r.name, r.passed) for r in report.results] == [("tail", False)]


def _prime_hits(params, system, m_limit, limit=None):
    """(m, n) for every m < m_limit with s + m*B prime, first `limit` only."""
    hits = []
    for m in range(m_limit):
        if is_prime(system.s + m * system.B):
            hits.append((m, system.r + m * system.A))
            if len(hits) == limit:
                break
    return hits


class TestDerivedClaims:
    """The construction implies d(n+2) = 6, the divisor pattern and the
    digit claim, so search and verify factor nothing; factoring runs here
    as the oracle."""

    @pytest.mark.parametrize("primes", [
        (5, 7, 11, 13),          # the desk system, prime window 5:20
        (7, 11, 13, 17),
        (11, 13, 17, 19),
        (5, 23, 29, 31),
    ])
    def test_k3_prime_hits_have_the_pattern(self, primes):
        params = WitnessParams(k=3, primes=primes)
        system = build_witness_system(*select_primes(params))
        hits = _prime_hits(params, system, 200)
        assert len(hits) >= 5
        for m, n in hits:
            assert divisor_count(n + 2) == 6, m
            assert sympy.multiplicity(system.q0, n + 2) == 2, m
            for j in params.group_indices:
                assert divisor_count(n + j) % (1 << (j + 1)) == 0, (m, j)

    def test_k4_prime_hits_past_the_ceiling(self):
        params = WitnessParams(k=4, prime_window=(5, 60))
        system = build_witness_system(*select_primes(params))
        hits = _prime_hits(params, system, 10**4, limit=3)
        assert [m for m, _ in hits] == [10, 26, 68]
        for m, n in hits:
            assert n > 10**14  # past the exact divisor-count ceiling
            assert sympy.divisor_count(n + 2) == 6, m
            for j in params.group_indices:
                assert sympy.divisor_count(n + j) % (1 << (j + 1)) == 0, (m, j)

    @pytest.mark.parametrize("primes", [
        (5, 7, 11, 13), (7, 11, 13, 17), (11, 13, 17, 19), (5, 23, 29, 31),
    ])
    def test_accepted_digits_lie_in_the_top_quarter(self, primes):
        cert = run_witness_pipeline(WitnessParams(k=3, primes=primes))
        assert not isinstance(cert, NoWitnessInRange)
        assert digit_window(cert.n, 2) == "11"

    def test_search_and_verify_factor_nothing(self, monkeypatch):
        import ebconst.construction as construction
        import ebconst.divisors as divisors

        def forbidden(*args):
            raise AssertionError("factored on the witness path")

        monkeypatch.setattr(construction, "divisor_count", forbidden)
        monkeypatch.setattr(divisors, "factorize", forbidden)
        cert = run_witness_pipeline(
            WitnessParams(k=3, prime_window=(5, 20), m_max=10**4))
        assert verify_certificate(cert).ok

    def test_prime_moved_between_groups(self, desk_certificate):
        tampered = replace(desk_certificate, groups={0: (7, 11), 1: (13,)})
        failures = {r.name for r in verify_certificate(tampered).results
                    if not r.passed}
        assert {"divisibility_pattern", "digits"} <= failures

    def test_group_sizes_checked(self):
        # A consistent system whose groups have the wrong sizes: every
        # congruence holds, so only the group-size rule can reject it.
        params = WitnessParams(k=3, prime_window=(5, 20), m_max=10**4)
        system = build_witness_system(5, {0: [7, 11], 1: [13]})
        cert = search_witness(params, system)
        assert not isinstance(cert, NoWitnessInRange)
        failures = {r.name for r in verify_certificate(cert).results
                    if not r.passed}
        assert failures == {"divisibility_pattern", "digits", "stored_flags"}

    def test_oversized_groups_are_not_rebuilt(self, desk_certificate,
                                              monkeypatch):
        # 16,000 genuine primes in group 1 made the rebuild take about a
        # second, growing as the square of the primes; k = 3 assigns 3.
        def forbidden(*args):
            raise AssertionError("rebuilt an oversized system")

        monkeypatch.setattr(construction, "build_witness_system", forbidden)
        big = tuple(primes_in_range(10**6, 2 * 10**6)[:16_000].tolist())
        cert = desk_certificate
        tampered = replace(cert, groups={**cert.groups, 1: big})
        report = {r.name: r for r in verify_certificate(tampered).results}
        assert not report["residues"].passed
        assert "16001 primes, past the 3 that k = 3" in report["residues"].detail

    @pytest.mark.parametrize("p", [5, 77])  # p = q0, and p composite
    def test_d6_needs_a_prime_p_other_than_q0(self, desk_certificate, p):
        # Every d6 equality holds (m = 0, s = p, r = n = q0^2 * p - 2), so
        # only p != q0 or the primality of p can fail it.
        n = 25 * p - 2
        tampered = replace(desk_certificate, s=p, m=0, p=p, r=n, n=n)
        failures = {r.name for r in verify_certificate(tampered).results
                    if not r.passed}
        assert {"d6", "digits"} <= failures

    @pytest.mark.parametrize("p,holds", [(5, False), (35, False), (77, True)])
    def test_valuation_is_exactly_two(self, desk_certificate, p, holds):
        # n + 2 = 25 * p with m = 0, as above: q0 = 5 divides n + 2 exactly
        # twice unless 5 | p, so p = 5 and p = 35 make q0**3 divide n + 2.
        n = 25 * p - 2
        tampered = replace(desk_certificate, s=p, m=0, p=p, r=n, n=n)
        verdicts = {r.name: r.passed
                    for r in verify_certificate(tampered).results}
        assert verdicts["valuation"] is holds

    def test_digits_need_the_tail_window(self, desk_certificate):
        # cutoff = k leaves the remainder bound too wide for any window;
        # the digits at n are still "11", but the derivation fails.
        cert = desk_certificate
        tampered = replace(cert, tail=replace(cert.tail, cutoff=cert.k))
        failures = {r.name for r in verify_certificate(tampered).results
                    if not r.passed}
        assert {"tail", "digits"} <= failures


class TestCertificateJson:
    def test_table_covers_every_field(self):
        def attrs(table):
            return [attr for _, attr, _ in table]

        assert sorted(f.name for f in fields(WitnessCertificate)) == sorted(
            attrs(construction._FIELDS)
            + ["groups", "prime_products", "tail", "checks"])
        assert sorted(f.name for f in fields(TailEstimate)) == sorted(
            attrs(construction._TAIL_FIELDS) + ["value", "remainder_bound"])

    def test_every_scalar_in_another_json_type_is_refused(self,
                                                          desk_certificate):
        import json

        text = certificate_to_json(desk_certificate)
        good = json.loads(text)
        paths = ([(key,) for key, v in good.items()
                  if not isinstance(v, (dict, list))]
                 + [(outer, key) for outer in ("tail", "checks", "P")
                    for key in good[outer]]
                 + [("groups", j, i) for j, g in good["groups"].items()
                    for i in range(len(g))])
        assert len(paths) == 32
        for *outer, key in paths:
            doc = parent = json.loads(text)
            for step in outer:
                parent = parent[step]
            value = parent[key]
            for other in (str(int(value)), int(value), bool(int(value))):
                if type(other) is not type(value):
                    parent[key] = other
                    with pytest.raises(
                            ValueError, match="^unreadable certificate: expected "):
                        certificate_from_json(json.dumps(doc))

    def test_round_trip_is_bit_exact(self, desk_certificate):
        text = certificate_to_json(desk_certificate)
        recovered = certificate_from_json(text)
        assert certificate_to_json(recovered) == text
        assert recovered == desk_certificate

    def test_big_integers_are_decimal_strings(self, desk_certificate):
        import json

        payload = json.loads(certificate_to_json(desk_certificate))
        for key in ("q0", "A", "B", "r", "s", "p", "n"):
            assert isinstance(payload[key], str)
            int(payload[key])
        assert set(payload["checks"]) == {
            "residues", "s_properties", "d6", "valuation",
            "divisibility_pattern", "tail", "digits",
        }
        assert isinstance(payload["paper_refs"], list)
        assert len(payload["paper_refs"]) == 7

    @pytest.mark.parametrize("hostile", [
        "not_json", "deeply_nested", "top_level_list", "null", "missing_key",
        "groups_list", "checks_list", "zero_value_den", "infinite_k",
        "string_flags", "float_k", "string_k", "string_group",
        "string_below_half_k", "bool_k",
    ])
    def test_malformed_documents_raise_value_error(self, desk_certificate,
                                                   hostile):
        import json

        good = json.loads(certificate_to_json(desk_certificate))
        tail = good["tail"]
        text = {
            "not_json": "{",
            "deeply_nested": "[" * 200_000 + "]" * 200_000,
            "top_level_list": json.dumps([good]),
            "null": "null",
            "missing_key": json.dumps({k: v for k, v in good.items() if k != "n"}),
            "groups_list": json.dumps(dict(good, groups=[["7"], ["11", "13"]])),
            "checks_list": json.dumps(dict(good, checks=[True] * 7)),
            "zero_value_den": json.dumps(
                dict(good, tail=dict(tail, value_den="0"))),
            "infinite_k": json.dumps(dict(good, k=float("inf"))),
            # Fields in a JSON type certificate_to_json never writes there.
            "string_flags": json.dumps(
                dict(good, checks=dict.fromkeys(good["checks"], "false"))),
            "float_k": json.dumps(dict(good, k=3.7)),
            "string_k": json.dumps(dict(good, k=str(good["k"]))),
            "string_group": json.dumps(dict(good, groups=dict(
                good["groups"], **{"0": good["groups"]["0"][0]}))),
            "string_below_half_k": json.dumps(dict(good, tail_below_half_k="no")),
            "bool_k": json.dumps(dict(good, k=True)),
        }[hostile]
        with pytest.raises(ValueError, match="^unreadable certificate: "):
            certificate_from_json(text)


class TestErdosZeroRun:
    @pytest.mark.parametrize("t,groups,expected_x", [
        (2, ((3,),), 3),
        (3, ((5,),), 25),
        (2, ((3,), (5, 7)), 6159),
    ])
    def test_reference_runs(self, t, groups, expected_x):
        result = erdos_zero_run(ErdosRunParams(t=t, prime_groups=groups))
        assert result.x == expected_x
        assert result.ok

    def test_divisor_congruences_hold(self):
        result = erdos_zero_run(ErdosRunParams(t=2, prime_groups=((3,), (5, 7))))
        assert divisor_count(result.x) % 2 == 0
        assert divisor_count(result.x + 1) % 4 == 0
        assert result.x == 6159 and divisor_count(6159) == 4
        assert divisor_count(6160) == 40

    def test_power_past_the_ceiling_is_refused_up_front(self):
        # x = 3**29 <= 10**14 still has its divisors counted; at t = 31,
        # x >= 3**30 would pass the ceiling, and t = 10**8 must not build
        # 3**(10**8) before saying so.
        result = erdos_zero_run(ErdosRunParams(t=30, prime_groups=((3,),)))
        assert result.x == 3**29 and result.ok
        for t in (31, 10**8):
            with pytest.raises(ValueError, match="divisor-count ceiling"):
                erdos_zero_run(ErdosRunParams(t=t, prime_groups=((3,),)))

    def test_repeated_prime_rejected(self):
        with pytest.raises(ValueError):
            ErdosRunParams(t=2, prime_groups=((3,), (3, 5)))

    def test_group_size_enforced(self):
        with pytest.raises(ValueError):
            ErdosRunParams(t=2, prime_groups=((3, 5),))

    def test_randomized_small_assignments(self):
        pool = [3, 5, 7, 11, 13, 17, 19]
        rng = random.Random(31337)
        for _ in range(50):
            t = rng.choice([2, 3])
            k = rng.choice([1, 2])
            primes = rng.sample(pool, k * (k + 1) // 2)
            groups = ((primes[0],),) if k == 1 else ((primes[0],), tuple(primes[1:3]))
            result = erdos_zero_run(ErdosRunParams(t=t, prime_groups=groups))
            for j, d, modulus, ok in result.checks:
                assert ok
                assert d % t ** (j + 1) == 0
