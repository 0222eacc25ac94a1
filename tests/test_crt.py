import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebconst.crt import NonCoprimeModuliError, crt_solve


def brute_solution(pairs, modulus_product):
    for x in range(modulus_product):
        if all(x % m == r for r, m in pairs):
            return x
    raise AssertionError("no solution found by scan")


def test_single_congruence():
    sol = crt_solve([(3, 5)])
    assert (sol.residue, sol.modulus) == (3, 5)


def test_two_congruences():
    sol = crt_solve([(1, 3), (2, 5)])
    assert (sol.residue, sol.modulus) == (7, 15)


def test_zero_run_demo_system():
    sol = crt_solve([(3, 9), (34, 1225)])
    assert (sol.residue, sol.modulus) == (6159, 11025)
    assert sol.residue == brute_solution([(3, 9), (34, 1225)], 11025)


def test_non_coprime_rejected_with_pair():
    with pytest.raises(NonCoprimeModuliError) as excinfo:
        crt_solve([(1, 6), (3, 4)])
    assert excinfo.value.pair == (6, 4)
    assert "6" in str(excinfo.value) and "4" in str(excinfo.value)


def test_empty_system_rejected():
    with pytest.raises(ValueError):
        crt_solve([])


def test_residue_range_validated():
    with pytest.raises(ValueError):
        crt_solve([(5, 5)])
    with pytest.raises(ValueError):
        crt_solve([(0, 1)])


@given(st.permutations([(1, 3), (2, 5), (3, 7), (5, 11)]))
@settings(max_examples=24, deadline=None)
def test_order_invariance(perm):
    base = crt_solve([(1, 3), (2, 5), (3, 7), (5, 11)])
    shuffled = crt_solve(list(perm))
    assert (shuffled.residue, shuffled.modulus) == (base.residue, base.modulus)


def _random_system(rng, product_cap):
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
    rng.shuffle(small_primes)
    pairs = []
    product = 1
    for p in small_primes[: rng.randint(1, 4)]:
        m = p ** rng.randint(1, 3)
        if product * m > product_cap:
            continue
        product *= m
        pairs.append((rng.randrange(m), m))
    return pairs, product


def test_random_systems_match_scan():
    rng = random.Random(2718)
    for _ in range(100):
        pairs, product = _random_system(rng, 10**5)
        sol = crt_solve(pairs)
        assert sol.modulus == product
        assert sol.residue == brute_solution(pairs, product)
