"""Simultaneous congruences with pairwise-coprime moduli."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class NonCoprimeModuliError(ValueError):
    """A pair of moduli shares a factor; the offending pair is attached."""

    def __init__(self, m1: int, m2: int):
        self.pair = (m1, m2)
        super().__init__(
            f"moduli {m1} and {m2} share the factor {gcd(m1, m2)}"
        )


@dataclass(frozen=True)
class CrtSolution:
    residue: int
    modulus: int


def crt_solve(congruences: list[tuple[int, int]]) -> CrtSolution:
    """Unique residue modulo the product satisfying every congruence.

    congruences is a nonempty list of (residue, modulus) pairs with every
    modulus >= 2, every residue in [0, modulus) and the moduli pairwise
    coprime; anything else raises ValueError, and a shared factor raises
    NonCoprimeModuliError naming the pair. Pairwise merging with the
    inverse of the running modulus keeps intermediates below the running
    modulus product; residues are normalized to [0, modulus).
    """
    if not congruences:
        raise ValueError("congruence system must be nonempty")
    for r, m in congruences:
        if m < 2:
            raise ValueError(f"modulus {m} must be >= 2")
        if not 0 <= r < m:
            raise ValueError(f"residue {r} out of range for modulus {m}")
    mods = [m for _, m in congruences]
    for i, m1 in enumerate(mods):
        for m2 in mods[i + 1 :]:
            if gcd(m1, m2) != 1:
                raise NonCoprimeModuliError(m1, m2)
    res, mod = congruences[0]
    for r2, m2 in congruences[1:]:
        res = res + mod * ((r2 - res) * pow(mod, -1, m2) % m2)
        mod *= m2
        res %= mod
    for r, m in congruences:
        assert res % m == r, (res, r, m)
    return CrtSolution(res, mod)
