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
class CongruenceSystem:
    """Nonempty list of (residue, modulus) pairs, moduli pairwise coprime."""

    congruences: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.congruences:
            raise ValueError("congruence system must be nonempty")
        for res, mod in self.congruences:
            if mod < 2:
                raise ValueError(f"modulus {mod} must be >= 2")
            if not 0 <= res < mod:
                raise ValueError(f"residue {res} out of range for modulus {mod}")
        mods = [mod for _, mod in self.congruences]
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                if gcd(mods[i], mods[j]) != 1:
                    raise NonCoprimeModuliError(mods[i], mods[j])


@dataclass(frozen=True)
class CrtSolution:
    residue: int
    modulus: int


def crt_solve(system: CongruenceSystem | list[tuple[int, int]]) -> CrtSolution:
    """Unique residue modulo the product satisfying every congruence.

    Pairwise merging with the inverse of the running modulus keeps
    intermediates below the running modulus product; residues are
    normalized to [0, modulus).
    """
    if not isinstance(system, CongruenceSystem):
        system = CongruenceSystem(tuple(system))
    res, mod = system.congruences[0]
    for r2, m2 in system.congruences[1:]:
        res = res + mod * ((r2 - res) * pow(mod, -1, m2) % m2)
        mod *= m2
        res %= mod
    for r, m in system.congruences:
        assert res % m == r, (res, r, m)
    return CrtSolution(res, mod)
