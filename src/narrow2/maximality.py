"""Acceptable vectors, 2-torsion bound formulas, and the maximality test.

A vector (a_1, ..., a_n) is acceptable when the entries are squarefree,
pairwise coprime, >= 2, and every prime factor is 1 mod 4.  The bound

    omega(a_1 * ... * a_n) * 2^(n-1) - 2^n + 1

caps the 2-torsion rank of the narrow class group of the multiquadratic
field attached to the vector; the vector is maximal when the bound is
attained.  For n <= 3 maximality is decidable from Legendre symbols and
Redei symbols alone, which is what is_maximal implements.

AcceptableVector checks its factorizations on construction, so is_maximal
trusts them and calls the prime-level symbol kernel without refactoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .arith import _is_prime_cached
from .errors import (
    AcceptabilityError,
    ArgumentError,
    ConsistencyError,
    UnsupportedDimensionError,
)
from .redei import (
    _check_coprime,
    _consistency_witnesses,
    _symbol,
    acceptable_prime_factors,
)


@dataclass(frozen=True)
class AcceptableVector:
    """Entries with their sorted prime factorizations, valid by construction:
    each factorization is a sorted tuple of distinct primes 1 mod 4 whose
    product is its entry, and the entries are pairwise coprime."""

    entries: tuple[int, ...]
    factorizations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries:
            raise ArgumentError("empty vector")
        if len(self.factorizations) != len(self.entries):
            raise AcceptabilityError("one factorization per entry is required")
        for a, f in zip(self.entries, self.factorizations):
            if (not f or f != tuple(sorted(set(f))) or prod(f) != a
                    or any(p % 4 != 1 or not _is_prime_cached(p) for p in f)):
                raise AcceptabilityError(
                    f"{f} is not a factorization of entry {a} into distinct "
                    f"primes congruent to 1 mod 4")
        _check_coprime(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def omega_total(self) -> int:
        return sum(len(f) for f in self.factorizations)


def parse_acceptable(entries) -> AcceptableVector:
    """Validate and factor a vector of entries.

    Rejects with the offending entry named: entries < 2, non-squarefree
    entries, prime factors not 1 mod 4 (including 2), and shared primes.
    """
    entries = tuple(int(a) for a in entries)
    return AcceptableVector(
        entries, tuple(acceptable_prime_factors(a) for a in entries))


def torsion_bound(v: AcceptableVector) -> int:
    """omega_total * 2^(n-1) - 2^n + 1."""
    return v.omega_total * (1 << (v.n - 1)) - (1 << v.n) + 1


def _modulus_primes(v: AcceptableVector, c: int) -> tuple[int, ...]:
    """The primes of c, checked as ray_class_bound requires (c = 1 allowed)."""
    pc = acceptable_prime_factors(c, allow_one=True)
    for a in v.entries:
        if gcd(a, c) != 1:
            raise ArgumentError(f"modulus {c} shares a factor with entry {a}")
    return pc


def _ray_bound(v: AcceptableVector, moduli: tuple[int, ...]) -> int:
    """ray_class_bound for the checked primes of c."""
    return torsion_bound(v) + (1 << v.n) * len(moduli)


def ray_class_bound(v: AcceptableVector, c: int) -> int:
    """torsion_bound(v) + 2^n * omega(c) for a squarefree modulus c coprime
    to the vector, with every prime factor of c congruent to 1 mod 4."""
    return _ray_bound(v, _modulus_primes(v, c))


def is_strongly_quadratically_consistent(
        v: AcceptableVector) -> tuple[bool, list[tuple[int, int]]]:
    """All cross Legendre symbols between primes of distinct entries are +1.

    Returns (verdict, witnesses); each witness (p, q) with p < q is a failing
    pair, each unordered pair checked once.
    """
    witnesses = _consistency_witnesses(v.factorizations)
    return not witnesses, witnesses


@dataclass(frozen=True)
class MaximalityReport:
    """Decision transcript: the verdict is true iff no condition failed."""

    verdict: bool
    n: int
    omega_total: int
    bound: int
    failed_conditions: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.verdict != (not self.failed_conditions):
            raise ConsistencyError(
                f"verdict {self.verdict} contradicts the failed conditions "
                f"{self.failed_conditions}")


def is_maximal(v: AcceptableVector) -> MaximalityReport:
    """Decide whether the bound is attained, for n <= 3.

    n = 1 is always maximal; n = 2 requires strong quadratic consistency;
    n = 3 additionally requires, for every choice of coordinate i with
    complementary coordinates j, k, and all primes p | a_j, r | a_k, that
    the symbol [a_i, p, r] vanishes.  Composite first entries are expanded
    prime-by-prime (the symbol is additive) to share cached contexts.
    """
    if v.n > 3:
        raise UnsupportedDimensionError(
            f"maximality is only decidable here for n <= 3, got n = {v.n}")
    failed: list[tuple[str, tuple[int, ...]]] = []
    ok, witnesses = is_strongly_quadratically_consistent(v)
    failed += [("legendre", w) for w in witnesses]
    if v.n == 3 and ok:
        for i in range(3):
            j, k = [t for t in range(3) if t != i]
            for p in v.factorizations[j]:
                for r in v.factorizations[k]:
                    val = 0
                    for ell in v.factorizations[i]:
                        val ^= _symbol(ell, p, (r,))
                    if val:
                        failed.append(("redei", (v.entries[i], p, r)))
    failed.sort()
    return MaximalityReport(
        verdict=not failed, n=v.n, omega_total=v.omega_total,
        bound=torsion_bound(v), failed_conditions=tuple(failed))
