"""Acceptable vectors, 2-torsion bound formulas, and the maximality test.

A vector (a_1, ..., a_n) is acceptable when the entries are squarefree,
pairwise coprime, >= 2, and every prime factor is 1 mod 4.  The bound

    omega(a_1 * ... * a_n) * 2^(n-1) - 2^n + 1

caps the 2-torsion rank of the narrow class group of the multiquadratic
field attached to the vector; the vector is maximal when the bound is
attained.  For n <= 3 maximality is decidable from Legendre symbols and
Redei symbols alone, which is what is_maximal implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import _legendre_unchecked
from .errors import (
    AcceptabilityError,
    ArgumentError,
    ConsistencyError,
    UnsupportedDimensionError,
)
from .redei import acceptable_prime_factors, redei_symbol


@dataclass(frozen=True)
class AcceptableVector:
    """Validated entries with their sorted prime factorizations."""

    entries: tuple[int, ...]
    factorizations: tuple[tuple[int, ...], ...]

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
    if not entries:
        raise ArgumentError("empty vector")
    facts = tuple(acceptable_prime_factors(a) for a in entries)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            g = gcd(entries[i], entries[j])
            if g != 1:
                raise AcceptabilityError(
                    f"entries {entries[i]} and {entries[j]} share the factor {g}")
    return AcceptableVector(entries, facts)


def torsion_bound(v: AcceptableVector) -> int:
    """omega_total * 2^(n-1) - 2^n + 1."""
    return v.omega_total * (1 << (v.n - 1)) - (1 << v.n) + 1


def ray_class_bound(v: AcceptableVector, c: int) -> int:
    """torsion_bound(v) + 2^n * omega(c) for a squarefree modulus c coprime
    to the vector, with every prime factor of c congruent to 1 mod 4."""
    pc = acceptable_prime_factors(c, allow_one=True)
    for a in v.entries:
        if gcd(a, c) != 1:
            raise ArgumentError(f"modulus {c} shares a factor with entry {a}")
    return torsion_bound(v) + (1 << v.n) * len(pc)


def is_strongly_quadratically_consistent(
        v: AcceptableVector) -> tuple[bool, list[tuple[int, int]]]:
    """All cross Legendre symbols between primes of distinct entries are +1.

    Returns (verdict, witnesses); each witness (p, q) with p < q is a failing
    pair.  Symmetric by quadratic reciprocity since all primes are 1 mod 4,
    so each unordered pair is checked once.
    """
    witnesses = []
    for i in range(v.n):
        for j in range(i + 1, v.n):
            for p in v.factorizations[i]:
                for q in v.factorizations[j]:
                    if _legendre_unchecked(p, q) != 1:
                        witnesses.append((min(p, q), max(p, q)))
    return not witnesses, sorted(set(witnesses))


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
    if v.n == 0:
        raise ArgumentError("empty vector")
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
                        val ^= redei_symbol(ell, p, r)
                    if val:
                        failed.append(("redei", (v.entries[i], p, r)))
    failed.sort()
    return MaximalityReport(
        verdict=not failed, n=v.n, omega_total=v.omega_total,
        bound=torsion_bound(v), failed_conditions=tuple(failed))
