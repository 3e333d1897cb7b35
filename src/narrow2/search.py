"""Constructive searches over prime vectors with vanishing symbol conditions.

A space is a list of disjoint coordinate sets of primes (all 1 mod 4) such
that every cross pair has Legendre symbol +1 and every cross triple has
vanishing triple symbol; by multilinearity, products of primes drawn from
distinct coordinates then form maximal vectors in every dimension up to 3.
Spaces grow one coordinate at a time by filtering candidates smallest-first,
so results are reproducible.  Candidates are sieved in doubling levels (4096,
8192, ..., the last capped at the limit; each level cached), and one
ascending walk stops at the count-th hit, so no later candidate is tested.

extend_space checks the incoming space once, then filters with the trusted
Legendre and symbol kernels; verify_space rechecks through the public,
validating calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product
from math import prod

from .arith import _legendre_unchecked, is_prime, legendre, primes_one_mod_four
from .errors import ArgumentError, SearchExhaustedError, UnsupportedDimensionError
from .maximality import AcceptableVector, is_maximal
from .redei import (
    _check_consistent,
    _context_cache,
    _symbol,
    acceptable_prime_factors,
    redei_symbol,
)


@dataclass(frozen=True)
class OmegaProfile:
    """Prescribed factor counts (k_1, ..., k_n), each >= 1."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(k) for k in self.parts))
        if any(k < 1 for k in self.parts):
            raise ArgumentError(f"profile parts must be >= 1, got {self.parts}")

    @classmethod
    def of(cls, value) -> "OmegaProfile":
        if isinstance(value, OmegaProfile):
            return value
        if isinstance(value, int):
            return cls((value,))
        return cls(tuple(value))

    @property
    def n(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class RedeiSpace:
    """Coordinate sets of primes plus the transcript of verified conditions."""

    sets: tuple[tuple[int, ...], ...]
    certificate: tuple[tuple, ...] = ()

    def __post_init__(self):
        flat = [p for coord in self.sets for p in coord]
        if len(set(flat)) != len(flat):
            raise ArgumentError("coordinate sets must be disjoint")
        for p in flat:
            if p % 4 != 1 or not is_prime(p):
                raise ArgumentError(f"{p} is not a prime congruent to 1 mod 4")

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for coord in self.sets for p in coord)


def empty_space() -> RedeiSpace:
    return RedeiSpace(())


def verify_space(space: RedeiSpace) -> bool:
    """Recheck every cross-coordinate condition from scratch."""
    for i, j in combinations(range(space.m), 2):
        for p, q in product(space.sets[i], space.sets[j]):
            if legendre(p, q) != 1:
                return False
            for xk in space.sets[j + 1 :]:
                if any(redei_symbol(p, q, r) != 0 for r in xk):
                    return False
    return True


_sieve_level = lru_cache(maxsize=32)(primes_one_mod_four)


def _candidate_levels(limit: int):
    """Primes 1 mod 4 up to limit, ascending, one list per doubling sieve
    level 4096, 8192, ... (the last capped at limit)."""
    lo, hi = 0, 4096
    while lo < limit:
        hi = min(hi, limit)
        ps = _sieve_level(hi)
        yield ps[ps > lo].tolist()
        lo, hi = hi, 2 * hi


def extend_space(space: RedeiSpace, count: int, limit: int, *,
                 worker_count: int = 1) -> RedeiSpace:
    """Append one coordinate of `count` new primes z <= limit with
    legendre(z, p) = +1 against every resident prime and vanishing symbol
    (p, q, z) against every cross pair; raises SearchExhaustedError carrying
    the number found when the sieve runs dry.  worker_count is accepted and
    has no effect."""
    if count < 1:
        raise ArgumentError("count must be >= 1")
    existing = space.primes
    _check_consistent([prod(x) for x in space.sets], space.sets)
    pairs = [(p, q)
             for xi, xj in combinations(space.sets, 2)
             for p, q in product(xi, xj)]

    def accept(z: int) -> bool:  # (z|z) = 0 rejects resident primes
        return (all(_legendre_unchecked(z, p) == 1 for p in existing)
                and all(_symbol(p, q, (z,)) == 0 for p, q in pairs))

    hits = []
    for level in _candidate_levels(int(limit)):
        hits += islice(filter(accept, level), count - len(hits))
        if len(hits) == count:
            break
    if len(hits) < count:
        raise SearchExhaustedError(
            f"found {len(hits)} of {count} qualifying primes below {limit}",
            found=len(hits))
    cert = list(space.certificate)
    for z in hits:
        cert.extend(("legendre", (z, p)) for p in existing)
        cert.extend(("redei", (p, q, z)) for p, q in pairs)
    return RedeiSpace(space.sets + (tuple(hits),), tuple(cert))


def build_space(m: int, count: int, limit: int, *,
                worker_count: int = 1) -> RedeiSpace:
    """Iterated extension of the empty space to m coordinates.
    worker_count is accepted and has no effect."""
    if m < 1:
        raise ArgumentError("m must be >= 1")
    space = empty_space()
    for _ in range(m):
        space = extend_space(space, count, limit)
    return space


def enumerate_maximal_vectors(profile, pool: int, limit: int, *,
                              worker_count: int = 1) -> list[AcceptableVector]:
    """All vectors (a_1, a_2, a_3) with a_i a product of k_i distinct primes
    from coordinate i of a freshly built space with max(k_i) * pool primes
    per coordinate, filtered through the full maximality certificate.

    Multilinearity makes every candidate pass; the recheck is kept anyway so
    that no emitted vector ever relies on the construction being correct.
    worker_count is accepted and has no effect.
    """
    profile = OmegaProfile.of(profile)
    if profile.n > 3:
        raise UnsupportedDimensionError(
            f"no certifier exists for {profile.n} coordinates")
    if profile.n != 3:
        raise ArgumentError("profile must have exactly three parts")
    if pool < 1:
        raise ArgumentError("pool must be >= 1")
    per_coord = max(profile.parts) * pool
    space = build_space(3, per_coord, limit)
    out = []
    for combo in product(*(combinations(space.sets[i], profile.parts[i])
                           for i in range(3))):
        vec = AcceptableVector(tuple(map(prod, combo)), combo)
        if is_maximal(vec).verdict:
            out.append(vec)
    return out


def _tau(a: int, l: int) -> bool:
    return _context_cache(a, l).totally_real


def find_ray_class_vector(c: int, profile, limit: int, *,
                          worker_count: int = 1) -> AcceptableVector:
    """Smallest vector (a_1, ...) with the prescribed factor counts such
    that the combined vector (c, a_1, ...) carries a full maximality
    certificate and, for every product a_T over a nonempty subset of the
    found coordinates and every prime l | c, the pair (a_T, l) has a
    totally positive, totally real context.

    The extra total-reality condition is not implied by the positivity
    normalization of the symbol contexts; (41, 5) is a consistent pair
    whose contexts are never totally real.  worker_count is accepted and has
    no effect.
    """
    c = int(c)
    factors = acceptable_prime_factors(c, allow_one=True)
    profile = OmegaProfile.of(profile)
    if profile.n + (1 if c > 1 else 0) > 3:
        raise UnsupportedDimensionError(
            "combined vector would exceed three certifiable coordinates")
    seed = RedeiSpace((factors,)) if c > 1 else empty_space()

    mult = 1
    clamped = False
    while True:
        space = seed
        for k in profile.parts:
            try:
                space = extend_space(space, k * mult, limit)
            except SearchExhaustedError as e:
                if e.found < k:
                    raise
                clamped = True
                space = extend_space(space, e.found, limit)
        offset = 1 if c > 1 else 0
        for combo in product(*(combinations(space.sets[offset + i], k)
                               for i, k in enumerate(profile.parts))):
            facts = space.sets[:offset] + combo
            if not is_maximal(AcceptableVector(tuple(map(prod, facts)),
                                               facts)).verdict:
                continue
            products = [prod(prod(x) for x in sub)
                        for r in range(1, len(combo) + 1)
                        for sub in combinations(combo, r)]
            if all(_tau(a, l) for a in products for l in factors):
                return AcceptableVector(tuple(map(prod, combo)), combo)
        if clamped:
            raise SearchExhaustedError(
                f"no qualifying vector for c={c} below {limit}", found=0)
        mult *= 2
