"""Redei symbols [a, b, c] over F2 in the restricted setting where every
prime factor is 1 mod 4 and all entries are pairwise quadratic residues.

The symbol is a Frobenius sum: a primitive solution of x^2 = a*y^2 + b*z^2
gives a generator gamma = (x + y*sqrt(a))/2^h of a quadratic extension of
Q(sqrt(a), sqrt(b)), and for each prime p | c the summand records whether
that extension splits at p, via the Legendre symbol of gamma's image under
an embedding sqrt(a) -> sqrt_mod(a, p).

For the sum to obey reciprocity the extension must be unramified everywhere,
which in this setting is a condition only at 2: sigma * gamma for one of the
signs sigma must be congruent to a square modulo 4 at every 2-adic place of
Q(sqrt(a)).  Twisting by a norm-one unit never helps: at split places the
two unit residues multiply to the norm b*z^2 which is 1 mod 4, and at inert
places integral norm-one units are already +-squares mod 4, so sign plus a
deterministic stream of primitive solutions exhausts the candidates.  Any
normalized candidate yields the same symbol, which the test suite checks
empirically.

The public functions (redei_symbol, redei_context, context_stream,
symbol_from_context) validate their arguments; the `_` kernels (_symbol,
_context_cache) trust callers that already hold validated prime tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from math import gcd

from .arith import (
    TernarySolution,
    _legendre_unchecked,
    sqrt_mod,
    sqrt_two_adic,
    squarefree_part,
    ternary_solutions,
)
from .errors import (
    AcceptabilityError,
    ArgumentError,
    ConsistencyError,
    DegenerateContextError,
)

_MAX_BASE_SOLUTIONS = 40
_MAX_RETRIES = 8


# ------------------------------------------------------------ preconditions

def acceptable_prime_factors(n: int, allow_one: bool = False) -> tuple[int, ...]:
    """Prime factors of n, requiring n squarefree with every factor 1 mod 4.

    n = 1 is allowed only when allow_one is set (degenerate symbol entries).
    """
    if n == 1 and allow_one:
        return ()
    if n < 2:
        raise AcceptabilityError(f"entry {n} must be >= 2")
    try:
        primes = squarefree_part(n)
    except ArgumentError:
        raise AcceptabilityError(f"entry {n} is not squarefree") from None
    bad = [p for p in primes if p % 4 != 1]
    if bad:
        raise AcceptabilityError(
            f"entry {n} has prime factors {bad} not congruent to 1 mod 4")
    return primes


def _check_coprime(entries) -> None:
    for a, b in combinations(entries, 2):
        g = gcd(a, b)
        if g != 1:
            raise AcceptabilityError(f"entries {a} and {b} share the factor {g}")


def _consistency_witnesses(parts) -> list[tuple[int, int]]:
    """Sorted unique pairs (p, q), p < q, of primes from distinct parts whose
    Legendre symbol is not +1 (symmetric: every prime is 1 mod 4)."""
    return sorted({(min(p, q), max(p, q))
                   for ps, qs in combinations(parts, 2)
                   for p in ps for q in qs if _legendre_unchecked(q, p) != 1})


def _check_consistent(entries: list[int], parts) -> None:
    _check_coprime(entries)
    witnesses = _consistency_witnesses(parts)
    if witnesses:
        raise ConsistencyError(
            f"entries {entries} are not strongly quadratically consistent",
            witnesses=witnesses)


# ------------------------------------------------------- 2-adic square test

@lru_cache(maxsize=8)
def _unit_squares_mod4(m4: int) -> frozenset[tuple[int, int]]:
    """Coordinates mod 4 (basis 1, theta with theta^2 = theta + m) of squares
    of units of Z2[theta]."""
    out = set()
    for c0 in range(4):
        for c1 in range(4):
            if c0 % 2 == 0 and c1 % 2 == 0:
                continue
            out.add(((c0 * c0 + c1 * c1 * m4) % 4, (2 * c0 * c1 + c1 * c1) % 4))
    return frozenset(out)


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _is_normalized(a: int, gx: int, gy: int, half: bool, sigma: int,
                   norm2: int) -> bool:
    """True if sigma*(gx + gy*sqrt(a))/2^half is a square times a unit
    congruent to a square mod 4 at every 2-adic place of Q(sqrt(a)).

    norm2 is the 2-adic valuation of gx^2 - a*gy^2.
    """
    h = 1 if half else 0
    if a % 8 == 1:
        # 2 splits: test both embeddings sqrt(a) -> +-s in Z2
        prec = norm2 + 6
        s = sqrt_two_adic(a, prec)
        mod = 1 << prec
        for e in (s, mod - s):
            t = (gx + gy * e) % mod
            v = _v2(t)
            if (v - h) % 2:
                return False
            u = (t >> v) % 4
            if u != (1 if sigma == 1 else 3):
                return False
        return True
    # 2 inert: O = Z2[theta], theta^2 = theta + m, sqrt(a) = 2*theta - 1
    m = (a - 1) // 4
    if half:
        c0, c1 = (gx - gy) // 2, gy
    else:
        c0, c1 = gx - gy, 2 * gy
    v = (norm2 - 2 * h) // 2  # valuation of gamma in the inert extension
    if v % 2:
        return False
    if c0 % (1 << v) or c1 % (1 << v):
        return False
    u0, u1 = (c0 >> v) % 4, (c1 >> v) % 4
    if sigma == -1:
        u0, u1 = (-u0) % 4, (-u1) % 4
    return (u0, u1) in _unit_squares_mod4(m % 4)


# ----------------------------------------------------------------- context

@dataclass(frozen=True)
class RedeiContext:
    """Normalized generator data for the quadratic extension attached to (a, b).

    sign*(x + y*sqrt(a))/2^half is the normalized generator for the stored
    primitive solution (x, y, z); quartic is the minimal polynomial data
    X^4 - 2xX^2 + b*z^2 of sqrt(x + y*sqrt(a)).
    """

    a: int
    b: int
    solution: TernarySolution
    half: bool
    sign: int
    totally_real: bool
    quartic: tuple[int, int, int, int, int]

    def __post_init__(self):
        s = self.solution
        # y != 0 keeps the quartic discriminant nonzero
        if (self.quartic != (1, 0, -2 * s.x, 0, self.b * s.z * s.z)
                or s.x * s.x - self.a * s.y * s.y != self.b * s.z * s.z
                or s.y == 0):
            raise ConsistencyError(
                f"context for ({self.a}, {self.b}) does not match its solution")


def _contexts(a: int, b: int):
    """Normalized contexts from successive base solutions, deterministically.

    Per solution the candidates are sign +1 then -1; at most one sign can
    pass (the two square-class cosets mod 4 are disjoint), and solutions
    where neither passes are skipped.
    """
    produced = 0
    for sol in islice(ternary_solutions(a, b, checked=False), _MAX_BASE_SOLUTIONS):
        x, y, z = sol.x, sol.y, sol.z
        if x % 2 == 0:  # primitivity forces x odd here
            raise ConsistencyError(f"even x in the solution {(x, y, z)} for ({a}, {b})")
        norm2 = _v2(b * z * z)
        half = y % 2 == 1
        for sigma in (1, -1):
            if _is_normalized(a, x, y, half, sigma, norm2):
                produced += 1
                yield RedeiContext(
                    a=a, b=b, solution=sol, half=half, sign=sigma,
                    totally_real=sigma > 0,
                    quartic=(1, 0, -2 * x, 0, b * z * z))
                break
    if not produced:
        raise DegenerateContextError(
            f"no normalized generator found for ({a}, {b})")


@lru_cache(maxsize=4096)
def _context_cache(a: int, b: int, want: int) -> tuple[RedeiContext, ...]:
    return tuple(islice(_contexts(a, b), want))


def redei_context(a: int, b: int) -> RedeiContext:
    """Normalized context for the pair (a, b).

    Preconditions: a, b >= 2, squarefree, coprime, all prime factors 1 mod 4,
    and each a square modulo every prime factor of the other.
    """
    return context_stream(a, b, 1)[0]


def context_stream(a: int, b: int, want: int) -> tuple[RedeiContext, ...]:
    """Up to `want` contexts built from distinct base solutions (fewer only
    if the solution scan limit is reached)."""
    pa = acceptable_prime_factors(a)
    pb = acceptable_prime_factors(b)
    _check_consistent([a, b], [pa, pb])
    return _context_cache(a, b, want)


# ------------------------------------------------------------------ symbol

def _frobenius_summand(ctx: RedeiContext, p: int) -> int:
    """0 if the context's extension splits at p, 1 if it is inert; raises
    DegenerateContextError when both embeddings vanish mod p."""
    s = sqrt_mod(ctx.a, p)
    gx, gy = ctx.solution.x, ctx.solution.y
    w = (gx + gy * s) % p
    if w == 0:
        w = (gx - gy * s) % p
    if w == 0:
        raise DegenerateContextError(f"both embeddings vanish at {p}")
    if ctx.half:
        w = w * ((p + 1) // 2) % p
    return (1 - _legendre_unchecked(w, p)) // 2


def symbol_from_context(ctx: RedeiContext, c: int) -> int:
    """Frobenius sum over the prime factors of c for a fixed context."""
    total = 0
    for p in acceptable_prime_factors(c, allow_one=True):
        total ^= _frobenius_summand(ctx, p)
    return total


def redei_symbol(a: int, b: int, c: int) -> int:
    """The symbol [a, b, c] in {0, 1}; 0 means every prime of c splits an
    even number of times in the attached extension.

    Preconditions: (a, b, c) squarefree, pairwise coprime, every prime
    factor 1 mod 4, all cross Legendre symbols +1.  An entry equal to 1 is
    accepted as degenerate and forces the value 0 (the symbol is additive
    in each entry and 1 is the empty product).
    """
    pa = acceptable_prime_factors(a, allow_one=True)
    pb = acceptable_prime_factors(b, allow_one=True)
    pc = acceptable_prime_factors(c, allow_one=True)
    _check_consistent([a, b, c], [pa, pb, pc])
    if a == 1 or b == 1:
        return 0
    return _symbol(a, b, pc)


def _symbol(a: int, b: int, pc: tuple[int, ...]) -> int:
    """[a, b, c] for the prime tuple pc of c, retrying degenerate primes with
    further contexts.  Trusts a, b >= 2 and (a, b, c) consistent."""
    total = 0
    for p in pc:
        try:
            total ^= _frobenius_summand(_context_cache(a, b, 1)[0], p)
            continue
        except DegenerateContextError:
            pass
        for ctx in _context_cache(a, b, _MAX_RETRIES)[1:]:
            try:
                total ^= _frobenius_summand(ctx, p)
                break
            except DegenerateContextError:
                continue
        else:
            raise DegenerateContextError(
                f"all retried contexts for ({a}, {b}) degenerate at {p}")
    return total


def reciprocity_check(a1: int, a2: int, a3: int) -> bool:
    """True iff [a1, a2, a3] = [a1, a3, a2]."""
    return redei_symbol(a1, a2, a3) == redei_symbol(a1, a3, a2)


def emit_quartic(a: int, b: int) -> list[int]:
    """[1, 0, -2x, 0, b*z^2] for the context's base solution; the roots of
    this quartic generate the quadratic extension over Q(sqrt(a), sqrt(b))."""
    return list(redei_context(a, b).quartic)
