"""Redei symbols [a, b, c] over F2 in the restricted setting where every
prime factor is 1 mod 4 and all entries are pairwise quadratic residues.

The symbol is a Frobenius sum: a primitive solution of x^2 = a*y^2 + b*z^2
gives a generator gamma = (x + y*sqrt(a))/2^h of a quadratic extension of
Q(sqrt(a), sqrt(b)), and for each prime p | c the summand records whether
that extension splits at p, via the Legendre symbol of gamma's image under
an embedding sqrt(a) -> sqrt_mod(a, p).

For the sum to obey reciprocity the extension must be unramified everywhere,
which in this setting is a condition only at 2: sigma*gamma must be
congruent to a square modulo 4 at every 2-adic place of Q(sqrt(a)), for a
sign sigma.  Every primitive solution passes for exactly one sign, which
RedeiContext.sign gives in closed form.  Every prime is 1 mod 4, so
a = b = 1 mod 4, x is odd and exactly one of y, z is odd.

- y even (h = 0): gamma is a 2-adic unit congruent to x - y mod 4 at every
  2-adic place (for a = 5 mod 8 write sqrt(a) = 2*theta - 1), so
  sigma = x - y mod 4.
- y odd, a = 1 mod 8: 8 | b*z^2, so one embedding x + y*s has valuation 1
  and is 2x mod 8, and the odd parts of the two embeddings multiply to
  b*(odd)^2 = 1 mod 4, so sigma = x mod 4.
- y odd, a = 5 mod 8: z = 2 mod 4 and gamma is a unit of Z2[theta] of norm
  b*(z/2)^2 = 1 mod 4; those units are exactly the unit squares mod 4 up to
  sign, and sigma = -x mod 4.

-1 is never a unit square mod 4, so the other sign always fails.  No
summand degenerates either: both embeddings vanish mod an odd p only if
p | x and p | y, and then p | z since b is squarefree, against
primitivity.  So each pair takes the context of its first solution; any
other solution yields the same symbol, which the test suite checks
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
    _ternary_stream,
    sqrt_mod,
    squarefree_part,
)
from .errors import AcceptabilityError, ArgumentError, ConsistencyError


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


# ----------------------------------------------------------------- context

@dataclass(frozen=True)
class RedeiContext:
    """Normalized generator data for the quadratic extension attached to (a, b).

    sign*(x + y*sqrt(a))/2^half is the normalized generator for the stored
    primitive solution (x, y, z); quartic is the minimal polynomial data
    X^4 - 2xX^2 + b*z^2 of sqrt(x + y*sqrt(a)).  half, sign, totally_real
    and quartic are derived from the solution.
    """

    a: int
    b: int
    solution: TernarySolution

    def __post_init__(self):
        if (self.solution.a, self.solution.b) != (self.a, self.b):
            raise ConsistencyError(
                f"context for ({self.a}, {self.b}) holds a solution for "
                f"({self.solution.a}, {self.solution.b})")

    @property
    def half(self) -> bool:
        return self.solution.y % 2 == 1

    @property
    def sign(self) -> int:
        """The one sign that normalizes the generator; the module docstring
        derives its three cases."""
        x, y = self.solution.x, self.solution.y
        r = x - y if y % 2 == 0 else x if self.a % 8 == 1 else -x
        return 1 if r % 4 == 1 else -1

    @property
    def totally_real(self) -> bool:
        return self.sign > 0

    @property
    def quartic(self) -> tuple[int, int, int, int, int]:
        s = self.solution
        return (1, 0, -2 * s.x, 0, self.b * s.z * s.z)


@lru_cache(maxsize=4096)
def _context_cache(a: int, b: int) -> RedeiContext:
    """The context of the first solution in the stream of (a, b)."""
    sol = next(_ternary_stream(a, b), None)
    if sol is None:
        raise ConsistencyError(f"the solution stream for ({a}, {b}) is empty")
    return RedeiContext(a, b, sol)


def _check_pair(a: int, b: int) -> None:
    pa = acceptable_prime_factors(a)
    pb = acceptable_prime_factors(b)
    _check_consistent([a, b], [pa, pb])


def redei_context(a: int, b: int) -> RedeiContext:
    """Normalized context for the pair (a, b), from its first solution.

    Preconditions: a, b >= 2, squarefree, coprime, all prime factors 1 mod 4,
    and each a square modulo every prime factor of the other.
    """
    _check_pair(a, b)
    return _context_cache(a, b)


def context_stream(a: int, b: int, want: int) -> tuple[RedeiContext, ...]:
    """Contexts of the first `want` solutions of (a, b), in stream order
    (fewer only if the grid stream ends first)."""
    _check_pair(a, b)
    sols = islice(_ternary_stream(a, b), want)
    return tuple(RedeiContext(a, b, sol) for sol in sols)


# ------------------------------------------------------------------ symbol

def _frobenius_summand(ctx: RedeiContext, p: int) -> int:
    """0 if the context's extension splits at p, 1 if it is inert."""
    s = sqrt_mod(ctx.a, p)
    gx, gy = ctx.solution.x, ctx.solution.y
    w = (gx + gy * s) % p
    if w == 0:
        w = (gx - gy * s) % p
    if w == 0:  # p | x and p | y would give p | z: not primitive
        raise ConsistencyError(
            f"both embeddings of {(gx, gy)} vanish at {p} for ({ctx.a}, {ctx.b})")
    if ctx.half:
        w = w * ((p + 1) // 2) % p
    return (1 - _legendre_unchecked(w, p)) // 2


def _frobenius_sum(ctx: RedeiContext, pc: tuple[int, ...]) -> int:
    total = 0
    for p in pc:
        total ^= _frobenius_summand(ctx, p)
    return total


def symbol_from_context(ctx: RedeiContext, c: int) -> int:
    """Frobenius sum over the prime factors of c for a fixed context."""
    return _frobenius_sum(ctx, acceptable_prime_factors(c, allow_one=True))


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
    """[a, b, c] for the prime tuple pc of c.  Trusts a, b >= 2 and
    (a, b, c) consistent."""
    return _frobenius_sum(_context_cache(a, b), pc)


def reciprocity_check(a1: int, a2: int, a3: int) -> bool:
    """True iff [a1, a2, a3] = [a1, a3, a2]."""
    return redei_symbol(a1, a2, a3) == redei_symbol(a1, a3, a2)


def emit_quartic(a: int, b: int) -> list[int]:
    """[1, 0, -2x, 0, b*z^2] for the context's base solution; the roots of
    this quartic generate the quadratic extension over Q(sqrt(a), sqrt(b))."""
    return list(redei_context(a, b).quartic)
