"""Exact integer arithmetic primitives.

Everything here is deterministic and allocation-light: Legendre symbols via
Euler's criterion, Tonelli-Shanks square roots, Miller-Rabin primality
(deterministic below the Sorenson-Webster bound), Pollard-Brent factoring,
primitive solutions of x^2 = a*y^2 + b*z^2, and fundamental units of real
quadratic orders via the PQa continued-fraction algorithm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import gcd, isqrt

import numpy as np

from .errors import ArgumentError, ConsistencyError

# Deterministic Miller-Rabin witness set, valid for n < 3317044064679887385961981.
# https://miller-rabin.appspot.com/
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _mr_witness(n: int, d: int, s: int, a: int) -> bool:
    """True if a witnesses the compositeness of n = d*2^s + 1."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: deterministic for n below ~3.3e24, strong probable
    prime with error < 2**-128 beyond (extra bases seeded from n itself,
    so the answer is reproducible)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = list(_MR_BASES)
    if n >= _MR_LIMIT:
        rng = random.Random(n)
        bases += [rng.randrange(2, n - 1) for _ in range(64)]
    return not any(_mr_witness(n, d, s, a) for a in bases)


@lru_cache(maxsize=65536)
def _is_prime_cached(n: int) -> bool:
    return is_prime(n)


def _legendre_unchecked(a: int, p: int) -> int:
    """Euler's criterion; caller guarantees p is an odd prime."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) >> 1, p)
    return -1 if t == p - 1 else 1


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, +1}. p must be an odd prime."""
    if p < 3 or p % 2 == 0 or not _is_prime_cached(p):
        raise ArgumentError(f"legendre: modulus {p} is not an odd prime")
    return _legendre_unchecked(a, p)


def _sqrt_mod_unchecked(a: int, p: int) -> int:
    """Tonelli-Shanks, https://en.wikipedia.org/wiki/Tonelli-Shanks_algorithm.
    Returns the smaller of the two roots."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) >> 2, p)
    elif p % 8 == 5:
        r = pow(a, (p + 3) >> 3, p)
        if r * r % p != a:
            r = r * pow(2, (p - 1) >> 2, p) % p
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while _legendre_unchecked(z, p) != -1:
            z += 1
        m, c = s, pow(z, q, p)
        t, r = pow(a, q, p), pow(a, (q + 1) >> 1, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    return min(r, p - r)


def sqrt_mod(a: int, p: int) -> int:
    """Square root of a modulo an odd prime p, smaller root returned.
    Raises if a is a non-residue."""
    if p < 3 or p % 2 == 0 or not _is_prime_cached(p):
        raise ArgumentError(f"sqrt_mod: modulus {p} is not an odd prime")
    if _legendre_unchecked(a, p) == -1:
        raise ArgumentError(f"sqrt_mod: {a} is not a square modulo {p}")
    return _sqrt_mod_unchecked(a, p)


def _pollard_brent(n: int) -> int:
    """One nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}. n >= 1."""
    if n < 1:
        raise ArgumentError(f"factorize: {n} < 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 49
    while p * p <= n and p < 100000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime_cached(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack += [d, m // d]
    return dict(sorted(out.items()))


def squarefree_part(n: int) -> tuple[int, ...]:
    """Sorted prime tuple of squarefree n; raises if n has a repeated factor."""
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        raise ArgumentError(f"{n} is not squarefree")
    return tuple(f)


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (sieve of Eratosthenes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    s = np.ones(limit + 1, dtype=bool)
    s[:2] = False
    for i in range(2, isqrt(limit) + 1):
        if s[i]:
            s[i * i :: i] = False
    return np.nonzero(s)[0].astype(np.int64)


def primes_one_mod_four(limit: int) -> np.ndarray:
    ps = primes_up_to(limit)
    return ps[ps % 4 == 1]


@dataclass(frozen=True)
class TernarySolution:
    """Primitive integer solution of x^2 = a*y^2 + b*z^2 with x > 0, z > 0."""

    a: int
    b: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        if (x * x != self.a * y * y + self.b * z * z or gcd(gcd(x, y), z) != 1
                or x <= 0 or z == 0):
            raise ConsistencyError(
                f"({x}, {y}, {z}) is not a primitive solution of "
                f"x^2 = {self.a}*y^2 + {self.b}*z^2 with x > 0, z != 0")


def _reduce_primitive(a: int, b: int, x: int, y: int, z: int) -> TernarySolution:
    g = gcd(gcd(x, y), z)
    x, y, z = abs(x) // g, abs(y) // g, abs(z) // g
    return TernarySolution(a, b, x, y, z)


_GRID_CELLS = 4_000_000
_FLOAT_EXACT = 1 << 53


def _ternary_grid_rows(a: int, b: int, z_lo: int, z_hi: int):
    """Perfect-square hits of a*y^2 + b*z^2 for z in [z_lo, z_hi), ascending (z, y).

    The caller keeps b*z_hi^2 + a*(isqrt(b) + 1)^2 below 2**53, so every value
    is exact in float64 and the float square root is exact after integer
    verification.
    """
    ylim = isqrt(b) + 1
    ay2 = a * np.arange(ylim, dtype=np.int64) ** 2
    zs = np.arange(z_lo, z_hi, dtype=np.int64)
    vals = b * zs[:, None] ** 2 + ay2[None, :]
    r = np.rint(np.sqrt(vals.astype(np.float64))).astype(np.int64)
    hits = np.nonzero(r * r == vals)
    for zi, yi in zip(*hits):
        yield int(r[zi, yi]), int(yi), int(z_lo + zi)


def _ternary_stream(a: int, b: int):
    """ternary_solutions for a caller that guarantees its preconditions."""
    ylim = isqrt(b) + 1
    if (isqrt(a) + 1) * ylim <= _GRID_CELLS:
        cap = _GRID_CELLS // ylim
        z_end = isqrt((_FLOAT_EXACT - 1 - a * ylim * ylim) // b)
        z, chunk = 1, 1
        while z < z_end:
            z_hi = min(z + chunk, z_end)
            for x, y, zz in _ternary_grid_rows(a, b, z, z_hi):
                if gcd(gcd(x, y), zz) == 1:
                    yield TernarySolution(a, b, x, y, zz)
            z, chunk = z_hi, min(2 * chunk, cap)
        return
    from sympy.abc import x as sx, y as sy, z as sz
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic

    X, Y, Z = diop_ternary_quadratic(sx * sx - a * sy * sy - b * sz * sz)
    if X is None:
        raise ConsistencyError(f"solve_ternary: ({a}, {b}) descent found no solution")
    base = _reduce_primitive(a, b, int(X), int(Y), int(Z))
    yield base
    x0, y0, z0 = base.x, base.y, base.z
    seen = {(x0, y0, z0)}
    for bound in count(1):
        for u in range(-bound, bound + 1):
            for v in range(-bound, bound + 1):
                for w in range(-bound, bound + 1):
                    if max(abs(u), abs(v), abs(w)) != bound:
                        continue
                    qu = u * u - a * v * v - b * w * w
                    bl = x0 * u - a * y0 * v - b * z0 * w
                    x = abs(qu * x0 - 2 * bl * u)
                    y = abs(qu * y0 - 2 * bl * v)
                    z = abs(qu * z0 - 2 * bl * w)
                    if x == 0 or z == 0:
                        continue
                    g = gcd(gcd(x, y), z)
                    x, y, z = x // g, y // g, z // g
                    if (x, y, z) in seen:
                        continue
                    seen.add((x, y, z))
                    yield TernarySolution(a, b, x, y, z)


def ternary_solutions(a: int, b: int):
    """Distinct primitive solutions of x^2 = a*y^2 + b*z^2, x > 0, y >= 0,
    z > 0, in a deterministic order.

    Grid regime, when the Holzer box (isqrt(a) + 1) * (isqrt(b) + 1) has at most
    4M cells: every 0 <= y <= isqrt(b) is scanned for z = 1, 2, ... in chunks of
    rows that start at one row and double up to about 4M cells, so solutions
    come ascending in (z, y).  Holzer's theorem puts the first one at
    z <= sqrt(a).  The stream ends before b*z^2 + a*y^2 could reach 2**53,
    past which the float64 scan is no longer exact.

    Descent regime, otherwise: sympy's Lagrange descent solution first, then
    the second intersections of the conic with the lines through it in
    integer directions (u, v, w), taken in growing max-norm shells and
    skipping repeats.  The equation involves only squares, so coordinates
    are taken nonnegative.  This stream does not end.

    Preconditions: a, b odd, squarefree, coprime, both >= 3, and each
    coefficient a square modulo every prime of the other.
    """
    if a < 3 or b < 3 or a % 2 == 0 or b % 2 == 0:
        raise ArgumentError(f"solve_ternary: coefficients ({a}, {b}) must be odd, >= 3")
    if gcd(a, b) != 1:
        raise ArgumentError(f"solve_ternary: coefficients ({a}, {b}) share a factor")
    pa, pb = squarefree_part(a), squarefree_part(b)
    bad = [(p, q) for p in pa for q in pb
           if _legendre_unchecked(b, p) != 1 or _legendre_unchecked(a, q) != 1]
    if bad:
        raise ConsistencyError(
            f"solve_ternary: ({a}, {b}) fails local solvability", witnesses=bad)
    return _ternary_stream(a, b)


def solve_ternary(a: int, b: int) -> TernarySolution:
    """The first element of ternary_solutions(a, b), same preconditions."""
    return next(ternary_solutions(a, b))


@dataclass(frozen=True)
class QuadraticUnit:
    """Fundamental unit (u + v*sqrt(d))/2**half of the maximal order of Q(sqrt(d))."""

    d: int
    u: int
    v: int
    half: bool

    @property
    def norm(self) -> int:
        n = self.u * self.u - self.d * self.v * self.v
        return n // 4 if self.half else n


def _pqa_unit(d: int, m: int = 0):
    """One period of the continued fraction of (p0 + sqrt(d))/q0, where
    (p0, q0) = (1, 2) if d = 1 mod 4 else (0, 1): returns (G, B, q0) at the
    first Q_{k+1} == q0, and (G + B*sqrt(d))/q0 is the fundamental unit of
    the maximal order.  G and B are reduced mod m when m > 0.

    G_k^2 - d*B_k^2 = (-1)^(k+1) * q0 * Q_{k+1}.  The complete quotients
    (P_k + sqrt(d))/Q_k are reduced from k = 1 on, and the only reduced one
    with Q = q0 closes the period, so Q first returns to q0 after one period.
    """
    p0, q0 = (1, 2) if d % 4 == 1 else (0, 1)
    sq = isqrt(d)
    P, Q = p0, q0
    g2, g1 = -p0, q0  # G_k = Q0*A_k - P0*B_k over convergents A_k/B_k
    b2, b1 = 1, 0
    for _ in range(10_000_000):
        a = (P + sq) // Q
        g = a * g1 + g2
        b = a * b1 + b2
        if m:
            g, b = g % m, b % m
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == q0:
            return g, b, q0
        g2, g1 = g1, g
        b2, b1 = b1, b
    raise RuntimeError("PQa failed to terminate")


def fundamental_unit(d: int) -> QuadraticUnit:
    """Fundamental unit of the maximal order of Q(sqrt(d)), d >= 2 squarefree,
    from one period of the continued fraction of (1 + sqrt(d))/2 if d = 1
    mod 4 (half-integral units, u^2 - d*v^2 = +-4) and of sqrt(d) otherwise.
    """
    squarefree_part(d)
    if d < 2:
        raise ArgumentError(f"fundamental_unit: {d} < 2")
    g, b, q0 = _pqa_unit(d)
    if q0 == 2 and g % 2 == 0 and b % 2 == 0:
        return QuadraticUnit(d, g // 2, b // 2, False)
    return QuadraticUnit(d, g, b, q0 == 2)
