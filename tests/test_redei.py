"""Tests for Redei symbols, contexts, and reciprocity.

Context rows (solution, half, sign, totally_real) were verified by hand
against the 2-adic normalization conditions before implementation.
"""

import hashlib
import random
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

from narrow2.arith import legendre, primes_one_mod_four, sqrt_mod
from narrow2.errors import (
    AcceptabilityError,
    ArgumentError,
    ConsistencyError,
)
from narrow2.maximality import is_strongly_quadratically_consistent, parse_acceptable
from narrow2.redei import (
    RedeiContext,
    _symbol,
    acceptable_prime_factors,
    context_stream,
    emit_quartic,
    reciprocity_check,
    redei_context,
    redei_symbol,
    symbol_from_context,
)

CENSUS_A_BITS = Path(__file__).parent / "data" / "redei_census_a.bin"
CENSUS_B_ROWS = Path(__file__).parent / "data" / "redei_census_b.txt"

FROZEN_CONTEXTS = [
    # a, b, x, y, z, half, sign, totally_real
    (13, 17, 15, 4, 1, False, -1, False),
    (17, 13, 9, 2, 1, False, -1, False),
    (13, 101, 27, 5, 2, True, 1, True),
    (29, 5, 11, 2, 1, False, 1, True),
    (41, 5, 13, 2, 1, False, -1, False),
    # descent regime: the first three contexts of the stream, in order
    (8933369, 11780737, 844011793, 281061, 23780, True, 1, True),
    (8933369, 11780737, 17477368654363113, 241679988253, 5087665660252,
     True, 1, True),
    (8933369, 11780737, 235463999624481, 78410433812, 6638609095,
     False, 1, True),
]


def _consistent_prime_samples(rng, pool, k, count):
    """Random k-tuples of distinct primes with all cross Legendre symbols +1."""
    out = []
    while len(out) < count:
        t = rng.sample(pool, k)
        if all(legendre(t[i], t[j]) == 1
               for i in range(k) for j in range(i + 1, k)):
            out.append(tuple(t))
    return out


# ---------------------------------------------------------------- contexts

@pytest.mark.parametrize("a,b,x,y,z,half,sign,tot", FROZEN_CONTEXTS)
def test_context_frozen(a, b, x, y, z, half, sign, tot):
    row = (a, b, x, y, z, half, sign, tot)
    k = [r for r in FROZEN_CONTEXTS if r[:2] == (a, b)].index(row)
    c = context_stream(a, b, 3)[k] if k else redei_context(a, b)
    assert (c.solution.x, c.solution.y, c.solution.z) == (x, y, z)
    assert (c.half, c.sign, c.totally_real) == (half, sign, tot)


def test_context_quartic_identity():
    c = redei_context(13, 17)
    assert c.quartic == (1, 0, -30, 0, 17)
    # (X^2 - x)^2 - a*y^2 must equal the stored quartic
    x, y = c.solution.x, c.solution.y
    assert (1, 0, -2 * x, 0, x * x - 13 * y * y) == c.quartic
    # nonzero discriminant of X^4 + pX^2 + q: q*(p^2 - 4q) != 0
    _, _, p, _, q = c.quartic
    assert q * (p * p - 4 * q) != 0


def test_context_rejects_a_solution_of_another_pair():
    with pytest.raises(ConsistencyError):
        RedeiContext(13, 17, redei_context(17, 13).solution)


def test_context_rejects_bad_pairs():
    with pytest.raises(AcceptabilityError):
        redei_context(5, 11)  # 11 = 3 mod 4
    with pytest.raises(AcceptabilityError):
        redei_context(12, 17)  # not squarefree
    with pytest.raises(AcceptabilityError):
        redei_context(65, 221)  # share the factor 13
    with pytest.raises(ConsistencyError):
        redei_context(5, 13)  # (5|13) = -1


def test_context_stream_distinct_solutions():
    ctxs = context_stream(13, 17, 3)
    sols = {(c.solution.x, c.solution.y, c.solution.z) for c in ctxs}
    assert len(ctxs) == 3 and len(sols) == 3
    for c in ctxs:
        s = c.solution
        assert s.x * s.x == 13 * s.y * s.y + 17 * s.z * s.z


def test_totally_real_is_pair_invariant():
    # the first four contexts of all 914 ordered consistent pairs below 500
    pairs = [(a, b) for a, b in permutations(primes_one_mod_four(500).tolist(), 2)
             if legendre(a, b) == 1]
    assert len(pairs) == 914
    for a, b in pairs:
        ctxs = context_stream(a, b, 4)
        assert len(ctxs) == 4 and len({c.totally_real for c in ctxs}) == 1


# Reference 2-adic search for the sign, the implementation that the closed
# form in RedeiContext.sign replaced; kept verbatim as the test oracle, with
# the 2-adic square root it used.

def sqrt_two_adic(a: int, prec: int) -> int:
    """Square root of a in Z_2 to precision 2**prec, for a = 1 mod 8.

    Bit-by-bit Hensel lift; returns the root congruent to 1 mod 4 (the other
    root is its negative mod 2**prec).
    """
    if a % 8 != 1:
        raise ArgumentError(f"sqrt_two_adic: {a} is not 1 mod 8")
    if prec < 3:
        raise ArgumentError("sqrt_two_adic: need prec >= 3")
    s = 1
    for k in range(3, prec):
        if (s * s - a) % (1 << (k + 1)):
            s += 1 << (k - 1)
    s %= 1 << prec
    return s if s % 4 == 1 else (1 << prec) - s


def test_sqrt_two_adic():
    for a in [17, 41, 73, 89, 105, 113]:
        for prec in [3, 4, 8, 20]:
            s = sqrt_two_adic(a, prec)
            assert (s * s - a) % (1 << prec) == 0
            assert s % 4 == 1
    with pytest.raises(ArgumentError):
        sqrt_two_adic(5, 10)


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


def _assert_sign_is_the_only_normalizer(ctx):
    a, b, s = ctx.a, ctx.b, ctx.solution
    half = s.y % 2 == 1
    norm2 = _v2(b * s.z * s.z)
    passing = [sigma for sigma in (1, -1)
               if _is_normalized(a, s.x, s.y, half, sigma, norm2)]
    assert ctx.half == half and passing == [ctx.sign], (a, b, s)
    assert ctx.totally_real == (ctx.sign > 0)
    return half, a % 8


def test_sign_matches_two_adic_search():
    """The closed-form sign is the one sign the 2-adic search accepts: on
    the first solution of every ordered consistent pair of primes below
    2000, on the frozen descent contexts, and on the first three solutions
    of 100 seeded pairs of two-prime entries."""
    primes = primes_one_mod_four(2000).tolist()
    cases = set()
    pairs = 0
    for a, b in permutations(primes, 2):
        if legendre(a, b) == 1:
            cases.add(_assert_sign_is_the_only_normalizer(redei_context(a, b)))
            pairs += 1
    assert pairs == 10558
    # all three cases of the closed form, with a = 1 and 5 mod 8 for y even
    assert cases == {(False, 1), (False, 5), (True, 1), (True, 5)}
    for ctx in context_stream(8933369, 11780737, 3):
        _assert_sign_is_the_only_normalizer(ctx)
    rng = random.Random(71)
    pool = primes[:60]
    done = 0
    while done < 100:
        p, q, r, t = rng.sample(pool, 4)
        if not all(legendre(u, v) == 1 for u in (p, q) for v in (r, t)):
            continue
        ctxs = context_stream(p * q, r * t, 3)
        assert len(ctxs) == 3
        for ctx in ctxs:
            _assert_sign_is_the_only_normalizer(ctx)
        done += 1


# ---------------------------------------------------------------- symbols

def test_symbol_frozen_values():
    assert redei_symbol(13, 17, 101) == 0
    assert redei_symbol(13, 101, 17) == 0
    # the 101-summand comes from legendre(15 + 4*35, 101) = legendre(54, 101)
    assert legendre(54, 101) == 1


def test_symbol_degenerate_entries():
    assert redei_symbol(13, 17, 1) == 0
    assert redei_symbol(13, 1, 17) == 0
    assert redei_symbol(1, 13, 17) == 0


def test_symbol_retry_when_prime_divides_z():
    # 5 | z in the first solutions of (89, 461) and (61, 149).  For (89, 461)
    # the solution is (109, 2, 5) and its first embedding 109 + 2*2 is 3 mod
    # 5, so that embedding serves.  For (61, 149) it is (63, 2, 5), whose
    # first embedding 63 + 2*1 vanishes mod 5, so the summand takes the
    # conjugate embedding, which is 2x mod 5.
    c = redei_context(89, 461)
    assert c.solution.z == 5
    assert (c.solution.x + c.solution.y * sqrt_mod(89, 5)) % 5 == 3
    s = redei_context(61, 149).solution
    assert (s.x, s.y, s.z) == (63, 2, 5)
    assert (s.x + s.y * sqrt_mod(61, 5)) % 5 == 0
    assert (s.x - s.y * sqrt_mod(61, 5)) % 5 == 2 * s.x % 5
    assert redei_symbol(89, 461, 5) == 1
    assert redei_symbol(89, 5, 461) == 1
    assert redei_symbol(61, 149, 5) == redei_symbol(61, 5, 149) == 0


def test_symbol_preconditions():
    with pytest.raises(ConsistencyError) as e:
        redei_symbol(5, 13, 17)
    assert (5, 13) in e.value.witnesses
    with pytest.raises(AcceptabilityError):
        redei_symbol(5, 29, 33)  # 33 = 3 * 11, factors 3 mod 4
    with pytest.raises(AcceptabilityError):
        redei_symbol(5, 29, 0)
    with pytest.raises(AcceptabilityError):
        redei_symbol(5, 29, 145)  # shares 5 and 29


def test_symbol_witnesses_match_vector_consistency():
    rng = random.Random(61)
    pool = [int(p) for p in primes_one_mod_four(500)]
    done = 0
    while done < 20:
        primes = rng.sample(pool, 5)
        entries = (primes[0] * primes[1], primes[2], primes[3] * primes[4])
        ok, witnesses = is_strongly_quadratically_consistent(
            parse_acceptable(entries))
        if ok:
            continue
        with pytest.raises(ConsistencyError) as e:
            redei_symbol(*entries)
        assert e.value.witnesses == witnesses, entries
        done += 1


def test_acceptable_prime_factors():
    assert acceptable_prime_factors(65) == (5, 13)
    assert acceptable_prime_factors(1, allow_one=True) == ()
    with pytest.raises(AcceptabilityError):
        acceptable_prime_factors(1)
    with pytest.raises(AcceptabilityError):
        acceptable_prime_factors(21)
    assert issubclass(AcceptabilityError, ArgumentError)


# ------------------------------------------------------------- reciprocity

def test_reciprocity_frozen():
    assert reciprocity_check(13, 17, 101)
    assert reciprocity_check(5, 29, 1)


def test_reciprocity_random_prime_triples():
    rng = random.Random(31)
    pool = [int(p) for p in primes_one_mod_four(20000)]
    for t in _consistent_prime_samples(rng, pool, 3, 20):
        assert len({redei_symbol(*p) for p in permutations(t)}) == 1, t


# ------------------------------------------------------------ independence

def test_solution_independence():
    rng = random.Random(41)
    pool = [int(p) for p in primes_one_mod_four(3000)]
    for a, b, c in _consistent_prime_samples(rng, pool, 3, 10):
        vals = {symbol_from_context(ctx, c) for ctx in context_stream(a, b, 3)}
        assert len(vals) == 1, (a, b, c, vals)


# ------------------------------------------------------------ multilinearity

def test_multilinearity_each_slot():
    rng = random.Random(51)
    pool = [int(p) for p in primes_one_mod_four(1500)]
    done = 0
    while done < 6:
        a, a2, b, c = rng.sample(pool, 4)
        pairs = [(a, a2), (a, b), (a, c), (a2, b), (a2, c), (b, c)]
        if not all(legendre(u, v) == 1 for u, v in pairs):
            continue
        assert redei_symbol(a * a2, b, c) == redei_symbol(a, b, c) ^ redei_symbol(a2, b, c)
        assert redei_symbol(b, a * a2, c) == redei_symbol(b, a, c) ^ redei_symbol(b, a2, c)
        assert redei_symbol(b, c, a * a2) == redei_symbol(b, c, a) ^ redei_symbol(b, c, a2)
        done += 1


# ---------------------------------------------------------------- quartics

def test_emit_quartic():
    assert emit_quartic(13, 17) == [1, 0, -30, 0, 17]
    q = emit_quartic(17, 13)
    s = redei_context(17, 13).solution
    assert q == [1, 0, -2 * s.x, 0, 13 * s.z * s.z] == [1, 0, -18, 0, 13]
    assert emit_quartic(8933369, 11780737) == [1, 0, -1688023586, 0, 6661870116950800]
    rng = random.Random(61)
    pool = [int(p) for p in primes_one_mod_four(2000)]
    for a, b in _consistent_prime_samples(rng, pool, 2, 8):
        q = emit_quartic(a, b)
        assert q[0] == 1 and all(isinstance(t, int) for t in q)


def test_symbol_census_a():
    """Every triple of primes 1 mod 4 below 2000 with all three cross
    Legendre symbols +1, in combinations order; the symbol bits were
    recorded with np.packbits and the SHA-256 of bytes(bits)."""
    primes = primes_one_mod_four(2000).tolist()
    square = {(p, q) for p, q in combinations(primes, 2) if legendre(p, q) == 1}
    triples = [(a, b, c) for a, b, c in combinations(primes, 3)
               if (a, b) in square and (a, c) in square and (b, c) in square]
    assert len(triples) == 61194
    bits = np.array([_symbol(a, b, (c,)) for a, b, c in triples], dtype=np.uint8)
    want = np.unpackbits(np.frombuffer(CENSUS_A_BITS.read_bytes(), dtype=np.uint8),
                         count=len(triples))
    differ = np.flatnonzero(bits != want)
    assert not differ.size, triples[differ[0]]
    assert len(bits) - int(bits.sum()) == 29950
    assert hashlib.sha256(bits.tobytes()).hexdigest() == (
        "e11dbf519b5a5f532c31b5a1125342006c67a0a45358521f59e5046cfd0e5dd2")


def test_symbol_census_b():
    """Census B, the descent regime: 100 triples of distinct primes 1 mod 4
    in [1e7, 1e8] with all three cross Legendre symbols +1, drawn with
    random.Random(2020) (each prime from randrange(10**7, 10**8) | 1 until
    it is 1 mod 4 and prime), one `a b c bit` line each.  The bits were
    recorded while the sign still came from the 2-adic search."""
    rows = [tuple(map(int, line.split()))
            for line in CENSUS_B_ROWS.read_text().splitlines()]
    assert len(rows) == 100
    for a, b, c, bit in rows:
        assert _symbol(a, b, (c,)) == bit, (a, b, c)
    assert sum(bit for *_, bit in rows) == 44
