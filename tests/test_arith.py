"""Tests for the integer arithmetic layer.

Frozen values below were computed independently (brute-force scripts and
hand calculation) before the implementations were written.
"""

import os
import random
import subprocess
import sys
from math import gcd, isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import narrow2
from narrow2 import arith
from narrow2.arith import (
    QuadraticUnit,
    TernarySolution,
    factorize,
    fundamental_unit,
    is_prime,
    legendre,
    primes_one_mod_four,
    primes_up_to,
    solve_ternary,
    sqrt_mod,
    squarefree_part,
    ternary_solutions,
)
from narrow2.errors import ArgumentError, ConsistencyError

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 29, 41, 101, 997, 10007, 1000003]


# ---------------------------------------------------------------- primality

def test_is_prime_small_table():
    truth = set(sympy.primerange(0, 2000))
    for n in range(2000):
        assert is_prime(n) == (n in truth)


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=10**12))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_large_deterministic_range():
    # around the 64-bit boundary, still inside the deterministic witness range
    for n in [2**64 - 59, 2**64 + 13, 2**64 - 57]:
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_beyond_deterministic_range():
    p = 2**89 - 1  # Mersenne prime
    assert is_prime(p)
    assert not is_prime(p * (2**61 - 1))


# ---------------------------------------------------------------- legendre

@pytest.mark.parametrize("p", ODD_PRIMES)
def test_legendre_matches_square_classes(p):
    if p > 2000:
        return
    squares = {x * x % p for x in range(1, p)}
    for a in range(p):
        want = 0 if a == 0 else (1 if a in squares else -1)
        assert legendre(a, p) == want


@settings(max_examples=200)
@given(st.integers(), st.integers(), st.sampled_from(ODD_PRIMES))
def test_legendre_multiplicative(a, b, p):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_rejects_bad_modulus():
    for p in [1, 2, 4, 9, 15, 1000001]:
        with pytest.raises(ArgumentError):
            legendre(3, p)


# ---------------------------------------------------------------- sqrt_mod

FROZEN_SQRTS = [
    (13, 17, 8),
    (13, 101, 35),
    (2, 7, 3),
    (5, 41, 13),
    (10, 13, 6),
]


@pytest.mark.parametrize("a,p,r", FROZEN_SQRTS)
def test_sqrt_mod_frozen(a, p, r):
    assert sqrt_mod(a, p) == r


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**9), st.sampled_from(ODD_PRIMES))
def test_sqrt_mod_roundtrip(x, p):
    a = x * x % p
    r = sqrt_mod(a, p)
    assert r * r % p == a
    assert 0 <= r <= p - r  # smaller root

def test_sqrt_mod_all_residues_mod_one_prime():
    p = 997  # p = 5 mod 8 exercises the second fast path
    assert p % 8 == 5
    for a in range(p):
        if legendre(a, p) >= 0:
            r = sqrt_mod(a, p)
            assert r * r % p == a


def test_sqrt_mod_rejects_nonresidue():
    with pytest.raises(ArgumentError):
        sqrt_mod(3, 5)
    with pytest.raises(ArgumentError):
        sqrt_mod(5, 8)


# ---------------------------------------------------------------- factoring

@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    for p, e in f.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_factorize_semiprime():
    p, q = 1000000007, 998244353
    assert factorize(p * q) == {q: 1, p: 1}


def test_squarefree_part():
    assert squarefree_part(1) == ()
    assert squarefree_part(65) == (5, 13)
    assert squarefree_part(4189) == (59, 71)
    with pytest.raises(ArgumentError):
        squarefree_part(12)


def test_prime_sieves():
    assert list(primes_up_to(100)) == list(sympy.primerange(2, 101))
    q = primes_one_mod_four(100)
    assert list(q) == [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]


# ---------------------------------------------------------------- ternary forms

FROZEN_TERNARY = [
    (13, 17, 15, 4, 1),
    (13, 101, 27, 5, 2),
    (17, 13, 9, 2, 1),
    (29, 5, 11, 2, 1),
    (41, 5, 13, 2, 1),
]


@pytest.mark.parametrize("a,b,x,y,z", FROZEN_TERNARY)
def test_solve_ternary_frozen(a, b, x, y, z):
    s = solve_ternary(a, b)
    assert (s.x, s.y, s.z) == (x, y, z)
    assert s == next(ternary_solutions(a, b))


def test_solve_ternary_postconditions_random_pairs():
    rng = random.Random(7)
    pool = [int(p) for p in primes_one_mod_four(2000)]
    done = 0
    while done < 15:
        a, b = rng.sample(pool, 2)
        if legendre(a, b) != 1 or legendre(b, a) != 1:
            continue
        s = solve_ternary(a, b)
        assert s.x * s.x == a * s.y * s.y + b * s.z * s.z
        assert gcd(gcd(s.x, s.y), s.z) == 1
        assert s.x > 0 and s.z > 0 and s.y >= 0
        done += 1


def test_solve_ternary_descent_path():
    # coefficient product far past the brute-force grid budget
    a, b = 4517229641, 64301  # 52457*86113 and a consistent prime
    s = solve_ternary(a, b)
    assert s.x * s.x == a * s.y * s.y + b * s.z * s.z
    assert gcd(gcd(s.x, s.y), s.z) == 1
    assert s == next(ternary_solutions(a, b))


def test_ternary_solutions_stream_ordered_and_primitive():
    seen = []
    for s in ternary_solutions(13, 17):
        seen.append((s.z, s.y, s.x))
        if len(seen) == 8:
            break
    assert seen == sorted(seen)
    assert seen[0] == (1, 4, 15)
    for z, y, x in seen:
        assert x * x == 13 * y * y + 17 * z * z
        assert gcd(gcd(x, y), z) == 1


def test_ternary_grid_stream_stops_at_float_exactness_bound(monkeypatch):
    # b ~ 1e12 caps chunks at 4M // isqrt(b) = 3 rows; the bound falls near z = 95
    a, b = 5, 1000000000061
    ylim = isqrt(b) + 1
    chunks = []
    rows = arith._ternary_grid_rows

    def spy(a_, b_, z_lo, z_hi):
        chunks.append((z_lo, z_hi))
        return rows(a_, b_, z_lo, z_hi)

    monkeypatch.setattr(arith, "_ternary_grid_rows", spy)
    sols = list(ternary_solutions(a, b))
    sizes = [hi - lo for lo, hi in chunks]
    assert chunks[0] == (1, 2) and sizes[:3] == [1, 2, 3] and max(sizes) == 3
    assert all(hi == lo2 for (_, hi), (lo2, _) in zip(chunks, chunks[1:]))
    z_end = chunks[-1][1]
    assert b * z_end**2 + a * ylim**2 < 2**53 <= b * (z_end + 1) ** 2 + a * ylim**2
    assert [(s.z, s.y) for s in sols] == sorted((s.z, s.y) for s in sols)
    assert sols[0] == solve_ternary(a, b)
    for s in sols:
        assert s.x * s.x == a * s.y * s.y + b * s.z * s.z < 2**53


def test_solve_ternary_refuses_even_coefficients():
    # 9 = 2 + 7 is solvable, but the domain is odd a, b
    for a, b in [(2, 7), (7, 2)]:
        with pytest.raises(ArgumentError, match="odd"):
            solve_ternary(a, b)


def test_ternary_solutions_validates_at_the_call():
    # no solution is drawn: the public stream checks before it is returned
    with pytest.raises(ConsistencyError, match="local solvability"):
        ternary_solutions(13, 19)
    with pytest.raises(TypeError):
        ternary_solutions(13, 17, checked=False)


def test_ternary_solution_rejects_non_solutions():
    with pytest.raises(ConsistencyError):
        TernarySolution(13, 17, 15, 4, 2)  # not a solution
    with pytest.raises(ConsistencyError):
        TernarySolution(13, 17, 30, 8, 2)  # not primitive
    with pytest.raises(ConsistencyError):
        TernarySolution(13, 17, -15, 4, 1)  # x < 0


def test_consistency_checks_survive_optimize_flag():
    code = (
        "from narrow2 import ConsistencyError, MaximalityReport, TernarySolution\n"
        "for make in (lambda: TernarySolution(13, 17, 15, 4, 2),\n"
        "             lambda: MaximalityReport(True, 3, 3, 1, (('legendre', (5, 13)),))):\n"
        "    try:\n"
        "        make()\n"
        "    except ConsistencyError:\n"
        "        continue\n"
        "    raise SystemExit('no ConsistencyError under -O')\n"
    )
    src = os.path.dirname(os.path.dirname(narrow2.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr + done.stdout


def test_solve_ternary_rejects_bad_inputs():
    with pytest.raises(ArgumentError):
        solve_ternary(13, 1)
    with pytest.raises(ArgumentError):
        solve_ternary(12, 17)  # not squarefree
    with pytest.raises(ArgumentError):
        solve_ternary(15, 5)  # shared factor
    with pytest.raises(ConsistencyError) as e:
        solve_ternary(5, 13)  # (5|13) = -1
    assert e.value.witnesses


# ---------------------------------------------------------------- units

FROZEN_UNITS = [
    (2, 1, 1, False),
    (3, 2, 1, False),
    (5, 1, 1, True),
    (13, 3, 1, True),
    (17, 4, 1, False),
    (29, 5, 1, True),
    (41, 32, 5, False),
    (65, 8, 1, False),
    (73, 1068, 125, False),
]


@pytest.mark.parametrize("d,u,v,half", FROZEN_UNITS)
def test_fundamental_unit_frozen(d, u, v, half):
    e = fundamental_unit(d)
    assert (e.u, e.v, e.half) == (u, v, half)
    assert e.norm in (-1, 1)


def _brute_fundamental(d, vmax=60000):
    """Smallest unit > 1 of the maximal order, by scanning v; None if v > vmax.

    u^2 = d*v^2 + t stays below 3.6e12 here, so int64 is exact and the
    rounded float64 square root is confirmed by u*u == u2 in int64.
    """
    v = np.arange(1, vmax, dtype=np.int64)
    cands = []  # the first hit of each equation u^2 = d*v^2 + t
    for t, half in ((-1, False), (1, False), (-4, True), (4, True)):
        if half and d % 4 != 1:
            continue
        u2 = d * v * v + t
        u = np.rint(np.sqrt(u2.astype(np.float64))).astype(np.int64)
        hit = u * u == u2
        if half:
            hit &= (v % 2 == 1) & (u % 2 == 1)
        cands += [(int(u[i]), int(v[i]), half) for i in np.flatnonzero(hit)[:1]]
    if not cands:
        return None
    vmin = min(c[1] for c in cands)
    return min((c for c in cands if c[1] == vmin),
               key=lambda c: (c[0] + c[1] * d**0.5) / (2 if c[2] else 1))


def test_fundamental_unit_minimal_below_1000():
    for d in range(2, 1000):
        try:
            squarefree_part(d)
        except ArgumentError:
            continue
        got = fundamental_unit(d)
        want = _brute_fundamental(d)
        if want is None:
            assert got.norm in (-1, 1)
            continue
        assert (got.u, got.v, got.half) == want, d

