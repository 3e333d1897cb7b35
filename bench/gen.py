"""Seeded input generator for the benchmark.

Inputs are built here from the standard library (an Euler-criterion Legendre
symbol, a Miller-Rabin test and a bytearray sieve) and, for the additive
documents only, from numpy integer tables.  Nothing here imports narrow2, so
a change to the program cannot change the inputs it is measured on.  The same
seed always gives the same item stream.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

# Moduli c for which find_ray_class_vector(c, (1, 1), 10**6) returns a vector
# in the program the goldens were recorded from (37, 61, 65, 85, 89, 97 and
# 145 exhaust there instead).
SEARCH_RAY_MODULI = (5, 13, 17, 29, 41, 53, 73, 221)

GRID_BAND = (1_000, 1_000_000)          # Holzer box <= 4M cells: grid scan
DESCENT_BAND = (5_000_000, 20_000_000)  # box > 4M cells: sympy descent
CERTIFY_BAND = (1_000, 10_000)
RAY_VECTOR_LIMIT = 1_000
RAY_MODULUS_PRIME_LIMIT = 100
SEARCH_FIRST_LIMIT = 1_000
SEARCH_POOL_SIZE = 3

# One block of certify items, shuffled per block: about a quarter ray items,
# and the median item falls inside the (1, 2, 2) class, not on a boundary.
CERTIFY_BLOCK = ("ray", "ray", (1, 1, 1), (1, 2, 2), (1, 2, 2), (1, 2, 2),
                 (2, 2, 2))
# One block of symbol items: two grid-band triples per descent-band triple.
SYMBOL_BLOCK = ("grid", "grid", "descent")
# One block of additive documents by ground-set sizes; one of the five is
# flipped.  The largest additivity tensor spans ~2e5 to ~1.3e7 cells.  The
# sizes are fixed because validation time grows like the cube of a size;
# the seed draws the tables and the order.
ADDITIVE_BLOCK = ((24, 28), (18, 20), (8, 7, 8), (6, 5, 7), (4, 5, 4, 4))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """(a|p) for an odd prime p, by Euler's criterion."""
    t = pow(a % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def primes_one_mod_four(limit: int) -> list[int]:
    """Primes p <= limit with p = 1 mod 4, by a bytearray sieve."""
    if limit < 5:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [p for p in range(5, limit + 1, 4) if flags[p]]


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of a small n, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _random_prime(rng: random.Random, lo: int, hi: int, avoid) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if p % 4 == 1 and p not in avoid and is_prime(p):
            return p


def _consistent_prime(rng, lo, hi, avoid, residues_of) -> int:
    """A fresh prime = 1 mod 4 that is a square modulo every prime in
    residues_of (symmetric, since every prime involved is 1 mod 4)."""
    while True:
        p = _random_prime(rng, lo, hi, avoid)
        if all(legendre(p, q) == 1 for q in residues_of):
            return p


def _blocks(rng: random.Random, block):
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


def symbol_items(seed: int):
    """Endless stream of (a, b, c, band): pairwise-consistent prime triples
    whose primes never repeat, so every pair builds its context cold."""
    rng = random.Random(f"symbols:{seed}")
    used: set[int] = set()
    for band in _blocks(rng, SYMBOL_BLOCK):
        lo, hi = GRID_BAND if band == "grid" else DESCENT_BAND
        a = _consistent_prime(rng, lo, hi, used, ())
        b = _consistent_prime(rng, lo, hi, used | {a}, (a,))
        c = _consistent_prime(rng, lo, hi, used | {a, b}, (a, b))
        used |= {a, b, c}
        yield a, b, c, band


def _consistent_vector(rng, profile):
    """Entries with the given prime counts; every cross Legendre symbol +1."""
    lo, hi = CERTIFY_BAND
    coords: list[list[int]] = []
    taken: set[int] = set()
    for k in profile:
        others = [p for coord in coords for p in coord]
        coord = []
        for _ in range(k):
            p = _consistent_prime(rng, lo, hi, taken, others)
            coord.append(p)
            taken.add(p)
        coords.append(sorted(coord))
    return tuple(_product(c) for c in coords), tuple(tuple(c) for c in coords)


def _product(ps) -> int:
    out = 1
    for p in ps:
        out *= p
    return out


def certify_items(seed: int):
    """Endless stream of ("maximal", entries, primes) and
    ("ray", entries, c) items in shuffled blocks of CERTIFY_BLOCK."""
    rng = random.Random(f"certify:{seed}")
    small = primes_one_mod_four(RAY_MODULUS_PRIME_LIMIT)
    vector_primes = [p for p in primes_one_mod_four(RAY_VECTOR_LIMIT)
                     if p > RAY_MODULUS_PRIME_LIMIT]
    for kind in _blocks(rng, CERTIFY_BLOCK):
        if kind == "ray":
            c = _product(rng.sample(small, rng.choice((1, 2))))
            yield ("ray", tuple(sorted(rng.sample(vector_primes, 2))), c)
        else:
            entries, primes = _consistent_vector(rng, kind)
            yield ("maximal", entries, primes)


def search_pool() -> list[tuple[tuple[int, int, int], int]]:
    """The search rounds: (first coordinate, ray modulus) pairs, drawn once
    from a fixed pool seed.

    Where a space growth stops depends on where its third prime lands (~1 in
    32768 candidates qualifies), so round times vary by ~45%.  A fixed pool
    that every run walks in full keeps runs with different seeds comparable;
    the seed sets the order.  The first pass builds the pair contexts, later
    passes find them cached and pay only the per-candidate screening.
    """
    rng = random.Random("search-pool")
    firsts = primes_one_mod_four(SEARCH_FIRST_LIMIT)
    moduli = rng.sample(SEARCH_RAY_MODULI, SEARCH_POOL_SIZE)
    return [(tuple(sorted(rng.sample(firsts, 3))), c) for c in moduli]


def search_items(seed: int):
    """Endless stream of search rounds: the pool in a seeded order, again
    and again (repeated rounds find their pair contexts cached)."""
    rng = random.Random(f"search:{seed}")
    yield from _blocks(rng, search_pool())


def subset_masks(d: int) -> list[int]:
    """Subset masks of {0..d-1} in (size, lexicographic) order."""
    return [sum(1 << i for i in combo)
            for k in range(d + 1) for combo in combinations(range(d), k)]


def bilinear_document(rng: random.Random, d: int, sizes, flip: bool) -> str:
    """Canonical JSON for a valid additive system built from bilinear forms.

    Every ground element gets a label in F2^2; F_S is a XOR of monomials
    taking one bit of delta_j = label(a_j) ^ label(b_j) for each paired
    coordinate j in S times a random function of the single coordinates, so
    the additivity law holds identically.  With flip set, one bit of a table
    over one paired coordinate is flipped at a cell whose specializations
    are accepted, which breaks additivity and makes validation fail.
    """
    import numpy as np

    labels = [np.array([rng.getrandbits(2) for _ in range(s)], dtype=np.int64)
              for s in sizes]
    masks = subset_masks(d)
    dims = {m: rng.choice((1, 2)) for m in masks}
    tables = {}
    for m in masks:
        shape = tuple(s * s if m >> i & 1 else s for i, s in enumerate(sizes))
        if m == 0:
            flat = [rng.getrandbits(dims[0]) for _ in range(_product(sizes))]
            tables[0] = np.array(flat, dtype=np.int64).reshape(shape)
            continue
        js = [j for j in range(d) if m >> j & 1]
        single_shape = tuple(1 if m >> i & 1 else s for i, s in enumerate(sizes))
        deltas = {}
        for j in js:
            s = sizes[j]
            diff = (labels[j][:, None] ^ labels[j][None, :]).reshape(-1)
            view = [1] * d
            view[j] = s * s
            deltas[j] = [(diff >> bit & 1).reshape(view) for bit in range(2)]
        table = np.zeros(shape, dtype=np.int64)
        for t in range(dims[m]):
            bit = np.zeros(shape, dtype=np.int64)
            for beta in range(1 << len(js)):
                term = np.ones(shape, dtype=np.int64)
                for k, j in enumerate(js):
                    term = term * deltas[j][beta >> k & 1]
                n = _product(single_shape)
                coeff = np.array([rng.getrandbits(1) for _ in range(n)],
                                 dtype=np.int64).reshape(single_shape)
                bit ^= term * coeff
            table |= bit << t
        tables[m] = table
    if flip:
        _flip_one(rng, d, sizes, tables)
    doc = {
        "d": d,
        "ground_sets": [list(range(s)) for s in sizes],
        "value_dims": [{"subset": [i for i in range(d) if m >> i & 1],
                        "dim": dims[m]} for m in masks],
        "c_empty": "full",
        "f_tables": [{"subset": [i for i in range(d) if m >> i & 1],
                      "values": tables[m].reshape(-1).tolist()}
                     for m in masks],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _flip_one(rng, d, sizes, tables):
    """Flip bit 0 of F_{j} at (x, (a, b)) with a != b, where the single
    coordinates x put both (x, a) and (x, b) in the accepted part of the
    empty subset.  The triple ((a, b), (b, a), (a, a)) is then applicable
    and F(a, b) ^ F(b, a) != F(a, a) after the flip."""
    f0 = tables[0]
    while True:
        j = rng.randrange(d)
        s = sizes[j]
        x = [rng.randrange(t) for t in sizes]
        a, b = rng.sample(range(s), 2)
        xa, xb = list(x), list(x)
        xa[j], xb[j] = a, b
        if f0[tuple(xa)] == 0 and f0[tuple(xb)] == 0:
            break
    x[j] = a * s + b
    tables[1 << j][tuple(x)] ^= 1


def additive_items(seed: int):
    """Endless stream of (d, sizes, flipped, document) in shuffled blocks of
    ADDITIVE_BLOCK, with exactly one flipped document per block."""
    rng = random.Random(f"additive:{seed}")
    while True:
        block = list(ADDITIVE_BLOCK)
        rng.shuffle(block)
        flipped = rng.randrange(len(block))
        for i, sizes in enumerate(block):
            yield len(sizes), sizes, i == flipped, bilinear_document(
                rng, len(sizes), sizes, i == flipped)


def warmup_items(workload: str, seed) -> list:
    """Set-up items, drawn apart from the measured stream: one item of each
    kind the workload runs, so that lazy imports and first-call costs (such
    as sympy's descent solver or the prime sieves) land in set-up."""
    rng = random.Random(f"warmup:{workload}:{seed}")
    if workload == "symbols":
        used: set[int] = set()
        out = []
        for band in ("grid", "descent"):
            lo, hi = GRID_BAND if band == "grid" else DESCENT_BAND
            a = _consistent_prime(rng, lo, hi, used, ())
            b = _consistent_prime(rng, lo, hi, used | {a}, (a,))
            c = _consistent_prime(rng, lo, hi, used | {a, b}, (a, b))
            used |= {a, b, c}
            out.append((a, b, c, band))
        return out
    if workload == "certify":
        entries, primes = _consistent_vector(rng, (1, 1, 1))
        vector_primes = [p for p in primes_one_mod_four(RAY_VECTOR_LIMIT)
                         if p > RAY_MODULUS_PRIME_LIMIT]
        return [("ray", tuple(sorted(rng.sample(vector_primes, 2))), 5),
                ("maximal", entries, primes)]
    if workload == "search":
        return [(rng.choice(primes_one_mod_four(SEARCH_FIRST_LIMIT)),)]
    if workload == "additive":
        return [(2, (4, 4), False, bilinear_document(rng, 2, (4, 4), False))]
    raise ValueError(f"unknown workload {workload!r}")


BLOCK_SIZES = {
    "symbols": len(SYMBOL_BLOCK),
    "certify": len(CERTIFY_BLOCK),
    "search": SEARCH_POOL_SIZE,
    "additive": len(ADDITIVE_BLOCK),
}

STREAMS = {
    "symbols": symbol_items,
    "certify": certify_items,
    "search": search_items,
    "additive": additive_items,
}
