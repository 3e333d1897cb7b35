"""Finite additive systems and exhaustive verification of their axioms.

A system of dimension d lives over ground sets X_1, ..., X_d.  For each
subset S of {0..d-1} the ambient set X_S pairs the coordinates in S (axis
length s_i^2, pair (a, b) encoded a*s_i + b) and keeps the rest single.
The data is a membership mask C_S, a value table F_S with entries in an
F2-space A_S (bitmask integers), and the accepted part

    acc_S = C_S intersect {F_S = 0}.

Closure requires every member of C_S to specialize, in each paired
coordinate and via both projections, into acc_{S - {j}}.  The additivity
law requires F_S(x1) + F_S(x2) = F_S(x3) whenever the three agree outside
a paired coordinate j carrying (a,b), (b,c), (a,c) and all lie in C_S.

Everything is verified by total enumeration over dense numpy tables, and
the shrinking inequality

    |acc_{[d]}| / |X_{[d]}|  >=  delta^(2^d) * a^(-3^d)

is evaluated in exact rational arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from random import Random

import numpy as np

from .errors import ArgumentError, SystemFormatError

_MAX_VIOLATIONS = 1000
# Tables are int64 and values only ever meet by XOR, so a value below 2**63
# stays below it: 63 is the largest value dimension a system may carry.
_MAX_DIM = 63


def _mask_iter(mask: int):
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def subset_masks(n: int) -> list[int]:
    """All subset masks of {0..n-1} in (size, lexicographic) order."""
    out = []
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            m = 0
            for i in combo:
                m |= 1 << i
            out.append(m)
    return out


def _norm_value_dims(d: int, value_dims) -> tuple[int, ...]:
    """Normalize to a tuple indexed by subset mask."""
    if isinstance(value_dims, int):
        return (value_dims,) * (1 << d)
    out = [None] * (1 << d)
    for key, dim in value_dims.items():
        m = key if isinstance(key, int) else sum(1 << i for i in key)
        if not 0 <= m < len(out):
            raise ArgumentError(f"value_dims subset mask {m} out of range")
        out[m] = int(dim)
    if any(v is None for v in out):
        missing = [m for m, v in enumerate(out) if v is None]
        raise ArgumentError(f"value_dims missing subsets (masks {missing})")
    return tuple(out)


@dataclass
class AdditiveSystem:
    """Dense tables for one additive system; C masks may be mutated by tests,
    acc is always recomputed."""

    d: int
    sizes: tuple[int, ...]
    value_dims: tuple[int, ...]          # indexed by subset mask
    F: dict[int, np.ndarray]             # mask -> integer table
    C: dict[int, np.ndarray]             # mask -> boolean table
    c_empty_full: bool = True            # export flag: was C_() defaulted?

    def ambient_shape(self, s_mask: int) -> tuple[int, ...]:
        return tuple(s * s if s_mask & (1 << i) else s
                     for i, s in enumerate(self.sizes))

    def acc(self, s_mask: int) -> np.ndarray:
        return self.C[s_mask] & (self.F[s_mask] == 0)

    @property
    def max_space_size(self) -> int:
        return 1 << max(self.value_dims)


def _check_tables(sys: AdditiveSystem):
    for m in range(1 << sys.d):
        shape = sys.ambient_shape(m)
        if sys.F[m].shape != shape or sys.C[m].shape != shape:
            raise ArgumentError(f"table shape mismatch for subset mask {m}")


def derive_closure(d: int, sizes, F: dict[int, np.ndarray],
                   c_empty: np.ndarray | None = None) -> dict[int, np.ndarray]:
    """Largest C masks compatible with the closure condition, given C_()."""
    sizes = tuple(sizes)
    C: dict[int, np.ndarray] = {}
    acc: dict[int, np.ndarray] = {}
    for m in sorted(range(1 << d), key=lambda x: x.bit_count()):
        if m == 0:
            C[0] = (np.ones(F[0].shape, dtype=bool)
                    if c_empty is None else c_empty.astype(bool))
        else:
            cur = None
            for j in _mask_iter(m):
                s = sizes[j]
                idx = np.arange(s * s)
                sub = acc[m ^ (1 << j)]
                both = (np.take(sub, idx // s, axis=j)
                        & np.take(sub, idx % s, axis=j))
                cur = both if cur is None else cur & both
            C[m] = cur
        acc[m] = C[m] & (F[m] == 0)
    return C


def validate(sys: AdditiveSystem) -> tuple[bool, list]:
    """Exhaustive closure and additivity check.

    Violations are ("closure", subset, index) for a C member whose (j, y)
    specializations leave the accepted part, and ("additivity", subset, j,
    index_with_abc) for a failing applicable triple; index tuples address
    the ambient arrays, with the additivity index giving the context plus
    (a, b, c) in coordinate j.
    """
    _check_tables(sys)
    violations = []
    for m in range(1 << sys.d):
        C, F = sys.C[m], sys.F[m]
        for j in _mask_iter(m):
            s = sys.sizes[j]
            idx = np.arange(s * s)
            sub = sys.acc(m ^ (1 << j))
            ok = (np.take(sub, idx // s, axis=j)
                  & np.take(sub, idx % s, axis=j))
            bad = C & ~ok
            for w in np.argwhere(bad)[:_MAX_VIOLATIONS]:
                violations.append(("closure", m, tuple(int(t) for t in w)))
            # additivity along j: view the paired axis as (a, b)
            shape = list(C.shape)
            shape[j : j + 1] = [s, s]
            Cr = np.moveaxis(C.reshape(shape), (j, j + 1), (-2, -1))
            Fr = np.moveaxis(F.reshape(shape), (j, j + 1), (-2, -1))
            c_ab = Cr[..., :, :, None]
            c_bc = Cr[..., None, :, :]
            c_ac = Cr[..., :, None, :]
            f_ab = Fr[..., :, :, None]
            f_bc = Fr[..., None, :, :]
            f_ac = Fr[..., :, None, :]
            bad = c_ab & c_bc & c_ac & ((f_ab ^ f_bc) != f_ac)
            for w in np.argwhere(bad)[:_MAX_VIOLATIONS]:
                violations.append(("additivity", m, j, tuple(int(t) for t in w)))
    return not violations, violations


def density_empty(sys: AdditiveSystem) -> Fraction:
    """|acc_()| / |X| exactly."""
    total = reduce(lambda x, y: x * y, sys.sizes, 1)
    return Fraction(int(sys.acc(0).sum()), total)


def verify_shrinking(sys: AdditiveSystem) -> tuple[Fraction, Fraction, bool]:
    """(lhs, rhs, lhs >= rhs) for the density inequality; raises on an
    invalid system."""
    ok, violations = validate(sys)
    if not ok:
        raise ArgumentError(f"system fails validation: {violations[0]}")
    full = (1 << sys.d) - 1
    ambient = reduce(lambda x, y: x * y, (s * s for s in sys.sizes), 1)
    lhs = Fraction(int(sys.acc(full).sum()), ambient)
    delta = density_empty(sys)
    a = sys.max_space_size
    rhs = delta ** (2**sys.d) * Fraction(1, a ** (3**sys.d))
    return lhs, rhs, lhs >= rhs


def equivalence_structure(sys: AdditiveSystem, x) -> list[list[int]]:
    """Partition of V(x) = {a : (x, a) accepted at [d-1]} induced by
    W(x) = {(a, b) : (x, (a, b)) accepted at [d]}.

    x gives the paired coordinates (a_i, b_i) for i < d-1; the reflexivity,
    symmetry, and transitivity of W(x) are asserted and a failure names the
    axiom and witnesses (such a failure means the system is not additive).
    """
    if sys.d < 1:
        raise ArgumentError("equivalence_structure needs d >= 1")
    x = tuple(x)
    if len(x) != sys.d - 1:
        raise ArgumentError(f"context needs {sys.d - 1} paired coordinates")
    s = sys.sizes[-1]
    pre = tuple(int(a) * sys.sizes[i] + int(b) for i, (a, b) in enumerate(x))
    last_single = ((1 << sys.d) - 1) ^ (1 << (sys.d - 1))
    acc_sub = sys.acc(last_single)
    acc_full = sys.acc((1 << sys.d) - 1)
    V = [a for a in range(s) if acc_sub[pre + (a,)]]
    W = {(a, b) for a in V for b in V if acc_full[pre + (a * s + b,)]}
    for a in V:
        if (a, a) not in W:
            raise ArgumentError(f"reflexivity fails at {a}")
    for a, b in W:
        if (b, a) not in W:
            raise ArgumentError(f"symmetry fails at ({a}, {b})")
    for a, b in W:
        for c in V:
            if (b, c) in W and (a, c) not in W:
                raise ArgumentError(f"transitivity fails at ({a}, {b}, {c})")
    blocks: list[list[int]] = []
    seen: set[int] = set()
    for a in V:
        if a in seen:
            continue
        block = sorted(b for b in V if (a, b) in W)
        seen.update(block)
        blocks.append(block)
    return blocks


# -------------------------------------------------------------- generators

def _generator_shape(d: int, sizes, value_dims):
    """(sizes, dims by subset mask) for a generated system, refusing any
    shape that from_json would refuse in a document."""
    sizes = tuple(sizes)
    if d < 0 or len(sizes) != d:
        raise ArgumentError(f"d = {d} needs d >= 0 and d sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ArgumentError(f"every size must be >= 1, got {sizes}")
    dims = _norm_value_dims(d, value_dims)
    if any(not 0 <= v <= _MAX_DIM for v in dims):
        raise ArgumentError(f"every dimension must lie in [0, {_MAX_DIM}]")
    return sizes, dims


def zero_system(d: int, sizes, value_dims=1) -> AdditiveSystem:
    """All F tables zero, all C masks full; the everything-accepted system."""
    sizes, dims = _generator_shape(d, sizes, value_dims)
    sys = AdditiveSystem(d, sizes, dims, {}, {})
    for m in range(1 << d):
        sys.F[m] = np.zeros(sys.ambient_shape(m), dtype=np.int64)
    sys.C = derive_closure(d, sizes, sys.F)
    return sys


def random_bilinear_system(seed: int, d: int, sizes, value_dims) -> AdditiveSystem:
    """Reproducible valid system: each element of X_i gets a random label in
    F2^2, and every coordinate of F_S is a XOR of monomials taking one bit
    of the label difference delta_j = label(a_j) ^ label(b_j) for every
    j in S times a random function of the single coordinates.  Differences
    are additive along paths, so the additivity law holds identically;
    C masks are the closure-derived maxima.
    """
    sizes, dims = _generator_shape(d, sizes, value_dims)
    rng = Random(seed)
    m_bits = 2
    labels = [[rng.getrandbits(m_bits) for _ in range(s)] for s in sizes]
    sys = AdditiveSystem(d, sizes, dims, {}, {})
    for m in subset_masks(d):
        shape = sys.ambient_shape(m)
        table = np.zeros(shape, dtype=np.int64)
        if m == 0:
            flat = [rng.getrandbits(dims[0]) for _ in range(table.size)]
            table = np.array(flat, dtype=np.int64).reshape(shape)
        else:
            js = list(_mask_iter(m))
            single_shape = tuple(1 if i in js else s
                                 for i, s in enumerate(sizes))
            for t in range(dims[m]):
                bit = np.zeros(shape, dtype=np.int64)
                for beta in product(range(m_bits), repeat=len(js)):
                    term = np.ones(shape, dtype=np.int64)
                    for j, bj in zip(js, beta):
                        s = sizes[j]
                        dv = np.array(
                            [(labels[j][p // s] ^ labels[j][p % s]) >> bj & 1
                             for p in range(s * s)], dtype=np.int64)
                        sh = [1] * d
                        sh[j] = s * s
                        term = term * dv.reshape(sh)
                    coeff_flat = [rng.getrandbits(1)
                                  for _ in range(int(np.prod(single_shape)))]
                    coeff = np.array(coeff_flat, dtype=np.int64).reshape(single_shape)
                    bit ^= term * coeff
                table |= bit << t
        sys.F[m] = table
    sys.C = derive_closure(d, sizes, sys.F)
    return sys


# ------------------------------------------------------------------- JSON

def to_json(sys: AdditiveSystem) -> str:
    """Canonical byte-stable serialization; C masks are never stored (the
    empty-set mask is either the flagged default "full" or explicit bits,
    every other mask is closure-derived on import)."""
    masks = subset_masks(sys.d)
    doc = {
        "d": sys.d,
        "ground_sets": [list(range(s)) for s in sys.sizes],
        "value_dims": [{"subset": [i for i in range(sys.d) if m >> i & 1],
                        "dim": sys.value_dims[m]} for m in masks],
        "c_empty": "full" if sys.c_empty_full
                   else [int(v) for v in sys.C[0].reshape(-1)],
        "f_tables": [{"subset": [i for i in range(sys.d) if m >> i & 1],
                      "values": [int(v) for v in sys.F[m].reshape(-1)]}
                     for m in masks],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _format_error(loc: str, msg: str) -> SystemFormatError:
    return SystemFormatError(msg, location=loc)


def from_json(text: str) -> AdditiveSystem:
    """Parse a serialized system; raises SystemFormatError naming the
    offending location on malformed input."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _format_error("document", f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise _format_error("document", "top level must be an object")
    try:
        d = int(doc["d"])
        grounds = doc["ground_sets"]
    except (KeyError, TypeError, ValueError) as e:
        raise _format_error("document", f"missing or bad field: {e}") from None
    if not isinstance(grounds, list) or len(grounds) != d:
        raise _format_error("ground_sets", f"expected {d} ground sets")
    sizes = []
    for i, g in enumerate(grounds):
        if g != list(range(len(g))) or not g:
            raise _format_error(f"ground_sets[{i}]",
                                "ground set must be [0..s-1], s >= 1")
        sizes.append(len(g))
    sizes = tuple(sizes)
    masks = subset_masks(d)

    def read_subset_list(field, value_key):
        rows = doc.get(field)
        if not isinstance(rows, list) or len(rows) != len(masks):
            raise _format_error(field, f"expected {len(masks)} rows")
        out = {}
        for k, row in enumerate(rows):
            want = [i for i in range(d) if masks[k] >> i & 1]
            if not isinstance(row, dict) or row.get("subset") != want:
                raise _format_error(f"{field}[{k}]",
                                    f"expected subset {want} in (size, lex) order")
            out[masks[k]] = row.get(value_key)
        return out

    dims_rows = read_subset_list("value_dims", "dim")
    dims = []
    for m in range(1 << d):
        v = dims_rows[m]
        if not isinstance(v, int) or not 0 <= v <= _MAX_DIM:
            raise _format_error("value_dims", f"bad dimension for mask {m}")
        dims.append(v)
    sys = AdditiveSystem(d, sizes, tuple(dims), {}, {})
    tables = read_subset_list("f_tables", "values")
    for m in range(1 << d):
        shape = sys.ambient_shape(m)
        size = int(np.prod(shape)) if shape else 1
        vals = tables[m]
        if not isinstance(vals, list) or len(vals) != size:
            raise _format_error(f"f_tables (mask {m})",
                                f"expected {size} values")
        if any(not isinstance(v, int) or not 0 <= v < (1 << dims[m])
               for v in vals):
            raise _format_error(f"f_tables (mask {m})",
                                f"values must be integers in [0, 2^{dims[m]})")
        sys.F[m] = np.array(vals, dtype=np.int64).reshape(shape)
    ce = doc.get("c_empty")
    if ce == "full":
        c0 = None
        sys.c_empty_full = True
    elif isinstance(ce, list):
        if len(ce) != int(np.prod(sizes)) or any(v not in (0, 1) for v in ce):
            raise _format_error("c_empty", "expected 0/1 entries matching X")
        c0 = np.array(ce, dtype=bool).reshape(sizes)
        sys.c_empty_full = False
    else:
        raise _format_error("c_empty", 'expected "full" or a 0/1 list')
    sys.C = derive_closure(d, sizes, sys.F, c0)
    return sys
