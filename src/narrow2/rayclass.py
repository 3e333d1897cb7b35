"""Ray-class 2-torsion predictions and the unit-reduction check behind them.

For a vector (a_1, ..., a_n) and an odd squarefree modulus c coprime to it,
the predicted 2-torsion dimension of the ray class group mod c exceeds the
narrow prediction by exactly 2^n * omega(c).  The surplus counts the cyclic
factors of (O_K/c)^* when every prime of c splits completely, and it is only
attained when the global units vanish in ((O_K/c)^*)^2.  That last statement
is tested here literally, at the level the artifact can reach: the subgroup
of O_K^* generated by -1 and the fundamental units of all quadratic
subfields Q(sqrt(d)).  For n = 1 this is the full unit group modulo torsion;
for n >= 2 it is a necessary condition and every report says so.

An emitted GP script provides the external oracle for both ranks; the
artifact never executes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

from .arith import _legendre_unchecked, _pqa_unit, _sqrt_mod_unchecked
from .errors import UnsupportedDimensionError
from .maximality import (
    AcceptableVector,
    MaximalityReport,
    _modulus_primes,
    _ray_bound,
    is_maximal,
    parse_acceptable,
    ray_class_bound,
    torsion_bound,
)

_SCOPE_FULL = "full unit group modulo torsion"
_SCOPE_SUBGROUP = ("subgroup generated by quadratic-subfield units"
                   " (necessary condition only)")


def _coerce(v) -> AcceptableVector:
    return v if isinstance(v, AcceptableVector) else parse_acceptable(tuple(v))


@dataclass(frozen=True)
class UnitReductionReport:
    """Per-(d, l) outcome of reducing subfield units modulo the primes of c.

    rows hold (d, l, split, unit_is_square) with d = -1 covering the torsion
    unit; subfield_list are the 2^n - 1 products of nonempty entry subsets,
    in (size, lexicographic) order of the subsets.
    """

    c: int
    subfield_list: tuple[int, ...]
    rows: tuple[tuple[int, int, bool, bool], ...]
    scope: str

    @property
    def verdict(self) -> bool:
        return all(split and square for _, _, split, square in self.rows)


def _unit_square_at(d: int, l: int, s: int) -> bool:
    """Is the fundamental unit of Q(sqrt(d)) a square in F_l, embedding
    sqrt(d) at s?  The unit is reduced mod l along its expansion and never
    built exactly; it cannot vanish mod l because its norm is +-1."""
    g, b, q0 = _pqa_unit(d, l)
    return _legendre_unchecked((g + b * s) * pow(q0, -1, l), l) == 1


def _unit_rows(v: AcceptableVector, c: int,
               moduli: tuple[int, ...]) -> UnitReductionReport:
    """verify_unit_reduction for the checked primes of c; trusts that each
    is a prime 1 mod 4 and every subfield d a squarefree product."""
    subfields = tuple(prod(combo) for k in range(1, v.n + 1)
                      for combo in combinations(v.entries, k))
    rows = []
    for d in (-1,) + subfields:
        for l in moduli:
            split = _legendre_unchecked(d, l) == 1
            square = split and (d == -1 or _unit_square_at(
                d, l, _sqrt_mod_unchecked(d, l)))
            rows.append((d, l, split, square))
    scope = _SCOPE_FULL if v.n == 1 else _SCOPE_SUBGROUP
    return UnitReductionReport(c, subfields, tuple(rows), scope)


def verify_unit_reduction(v, c: int) -> UnitReductionReport:
    """Check that every tested unit reduces into the squares mod each prime
    of c, recording the complete-splitting condition alongside.

    A non-split prime is recorded, not raised; it makes the verdict false.
    """
    v = _coerce(v)
    c = int(c)
    return _unit_rows(v, c, _modulus_primes(v, c))


def predicted_ray_dimension(v, c: int) -> int:
    """Narrow bound plus 2^n * omega(c); an upper bound always, an equality
    only for certified vectors with a passing unit report."""
    return ray_class_bound(_coerce(v), int(c))


@dataclass(frozen=True)
class RayClassPrediction:
    vector: AcceptableVector
    c: int
    bound: int
    maximal: MaximalityReport
    units: UnitReductionReport
    attained: bool


def ray_class_report(v, c: int) -> RayClassPrediction:
    """Bundle the bound with both certificates; attained means the bound is
    predicted to be an equality."""
    v = _coerce(v)
    c = int(c)
    maximal = is_maximal(v)  # first: an unsupported dimension outranks a bad c
    moduli = _modulus_primes(v, c)
    units = _unit_rows(v, c, moduli)
    return RayClassPrediction(v, c, _ray_bound(v, moduli), maximal, units,
                              maximal.verdict and units.verdict)


def emit_gp_script(v, c: int = 1, out=None) -> str:
    """Plain-text PARI/GP script computing the narrow 2-torsion rank of the
    multiquadratic field of v and, for c > 1, the 2-torsion rank of its ray
    class group mod c, each as one RANK print, followed by one
    "EXPECTED <name> <value>" line per prediction.

    The script is deterministic, uses LF line endings, and writes nothing;
    it exists to be diffed against an external CAS run.
    """
    v = _coerce(v)
    c = int(c)
    if v.n > 3:
        raise UnsupportedDimensionError("no certifier exists above three entries")
    moduli = _modulus_primes(v, c)
    lines = [
        f"\\\\ 2-torsion oracle for vector {v.entries}, modulus {c}",
        "\\\\ prints RANK lines to diff against the EXPECTED lines below",
        f"pol = x^2 - {v.entries[0]};",
    ]
    for a in v.entries[1:]:
        lines.append(f"pol = polcompositum(pol, x^2 - {a})[1];")
    lines += [
        "bnf = bnfinit(pol, 1);",
        "cyc = bnfnarrow(bnf)[2];",
        'print("RANK narrow ", #select(t -> t % 2 == 0, cyc));',
    ]
    if c > 1:
        lines += [
            f"bnr = bnrinit(bnf, {c});",
            "rcyc = bnr.clgp.cyc;",
            'print("RANK ray ", #select(t -> t % 2 == 0, rcyc));',
        ]
    lines.append(f'print("EXPECTED narrow {torsion_bound(v)}");')
    if c > 1:
        lines.append(f'print("EXPECTED ray {_ray_bound(v, moduli)}");')
    text = "\n".join(lines) + "\n"
    if out is not None:
        out.write(text)
    return text
