"""Tests for acceptable vectors, bound formulas, and the maximality decision."""

from itertools import permutations

import pytest

from narrow2 import arith, maximality, redei
from narrow2.errors import (
    AcceptabilityError,
    ArgumentError,
    ConsistencyError,
    UnsupportedDimensionError,
)
from narrow2.maximality import (
    AcceptableVector,
    MaximalityReport,
    is_maximal,
    is_strongly_quadratically_consistent,
    parse_acceptable,
    ray_class_bound,
    torsion_bound,
)

# frozen by a scan over consistent prime triples below 600
MAXIMAL_TRIPLES = [(5, 29, 109), (5, 29, 149), (5, 29, 281)]
NONMAXIMAL_CONSISTENT = (5, 29, 181)


# ----------------------------------------------------------------- parsing

def test_parse_accepts_and_factors():
    v = parse_acceptable((5, 13))
    assert v.entries == (5, 13)
    assert v.factorizations == ((5,), (13,))
    assert v.n == 2 and v.omega_total == 2
    assert parse_acceptable((65,)).factorizations == ((5, 13),)


def test_parse_rejections_name_entry():
    with pytest.raises(AcceptabilityError, match="10"):
        parse_acceptable((5, 10))
    with pytest.raises(AcceptabilityError, match="15"):
        parse_acceptable((15, 7))
    with pytest.raises(AcceptabilityError, match="50"):
        parse_acceptable((50, 13))
    with pytest.raises(AcceptabilityError, match="share"):
        parse_acceptable((65, 13))
    with pytest.raises(AcceptabilityError):
        parse_acceptable((1, 13))
    with pytest.raises(ArgumentError):
        parse_acceptable(())


def test_vector_rejects_invalid_factorizations():
    with pytest.raises(AcceptabilityError):
        AcceptableVector((65,), ((5, 17),))  # product is not the entry
    with pytest.raises(AcceptabilityError):
        AcceptableVector((325,), ((13, 25),))  # composite factor
    with pytest.raises(AcceptabilityError):
        AcceptableVector((91,), ((7, 13),))  # 7 is 3 mod 4
    with pytest.raises(AcceptabilityError, match="share the factor 13"):
        AcceptableVector((65, 13), ((5, 13), (13,)))
    assert AcceptableVector((65, 17), ((5, 13), (17,))) == parse_acceptable((65, 17))


# ------------------------------------------------------------------ bounds

@pytest.mark.parametrize("entries,expect", [
    ((65,), 1),           # n=1, omega=2 -> 2*1 - 2 + 1
    ((5,), 0),            # prime discriminant
    ((5, 29, 109), 5),    # n=3, omega=3 -> 3*4 - 8 + 1
    ((5, 13), 1),         # n=2, omega=2 -> 2*2 - 4 + 1
    ((5 * 13, 17, 29), 9),   # n=3, omega=4 -> 4*4 - 8 + 1
])
def test_torsion_bound(entries, expect):
    assert torsion_bound(parse_acceptable(entries)) == expect


def test_torsion_bound_omega_six_n_three():
    v = parse_acceptable((5 * 29, 13 * 53, 17 * 61))
    assert v.omega_total == 6
    assert torsion_bound(v) == 6 * 4 - 8 + 1


def test_torsion_bound_matches_gauss_for_n1():
    for a in (5, 65, 5 * 13 * 17):
        v = parse_acceptable((a,))
        assert torsion_bound(v) == v.omega_total - 1


def test_ray_class_bound():
    assert ray_class_bound(parse_acceptable((13 * 17,)), 5) == 1 + 2
    v3 = parse_acceptable((5 * 29, 13 * 53, 17 * 61))
    assert ray_class_bound(v3, 73 * 89) == 6 * 4 - 7 + 8 * 2
    assert ray_class_bound(v3, 1) == torsion_bound(v3)
    with pytest.raises(ArgumentError):
        ray_class_bound(parse_acceptable((65,)), 13)
    with pytest.raises(AcceptabilityError):
        ray_class_bound(parse_acceptable((65,)), 21)


# ------------------------------------------------------------- consistency

def test_consistency_verdicts():
    ok, w = is_strongly_quadratically_consistent(parse_acceptable((13, 17)))
    assert ok and w == []
    ok, w = is_strongly_quadratically_consistent(parse_acceptable((5, 13)))
    assert not ok and w == [(5, 13)]
    ok, w = is_strongly_quadratically_consistent(parse_acceptable((65,)))
    assert ok  # single entry: no pairs


# -------------------------------------------------------------- maximality

def test_maximal_n1_always():
    for a in (5, 65, 5 * 13):
        rep = is_maximal(parse_acceptable((a,)))
        assert rep.verdict and rep.failed_conditions == ()


def test_maximal_n2_is_consistency():
    rep = is_maximal(parse_acceptable((13, 17)))
    assert rep.verdict and rep.bound == 1
    rep = is_maximal(parse_acceptable((5, 13)))
    assert not rep.verdict
    assert rep.failed_conditions == (("legendre", (5, 13)),)


@pytest.mark.parametrize("triple", MAXIMAL_TRIPLES)
def test_maximal_triples(triple):
    rep = is_maximal(parse_acceptable(triple))
    assert rep.verdict and rep.bound == 5 and rep.omega_total == 3


def test_nonmaximal_consistent_triple_transcript():
    rep = is_maximal(parse_acceptable(NONMAXIMAL_CONSISTENT))
    assert not rep.verdict
    assert rep.failed_conditions == (
        ("redei", (5, 29, 181)),
        ("redei", (29, 5, 181)),
        ("redei", (181, 5, 29)))


def test_maximality_permutation_invariant():
    for perm in permutations(MAXIMAL_TRIPLES[0]):
        assert is_maximal(parse_acceptable(perm)).verdict
    for perm in permutations(NONMAXIMAL_CONSISTENT):
        assert not is_maximal(parse_acceptable(perm)).verdict


def test_maximality_projection_monotone():
    a1, a2, a3 = MAXIMAL_TRIPLES[0]
    for sub in [(a1,), (a2,), (a3,), (a1, a2), (a1, a3), (a2, a3)]:
        assert is_maximal(parse_acceptable(sub)).verdict


def test_maximality_entry_merge():
    a1, a2, a3 = MAXIMAL_TRIPLES[0]
    rep = is_maximal(parse_acceptable((a1 * a2, a3)))
    assert rep.verdict
    assert rep.bound == 3 * 2 - 4 + 1


def test_maximal_trusts_parsed_factorizations(monkeypatch):
    v = parse_acceptable((65, 1769, 30030601))  # profile (2, 2, 2)
    calls = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize",
                        lambda n: calls.append(n) or factorize(n))
    redei._context_cache.cache_clear()
    assert is_maximal(v).verdict
    assert calls == []


def test_maximal_takes_one_solution_per_pair(monkeypatch):
    v = parse_acceptable((65, 1769, 30030601))  # profile (2, 2, 2)
    pairs, advanced = set(), []
    symbol, stream = maximality._symbol, redei._ternary_stream

    def counted_symbol(a, b, pc):
        pairs.add((a, b))
        return symbol(a, b, pc)

    def counted_stream(a, b):
        for sol in stream(a, b):
            advanced.append((a, b))
            yield sol

    monkeypatch.setattr(maximality, "_symbol", counted_symbol)
    monkeypatch.setattr(redei, "_ternary_stream", counted_stream)
    redei._context_cache.cache_clear()
    assert is_maximal(v).verdict
    assert len(pairs) == 12
    assert redei._context_cache.cache_info().misses == len(pairs)
    assert sorted(advanced) == sorted(pairs)


def test_maximality_dimension_errors():
    with pytest.raises(UnsupportedDimensionError):
        is_maximal(parse_acceptable((5, 29, 109, 113)))
    with pytest.raises(ArgumentError):
        is_maximal(AcceptableVector((), ()))


def test_inconsistent_triple_skips_redei_conditions():
    rep = is_maximal(parse_acceptable((5, 13, 29)))
    assert not rep.verdict
    assert all(kind == "legendre" for kind, _ in rep.failed_conditions)


def test_report_verdict_must_match_conditions():
    with pytest.raises(ConsistencyError):
        MaximalityReport(True, 3, 3, 1, (("redei", (5, 29, 181)),))
    with pytest.raises(ConsistencyError):
        MaximalityReport(False, 3, 3, 1, ())
