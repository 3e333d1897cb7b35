"""Tests for finite additive systems: validation, densities, the shrinking
inequality, equivalence partitions, and the JSON format."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from narrow2.additive import (
    AdditiveSystem,
    density_empty,
    derive_closure,
    equivalence_structure,
    from_json,
    random_bilinear_system,
    subset_masks,
    to_json,
    validate,
    verify_shrinking,
    zero_system,
)
from narrow2.errors import ArgumentError, SystemFormatError


def test_subset_masks_size_lex_order():
    assert subset_masks(3) == [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    assert subset_masks(0) == [0]


@pytest.mark.parametrize("make", [
    lambda d, sizes, dims: zero_system(d, sizes, dims),
    lambda d, sizes, dims: random_bilinear_system(0, d, sizes, dims),
], ids=["zero", "random"])
@pytest.mark.parametrize("d,sizes,dims", [
    (2, (3,), 1),
    (-1, (), 1),
    (1, (0,), 1),            # from_json refuses an empty ground set
    (1, (3,), -1),
    (1, (3,), 64),           # int64 tables hold at most 63 bits
    (1, (3,), {0: 1, 1: 64}),
    (1, (3,), {0: 1, 5: 1}),
], ids=["too-few-sizes", "negative-d", "empty-ground-set", "negative-dim",
        "dim-64", "dim-64-by-subset", "mask-out-of-range"])
def test_generators_refuse_bad_shapes(make, d, sizes, dims):
    with pytest.raises(ArgumentError):
        make(d, sizes, dims)


def test_generators_accept_largest_dimension():
    sys = random_bilinear_system(0, 1, (2,), 63)
    assert from_json(to_json(sys)).value_dims == (63, 63)


def test_zero_system_validates():
    sys = zero_system(2, (3, 4))
    ok, violations = validate(sys)
    assert ok and violations == []
    assert density_empty(sys) == 1
    lhs, rhs, holds = verify_shrinking(sys)
    assert lhs == 1 and holds
    assert rhs == Fraction(1, 2**9)


def test_zero_system_every_mask_full():
    sys = zero_system(3, (2, 3, 2))
    for m in range(8):
        assert sys.C[m].all()
        assert sys.acc(m).all()


@pytest.mark.parametrize("seed", range(40))
def test_random_systems_validate(seed):
    sizes = [(3,), (2, 3), (4, 2, 3)][seed % 3]
    sys = random_bilinear_system(seed, len(sizes), sizes, 2)
    ok, violations = validate(sys)
    assert ok, violations


@pytest.mark.parametrize("seed", range(25))
def test_shrinking_holds_on_random_systems(seed):
    sys = random_bilinear_system(seed, 2, (3, 3), {0: 2, 1: 1, 2: 1, 3: 2})
    lhs, rhs, holds = verify_shrinking(sys)
    assert holds
    assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)


def test_random_system_reproducible():
    a = random_bilinear_system(99, 2, (3, 4), 2)
    b = random_bilinear_system(99, 2, (3, 4), 2)
    for m in range(4):
        assert np.array_equal(a.F[m], b.F[m])
        assert np.array_equal(a.C[m], b.C[m])
    assert to_json(a) == to_json(b)


def test_random_system_seed_changes_tables():
    a = random_bilinear_system(1, 2, (4, 4), 2)
    b = random_bilinear_system(2, 2, (4, 4), 2)
    assert any(not np.array_equal(a.F[m], b.F[m]) for m in range(4))


def test_diagonal_vanishes_on_paired_masks():
    sys = random_bilinear_system(7, 3, (3, 2, 4), 2)
    for m in range(1, 8):
        F = sys.F[m]
        for j in range(3):
            if not m >> j & 1:
                continue
            s = sys.sizes[j]
            diag = np.take(F, [a * s + a for a in range(s)], axis=j)
            assert not diag.any()


def test_mutated_value_breaks_additivity():
    sys = zero_system(2, (3, 3))
    # flip the full-mask table at a doubly diagonal point: the triple
    # (x, x, x) then needs F + F = F with F odd
    sys.F[3][4, 4] = 1
    ok, violations = validate(sys)
    assert not ok
    assert any(v[0] == "additivity" and v[1] == 3 for v in violations)


def test_mutated_empty_value_breaks_closure():
    sys = zero_system(2, (3, 3))
    sys.F[0][1, 1] = 1
    ok, violations = validate(sys)
    assert not ok
    kinds = {(v[0], v[1]) for v in violations}
    assert ("closure", 1) in kinds and ("closure", 2) in kinds


def test_violation_is_located():
    sys = zero_system(1, (4,))
    sys.F[0][2] = 1
    ok, violations = validate(sys)
    assert not ok
    # every stale C member pairing coordinate value 2 is named
    located = {v[2] for v in violations if v[0] == "closure"}
    assert (2 * 4 + 0,) in located and (1 * 4 + 2,) in located


def test_density_matches_brute_count():
    sys = random_bilinear_system(11, 2, (3, 4), 2)
    brute = sum(1 for i, j in product(range(3), range(4))
                if sys.C[0][i, j] and sys.F[0][i, j] == 0)
    assert density_empty(sys) == Fraction(brute, 12)


def test_shrinking_lhs_matches_brute_count():
    sys = random_bilinear_system(5, 2, (3, 3), 1)
    lhs, _, _ = verify_shrinking(sys)
    brute = int((sys.C[3] & (sys.F[3] == 0)).sum())
    assert lhs == Fraction(brute, 81)


def test_shrinking_rejects_invalid_system():
    sys = zero_system(2, (2, 2))
    sys.F[0][0, 0] = 1
    with pytest.raises(ArgumentError):
        verify_shrinking(sys)


def test_dimension_zero_is_exact_equality():
    sys = random_bilinear_system(3, 0, (), {0: 0})
    lhs, rhs, holds = verify_shrinking(sys)
    assert holds and lhs == rhs == 1


def test_hand_built_difference_table():
    # d = 1, |X| = 2, F(a, b) = a xor b; pair index a*2 + b
    sys = AdditiveSystem(1, (2,), (1, 1), {}, {})
    sys.F[0] = np.zeros((2,), dtype=np.int64)
    sys.F[1] = np.array([0, 1, 1, 0], dtype=np.int64)
    sys.C = derive_closure(1, (2,), sys.F)
    ok, violations = validate(sys)
    assert ok, violations
    assert equivalence_structure(sys, ()) == [[0], [1]]
    lhs, rhs, holds = verify_shrinking(sys)
    assert lhs == Fraction(2, 4) and holds


def test_hand_built_non_additive_table():
    sys = AdditiveSystem(1, (2,), (1, 1), {}, {})
    sys.F[0] = np.zeros((2,), dtype=np.int64)
    sys.F[1] = np.array([0, 1, 0, 0], dtype=np.int64)
    sys.C = derive_closure(1, (2,), sys.F)
    ok, violations = validate(sys)
    assert not ok
    assert any(v[0] == "additivity" for v in violations)


def test_equivalence_partition_on_random_systems():
    for seed in range(8):
        sys = random_bilinear_system(seed, 2, (3, 4), 1)
        acc_full = sys.acc(3)
        for a, b in product(range(3), repeat=2):
            blocks = equivalence_structure(sys, ((a, b),))
            flat = sorted(x for blk in blocks for x in blk)
            assert len(flat) == len(set(flat))
            # block sizes recount the accepted pairs over this context
            pair_count = int(acc_full[a * 3 + b].sum())
            assert sum(len(blk) ** 2 for blk in blocks) == pair_count


def test_equivalence_detects_broken_symmetry():
    sys = AdditiveSystem(1, (2,), (1, 1), {}, {})
    sys.F[0] = np.zeros((2,), dtype=np.int64)
    sys.F[1] = np.array([0, 1, 1, 0], dtype=np.int64)
    sys.C = derive_closure(1, (2,), sys.F)
    sys.F[1] = np.array([0, 1, 0, 0], dtype=np.int64)
    with pytest.raises(ArgumentError, match="symmetry"):
        equivalence_structure(sys, ())


def test_equivalence_context_length_checked():
    sys = zero_system(2, (2, 2))
    with pytest.raises(ArgumentError):
        equivalence_structure(sys, ())
    with pytest.raises(ArgumentError):
        equivalence_structure(zero_system(0, ()), ())


def test_json_roundtrip_identity():
    sys = random_bilinear_system(21, 3, (2, 3, 2), {m: m.bit_count() for m in range(8)})
    text = to_json(sys)
    back = from_json(text)
    assert to_json(back) == text
    for m in range(8):
        assert np.array_equal(back.F[m], sys.F[m])
        assert np.array_equal(back.C[m], sys.C[m])
    assert back.value_dims == sys.value_dims


def test_json_explicit_c_empty():
    sys = zero_system(1, (3,))
    sys.C = derive_closure(1, (3,), sys.F,
                           np.array([True, False, True]))
    sys.c_empty_full = False
    text = to_json(sys)
    assert '"c_empty":[1,0,1]' in text
    back = from_json(text)
    assert np.array_equal(back.C[0], sys.C[0])
    assert not back.C[1][1 * 3 + 1]


def test_json_default_c_empty_flagged():
    assert '"c_empty":"full"' in to_json(zero_system(1, (2,)))


def test_json_subset_order_is_size_then_lex():
    sys = zero_system(3, (2, 2, 2))
    doc = to_json(sys)
    import json as _json

    rows = _json.loads(doc)["f_tables"]
    assert [r["subset"] for r in rows] == [
        [], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]


@pytest.mark.parametrize("mangle,loc", [
    (lambda d: "not json", "document"),
    (lambda d: d.replace('"d":3', '"d":9'), "ground_sets"),
    (lambda d: d.replace('"ground_sets":[[0,1]', '"ground_sets":[[0,2]'),
     "ground_sets[0]"),
    (lambda d: d.replace('"dim":1', '"dim":-1', 1), "value_dims"),
    pytest.param(lambda d: d.replace('"dim":1', '"dim":64', 1)
                 .replace('"values":[0,', f'"values":[{2**63},', 1),
                 "value_dims", id="dim-above-int64"),
    (lambda d: d.replace('"c_empty":"full"', '"c_empty":"half"'), "c_empty"),
])
def test_json_malformed_inputs(mangle, loc):
    text = to_json(zero_system(3, (2, 2, 2)))
    with pytest.raises(SystemFormatError) as info:
        from_json(mangle(text))
    assert info.value.location.startswith(loc)


def test_json_wrong_table_length():
    text = to_json(zero_system(1, (2,)))
    bad = text.replace('"values":[0,0,0,0]', '"values":[0,0,0]')
    with pytest.raises(SystemFormatError, match="expected 4 values"):
        from_json(bad)


def test_json_value_out_of_range():
    text = to_json(zero_system(1, (2,)))
    bad = text.replace('"values":[0,0,0,0]', '"values":[0,2,0,0]')
    with pytest.raises(SystemFormatError):
        from_json(bad)
