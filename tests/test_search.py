"""Tests for space construction, maximal-vector enumeration, and the
ray-class vector search."""

import pytest

from narrow2 import search
from narrow2.arith import legendre, primes_one_mod_four
from narrow2.errors import (
    AcceptabilityError,
    ArgumentError,
    ConsistencyError,
    SearchExhaustedError,
    UnsupportedDimensionError,
)
from narrow2.maximality import is_maximal, parse_acceptable, torsion_bound
from narrow2.search import (
    OmegaProfile,
    RedeiSpace,
    _candidate_levels,
    build_space,
    empty_space,
    enumerate_maximal_vectors,
    extend_space,
    find_ray_class_vector,
    verify_space,
)


class TestOmegaProfile:
    def test_coercion(self):
        assert OmegaProfile.of(2).parts == (2,)
        assert OmegaProfile.of([1, 2]).parts == (1, 2)
        p = OmegaProfile((1, 1, 1))
        assert OmegaProfile.of(p) is p
        assert p.n == 3

    def test_rejects_zero_part(self):
        with pytest.raises(ArgumentError):
            OmegaProfile((1, 0))


class TestRedeiSpace:
    def test_structural_validation(self):
        with pytest.raises(ArgumentError):
            RedeiSpace(((5, 13), (13,)))
        with pytest.raises(ArgumentError):
            RedeiSpace(((7,),))
        with pytest.raises(ArgumentError):
            RedeiSpace(((25,),))

    def test_verify_space_catches_bad_pair(self):
        # legendre(5, 13) = -1, structurally fine but conditions fail
        assert not verify_space(RedeiSpace(((5,), (13,))))
        assert verify_space(RedeiSpace(((5,), (29,))))

    def test_primes_flattening(self):
        s = RedeiSpace(((5, 13), (29,)))
        assert s.primes == (5, 13, 29)
        assert s.m == 2


class TestExtendSpace:
    def test_first_coordinate_is_plain_sieve(self):
        s = extend_space(empty_space(), 3, 100)
        assert s.sets == ((5, 13, 17),)
        assert s.certificate == ()

    def test_second_coordinate_filters_by_legendre(self):
        s = extend_space(RedeiSpace(((13,),)), 3, 100)
        assert s.sets[1] == (17, 29, 53)
        assert ("legendre", (17, 13)) in s.certificate

    def test_third_coordinate_passes_maximality(self):
        s = build_space(3, 1, 10**6)
        p, q, z = (coord[0] for coord in s.sets)
        report = is_maximal(parse_acceptable((p, q, z)))
        assert report.verdict
        assert any(entry[0] == "redei" for entry in s.certificate)

    def test_exhaustion_reports_found_count(self):
        with pytest.raises(SearchExhaustedError) as info:
            extend_space(empty_space(), 100, 30)
        assert info.value.found == 4  # 5, 13, 17, 29

    def test_inconsistent_space_is_rejected_up_front(self):
        with pytest.raises(ConsistencyError) as info:
            extend_space(RedeiSpace(((5,), (13,))), 1, 1000)
        assert info.value.witnesses == [(5, 13)]

    @pytest.mark.parametrize("limit", [100, 4096, 8192, 10**5])
    def test_candidate_blocks_cover_the_sieve(self, limit):
        assert (sum(_candidate_levels(limit), [])
                == primes_one_mod_four(limit).tolist())

    def test_walk_stops_at_the_last_hit(self, monkeypatch):
        calls = []
        legendre_unchecked = search._legendre_unchecked
        monkeypatch.setattr(
            search, "_legendre_unchecked",
            lambda a, p: calls.append(a) or legendre_unchecked(a, p))
        s = extend_space(RedeiSpace(((5,),)), 1, 10**5)
        assert s.sets == ((5,), (29,))
        assert calls == [5, 13, 17, 29]

    def test_count_must_be_positive(self):
        with pytest.raises(ArgumentError):
            extend_space(empty_space(), 0, 100)

    def test_worker_count_does_not_change_output(self):
        one = build_space(2, 3, 10**5, worker_count=1)
        four = build_space(2, 3, 10**5, worker_count=4)
        assert one.sets == four.sets
        assert one.certificate == four.certificate


class TestBuildSpace:
    def test_smallest_triple(self):
        s = build_space(3, 1, 10**6)
        assert s.sets == ((5,), (29,), (109,))
        assert verify_space(s)

    def test_rejects_m_zero(self):
        with pytest.raises(ArgumentError):
            build_space(0, 3, 100)

    def test_exhaustion_propagates(self):
        with pytest.raises(SearchExhaustedError):
            build_space(1, 100, 30)


class TestEnumerate:
    def test_unit_profile_pool_two(self):
        vecs = enumerate_maximal_vectors((1, 1, 1), 2, 10**7)
        assert len(vecs) == 8
        space = build_space(3, 2, 10**7)
        for v in vecs:
            assert v == parse_acceptable(v.entries)
            for entry, coord in zip(v.entries, space.sets):
                assert entry in coord

    def test_every_vector_and_projection_maximal(self):
        vecs = enumerate_maximal_vectors((1, 1, 1), 2, 10**7)
        v = vecs[0]
        assert is_maximal(v).verdict
        assert torsion_bound(v) == 5
        for keep in ((0, 1), (0, 2), (1, 2), (0,), (2,)):
            sub = parse_acceptable(tuple(v.entries[i] for i in keep))
            assert is_maximal(sub).verdict

    def test_composite_profile_reaches_bound_17(self):
        vecs = enumerate_maximal_vectors((2, 2, 2), 1, 10**7)
        assert vecs
        for v in vecs:
            assert v == parse_acceptable(v.entries)
            assert tuple(len(f) for f in v.factorizations) == (2, 2, 2)
            assert torsion_bound(v) == 17

    def test_profile_shape_errors(self):
        with pytest.raises(UnsupportedDimensionError):
            enumerate_maximal_vectors((1, 1, 1, 1), 1, 100)
        with pytest.raises(ArgumentError):
            enumerate_maximal_vectors((1, 1), 1, 100)
        with pytest.raises(ArgumentError):
            enumerate_maximal_vectors((1, 1, 1), 0, 100)


class TestFindRayClassVector:
    def test_prime_modulus(self):
        v = find_ray_class_vector(5, (1,), 10**6)
        assert v.entries == (29,)
        assert is_maximal(parse_acceptable((5, 29))).verdict

    def test_totally_real_filter_skips_candidates(self):
        # 17 and 29 are consistent with 13 but no context over them is
        # totally real; 53 is the first that qualifies
        assert legendre(17, 13) == 1 and legendre(29, 13) == 1
        v = find_ray_class_vector(13, (1,), 10**5)
        assert v.entries == (53,)

    def test_composite_modulus(self):
        v = find_ray_class_vector(65, (1,), 10**6)
        assert v.entries == (101,)
        assert is_maximal(parse_acceptable((65, 101))).verdict

    def test_two_coordinate_profile(self):
        v = find_ray_class_vector(5, (1, 1), 10**6)
        assert v.entries == (29, 941)
        combined = parse_acceptable((5,) + v.entries)
        assert is_maximal(combined).verdict

    def test_trivial_modulus_degenerates_to_space(self):
        assert find_ray_class_vector(1, (1,), 100).entries == (5,)

    def test_bad_modulus(self):
        with pytest.raises(AcceptabilityError):
            find_ray_class_vector(10, (1,), 100)
        with pytest.raises(AcceptabilityError):
            find_ray_class_vector(15, (1,), 100)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            find_ray_class_vector(5, (1, 1, 1), 100)

    def test_exhaustion(self):
        with pytest.raises(SearchExhaustedError) as info:
            find_ray_class_vector(5, (1,), 20)
        assert info.value.found == 0


def test_legendre_filter_density_tripwire():
    # soft Chebotarev shadow: the m = 1 filter should pass about half of
    # all candidates; five binomial standard deviations at this limit
    candidates = [int(z) for z in primes_one_mod_four(10**5) if z != 13]
    passed = sum(1 for z in candidates if legendre(z, 13) == 1)
    n = len(candidates)
    assert abs(passed / n - 0.5) < 5 * (0.25 / n) ** 0.5
