"""Tests for ray-class predictions, unit reduction, and the GP emitter."""

import hashlib
import io
from math import prod
from pathlib import Path

import pytest

from narrow2 import arith
from narrow2.arith import _pqa_unit, legendre, primes_one_mod_four, sqrt_mod
from narrow2.errors import (
    AcceptabilityError,
    ArgumentError,
    UnsupportedDimensionError,
)
from narrow2.maximality import parse_acceptable, torsion_bound
from narrow2.rayclass import (
    UnitReductionReport,
    _unit_square_at,
    emit_gp_script,
    predicted_ray_dimension,
    ray_class_report,
    verify_unit_reduction,
)
from narrow2.search import find_ray_class_vector

CENSUS_C_SQUARES = Path(__file__).parent / "data" / "unit_census_c.bin"


class TestPredictedRayDimension:
    @pytest.mark.parametrize("entries,c,expected", [
        ((13,), 5, 2),           # 0 + 2^1 * 1
        ((221,), 5, 3),          # 1 + 2^1 * 1
        ((13, 17), 5, 5),        # 1 + 2^2 * 1
        ((65, 493, 1517), 3233, 33),   # 17 + 2^3 * 2
    ])
    def test_instances(self, entries, c, expected):
        assert predicted_ray_dimension(entries, c) == expected

    def test_trivial_modulus_is_torsion_bound(self):
        v = parse_acceptable((65, 493))
        assert predicted_ray_dimension(v, 1) == torsion_bound(v)

    def test_surplus_is_exact(self):
        for entries, c, omega_c in (((13,), 5, 1), ((13, 17), 29, 1),
                                    ((5, 29, 109), 13, 1), ((13, 17), 1, 0),
                                    ((29,), 65, 2)):
            v = parse_acceptable(entries)
            surplus = predicted_ray_dimension(v, c) - torsion_bound(v)
            assert surplus == 2 ** v.n * omega_c

    def test_shared_prime_rejected(self):
        with pytest.raises(ArgumentError):
            predicted_ray_dimension((65,), 13)

    def test_bad_modulus_rejected(self):
        with pytest.raises(AcceptabilityError):
            predicted_ray_dimension((13,), 12)


class TestVerifyUnitReduction:
    def test_ray_vector_all_true(self):
        report = verify_unit_reduction((29,), 5)
        assert report.verdict
        assert report.subfield_list == (29,)
        assert report.rows == ((-1, 5, True, True), (29, 5, True, True))
        assert report.scope == "full unit group modulo torsion"

    def test_vacuous_modulus(self):
        report = verify_unit_reduction((29,), 1)
        assert report.verdict and report.rows == ()

    def test_non_split_prime_recorded_not_raised(self):
        report = verify_unit_reduction((13,), 5)
        assert not report.verdict
        assert (13, 5, False, False) in report.rows

    def test_split_but_nonsquare_unit(self):
        # (3 + sqrt(13))/2 maps to 14 mod 17, a non-residue; the splitting
        # condition alone does not make the unit a square
        report = verify_unit_reduction((13,), 17)
        assert (13, 17, True, False) in report.rows
        assert not report.verdict

    def test_two_entry_vector_spans_three_subfields(self):
        report = verify_unit_reduction((29, 941), 5)
        assert report.subfield_list == (29, 941, 27289)
        assert report.verdict
        assert "subgroup" in report.scope
        assert len(report.rows) == 4  # -1 row plus one per subfield

    def test_minus_one_row_always_true(self):
        for entries, c in (((13,), 5), ((13,), 17), ((29, 941), 65)):
            report = verify_unit_reduction(entries, c)
            for d, _, split, square in report.rows:
                if d == -1:
                    assert split and square

    def test_shared_prime_rejected(self):
        with pytest.raises(ArgumentError,
                           match="modulus 5 shares a factor with entry 65"):
            verify_unit_reduction((65,), 5)

    def test_root_choice_is_irrelevant(self):
        for d, l in ((29, 5), (13, 17), (65, 29), (27289, 5), (941, 5)):
            s = sqrt_mod(d % l, l)
            assert _unit_square_at(d, l, s) == _unit_square_at(d, l, l - s)

    def test_unit_census_c(self):
        """Each p = 1 mod 4 below 1000 against each of the first 20 such
        primes l != p, then each pair p < q with (p|q) = 1 against the
        product of those 20 primes prime to pq.  The unit_is_square bits
        (bit i of the file is row i, little-endian) and the SHA-256 of the
        concatenated repr of each report's rows were recorded from exact
        units."""
        primes = primes_one_mod_four(1000).tolist()
        moduli = primes[:20]
        tables = []
        for p in primes:
            tables += [verify_unit_reduction((p,), l).rows
                       for l in moduli if l != p]
            tables += [verify_unit_reduction(
                (p, q), prod(l for l in moduli if l not in (p, q))).rows
                for q in primes if q > p and legendre(p, q) == 1]
        rows = [row for table in tables for row in table]
        assert len(rows) == 122376
        got = int("".join("1" if row[3] else "0" for row in reversed(rows)), 2)
        diff = got ^ int.from_bytes(CENSUS_C_SQUARES.read_bytes(), "little")
        assert not diff, rows[(diff & -diff).bit_length() - 1]
        assert hashlib.sha256("".join(map(repr, tables)).encode()).hexdigest() == (
            "91facdc63f0e9966009110f2c38f54455fb72bf4f58b338e014381417606b1c8")

    def test_long_period_unit(self):
        # (1 + sqrt(pq))/2 has a period of 127,533 steps and the exact unit
        # about 65,700 digits; these rows were recorded from that unit
        p, q = 999049, 999377
        assert verify_unit_reduction((p, q), 37 * 61).rows == (
            (-1, 37, True, True), (-1, 61, True, True),
            (p, 37, True, False), (p, 61, True, False),
            (q, 37, True, True), (q, 61, True, False),
            (p * q, 37, True, False), (p * q, 61, True, True))
        g, b, q0 = _pqa_unit(p * q, 61)
        assert 0 <= g < 61 and 0 <= b < 61 and q0 == 2

    @pytest.mark.parametrize("c", [5, 13, 17, 29, 65])
    def test_search_output_passes(self, c):
        v = find_ray_class_vector(c, (1,), 10**6)
        report = verify_unit_reduction(v, c)
        assert report.verdict, report.rows

    def test_verdict_matches_rows(self):
        report = UnitReductionReport(5, (29,), ((29, 5, True, False),), "")
        assert not report.verdict


class TestRayClassReport:
    def test_attained_for_search_output(self):
        rep = ray_class_report((29,), 5)
        assert rep.bound == 2
        assert rep.attained
        assert rep.maximal.verdict and rep.units.verdict

    def test_not_attained_when_units_fail(self):
        rep = ray_class_report((13,), 17)
        assert rep.maximal.verdict
        assert not rep.units.verdict
        assert not rep.attained

    def test_factors_only_the_modulus(self, monkeypatch):
        v = parse_acceptable((5, 29, 109))
        calls = []
        factorize = arith.factorize
        monkeypatch.setattr(arith, "factorize",
                            lambda n: calls.append(n) or factorize(n))
        ray_class_report(v, 221)
        assert calls == [221]

    def test_unsupported_dimension_outranks_bad_modulus(self):
        with pytest.raises(UnsupportedDimensionError):
            ray_class_report((5, 13, 17, 29), 12)


class TestEmitGpScript:
    def test_pair_with_modulus(self):
        text = emit_gp_script((13, 17), 5)
        assert text == (
            "\\\\ 2-torsion oracle for vector (13, 17), modulus 5\n"
            "\\\\ prints RANK lines to diff against the EXPECTED lines below\n"
            "pol = x^2 - 13;\n"
            "pol = polcompositum(pol, x^2 - 17)[1];\n"
            "bnf = bnfinit(pol, 1);\n"
            "cyc = bnfnarrow(bnf)[2];\n"
            'print("RANK narrow ", #select(t -> t % 2 == 0, cyc));\n'
            "bnr = bnrinit(bnf, 5);\n"
            "rcyc = bnr.clgp.cyc;\n"
            'print("RANK ray ", #select(t -> t % 2 == 0, rcyc));\n'
            'print("EXPECTED narrow 1");\n'
            'print("EXPECTED ray 5");\n'
        )

    def test_trivial_modulus_omits_ray_section(self):
        text = emit_gp_script((13, 17))
        assert "bnrinit" not in text
        assert 'print("EXPECTED narrow 1");' in text
        assert text.count("RANK") == 2  # one computation, one usage note

    def test_triple_expected_rank(self):
        text = emit_gp_script((5, 29, 109))
        assert "polcompositum" in text
        assert 'print("EXPECTED narrow 5");' in text

    def test_deterministic_and_lf(self):
        a = emit_gp_script((5, 29, 109), 13)
        b = emit_gp_script((5, 29, 109), 13)
        assert a == b
        assert "\r" not in a and a.endswith("\n")

    def test_out_stream(self):
        buf = io.StringIO()
        text = emit_gp_script((13,), 5, out=buf)
        assert buf.getvalue() == text

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            emit_gp_script((5, 13, 17, 29))

    def test_factors_the_modulus_once(self, monkeypatch):
        calls = []
        factorize = arith.factorize
        monkeypatch.setattr(arith, "factorize",
                            lambda n: calls.append(n) or factorize(n))
        emit_gp_script((5, 29, 109), 221)
        assert calls == [5, 29, 109, 221]
