"""End-to-end tests for the command-line interface: output formats, exit
codes, determinism, and the golden shapes of serialized documents."""

import hashlib
import json
import subprocess
import sys

import pytest

from narrow2 import additive, arith
from narrow2.cli import EXIT_CODES, RunConfig, main
from narrow2.errors import ArgumentError


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse rejections carry the exit code
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.prime_limit == 1_000_000 and cfg.worker_count == 1

    @pytest.mark.parametrize("kwargs", [
        {"prime_limit": 2},
        {"worker_count": 0},
        {"seed": 1 << 64},
        {"seed": -1},
        {"output_format": "xml"},
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(ArgumentError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("value", ["abc", "2"])
    def test_env_var_limit_ignored_without_limit_flag(self, capsys, monkeypatch,
                                                      value):
        commands = [("symbol", "legendre", "13", "17"),
                    ("symbol", "redei", "5", "29", "109", "--verbose"),
                    ("maximal", "5", "29", "109")]
        monkeypatch.delenv("NARROW2_LIMIT", raising=False)
        usual = [run(capsys, *argv) for argv in commands]
        monkeypatch.setenv("NARROW2_LIMIT", value)
        assert [run(capsys, *argv) for argv in commands] == usual
        assert all(code == 0 and out and err == "" for code, out, err in usual)


class TestSymbol:
    def test_legendre(self, capsys):
        code, out, _ = run(capsys, "symbol", "legendre", "13", "17")
        assert code == 0 and out == "1\n"

    def test_redei_verbose(self, capsys):
        code, out, _ = run(capsys, "symbol", "redei", "13", "17", "101",
                           "--verbose")
        assert code == 0
        assert out == "0\nsolution 15 4 1\nquartic 1 0 -30 0 17\n"

    def test_redei_plain(self, capsys):
        code, out, _ = run(capsys, "symbol", "redei", "5", "29", "109")
        assert code == 0 and out == "0\n"

    def test_bad_entry_is_exit_2(self, capsys):
        code, _, err = run(capsys, "symbol", "redei", "5", "11", "13")
        assert code == EXIT_CODES["argument"] == 2
        assert "11" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "symbol", "legendre", "13")
        assert code == 2 and "two arguments" in err


class TestMaximal:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "maximal", "5", "13")
        assert code == 0  # false verdict still completes
        doc = json.loads(out)
        assert doc["maximal"]["verdict"] is False
        assert doc["torsion_bound"] == 1
        assert doc["maximal"]["failed_conditions"] == [["legendre", [5, 13]]]

    def test_text_gauss_case(self, capsys):
        code, out, _ = run(capsys, "maximal", "65", "--format", "text")
        assert code == 0
        assert "maximal true" in out and "torsion_bound 1" in out

    def test_ray_section(self, capsys):
        code, out, _ = run(capsys, "maximal", "29", "--c", "5")
        doc = json.loads(out)
        assert doc["ray"]["ray_bound"] == 2
        assert doc["ray"]["units"]["verdict"] is True

    @pytest.mark.parametrize("entries,c,json_sha256,text", [
        (("5", "29", "109"), "221",
         "19e6eaed511046c9349c74fe6eb6d7ebd1051b0fb51c2bb44f633027f35266e7",
         "entries 5 29 109\nmaximal true\ntorsion_bound 5\nray_bound 21\n"
         "units false\n"),
        (("13", "17"), "53",
         "8cb3b7d1c9037e155a35bb1d651f07c8bfd3ab45b95344b3d2f39f560106de94",
         "entries 13 17\nmaximal true\ntorsion_bound 1\nray_bound 5\n"
         "units true\n"),
    ], ids=["5-29-109-c221", "13-17-c53"])
    def test_ray_output_frozen(self, capsys, entries, c, json_sha256, text):
        # recorded with the units built exactly
        code, out, _ = run(capsys, "maximal", *entries, "--c", c)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == json_sha256
        assert run(capsys, "maximal", *entries, "--c", c,
                   "--format", "text") == (0, text, "")

    def test_ray_section_factors_the_modulus_once(self, capsys, monkeypatch):
        calls = []
        factorize = arith.factorize
        monkeypatch.setattr(arith, "factorize",
                            lambda n: calls.append(n) or factorize(n))
        code, _, _ = run(capsys, "maximal", "5", "29", "109", "--c", "221")
        assert code == 0 and calls == [5, 29, 109, 221]

    def test_dimension_refusal_outranks_bad_modulus(self, capsys):
        code, _, _ = run(capsys, "maximal", "5", "13", "17", "29", "--c", "12")
        assert code == EXIT_CODES["dimension"]

    def test_dimension_refusal(self, capsys):
        code, _, err = run(capsys, "maximal", "5", "13", "17", "29")
        assert code == EXIT_CODES["dimension"] == 3
        assert "unsupported dimension" in err

    def test_shared_modulus_prime(self, capsys):
        code, _, _ = run(capsys, "maximal", "65", "--c", "13")
        assert code == 2

    def test_csv_not_available(self, capsys):
        code, _, _ = run(capsys, "maximal", "65", "--format", "csv")
        assert code == 2


class TestSearchSpace:
    def test_small_space_document(self, capsys):
        code, out, _ = run(capsys, "search", "space", "--m", "1", "--n", "3",
                           "--limit", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"certificate": [], "count": 3, "limit": 100, "m": 1,
                       "sets": [[5, 13, 17]]}

    def test_key_sorted_output(self, capsys):
        _, out, _ = run(capsys, "search", "space", "--m", "1", "--n", "2",
                        "--limit", "100")
        keys = [line.strip().split('"')[1] for line in out.splitlines()
                if line.startswith('  "')]
        assert keys == sorted(keys)

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "search", "space", "--m", "1", "--n", "2",
                           "--limit", "100", "--format", "csv")
        assert code == 0
        assert out == "coordinate,prime\n1,5\n1,13\n"

    def test_exhaustion_exit_4(self, capsys):
        code, _, err = run(capsys, "search", "space", "--m", "1", "--n",
                           "100", "--limit", "30")
        assert code == EXIT_CODES["exhausted"] == 4
        assert "found 4 of 100" in err

    def test_timing_flag_adds_field(self, capsys):
        _, out, _ = run(capsys, "search", "space", "--m", "1", "--n", "2",
                        "--limit", "100", "--timing")
        assert "wall_time_s" in json.loads(out)

    def test_no_timing_by_default(self, capsys):
        _, out, _ = run(capsys, "search", "space", "--m", "1", "--n", "2",
                        "--limit", "100")
        assert "wall_time_s" not in out

    def test_env_var_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("NARROW2_LIMIT", "100")
        code, out, _ = run(capsys, "search", "space", "--m", "1", "--n", "3")
        assert code == 0
        assert json.loads(out)["limit"] == 100

    def test_bad_env_var_limit_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("NARROW2_LIMIT", "abc")
        code, out, err = run(capsys, "search", "space", "--m", "1", "--n", "3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "NARROW2_LIMIT" in err


class TestSearchTriples:
    def test_unit_profile(self, capsys):
        code, out, _ = run(capsys, "search", "triples", "--omega", "1,1,1",
                           "--limit", "1000000")
        assert code == 0
        doc = json.loads(out)
        assert doc["profile"] == [1, 1, 1]
        assert doc["vectors"][0]["entries"] == [5, 29, 109]
        assert doc["vectors"][0]["maximal"]["verdict"] is True

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "search", "triples", "--omega", "1,1,1",
                           "--limit", "1000000", "--format", "csv")
        assert out == "a1,a2,a3,torsion_bound\n5,29,109,5\n"

    def test_two_part_profile_rejected(self, capsys):
        code, _, _ = run(capsys, "search", "triples", "--omega", "1,1",
                         "--limit", "100")
        assert code == 2

    def test_four_part_profile_exit_3(self, capsys):
        code, _, _ = run(capsys, "search", "triples", "--omega", "1,1,1,1",
                         "--limit", "100")
        assert code == 3

    def test_bad_profile_string(self, capsys):
        code, _, _ = run(capsys, "search", "triples", "--omega", "1,x",
                         "--limit", "100")
        assert code == 2


class TestSearchRayclass:
    def test_known_vector(self, capsys):
        code, out, _ = run(capsys, "search", "rayclass", "--c", "5",
                           "--omega", "1", "--limit", "100000")
        assert code == 0
        doc = json.loads(out)
        assert doc["vector"]["entries"] == [29]
        assert doc["combined"]["entries"] == [5, 29]
        assert doc["ray_bound"] == 2
        assert doc["attained"] is True
        assert all(row["split"] and row["unit_is_square"]
                   for row in doc["units"]["rows"])

    def test_exhaustion(self, capsys):
        code, _, err = run(capsys, "search", "rayclass", "--c", "5",
                           "--omega", "1", "--limit", "20")
        assert code == 4


class TestAdditiveCommands:
    def test_random_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        code, out, _ = run(capsys, "additive", "random", "--seed", "7",
                           "--d", "2", "--sizes", "3,3", "--out", str(path))
        assert code == 0 and out == ""
        system = additive.from_json(path.read_text())
        assert system.d == 2 and system.sizes == (3, 3)

    def test_random_matches_library(self, capsys):
        _, out, _ = run(capsys, "additive", "random", "--seed", "7",
                        "--d", "2", "--sizes", "3,3")
        lib = additive.to_json(additive.random_bilinear_system(7, 2, (3, 3), 1))
        assert out == lib + "\n"

    def test_random_dims_list(self, capsys):
        _, out, _ = run(capsys, "additive", "random", "--seed", "1",
                        "--d", "1", "--sizes", "2", "--dims", "0,2")
        system = additive.from_json(out.strip())
        assert system.value_dims == (0, 2)

    def test_random_dims_list_in_subset_order(self, capsys):
        _, out, _ = run(capsys, "additive", "random", "--d", "3",
                        "--sizes", "1,1,1", "--dims", "0,1,2,3,4,5,6,7")
        assert additive.from_json(out.strip()).value_dims == (0, 1, 2, 4, 3, 5, 6, 7)
        assert [row["dim"] for row in json.loads(out)["value_dims"]] == list(range(8))

    def test_sizes_arity_checked(self, capsys):
        code, _, _ = run(capsys, "additive", "random", "--seed", "1",
                         "--d", "2", "--sizes", "3")
        assert code == 2

    @pytest.mark.parametrize("sizes,dims", [
        ("3", "abc"),   # single dimension that is not an integer
        ("3", ""),
        ("0", "1"),     # empty ground set: validate would refuse the output
        ("3", "64"),    # above the int64 bound of the value tables
    ])
    def test_random_bad_shape_exit_2(self, capsys, sizes, dims):
        code, out, err = run(capsys, "additive", "random", "--d", "1",
                             "--sizes", sizes, "--dims", dims)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_validate_valid_system(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(additive.to_json(
            additive.random_bilinear_system(3, 2, (3, 2), 2)))
        code, out, _ = run(capsys, "additive", "validate", "--in", str(path))
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_validate_non_additive_table(self, capsys, tmp_path):
        doc = {
            "c_empty": "full",
            "d": 1,
            "f_tables": [{"subset": [], "values": [0, 0]},
                         {"subset": [0], "values": [0, 1, 0, 0]}],
            "ground_sets": [[0, 1]],
            "value_dims": [{"dim": 1, "subset": []},
                           {"dim": 1, "subset": [0]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "additive", "validate", "--in", str(path))
        assert code == 0  # completed; the verdict is the payload
        parsed = json.loads(out)
        assert parsed["valid"] is False and parsed["violations"]

    def test_malformed_file_exit_5(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 1}')
        code, _, err = run(capsys, "additive", "validate", "--in", str(path))
        assert code == EXIT_CODES["format"] == 5
        assert "malformed" in err

    def test_oversized_dimension_exit_5(self, capsys, tmp_path):
        doc = {"c_empty": "full", "d": 0, "f_tables": [
            {"subset": [], "values": [2**63]}], "ground_sets": [],
            "value_dims": [{"dim": 64, "subset": []}]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "additive", "validate", "--in", str(path))
        assert code == 5
        assert err.startswith("error: malformed system: value_dims")

    def test_missing_file_exit_5(self, capsys, tmp_path):
        code, _, _ = run(capsys, "additive", "validate", "--in",
                         str(tmp_path / "absent.json"))
        assert code == 5

    def test_shrink_golden_line(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(additive.to_json(
            additive.random_bilinear_system(7, 2, (3, 3), 1)))
        code, out, _ = run(capsys, "additive", "shrink", "--in", str(path))
        assert code == 0
        assert out == "lhs 4/27 rhs 1/13122 holds true\n"


class TestEmitGp:
    def test_writes_expected_file(self, capsys, tmp_path):
        path = tmp_path / "check.gp"
        code, out, _ = run(capsys, "emit-gp", "13", "17", "--out", str(path))
        assert code == 0 and out == ""
        text = path.read_text()
        assert 'print("EXPECTED narrow 1");' in text
        assert "bnrinit" not in text

    def test_modulus_section(self, capsys, tmp_path):
        path = tmp_path / "check.gp"
        run(capsys, "emit-gp", "5", "13", "17", "--c", "29", "--out", str(path))
        text = path.read_text()
        assert "bnrinit(bnf, 29)" in text
        assert 'print("EXPECTED ray 13");' in text  # 5 + 8

    def test_repeat_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.gp", tmp_path / "b.gp"
        run(capsys, "emit-gp", "5", "29", "109", "--c", "13", "--out", str(a))
        run(capsys, "emit-gp", "5", "29", "109", "--c", "13", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exit_6(self, capsys, tmp_path):
        code, _, err = run(capsys, "emit-gp", "13", "--out",
                           str(tmp_path / "no" / "dir" / "x.gp"))
        assert code == EXIT_CODES["output"] == 6
        assert "cannot write" in err

    def test_dimension_cap(self, capsys, tmp_path):
        code, _, _ = run(capsys, "emit-gp", "5", "13", "17", "29",
                         "--out", str(tmp_path / "x.gp"))
        assert code == 3


class TestDeterminism:
    def test_space_across_runs_and_workers(self, capsys):
        outputs = set()
        for workers in ("1", "4", "1"):
            _, out, _ = run(capsys, "search", "space", "--m", "2", "--n", "3",
                            "--limit", "100000", "--workers", workers)
            outputs.add(out)
        assert len(outputs) == 1

    def test_rayclass_across_workers(self, capsys):
        docs = set()
        for workers in ("1", "4"):
            _, out, _ = run(capsys, "search", "rayclass", "--c", "5",
                            "--omega", "1", "--limit", "100000",
                            "--workers", workers)
            docs.add(out)
        assert len(docs) == 1

    def test_additive_random_across_runs(self, capsys):
        first = run(capsys, "additive", "random", "--seed", "42", "--d", "2",
                    "--sizes", "4,3")
        second = run(capsys, "additive", "random", "--seed", "42", "--d", "2",
                     "--sizes", "4,3")
        assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "narrow2.cli", "symbol", "legendre", "13", "17"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "1\n"
