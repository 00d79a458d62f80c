import json
import random
import time
from pathlib import Path

import pytest

from bihomlie import algfile, catalog, cli, isomorphism, structure
from bihomlie.algebra import BiHomLieAlgebra, CrossCheckError, heisenberg
from bihomlie.catalog import build
from bihomlie.cli import main
from bihomlie.derivations import MembershipError
from bihomlie.fields import QQ
from bihomlie.linalg import Matrix
from bihomlie.structure import ClosureError

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, algebra, metadata=None):
        path = tmp_path / (name + ".json")
        algfile.dump(algfile.AlgebraDocument(algebra, metadata), path)
        paths[name] = str(path)
        return paths[name]

    write("l110", build("L_1^10", {}))
    write("l21", build("L_2^1", {"b": 2, "y": 1}))
    write("l31", build("L_3^1", {"b": 2, "y": 1}))
    write("heis", heisenberg(1, 2, 3, [5], [7]))
    paths["dir"] = str(tmp_path)
    return paths


def write_raw(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def skew_violating_file(tmp_path):
    return write_raw(tmp_path, "skew.json", {
        "format_version": 1, "field": "rational", "dim": 2,
        "brackets": [{"i": 1, "j": 2, "k": 1, "value": "1"}],
        "alpha": [["1", "0"], ["0", "1"]],
        "beta": [["1", "0"], ["0", "1"]],
    })


# --- check -----------------------------------------------------------------

def test_check_passes_on_valid_file(files, capsys):
    assert main(["check", files["heis"]]) == 0
    out = capsys.readouterr().out
    assert "all axioms hold" in out


def test_check_reports_first_violation(tmp_path, capsys):
    path = skew_violating_file(tmp_path)
    assert main(["check", path]) == 1
    assert "skew (i=1,j=2,s=1)" in capsys.readouterr().out


def test_check_parse_error_exit_code(tmp_path, capsys):
    path = write_raw(tmp_path, "bad.json", {
        "format_version": 1, "field": "rational", "dim": 2,
        "brackets": [{"i": 1, "j": 2, "k": 1, "value": "1/0"}],
        "alpha": [["1", "0"], ["0", "1"]],
        "beta": [["1", "0"], ["0", "1"]],
    })
    assert main(["check", path]) == 2
    assert "1/0" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_check_deeply_nested_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["check", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_check_records_output(tmp_path, capsys):
    path = skew_violating_file(tmp_path)
    assert main(["check", path, "--output", "records"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "axiom name=skew ok=false" in lines
    assert "violation type=skew i=1 j=2 s=1" in lines


@pytest.mark.parametrize("output, expected", [
    ("human", ["commuting: FAILED", "skew: ok", "violation: commuting"]),
    ("records", ["axiom name=commuting ok=false", "axiom name=skew ok=true",
                 "violation type=commuting"]),
])
def test_check_reports_non_commuting_twists(tmp_path, capsys, output,
                                            expected):
    # the abelian bracket satisfies the other axioms at any twists
    path = write_raw(tmp_path, "twists.json", {
        "format_version": 1, "field": "rational", "dim": 2, "brackets": [],
        "alpha": [["1", "1"], ["0", "1"]],
        "beta": [["1", "0"], ["1", "1"]],
    })
    assert main(["check", path, "--output", output]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(line in lines for line in expected)
    assert lines[-1] == expected[-1]


# --- der -------------------------------------------------------------------

def test_der_dimension_and_basis(files, capsys):
    assert main(["der", files["l110"], "--lambda", "1", "--mu", "1",
                 "--gamma", "1"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 2" in out


def test_der_zero_triple_prints_commutant(tmp_path, capsys):
    ident = Matrix.identity(2, QQ)
    L = BiHomLieAlgebra.from_brackets(2, {}, ident, ident)
    path = tmp_path / "abelian.json"
    algfile.dump(L, path)
    assert main(["der", str(path), "--lambda", "0", "--mu", "0",
                 "--gamma", "0"]) == 0
    assert "dimension: 4" in capsys.readouterr().out


def test_der_normalize_prints_canonical_triple(files, capsys):
    assert main(["der", files["heis"], "--lambda", "2", "--mu", "3",
                 "--gamma", "1", "--normalize", "--output", "records"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "normalized lambda=1/2 mu=1 gamma=0 case=1" in lines


def test_der_refuses_a_power_past_the_bit_bound_before_any_output(capsys):
    # alpha^3200 beta^3200 would have entries past 4300 digits
    path = str(GOLDEN / "twisted_heis5.json")
    assert main(["der", path, "--k", "3200", "--l", "3200"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "past the limit of 14000" in err


def test_der_refuses_a_huge_exponent_at_once(capsys):
    path = str(GOLDEN / "twisted_heis5.json")
    start = time.perf_counter()
    assert main(["der", path, "--k", "1000000000", "--l", "0"]) == 2
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().out == ""


def test_der_solves_a_huge_exponent_over_a_prime_field(tmp_path, capsys):
    # binary powering keeps every exponent cheap over F_p
    L = algfile.load(GOLDEN / "twisted_heis5.json").algebra
    path = tmp_path / "heis5_mod101.json"
    algfile.dump(isomorphism.reduce_mod_p(L, 101), path)
    assert main(["der", str(path), "--k", "1000000000", "--l", "0"]) == 0
    assert "dimension: " in capsys.readouterr().out


def test_catalog_takes_exponents_whose_power_would_not_print(capsys):
    # alpha^150 has an entry past 4300 digits, but catalog prints no power
    a, x = 2 ** 100 + 277, 3 ** 60 + 2
    assert main(["catalog", "--entry", "L_1^8", "--params",
                 "a=%d,x=%d" % (a, x), "--kmax", "150", "--lmax", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "mismatched cells: 0"
    assert len(out) == 303 and all(line.endswith(": match")
                                   for line in out[:-1])


def test_der_rejects_bad_value(files, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["der", files["l110"], "--lambda", "x"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("text", ["1e3", "1.5", "1e999999999"])
def test_der_rejects_non_exact_scalar(files, text):
    with pytest.raises(SystemExit) as exit_info:
        main(["der", files["l110"], "--lambda", text])
    assert exit_info.value.code == 2


def test_der_internal_error_exit_code(files, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise MembershipError("solver produced a non-member")
    monkeypatch.setattr(cli, "derivation_space", broken)
    assert main(["der", files["l110"]]) == 3
    assert ("internal error: solver produced a non-member"
            in capsys.readouterr().err)


def test_check_internal_error_exit_code(files, monkeypatch, capsys):
    def broken(self):
        raise CrossCheckError("skew-symmetry routes disagree")
    monkeypatch.setattr(BiHomLieAlgebra, "check_all", broken)
    assert main(["check", files["l110"]]) == 3
    assert "internal error:" in capsys.readouterr().err


# --- structure -------------------------------------------------------------

def test_structure_report(files, capsys):
    assert main(["structure", files["l110"]]) == 0
    out = capsys.readouterr().out
    assert "characteristically nilpotent: no" in out
    assert "small centroid: yes" in out
    assert "lower central dims: 2,1" in out


def test_structure_computes_each_series_once(files, monkeypatch, capsys):
    # nilpotent and solvable are read off the series the report prints
    calls = {"lower_central_series": 0, "derived_series": 0}
    for name in calls:
        def counting(L, _series=getattr(structure, name), _name=name):
            calls[_name] += 1
            return _series(L)
        for module in (structure, cli):
            monkeypatch.setattr(module, name, counting)
    assert main(["structure", files["l110"]]) == 0
    assert "nilpotent: no\nsolvable: yes" in capsys.readouterr().out
    assert calls == {"lower_central_series": 1, "derived_series": 1}


def test_structure_closure_error_exit_code(files, monkeypatch, capsys):
    def broken(L):
        raise ClosureError("derivation space is not closed under commutators")
    monkeypatch.setattr(cli, "is_characteristically_nilpotent", broken)
    assert main(["structure", files["l110"]]) == 3
    assert ("internal error: derivation space is not closed"
            in capsys.readouterr().err)


# --- catalog ---------------------------------------------------------------

def test_catalog_single_entry(files, capsys):
    assert main(["catalog", "--entry", "L_1^10"]) == 0
    out = capsys.readouterr().out
    assert out.count(": match") == 9
    assert "mismatched cells: 0" in out


def test_catalog_explicit_params(capsys):
    assert main(["catalog", "--entry", "L_3^1", "--params", "b=2,y=3",
                 "--kmax", "1", "--lmax", "1", "--output", "records"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cells = [line for line in lines if line.startswith("cell ")]
    assert len(cells) == 4
    assert all("verdict=match" in line for line in cells)


@pytest.mark.parametrize("output, expected", [
    ("human", ["L_1^10 [] k=0 l=0: MISMATCH", "mismatched cells: 1"]),
    ("records", ["cell entry=L_1^10 params= k=0 l=0 verdict=mismatch",
                 "diff aspect=der_row_0", "summary mismatches=1"]),
])
def test_catalog_reports_a_planted_mismatch(monkeypatch, capsys, output,
                                            expected):
    row = catalog.load_catalog()["L_1^10"].rows[0]
    monkeypatch.setattr(row, "der", [["d1", "0"], ["0", "d1"]])
    assert main(["catalog", "--entry", "L_1^10", "--kmax", "0", "--lmax",
                 "0", "--output", output]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(line in lines for line in expected)
    assert len(lines) == 3


def test_catalog_params_need_name_value_pairs(capsys):
    assert main(["catalog", "--entry", "L_3^1", "--params", "b=2,y"]) == 2
    assert "expects name=value pairs, got 'y'" in capsys.readouterr().err


def test_catalog_params_need_entry(capsys):
    assert main(["catalog", "--params", "b=2,y=3"]) == 2
    assert "requires --entry" in capsys.readouterr().err


def test_catalog_rejects_inadmissible_params(capsys):
    assert main(["catalog", "--entry", "L_3^1", "--params", "b=0,y=3"]) == 2


@pytest.mark.parametrize("text", ["1e3", "1.5", "1e999999999"])
def test_catalog_rejects_non_exact_params(text, capsys):
    assert main(["catalog", "--entry", "L_3^1",
                 "--params", "b=%s,y=3" % text]) == 2
    assert "not an exact scalar string" in capsys.readouterr().err


def test_catalog_rejects_unknown_entry(capsys):
    assert main(["catalog", "--entry", "L_9^9"]) == 2


def test_catalog_seeded_extra_samples(monkeypatch, capsys):
    monkeypatch.setenv("BIHOM_SAMPLE_SEED", "5")
    assert main(["catalog", "--entry", "L_1^7", "--kmax", "0",
                 "--lmax", "0", "--output", "records"]) == 0
    first = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("cell ")]
    assert len(first) == 5  # three pinned plus two drawn samples

    monkeypatch.setenv("BIHOM_SAMPLE_SEED", "6")
    assert main(["catalog", "--entry", "L_1^7", "--kmax", "0",
                 "--lmax", "0", "--output", "records"]) == 0
    second = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("cell ")]
    assert len(second) == 5
    assert first != second  # the seed steers the drawn samples


@pytest.mark.parametrize("cap", ["--kmax", "--lmax"])
def test_catalog_rejects_negative_cap(cap, capsys):
    assert main(["catalog", "--entry", "L_1^10", cap, "-1"]) == 2
    captured = capsys.readouterr()
    assert "must be non-negative" in captured.err
    assert captured.out == ""


def test_catalog_bad_seed(monkeypatch, capsys):
    monkeypatch.setenv("BIHOM_SAMPLE_SEED", "many")
    assert main(["catalog", "--entry", "L_1^10"]) == 2


# --- fingerprint -----------------------------------------------------------

def test_fingerprint_report(files, capsys):
    assert main(["fingerprint", files["l110"]]) == 0
    out = capsys.readouterr().out
    assert "dim: 2" in out
    assert "center dim: 0" in out
    assert out.count("der dim (") == 32


def test_fingerprint_records(files, capsys):
    assert main(["fingerprint", files["l110"], "--output", "records"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "dim value=2" in lines
    assert "der_dim lambda=1 mu=1 gamma=1 k=0 l=0 value=2" in lines


@pytest.mark.parametrize("command", ["der", "fingerprint"])
def test_report_past_the_digit_limit_prints_nothing(tmp_path, capsys,
                                                    command):
    # a valid zero-bracket algebra whose twist has 2000-digit entries: its
    # commutant basis and characteristic polynomial pass 4300 digits
    rng = random.Random(3)
    twist = [[str(rng.randrange(10 ** 1999, 10 ** 2000)) for _ in range(3)]
             for _ in range(3)]
    path = write_raw(tmp_path, "big.json", {
        "format_version": 1, "field": "rational", "dim": 3, "brackets": [],
        "alpha": twist, "beta": twist})
    assert main(["check", path]) == 0
    capsys.readouterr()
    assert main([command, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Exceeds the limit (4300 digits)" in err


# --- iso -------------------------------------------------------------------

def test_iso_witness_verified(files, tmp_path, capsys):
    wit = tmp_path / "wit.json"
    wit.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    assert main(["iso", files["l110"], files["l110"],
                 "--witness", str(wit)]) == 0
    assert "isomorphic (witness verified)" in capsys.readouterr().out


def test_iso_witness_rejected(files, tmp_path, capsys):
    wit = tmp_path / "wit.json"
    wit.write_text(json.dumps({"matrix": [["1", "1"], ["0", "1"]]}))
    assert main(["iso", files["l21"], files["l31"],
                 "--witness", str(wit)]) == 1
    assert "witness rejected" in capsys.readouterr().out


def test_iso_witness_across_fields_is_a_usage_error(files, tmp_path, capsys):
    path = tmp_path / "l110_mod3.json"
    algfile.dump(isomorphism.reduce_mod_p(build("L_1^10", {}), 3), path)
    wit = tmp_path / "wit.json"
    wit.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    assert main(["iso", files["l110"], str(path), "--witness", str(wit)]) == 2
    assert "different fields" in capsys.readouterr().err


def test_iso_brute_negative(files, capsys):
    assert main(["iso", files["l21"], files["l31"], "--brute", "3"]) == 1
    assert "no witness over F_3" in capsys.readouterr().out


def test_iso_brute_positive(files, capsys):
    assert main(["iso", files["l110"], files["l110"], "--brute", "3"]) == 0
    assert "isomorphic over F_3 (witness found)" in capsys.readouterr().out


def test_iso_fingerprint_fallback(files, capsys):
    assert main(["iso", files["l21"], files["l31"]]) == 1
    assert "fingerprints distinct" in capsys.readouterr().out
    assert main(["iso", files["l110"], files["l110"]]) == 0
    assert "inconclusive" in capsys.readouterr().out


def test_iso_deeply_nested_witness_is_a_parse_error(files, tmp_path,
                                                    capsys):
    wit = tmp_path / "deep.json"
    wit.write_text("[" * 100000)
    assert main(["iso", files["l110"], files["l110"],
                 "--witness", str(wit)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_iso_witness_and_brute_conflict(files):
    with pytest.raises(SystemExit) as exit_info:
        main(["iso", files["l110"], files["l110"],
              "--witness", "w.json", "--brute", "3"])
    assert exit_info.value.code == 2


def test_iso_dimension_mismatch(files, capsys):
    assert main(["iso", files["l110"], files["heis"], "--brute", "3"]) == 2


def test_iso_brute_over_a_huge_modulus_is_a_usage_error(files, capsys):
    assert main(["iso", files["l110"], files["l110"], "--brute",
                 str(2 ** 127 - 1)]) == 2
    assert "not below 2^64" in capsys.readouterr().err


def test_iso_brute_over_the_cap_is_refused(tmp_path, capsys, monkeypatch):
    # every 3x3 matrix intertwines the abelian algebra's identity twists,
    # so mod 7 the search would scan 7^9 candidates; it must not start
    def no_scan(m):
        raise AssertionError("a candidate was scanned")

    monkeypatch.setattr(isomorphism, "is_invertible", no_scan)
    ident = Matrix.identity(3, QQ)
    path = str(tmp_path / "abelian3.json")
    algfile.dump(algfile.AlgebraDocument(
        BiHomLieAlgebra.from_brackets(3, {}, ident, ident), None), path)
    assert main(["iso", path, path, "--brute", "7"]) == 2
    err = capsys.readouterr().err
    assert "7^9 = 40353607" in err and "100000" in err
