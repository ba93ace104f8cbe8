"""Command line behavior: exit codes, determinism, certificate replay."""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from leibniz_aid.algebra import change_basis, direct_sum, to_json_dict
from leibniz_aid.catalog import make
from leibniz_aid.cli import _random_invertible, main

BROKEN = {
    "dim": 1,
    "products": [{"i": 1, "j": 1, "c": {"1": "1"}}],
}

NONNILPOTENT = {
    "dim": 2,
    "products": [{"i": 2, "j": 1, "c": {"2": "1"}}],
}


CATALOG_LISTING = Path(__file__).parent / "data" / "catalog_listing.txt"
PROBABILISTIC_COPY = Path(__file__).parent / "data" / "probabilistic_copy.json"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- catalog ---------------------------------------------------------------


def test_catalog_lists_every_entry(capsys):
    # byte for byte: every entry, its arity, recorded data and note
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert out == CATALOG_LISTING.read_text()


# -- analyze ---------------------------------------------------------------


def test_analyze_json_is_deterministic(capsys):
    code1, out1, err1 = run(capsys, "analyze", "catalog:D4:L9", "--format", "json")
    code2, out2, _ = run(capsys, "analyze", "catalog:D4:L9", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "analyzing catalog:D4:L9" in err1
    doc = json.loads(out1)
    assert doc["schema"] == "aid-report/1"
    assert doc["field"] == "Q"
    assert doc["tower"] == {
        "der": 5, "inner": 3, "aid": 4, "aid_proved": 4, "rcaid": 4,
        "caid": 4, "outer": 2,
    }
    assert doc["aid"]["status"] == "certified_exact"


def test_analyze_text_report(capsys):
    code, out, _ = run(capsys, "analyze", "catalog:NF:4")
    assert code == 0
    assert "catalog:NF:4" in out
    assert "tower" in out.lower()
    assert "certified_exact" in out


def test_analyze_reads_files_and_flags_identity_violations(capsys, write_algebra):
    path = write_algebra("ok.json", NONNILPOTENT)
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "not nilpotent" in out or "nilpotent: no" in out

    bad = write_algebra("broken.json", BROKEN)
    code, _, err = run(capsys, "analyze", bad)
    assert code == 2
    assert "violation (1,1,1)" in err


def test_analyze_reads_stdin_with_dash(capsys, monkeypatch):
    doc = {
        "dim": 3,
        "products": [
            {"i": 1, "j": 1, "c": {"2": "1"}},
            {"i": 2, "j": 1, "c": {"3": "1"}},
        ],
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, "analyze", "--format", "json", "-")
    assert code == 0
    report = json.loads(out)
    assert report["algebra"] == "file:stdin"
    assert report["tower"]["aid"] == 1

    monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
    code, _, err = run(capsys, "analyze", "-")
    assert code == 2
    assert "not valid JSON" in err


def test_analyze_rejects_unknown_refs_and_bad_files(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "catalog:D4:L99")
    assert code == 2 and "error:" in err
    # int() would read this dimension as 10
    code, out, err = run(capsys, "analyze", "catalog:NF:1_0")
    assert code == 2 and out == "" and err.startswith("error: ")
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2


@pytest.mark.parametrize(
    "product",
    [
        {"i": 1, "j": 1, "c": [1]},  # coefficient map not an object
        {"i": True, "j": 1, "c": {"2": "1"}},  # bool index
        {"i": 1, "j": 1, "c": {"2": True}},  # bool coefficient
        {"i": 1, "j": 1, "c": {" +2 ": "1"}},  # target index not plain digits
    ],
    ids=["list-coefficients", "bool-index", "bool-coefficient", "padded-target-index"],
)
def test_analyze_rejects_malformed_products(capsys, write_algebra, product):
    path = write_algebra("malformed.json", {"dim": 2, "products": [product]})
    code, out, err = run(capsys, "analyze", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_analyze_seed_is_recorded(capsys):
    code, out, _ = run(
        capsys, "analyze", "catalog:NF:3", "--seed", "7", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["aid"]["seed"] == 7


# -- witness ---------------------------------------------------------------


def test_witness_replays_a_real_membership(capsys, write_algebra, tmp_path):
    # E(5,2) is almost inner for this instance; any x must have a witness
    code, out, _ = run(capsys, "analyze", "catalog:F3:5:0,0,1", "--format", "json")
    doc = json.loads(out)
    gens = doc["complement_generators"]
    assert gens and gens[0]["outcome"] == "proved"
    endo_path = tmp_path / "endo.json"
    endo_path.write_text(json.dumps({"matrix": gens[0]["matrix"]}))
    code, out, _ = run(
        capsys, "witness", "catalog:F3:5:0,0,1", str(endo_path),
        "1", "-2", "3", "0", "5",
    )
    assert code == 0
    wdoc = json.loads(out)
    assert wdoc["schema"] == "aid-witness/1"
    assert wdoc["witness"] is not None
    assert wdoc["reproduces"] is True


def test_witness_reports_refutations_as_null(capsys, tmp_path):
    # at theta3 = 0 the same matrix is refuted at x = -e2
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"matrix": [["0"] * 5] * 4 + [["0", "1", "0", "0", "0"]]}))
    code, out, _ = run(
        capsys, "witness", "catalog:F3:5:1,1,0", str(endo), "0", "-1", "0", "0", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"] is None
    assert "reproduces" not in doc


def test_witness_reads_the_endomorphism_from_stdin_with_dash(capsys, monkeypatch, tmp_path):
    # the refuting point of E(4,2) on D4:L11, as verify-paper reports it
    generator = [["0"] * 4] * 3 + [["0", "1", "0", "0"]]
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps(generator))
    argv = ("witness", "catalog:D4:L11", str(endo), "-1", "-1", "0", "0")
    code, from_file, _ = run(capsys, *argv)
    assert code == 0 and json.loads(from_file)["witness"] is None
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(generator)))
    code, from_stdin, _ = run(capsys, *argv[:2], "-", *argv[3:])
    assert code == 0
    assert from_stdin == from_file


def test_witness_validates_input_shapes(capsys, tmp_path):
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps([["0", "0"], ["1", "0"]]))  # bare matrix form
    code, _, err = run(capsys, "witness", "catalog:NF:3", str(endo), "1", "0", "0")
    assert code == 2 and "3x3" in err
    endo.write_text(json.dumps([["0"] * 3] * 3))
    code, _, err = run(capsys, "witness", "catalog:NF:3", str(endo), "1", "0")
    assert code == 2 and "coordinates" in err
    code, _, err = run(capsys, "witness", "catalog:NF:3", str(endo), "1", "0", "x")
    assert code == 2


def test_witness_takes_no_coordinates_exactly_at_dimension_0(capsys, write_algebra):
    # x in a 0-dimensional algebra has no coordinates; the count check, not
    # the argument parser, decides whether none is right
    zero, empty = write_algebra("zero.json", {"dim": 0}), write_algebra("empty.json", [])
    code, out, _ = run(capsys, "witness", zero, empty)
    assert code == 0 and '"witness": []' in out
    endo = write_algebra("endo.json", [["0"] * 3] * 3)
    code, _, err = run(capsys, "witness", "catalog:NF:3", endo)
    assert code == 2 and "need 3 coordinates" in err


@pytest.mark.parametrize("case", ["catalog-parameter", "coefficient", "coordinate", "endo-entry"])
def test_rationals_outside_the_p_q_grammar_exit_2(capsys, write_algebra, case):
    # Fraction() would read each of these: "1_0" as 10 and "0.5" as 1/2
    endo = write_algebra("endo.json", [["0"] * 3] * 3)
    argv = {
        "catalog-parameter": ["analyze", "catalog:D3:L1:1_0"],
        "coefficient": ["analyze", write_algebra(
            "alg.json", {"dim": 2, "products": [{"i": 1, "j": 1, "c": {"2": "1_0"}}]})],
        "coordinate": ["witness", "catalog:NF:3", endo, "1", "1_0", "0"],
        "endo-entry": ["witness", "catalog:NF:3", write_algebra(
            "half.json", [["0", "0", "0"], ["0.5", "0", "0"], ["0", "0", "0"]]), "1", "0", "0"],
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"dim": 1, "products": [], "labels": ["\xe9"]}')
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read ")


# -- fuzz --------------------------------------------------------------------


def test_fuzz_reports_invariant_towers(capsys):
    code, out, _ = run(
        capsys, "fuzz", "catalog:D4:L12", "--basis-changes", "3", "--seed", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["failures"] == []
    assert doc["reference_dims"] == {
        "der": 5, "inner": 2, "aid": 3, "rcaid": 3, "caid": 3
    }
    assert sum(doc["statuses"].values()) == 4  # reference + three trials


def test_fuzz_rejects_a_negative_count(capsys):
    code, out, err = run(capsys, "fuzz", "catalog:NF:3", "--basis-changes", "-2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_rejects_a_negative_nmax(capsys):
    code, out, err = run(capsys, "verify-paper", "--nmax", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("ref", ["catalog:D4:L9", "catalog:G53"])
def test_fuzz_reference_dims_match_the_analyzed_tower(capsys, ref):
    code, out, _ = run(capsys, "fuzz", ref, "--basis-changes", "1")
    assert code == 0
    fuzz_dims = json.loads(out)["reference_dims"]
    code, out, _ = run(capsys, "analyze", ref, "--format", "json")
    assert code == 0
    tower = json.loads(out)["tower"]
    assert fuzz_dims == {k: tower[k] for k in ("der", "inner", "aid", "rcaid", "caid")}


def test_fuzz_reference_dims_are_the_upper_side_of_a_probabilistic_report(capsys):
    # G53 + D4:L13:0 in the first basis that random.Random(5) draws, AID
    # 6..7: the one input of CI that is not certified exact
    base = direct_sum(make("catalog:G53"), make("catalog:D4:L13:0"))
    alg = change_basis(base, _random_invertible(random.Random(5), 9))
    assert json.loads(PROBABILISTIC_COPY.read_text()) == to_json_dict(alg)
    code, out, _ = run(capsys, "analyze", str(PROBABILISTIC_COPY), "--format", "json")
    assert code == 0
    report = json.loads(out)
    tower = report["tower"]
    assert report["aid"]["status"] == "probabilistic"
    assert (tower["aid_proved"], tower["aid"]) == (6, 7)
    assert tower["rcaid"] <= tower["rcaid_upper"] and tower["caid"] <= tower["caid_upper"]
    code, out, _ = run(capsys, "fuzz", str(PROBABILISTIC_COPY), "--basis-changes", "0")
    assert code == 0
    assert json.loads(out)["reference_dims"] == {
        "der": tower["der"], "inner": tower["inner"], "aid": tower["aid"],
        "rcaid": tower["rcaid_upper"], "caid": tower["caid_upper"]}


# -- verify-paper -------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_runs():
    """Run the battery twice (plain and with --deviations-ok), shared."""

    def capture(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "leibniz_aid.cli", *argv],
            capture_output=True,
            text=True,
            timeout=600,
        )
        return proc.returncode, proc.stdout

    plain = capture(["verify-paper", "--nmax", "5"])
    tolerant = capture(["verify-paper", "--deviations-ok", "--nmax", "5"])
    return plain, tolerant


def test_verify_exits_1_on_uncovered_deviations(verify_runs):
    (code, out), _ = verify_runs
    assert code == 1
    doc = json.loads(out)
    assert doc["schema"] == "aid-verify/1"
    assert not doc["all_passed"]
    assert doc["deviation_count"] > 0  # the source tables genuinely disagree


def test_verify_deviations_ok_accepts_certificated_mismatches(verify_runs):
    _, (code, out) = verify_runs
    assert code == 0
    doc = json.loads(out)
    for check in doc["checks"]:
        for dev in check["deviations"]:
            assert dev["certificate"], dev["location"]


@pytest.fixture
def stage_calls(monkeypatch):
    """The number of times each stage of an analysis is computed, counted
    through the module globals of `derivations`, which the analysis calls,
    and of `algebra`, which define them."""
    import leibniz_aid.algebra as alg_mod
    import leibniz_aid.derivations as der_mod

    calls = {"derivation_space": 0, "inner_space": 0, "annihilators": 0,
             "central_series": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(der_mod, "derivation_space")
    counting(der_mod, "inner_space")
    counting(der_mod, "annihilators")
    counting(alg_mod, "annihilators")
    counting(der_mod, "central_series")
    counting(alg_mod, "central_series")
    return calls


def test_verify_computes_each_stage_once_per_claim(capsys, stage_calls):
    import leibniz_aid.catalog as cat_mod

    calls = stage_calls
    main(["verify-paper", "--nmax", "2"])
    capsys.readouterr()
    claims = cat_mod.paper_claims(2)
    assert calls["derivation_space"] == calls["inner_space"] == len(claims)
    # the claimed generators are certified in the analysis's adapted basis
    assert calls["central_series"] == len(claims)
    # one analysis_report per table row, one RCAID per row that reports it
    reporting = [c for c in claims if c.kind == "table" or "rcaid_dim" in c.fields]
    assert calls["annihilators"] == len(reporting)


def test_analyze_computes_each_stage_once(capsys, stage_calls):
    # D4:L9 has recorded data, so its deviations are built from the analysis
    # too, and judging its claimed generator reuses the analysis's basis
    assert main(["analyze", "catalog:D4:L9"]) == 0
    assert "deviations from expected values:\n" in capsys.readouterr().out
    assert stage_calls == dict.fromkeys(stage_calls, 1)


def test_fuzz_computes_each_stage_once_per_basis(capsys, stage_calls):
    # the given basis and two random ones, one analysis each
    assert main(["fuzz", "catalog:D4:L9", "--basis-changes", "2"]) == 0
    capsys.readouterr()
    assert stage_calls == dict.fromkeys(stage_calls, 3)


def test_verify_solves_each_constant_witness_once(capsys, monkeypatch):
    import leibniz_aid.derivations as der_mod

    combination = der_mod.inner_combination
    algebras, solved = [], []

    def spy(alg, m):
        algebras.append(alg)  # keeps each id() unique
        solved.append((id(alg), der_mod.endo_to_vec(m)))
        return combination(alg, m)

    monkeypatch.setattr(der_mod, "inner_combination", spy)
    assert main(["verify-paper", "--deviations-ok"]) == 0
    capsys.readouterr()
    # each claim's generator is judged once on the claim's algebra, outcome
    # and combination from one solve.  The key is the algebra object, not
    # its constants: D4:L4:t and F1:4:1,t are one algebra in two claims
    assert solved
    assert len(set(solved)) == len(solved)


def test_verify_every_check_has_a_verdict(verify_runs):
    _, (_, out) = verify_runs
    doc = json.loads(out)
    assert doc["checks"]
    for check in doc["checks"]:
        assert check["passed"] or check["deviations"], check["name"]


# -- top level ----------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert main(["analyze"]) == 2  # missing argument
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "leibniz_aid.cli", "catalog"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "G53" in proc.stdout
