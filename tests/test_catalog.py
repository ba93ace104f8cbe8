"""Catalog references, family builders, and the recorded expected data."""

from __future__ import annotations

import json
import random

import pytest

from leibniz_aid import derivations
from leibniz_aid.catalog import (
    ArityMismatch,
    ParameterInvalid,
    UnknownCatalogRef,
    expected_for,
    list_entries,
    make,
    matrix_json,
    parse_ref,
    vec_json,
)
from leibniz_aid.cli import main
from leibniz_aid.derivations import (
    AidConfig,
    CertOutcome,
    analysis_report,
    inner_combination,
    matrix_unit,
)
from leibniz_aid.exactlin import Q, RationalMatrix


# -- reference grammar ---------------------------------------------------


def test_parse_ref_shapes():
    r = parse_ref("catalog:NF:5")
    assert (r.family, r.n, r.entry, r.params) == ("NF", 5, None, ())
    r = parse_ref("catalog:F1:4:1,0")
    assert (r.family, r.n, r.params) == ("F1", 4, (Q(1), Q(0)))
    r = parse_ref("catalog:D4:L13:1")
    assert (r.family, r.n, r.entry, r.params) == ("D4", 4, "L13", (Q(1),))
    r = parse_ref("catalog:D3:L1:-3/2")
    assert r.params == (Q(-3, 2),)
    r = parse_ref("catalog:G53")
    assert (r.family, r.n) == ("G53", 5)


def test_parse_ref_roundtrips_through_ref_string():
    for text in (
        "catalog:NF:5",
        "catalog:F1:6:0,0,-3/2,0",
        "catalog:D4:L20:2",
        "catalog:D3:L4",
        "catalog:G53",
    ):
        assert parse_ref(text).ref_string() == text


@pytest.mark.parametrize(
    "bad",
    [
        "NF:5",  # missing the catalog prefix
        "catalog",
        "catalog:XX:3",
        "catalog:G53:5",
        "catalog:NF",
        "catalog:NF:five",
        "catalog:D4:L99",
        "catalog:D3:L1:a",
        "catalog:D4:L9:1:2",
        # a dimension is plain ASCII decimal digits, which int() is not
        "catalog:NF:1_0",
        "catalog:NF:+5",
        "catalog:NF: 5",
        "catalog:NF:\u0665",  # ARABIC-INDIC DIGIT FIVE
    ],
)
def test_parse_ref_rejects_malformed(bad):
    with pytest.raises(UnknownCatalogRef):
        parse_ref(bad)


# -- builders ------------------------------------------------------------


def test_nf_table():
    alg = make("catalog:NF:4")
    assert alg.product((1, 0, 0, 0), (1, 0, 0, 0)) == (0, 1, 0, 0)
    assert alg.product((0, 0, 1, 0), (1, 0, 0, 0)) == (0, 0, 0, 1)
    assert alg.product((0, 0, 0, 1), (1, 0, 0, 0)) == (0, 0, 0, 0)
    with pytest.raises(ArityMismatch):
        make("catalog:NF:4:1")
    with pytest.raises(ParameterInvalid):
        make("catalog:NF:0")


def test_f1_dim4_matches_the_4dim_entry_it_specializes():
    # F1(4; 1, theta) and the L4(theta) table are the same algebra
    for theta in (Q(0), Q(1), Q(-3, 2)):
        f1 = make(parse_ref(f"catalog:F1:4:1,{theta}"))
        l4 = make(parse_ref(f"catalog:D4:L4:{theta}"))
        assert f1.constants == l4.constants


def test_f1_arity_and_generic_build():
    with pytest.raises(ArityMismatch):
        make("catalog:F1:5:1,2")  # needs 3 parameters in dim 5
    alg = make("catalog:F1:6:1,1/2,0,2")
    assert alg.dim == 6
    # [e2, e2] carries the a4 entry two steps up
    assert alg.product((0, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))[3] == Q(1)


def test_f2_gamma_lands_in_the_top_coordinate():
    alg = make("catalog:F2:5:0,0,3")
    e2 = (0, 1, 0, 0, 0)
    assert alg.product(e2, e2) == (0, 0, 0, 0, 3)
    with pytest.raises(ArityMismatch):
        make("catalog:F2:5:1")


def test_f3_accepts_short_and_full_parameter_lists():
    short = make("catalog:F3:6:1,2,3")
    full = make("catalog:F3:6:1,2,3,0,0")
    assert short.constants == full.constants
    with pytest.raises(ArityMismatch):
        make("catalog:F3:6:1,2")
    # antisymmetry in the Lie corner: [e1,e2] = -e3 + theta2 en, [e2,e1] = e3
    e1 = (1, 0, 0, 0, 0, 0)
    e2 = (0, 1, 0, 0, 0, 0)
    assert short.product(e1, e2) == (0, 0, -1, 0, 0, 2)
    assert short.product(e2, e1) == (0, 0, 1, 0, 0, 0)


def test_d3_entries():
    l1 = make("catalog:D3:L1:2")
    e2 = (0, 1, 0)
    e3 = (0, 0, 1)
    assert l1.product(e2, e2) == (1, 0, 0)
    assert l1.product(e3, e3) == (2, 0, 0)
    with pytest.raises(ArityMismatch):
        make("catalog:D3:L1")
    with pytest.raises(ArityMismatch):
        make("catalog:D3:L2:1")
    for entry in ("L2", "L3", "L4", "L5", "L6"):
        assert make(f"catalog:D3:{entry}").dim == 3


def test_d4_l20_pole_and_coefficient():
    with pytest.raises(ParameterInvalid) as info:
        make("catalog:D4:L20:1")
    assert "pole" in str(info.value)
    alg = make("catalog:D4:L20:3")
    # (1+3)/(1-3) = -2 on the [e2,e1] product
    assert alg.product((0, 1, 0, 0), (1, 0, 0, 0)) == (0, 0, 0, -2)


FIXED_ENTRIES = ("D3:L1", "D3:L2", "D3:L3", "D3:L4", "D3:L5", "D3:L6",
                 "D4:L4", "D4:L9", "D4:L10", "D4:L11", "D4:L12", "D4:L13", "D4:L20")
ALPHA_ENTRIES = ("D3:L1", "D4:L4", "D4:L13", "D4:L20")


def _bad_parameter_cases():
    """make(ref) raises error(message): every fixed-dimension entry with a
    wrong parameter count, and L20 at its pole."""
    cases = []
    for entry in FIXED_ENTRIES:
        family, label = entry.split(":")
        if entry in ALPHA_ENTRIES:
            message = f"{family} {label} expects one parameter (alpha)"
            cases += [(f"catalog:{entry}", ArityMismatch, message),
                      (f"catalog:{entry}:1,2", ArityMismatch, message)]
        else:
            cases.append((f"catalog:{entry}:1", ArityMismatch,
                          f"{family} {label} takes no parameters"))
    cases.append(("catalog:D4:L20:1", ParameterInvalid,
                  "L20 is undefined at alpha = 1 (coefficient (1+alpha)/(1-alpha) has a pole)"))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("ref, error, message", _bad_parameter_cases())
def test_fixed_entry_rejects_bad_parameters(ref, error, message):
    with pytest.raises(error) as info:
        make(ref)
    assert str(info.value) == message


def test_g53_is_antisymmetric():
    alg = make("catalog:G53")
    for i in range(5):
        for j in range(5):
            ei = alg.basis_coords(i)
            ej = alg.basis_coords(j)
            assert alg.product(ei, ej) == tuple(-v for v in alg.product(ej, ei))
    assert alg.product(alg.basis_coords(0), alg.basis_coords(1)) == (0, 0, 0, 1, 0)


def test_every_family_satisfies_the_identity_on_random_parameters():
    rng = random.Random(77)

    def draw(k):
        return ",".join(
            str(Q(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(k)
        )

    for _ in range(50):
        n = rng.randint(4, 7)
        refs = [
            f"catalog:F1:{n}:{draw(n - 2)}",
            f"catalog:F2:{n}:{draw(n - 2)}",
            f"catalog:F3:{n}:{draw(3)}",
            f"catalog:D3:L1:{draw(1)}",
            f"catalog:D4:L4:{draw(1)}",
            f"catalog:D4:L13:{draw(1)}",
            f"catalog:D4:L20:{draw(1)}",
        ]
        for ref in refs:
            try:
                alg = make(ref)
            except ParameterInvalid as exc:
                # legitimate only at a documented pole; a violated identity
                # would carry the offending basis triple
                assert "pole" in str(exc) or exc.triple is not None
                continue
            alg.check_identity()  # no exception: the table is consistent


# -- entry list and expected data -----------------------------------------


def test_list_entries_covers_all_families():
    entries = {e.entry_id: e for e in list_entries()}
    assert {"NF:n", "F1:n", "F2:n", "F3:n", "G53"} <= set(entries)
    for name in ("L1", "L2", "L3", "L4", "L5", "L6"):
        assert f"D3:{name}" in entries
    for name in ("L4", "L9", "L10", "L11", "L12", "L13", "L20"):
        assert f"D4:{name}" in entries
        assert entries[f"D4:{name}"].expected is not None
    assert entries["D4:L20"].note == "alpha != 1"
    assert entries["G53"].expected.der == 10


def test_expected_for_rows():
    exp = expected_for(parse_ref("catalog:D4:L9"))
    assert (exp.inner, exp.rcaid, exp.aid, exp.der) == (3, 3, 4, 4)
    assert exp.generator_label == "E(4,2)"
    assert exp.generator.entries == matrix_unit(4, 4, 2).entries
    l13 = expected_for(parse_ref("catalog:D4:L13:1"))
    assert l13.generator_label == "E(4,2)+E(3,2)"
    g53 = expected_for(parse_ref("catalog:G53"))
    assert (g53.inner, g53.aid, g53.der) == (4, 5, 10)
    assert g53.rcaid is None
    assert expected_for(parse_ref("catalog:NF:5")) is None


# -- serialization helpers and inner membership ---------------------------


def test_matrix_and_vec_json():
    m = RationalMatrix.from_rows([[Q(1, 2), 0], [-1, 3]])
    assert matrix_json(m) == [["1/2", "0"], ["-1", "3"]]
    assert vec_json((Q(1), Q(-2, 3))) == ["1", "-2/3"]


def test_inner_combination_recovers_the_multiplier():
    alg = make("catalog:NF:3")
    x = (Q(2), Q(-1), Q(0))
    combo = inner_combination(alg, alg.right_mult(x))
    assert combo is not None
    assert alg.right_mult(combo).entries == alg.right_mult(x).entries


def test_inner_combination_none_for_non_inner():
    alg = make("catalog:NF:3")
    assert inner_combination(alg, matrix_unit(3, 1, 3)) is None


def test_inconclusive_claimed_generator_is_an_unexcused_deviation(monkeypatch, capsys):
    # a table claim whose generator certification cannot decide must not pass
    l9 = make("catalog:D4:L9")
    note = "node budget exhausted"
    judged = derivations._judged

    def undecided_on_l9(alg, gen, basis):
        if alg.constants == l9.constants:
            return CertOutcome("inconclusive", branch_log=("series-adapted basis", note)), None
        return judged(alg, gen, basis)

    # `Analysis.judge` reads the judgement through the module global
    monkeypatch.setattr(derivations, "_judged", undecided_on_l9)
    ref = parse_ref("catalog:D4:L9")
    report = analysis_report(l9, AidConfig(), ref.ref_string(), expected_for(ref))
    [dev] = [d for d in report.deviations if d.location.endswith(":generator")]
    assert dev.location == "catalog:D4:L9:generator"
    assert dev.expected == "E(4,2) spans AID over Inner"
    assert dev.computed == f"certification inconclusive: {note}"
    assert dev.certificate == {}
    # verify-paper reports it as its one uncertified deviation, and
    # --deviations-ok does not excuse it
    assert main(["verify-paper", "--deviations-ok"]) == 1
    doc = json.loads(capsys.readouterr().out)
    uncertified = [
        d for c in doc["checks"] for d in c["deviations"] if not d["certificate"]
    ]
    assert uncertified == [{
        "location": "catalog:D4:L9:generator",
        "expected": "E(4,2) spans AID over Inner",
        "computed": f"certification inconclusive: {note}",
        "certificate": {},
    }]
