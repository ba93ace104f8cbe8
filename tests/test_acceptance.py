"""Acceptance battery: one test per recorded criterion.

Each criterion is asserted exactly (rational arithmetic, no tolerance).
Where a computed result disagrees with a recorded expected value, the
disagreement must carry a replayable certificate; the certificates are
replayed here rather than trusted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import leibniz_aid as la
from leibniz_aid.algebra import LeibnizAlgebra
from leibniz_aid.derivations import (
    aid_certify,
    aid_space,
    aid_witness,
    derivation_space,
    endo_to_vec,
    inner_space,
    matrix_unit,
    rcaid_caid,
    subalgebra_nilpotency,
)
from leibniz_aid.exactlin import Q, RationalMatrix, Subspace, as_rational, subspace_sum

import test_properties
from conftest import CATALOG_BATTERY, analyze

# the recorded stdout of `verify-paper --deviations-ok`; a refactoring of the
# claims table or its evaluator must keep every byte of it
GOLDEN_VERIFY = Path(__file__).parent / "data" / "verify_paper_deviations_ok.json"

# (dim Inner, dim RCAID, dim AID, dim Der) as recorded for the 4-dim table
PUBLISHED_ROWS = {
    "catalog:D4:L4:0": (2, 2, 3, 4),
    "catalog:D4:L4:1": (2, 2, 3, 4),
    "catalog:D4:L9": (3, 3, 4, 4),
    "catalog:D4:L10": (3, 3, 4, 4),
    "catalog:D4:L11": (2, 2, 3, 5),
    "catalog:D4:L12": (2, 2, 3, 5),
    "catalog:D4:L13:0": (2, 2, 4, 5),
    "catalog:D4:L13:1": (2, 2, 4, 5),
    "catalog:D4:L13:2": (2, 2, 4, 5),
    "catalog:D4:L20:0": (2, 2, 3, 7),
    "catalog:D4:L20:2": (2, 2, 3, 7),
}


def parse_vec(strings) -> tuple[Q, ...]:
    return tuple(as_rational(s) for s in strings)


def parse_matrix(rows) -> RationalMatrix:
    return RationalMatrix.from_rows([[as_rational(v) for v in row] for row in rows])


def replay_certificate(alg, cert: dict) -> None:
    """Check a deviation certificate by direct recomputation."""
    kind = cert["kind"]
    if kind == "refuting_x":
        gen = parse_matrix(cert["generator"])
        x = parse_vec(cert["x"])
        assert aid_witness(alg, gen, x) is None
    elif kind == "inner_witness":
        gen = parse_matrix(cert["generator"])
        combo = parse_vec(cert["combination"])
        assert alg.right_mult(combo).entries == gen.entries
    elif kind == "derivation_basis":
        der = derivation_space(alg)
        assert len(cert["basis"]) == der.dim
        for rows in cert["basis"]:
            assert der.contains(endo_to_vec(parse_matrix(rows)))
    elif kind == "inner_basis":
        inner = inner_space(alg)
        for rows in cert["basis"]:
            assert inner.contains(endo_to_vec(parse_matrix(rows)))
    elif kind == "restricted_members":
        from leibniz_aid.algebra import annihilators

        target = annihilators(alg).ann_r
        for member in cert["members"]:
            m = parse_matrix(member["matrix"])
            assert member["global_x"] is not None
            x = parse_vec(member["global_x"])
            diff = m - alg.right_mult(x)
            for j in range(alg.dim):
                assert target.contains(diff.col(j))
    elif kind == "aid_basis":
        pass  # informational: the computed basis itself
    else:  # pragma: no cover - unknown kinds should not appear
        raise AssertionError(f"unknown certificate kind {kind!r}")


# -- criterion 1: the four-dimensional table ---------------------------------


def test_criterion_1_table_reproduction_with_certificates():
    for ref, (inner_d, rcaid_d, aid_d, der_d) in PUBLISHED_ROWS.items():
        report = analyze(ref)
        alg = la.make(ref)
        computed = (
            report.tower["inner"],
            report.tower["rcaid"],
            report.tower["aid"],
            report.tower["der"],
        )
        expected = (inner_d, rcaid_d, aid_d, der_d)
        devs = {d.location.rsplit(":", 1)[-1]: d for d in report.deviations}
        for name, want, got in zip(("inner", "rcaid", "aid", "der"), expected, computed):
            if want == got:
                continue
            # a mismatch is acceptable only with a replayable certificate
            assert name in devs, (ref, name, want, got)
            dev = devs[name]
            assert dev.expected == str(want) and dev.computed == str(got)
            assert dev.certificate, (ref, name)
            replay_certificate(alg, dev.certificate)
        # any extra deviations (e.g. about the claimed generator) must replay too
        for dev in report.deviations:
            replay_certificate(alg, dev.certificate)


@pytest.fixture(scope="module")
def verify_runs():
    def capture(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "leibniz_aid.cli", *argv],
            capture_output=True,
            text=True,
            timeout=600,
        )
        return proc.returncode, proc.stdout

    return capture(["verify-paper"]), capture(["verify-paper", "--deviations-ok"])


def test_criterion_1_run_passes_only_under_deviations_ok(verify_runs):
    (plain_code, plain_out), (ok_code, ok_out) = verify_runs
    assert plain_code == 1
    assert ok_code == 0
    doc = json.loads(ok_out)
    table_checks = [c for c in doc["checks"] if c["name"].startswith("table:")]
    assert len(table_checks) == len(PUBLISHED_ROWS)
    for check in table_checks:
        assert check["passed"] or all(
            d["certificate"] for d in check["deviations"]
        ), check["name"]
    # the pre-flagged rows resolve to deviations carrying certificates
    flagged = [c for c in table_checks if ":L4:" in c["name"] or ":L13:" in c["name"]]
    assert all(c["deviations"] for c in flagged)


def test_verify_paper_output_matches_the_golden_file(verify_runs):
    # every check, verdict, info field (in order) and certificate, byte for byte
    _, (_, ok_out) = verify_runs
    golden = GOLDEN_VERIFY.read_text(encoding="utf-8")
    assert ok_out == golden


# -- criterion 2: null-filiform AID = Inner, certified ------------------------


def test_criterion_2_null_filiform_aid_equals_inner():
    for n in range(2, 9):
        alg = la.make(f"catalog:NF:{n}")
        res = aid_space(alg)
        assert res.status == "certified_exact", n
        assert res.upper_bound == inner_space(alg), n


# -- criterion 3: the three-dimensional examples -------------------------------


def test_criterion_3_three_dim_aid_rcaid_inner():
    refs = [f"catalog:D3:L1:{a}" for a in ("0", "1", "-1", "2")]
    refs += [f"catalog:D3:{e}" for e in ("L2", "L3", "L4", "L5", "L6")]
    for ref in refs:
        alg = la.make(ref)
        res = aid_space(alg)
        inner = inner_space(alg)
        assert res.status == "certified_exact", ref
        assert res.upper_bound == inner, ref
        assert rcaid_caid(alg, "right_ann", res.upper_bound) == inner, ref


# -- criterion 4: first filiform family ----------------------------------------


def decomposition_checks(verify_runs) -> dict[str, dict]:
    _, (_, ok_out) = verify_runs
    doc = json.loads(ok_out)
    return {c["name"]: c for c in doc["checks"] if c["name"].startswith("decomposition:")}


def assert_directness_claim(ref: str, gen: RationalMatrix, scale, checks) -> None:
    """Check the recorded claim AID = Inner (+) <gen> on one stratum.

    Whether the claim holds is decided apart from the AID pipeline: gen is
    inner exactly when R_scale reproduces it.  Where it does, AID must be
    exactly Inner and verify-paper must report the failed claim with one
    inner_witness certificate, which is replayed here.
    """
    alg = la.make(ref)
    res = aid_space(alg)
    inner = inner_space(alg)
    if alg.right_mult(scale).entries != gen.entries:
        assert res.dim == inner.dim + 1, ref
        return
    assert res.status == "certified_exact", ref
    assert res.upper_bound == inner, ref
    # the claim is refuted here; verify-paper must keep saying so
    check = checks.get(f"decomposition:{ref}")
    assert check is not None, f"{ref}: verify-paper dropped the refuted claim"
    assert check["passed"] is False and check["sum_matches"] is True, (
        f"{ref}: verify-paper must fail the directness claim, since the "
        "generator is inner, and must still confirm the sum"
    )
    assert [d["location"] for d in check["deviations"]] == [f"{ref}:decomposition"], ref
    cert = check["deviations"][0]["certificate"]
    assert cert["kind"] == "inner_witness", ref
    assert parse_matrix(cert["generator"]).entries == gen.entries, ref
    replay_certificate(alg, cert)


F1_STRATA = [
    (n, a_n) for n in (4, 5, 6, 7) for a_n in ("1", "2", "-3/2")
]


def f1_ref(n: int, a_n: str, theta: str) -> str:
    return f"catalog:F1:{n}:" + ",".join(["0"] * (n - 4) + [a_n, theta])


def test_criterion_4_f1_sum_equality_certified_with_witness_family():
    for n, a_n in F1_STRATA:
        ref = f1_ref(n, a_n, "0")
        alg = la.make(ref)
        gen = matrix_unit(n, n, 2)
        res = aid_space(alg)
        inner = inner_space(alg)
        span_sum = subspace_sum(
            inner, Subspace.from_vectors(n * n, [endo_to_vec(gen)])
        )
        assert res.status == "certified_exact", ref
        assert res.upper_bound == span_sum, ref
        assert aid_certify(alg, gen).kind == "proved", ref
        # witness family: a = (1/a_n) e2 realizes the generator globally
        scale = tuple(Q(1) / as_rational(a_n) if i == 1 else Q(0) for i in range(n))
        assert alg.right_mult(scale).entries == gen.entries, ref
        for x in ((0, 1) + (0,) * (n - 2), (1,) * n):
            xq = tuple(Q(v) for v in x)
            assert alg.product(xq, scale) == gen.apply(xq), ref


def test_criterion_4_f1_decomposition_is_direct(verify_runs):
    # Checks the recorded claim AID = Inner (+) <E(n,2)> on every stratum.
    # Here it is refuted: [e2,e2] = a_n e_n is the only product with e2 on
    # the right, so R_(e2/a_n) = E(n,2) is inner. verify-paper must keep
    # reporting the refutation with a replayable inner_witness certificate.
    checks = decomposition_checks(verify_runs)
    for n, a_n in F1_STRATA:
        ref = f1_ref(n, a_n, "0")
        scale = tuple(Q(1) / as_rational(a_n) if i == 1 else Q(0) for i in range(n))
        assert_directness_claim(ref, matrix_unit(n, n, 2), scale, checks)


def test_criterion_4_f1_theta_nonzero_refutes_the_generator():
    for n in (4, 5, 6, 7):
        ref = f1_ref(n, "1", "1")
        alg = la.make(ref)
        gen = matrix_unit(n, n, 2)
        out = aid_certify(alg, gen)
        assert out.kind == "refuted", ref
        assert out.refuting_x is not None
        assert aid_witness(alg, gen, out.refuting_x) is None, ref
        res = aid_space(alg)
        assert res.status == "certified_exact", ref
        assert res.upper_bound == inner_space(alg), ref


# -- criterion 5: second filiform family ----------------------------------------

F2_STRATA = [(n, g) for n in (4, 5, 6) for g in ("1", "3")]


def f2_ref(n: int, beta4: str, gamma: str) -> str:
    params = [beta4] + ["0"] * (n - 4)  # b4..b_n; for n = 4, beta4 is b_n
    return f"catalog:F2:{n}:" + ",".join(params[: n - 3] + [gamma])


def test_criterion_5_f2_sum_equality_certified_with_witness_family():
    for n, gamma in F2_STRATA:
        ref = f2_ref(n, "0", gamma)
        alg = la.make(ref)
        gen = matrix_unit(n, n, 2)
        res = aid_space(alg)
        inner = inner_space(alg)
        span_sum = subspace_sum(
            inner, Subspace.from_vectors(n * n, [endo_to_vec(gen)])
        )
        assert res.status == "certified_exact", ref
        assert res.upper_bound == span_sum, ref
        assert aid_certify(alg, gen).kind == "proved", ref
        scale = tuple(Q(1) / as_rational(gamma) if i == 1 else Q(0) for i in range(n))
        assert alg.right_mult(scale).entries == gen.entries, ref


def test_criterion_5_f2_decomposition_is_direct(verify_runs):
    # Checks the recorded claim AID = Inner (+) <E(n,2)> on every stratum.
    # Here it is refuted: [e2,e2] = gamma e_n is the only product with e2 on
    # the right, so R_(e2/gamma) = E(n,2) is inner. verify-paper must keep
    # reporting the refutation with a replayable inner_witness certificate.
    checks = decomposition_checks(verify_runs)
    for n, gamma in F2_STRATA:
        ref = f2_ref(n, "0", gamma)
        scale = tuple(Q(1) / as_rational(gamma) if i == 1 else Q(0) for i in range(n))
        assert_directness_claim(ref, matrix_unit(n, n, 2), scale, checks)


def test_criterion_5_f2_interior_beta_collapses_aid_to_inner():
    for n in (5, 6):
        ref = f2_ref(n, "1", "1")  # b4 = 1 switched on
        alg = la.make(ref)
        gen = matrix_unit(n, n, 2)
        out = aid_certify(alg, gen)
        assert out.kind == "refuted", ref
        assert aid_witness(alg, gen, out.refuting_x) is None, ref
        res = aid_space(alg)
        assert res.status == "certified_exact", ref
        assert res.upper_bound == inner_space(alg), ref


# -- criterion 6: third family, theta3 strata ------------------------------------


def test_criterion_6_f3_theta3_nonzero_adds_exactly_one_direction():
    for n in (5, 6):
        for triple in ("0,0,1", "1,2,3"):
            ref = f"catalog:F3:{n}:{triple}"
            alg = la.make(ref)
            gen = matrix_unit(n, n, 2)
            res = aid_space(alg)
            inner = inner_space(alg)
            assert res.status == "certified_exact", ref
            assert res.dim == inner.dim + 1, ref
            assert not inner.contains(endo_to_vec(gen)), ref
            assert aid_certify(alg, gen).kind == "proved", ref


def test_criterion_6_f3_theta3_zero_outcome_recorded_as_data():
    # pre-flagged open case: computed outcome with certificates, not a claim
    for n in (5, 6):
        ref = f"catalog:F3:{n}:1,1,0"
        alg = la.make(ref)
        gen = matrix_unit(n, n, 2)
        out = aid_certify(alg, gen)
        assert out.kind == "refuted", ref
        assert aid_witness(alg, gen, out.refuting_x) is None, ref
        res = aid_space(alg)
        assert res.status == "certified_exact", ref
        assert res.upper_bound == inner_space(alg), ref


# -- criterion 7: the five-dimensional Lie example --------------------------------


def test_criterion_7_g53_dimensions_and_nilpotency():
    alg = la.make("catalog:G53")
    der = derivation_space(alg)
    inner = inner_space(alg)
    res = aid_space(alg)
    assert der.dim == 10
    assert inner.dim == 4
    assert res.status == "certified_exact"
    assert res.dim == 5
    assert res.dim - inner.dim == 1
    _, nilpotent = subalgebra_nilpotency(res.upper_bound)
    assert nilpotent


# -- criterion 8: dimension at most two --------------------------------------------


def test_criterion_8_small_dimensions_collapse():
    cases = [
        LeibnizAlgebra.build(1, {}),
        LeibnizAlgebra.build(2, {}),
        la.make("catalog:NF:2"),
    ]
    for alg in cases:
        res = aid_space(alg)
        inner = inner_space(alg)
        assert res.status == "certified_exact"
        assert res.upper_bound == inner
        assert rcaid_caid(alg, "right_ann", res.upper_bound) == inner


# -- criterion 9: the structural property suite -------------------------------------


def test_criterion_9_property_suite():
    for ref in CATALOG_BATTERY:
        test_properties.test_inclusion_chain(ref)
        test_properties.test_bracket_closures(ref)
        test_properties.test_rcaid_is_an_ideal_in_aid(ref)
        test_properties.test_bracket_with_right_multiplication(ref)
        test_properties.test_aid_members_map_into_the_derived_subalgebra(ref)
        test_properties.test_aid_of_nilpotent_algebra_is_nilpotent(ref)
        test_properties.test_inner_proved_upper_sandwich(ref)
        test_properties.test_witness_coherence_on_the_full_grid(ref)
    test_properties.test_nilindex_three_collapses_caid_to_aid()
    test_properties.test_zero_center_collapses_caid_to_inner()
    test_properties.test_direct_sum_additivity("catalog:NF:2", "catalog:NF:2")
    test_properties.test_direct_sum_additivity("catalog:D4:L9", "catalog:NF:3")
    test_properties.test_basis_change_equivariance_hundred_draws()
