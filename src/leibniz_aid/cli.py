"""Command line front end.

Commands:

* ``catalog`` — list the built-in families and named instances.
* ``analyze <file|catalog-ref>`` — full report for one algebra (text or JSON).
* ``verify-paper`` — check every row of the catalog's claims table
  (`catalog.paper_claims`); disagreements are reported as deviations with
  machine-checkable certificates.
* ``witness <ref> <endo.json> <x1> ... <xn>`` — replay a certificate: find
  (or fail to find) an element a with D(x) = [x, a].  Either JSON argument
  may be ``-`` for stdin.
* ``fuzz <ref> --basis-changes N --seed S`` — random basis changes, checking
  that every tower dimension is invariant.

Exit codes: 0 success, 1 claim mismatch without certificate coverage (or a
fuzz failure), 2 malformed input.  Reports go to stdout, progress to stderr.
JSON output is deterministic byte for byte for a fixed command line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import algebra as alg_mod
from . import catalog as cat_mod
from . import derivations as der_mod
from .exactlin import Q, RationalMatrix, Subspace, as_rational, _int_rows, _rref_int
from .certify import aid_witness
from .derivations import AidConfig, AnalysisReport

SCHEMA = "aid-report/1"


class InputError(Exception):
    """Anything wrong with user-supplied input; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# loading


def _read_json(source: str):
    """The JSON document in the UTF-8 file `source`, or on stdin for `-`."""
    try:
        if source == "-":
            return json.load(sys.stdin)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{source} is not valid JSON: {exc}") from exc


def _load_algebra(source: str):
    """Returns (algebra, algebra_id, expected-or-None)."""
    if source.startswith("catalog:"):
        try:
            ref = cat_mod.parse_ref(source)
            algebra = cat_mod.make(ref)
        except (cat_mod.UnknownCatalogRef, cat_mod.ArityMismatch) as exc:
            raise InputError(str(exc)) from exc
        except cat_mod.ParameterInvalid as exc:
            msg = str(exc)
            if exc.triple is not None:
                msg = f"violation {exc.triple}: {msg}"
            raise InputError(msg) from exc
        return algebra, ref.ref_string(), cat_mod.expected_for(ref)
    try:
        algebra = alg_mod.from_json_dict(_read_json(source))
    except alg_mod.IdentityViolation as exc:
        raise InputError(
            f"violation ({exc.i},{exc.j},{exc.k}): {exc}"
        ) from exc
    except (ValueError, TypeError, alg_mod.IndexOutOfRange) as exc:
        raise InputError(f"{source}: {exc}") from exc
    name = "stdin" if source == "-" else source.rsplit("/", 1)[-1]
    return algebra, f"file:{name}", None


def _load_endo(source: str, n: int) -> RationalMatrix:
    doc = _read_json(source)
    if isinstance(doc, dict):
        doc = doc.get("matrix")
    if not isinstance(doc, list) or len(doc) != n:
        raise InputError(f"{source}: expected an {n}x{n} matrix")
    rows = []
    for row in doc:
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{source}: expected an {n}x{n} matrix")
        try:
            rows.append([as_rational(v) for v in row])
        except (ValueError, TypeError) as exc:
            raise InputError(f"{source}: bad entry: {exc}") from exc
    return RationalMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# serialization


def _series_json(sr):
    return {
        "dims": list(sr.dims),
        "nilindex": sr.nilindex,
        "nilpotent": sr.nilpotent,
        "null_filiform": sr.null_filiform,
        "filiform": sr.filiform,
    }


def report_json(report: AnalysisReport) -> dict:
    """The `aid-report/1` document of one analysis; the text form renders
    it (`report_text`)."""
    an = report.analysis
    alg, aid, ann = an.alg, an.aid, an.annihilators
    gens = []
    for outcome, pairs in (("proved", aid.proved_generators),
                           ("inconclusive", aid.inconclusive_generators),
                           ("refuted", aid.witnesses)):
        for gmat, detail in pairs:
            entry = {"matrix": cat_mod.matrix_json(gmat),
                     "actions": der_mod.endo_actions(alg, gmat), "outcome": outcome}
            if outcome == "refuted":
                entry["refuting_x"] = cat_mod.vec_json(detail)
            elif detail.branch_log:
                entry["branch_log"] = list(detail.branch_log)
            gens.append(entry)
    notes = [
        "field: Q; sampling and certificates range over rational points only",
        "matrix convention: column j is the image of e_j; transposed "
        "presentations of the same generator are treated as the same object",
    ]
    if aid.status != "certified_exact":
        notes.append("aid not certified exact; rcaid/caid computed from the proved "
                     "lower bound, rcaid_upper/caid_upper from the upper bound")
    return {
        "schema": SCHEMA,
        "algebra": report.algebra_id,
        "dim": alg.dim,
        "field": "Q",
        "labels": list(alg.labels) if alg.labels else None,
        "series": _series_json(an.basis.series),
        "annihilators": {"right": ann.ann_r.dim, "left": ann.ann_l.dim,
                         "center": ann.center.dim},
        "tower": dict(an.tower),
        "aid": {
            "status": aid.status,
            "seed": aid.seed,
            "samples_used": aid.samples_used,
            "upper_dim": aid.upper_bound.dim,
            "proved_dim": aid.proved.dim,
        },
        "complement_generators": gens,
        "witnesses": [{"generator": cat_mod.matrix_json(g), "x": cat_mod.vec_json(x)}
                      for g, x in aid.witnesses],
        "deviations": list(report.deviations),
        "notes": notes,
    }


def report_text(doc: dict) -> str:
    """The text form of an `aid-report/1` document, read from it alone."""
    t, sr, a, aid = doc["tower"], doc["series"], doc["annihilators"], doc["aid"]
    nil = f"nilindex {sr['nilindex']}" if sr["nilpotent"] else "not nilpotent"
    flag = (" (null-filiform)" if sr["null_filiform"]
            else " (filiform)" if sr["filiform"] else "")
    exact = aid["status"] == "certified_exact"

    def bounds(lower: str, upper: str) -> str:
        return str(t[lower]) if exact else f"{t[lower]}..{t[upper]}"

    lines = [
        f"algebra: {doc['algebra']}",
        f"dim: {doc['dim']} over {doc['field']}",
        f"series dims: {' '.join(map(str, sr['dims']))}  [{nil}]{flag}",
        f"annihilators: right {a['right']}, left {a['left']}, center {a['center']}",
        f"tower: Der {t['der']}, Inner {t['inner']}, AID {bounds('aid_proved', 'aid')} "
        f"({aid['status']}), RCAID {bounds('rcaid', 'rcaid_upper')}, "
        f"CAID {bounds('caid', 'caid_upper')}, outer {t['outer']}",
        f"aid sampling: seed {aid['seed']}, samples {aid['samples_used']}",
    ]
    if doc["complement_generators"]:
        lines.append("complement generators over Inner:")
        for g in doc["complement_generators"]:
            at = f" at x=({','.join(g['refuting_x'])})" if "refuting_x" in g else ""
            lines.append(f"  - {g['outcome']}{at}: {'; '.join(g['actions'])}")
    else:
        lines.append("complement generators over Inner: none (AID = Inner)")
    if doc["deviations"]:
        lines.append("deviations from expected values:")
        for d in doc["deviations"]:
            lines.append(
                f"  - {d['location']}: expected {d['expected']}, computed {d['computed']} "
                f"[certificate: {d['certificate'].get('kind', 'none')}]"
            )
    else:
        lines.append("deviations from expected values: none")
    lines.extend(f"note: {note}" for note in doc["notes"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _cmd_catalog(_args) -> int:
    for entry in cat_mod.list_entries():
        dim = str(entry.dim) if entry.dim is not None else "n"
        bits = [f"{entry.entry_id:<8} dim {dim:<2} params: {entry.arity:<28}"]
        bits.append(entry.source)
        if entry.expected is not None:
            e = entry.expected
            dims = ("Inner", e.inner), ("RCAID", e.rcaid), ("AID", e.aid), ("Der", e.der)
            exp = [f"{name} {v}" for name, v in dims if v is not None]
            if e.generator_label:
                exp.append(f"D={e.generator_label}")
            bits.append(f"expected: {', '.join(exp)}")
        if entry.note:
            bits.append(f"[{entry.note}]")
        print("  ".join(bits))
    return 0


def _cmd_analyze(args) -> int:
    algebra, algebra_id, expected = _load_algebra(args.source)
    cfg = AidConfig() if args.seed is None else AidConfig(seed=args.seed)
    print(f"analyzing {algebra_id} ...", file=sys.stderr)
    doc = report_json(der_mod.analysis_report(algebra, cfg, algebra_id, expected))
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        sys.stdout.write(report_text(doc))
    return 0


def _cmd_witness(args) -> int:
    algebra, algebra_id, _ = _load_algebra(args.source)
    endo = _load_endo(args.endo, algebra.dim)
    if len(args.coords) != algebra.dim:
        raise InputError(
            f"need {algebra.dim} coordinates for x, got {len(args.coords)}"
        )
    try:
        x = tuple(as_rational(c) for c in args.coords)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad coordinate: {exc}") from exc
    witness = aid_witness(algebra, endo, x)
    doc = {
        "schema": "aid-witness/1",
        "algebra": algebra_id,
        "x": cat_mod.vec_json(x),
        "witness": cat_mod.vec_json(witness) if witness is not None else None,
    }
    if witness is not None:
        doc["reproduces"] = list(algebra.product(x, witness)) == list(endo.apply(x))
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_fuzz(args) -> int:
    import random

    if args.basis_changes < 0:
        raise InputError(f"--basis-changes must be nonnegative, not {args.basis_changes}")
    algebra, algebra_id, _ = _load_algebra(args.source)
    base = der_mod.analysis(algebra)
    rng = random.Random(args.seed)
    n = algebra.dim
    failures = []
    statuses = {base.aid.status: 1}
    for trial in range(args.basis_changes):
        p = _random_invertible(rng, n)
        an = der_mod.analysis(alg_mod.change_basis(algebra, p))
        statuses[an.aid.status] = statuses.get(an.aid.status, 0) + 1
        if an.upper_dims() != base.upper_dims():
            failures.append({
                "trial": trial,
                "matrix": cat_mod.matrix_json(p),
                "dims": an.upper_dims(),
            })
        print(f"fuzz {algebra_id} trial {trial + 1}/{args.basis_changes}",
              file=sys.stderr)
    doc = {
        "schema": "aid-fuzz/1",
        "algebra": algebra_id,
        "seed": args.seed,
        "basis_changes": args.basis_changes,
        "reference_dims": base.upper_dims(),
        "statuses": dict(sorted(statuses.items())),
        "failures": failures,
        "ok": not failures,
    }
    print(json.dumps(doc, indent=2))
    return 0 if not failures else 1


def _random_invertible(rng, n: int) -> RationalMatrix:
    """A random n x n matrix with entries in [-2, 2], redrawn until its
    integer rows have rank n."""
    while True:
        rows = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if len(_rref_int(_int_rows(rows))) == n:
            return RationalMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# verify-paper battery


def _claim_algebra(ref: str):
    if ref.startswith("abelian:"):
        return alg_mod.LeibnizAlgebra.build(int(ref.split(":")[1]), {})
    return cat_mod.make(ref)


def _evaluate(claim: cat_mod.Claim) -> dict:
    """One check of the claims table, on one analysis of its algebra."""
    table = claim.kind == "table"
    print(f"verify: {'table ' if table else ''}{claim.ref}", file=sys.stderr)
    algebra = _claim_algebra(claim.ref)
    if table:
        ref = cat_mod.parse_ref(claim.ref)
        report = der_mod.analysis_report(
            algebra, algebra_id=ref.ref_string(), expected=cat_mod.expected_for(ref)
        )
        return _check(claim, not report.deviations, report.deviations,
                      {"tower": dict(report.analysis.tower),
                       "status": report.analysis.aid.status})
    deviations = []
    an = der_mod.analysis(algebra)
    der, inner, aid = an.der, an.inner, an.aid
    exact = aid.status == "certified_exact"
    values = {"status": aid.status, "der_dim": der.dim,
              "aid_dim": aid.upper_bound.dim, "inner_dim": inner.dim}
    # Inner <= RCAID <= AID, so AID = Inner forces RCAID = Inner: RCAID is
    # computed only for the claims that report it
    rcaid = None
    if "rcaid_dim" in claim.fields:
        rcaid = an.rcaid[0]
        values["rcaid_dim"] = rcaid.dim
    collapses = exact and aid.upper_bound == inner
    gen = claim.generator
    if gen is not None:
        outcome, combination = an.judge(gen)
        values["generator_certified"] = values["generator_outcome"] = outcome.kind
        if outcome.kind == "refuted":
            values["refuting_x"] = cat_mod.vec_json(outcome.refuting_x)
    if claim.kind == "inner-equality":
        passed = collapses and (rcaid is None or rcaid == inner)
    elif claim.kind == "decomposition":
        gen_vec = der_mod.endo_to_vec(gen)
        span_sum = der_mod.subspace_sum(
            inner, Subspace.from_vectors(algebra.dim**2, [gen_vec]))
        sum_ok = (exact and aid.upper_bound == span_sum
                  and outcome.kind == "proved")
        if claim.scale is not None:  # the witness family: gen = R_(e2/scale)
            e2_scaled = [v / claim.scale for v in algebra.basis_coords(1)]
            sum_ok = sum_ok and algebra.right_mult(e2_scaled) == gen
        values["sum_matches"] = sum_ok
        direct = combination is None
        if not direct:
            deviations.append({
                "location": f"{claim.ref}:decomposition",
                "expected": "generator independent of Inner (direct sum)",
                "computed": "generator already inner",
                "certificate": cat_mod.inner_witness_certificate(algebra, gen, combination),
            })
        passed = sum_ok and direct
    elif claim.kind == "refutation":
        passed = (outcome.kind == "refuted" and collapses
                  and aid_witness(algebra, gen, outcome.refuting_x) is None)
    elif claim.kind == "dims":
        want = cat_mod.expected_for(cat_mod.parse_ref(claim.ref))
        series_dims, nilpotent = der_mod.subalgebra_nilpotency(aid.upper_bound)
        values["aid_nilpotent"] = nilpotent
        values["aid_series"] = list(series_dims)
        passed = (exact and nilpotent
                  and (der.dim, inner.dim, aid.upper_bound.dim)
                  == (want.der, want.inner, want.aid))
    else:  # data: reported, not claimed
        passed = True
    return _check(claim, passed, deviations, values)


def _check(claim: cat_mod.Claim, passed: bool, deviations, values: dict) -> dict:
    entry = {"name": f"{claim.kind}:{claim.ref}", "passed": passed,
             "deviations": list(deviations)}
    # refuting_x exists only for a refuted generator
    entry.update((f, values[f]) for f in claim.fields if f in values)
    return entry


def _cmd_verify(args) -> int:
    nmax = args.nmax
    if nmax < 0:
        raise InputError(f"--nmax must be nonnegative, not {nmax}")
    checks = [_evaluate(claim) for claim in cat_mod.paper_claims(nmax)]
    all_passed = all(c["passed"] for c in checks)
    deviations = [d for c in checks for d in c["deviations"]]
    certified = all(d["certificate"] for d in deviations)
    covered = all(c["passed"] or c["deviations"] for c in checks)
    if all_passed:
        code = 0
    elif args.deviations_ok and certified and covered:
        code = 0
    else:
        code = 1
    doc = {
        "schema": "aid-verify/1",
        "nmax": nmax,
        "deviations_ok": bool(args.deviations_ok),
        "checks": checks,
        "deviation_count": len(deviations),
        "all_passed": all_passed,
        "exit_code": code,
    }
    print(json.dumps(doc, indent=2))
    return code


# ---------------------------------------------------------------------------
# entry point


# built on the first call to main and shared by every later one
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibniz-aid",
        description="Derivation towers of Leibniz algebras over Q, "
                    "with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in algebras")
    p.set_defaults(run=_cmd_catalog)

    p = sub.add_parser("analyze", help="analyze one algebra")
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("source", help="algebra JSON file, - for stdin, or catalog:REF")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify-paper",
                       help="check the published dimension claims")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--deviations-ok", action="store_true",
                   help="exit 0 when every mismatch carries a certificate")
    p.add_argument("--nmax", type=int, default=8,
                   help="largest null-filiform dimension to check")

    p = sub.add_parser("witness", help="replay a membership certificate")
    p.set_defaults(run=_cmd_witness)
    p.add_argument("source", help="algebra JSON file, - for stdin, or catalog:REF")
    p.add_argument("endo", help="JSON file with the endomorphism matrix, - for stdin")
    p.add_argument("coords", nargs="*", help="coordinates of x")

    p = sub.add_parser("fuzz", help="random basis-change invariance checks")
    p.set_defaults(run=_cmd_fuzz)
    p.add_argument("source", help="algebra JSON file, - for stdin, or catalog:REF")
    p.add_argument("--basis-changes", type=int, default=20)
    p.add_argument("--seed", type=int, default=der_mod.DEFAULT_SEED)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
