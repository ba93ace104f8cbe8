"""Named Leibniz algebra families and instances, with published dimensions.

Reference grammar: ``catalog:<FAMILY>:<n>[:<p1>,<p2>,...]`` where FAMILY is
one of NF, F1, F2, F3, D3, D4, G53.  For the dimension families the second
component is the dimension (``catalog:NF:5``, ``catalog:F1:4:1,0``); for the
fixed-dimension example lists it is the entry label (``catalog:D4:L9``,
``catalog:D3:L1:1/2``); G53 stands alone.  Parameters are rationals in p/q
form.

Each fixed-dimension family is one table (`_EXAMPLES`) of entries holding
their products, checked alpha values and recorded data; parsing, building,
listing, `expected_for` and `paper_claims` all read it.

Seven of the four-dimensional entries and the five-dimensional Lie example
carry expected dimension data (Inner/RCAID/AID/Der and a claimed complement
generator).  `build_deviations` compares an analysis, the one value
`derivations.analysis` builds, against that data, and judges a claimed
generator in the analysis's series-adapted basis (`Analysis.judge`).  It
attaches a machine-checkable certificate to every disagreement:
either a concrete refuting x for a claimed generator, an explicit inner
combination showing the generator adds nothing, or per-member global-x
witnesses for a larger-than-expected restricted space.  A claimed generator
that certification cannot decide is reported with an empty certificate,
which `verify-paper --deviations-ok` does not excuse.

`paper_claims` is the table of the paper's claims that `verify-paper`
checks: one `Claim` row per check, naming the kind of claim, the algebra,
the claimed generator and F1/F2 scale where there is one, and the fields
the check reports.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .algebra import IdentityViolation, LeibnizAlgebra
from .derivations import (
    Analysis,
    endo_actions,
    matrix_unit,
    restriction_witness,
    vec_to_endo,
)
from .exactlin import (
    Q,
    QZERO,
    RationalMatrix,
    as_rational,
    format_rational,
)

FAMILIES = ("NF", "F1", "F2", "F3", "D3", "D4", "G53")


class UnknownCatalogRef(ValueError):
    """The reference string does not name a catalog entry."""


class ArityMismatch(ValueError):
    """Wrong number of parameters for the family."""


class ParameterInvalid(ValueError):
    """Parameters violate the algebra's defining identity or a domain rule."""

    def __init__(self, message: str, triple: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.triple = triple


@dataclass(frozen=True)
class CatalogRef:
    family: str
    n: int
    entry: str | None = None
    params: tuple[Q, ...] = ()

    def ref_string(self) -> str:
        parts = ["catalog", self.family]
        if self.entry is not None:
            parts.append(self.entry)
        elif self.family != "G53":
            parts.append(str(self.n))
        if self.params:
            parts.append(",".join(format_rational(p) for p in self.params))
        return ":".join(parts)


@dataclass(frozen=True)
class ExpectedData:
    inner: int | None = None
    rcaid: int | None = None
    aid: int | None = None
    der: int | None = None
    generator: RationalMatrix | None = None
    generator_label: str | None = None


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    dim: int | None
    arity: str
    source: str
    expected: ExpectedData | None = None
    note: str | None = None


def parse_ref(text: str) -> CatalogRef:
    parts = text.split(":")
    if not parts or parts[0] != "catalog" or len(parts) < 2:
        raise UnknownCatalogRef(f"not a catalog reference: {text!r}")
    family = parts[1]
    if family not in FAMILIES:
        raise UnknownCatalogRef(f"unknown family {family!r} in {text!r}")
    if family == "G53":
        if len(parts) != 2:
            raise UnknownCatalogRef(f"G53 takes no further components: {text!r}")
        return CatalogRef("G53", 5)
    if len(parts) < 3:
        raise UnknownCatalogRef(f"missing component after family: {text!r}")
    if len(parts) > 4:
        raise UnknownCatalogRef(f"too many components: {text!r}")
    params: tuple[Q, ...] = ()
    if len(parts) == 4:
        try:
            params = tuple(as_rational(p.strip()) for p in parts[3].split(","))
        except (ValueError, TypeError) as exc:
            raise UnknownCatalogRef(f"bad parameter list in {text!r}: {exc}") from exc
    if family in _EXAMPLES:
        entry = parts[2]
        if entry not in _EXAMPLES[family].entries:
            raise UnknownCatalogRef(f"unknown {family} entry {entry!r}")
        return CatalogRef(family, _EXAMPLES[family].dim, entry, params)
    # only plain decimal digits: int() would also read "1_0", "+5", " 5"
    if not (parts[2].isascii() and parts[2].isdigit()):
        raise UnknownCatalogRef(f"bad dimension in {text!r}")
    return CatalogRef(family, int(parts[2]), None, params)


# ---------------------------------------------------------------------------
# family builders


def _build(dim: int, products) -> LeibnizAlgebra:
    try:
        return LeibnizAlgebra.build(dim, products)
    except IdentityViolation as exc:
        raise ParameterInvalid(str(exc), triple=(exc.i, exc.j, exc.k)) from exc


def _nf(n: int) -> LeibnizAlgebra:
    if n < 1:
        raise ParameterInvalid("NF needs dimension >= 1")
    products = {(i, 1): {i + 1: 1} for i in range(1, n)}
    return _build(n, products)


def _f1(n: int, params: tuple[Q, ...]) -> LeibnizAlgebra:
    if n < 3:
        raise ParameterInvalid("F1 needs dimension >= 3")
    if len(params) != n - 2:
        raise ArityMismatch(f"F1 in dimension {n} expects {n - 2} parameters "
                            f"(a4..a{n}, theta), got {len(params)}")
    alphas = {s: params[s - 4] for s in range(4, n + 1)}
    theta = params[-1]
    products: dict[tuple[int, int], dict[int, Q]] = {(1, 1): {3: Q(1)}}
    for i in range(2, n):
        products[(i, 1)] = {i + 1: Q(1)}
    col = {s: alphas[s] for s in range(4, n) if alphas[s]}
    if theta:
        col[n] = col.get(n, QZERO) + theta
    if col:
        products[(1, 2)] = col
    for j in range(2, n - 1):
        col = {}
        for s in range(4, n - j + 3):
            if alphas[s]:
                col[s + j - 2] = alphas[s]
        if col:
            products[(j, 2)] = col
    return _build(n, products)


def _f2(n: int, params: tuple[Q, ...]) -> LeibnizAlgebra:
    if n < 3:
        raise ParameterInvalid("F2 needs dimension >= 3")
    if len(params) != n - 2:
        raise ArityMismatch(f"F2 in dimension {n} expects {n - 2} parameters "
                            f"(b4..b{n}, gamma), got {len(params)}")
    betas = {k: params[k - 4] for k in range(4, n + 1)}
    gamma = params[-1]
    products: dict[tuple[int, int], dict[int, Q]] = {(1, 1): {3: Q(1)}}
    for i in range(3, n):
        products[(i, 1)] = {i + 1: Q(1)}
    col = {k: betas[k] for k in range(4, n + 1) if betas[k]}
    if col:
        products[(1, 2)] = col
    if gamma:
        products[(2, 2)] = {n: gamma}
    for i in range(3, n - 1):
        col = {}
        for k in range(4, n + 3 - i):
            if betas[k]:
                col[k + i - 2] = betas[k]
        if col:
            products[(i, 2)] = col
    return _build(n, products)


def _f3(n: int, params: tuple[Q, ...]) -> LeibnizAlgebra:
    if n < 4:
        raise ParameterInvalid("F3 needs dimension >= 4")
    if len(params) == 3:
        params = params + (QZERO,) * (n - 4)
    if len(params) != n - 1:
        raise ArityMismatch(f"F3 in dimension {n} expects 3 or {n - 1} parameters "
                            f"(theta1..theta3, b5..b{n}), got {len(params)}")
    t1, t2, t3 = params[0], params[1], params[2]
    betas = {k: params[k - 2] for k in range(5, n + 1)}
    products: dict[tuple[int, int], dict[int, Q]] = {}
    if t1:
        products[(1, 1)] = {n: t1}
    products[(1, 2)] = {3: Q(-1)}
    if t2:
        products[(1, 2)][n] = products[(1, 2)].get(n, QZERO) + t2
    if t3:
        products[(2, 2)] = {n: t3}
    for i in range(2, n):
        products[(i, 1)] = {i + 1: Q(1)}
    for i in range(3, n):
        products[(1, i)] = {i + 1: Q(-1)}
    for i in range(3, n - 1):
        col = {}
        for k in range(5, n - i + 4):
            if betas[k]:
                col[k + i - 3] = betas[k]
        if col:
            products[(i, 2)] = col
            products[(2, i)] = {m: -v for m, v in col.items()}
    return _build(n, products)


@dataclass(frozen=True)
class _Example:
    """A fixed-dimension entry: its products, or a function of alpha giving
    them, the alpha values the paper checks, its recorded data and note."""

    products: dict | Callable[[Q], dict]
    alphas: tuple[str, ...] = ()
    expected: ExpectedData | None = None
    note: str | None = None


@dataclass(frozen=True)
class _Examples:  # a fixed-dimension family, its entries in report order
    dim: int
    source: str
    entries: dict[str, _Example]


def _l20(alpha: Q) -> dict:
    if alpha == 1:
        raise ParameterInvalid("L20 is undefined at alpha = 1 "
                               "(coefficient (1+alpha)/(1-alpha) has a pole)")
    return {(1, 2): {4: 1}, (2, 2): {3: 1}, (2, 1): {4: (1 + alpha) / (1 - alpha)}}


_E42 = matrix_unit(4, 4, 2)

_EXAMPLES = {
    "D3": _Examples(3, "three-dimensional nilpotent examples", {
        "L1": _Example(lambda alpha: {(2, 2): {1: 1}, (2, 3): {1: 1}, (3, 3): {1: alpha}},
                       alphas=("0", "1", "-1", "2")),
        "L2": _Example({(2, 2): {1: 1}, (3, 2): {1: 1}, (2, 3): {1: 1}}),
        "L3": _Example({(2, 2): {1: 1}, (3, 3): {1: 1}, (3, 2): {1: 1}, (2, 3): {1: 1}}),
        "L4": _Example({(3, 3): {1: 1}}),
        "L5": _Example({(2, 3): {1: 1}, (3, 3): {1: 1}}),
        "L6": _Example({(3, 3): {1: 1}, (1, 3): {2: 1}}),
    }),
    "D4": _Examples(4, "four-dimensional nilpotent classification (seven of 28 entries)", {
        "L4": _Example(lambda alpha: {(1, 1): {3: 1}, (2, 1): {3: 1}, (2, 2): {4: 1},
                                      (3, 1): {4: 1}, (1, 2): {4: alpha}},
                       alphas=("0", "1"), expected=ExpectedData(2, 2, 3, 4, _E42, "E(4,2)")),
        "L9": _Example({(1, 1): {4: 1}, (2, 1): {3: 1}, (2, 2): {4: 1},
                        (1, 2): {3: -1, 4: 2}, (3, 1): {4: 1}, (1, 3): {4: -1}},
                       expected=ExpectedData(3, 3, 4, 4, _E42, "E(4,2)")),
        "L10": _Example({(1, 1): {4: 1}, (2, 1): {3: 1}, (2, 2): {4: 1},
                         (3, 1): {4: 1}, (1, 2): {3: -1}, (1, 3): {4: -1}},
                        expected=ExpectedData(3, 3, 4, 4, _E42, "E(4,2)")),
        "L11": _Example({(1, 1): {4: 1}, (1, 2): {3: 1}, (2, 1): {3: -1}, (2, 2): {3: -2, 4: 1}},
                        expected=ExpectedData(2, 2, 3, 5, _E42, "E(4,2)")),
        "L12": _Example({(1, 1): {3: 1}, (2, 1): {4: 1}, (2, 2): {3: -1}},
                        expected=ExpectedData(2, 2, 3, 5, _E42, "E(4,2)")),
        "L13": _Example(lambda alpha: {(1, 1): {3: 1}, (1, 2): {4: 1}, (2, 2): {4: -1},
                                       (2, 1): {3: -alpha}},
                        alphas=("0", "1", "2"),
                        expected=ExpectedData(2, 2, 4, 5, _E42 + matrix_unit(4, 3, 2),
                                              "E(4,2)+E(3,2)")),
        "L20": _Example(_l20, alphas=("0", "2"),
                        expected=ExpectedData(2, 2, 3, 7, _E42, "E(4,2)"), note="alpha != 1"),
    }),
}


def _example(ref: CatalogRef) -> LeibnizAlgebra:
    examples = _EXAMPLES[ref.family]
    products = examples.entries[ref.entry].products
    if callable(products):
        if len(ref.params) != 1:
            raise ArityMismatch(f"{ref.family} {ref.entry} expects one parameter (alpha)")
        products = products(ref.params[0])
    elif ref.params:
        raise ArityMismatch(f"{ref.family} {ref.entry} takes no parameters")
    return _build(examples.dim, products)


def _g53() -> LeibnizAlgebra:
    pairs = [((1, 2), 4), ((1, 4), 5), ((2, 3), 5)]
    products: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j), k in pairs:
        products[(i, j)] = {k: 1}
        products[(j, i)] = {k: -1}
    return _build(5, products)


def make(ref: CatalogRef | str) -> LeibnizAlgebra:
    if isinstance(ref, str):
        ref = parse_ref(ref)
    if ref.family == "NF":
        if ref.params:
            raise ArityMismatch("NF takes no parameters")
        return _nf(ref.n)
    if ref.family == "F1":
        return _f1(ref.n, ref.params)
    if ref.family == "F2":
        return _f2(ref.n, ref.params)
    if ref.family == "F3":
        return _f3(ref.n, ref.params)
    if ref.family in _EXAMPLES:
        return _example(ref)
    if ref.family == "G53":
        if ref.params:
            raise ArityMismatch("G53 takes no parameters")
        return _g53()
    raise UnknownCatalogRef(f"unknown family {ref.family!r}")


# ---------------------------------------------------------------------------
# expected dimension data


_G53_EXPECTED = ExpectedData(inner=4, rcaid=None, aid=5, der=10)


def expected_for(ref: CatalogRef) -> ExpectedData | None:
    if ref.family in _EXAMPLES:
        example = _EXAMPLES[ref.family].entries.get(ref.entry)
        return example.expected if example else None
    if ref.family == "G53":
        return _G53_EXPECTED
    return None


# ---------------------------------------------------------------------------
# the paper's claims


@dataclass(frozen=True)
class Claim:
    """One `verify-paper` check: a claim of kind `kind` about the algebra
    `ref` (a catalog reference or ``abelian:<n>``), reported with `fields`.

    * ``table`` - the recorded `expected_for(ref)` data hold;
    * ``inner-equality`` - AID = Inner, certified exact;
    * ``decomposition`` - AID = Inner + <generator>, the generator certified
      almost inner, the sum direct and, when `scale` s is given, the
      generator equal to R_(e2/s);
    * ``refutation`` - the generator is refuted at an explicit x and
      AID = Inner;
    * ``data`` - the generator's outcome is reported, nothing is claimed;
    * ``dims`` - Der, Inner and AID have the recorded dimensions, AID is
      certified exact and a nilpotent Lie algebra.
    """

    kind: str
    ref: str
    fields: tuple[str, ...]
    generator: RationalMatrix | None = None
    scale: Q | None = None


_SUM_FIELDS = ("sum_matches", "generator_certified", "status")
_REFUTED_FIELDS = ("status", "generator_outcome", "refuting_x")


def _checked_refs(family: str) -> list[str]:
    """The references the paper checks in a fixed-dimension family, in table
    order: an entry at each of its checked alphas, or once if it has none."""
    refs = []
    for label, example in _EXAMPLES[family].entries.items():
        ref = f"catalog:{family}:{label}"
        refs += [f"{ref}:{alpha}" for alpha in example.alphas] or [ref]
    return refs


def paper_claims(nmax: int) -> tuple[Claim, ...]:
    """The claims `verify-paper` checks, in report order; the null-filiform
    algebras run up to dimension `nmax`."""
    claims = [Claim("table", ref, ("tower", "status")) for ref in _checked_refs("D4")]
    claims += [Claim("inner-equality", f"catalog:NF:{n}",
                     ("status", "aid_dim", "inner_dim"))
               for n in range(2, nmax + 1)]
    claims += [Claim("inner-equality", ref, ("status", "aid_dim", "rcaid_dim", "inner_dim"))
               for ref in _checked_refs("D3")]
    for n in (4, 5, 6, 7):  # F1(a4..an, theta): a_n alone, then theta too
        gen = matrix_unit(n, n, 2)
        zeros = "0," * (n - 4)
        for a_n in ("1", "2", "-3/2"):
            claims.append(Claim("decomposition", f"catalog:F1:{n}:{zeros}{a_n},0",
                                _SUM_FIELDS, gen, Q(a_n)))
        claims.append(Claim("refutation", f"catalog:F1:{n}:{zeros}1,1",
                            _REFUTED_FIELDS, gen))
    for n in (4, 5, 6):  # F2(b4..bn, gamma) with gamma alone
        zeros = "0," * (n - 3)
        for gamma in ("1", "3"):
            claims.append(Claim("decomposition", f"catalog:F2:{n}:{zeros}{gamma}",
                                _SUM_FIELDS, matrix_unit(n, n, 2), Q(gamma)))
    for n in (5, 6):  # b4 = gamma = 1: the remark says AID = Inner
        params = ",".join(["1"] + ["0"] * (n - 4) + ["1"])
        claims.append(Claim("refutation", f"catalog:F2:{n}:{params}",
                            _REFUTED_FIELDS, matrix_unit(n, n, 2)))
    for n in (5, 6):
        gen = matrix_unit(n, n, 2)
        for thetas in ("0,0,1", "1,2,3"):
            claims.append(Claim("decomposition", f"catalog:F3:{n}:{thetas}",
                                ("status", "aid_dim", "inner_dim",
                                 "generator_certified"), gen))
        # theta3 = 0: an open question, so the outcome is data
        claims.append(Claim("data", f"catalog:F3:{n}:1,1,0",
                            ("status", "aid_dim", "inner_dim",
                             "generator_outcome", "refuting_x"), gen))
    claims.append(Claim("dims", "catalog:G53",
                        ("der_dim", "inner_dim", "aid_dim", "status",
                         "aid_nilpotent", "aid_series")))
    claims += [Claim("inner-equality", ref, ("aid_dim", "inner_dim"))
               for ref in ("abelian:1", "abelian:2", "catalog:NF:2")]
    return tuple(claims)


def list_entries() -> tuple[CatalogEntry, ...]:
    rows = [
        CatalogEntry("NF:n", None, "none", "null-filiform family, any dimension"),
        CatalogEntry("F1:n", None, "a4..an, theta",
                     "filiform non-Lie family, first class"),
        CatalogEntry("F2:n", None, "b4..bn, gamma",
                     "filiform non-Lie family, second class"),
        CatalogEntry("F3:n", None, "theta1..theta3 [, b5..bn]",
                     "filiform family containing a filiform Lie algebra"),
    ]
    for family, examples in _EXAMPLES.items():
        rows += [CatalogEntry(f"{family}:{label}", examples.dim,
                              "alpha" if callable(example.products) else "none",
                              examples.source, expected=example.expected, note=example.note)
                 for label, example in examples.entries.items()]
    rows.append(CatalogEntry("G53", 5, "none",
                             "five-dimensional nilpotent Lie example",
                             expected=_G53_EXPECTED))
    return tuple(rows)


# ---------------------------------------------------------------------------
# deviations with certificates


def matrix_json(m: RationalMatrix) -> list[list[str]]:
    return [[format_rational(v) for v in row] for row in m.entries]


def vec_json(v) -> list[str]:
    return [format_rational(x) for x in v]


def inner_witness_certificate(alg: LeibnizAlgebra, gen: RationalMatrix,
                              combination, label: str | None = None) -> dict:
    """Certificate that `gen` is inner: its combination of right
    multiplications (`inner_combination`), to be replayed at a basis vector x."""
    cert = {"kind": "inner_witness", "generator": matrix_json(gen)}
    if label is not None:
        cert["generator_label"] = label
    cert["combination"] = vec_json(combination)
    cert["x"] = vec_json(alg.basis_coords(1 if alg.dim > 1 else 0))
    cert["expects_witness"] = True
    return cert


def _generator_failure(analysis: Analysis, gen: RationalMatrix,
                       label: str) -> tuple[str, dict] | None:
    """Why a claimed complement generator fails; None when it is proved almost
    inner and lies outside Inner.

    Returns (computed, certificate): a refuting x, or the generator's
    combination of right multiplications when it cannot extend Inner.  An
    inconclusive certification has no certificate, so no `--deviations-ok`
    run excuses it.  The generator is judged in the analysis's basis.
    """
    outcome, combination = analysis.judge(gen)
    if outcome.kind == "refuted":
        return "not an almost inner derivation", {
            "kind": "refuting_x",
            "generator": matrix_json(gen),
            "generator_label": label,
            "x": vec_json(outcome.refuting_x),
            "expects_witness": False,
        }
    if combination is not None:
        return "already an inner derivation", inner_witness_certificate(
            analysis.alg, gen, combination, label)
    if outcome.kind == "inconclusive":
        return f"certification inconclusive: {outcome.branch_log[-1]}", {}
    return None


def build_deviations(analysis: Analysis, expected: ExpectedData, algebra_id: str) -> list[dict]:
    """Compare an analysis against the recorded expected values: one
    document {location, expected, computed, certificate} per disagreement.

    Der lies in the analysis's series-adapted basis, the other spaces in
    the given one; RCAID is read from AID's proved bound.
    """
    out: list[dict] = []

    def deviation(where: str, want: str, got: str, certificate: dict) -> None:
        out.append({"location": f"{algebra_id}:{where}", "expected": want,
                    "computed": got, "certificate": certificate})

    alg, der, inner, aid = analysis.alg, analysis.der, analysis.inner, analysis.aid
    if expected.der is not None and der.dim != expected.der:
        basis = [matrix_json(vec_to_endo(v, alg.dim))
                 for v in analysis.basis.space_back(der).basis_vectors()]
        deviation("der", str(expected.der), str(der.dim),
                  {"kind": "derivation_basis", "basis": basis})
    if expected.inner is not None and inner.dim != expected.inner:
        basis = [matrix_json(alg.right_mult(alg.basis_coords(j)))
                 for j in range(alg.dim)]
        deviation("inner", str(expected.inner), str(inner.dim),
                  {"kind": "inner_basis", "basis": basis})
    gen_computed, gen_cert = None, {}
    if expected.generator is not None:
        gen_computed, gen_cert = _generator_failure(
            analysis, expected.generator, expected.generator_label) or (None, {})
    aid_differs = expected.aid is not None and aid.upper_bound.dim != expected.aid
    if aid_differs:
        # a failing generator's certificate explains the AID mismatch best
        cert = gen_cert or {
            "kind": "aid_basis",
            "basis": [matrix_json(vec_to_endo(v, alg.dim))
                      for v in aid.upper_bound.basis_vectors()],
            "status": aid.status,
        }
        deviation("aid", str(expected.aid), str(aid.upper_bound.dim), cert)
    if gen_computed is not None and not (aid_differs and gen_cert):
        deviation("generator", f"{expected.generator_label} spans AID over Inner",
                  gen_computed, gen_cert)
    rcaid = analysis.rcaid[0]
    if expected.rcaid is not None and rcaid.dim != expected.rcaid:
        members = []
        for v in rcaid.basis_vectors():
            m = vec_to_endo(v, alg.dim)
            gx = restriction_witness(alg, m, analysis.annihilators.ann_r)
            members.append({
                "matrix": matrix_json(m),
                "actions": endo_actions(alg, m),
                "global_x": vec_json(gx) if gx is not None else None,
            })
        deviation("rcaid", str(expected.rcaid), str(rcaid.dim),
                  {"kind": "restricted_members", "target": "right_ann",
                   "members": members,
                   "generator": members[-1]["matrix"] if members else None,
                   "x": members[-1]["global_x"] if members else None,
                   "expects_witness": True})
    return out
