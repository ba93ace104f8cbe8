"""The case-split certifier on its own: row stripping, the zero branch,
powers of linear forms, the leaves `_decide` yields, the refutation search,
the node budget and the pointwise witness."""

from __future__ import annotations

import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_aid import certify
from leibniz_aid._poly import Poly
from leibniz_aid.algebra import change_basis
from leibniz_aid.catalog import make
from leibniz_aid.certify import _held_nonzero, _linear_power, _zero_branch, aid_witness
from leibniz_aid.cli import _random_invertible
from leibniz_aid.derivations import aid_certify, aid_space, matrix_unit
from leibniz_aid.exactlin import Q, RationalMatrix

from test_derivations import random_basis_copy


# -- the certifier's elimination step and zero branch --------------------


def _t(k):
    return Poly.var(4, k)


def _c(v):
    return Poly.const(4, v)


_ELL = _t(0) - _t(2).scale(2)  # t1 - 2*t3
_ML = _t(0) * _t(0) * _t(3).scale(2) + _t(0) * _t(1) * _t(3).scale(-6)  # t1*t4*(2*t1 - 6*t2)


# each row is its coefficients, then its right-hand side
CONSTANT_PIVOT_ROWS = [
    [_c(-3), _t(0) + _t(1), _c(0), _t(1).scale(2)],
    [_t(0).scale(Q(1, 2)), _c(5), _t(1), _t(0) - _c(1)],
    [_c(0), _t(1), _t(0), _c(7)],
    [_c(4), _c(0), _t(2).scale(-2), _c(0)],
]


def test_constant_pivot_update_strips_to_the_divided_update():
    # the fraction-free update leaves a constant pivot p on each updated row;
    # the next node's _strip_row divides it out, so the rows are those of
    # the update row - (f/p) * pivot_row
    rows = CONSTANT_PIVOT_ROWS
    pivot = rows[0][0]
    prow = rows[0]
    divided = []
    for row in rows[1:]:
        f = row[0].scale(Q(1) / -3)
        new = [a - f * b for a, b in zip(row, prow)]
        new[0] = _c(0)
        divided.append(new)
    updated = certify._eliminate(rows, 0, 0, pivot)
    none_held = frozenset()
    assert [certify._strip_row(row, none_held) for row in updated] == [
        certify._strip_row(row, none_held) for row in divided
    ]


_T1, _T2, _T3 = (Poly.var(3, k) for k in range(3))
_ZERO3 = Poly.zero(3)

# (row, variables held nonzero, the stripped row as printed)
STRIP_ROW_CASES = [
    # t1 is held nonzero, so the common t1 goes
    ([_T1 * _T2, _ZERO3, (_T1 * _T3).scale(2)], {0}, ["t2", "0", "2*t3"]),
    # t1 may vanish: t1*t2*w1 = 2*t1*t3 does not force t2*w1 = 2*t3 at t1 = 0
    ([_T1 * _T2, _ZERO3, (_T1 * _T3).scale(2)], set(), ["t1*t2", "0", "2*t1*t3"]),
    # a residual row: the monomial and the content -6 both go
    ([_ZERO3, _ZERO3, (_T1 * _T2).scale(-6)], {0}, ["0", "0", "t2"]),
    # only t1 is common, and the content is the first entry's, 4
    ([(_T1 * _T2).scale(4), _T1.scale(6), (_T1 * _T3).scale(2)], {0, 1},
     ["t2", "3/2", "1/2*t3"]),
]


@pytest.mark.parametrize(
    "row, nz, stripped", STRIP_ROW_CASES,
    ids=["held", "not-held", "residual", "content-of-the-first-entry"],
)
def test_strip_row_divides_out_only_held_variables(row, nz, stripped):
    # the row prints divided by the content m of its first entry
    ints, m = certify._strip_row(row, frozenset(nz))
    got = [p.scale(Q(1, m)) for p in ints]
    assert [str(p) for p in got] == stripped


def _held(*nz, polys=()):
    return frozenset(nz), tuple(polys)


# shape -> (pivot, branch state, expected), where the branch state is the
# set of variables held nonzero and the tuple of other polynomials held
# nonzero, and expected is the polynomial the != 0 branch records and the
# zero cases as (label, k, replacement, branch state)
ZERO_BRANCH_SHAPES = {
    "linear": (
        _t(1) * _t(2) + _t(0).scale(2) - _c(3), _held(),
        ("2*t1 + t2*t3 - 3",
         [("2*t1 + t2*t3 - 3 = 0", 0, "-1/2*t2*t3 + 3/2", _held())]),
    ),
    "linear-in-a-later-variable": (
        _t(0) * _t(0) + _t(1).scale(3), _held(),
        ("t1^2 + 3*t2", [("t1^2 + 3*t2 = 0", 1, "-1/3*t1^2", _held())]),
    ),
    "c*l^k": (
        (_ELL * _ELL).scale(-3), _held(),
        ("t1 - 2*t3", [("t1 - 2*t3 = 0", 0, "2*t3", _held())]),
    ),
    "c*t_v^e": (
        (_t(1) * _t(1) * _t(1)).scale(5), _held(),
        ("t2", [("t2 = 0", 1, "0", _held())]),
    ),
    "m*l-none-forced": (
        _ML, _held(2),
        ("2*t1^2*t4 - 6*t1*t2*t4",
         [("t1 = 0", 0, "0", _held(2)),
          ("t4 = 0", 3, "0", _held(2)),
          # t1 != 0 becomes 3*t2 != 0 once t1 := 3*t2
          ("t1 != 0, t4 != 0, 2*t1 - 6*t2 = 0", 0, "3*t2", _held(1, 2, 3))]),
    ),
    "m*l-some-forced": (
        _ML, _held(3),
        ("2*t1^2*t4 - 6*t1*t2*t4",
         [("t1 = 0", 0, "0", _held(3)),
          ("t1 != 0, 2*t1 - 6*t2 = 0", 0, "3*t2", _held(1, 3))]),
    ),
    "m*l-all-forced": (
        _ML, _held(0, 3),
        ("2*t1^2*t4 - 6*t1*t2*t4",
         [("2*t1 - 6*t2 = 0", 0, "3*t2", _held(0, 3))]),
    ),
    "m*l^k": (
        _t(2) * (_t(0) - _t(1)) * (_t(0) - _t(1)), _held(),
        ("t1^2*t3 - 2*t1*t2*t3 + t2^2*t3",
         [("t3 = 0", 2, "0", _held()), ("t3 != 0, t1 - t2 = 0", 0, "t2", _held(2))]),
    ),
    "m*c": (
        (_t(0) * _t(2)).scale(-2), _held(0),
        ("-2*t1*t3", [("t3 = 0", 2, "0", _held(0))]),
    ),
    # l = t1 + t2*t3 has total degree 2, but is linear in t1
    "m*l-nonlinear-l": (
        _t(0) * _t(3) + _t(1) * _t(2) * _t(3), _held(),
        ("t1*t4 + t2*t3*t4",
         [("t4 = 0", 3, "0", _held()),
          ("t4 != 0, t1 + t2*t3 = 0", 0, "-t2*t3", _held(3))]),
    ),
    # t1 != 0 becomes -t2 - t3 != 0 once t1 := -t2 - t3, which is held as
    # a polynomial; the polynomials the branch held already stay
    "m*l-solved-for-a-variable-of-m": (
        _t(0) * (_t(0) + _t(1) + _t(2)), _held(polys=[_t(1) + _t(3)]),
        ("t1^2 + t1*t2 + t1*t3",
         [("t1 = 0", 0, "0", _held(polys=[_t(1) + _t(3)])),
          ("t1 != 0, t1 + t2 + t3 = 0", 0, "-t2 - t3",
           _held(polys=[_t(1) + _t(3), -_t(1) - _t(2)]))]),
    ),
    # t1 != 0 becomes -1 != 0 once t1 := -1, which holds nothing new
    "m*l-solved-to-a-constant": (
        _t(0) * (_t(0) + _c(1)), _held(3),
        ("t1^2 + t1",
         [("t1 = 0", 0, "0", _held(3)), ("t1 != 0, t1 + 1 = 0", 0, "-1", _held(3))]),
    ),
}


@pytest.mark.parametrize("shape", sorted(ZERO_BRANCH_SHAPES))
def test_zero_branch_splits_each_solvable_shape(shape):
    pivot, held, (split, cases) = ZERO_BRANCH_SHAPES[shape]
    got_split, got_cases = _zero_branch(pivot, *held)
    assert str(got_split) == split
    assert [
        (label, k, str(replacement), state)
        for label, k, replacement, state in got_cases
    ] == cases
    # each case lies in the zero set of the pivot
    for _, k, replacement, _ in got_cases:
        assert pivot.subs_var(k, replacement).is_zero()


def test_zero_branch_of_a_monomial_pivot_keeps_its_variables_apart():
    # the != 0 branch of c*t1*t3 holds t1 and t3 nonzero one at a time
    split, _ = _zero_branch((_t(0) * _t(2)).scale(-2), *_held())
    assert _held_nonzero(*_held(), split) == _held(0, 2)


@pytest.mark.parametrize(
    "pivot",
    [
        _t(0) * _t(0) + _t(1) * _t(1),  # no monomial factor, not a power
        _t(2) * (_t(0) * _t(0) + _t(1) * _t(1)),  # m times a nonlinear form
    ],
    ids=["binary-form", "monomial-times-binary-form"],
)
def test_zero_branch_of_an_unsolvable_pivot_is_none(pivot):
    assert _zero_branch(pivot, *_held()) is None


def _ints(m: RationalMatrix) -> list[list[int]]:
    """An integral D as the integer matrix the certifier's context takes."""
    return [[int(v) for v in row] for row in m.entries]


_ZERO_MATRIX3 = RationalMatrix(3, 3, ((Q(0),) * 3,) * 3)
_ZERO_D3 = _ints(_ZERO_MATRIX3)


# t1^2 + t2*t3 is linear in no variable with a rational coefficient, is
# no power of a linear form and has no monomial factor
UNSOLVABLE_ROWS = [[_T1 * _T1 + _T2 * _T3, _T1]]
# t1*t2 w1 = 0 and (t1^2 + t2*t3) w2 = t3
NESTED_ROWS = [[_T1 * _T2, _ZERO3, _ZERO3], [_ZERO3, _T1 * _T1 + _T2 * _T3, _T3]]
# one row (t1 - t2) w = t3
EMPTIED_ROWS = [[_t(0) - _t(1), _t(2)]]


def test_unsolvable_pivot_leaves_the_certificate_inconclusive():
    # the pivot t1^2 + t2*t3 is a form in three variables, so splitting
    # binary forms leaves it unsolved too
    ctx = certify._CertContext(make("catalog:NF:3"), _ZERO_D3)
    leaves = certify._decide(ctx, UNSOLVABLE_ROWS, frozenset(), (), [], ())
    note = "cannot solve t1^2 + t2*t3 = 0 (nonlinear in every variable)"
    assert list(leaves) == [certify.CertOutcome("inconclusive", branch_log=(note,))]


def test_nested_inconclusive_certification_log_is_pinned():
    # t1*t2 w1 = 0 and (t1^2 + t2*t3) w2 = t3 with D = 0: the t1*t2 != 0
    # branch meets the unsolvable pivot, each zero case leaves the residual
    # t3, which no point refutes, and each undecided leaf keeps its full
    # case path, so the t1 = 0 case's nested t2 = 0 case keeps its parent
    ctx = certify._CertContext(make("catalog:NF:3"), _ZERO_D3)
    leaves = list(certify._decide(ctx, NESTED_ROWS, frozenset(), (), [], ()))
    assert {leaf.kind for leaf in leaves} == {"inconclusive"}
    assert [leaf.branch_log for leaf in leaves] == [
        ("case t1*t2 != 0",
         "cannot solve t1^2 + t2*t3 = 0 (nonlinear in every variable)"),
        ("case t1 = 0, t1 := 0", "case t2 = 0, t2 := 0", "unverified residual t3"),
        ("case t2 = 0, t2 := 0", "case t1 = 0, t1 := 0", "unverified residual t3"),
    ]
    assert certify.NODE_BUDGET - ctx.budget == 10


def _certify_counting_nodes(monkeypatch, alg, dmat, drain=False):
    """aid_certify's outcome and the elimination nodes it used; with drain,
    every branch walks all its leaves before its parent sees the first."""
    contexts = []

    class Counted(certify._CertContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    decide = certify._decide
    with monkeypatch.context() as m:
        m.setattr(certify, "_CertContext", Counted)
        if drain:
            m.setattr(certify, "_decide", lambda *a: iter(list(decide(*a))))
        out = aid_certify(alg, dmat)
    return out, sum(certify.NODE_BUDGET - ctx.budget for ctx in contexts)


@pytest.mark.parametrize(
    "ref, images, refuting_x, lazy, drained",
    [
        # the candidate generator e1 -> e4, e3 -> e5, e4 -> e6
        ("catalog:F2:6:1,0,0,1", [(4, 1), (5, 3), (6, 4)], (-1, -1, 0, 0, 0, 0), 3, 11),
        ("catalog:D4:L11", [(3, 1)], (-1, -1, 0, 0), 4, 7),
    ],
    ids=["F2:6:1,0,0,1", "D4:L11"],
)
def test_certification_stops_at_the_first_refuted_leaf(
    monkeypatch, ref, images, refuting_x, lazy, drained
):
    alg = make(ref)
    n = alg.dim
    dmat = RationalMatrix(n, n, ((Q(0),) * n,) * n)
    for row, col in images:
        dmat = dmat + matrix_unit(n, row, col)
    out, nodes = _certify_counting_nodes(monkeypatch, alg, dmat)
    assert out.kind == "refuted" and out.refuting_x == refuting_x
    assert nodes == lazy
    # walking the leaves after the refuted one finds the same point, later
    out, nodes = _certify_counting_nodes(monkeypatch, alg, dmat, drain=True)
    assert out.refuting_x == refuting_x
    assert nodes == drained


def test_search_refutation_holds_the_branch_conditions():
    # D4:L4:1 with its non-AID derivation E(4,2), and the residual t1
    alg = make("catalog:D4:L4:1")
    dmat = matrix_unit(4, 4, 2)
    ctx = certify._CertContext(alg, _ints(dmat))
    search = certify._search_refutation
    # t1 alone is free, and no point on the t1 axis refutes
    assert search(ctx, _t(0), *_held(), []) is None
    # holding t2 nonzero frees t2 too, and every candidate keeps x2 != 0
    x = search(ctx, _t(0), *_held(1), [])
    assert x == (-1, 1, 0, 0)
    assert aid_witness(alg, dmat, x) is None
    # every point that refutes E(4,2) has x1 + x2 = 0, so holding t1 + t2
    # nonzero as well leaves none
    assert search(ctx, _t(0), *_held(1, polys=[_t(0) + _t(1)]), []) is None


def test_a_zero_case_that_empties_the_branch_yields_nothing():
    # one row (t1 - t2) w = t3 on a branch that holds -t1 + t2 nonzero: the
    # zero case t1 := t2 would leave the residual t3 on an empty region,
    # where no point can refute, so it is skipped and the branch is proved
    ctx = certify._CertContext(make("catalog:D4:L4:1"), _ints(matrix_unit(4, 4, 2)))
    rows = EMPTIED_ROWS
    held = _t(1) - _t(0)
    assert list(certify._decide(ctx, rows, *_held(polys=[held]), [], ())) == []
    # without the held condition the zero case is entered and left open
    [leaf] = certify._decide(ctx, rows, *_held(), [], ())
    assert leaf.branch_log[0] == "case t1 - t2 = 0, t1 := t2"


def test_zero_case_substitution_scales_the_whole_row_by_one_power():
    # t1 := (t2 - 1)/2 in a row whose entries have degrees 2, 1, 0 and 0 in
    # t1: every entry is multiplied by the same 2^2, so the row over the
    # ints is 4 times the row substituted over Q
    row = [_t(0) * _t(0) + _t(1), _t(0).scale(3), _t(2), _c(5)]
    replacement = (_t(1) - _c(1)).scale(Q(1, 2))
    den, (num,) = certify._over_ints([replacement])
    assert (den, num) == (2, _t(1) - _c(1))
    got = certify._substituted(row, 0, num, den)
    assert got == [p.subs_var(0, replacement).scale(4) for p in row]
    assert all(type(c) is int for p in got for c in p.terms.values())
    # a row free of t1 is passed on as the same object
    free = [_t(1), _c(2)]
    assert certify._substituted(free, 0, num, den) is free


# (algebra, D, rows, branch state) of each elimination the tests above run
DECIDE_CASES = {
    "constant-pivot": ("catalog:D4:L4:1", matrix_unit(4, 4, 2), CONSTANT_PIVOT_ROWS, _held()),
    "unsolvable-pivot": ("catalog:NF:3", _ZERO_MATRIX3, UNSOLVABLE_ROWS, _held()),
    "nested-inconclusive": ("catalog:NF:3", _ZERO_MATRIX3, NESTED_ROWS, _held()),
    "emptied-zero-case": ("catalog:D4:L4:1", matrix_unit(4, 4, 2), EMPTIED_ROWS,
                          _held(polys=[_t(1) - _t(0)])),
    "entered-zero-case": ("catalog:D4:L4:1", matrix_unit(4, 4, 2), EMPTIED_ROWS, _held()),
}
# every row fixture above, with the variables held nonzero it is stripped on
STRIPPED_ROWS = [(row, nz) for row, nz, _ in STRIP_ROW_CASES] + [
    (row, set(held[0])) for *_, rows, held in DECIDE_CASES.values() for row in rows
]
SCALES = (Q(-3, 2), Q(7), Q(1, 5), Q(-1))


def _scaled(row, s):
    return [p.scale(s) for p in row]


@pytest.mark.parametrize("i", range(len(STRIPPED_ROWS)))
def test_strip_row_does_not_see_a_rational_factor(i):
    # the stripped row over the ints and its first entry's content are
    # those of every nonzero rational multiple of the row: the rows, pivots
    # and splits of elimination over Q, whose rows differ by such factors
    row, nz = STRIPPED_ROWS[i]
    stripped = certify._strip_row(row, frozenset(nz))
    assert all(type(c) is int for p in stripped[0] for c in p.terms.values())
    for s in SCALES:
        assert certify._strip_row(_scaled(row, s), frozenset(nz)) == stripped, s
        # one rational entry among integer ones
        for j in range(len(row)):
            mixed = row[:j] + [row[j].scale(s)] + row[j + 1:]
            ints, m = certify._strip_row(mixed, frozenset(nz))
            assert all(type(c) is int for p in ints for c in p.terms.values())


@pytest.mark.parametrize("case", sorted(DECIDE_CASES))
def test_decide_leaves_do_not_see_a_rational_factor_on_a_row(case):
    ref, dmat, rows, held = DECIDE_CASES[case]
    alg = make(ref)

    def leaves(rows):
        ctx = certify._CertContext(alg, _ints(dmat))
        out = list(certify._decide(ctx, rows, *held, [], ()))
        return out, certify.NODE_BUDGET - ctx.budget

    expected = leaves(rows)
    for s in SCALES:
        for i in range(len(rows)):
            moved = rows[:i] + [_scaled(rows[i], s)] + rows[i + 1:]
            assert leaves(moved) == expected, (s, i)


# (catalog entry, copies per draw), drawn four times from random.Random(1)
# as the `basis` workload of perfbench draws them
BASIS_DRAWS = (
    ("catalog:G53", 5),
    ("catalog:F3:5:0,0,1", 2),
    ("catalog:F3:5:1,2,3", 3),
    ("catalog:F1:7:0,0,0,1,0", 1),
    ("catalog:F2:6:1,0,0,1", 1),
)


def test_no_refutation_search_runs_on_an_emptied_branch(monkeypatch):
    emptied = []
    searched = []
    search = certify._search_refutation

    def checked(ctx, residual, nz, polys, subs):
        searched.append(residual)
        held = [Poly.var(residual.nvars, v) for v in nz] + list(polys)
        for p in held:
            for k, replacement in subs:
                p = p.subs_var(k, replacement)
            if p.is_zero():
                emptied.append((residual, nz, polys, subs))
        return search(ctx, residual, nz, polys, subs)

    monkeypatch.setattr(certify, "_search_refutation", checked)
    rng = random.Random(1)
    for _ in range(4):
        for ref, copies in BASIS_DRAWS:
            alg = make(ref)
            for _ in range(copies):
                aid_space(change_basis(alg, _random_invertible(rng, alg.dim)))
    # the spy is where the certifier looks the search up
    assert searched
    assert emptied == []


def _recorded_splits(monkeypatch) -> list:
    """Each split `_zero_branch` makes, as (pivot, split, case labels)."""
    splits = []
    zero_branch = certify._zero_branch

    def recording(pivot, nz, polys):
        split, cases = zero_branch(pivot, nz, polys)
        splits.append((str(pivot), str(split), [label for label, *_ in cases]))
        return split, cases

    monkeypatch.setattr(certify, "_zero_branch", recording)
    return splits


def test_split_sequence_through_the_monomial_split_is_pinned(monkeypatch):
    # the first G53 copy that the `basis` workload draws from seed 1: its
    # certification meets the pivot 3*t2*t3 - t3^2 = t3*(3*t2 - t3), which
    # the monomial split solves as t3 = 0 or t3 != 0, 3*t2 - t3 = 0
    splits = _recorded_splits(monkeypatch)
    alg = random_basis_copy("catalog:G53", 1)
    assert aid_space(alg).status == "certified_exact"
    assert splits == [
        ("-9*t1 + 18*t2 - 18*t3", "-9*t1 + 18*t2 - 18*t3", ["-9*t1 + 18*t2 - 18*t3 = 0"]),
        ("3*t2 - t3", "3*t2 - t3", ["3*t2 - t3 = 0"]),
        ("3*t1 + 4*t3", "3*t1 + 4*t3", ["3*t1 + 4*t3 = 0"]),
        ("3*t2 - t3", "3*t2 - t3", ["3*t2 - t3 = 0"]),
        ("3*t2*t3 - t3^2", "3*t2*t3 - t3^2", ["t3 = 0", "t3 != 0, 3*t2 - t3 = 0"]),
        ("10*t3 + 9*t4", "10*t3 + 9*t4", ["10*t3 + 9*t4 = 0"]),
        ("t4", "t4", ["t4 = 0"]),
    ]


def test_split_sequence_through_a_power_of_a_linear_form_is_pinned(monkeypatch):
    # D4:L12 in the seed-1 basis: each of its two generators meets the
    # square 4*t1^2 - 4*t1*t2 + t2^2 = 4*(t1 - 1/2*t2)^2, which splits on
    # t1 - 1/2*t2 and substitutes the non-integer t1 := 1/2*t2
    splits = _recorded_splits(monkeypatch)
    alg = random_basis_copy("catalog:D4:L12", 1)
    assert aid_space(alg).status == "certified_exact"
    power = ("4*t1^2 - 4*t1*t2 + t2^2", "t1 - 1/2*t2", ["t1 - 1/2*t2 = 0"])
    assert splits == [
        ("t1", "t1", ["t1 = 0"]),
        power,
        ("t1", "t1", ["t1 = 0"]),
        power,
        ("t2", "t2", ["t2 = 0"]),
    ]


def test_witness_solves_the_pointwise_equation():
    alg = make("catalog:D4:L9")
    res = aid_space(alg)
    gen = res.proved_generators[0][0]
    for x in [(1, 0, 0, 0), (0, 1, 0, 0), (1, -2, 3, 5)]:
        xq = tuple(Q(v) for v in x)
        w = aid_witness(alg, gen, xq)
        assert w is not None
        assert alg.product(xq, w) == gen.apply(xq)


# -- the perfect-power detector used for case splits -----------------------


N = 3  # variables of the perfect-power tests


def p_const(c) -> Poly:
    return Poly.const(N, c)


def t(k, coeff=1) -> Poly:
    return Poly.var(N, k, coeff)


def test_linear_power_detects_squares():
    ell = t(0) + t(1, -1)  # t1 - t2
    assert _linear_power(ell * ell) == ell
    cube = ell * ell * ell
    assert _linear_power(cube.scale(2)) == ell


def _primitive(p: Poly) -> Poly:
    """p scaled to coprime integer coefficients with a positive leading term."""
    d = lcm(*(c.denominator for c in p.terms.values()))
    p = Poly(N, {m: int(c * d) for m, c in p.terms.items()})
    return p.divide_monomial((0,) * N, p.content())


def test_linear_power_with_constant_term():
    ell = t(0) + t(1) + p_const(-1)
    sq = (ell * ell).scale(Q(3, 4))
    found = _linear_power(sq)
    assert found is not None
    # the detected form is the same line up to scale
    assert _primitive(found) == _primitive(ell)


def test_linear_power_divides_integer_coefficients_exactly():
    # (t1 + t2)^2 and 3 (2 t1 - t2)^3 over the ints: the unit-coefficient
    # form is read off by exact division, never by float division
    for p, ell in [
        (Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}), {(1, 0): 1, (0, 1): 1}),
        (Poly(2, {(3, 0): 24, (2, 1): -36, (1, 2): 18, (0, 3): -3}),
         {(1, 0): 1, (0, 1): Q(-1, 2)}),
    ]:
        found = _linear_power(p)
        assert found.terms == ell
        assert all(type(c) in (int, Q) for c in found.terms.values())


def test_linear_power_rejects_non_powers():
    assert _linear_power(t(0) * t(0) + t(1)) is None  # t1^2 + t2
    assert _linear_power(t(0) * t(0) * t(1)) is None  # t1^2 t2
    assert _linear_power(t(0) * t(0) + t(1) * t(1)) is None  # t1^2 + t2^2
    assert _linear_power(t(0) + t(1)) is None  # degree 1 is not a power
    assert _linear_power(Poly.zero(N)) is None


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2), min_size=N, max_size=N),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.integers(2, 3),
)
def test_linear_power_roundtrip(scale, coeffs, const, k):
    ell = Poly(N, {tuple(1 if i == j else 0 for i in range(N)): Q(c)
                   for j, c in enumerate(coeffs) if c})
    ell = ell + p_const(Q(const))
    if ell.total_degree() != 1:
        return
    p = p_const(Q(scale))
    for _ in range(k):
        p = p * ell
    found = _linear_power(p)
    assert found is not None
    # verify the factorization exactly
    rebuilt = p_const(1)
    for _ in range(k):
        rebuilt = rebuilt * found
    # p = c * found^k for the rational c matching the leading monomials
    assert rebuilt.scale(
        p.terms[max(p.terms)] / rebuilt.terms[max(rebuilt.terms)]
    ) == p
