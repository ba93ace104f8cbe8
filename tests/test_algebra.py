"""Structure-constant algebras: building, series, sums, base change."""

from __future__ import annotations

import math
import random
import re

import pytest

from leibniz_aid import algebra, catalog, derivations
from leibniz_aid.cli import _random_invertible
from leibniz_aid.algebra import (
    IdentityViolation,
    IndexOutOfRange,
    LeibnizAlgebra,
    SingularMatrix,
    annihilators,
    central_series,
    change_basis,
    direct_sum,
    from_json_dict,
    to_json_dict,
    _full_series,
    _int_inverse,
)
from leibniz_aid.exactlin import DimensionMismatch, Q, RationalMatrix, Subspace, _int_matrix

from conftest import (
    CATALOG_BATTERY,
    SERIES_FALLBACK_CASES,
    SOLVABLE,
    dense_mult,
    dense_product,
    fraction_annihilators,
    fraction_central_series_terms,
    fraction_conjugated_constants,
    fraction_transition_inverse,
    fuzz_copies,
    three_bases,
)

NF3 = catalog.make(catalog.parse_ref("catalog:NF:3"))


# -- construction -------------------------------------------------------


def test_build_sparse_products_and_product_values():
    # [e1,e1]=e2, [e2,e1]=e3 (the 3-dim null-filiform table)
    alg = LeibnizAlgebra.build(3, {(1, 1): {2: 1}, (2, 1): {3: 1}})
    assert alg.product((1, 0, 0), (1, 0, 0)) == (0, 1, 0)
    assert alg.product((0, 1, 0), (1, 0, 0)) == (0, 0, 1)
    assert alg.product((0, 0, 1), (1, 0, 0)) == (0, 0, 0)
    # bilinearity over an arbitrary pair
    x, y = (Q(1, 2), Q(3), 0), (2, 0, Q(-1))
    lhs = alg.product(x, y)
    manual = tuple(
        sum(
            (x[i] * y[j] * alg.constants[i][j][k] for i in range(3) for j in range(3)),
            Q(0),
        )
        for k in range(3)
    )
    assert lhs == manual


def test_build_rejects_out_of_range_indices():
    with pytest.raises(IndexOutOfRange):
        LeibnizAlgebra.build(2, {(3, 1): {2: 1}})
    with pytest.raises(IndexOutOfRange):
        LeibnizAlgebra.build(2, {(1, 1): {5: 1}})


def test_identity_violation_reports_1_based_triple():
    # [e1,e1]=e1 fails the left Leibniz identity at (1,1,1)
    with pytest.raises(IdentityViolation) as info:
        LeibnizAlgebra.build(1, {(1, 1): {1: 1}})
    exc = info.value
    assert (exc.i, exc.j, exc.k) == (1, 1, 1)
    assert "e1" in str(exc)


def test_check_identity_catches_an_unchecked_algebra():
    # the stored form is unchecked: [e1,e1]=e1 gets through it
    alg = LeibnizAlgebra._stored(1, (1, ((((0, 1),),),)))
    with pytest.raises(IdentityViolation) as info:
        alg.check_identity()
    assert (info.value.i, info.value.j, info.value.k) == (1, 1, 1)


def reference_identity_failure(alg):
    """The Fraction triple loop over every basis triple: the first failing
    1-based (i, j, k) with both sides of the identity, or None."""
    n = alg.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg.product(alg.basis_coords(i), alg.constants[j][k])
                rhs = tuple(
                    a - b
                    for a, b in zip(
                        alg.product(alg.constants[i][j], alg.basis_coords(k)),
                        alg.product(alg.constants[i][k], alg.basis_coords(j)),
                    )
                )
                if lhs != rhs:
                    return (i + 1, j + 1, k + 1, lhs, rhs)
    return None


def _perturbed(alg, rng):
    """alg with one structure constant moved by a small rational, unchecked."""
    n = alg.dim
    table = [[list(row) for row in plane] for plane in alg.constants]
    i, j, k = (rng.randrange(n) for _ in range(3))
    table[i][j][k] += Q(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
    return LeibnizAlgebra._stored(n, fraction_table(table))


@pytest.mark.parametrize(
    "ref",
    ["catalog:NF:4", "catalog:D3:L1:2", "catalog:D4:L9", "catalog:F1:6:0,0,-3/2,0",
     "catalog:F3:5:1,2,3", "catalog:G53"],
)
def test_check_identity_matches_the_triple_loop(ref):
    rng = random.Random(7)
    base = catalog.make(catalog.parse_ref(ref))
    failures = 0
    for _ in range(6):
        moved = change_basis(base, _random_invertible(rng, base.dim))
        for alg in (moved, _perturbed(moved, rng)):
            expected = reference_identity_failure(alg)
            try:
                alg.check_identity()
                got = None
            except IdentityViolation as exc:
                got = (exc.i, exc.j, exc.k, exc.lhs, exc.rhs)
                failures += 1
            assert got == expected, ref
    assert failures  # the perturbations do break the identity


@pytest.mark.parametrize("w", [32, 64, 128])
def test_check_identity_unpacks_a_failure_a_w_bit_slot_would_miss(w):
    # [e1,e1] = (a e1 + e2)/3 and [e1,e2] = -(1 + a) e2/3 with a = 2^(w/2):
    # over den^2 = 9, [e1,[e1,e1]] = (a^2, a - (1 + a)) = (2^w, -1) and the
    # other side is 0, so packed in w-bit slots the two sides are equal
    a = 2 ** (w // 2)
    zero = Q(0)
    constants = (((Q(a, 3), Q(1, 3)), (zero, Q(-1 - a, 3))), ((zero, zero), (zero, zero)))
    alg = LeibnizAlgebra._stored(2, fraction_table(constants))
    expected = (1, 1, 1, (Q(2 ** w, 9), Q(-1, 9)), (zero, zero))
    assert reference_identity_failure(alg) == expected
    with pytest.raises(IdentityViolation) as info:
        alg.check_identity()
    exc = info.value
    assert (exc.i, exc.j, exc.k, exc.lhs, exc.rhs) == expected


def test_labels_roundtrip_and_arity():
    alg = LeibnizAlgebra.build(2, {}, labels=["x", "y"])
    assert alg.label(1) == "x" and alg.label(2) == "y"
    with pytest.raises(ValueError):
        LeibnizAlgebra.build(2, {}, labels=["x"])


def test_mult_matrix_column_convention():
    # column j of right_mult(x) is [e_j, x]
    x = (1, 0, 0)
    rm = NF3.right_mult(x)
    for j in range(3):
        assert rm.col(j) == NF3.product(NF3.basis_coords(j), x)
    lm = NF3.left_mult(x)
    for j in range(3):
        assert lm.col(j) == NF3.product(x, NF3.basis_coords(j))


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_products_match_the_fraction_oracle(ref):
    rng = random.Random(31)
    for alg in fuzz_copies(ref):
        for _ in range(3):
            x, y = ([Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(alg.dim)]
                    for _ in range(2))
            assert alg.product(x, y) == dense_product(alg, x, y), ref
            assert alg.left_mult(x) == dense_mult(alg, x, "left"), ref
            assert alg.right_mult(x) == dense_mult(alg, x, "right"), ref


# -- series and annihilators -------------------------------------------


def test_central_series_null_filiform():
    sr = central_series(NF3)
    assert sr.dims == (3, 2, 1, 0)
    assert sr.nilpotent and sr.nilindex == 4
    # the two shape classifications are disjoint: the series dims here are
    # the maximal n+1-i profile, one above the n-i profile
    assert sr.null_filiform and not sr.filiform


def test_central_series_abelian():
    sr = central_series(LeibnizAlgebra.build(2, {}))
    assert sr.dims == (2, 0)
    assert sr.nilpotent and sr.nilindex == 2
    assert not sr.null_filiform


def test_central_series_stalls_on_solvable_algebra():
    sr = central_series(SOLVABLE)
    assert not sr.nilpotent
    assert sr.nilindex is None
    assert sr.dims[-1] == 1  # stabilizes at span(e2)


def test_filiform_but_not_null_filiform():
    # dim 4, L^2 of dim 2: [e1,e1]=e3, [e2,e1]=e4, [e1,e2]=... keep it simple:
    alg = catalog.make(catalog.parse_ref("catalog:D4:L4:0"))
    sr = central_series(alg)
    assert sr.dims == (4, 2, 1, 0)
    assert sr.filiform and not sr.null_filiform


def test_annihilators_of_null_filiform():
    ann = annihilators(NF3)
    # [y, x] = y1 x1 e2 + y2 x1 e3: vanishing for all y needs x1 = 0
    assert ann.ann_r == Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    # [x, y] = x1 y1 e2 + x2 y1 e3: vanishing for all y needs x1 = x2 = 0
    assert ann.ann_l == Subspace.from_vectors(3, [[0, 0, 1]])
    assert ann.center == ann.ann_l


def test_annihilators_solvable():
    ann = annihilators(SOLVABLE)
    #  [x,e1]=x2 e2 -> Ann_l = span(e1); [e2,x]=x1 e2 -> Ann_r = span(e2)
    assert ann.ann_l == Subspace.from_vectors(2, [[1, 0]])
    assert ann.ann_r == Subspace.from_vectors(2, [[0, 1]])
    assert ann.center.dim == 0


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_annihilators_match_the_fraction_oracle(ref):
    for alg in fuzz_copies(ref):
        assert annihilators(alg) == fraction_annihilators(alg), ref


def test_annihilators_off_the_catalog_match_the_fraction_oracle():
    abelian = LeibnizAlgebra.build(3, {})
    solvable3 = LeibnizAlgebra.build(3, {(2, 1): {2: 1}, (3, 1): {3: 2}})
    for alg in (abelian, SOLVABLE, solvable3):
        assert annihilators(alg) == fraction_annihilators(alg)
    assert annihilators(abelian).center == Subspace.full(3)


def _transition_inverse(columns, n):
    """P^-1 for the matrix P with the given n columns, through the integer
    inverse: P = U / s and P^-1 = s Z / d for (d, Z) = _int_inverse(U)."""
    s, u = _int_matrix([[columns[j][i] for j in range(n)] for i in range(n)])
    d, z = _int_inverse(u)
    return RationalMatrix(n, n, tuple(tuple(Q(s * v, d) for v in row) for row in z))


def test_transition_inverse_matches_the_fraction_oracle():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 6)
        while True:
            cols = [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)]
            try:
                expected = fraction_transition_inverse(cols, n)
                break
            except SingularMatrix:
                pass
        assert _transition_inverse(cols, n) == expected
        # the last column made a combination of the others: singular
        coefs = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n - 1)]
        last = [sum((a * col[i] for a, col in zip(coefs, cols)), Q(0)) for i in range(n)]
        singular = cols[:-1] + [last]
        with pytest.raises(SingularMatrix):
            fraction_transition_inverse(singular, n)
        with pytest.raises(SingularMatrix):
            _transition_inverse(singular, n)


def test_int_inverse_on_the_empty_matrix_negative_pivots_and_singular_input():
    assert _int_inverse([]) == (1, [])
    # n = 0, then matrices where the kernel leaves some pivot negative;
    # d stays positive
    for u in ([], [[-2]], [[0, -3], [5, 0]], [[-1, 2, 0], [0, -4, 1], [3, 0, -2]]):
        n = len(u)
        d, z = _int_inverse(u)
        assert d > 0
        assert _transition_inverse([[Q(u[i][j]) for i in range(n)] for j in range(n)], n) \
            == fraction_transition_inverse([[u[i][j] for i in range(n)] for j in range(n)], n)
        # U Z = d I over the ints
        assert [[sum(u[r][k] * z[k][c] for k in range(n)) for c in range(n)] for r in range(n)] \
            == [[d * int(r == c) for c in range(n)] for r in range(n)]
    assert _int_inverse([[-2]]) == (2, [[-1]])
    for singular in ([[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(SingularMatrix):
            _int_inverse(singular)


def test_product_span():
    # L^2 = [L, L], the second term of the term-by-term series
    sq = _full_series(NF3).terms[1]
    assert sq == Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])


# the `sweep` benchmark's algebras
SWEEP_REFS = tuple(f"catalog:NF:{n}" for n in range(2, 17)) + tuple(
    f"catalog:F3:{n}:0,0,1" for n in range(5, 13))


def _random_copies(base: LeibnizAlgebra, count: int = 3) -> list[LeibnizAlgebra]:
    rng = random.Random(11)
    return [change_basis(base, _random_invertible(rng, base.dim)) for _ in range(count)]


_DERIVED_FIELDS = ("dims", "nilpotent", "nilindex", "null_filiform", "filiform")


def _expected_fields(n: int, terms) -> dict:
    """The derived fields of a series read off its terms by the definitions,
    index by index, a dim L^i past the listed terms read as 0: nilindex is
    the first s with L^s = 0, and the two shapes ask dim L^i = n + 1 - i for
    i = 1..n+1 (null-filiform) or dim L^i = n - i for i = 2..n (filiform,
    n >= 2) of a nilpotent algebra."""
    dims = tuple(t.dim for t in terms)

    def dim(i: int) -> int:
        return dims[i - 1] if i <= len(dims) else 0

    nilpotent = dims[-1] == 0
    return {
        "dims": dims,
        "nilpotent": nilpotent,
        "nilindex": len(dims) if nilpotent else None,
        "null_filiform": nilpotent and all(dim(i) == n + 1 - i for i in range(1, n + 2)),
        "filiform": nilpotent and n >= 2 and all(dim(i) == n - i for i in range(2, n + 1)),
    }


def _fields(series) -> dict:
    return {name: getattr(series, name) for name in _DERIVED_FIELDS}


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_central_series_matches_the_fraction_products(ref):
    base = catalog.make(catalog.parse_ref(ref))
    for alg in [base, *_random_copies(base)]:
        series = central_series(alg)
        expected = fraction_central_series_terms(alg)
        assert list(series.terms) == expected
        assert _fields(series) == _expected_fields(alg.dim, expected)
        assert series == _full_series(alg)


@pytest.mark.parametrize("ref", SWEEP_REFS)
def test_series_from_generators_on_the_sweep(ref):
    # the Fraction oracle in the given basis; in the random bases, where it
    # takes about 24 s over these algebras, the term-by-term series, which
    # the test above holds to the oracle
    base = catalog.make(catalog.parse_ref(ref))
    assert list(central_series(base).terms) == fraction_central_series_terms(base)
    for alg in [base, *_random_copies(base)]:
        assert central_series(alg) == _full_series(alg)


@pytest.mark.parametrize("alg, fallback", SERIES_FALLBACK_CASES)
def test_series_from_generators_falls_back_off_the_nilpotent_case(alg, fallback, monkeypatch):
    expected = _full_series(alg)
    calls = []
    monkeypatch.setattr(algebra, "_full_series",
                        lambda a: calls.append(a) or expected)
    series = central_series(alg)
    assert calls == ([alg] if fallback else [])
    assert series == expected
    terms = fraction_central_series_terms(alg)
    assert list(series.terms) == terms
    assert _fields(series) == _expected_fields(alg.dim, terms)
    assert series.nilpotent is not fallback
    if fallback:
        # the stalled term closes the series, as in the term-by-term one
        assert series.nilindex is None
        assert series.terms[-1].dim and series.terms[-1] == series.terms[-2]
    else:
        assert series.nilindex == len(series.terms)


def test_scaled_constants_are_computed_once_and_immutable():
    alg = change_basis(NF3, _random_invertible(random.Random(3), 3))
    den, nz = alg.scaled_constants()
    assert alg.scaled_constants() is alg.scaled_constants()
    assert isinstance(nz, tuple)
    assert all(isinstance(x, tuple) for plane in nz for row in plane for x in (plane, row))
    # the table is the stored form: equality and hashing see the constants
    assert alg == LeibnizAlgebra(alg.dim, alg.constants)
    assert hash(alg) == hash(LeibnizAlgebra(alg.dim, alg.constants))


def fraction_table(constants) -> tuple:
    """(den, nz) worked out from Fraction constants: den their least common
    denominator, nz[i][j] the pairs (k, den * c) of the nonzero ones."""
    den = math.lcm(*(v.denominator for plane in constants for row in plane for v in row))
    return den, tuple(tuple(tuple((k, int(v * den)) for k, v in enumerate(row) if v)
                            for row in plane) for plane in constants)


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_change_basis_table_matches_the_fraction_oracle(ref):
    base, ps = three_bases(ref)
    for p in ps:
        copy = change_basis(base, p)
        oracle = fraction_conjugated_constants(base, p)
        assert copy.constants == oracle, ref
        assert copy.constants is copy.constants  # the view is kept
        assert copy.scaled_constants() == fraction_table(oracle), ref
        for same in (LeibnizAlgebra(copy.dim, oracle), from_json_dict(to_json_dict(copy))):
            assert copy == same and hash(copy) == hash(same), ref


@pytest.mark.parametrize("first, second", zip(CATALOG_BATTERY, CATALOG_BATTERY[1:]))
def test_direct_sum_of_two_copies_matches_the_block_oracle(first, second):
    (a_base, (pa, *_)), (b_base, (pb, *_)) = three_bases(first), three_bases(second)
    a, b = change_basis(a_base, pa), change_basis(b_base, pb)
    n, m = a.dim, b.dim
    zero = Q(0)
    block = tuple(
        tuple(
            a.constants[i][j] + (zero,) * m if i < n and j < n
            else (zero,) * n + b.constants[i - n][j - n] if i >= n and j >= n
            else (zero,) * (n + m)
            for j in range(n + m)
        )
        for i in range(n + m)
    )
    s = direct_sum(a, b)
    assert s == LeibnizAlgebra(n + m, block)
    assert s.scaled_constants() == fraction_table(block)
    # the sum is not checked where it is built: no mixed triple breaks it
    s.check_identity()


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_change_basis_and_analysis_never_read_the_fraction_view(ref, monkeypatch):
    reads = []

    def read(alg):
        reads.append(alg)
        raise AssertionError("the Fraction constants were read")

    base, (p, *_) = three_bases(ref)
    monkeypatch.setattr(LeibnizAlgebra, "constants", property(read))
    derivations.analysis(change_basis(base, p))
    assert not reads


# -- direct sum, base change --------------------------------------------


def test_direct_sum_blocks_do_not_interact():
    s = direct_sum(NF3, NF3)
    assert s.dim == 6
    e1 = s.basis_coords(0)
    f1 = s.basis_coords(3)
    assert s.product(e1, f1) == (0,) * 6
    assert s.product(e1, e1) == (0, 1, 0, 0, 0, 0)
    assert s.product(f1, f1) == (0, 0, 0, 0, 1, 0)


def test_change_basis_identity_is_noop():
    p = RationalMatrix.identity(3)
    assert change_basis(NF3, p).constants == NF3.constants


def test_change_basis_scaling_rescales_constants():
    # f1 = 2 e1: [f1,f1] = 4 e2 = 4 f2 when f2 = e2
    p = RationalMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    alg = change_basis(NF3, p)
    assert alg.product((1, 0, 0), (1, 0, 0)) == (0, 4, 0)


def test_change_basis_roundtrip_random():
    rng = random.Random(9)
    for _ in range(10):
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        p = RationalMatrix.from_rows(rows)
        try:
            moved = change_basis(NF3, p)
        except SingularMatrix:
            continue
        # invariants survive the move
        assert central_series(moved).dims == central_series(NF3).dims
        assert annihilators(moved).center.dim == 1


def test_change_basis_rejects_singular():
    p = RationalMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrix):
        change_basis(NF3, p)


def test_change_basis_rejects_a_matrix_of_the_wrong_shape():
    # the shape error of aid_witness and restriction_witness
    alg = catalog.make(catalog.parse_ref("catalog:NF:2"))
    for p in (RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), RationalMatrix.identity(3)):
        with pytest.raises(DimensionMismatch, match="wrong shape"):
            change_basis(alg, p)
    with pytest.raises(DimensionMismatch):
        change_basis(NF3, RationalMatrix.identity(2))


def _nonzeros(alg):
    return sum(len(row) for plane in alg.scaled_constants()[1] for row in plane)


def _broken_nf4():
    """NF:4 with one structure constant moved, unchecked, so that the
    identity fails."""
    nf4 = catalog.make(catalog.parse_ref("catalog:NF:4"))
    rng = random.Random(5)
    while True:
        bad = _perturbed(nf4, rng)
        if reference_identity_failure(bad):
            return bad


def _unit_table(n, products):
    """The unchecked algebra with [e_i, e_j] = e_k for each (i, j): k of
    `products`, 1-based, and every other product zero."""
    nz = [[() for _ in range(n)] for _ in range(n)]
    for (i, j), k in products.items():
        nz[i - 1][j - 1] = ((k - 1, 1),)
    return LeibnizAlgebra._stored(n, (1, tuple(map(tuple, nz))))


@pytest.mark.parametrize("bad, triple", [
    # the basis is adapted already, so an analysis would reach the series
    pytest.param(lambda: _unit_table(3, {(1, 1): 2, (1, 2): 3}), (1, 1, 1), id="e1e1-e2-e1e2-e3"),
    pytest.param(_broken_nf4, None, id="perturbed-NF4"),
    # not adapted: the series-adapted basis would come up short of a bracket
    pytest.param(lambda: _unit_table(3, {(3, 3): 2, (3, 2): 1}), (3, 3, 3), id="e3e3-e2-e3e2-e1"),
])
def test_every_public_constructor_checks_the_identity(bad, triple):
    # a table that breaks the identity enters through none of them, with
    # the triple and message of check_identity on its stored form
    bad = bad()
    with pytest.raises(IdentityViolation) as given:
        bad.check_identity()
    first = reference_identity_failure(bad)[:3]
    assert (given.value.i, given.value.j, given.value.k) == first and triple in (None, first)
    n, (den, nz) = bad.dim, bad.scaled_constants()
    products = {(i + 1, j + 1): {k + 1: Q(v, den) for k, v in row}
                for i, plane in enumerate(nz) for j, row in enumerate(plane) if row}
    for construct in (lambda: LeibnizAlgebra(n, bad.constants),
                      lambda: LeibnizAlgebra.build(n, products),
                      lambda: from_json_dict(to_json_dict(bad))):
        with pytest.raises(IdentityViolation) as caught:
            construct()
        assert (caught.value.i, caught.value.j, caught.value.k) == \
            (given.value.i, given.value.j, given.value.k)
        assert str(caught.value) == str(given.value)


def test_change_basis_checks_the_inverse_exactly(monkeypatch):
    inverse = algebra._int_inverse

    def off_by_one(u):
        d, z = inverse(u)
        return d, [[v + (r == c == 0) for c, v in enumerate(row)] for r, row in enumerate(z)]

    monkeypatch.setattr(algebra, "_int_inverse", off_by_one)
    with pytest.raises(AssertionError, match="inverse"):
        change_basis(NF3, _random_invertible(random.Random(3), 3))


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_conjugated_copies_satisfy_the_identity(ref):
    # change_basis checks no table, so a defect in the conjugation has to
    # show here
    base, ps = three_bases(ref)
    for p in ps:
        copy = change_basis(base, p)
        assert _nonzeros(copy) >= _nonzeros(base)
        copy.check_identity()


def _adapted_cases():
    """(label, algebra) pairs: the battery in the bases of `three_bases`,
    the sweep in one random basis and two direct sums in a random basis."""
    for ref in CATALOG_BATTERY:
        base, ps = three_bases(ref)
        yield from ((f"{ref} basis {k}", change_basis(base, p)) for k, p in enumerate(ps))
    for ref in SWEEP_REFS:
        base = catalog.make(catalog.parse_ref(ref))
        yield ref, _random_copies(base, 1)[0]
    rng = random.Random(17)
    for first, second in (("catalog:G53", "catalog:NF:3"), ("catalog:D4:L9", "catalog:D3:L4")):
        s = direct_sum(*(catalog.make(catalog.parse_ref(r)) for r in (first, second)))
        yield f"{first} + {second}", change_basis(s, _random_invertible(rng, s.dim))


def test_adapted_table_is_the_conjugate_by_definition():
    # the table worked out from the generators' brackets against
    # `change_basis`, which conjugates every bracket
    moved = 0
    for label, alg in _adapted_cases():
        basis = algebra._AdaptedBasis.of(alg)
        if basis.u is None:
            continue
        p = RationalMatrix.from_rows([[Q(v, basis.s) for v in row] for row in basis.u])
        assert basis.alg == change_basis(alg, p), label
        moved += 1
    assert moved == 3 * len(CATALOG_BATTERY) + len(SWEEP_REFS) + 2


def test_adapted_basis_checks_the_identity_on_the_adapted_table(monkeypatch):
    # the given table is dense; checking it would cost far more at F3:30
    base, (p, *_) = three_bases("catalog:F3:6:0,0,1")
    copy = change_basis(base, p)
    checked = []
    check = LeibnizAlgebra.check_identity
    monkeypatch.setattr(LeibnizAlgebra, "check_identity",
                        lambda alg: checked.append(alg) or check(alg))
    basis = algebra._AdaptedBasis.of(copy)
    assert basis.u is not None and _nonzeros(copy) > _nonzeros(basis.alg)
    assert len(checked) == 1 and checked[0] is basis.alg


def test_adapted_basis_reraises_a_failure_on_a_leibniz_table(monkeypatch):
    # the given table passes its check, so the conjugation's own error stands
    def failing(*args):
        raise AssertionError("column 3 of the adapted table is not integral")

    base, (p, *_) = three_bases("catalog:G53")
    copy = change_basis(base, p)
    monkeypatch.setattr(algebra, "_conjugated", failing)
    with pytest.raises(AssertionError, match="not integral"):
        algebra._AdaptedBasis.of(copy)


def test_bracket_columns_takes_the_wanted_columns_in_order():
    rng = random.Random(19)
    for alg in fuzz_copies("catalog:G53"):
        n = alg.dim
        x = [(i, rng.randint(-3, 3)) for i in range(n)]
        full = algebra._bracket_columns(alg, x)
        wanted = rng.sample(range(n), 3)
        assert algebra._bracket_columns(alg, x, wanted) == [full[j] for j in wanted]
        assert algebra._bracket_columns(alg, x, []) == []


# -- JSON ----------------------------------------------------------------


def test_json_roundtrip_preserves_constants():
    for ref in ("catalog:NF:4", "catalog:D4:L9", "catalog:D4:L20:2", "catalog:F1:5:0,1,1"):
        alg = catalog.make(catalog.parse_ref(ref))
        doc = to_json_dict(alg)
        back = from_json_dict(doc)
        assert back.constants == alg.constants
        assert back.labels == alg.labels


def test_from_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        from_json_dict({"products": []})  # missing dim
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "extra": 1})
    with pytest.raises(ValueError):
        from_json_dict({"dim": True})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "products": [{"i": 1, "j": 1}]})
    with pytest.raises(ValueError):
        from_json_dict(
            {
                "dim": 2,
                "products": [
                    {"i": 1, "j": 1, "c": {"2": "1"}},
                    {"i": 1, "j": 1, "c": {"2": "1"}},
                ],
            }
        )
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "labels": "xy"})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 1, "products": [{"i": 1, "j": 1, "c": {"1": "x"}}]})
    # products must be a list: null, an object or a string is not iterated
    for products in (None, {"i": 1}, "ij"):
        with pytest.raises(ValueError, match="'products' must be a list"):
            from_json_dict({"dim": 2, "products": products})
    # "2" and "02" name the same target; neither coefficient may win
    with pytest.raises(ValueError, match=r"target index appears twice in product \(1,1\)"):
        from_json_dict({"dim": 2, "products": [{"i": 1, "j": 1, "c": {"2": "1", "02": "5"}}]})
    # a target index is ASCII digits only: no separator, sign, padding or
    # other script's digit, although int() reads each of these
    for key in ("1_0", " +2 ", "+2", "\u0662", ""):
        with pytest.raises(ValueError, match=re.escape(f"target index {key!r} in product (1,1)")):
            from_json_dict({"dim": 10, "products": [{"i": 1, "j": 1, "c": {key: "1"}}]})
    # a leading zero is still allowed: "02" is index 2
    padded = from_json_dict({"dim": 2, "products": [{"i": 1, "j": 1, "c": {"02": "1"}}]})
    assert padded.product((1, 0), (1, 0)) == (0, 1)


def test_from_json_enforces_identity_by_default():
    doc = {"dim": 1, "products": [{"i": 1, "j": 1, "c": {"1": "1"}}]}
    with pytest.raises(IdentityViolation):
        from_json_dict(doc)
