"""Exact rational linear algebra: echelon forms, subspaces, solving."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leibniz_aid.exactlin import (
    AmbientMismatch,
    NotASubspace,
    Q,
    RationalMatrix,
    Subspace,
    as_rational,
    _add_pivot,
    _int_rows,
    _restrict_int,
    complement_in,
    format_rational,
    nullspace,
    restrict,
    rref,
    solve_linear,
    subspace_intersect,
    subspace_sum,
)
from leibniz_aid import exactlin
from leibniz_aid.derivations import _hom_into

from conftest import (
    dense_hom_into,
    dense_nullspace,
    dense_rref_rows,
    dense_solve_linear,
    dense_subspace,
    dense_subspace_intersect,
    fraction_restrict,
    sympy_nullspace_dim,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def rand_matrix(rng: random.Random, rows: int, cols: int) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [
            [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


# -- scalars -----------------------------------------------------------


def test_as_rational_accepts_int_str_fraction():
    assert as_rational(3) == Q(3)
    assert as_rational("-7/2") == Q(-7, 2)
    assert as_rational("007") == Q(7)
    assert as_rational("-0") == Q(0)
    assert as_rational("4/06") == Q(2, 3)
    assert as_rational(Q(5, 3)) == Q(5, 3)


def test_as_rational_rejects_floats_and_garbage():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(ValueError):
        as_rational("one half")


@pytest.mark.parametrize(
    "text", ["1_0", "\u0663", " 1", "0.5", "1e3", "+2", "1/0", "1/00", "3/-4", "1\n", ""]
)
def test_as_rational_reads_only_what_format_rational_writes(text):
    # Fraction() alone reads "1_0" as 10, the Arabic-Indic digit three as 3,
    # and raises ZeroDivisionError for "1/0"
    with pytest.raises(ValueError):
        as_rational(text)


@given(rationals)
def test_format_roundtrip(q):
    assert as_rational(format_rational(Fraction(q))) == Fraction(q)


def test_format_integer_has_no_denominator():
    assert format_rational(Q(-4)) == "-4"
    assert format_rational(Q(3, 2)) == "3/2"


# -- rref --------------------------------------------------------------


def test_rref_known_matrix():
    m = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    res = rref(m)
    assert res.rank == 2
    assert res.pivots == (0, 1)
    assert res.matrix.entries == ((1, 0, -1), (0, 1, 2), (0, 0, 0))


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(5)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        once = rref(m).matrix
        again = rref(once).matrix
        assert once.entries == again.entries


def test_rank_nullity_against_sympy():
    rng = random.Random(17)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        null_dim = nullspace(m).dim
        assert null_dim == sympy_nullspace_dim([list(r) for r in m.entries], cols)
        assert rref(m).rank + null_dim == cols


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(23)
    for _ in range(15):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        for v in nullspace(m).basis_vectors():
            assert all(x == 0 for x in m.apply(v))


# -- solve -------------------------------------------------------------


def test_solve_linear_particular_solution():
    m = RationalMatrix.from_rows([[1, 1], [1, -1]])
    x = solve_linear(m, [3, 1])
    assert x == (Q(2), Q(1))


def test_solve_linear_without_equations_returns_the_zero_vector():
    assert solve_linear(RationalMatrix(0, 3, ()), []) == (Q(0), Q(0), Q(0))
    assert solve_linear(RationalMatrix(0, 0, ()), []) == ()


def test_solve_linear_none_for_inconsistent():
    m = RationalMatrix.from_rows([[1, 1], [2, 2]])
    assert solve_linear(m, [1, 3]) is None


def test_solve_linear_matches_residual_on_random_systems():
    rng = random.Random(31)
    solved = unsolved = 0
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        b = [Q(rng.randint(-3, 3)) for _ in range(rows)]
        x = solve_linear(m, b)
        if x is None:
            # rank test: b must be outside the column span
            aug = RationalMatrix.from_rows(
                [list(r) + [b[i]] for i, r in enumerate(m.entries)]
            )
            assert rref(aug).rank > rref(m).rank
            unsolved += 1
        else:
            assert list(m.apply(x)) == list(b)
            solved += 1
    assert solved and unsolved  # the sample hits both cases


# -- subspaces ---------------------------------------------------------


def test_subspace_equality_is_basis_independent():
    s1 = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
    s2 = Subspace.from_vectors(3, [[1, 1, 2], [1, -1, 0]])
    assert s1 == s2
    assert s1.dim == 2


def test_subspace_contains_and_reduce():
    s = Subspace.from_vectors(3, [[1, 0, 1]])
    assert s.contains([2, 0, 2])
    assert not s.contains([1, 0, 0])
    assert s.reduce([3, 0, 1]) == (0, 0, -2)


def test_sum_and_intersection_dims_modular():
    rng = random.Random(41)
    for _ in range(20):
        amb = rng.randint(1, 6)
        v1 = [[Q(rng.randint(-3, 3)) for _ in range(amb)] for _ in range(rng.randint(0, amb))]
        v2 = [[Q(rng.randint(-3, 3)) for _ in range(amb)] for _ in range(rng.randint(0, amb))]
        s1 = Subspace.from_vectors(amb, v1)
        s2 = Subspace.from_vectors(amb, v2)
        sm = subspace_sum(s1, s2)
        mt = subspace_intersect(s1, s2)
        assert sm.dim + mt.dim == s1.dim + s2.dim
        assert sm.contains_subspace(s1) and sm.contains_subspace(s2)
        assert s1.contains_subspace(mt) and s2.contains_subspace(mt)


def test_intersection_membership():
    s1 = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    s2 = Subspace.from_vectors(4, [[0, 1, 0, 0], [0, 0, 1, 1]])
    mt = subspace_intersect(s1, s2)
    assert mt == Subspace.from_vectors(4, [[0, 1, 0, 0]])


def test_complement_in_direct_sum():
    inner = Subspace.from_vectors(3, [[1, 1, 0]])
    whole = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    comp = complement_in(inner, whole)
    assert comp.dim == 1
    assert subspace_sum(inner, comp) == whole
    assert subspace_intersect(inner, comp).dim == 0


def test_complement_in_requires_containment():
    s1 = Subspace.from_vectors(2, [[1, 0]])
    s2 = Subspace.from_vectors(2, [[0, 1]])
    with pytest.raises(NotASubspace):
        complement_in(s1, s2)
    # a line of Q^3 outside a plane: dim s1 < dim s2, yet s1 is not inside
    line = Subspace.from_vectors(3, [[1, 1, 1]])
    plane = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(NotASubspace):
        complement_in(line, plane)


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatch):
        subspace_sum(Subspace.full(2), Subspace.full(3))


# -- the integer kernel against sympy ---------------------------------------

# small values, zeros, and values with large numerators and denominators
entries = st.one_of(
    st.just(Q(0)),
    st.integers(-5, 5).map(Q),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(
        Q,
        st.integers(-(10**12), 10**12),
        st.integers(1, 10**12),
    ),
)


@st.composite
def rational_matrices(draw, max_rows=7, max_cols=7, cols=None):
    """Tall, wide and square matrices; some of low rank, some with zero rows.

    A low-rank matrix is a product B C through an inner dimension below both
    sides; signs are free, so pivots come out negative as often as positive.
    """
    rows = draw(st.integers(0, max_rows))
    if cols is None:
        cols = draw(st.integers(1, max_cols))
    inner = draw(st.integers(0, min(rows, cols)))
    if draw(st.booleans()) and inner < min(rows, cols):
        b = [[draw(entries) for _ in range(inner)] for _ in range(rows)]
        c = [[draw(entries) for _ in range(cols)] for _ in range(inner)]
        data = [
            [sum((b[i][k] * c[k][j] for k in range(inner)), Q(0)) for j in range(cols)]
            for i in range(rows)
        ]
    else:
        data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        if draw(st.integers(0, 5)) == 0:
            data[i] = [Q(0)] * cols
    return RationalMatrix(rows, cols, tuple(tuple(r) for r in data))


def to_sympy(v: Q) -> sp.Rational:
    return sp.Rational(v.numerator, v.denominator)


def sympy_matrix(rows: int, cols: int, entries) -> sp.Matrix:
    return sp.Matrix(rows, cols, [to_sympy(v) for r in entries for v in r])


def from_sympy(v) -> Q:
    v = sp.Rational(v)
    return Q(int(v.p), int(v.q))


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rref_matches_sympy(m):
    res = rref(m)
    ref, pivots = sympy_matrix(m.rows, m.cols, m.entries).rref()
    assert res.pivots == tuple(pivots)
    assert res.rank == len(pivots)
    assert res.matrix.entries == tuple(
        tuple(from_sympy(ref[i, j]) for j in range(m.cols)) for i in range(m.rows)
    )
    assert all(isinstance(v, Q) for r in res.matrix.entries for v in r)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_linear_matches_sympy(m, data):
    if m.rows == 0:
        # no equations: every vector solves, the particular one is zero
        assert solve_linear(m, []) == (Q(0),) * m.cols
        return
    b = [data.draw(entries) for _ in range(m.rows)]
    x = solve_linear(m, b)
    try:
        sol, params = sympy_matrix(m.rows, m.cols, m.entries).gauss_jordan_solve(
            sympy_matrix(m.rows, 1, [[v] for v in b])
        )
    except ValueError:  # sympy: the system is inconsistent
        assert x is None
        return
    # sympy's free parameters are the non-pivot unknowns; solve_linear sets
    # them to zero
    sol = sol.subs({p: 0 for p in params})
    assert x == tuple(from_sympy(v) for v in sol)


def sympy_intersection(n: int, v1: list, v2: list) -> tuple:
    """RREF basis of span(v1) ∩ span(v2), from a sympy kernel."""
    if not v1 or not v2:
        return ()
    a = sympy_matrix(len(v1), n, v1)
    b = sympy_matrix(len(v2), n, v2)
    kernel = a.T.row_join(-b.T).nullspace()
    if not kernel:
        return ()
    vectors = sp.Matrix.hstack(*[a.T * k[: len(v1), :] for k in kernel]).T
    ref, pivots = vectors.rref()
    return tuple(
        tuple(from_sympy(ref[i, j]) for j in range(n)) for i in range(len(pivots))
    )


@settings(max_examples=150, deadline=None)
@given(rational_matrices(max_rows=5, max_cols=6), st.data())
def test_subspace_intersect_matches_sympy(m1, data):
    n = m1.cols
    m2 = data.draw(rational_matrices(max_rows=5, cols=n))
    v1 = [list(r) for r in m1.entries]
    v2 = [list(r) for r in m2.entries]
    meet = subspace_intersect(Subspace.from_vectors(n, v1), Subspace.from_vectors(n, v2))
    assert meet.basis.entries == sympy_intersection(n, v1, v2)


def reference_complement(s1: Subspace, s2: Subspace) -> Subspace:
    """Scan the basis rows of s2 in order and keep each row that enlarges
    the span of s1 and the rows kept so far (one rank test per row)."""
    working = [list(r) for r in s1.basis.entries]
    taken = []
    for row in s2.basis.entries:
        if rref(RationalMatrix.from_rows(working + [list(row)])).rank > len(working):
            working.append(list(row))
            taken.append(row)
    return Subspace.from_vectors(s1.ambient_dim, taken)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(max_rows=5, max_cols=6), st.data())
def test_complement_in_matches_the_row_scan(m1, data):
    n = m1.cols
    m2 = data.draw(rational_matrices(max_rows=5, cols=n))
    s1 = Subspace.from_vectors(n, m1.entries)
    s2 = Subspace.from_vectors(n, m1.entries + m2.entries)
    comp = complement_in(s1, s2)
    assert comp == reference_complement(s1, s2)
    assert comp.dim == s2.dim - s1.dim


# -- the sparse kernel against the dense oracle ------------------------------


@st.composite
def kernel_matrices(draw, cols=None):
    """Matrices of `rational_matrices` shapes up to 10 x 10, each either
    kept dense or thinned to about one entry in four."""
    m = draw(rational_matrices(max_rows=10, max_cols=10, cols=cols))
    if draw(st.booleans()):
        return m
    rows = [
        [v if draw(st.integers(0, 3)) == 0 else Q(0) for v in r] for r in m.entries
    ]
    return RationalMatrix(m.rows, m.cols, tuple(tuple(r) for r in rows))


nonzero_scalars = st.one_of(
    st.integers(1, 5), st.integers(-5, -1), rationals.filter(bool)
).map(Q)


@settings(max_examples=100, deadline=None)
@given(kernel_matrices(), st.data())
def test_from_vectors_canonical_under_shuffle(m, data):
    """Shuffled, rescaled and padded spanning sets of one space give one
    stored form: the dense RREF with each row scaled to primitive integers
    and a positive pivot."""
    n = m.cols
    vectors = [list(r) for r in m.entries if any(r)]
    s1 = Subspace.from_vectors(n, vectors)
    # rescale each vector by a nonzero rational of either sign, add
    # redundant combinations, then shuffle
    other = []
    for r in vectors:
        c = data.draw(nonzero_scalars)
        other.append([c * v for v in r])
    for _ in range(data.draw(st.integers(0, 3)) if vectors else 0):
        a, b = data.draw(st.lists(st.sampled_from(vectors), min_size=2, max_size=2))
        ca, cb = data.draw(entries), data.draw(entries)
        other.append([ca * x + cb * y for x, y in zip(a, b)])
    s2 = Subspace.from_vectors(n, data.draw(st.permutations(other)))
    assert s1 == s2
    assert hash(s1) == hash(s2)
    for cols, vals in s1.echelon:
        assert list(cols) == sorted(cols) and all(vals)
        assert gcd(*vals) == 1 and vals[0] > 0
    rows, pivots = dense_rref_rows(vectors)
    assert s1.basis.entries == tuple(tuple(r) for r in rows[: len(pivots)])
    # a complement is made of stored rows of the larger space, unchanged
    whole = Subspace.from_vectors(n, vectors + list(data.draw(kernel_matrices(cols=n)).entries))
    assert set(complement_in(s1, whole).echelon) <= set(whole.echelon)


@settings(max_examples=200, deadline=None)
@given(kernel_matrices(), st.data())
def test_sparse_kernel_matches_the_dense_oracle(m, data):
    rows, pivots = dense_rref_rows([list(r) for r in m.entries])
    res = rref(m)
    assert res.pivots == tuple(pivots)
    assert res.matrix.entries == tuple(tuple(r) for r in rows)
    assert nullspace(m) == dense_nullspace(m)
    b = [data.draw(entries) for _ in range(m.rows)]
    assert solve_linear(m, b) == dense_solve_linear(m, b)
    other = data.draw(kernel_matrices(cols=m.cols))
    s1 = Subspace.from_vectors(m.cols, m.entries)
    s2 = Subspace.from_vectors(m.cols, other.entries)
    assert s1 == dense_subspace(m.cols, m.entries)
    assert subspace_intersect(s1, s2) == dense_subspace_intersect(s1, s2)
    assert subspace_sum(s1, s2) == dense_subspace(m.cols, s1.basis.entries + s2.basis.entries)
    assert _hom_into(m.cols, s1) == dense_hom_into(m.cols, s1)


@settings(max_examples=100, deadline=None)
@given(kernel_matrices())
def test_add_pivot_reports_rank_growth(m):
    # rows one at a time, zero rows and repeated spans included
    pivots: dict = {}
    rank = 0
    for i, row in enumerate(m.entries):
        grew = _add_pivot(pivots, (_int_rows([row]) or [{}])[0])
        new_rank = len(dense_rref_rows([list(r) for r in m.entries[: i + 1]])[1])
        assert grew == (new_rank > rank)
        assert len(pivots) == new_rank
        rank = new_rank


@st.composite
def constraint_rows(draw, space: Subspace):
    """Rational rows on the ambient space of `space`: zero rows, dense rows,
    rows with one or two nonzero entries, rows vanishing on the space, and
    rows whose product with one basis row cancels to 0."""
    n = space.ambient_dim
    annihilator = dense_nullspace(space.basis).basis_vectors()
    kinds = ("zero", "dense", "sparse", "annihilating") + (("cancelling",) if space.dim else ())
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(kinds))
        row = [Q(0)] * n
        if kind == "dense":
            row = [draw(entries) for _ in range(n)]
        elif kind == "cancelling":
            b = draw(st.sampled_from(space.basis_vectors()))
            row = [draw(entries) for _ in range(n)]
            t = sum(x * y for x, y in zip(row, b)) / sum(y * y for y in b)
            row = [x - t * y for x, y in zip(row, b)]
        elif kind == "sparse":
            for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
                row[k] = draw(entries)
        elif kind == "annihilating":
            for f in annihilator:
                a = draw(entries)
                row = [r + a * v for r, v in zip(row, f)]
        rows.append(row)
    return rows


@st.composite
def restrict_cases(draw):
    m = draw(kernel_matrices())
    space = Subspace.from_vectors(m.cols, m.entries)
    return space, draw(constraint_rows(space))


# B = [(1, 1, 0), (0, 0, 1)]: a row (a, -a, c) meets the first basis row in
# a - a = 0
CANCELLING_SPACE = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])


@settings(max_examples=200, deadline=None)
@given(restrict_cases())
# one product cancels to 0 and one does not
@example((CANCELLING_SPACE, [[1, -1, 5]]))
# every product cancels: C B^T = 0
@example((CANCELLING_SPACE, [[1, -1, 0], [Q(-1, 2), Q(1, 2), 0]]))
# the row touches no column of the basis
@example((Subspace.from_vectors(3, [[1, 0, 0]]), [[0, 3, -1]]))
def test_restrict_matches_the_fraction_oracle(case):
    space, rows = case
    cut = restrict(space, rows)
    assert cut == fraction_restrict(space, rows)
    # the cut keeps all of the space exactly when C B^T = 0, and then it is
    # the space itself
    assert (cut is space) == (cut == space)


def test_restrict_passes_the_kernel_no_cancelled_entry(monkeypatch):
    seen = []
    kernel = exactlin._null_vectors_int
    monkeypatch.setattr(exactlin, "_null_vectors_int",
                        lambda rows, n: seen.extend(rows) or kernel(rows, n))
    # the products with the two basis rows are 1 - 1 = 0 and 5, and then 0
    # and 0: the first row reaches the kernel without its 0, the second not
    # at all
    cut = _restrict_int(CANCELLING_SPACE, [{0: 1, 1: -1, 2: 5}, {0: 2, 1: -2}])
    assert seen == [{1: 5}]
    assert cut == Subspace.from_vectors(3, [[1, 1, 0]])
