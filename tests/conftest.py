"""Shared fixtures and independent oracles for the test suite.

sympy is used purely as a second opinion (nullspace dimensions, identity
checks); all production results come from the package itself.
"""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction

import pytest
import sympy as sp

import leibniz_aid as la
from leibniz_aid.cli import _random_invertible


def sympy_nullspace_dim(rows: list[list], cols: int) -> int:
    """Nullity of a rational matrix, computed by sympy."""
    if not rows:
        return cols
    m = sp.Matrix([[sp.Rational(str(v)) for v in row] for row in rows])
    return cols - m.rank()


def sympy_derivation_dim(alg: la.LeibnizAlgebra) -> int:
    """Independent computation of dim Der from the defining identity."""
    n = alg.dim
    if n == 0:
        return 0
    c = [
        [[sp.Rational(str(alg.constants[i][j][k])) for k in range(n)]
         for j in range(n)]
        for i in range(n)
    ]
    syms = sp.symbols(f"d0:{n * n}")
    d = sp.Matrix(n, n, syms)
    eqs = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                lhs = sum(c[i][j][k] * d[m, k] for k in range(n))
                rhs = sum(d[k, i] * c[k][j][m] for k in range(n)) + sum(
                    d[k, j] * c[i][k][m] for k in range(n)
                )
                eqs.append(sp.expand(lhs - rhs))
    mat = sp.Matrix([[e.coeff(s) for s in syms] for e in eqs])
    return n * n - mat.rank()


# -- the dense elimination oracle ---------------------------------------------
#
# The package eliminates on one sparse integer kernel.  The functions below
# are the dense Gauss-Jordan it replaced, kept as an independent second
# opinion: same pivot rule, same canonical reduced echelon form.


def dense_rref_rows(rows: list[list]) -> tuple[list[list], list[int]]:
    """Dense fraction-free Gauss-Jordan; returns (rows, pivot cols), with the
    nonzero rows first and zero rows padding to the input's row count."""
    work = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        work.append(_dense_primitive([v.numerator * (den // v.denominator) for v in row]))
    nrows = len(work)
    cols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        for i in range(r, nrows):
            if work[i][c]:
                break
        else:
            continue
        work[r], work[i] = work[i], work[r]
        prow = work[r]
        p = prow[c]
        for i in range(nrows):
            f = work[i][c]
            if f and i != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                work[i] = _dense_primitive([a * u - b * v for u, v in zip(work[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for row, c in zip(work, pivots):
        p = row[c]
        out.append([Fraction(v, p) for v in row])
    out.extend([Fraction(0)] * cols for _ in range(nrows - r))
    return out, pivots


def _dense_primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def dense_subspace(n: int, vectors) -> la.Subspace:
    """The span as a Subspace: each dense RREF row is scaled by the lcm of
    its denominators, which is the stored (cols, values) form."""
    rows, pivots = dense_rref_rows([list(v) for v in vectors])
    echelon = []
    for row in rows[: len(pivots)]:
        den = math.lcm(*(v.denominator for v in row))
        cols = tuple(c for c, v in enumerate(row) if v)
        echelon.append((cols, tuple(row[c].numerator * (den // row[c].denominator) for c in cols)))
    return la.Subspace(n, tuple(echelon))


def dense_nullspace(m: la.RationalMatrix) -> la.Subspace:
    rows, pivots = dense_rref_rows([list(r) for r in m.entries])
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        vectors.append(v)
    return dense_subspace(m.cols, vectors)


def dense_solve_linear(m: la.RationalMatrix, rhs: list) -> tuple | None:
    rows, pivots = dense_rref_rows([list(r) + [b] for r, b in zip(m.entries, rhs)])
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][m.cols]
    return tuple(x)


def dense_subspace_intersect(s1: la.Subspace, s2: la.Subspace) -> la.Subspace:
    n = s1.ambient_dim
    rows = [list(r) + list(r) for r in s1.basis.entries]
    rows += [list(r) + [Fraction(0)] * n for r in s2.basis.entries]
    rows, _ = dense_rref_rows(rows)
    return dense_subspace(n, [r[n:] for r in rows if not any(r[:n]) and any(r[n:])])


def dense_hom_into(n: int, target: la.Subspace) -> la.Subspace:
    """Endomorphisms of Q^n with image in the target: for each basis vector
    t of the target and each column, t placed in that column."""
    vectors = []
    for t in target.basis_vectors():
        for col in range(n):
            vec = [Fraction(0)] * (n * n)
            for k, v in enumerate(t):
                vec[k * n + col] = v
            vectors.append(vec)
    return dense_subspace(n * n, vectors)


def dense_derivation_space(alg: la.LeibnizAlgebra) -> la.Subspace:
    """Der from the Leibniz rule written out as dense Fraction rows."""
    n = alg.dim
    c = alg.constants
    rows = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[m * n + k] += c[i][j][k]
                    row[k * n + i] -= c[k][j][m]
                    row[k * n + j] -= c[i][k][m]
                rows.append(row)
    return dense_nullspace(la.RationalMatrix(len(rows), n * n, tuple(map(tuple, rows))))


# -- Fraction products and multiplication matrices ---------------------------
#
# The package multiplies over ints with one bracket routine, reads the
# annihilators and the transition inverse off integer rows on the one kernel,
# and solves for a global witness over ints.  These are the Fraction bodies
# they replaced, on the dense oracle above.


def dense_product(alg: la.LeibnizAlgebra, x, y) -> tuple:
    """[x, y] by the dense triple loop over the Fraction constants."""
    n = alg.dim
    out = [Fraction(0)] * n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            # a zero coordinate adds nothing to the sum
            if xi and yj:
                for k, v in enumerate(alg.constants[i][j]):
                    out[k] += xi * yj * v
    return tuple(out)


def dense_mult(alg: la.LeibnizAlgebra, x, side: str) -> la.RationalMatrix:
    """left_mult (column j is [x, e_j]) or right_mult (column j is [e_j, x])
    from dense products."""
    n = alg.dim
    units = [alg.basis_coords(j) for j in range(n)]
    cols = [dense_product(alg, x, e) if side == "left" else dense_product(alg, e, x) for e in units]
    return la.RationalMatrix(n, n, tuple(zip(*cols)) if n else ())


def dense_inner_combination(alg: la.LeibnizAlgebra, m: la.RationalMatrix) -> tuple | None:
    """Coefficients a with R_a = m from the n^2 x n Fraction system: entry
    (r, i) of R_a is sum_j c[i][j][r] a_j."""
    n = alg.dim
    c = alg.constants
    rows = tuple(tuple(c[i][j][r] for j in range(n)) for r in range(n) for i in range(n))
    rhs = [v for row in m.entries for v in row]
    return dense_solve_linear(la.RationalMatrix(n * n, n, rows), rhs)


def fraction_annihilators(alg: la.LeibnizAlgebra) -> la.Annihilators:
    """Right and left annihilators as null spaces of the Fraction
    multiplication matrices, and the center as their Zassenhaus meet."""
    n = alg.dim
    right_rows, left_rows = [], []
    for i in range(n):
        # [e_i, x] = left_mult(e_i) x and [x, e_i] = right_mult(e_i) x
        right_rows += dense_mult(alg, alg.basis_coords(i), "left").entries
        left_rows += dense_mult(alg, alg.basis_coords(i), "right").entries
    ann_r = dense_nullspace(la.RationalMatrix(len(right_rows), n, tuple(right_rows)))
    ann_l = dense_nullspace(la.RationalMatrix(len(left_rows), n, tuple(left_rows)))
    return la.Annihilators(ann_r, ann_l, dense_subspace_intersect(ann_r, ann_l))


def fraction_transition_inverse(columns, n: int) -> la.RationalMatrix:
    """Inverse of the matrix with the given n columns, read off the dense
    reduced form of [A | I]; SingularMatrix when A is singular."""
    aug = [
        [Fraction(columns[j][i]) for j in range(n)] + [Fraction(int(k == i)) for k in range(n)]
        for i in range(n)
    ]
    rows, pivots = dense_rref_rows(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise la.SingularMatrix("transition matrix is singular")
    return la.RationalMatrix(n, n, tuple(tuple(r[n:]) for r in rows))


def fuzz_copies(ref: str) -> list[la.LeibnizAlgebra]:
    """The catalog algebra and two bases drawn as `fuzz` draws them."""
    alg = la.make(ref)
    rng = random.Random(la.DEFAULT_SEED)
    return [alg] + [la.change_basis(alg, _random_invertible(rng, alg.dim)) for _ in range(2)]


def three_bases(ref: str) -> tuple[la.LeibnizAlgebra, list[la.RationalMatrix]]:
    """A catalog algebra and three base changes P drawn, as `fuzz` draws
    them, from random.Random(11)."""
    alg = la.make(ref)
    rng = random.Random(11)
    return alg, [_random_invertible(rng, alg.dim) for _ in range(3)]


def fraction_conjugated_constants(alg: la.LeibnizAlgebra, p: la.RationalMatrix) -> tuple:
    """c'[i][j] = P^-1 [P e_i, P e_j], over Fractions with `product`."""
    n = alg.dim
    cols = [p.col(j) for j in range(n)]
    pinv = fraction_transition_inverse(cols, n)
    return tuple(tuple(pinv.apply(alg.product(cols[i], cols[j])) for j in range(n)) for i in range(n))


# -- Fraction point conditions ------------------------------------------------
#
# The package builds the almost inner condition D(x) in [x, L] once, as
# integer rows, and restricts over ints.  These are the Fraction builders it
# replaced, on the dense oracle above.


def fraction_restrict(space: la.Subspace, constraint_rows) -> la.Subspace:
    """{v in space : C v = 0}, solved as (C B^T) y = 0 over Fractions."""
    rows = list(constraint_rows)
    if not rows or space.dim == 0:
        return space
    basis = space.basis.entries
    small = [
        [sum((a * b for a, b in zip(c, brow) if a), Fraction(0)) for brow in basis]
        for c in rows
    ]
    sol = dense_nullspace(la.RationalMatrix(len(small), space.dim, tuple(map(tuple, small))))
    vectors = [
        [sum((y * brow[k] for y, brow in zip(ys, basis)), Fraction(0))
         for k in range(space.ambient_dim)]
        for ys in sol.basis.entries
    ]
    return dense_subspace(space.ambient_dim, vectors)


def fraction_restrict_at_point(alg: la.LeibnizAlgebra, space: la.Subspace, x) -> la.Subspace:
    """The members D of space with D(x) in [x, L]: each functional f
    vanishing on [x, L] gives the row f[m] * x[k] at entry (m, k)."""
    n = alg.dim
    xq = tuple(Fraction(v) for v in x)
    image = dense_subspace(n, dense_mult(alg, xq, "left").transpose().entries)
    functionals = dense_nullspace(image.basis).basis_vectors()
    return fraction_restrict(space, [[fm * xk for fm in f for xk in xq] for f in functionals])


def fraction_aid_basis_candidate(alg: la.LeibnizAlgebra, der: la.Subspace) -> la.Subspace:
    """Derivations whose column i lies in [e_i, L], for every i."""
    n = alg.dim
    rows = []
    for i in range(n):
        image = dense_subspace(n, [alg.constants[i][j] for j in range(n)])
        for f in dense_nullspace(image.basis).basis_vectors():
            row = [Fraction(0)] * (n * n)
            for m in range(n):
                row[m * n + i] = f[m]
            rows.append(row)
    return fraction_restrict(der, rows)


def fraction_central_series_terms(alg: la.LeibnizAlgebra) -> list[la.Subspace]:
    """L^1 = L, L^{k+1} = [L^k, L] with Fraction products, until it is
    zero or stops shrinking."""
    n = alg.dim
    full = la.Subspace.full(n)
    terms = [full]
    while True:
        products = [dense_product(alg, u, e) for u in terms[-1].basis_vectors()
                    for e in full.basis_vectors()]
        nxt = dense_subspace(n, products)
        stalled = nxt.dim == terms[-1].dim
        if nxt.dim or not stalled:
            terms.append(nxt)
        if stalled or nxt.dim == 0:
            return terms


# [e2, e1] = e2, not nilpotent
SOLVABLE = la.LeibnizAlgebra.build(2, {(2, 1): {2: 1}})
# [e2, e1] = e2 and [e1, e1] = e2: L^2 = span(e2) and every layer
# S_k = [S_{k-1}, e1] is span(e2), so the layers never reach 0
ENDLESS_LAYERS = la.LeibnizAlgebra.build(2, {(1, 1): {2: 1}, (2, 1): {2: 1}})
# [e1, e1] = e1 breaks the Leibniz identity, so it is built unchecked, in
# the stored form (den 1, the pair (k, c) = (0, 1)); the series reads only
# the product, and G = 0 although L is not 0
E1E1 = la.LeibnizAlgebra._stored(1, (1, ((((0, 1),),),)))
# sl2 = span(e, f, h), perfect (L^2 = L), so G = 0 here too
SL2 = la.LeibnizAlgebra.build(3, {(1, 2): {3: 1}, (2, 1): {3: -1}, (3, 1): {1: 2},
                                  (1, 3): {1: -2}, (3, 2): {2: -2}, (2, 3): {2: 2}})

# (algebra, whether `central_series` falls back to the term-by-term series):
# the algebras off its nilpotent path, and the two nilpotent edge cases
SERIES_FALLBACK_CASES = [
    # G = span(e1), S_2 = 0, F_2 = 0 but L^2 = span(e2)
    pytest.param(SOLVABLE, True, id="solvable"),
    pytest.param(E1E1, True, id="e1e1-is-e1"),
    pytest.param(SL2, True, id="sl2"),
    pytest.param(ENDLESS_LAYERS, True, id="endless-layers"),
    pytest.param(la.LeibnizAlgebra.build(0, {}), False, id="dim-0"),
    pytest.param(la.LeibnizAlgebra.build(3, {}), False, id="abelian"),
]


def fraction_subalgebra_nilpotency(space: la.Subspace) -> tuple[tuple[int, ...], bool]:
    """The lower central series dims of a space of matrices from dense
    Fraction commutators of its basis, with the closure test by membership:
    the body `subalgebra_nilpotency` had before it took integer rows."""
    nsq = space.ambient_dim
    n = math.isqrt(nsq)
    if n * n != nsq:
        raise ValueError("ambient dimension is not a square")
    mats = [la.vec_to_endo(v, n) for v in space.basis_vectors()]

    def commutators(left):
        return la.Subspace.from_vectors(
            nsq, [la.endo_to_vec(la.bracket(a, b)) for a in left for b in mats])

    term = commutators(mats)
    if not space.contains_subspace(term):
        raise la.NotBracketClosed("commutator of basis elements leaves the space")
    dims = [space.dim]
    while True:
        dims.append(term.dim)
        if term.dim in (0, dims[-2]):
            return tuple(dims), term.dim == 0
        term = commutators([la.vec_to_endo(v, n) for v in term.basis_vectors()])


@functools.cache
def analyze(ref: str) -> la.AnalysisReport:
    """One cached analysis per catalog ref for the whole session."""
    parsed = la.parse_ref(ref)
    return la.analysis_report(
        la.make(parsed), la.AidConfig(), parsed.ref_string(), la.expected_for(parsed)
    )


@functools.cache
def aid_of(ref: str) -> la.AidResult:
    return la.aid_space(la.make(ref), la.AidConfig())


@pytest.fixture
def write_algebra(tmp_path):
    def _write(name: str, doc: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


# the instances exercised by the cross-cutting property tests
CATALOG_BATTERY = (
    "catalog:NF:2",
    "catalog:NF:3",
    "catalog:NF:5",
    "catalog:D3:L1:0",
    "catalog:D3:L1:1",
    "catalog:D3:L1:-1",
    "catalog:D3:L1:2",
    "catalog:D3:L2",
    "catalog:D3:L3",
    "catalog:D3:L4",
    "catalog:D3:L5",
    "catalog:D3:L6",
    "catalog:D4:L4:0",
    "catalog:D4:L4:1",
    "catalog:D4:L9",
    "catalog:D4:L10",
    "catalog:D4:L11",
    "catalog:D4:L12",
    "catalog:D4:L13:0",
    "catalog:D4:L13:1",
    "catalog:D4:L13:2",
    "catalog:D4:L20:0",
    "catalog:D4:L20:2",
    "catalog:F1:4:1,0",
    "catalog:F1:5:0,2,0",
    "catalog:F1:6:0,0,-3/2,0",
    "catalog:F1:5:0,1,1",
    "catalog:F2:5:0,0,3",
    "catalog:F2:6:1,0,0,1",
    "catalog:F3:5:1,2,3",
    "catalog:F3:6:0,0,1",
    "catalog:F3:5:1,1,0",
    "catalog:G53",
)
