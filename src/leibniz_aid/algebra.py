"""Finite-dimensional Leibniz algebras over Q given by structure constants.

A (right) Leibniz algebra satisfies [x,[y,z]] = [[x,y],z] - [[x,z],y] on all
elements; brackets are not assumed anticommutative.  The structure constant
c[i][j][k] is the coefficient of e_{k+1} in [e_{i+1}, e_{j+1}] (indices are
0-based internally, 1-based in every public error message and document).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .exactlin import (
    DimensionMismatch,
    Q,
    QZERO,
    RationalMatrix,
    Subspace,
    as_rational,
    complement_in,
    format_rational,
    subspace_sum,
    _add_pivot,
    _freeze,
    _int_matrix,
    _nullspace_int,
    _rref_int,
    _subspace_int,
)

Vector = tuple[Q, ...]


class IndexOutOfRange(ValueError):
    """A 1-based basis index in a product list falls outside 1..dim."""


class SingularMatrix(ValueError):
    pass


class IdentityViolation(Exception):
    """The Leibniz identity fails on a triple of basis vectors.

    Carries the offending 1-based triple (i, j, k) together with both sides
    [e_i,[e_j,e_k]] and [[e_i,e_j],e_k] - [[e_i,e_k],e_j] in coordinates.
    """

    def __init__(self, i: int, j: int, k: int, lhs: Vector, rhs: Vector):
        self.i, self.j, self.k = i, j, k
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"Leibniz identity fails on (e{i},e{j},e{k}): "
            f"lhs={_coords_str(lhs)} rhs={_coords_str(rhs)}"
        )


def _coords_str(v: Sequence[Q]) -> str:
    terms = [
        f"{format_rational(c)}*e{k + 1}" for k, c in enumerate(v) if c
    ]
    return " + ".join(terms) if terms else "0"


# nz[i][j]: the pairs (k, den * c[i][j][k]) of the nonzero constants
Table = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


@dataclass(frozen=True, init=False)
class LeibnizAlgebra:
    """An algebra held as one integer table of structure constants.

    The stored form is the pair (den, nz) that `scaled_constants` returns:
    den the least common denominator of the constants and nz[i][j] the
    pairs (k, den * c[i][j][k]) for the nonzero ones, in increasing k.  That
    form is unique, so dataclass equality and hashing compare the constants.
    `LeibnizAlgebra(dim, constants, labels)` takes the constants as nested
    Fraction tuples and checks nothing; `build` checks the identity.
    `constants` is the Fraction view of the table, worked out on first
    read and then kept.
    """

    dim: int
    _table: tuple[int, Table]
    labels: tuple[str, ...] | None

    def __init__(self, dim: int, constants: Sequence[Sequence[Sequence[Q]]],
                 labels: tuple[str, ...] | None = None):
        den = lcm(*(v.denominator for plane in constants for row in plane for v in row if v))
        table = den, tuple(
            tuple(tuple((k, v.numerator * (den // v.denominator)) for k, v in enumerate(row) if v)
                  for row in plane)
            for plane in constants
        )
        # the dataclass is frozen
        self.__dict__.update(dim=dim, _table=table, labels=labels)

    @staticmethod
    def _stored(dim: int, table: tuple[int, Table],
                labels: tuple[str, ...] | None = None) -> "LeibnizAlgebra":
        """The algebra of a table in the stored form, unchecked."""
        alg = object.__new__(LeibnizAlgebra)
        alg.__dict__.update(dim=dim, _table=table, labels=labels)
        return alg

    @staticmethod
    def _checked(dim: int, table: tuple[int, Table],
                 labels: tuple[str, ...] | None = None) -> "LeibnizAlgebra":
        """The algebra of a table in the stored form, checked against the
        Leibniz identity."""
        alg = LeibnizAlgebra._stored(dim, table, labels)
        alg.check_identity()
        return alg

    def label(self, k: int) -> str:
        """Display name of the (1-based) k-th basis vector."""
        if self.labels:
            return self.labels[k - 1]
        return f"e{k}"

    # -- construction -------------------------------------------------

    @staticmethod
    def build(
        dim: int,
        products: Mapping[tuple[int, int], Mapping[int, object]],
        labels: Sequence[str] | None = None,
    ) -> "LeibnizAlgebra":
        """Build from a sparse map of basis products, 1-based indices.

        `products` maps (i, j) to {k: coefficient}; omitted pairs multiply to
        zero.  The coefficients are scaled to ints by their least common
        denominator once.  The Leibniz identity is verified on every basis
        triple and IdentityViolation raised on the first failure.
        """
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        entries: dict[tuple[int, int, int], Q] = {}
        for (i, j), coeffs in products.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise IndexOutOfRange(f"product index ({i},{j}) outside 1..{dim}")
            for k, v in coeffs.items():
                if not 1 <= k <= dim:
                    raise IndexOutOfRange(f"target index {k} outside 1..{dim}")
                entries[i - 1, j - 1, k - 1] = as_rational(v)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("label count differs from dimension")
        den = lcm(*(v.denominator for v in entries.values() if v))
        rows: list[list[list[tuple[int, int]]]] = [[[] for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), v in sorted(entries.items()):
            if v:
                rows[i][j].append((k, v.numerator * (den // v.denominator)))
        nz = tuple(tuple(tuple(row) for row in plane) for plane in rows)
        return LeibnizAlgebra._checked(dim, (den, nz), labels)

    def check_identity(self) -> None:
        """Raise IdentityViolation on the first basis triple (i, j, k), in
        lexicographic order, where the Leibniz identity fails.

        Both sides are quadratic in the constants, so they are summed over
        the nonzero constants scaled to ints by one common denominator den,
        and scaled back by den**2 only to report a failure.  Each vector
        nz[i][j] is packed into one int P[i][j] = sum_m v_m 2^(s m), so a
        side is a sum of small multiples of packed ints, one big-int
        multiply-add per term instead of a loop over the output coordinate.
        With M the largest |scaled constant| and s the bit length of
        4 n M^2, every slot of [e_i,[e_j,e_k]] is at most n M^2 in absolute
        value and every slot of the other side at most 2 n M^2, both below
        2^(s-1): the packing is one-to-one on such vectors, so the packed
        sides are equal exactly when the sides are, and a failing triple
        unpacks into its sides as balanced base-2^s digits.  Where
        [e_i, e_j] = 0 only the k with [e_j, e_k] or [e_i, e_k] nonzero are
        visited, since both sides vanish at every other k.  On a dense
        table this costs far more than building it, so `change_basis`
        checks the sparser of its two tables.
        """
        n = self.dim
        den, nz = self.scaled_constants()
        big = max((abs(v) for plane in nz for row in plane for _, v in row), default=0)
        s = (4 * n * big * big).bit_length()
        packed = [[sum(v << (s * m) for m, v in row) if row else 0 for row in plane] for plane in nz]
        reach = [{k for k, row in enumerate(plane) if row} for plane in nz]
        zero = [0] * n
        for i in range(n):
            nz_i, packed_i = nz[i], packed[i]
            # outer[j][k] is [[e_i,e_j],e_k], packed
            outer = [[sum(a * packed[t][k] for t, a in row) for k in range(n)] if row else zero
                     for row in nz_i]
            for j in range(n):
                outer_j = outer[j]
                for k in range(n) if nz_i[j] else sorted(reach[i] | reach[j]):
                    # [e_i,[e_j,e_k]] against [[e_i,e_j],e_k] - [[e_i,e_k],e_j]
                    lhs = sum(a * packed_i[t] for t, a in nz[j][k])
                    rhs = outer_j[k] - outer[k][j]
                    if lhs != rhs:
                        raise IdentityViolation(
                            i + 1, j + 1, k + 1,
                            _unpacked(lhs, s, n, den * den),
                            _unpacked(rhs, s, n, den * den),
                        )

    def scaled_constants(self) -> tuple[int, Table]:
        """(den, nz): the least common denominator of the constants, and
        nz[i][j] the pairs (k, den * c[i][j][k]) for the nonzero constants,
        as ints.  This is the stored table itself; tuples all the way down,
        so no caller can change it.
        """
        return self._table

    @cached_property
    def constants(self) -> tuple[tuple[Vector, ...], ...]:
        """c[i][j][k] as Fractions, the view of the table that `to_json_dict`
        reads; worked out on first read and kept in the instance."""
        n, (den, nz) = self.dim, self._table
        zero = (QZERO,) * n

        def vector(row: tuple[tuple[int, int], ...]) -> Vector:
            if not row:
                return zero
            v = [QZERO] * n
            for k, x in row:
                v[k] = Q(x, den)
            return tuple(v)

        return tuple(tuple(map(vector, plane)) for plane in nz)

    def basis_coords(self, i: int) -> Vector:
        """Coordinates of the 0-based i-th basis vector."""
        return tuple(Q(1) if k == i else QZERO for k in range(self.dim))

    # -- multiplication -----------------------------------------------

    def product(self, x: Sequence, y: Sequence) -> Vector:
        """[x, y] by bilinear extension of the structure constants, over
        ints: x and y scaled by one denominator d give [x, y] times den d^2."""
        d, (xs, ys) = _int_matrix([x, y])
        den = self.scaled_constants()[0]
        w = _combine(_bracket_columns(self, _pairs(xs)), _pairs(ys))
        return tuple(Q(w.get(k, 0), den * d * d) for k in range(self.dim))

    def right_mult(self, x: Sequence) -> RationalMatrix:
        """Matrix of y -> [y, x]; column j holds the coordinates of [e_j, x]."""
        d, (xs,) = _int_matrix([x])
        pairs = _pairs(xs)
        return _column_matrix(self, [_combine(_bracket_columns(self, ((j, 1),)), pairs)
                                     for j in range(self.dim)], d)

    def left_mult(self, x: Sequence) -> RationalMatrix:
        """Matrix of y -> [x, y]; column j holds the coordinates of [x, e_j]."""
        d, (xs,) = _int_matrix([x])
        return _column_matrix(self, _bracket_columns(self, _pairs(xs)), d)


def _unpacked(x: int, s: int, n: int, den: int) -> Vector:
    """The n balanced base-2^s digits of x, each below 2^(s-1) in absolute
    value, as Fractions over den."""
    out = []
    for _ in range(n):
        d = x & ((1 << s) - 1)
        if d >> (s - 1):
            d -= 1 << s
        out.append(Q(d, den))
        x = (x - d) >> s
    return tuple(out)


def _pairs(x: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero coordinates of an integer vector as (index, value) pairs."""
    return [(i, v) for i, v in enumerate(x) if v]


def _bracket_columns(alg: LeibnizAlgebra, x: Iterable[tuple[int, int]],
                     wanted: Sequence[int] | None = None) -> list[dict[int, int]]:
    """The one bracket routine: the integer vectors [x, e_j] for integer
    coordinates x given as (i, x_i) pairs, read off the integer constants,
    so each is scaled by their common denominator; they span [x, L].  With
    `wanted`, only the columns j in it are taken, in its order: [x, g] for
    a unit vector g = e_j reads one column of the table."""
    nz = alg.scaled_constants()[1]
    cols: list[dict[int, int]] = [{} for _ in (range(alg.dim) if wanted is None else wanted)]
    for i, xi in x:
        plane = nz[i] if wanted is None else [nz[i][j] for j in wanted]
        for col, entries in zip(cols, plane):
            for k, v in entries:
                col[k] = col.get(k, 0) + xi * v
    return [col if all(col.values()) else {k: v for k, v in col.items() if v} for col in cols]


def _combine(cols: Sequence[dict[int, int]], y: Iterable[tuple[int, int]]) -> dict[int, int]:
    """sum_j y_j cols[j] for y as (j, y_j) pairs: [x, y] from the columns of x."""
    out: dict[int, int] = {}
    for j, yj in y:
        for k, v in cols[j].items():
            out[k] = out.get(k, 0) + yj * v
    return out if all(out.values()) else {k: v for k, v in out.items() if v}


def _column_matrix(alg: LeibnizAlgebra, cols: Sequence[dict[int, int]], d: int) -> RationalMatrix:
    """The Fraction matrix of the integer columns of an x scaled by d."""
    n, scale = alg.dim, alg.scaled_constants()[0] * d
    return RationalMatrix(n, n, _freeze([Q(col.get(k, 0), scale) for col in cols] for k in range(n)))


# -- spans, series, annihilators --------------------------------------


def product_span(alg: LeibnizAlgebra, s1: Subspace, s2: Subspace) -> Subspace:
    """Span of [u, v] over basis vectors u of s1 and v of s2.

    The products of the stored integer basis rows are taken with the integer
    constants: the same lines, so the same span.
    """
    rows = []
    for u in s1.echelon:
        cols = _bracket_columns(alg, zip(*u))
        rows.extend(_combine(cols, zip(*v)) for v in s2.echelon)
    return _subspace_int(alg.dim, rows)


@dataclass(frozen=True)
class SeriesReport:
    terms: tuple[Subspace, ...]
    nilindex: int | None
    nilpotent: bool
    null_filiform: bool
    filiform: bool

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)


def central_series(alg: LeibnizAlgebra) -> SeriesReport:
    """Lower central series L^1 = L, L^{k+1} = [L^k, L], built from
    generators.

    Terms are listed until they stabilize; nilindex is the first s with
    L^s = 0, or None when the series stalls above zero.

    G = `complement_in(L^2, L)`, S_1 = G and S_{k+1} = [S_k, G], and the
    terms are F_k = S_k + S_{k+1} + ..., summed from the bottom up, which
    takes dim S_k * dim G products per layer where [L^k, L] takes
    dim L^k * n.  The Leibniz identity gives [x, [y, g]] = [[x, y], g] -
    [[x, g], y], so [S_a, S_{b+1}] lies in [[S_a, S_b], G] + [[S_a, G], S_b]
    and [S_a, S_b] lies in S_{a+b}, by induction on b.  Say S_s = 0 and
    F_1 = L.  Then [F_k, L] = [F_k, F_1] lies in F_{k+1}, so L^k lies in
    F_k by induction, and S_k lies in L^k, so F_k = L^k: L is nilpotent.
    A nilpotent L has L^{n+1} = 0 and is generated by any complement of
    L^2.  So when S_{n+1} is not 0, or F_1 is not L (F_2 is not L^2, as
    for [e1, e1] = e1, where G = 0), L is not nilpotent, and the series
    is the full one, `_full_series`, stalled term included.

    L^2 is the span of the table's nonzero rows [e_i, e_j].  Each vector of
    G is a unit vector e_c, so a layer [S_k, G] takes only the columns c of
    `_bracket_columns` for each echelon row of S_k.
    """
    n = alg.dim
    full = Subspace.full(n)
    square = _subspace_int(n, (dict(row) for plane in alg.scaled_constants()[1] for row in plane))
    gens = complement_in(square, full)
    cols = [row[0][0] for row in gens.echelon]
    layers = [gens]
    while layers[-1].dim and len(layers) <= n:
        layers.append(_subspace_int(n, [w for u in layers[-1].echelon
                                        for w in _bracket_columns(alg, zip(*u), cols)]))
    terms = [layers.pop()]
    for layer in reversed(layers):
        terms.append(subspace_sum(layer, terms[-1]))
    terms.reverse()
    if terms[-1].dim or terms[0] != full:
        return _full_series(alg)
    return _nilpotent_report(n, terms)


def _full_series(alg: LeibnizAlgebra) -> SeriesReport:
    """The lower central series term by term, [L^k, L] from all of L."""
    full = Subspace.full(alg.dim)
    terms = [full]
    while True:
        nxt = product_span(alg, terms[-1], full)
        if nxt.dim == terms[-1].dim:
            # stabilized above zero (or both zero for the abelian case)
            if nxt.dim == 0:
                break
            terms.append(nxt)
            return SeriesReport(tuple(terms), None, False, False, False)
        terms.append(nxt)
        if nxt.dim == 0:
            break
    return _nilpotent_report(alg.dim, terms)


def _nilpotent_report(n: int, terms: Sequence[Subspace]) -> SeriesReport:
    """The report of a series that reaches 0 at its last term."""
    nilindex = len(terms)
    dims = [t.dim for t in terms]
    null_filiform = all(
        (dims[i - 1] if i <= len(dims) else 0) == n + 1 - i for i in range(1, n + 2)
    )
    filiform = n >= 2 and all(
        (dims[i - 1] if i <= len(dims) else 0) == n - i for i in range(2, n + 1)
    )
    return SeriesReport(tuple(terms), nilindex, True, null_filiform, filiform)


@dataclass(frozen=True)
class Annihilators:
    ann_r: Subspace
    ann_l: Subspace
    center: Subspace


def annihilators(alg: LeibnizAlgebra) -> Annihilators:
    """Right annihilator {x : [L,x]=0}, left {x : [x,L]=0}, and their meet.

    The rows are read off the integer constants: row (i, m) of [e_i, x] holds
    c[i][j][m] at column j, and row (j, m) of [x, e_j] holds it at column i.
    The center is the null space of both row sets together.
    """
    n = alg.dim
    nz = alg.scaled_constants()[1]
    right: dict[tuple[int, int], dict[int, int]] = {}
    left: dict[tuple[int, int], dict[int, int]] = {}
    for i in range(n):
        for j in range(n):
            for m, v in nz[i][j]:
                right.setdefault((i, m), {})[j] = v
                left.setdefault((j, m), {})[i] = v
    right_rows, left_rows = list(right.values()), list(left.values())
    return Annihilators(
        _nullspace_int(right_rows, n),
        _nullspace_int(left_rows, n),
        _nullspace_int(right_rows + left_rows, n),
    )


# -- sums and base change -----------------------------------------------


def _int_inverse(u: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(d, Z): the least positive d with Z = d U^-1 an integer matrix, for a
    square integer matrix U, read off the reduced form [I | U^-1] of [U | I]
    (each kernel row divided by its pivot, which may be negative).  Raises
    SingularMatrix when U is not invertible."""
    n = len(u)
    reduced = _rref_int({**{j: v for j, v in enumerate(row) if v}, n + i: 1}
                        for i, row in enumerate(u))
    if len(reduced) < n or any(c >= n for c, _ in reduced):
        raise SingularMatrix("transition matrix is singular")
    d = lcm(*(row[c] for c, row in reduced))
    return d, [[row.get(n + k, 0) * (d // row[c]) for k in range(n)] for c, row in reduced]


def direct_sum(a: LeibnizAlgebra, b: LeibnizAlgebra) -> LeibnizAlgebra:
    """Block-diagonal sum; the factors do not interact.  The two tables are
    joined over lcm(den_a, den_b), the least common denominator of both."""
    n, m = a.dim, b.dim
    (den_a, nz_a), (den_b, nz_b) = a.scaled_constants(), b.scaled_constants()
    den = lcm(den_a, den_b)
    fa, fb = den // den_a, den // den_b
    nz = tuple(
        tuple(tuple((k, v * fa) for k, v in row) for row in plane) + ((),) * m for plane in nz_a
    ) + tuple(
        ((),) * n + tuple(tuple((n + k, v * fb) for k, v in row) for row in plane) for plane in nz_b
    )
    labels = None
    if a.labels or b.labels:
        labels = tuple(
            (a.labels[i] if a.labels else f"e{i + 1}") for i in range(n)
        ) + tuple((b.labels[i] if b.labels else f"e{i + 1}") + "'" for i in range(m))
    return LeibnizAlgebra._checked(n + m, (den, nz), labels)


def change_basis(alg: LeibnizAlgebra, p: RationalMatrix) -> LeibnizAlgebra:
    """Structure constants in the basis f_j = sum_i P[i][j] e_i.

    Raises DimensionMismatch when P is not n x n and SingularMatrix when it
    is not invertible.  With P = U / s over the ints, the inverse Z = d U^-1
    is checked exactly (U Z = d I), and the table is conjugated by
    definition, every column from whole planes of the given table
    (`_conjugated` with no parents).  The Leibniz identity then holds for
    the result exactly when it holds for the input, so it is checked on the
    table with fewer nonzero constants: the input, for a catalog algebra
    moved to a random basis.  For F3:30:0,0,1 and the P that
    `cli._random_invertible` draws from random.Random(1), the input's check
    takes 2 ms of the 0.11 s `change_basis` takes, where the dense result's
    would take 1.17 s (2-vCPU x86-64 host, CPython 3.11).
    """
    n = alg.dim
    if (p.rows, p.cols) != (n, n):
        raise DimensionMismatch("base change matrix has the wrong shape")
    s, u = _int_matrix(p.entries)
    d, z = _int_inverse(u)
    if _int_product(u, z) != [[d * (r == c) for c in range(n)] for r in range(n)]:
        raise AssertionError("the inverse of the base change is not exact")
    moved = _conjugated(alg, u, s, z, d)
    min((alg, moved), key=lambda a: sum(len(row) for plane in a.scaled_constants()[1]
                                        for row in plane)).check_identity()
    return moved


def _conjugated(alg: LeibnizAlgebra, u: Sequence[Sequence[int]], s: int,
                z: Sequence[Sequence[int]], d: int,
                parents: Sequence[tuple[int, int]] = ()) -> LeibnizAlgebra:
    """The one conjugation of the structure constants: alg in the basis
    f_j = U e_j / s, for an integer matrix U and Z = d U^-1, unchecked:
    `change_basis` checks the sparser of its two tables, and
    `_AdaptedBasis.of` the adapted one.

    Over ints, with the constants scaled by den, T[i][j] = Z [u_i, u_j] is
    the coordinate vector of [f_i, f_j] times S = s d den.  The last
    len(parents) columns come from their parents, as `_bracket_basis`
    records them: column j = [f_a, f_b] for (a, b) = parents[j - m], with
    m = n - len(parents), a < j and b < m.  Each column j < m is taken by
    definition, from the given table's columns [u_i, e_c] for the c where
    u_j is nonzero: whole table planes without parents (`change_basis`;
    an invertible U has no zero row),
    the generators' columns with them.  A column with parents is worked
    out in the new table, in order: the identity gives [f_i, f_j] =
    [[f_i, f_a], f_b] - [[f_i, f_b], f_a], so S T[i][j] is
    sum_k T[i][a][k] T[k][b] - T[i][b][k] T[k][a], and a division by S
    that is not exact raises AssertionError.  That column is the
    conjugate only when alg satisfies the identity.  The stored form
    divides S and every entry by their gcd G: the new den is S / G, the
    least common denominator of the constants.
    """
    n = alg.dim
    scale = s * d * alg.scaled_constants()[0]
    ucols = [_pairs(col) for col in zip(*u)]
    m = n - len(parents)
    wanted = sorted({c for col in ucols[:m] for c, _ in col})
    table: list[list[dict[int, int]]] = []
    for ucol in ucols:
        cols = dict(zip(wanted, _bracket_columns(alg, ucol, wanted)))
        row = []
        for j in range(m):
            w = _combine(cols, ucols[j])
            zw = (sum(r[k] * v for k, v in w.items()) for r in z) if w else ()
            row.append({k: t for k, t in enumerate(zw) if t})
        table.append(row)
    for j, (a, b) in enumerate(parents, m):
        for row in table:
            out: dict[int, int] = {}
            for k, x in row[a].items():
                for c, y in table[k][b].items():
                    out[c] = out.get(c, 0) + x * y
            for k, x in row[b].items():
                for c, y in table[k][a].items():
                    out[c] = out.get(c, 0) - x * y
            if any(t % scale for t in out.values()):
                raise AssertionError(f"column {j + 1} of the adapted table is not integral")
            row.append({c: t // scale for c, t in sorted(out.items()) if t})
    g = gcd(scale, *(t for row in table for col in row for t in col.values()))
    return LeibnizAlgebra._stored(n, (scale // g, tuple(
        tuple(tuple((k, t // g) for k, t in col.items()) for col in row) for row in table)))


def _bracket_basis(alg: LeibnizAlgebra, series: SeriesReport
                   ) -> tuple[int, list[list[int]], list[tuple[int, int]]]:
    """(s, U, parents): a basis adapted to the lower central series
    of a nilpotent algebra, built from brackets, degree by degree, as the
    columns of the integer matrix U divided by the scale s.

    Degree 1 is `complement_in(L^2, L)`, g unit vectors e_c, the first g
    columns; degree i+1 takes the exact products [u, e_c], u a chosen
    degree-i vector, in order, each one table column of `_bracket_columns`,
    keeping each one independent of L^{i+2} and of those kept before it.
    Column g + k is [column a, column b] for (a, b) = parents[k], with
    b < g a generator and a of the degree below; `_conjugated` reads the
    parents to write the table in this basis.  The count
    dim L^{i+1} - dim L^{i+2} is always reached: L^i = U_i + L^{i+1} and
    L = G + L^2 give L^{i+1} = [L^i, L] = [U_i, G] + [U_i, L^2] + L^{i+2},
    and the Leibniz identity [x, [y, z]] = [[x, y], z] - [[x, z], y] puts
    [L^i, L^2] in L^{i+2}.  A layer that still comes up short raises
    AssertionError.
    """
    n = alg.dim
    terms = series.terms
    gens = [row[0][0] for row in complement_in(terms[1], terms[0]).echelon]
    den = alg.scaled_constants()[0]
    # a chosen vector is (w, s), the exact vector w / s with w an integer map
    columns = [({c: 1}, 1) for c in gens]
    parents: list[tuple[int, int]] = []
    layer = range(len(gens))
    for i in range(1, len(terms) - 1):
        # degree i+1: a complement of terms[i+1] = L^{i+2} in terms[i] = L^{i+1}
        pivots = {row[0][0]: dict(zip(*row)) for row in terms[i + 1].echelon}
        want = terms[i].dim - terms[i + 1].dim
        start = len(columns)
        for a in layer:
            if len(columns) - start == want:
                break
            u, s = columns[a]
            # the integer columns are scaled by den, so [u/s, e_c] = w / (den s)
            for b, w in enumerate(_bracket_columns(alg, u.items(), gens)):
                if _add_pivot(pivots, w):
                    c = gcd(den * s, *w.values())
                    columns.append(({k: v // c for k, v in w.items()}, den * s // c))
                    parents.append((a, b))
        if len(columns) - start != want:
            raise AssertionError(f"series layer {i + 1} is short of {want} brackets")
        layer = range(start, len(columns))
    scale = lcm(*(s for _, s in columns))
    u = [[w.get(r, 0) * (scale // s) for w, s in columns] for r in range(n)]
    return scale, u, parents


# -- the series-adapted basis ------------------------------------------


def _int_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of two integer matrices given by their rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


@dataclass(frozen=True)
class _AdaptedBasis:
    """A basis adapted to the lower central series of an algebra: `alg` is
    the algebra in the basis f_j = sum_i P[i][j] e_i and `series` the
    central series of the given algebra.  P is held over the ints only:
    P = U / s and P^-1 = s Z / d, with Z = d U^-1 from the one inversion.
    U is None when the given basis is adapted already or the algebra is not
    nilpotent; then P = I and each move returns its input.
    """

    alg: LeibnizAlgebra
    series: SeriesReport
    u: Sequence[Sequence[int]] | None = None
    s: int = 1
    z: Sequence[Sequence[int]] = ()
    d: int = 1

    @staticmethod
    def of(alg: LeibnizAlgebra) -> "_AdaptedBasis":
        """The basis `_bracket_basis` builds from brackets, in which
        the constants of a nilpotent algebra only push into strictly deeper
        series layers, which keeps elimination pivots sparse.  The given
        basis is adapted already when every series term is spanned by the
        trailing unit vectors.  The table in the new basis is worked out by
        `_conjugated` from the generators' columns and, by the Leibniz
        identity, from the parents, and only the adapted table, the sparse
        one, is checked.  That is the conjugate only when alg satisfies the
        identity, which `central_series` assumes too; the raw constructor
        `LeibnizAlgebra(dim, constants, labels)` does not check it.  So when
        the basis comes up short, a column is not integral or the adapted
        table breaks the identity, alg is checked before the error is
        raised, and a table that breaks the identity raises its own
        IdentityViolation."""
        series = central_series(alg)
        # a term of dimension d is spanned by the last d unit vectors exactly
        # when its first echelon pivot is column dim - d
        if not series.nilpotent or all(
            t.dim == 0 or t.echelon[0][0][0] == alg.dim - t.dim for t in series.terms
        ):
            return _AdaptedBasis(alg, series)
        try:
            s, u, parents = _bracket_basis(alg, series)
            d, z = _int_inverse(u)
            adapted = _conjugated(alg, u, s, z, d, parents)
            adapted.check_identity()
        except (AssertionError, IdentityViolation):
            alg.check_identity()
            raise
        return _AdaptedBasis(adapted, series, u, s, z, d)

    @property
    def gens(self) -> int:
        """A count g whose first g vectors of this basis generate `alg`:
        n - dim L^2 for a nilpotent algebra of dimension n >= 1, where
        they span a complement of L^2 (`_bracket_basis` puts one first, and
        a given basis is adapted only with L^2 its trailing unit vectors),
        and n otherwise."""
        n = self.alg.dim
        return n - self.series.terms[1].dim if self.series.nilpotent and n else n

    def conjugate(self, dmat: RationalMatrix) -> list[list[int]]:
        """P^-1 D P up to a positive factor, an endomorphism of the given
        basis carried into this one over the ints: Z D' U for the integer
        multiple D' = e D, e the lcm of D's denominators, which is e d
        P^-1 D P, or D' itself when P = I."""
        dint = _int_matrix(dmat.entries)[1]
        return dint if self.u is None else _int_product(_int_product(self.z, dint), self.u)

    def endo_back(self, dm: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
        """P D P^-1 up to a positive factor, `conjugate`'s inverse: the integer
        rows U D Z for an endomorphism D of this basis given by integer rows."""
        return dm if self.u is None else _int_product(_int_product(self.u, dm), self.z)

    def row_back(self, row: tuple[tuple[int, ...], tuple[int, ...]]):
        """A stored echelon row of this basis moved to the given one, in the
        stored form (primitive, positive pivot): the row itself when P = I."""
        return self.space_back(Subspace(self.alg.dim ** 2, (row,))).echelon[0]

    def space_back(self, space: Subspace) -> Subspace:
        """{P D P^-1 : D in space} up to d / s: U D Z for each stored integer
        row D of this basis, read as an n x n matrix and mapped by its nonzero
        entries, the sum of D_ab U[:, a] (x) Z[b, :], row a of D Z first."""
        if self.u is None:
            return space
        n = self.alg.dim
        lcols = [_pairs(col) for col in zip(*self.u)]
        rrows = [dict(_pairs(row)) for row in self.z]
        rows = []
        for cols, vals in space.echelon:
            by_row: dict[int, list[tuple[int, int]]] = {}
            for ab, v in zip(cols, vals):
                a, b = divmod(ab, n)
                by_row.setdefault(a, []).append((b, v))
            out: dict[int, int] = {}
            for a, entries in by_row.items():
                dr = _combine(rrows, entries)
                for r, x in lcols[a]:
                    for c, y in dr.items():
                        out[r * n + c] = out.get(r * n + c, 0) + x * y
            rows.append({k: v for k, v in out.items() if v})
        return _subspace_int(n * n, rows)

    def point_back(self, x: Sequence[Q]) -> tuple[Q, ...]:
        """P x, a point of this basis in the coordinates of the given one."""
        if self.u is None:
            return tuple(x)
        return tuple(sum((xi * w for xi, w in zip(x, row)), QZERO) / self.s for row in self.u)

    def point_in(self, x: Sequence) -> Sequence:
        """Z x, a point x of the given basis in this one: P^-1 x up to
        d / s, which the almost inner condition, homogeneous in x, ignores."""
        return x if self.u is None else [sum(map(mul, row, x)) for row in self.z]


# -- JSON document form ------------------------------------------------


def to_json_dict(alg: LeibnizAlgebra) -> dict:
    """Sparse document form with 1-based indices and rationals as strings."""
    products = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            coeffs = {
                str(k + 1): format_rational(v)
                for k, v in enumerate(alg.constants[i][j])
                if v
            }
            if coeffs:
                products.append({"i": i + 1, "j": j + 1, "c": coeffs})
    doc: dict = {"dim": alg.dim, "products": products}
    if alg.labels:
        doc["labels"] = list(alg.labels)
    return doc


def from_json_dict(doc: Mapping) -> LeibnizAlgebra:
    """Inverse of to_json_dict; validates shape, index ranges and the identity."""
    if not isinstance(doc, Mapping) or "dim" not in doc:
        raise ValueError("algebra document must be an object with a 'dim' field")
    unknown = set(doc) - {"dim", "labels", "products"}
    if unknown:
        raise ValueError(f"unknown fields in algebra document: {sorted(unknown)}")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ValueError("'dim' must be a nonnegative integer")
    items = doc.get("products", [])
    if not isinstance(items, list):
        raise ValueError(f"'products' must be a list of product entries, not {items!r}")
    products: dict[tuple[int, int], dict[int, Q]] = {}
    for item in items:
        if not isinstance(item, Mapping) or set(item) != {"i", "j", "c"}:
            raise ValueError(f"product entries need exactly the fields i, j, c: {item!r}")
        i, j = item["i"], item["j"]
        if any(not isinstance(k, int) or isinstance(k, bool) for k in (i, j)):
            raise ValueError("product indices must be integers")
        if not isinstance(item["c"], Mapping):
            raise ValueError(f"coefficient map of product ({i},{j}) must be an object")
        for k in item["c"]:
            if not (isinstance(k, str) and k.isascii() and k.isdigit()):
                raise ValueError(f"target index {k!r} in product ({i},{j}) "
                                 "is not a string of decimal digits")
        try:
            coeffs = {int(k): as_rational(v) for k, v in item["c"].items()}
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad coefficient map in product ({i},{j}): {exc}") from exc
        if len(coeffs) != len(item["c"]):
            raise ValueError(f"a target index appears twice in product ({i},{j}): {item['c']!r}")
        key = (i, j)
        if key in products:
            raise ValueError(f"duplicate product entry for ({i},{j})")
        products[key] = coeffs
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, Sequence)
        or isinstance(labels, str)
        or not all(isinstance(s, str) for s in labels)
    ):
        raise ValueError("'labels' must be a list of strings")
    return LeibnizAlgebra.build(dim, products, labels=labels)
