"""Exact linear algebra over the rationals.

The interface is `fractions.Fraction`: every matrix, vector and subspace
this module takes or returns holds Fractions.  Beneath it is one
elimination kernel, `_rref_int`, sparse and over Python ints: rows are
{col: int} maps kept primitive, `_add_pivot` reduces each row against the
pivot rows by its leading column (and says whether it left their span), a
back-substitution pass clears the other pivot columns, and each pivot row
is divided by its pivot only at the end.  Every caller builds integer
rows once, enters the kernel (or `_add_pivot`) once and reads its answer
off the integer rows; no Fraction row is padded or eliminated a second
time.  Callers outside this module (Der, Inner, the annihilators, product
spans, point conditions, global witnesses) use `_rref_int`,
`_nullspace_int`, `_null_vectors_int`, `_subspace_int`, `_restrict_int`
and `_solve_int` directly.  A
subspace stores what the kernel produces: its reduced row echelon rows,
each scaled to primitive integers with a positive pivot.  That form is
unique, so it is canonical: two subspaces are equal iff their stored rows
are equal, whatever order the kernel met the rows in.  Every subspace
operation reads those integer rows; the Fraction basis is only a view.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Q = Fraction

QZERO = Q(0)
QONE = Q(1)


class DimensionMismatch(ValueError):
    """Shapes of the operands do not line up."""


class AmbientMismatch(ValueError):
    """Subspaces live in coordinate spaces of different dimensions."""


class NotASubspace(ValueError):
    """Raised by complement_in when the first space is not inside the second."""


# format_rational's output; Fraction() alone would also read "1_0", " 3", "0.5"
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def as_rational(value) -> Q:
    """Coerce an int, Fraction or 'p/q' string to a Fraction; bools are
    rejected, although Python counts them as ints, and a string must match
    `-?[0-9]+(/[0-9]+)?` with a nonzero denominator."""
    if isinstance(value, Q):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Q(value)
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value) is None:
            raise ValueError(f"not a rational p/q: {value!r}")
        return Q(value)
    raise TypeError(f"not a rational value: {value!r}")


def format_rational(value: Q) -> str:
    """Render p/q, or just p when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _freeze(rows: Iterable[Iterable[Q]]) -> tuple[tuple[Q, ...], ...]:
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix over Q, stored row major as nested tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[Q, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RationalMatrix":
        data = _freeze([as_rational(v) for v in row] for row in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise DimensionMismatch("ragged rows")
        return RationalMatrix(len(data), ncols, data)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            n, n, _freeze([QONE if i == j else QZERO for j in range(n)] for i in range(n))
        )

    def col(self, j: int) -> tuple[Q, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows, _freeze(zip(*self.entries)) if self.entries else ())

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return RationalMatrix(
            self.rows,
            self.cols,
            _freeze(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(Q(-1))

    def scale(self, c) -> "RationalMatrix":
        c = as_rational(c)
        return RationalMatrix(
            self.rows, self.cols, _freeze(tuple(c * v for v in r) for r in self.entries)
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        cols = other.transpose().entries
        data = _freeze(
            tuple(sum((a * b for a, b in zip(row, col) if a), QZERO) for col in cols)
            for row in self.entries
        )
        return RationalMatrix(self.rows, other.cols, data)

    def apply(self, vec: Sequence) -> tuple[Q, ...]:
        """Matrix times column vector."""
        v = [as_rational(x) for x in vec]
        if len(v) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum((a * b for a, b in zip(row, v) if a), QZERO) for row in self.entries)


@dataclass(frozen=True)
class RrefResult:
    matrix: RationalMatrix
    pivots: tuple[int, ...]
    rank: int


def _int_rows(rows: Iterable[Sequence[Q]]) -> list[dict[int, int]]:
    """The nonzero Fraction rows as sparse {col: int} rows, each scaled by
    the lcm of its denominators."""
    out = []
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        sparse = {c: v.numerator * (den // v.denominator) for c, v in enumerate(row) if v}
        if sparse:
            out.append(sparse)
    return out


def _int_matrix(rows: Sequence[Sequence[Q]]) -> tuple[int, list[list[int]]]:
    """(d, Z): the lcm d of the denominators and the integer rows Z = d * rows."""
    d = lcm(*(v.denominator for row in rows for v in row))
    return d, [[v.numerator * (d // v.denominator) for v in row] for row in rows]


def _fraction_rows(reduced: Iterable[tuple[int, dict[int, int]]], ncols: int) -> list[list[Q]]:
    """Kernel output as dense Fraction rows, each divided by its pivot."""
    out = []
    for c, row in reduced:
        p = row[c]
        dense = [QZERO] * ncols
        for k, v in row.items():
            dense[k] = Q(v, p)
        out.append(dense)
    return out


def _rref_int(rows: Iterable[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """The one elimination kernel: sparse, fraction-free, over ints.

    Rows are {col: int} maps without zero entries.  `_add_pivot` reduces
    each row against the pivot rows by its leading column until it is zero
    or leads in a new column, which makes it a pivot row.  A
    back-substitution pass, last pivot first, then clears every pivot row at
    the other pivot columns.  Every update a*row - b*pivot_row is divided by
    its content, so rows stay primitive.  Returns (pivot col, row) by pivot
    column; dividing each row by its entry at the pivot gives the reduced
    echelon form.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        _add_pivot(pivots, row)
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            row = _eliminate(row, k, pivots[k])
        pivots[c] = row
    return [(c, pivots[c]) for c in order]


def _add_pivot(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    """The kernel's forward step: reduce row against the pivot rows, keyed
    by leading column, until it is zero or leads in a new column, which it
    then takes.  Returns whether it did: whether row left their span."""
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            pivots[c] = _primitive_map(row)
            return True
        row = _eliminate(row, c, prow)
    return False


def _eliminate(row: dict[int, int], c: int, prow: dict[int, int]) -> dict[int, int]:
    """The primitive part of a*row - b*prow, with a, b chosen to clear col c."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = {k: a * v for k, v in row.items()} if a != 1 else dict(row)
    for k, v in prow.items():
        w = out.get(k, 0) - b * v
        if w:
            out[k] = w
        else:
            del out[k]
    return _primitive_map(out)


def _primitive_map(row: dict[int, int]) -> dict[int, int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _nullspace_int(rows: Iterable[dict[int, int]], ncols: int) -> "Subspace":
    """Canonical basis of the null space of sparse integer rows in Q^ncols."""
    return _subspace_int(ncols, _null_vectors_int(rows, ncols))


def _null_vectors_int(rows: Iterable[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Integer vectors spanning the null space of sparse integer rows in
    Q^ncols, not in reduced echelon form: for each free column f, 1 at f and
    -row[f]/pivot at each pivot column, scaled to integers."""
    reduced = _rref_int(rows)
    # hits[f]: (pivot col, pivot entry, entry at f) of the rows nonzero at f
    hits: dict[int, list[tuple[int, int, int]]] = {}
    for c, row in reduced:
        p = row[c]
        for f, v in row.items():
            if f != c:
                hits.setdefault(f, []).append((c, p, v))
    pivot_cols = {c for c, _ in reduced}
    vectors = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        column = hits.get(f, ())
        scale = lcm(*(p for _, p, _ in column))
        vec = {f: scale}
        for c, p, v in column:
            vec[c] = -v * (scale // p)
        vectors.append(vec)
    return vectors


def _subspace_int(ambient_dim: int, rows: Iterable[dict[int, int]]) -> "Subspace":
    """The Subspace spanned by sparse integer rows."""
    echelon = []
    # the kernel keeps its rows primitive; only the pivot's sign is free
    for c, row in _rref_int(row for row in rows if row):
        cols = tuple(sorted(row))
        sign = 1 if row[c] > 0 else -1
        echelon.append((cols, tuple(sign * row[k] for k in cols)))
    return Subspace(ambient_dim, tuple(echelon))


def _dict_rows(space: "Subspace") -> list[dict[int, int]]:
    """The stored rows of a subspace as fresh {col: int} rows for the kernel."""
    return [dict(zip(cols, vals)) for cols, vals in space.echelon]


def rref(matrix: RationalMatrix) -> RrefResult:
    """Reduced row echelon form with the pivot columns and the rank.

    The nonzero rows of the reduced echelon form are unique; they come
    first, by pivot column, and zero rows pad the result to the input's row
    count.
    """
    reduced = _rref_int(_int_rows(matrix.entries))
    rows = _fraction_rows(reduced, matrix.cols)
    rows.extend([QZERO] * matrix.cols for _ in range(matrix.rows - len(reduced)))
    return RrefResult(
        RationalMatrix(matrix.rows, matrix.cols, _freeze(rows)),
        tuple(c for c, _ in reduced),
        len(reduced),
    )


def nullspace(matrix: RationalMatrix) -> "Subspace":
    """Canonical basis of {v : Mv = 0} inside Q^cols."""
    return _nullspace_int(_int_rows(matrix.entries), matrix.cols)


def solve_linear(matrix: RationalMatrix, rhs: Sequence) -> tuple[Q, ...] | None:
    """A particular solution of Mx = b, or None when none exists.

    None is returned exactly when rank([M|b]) exceeds rank(M).  The solution
    returned sets every free variable to zero.
    """
    b = [as_rational(v) for v in rhs]
    if len(b) != matrix.rows:
        raise DimensionMismatch("rhs length mismatch")
    return _solve_int(_int_rows([*r, bv] for r, bv in zip(matrix.entries, b)), matrix.cols)


def _solve_int(rows: Iterable[dict[int, int]], cols: int) -> tuple[Q, ...] | None:
    """solve_linear over sparse integer rows [M | b], b held at column cols:
    the solution with every free variable zero, or None."""
    reduced = _rref_int(rows)
    if reduced and reduced[-1][0] == cols:
        return None
    x = [QZERO] * cols
    for c, row in reduced:
        x[c] = Q(row.get(cols, 0), row[c])
    return tuple(x)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held as its reduced row echelon basis.

    `echelon` holds one (cols, values) pair per basis row, by pivot column:
    the row's nonzero columns in increasing order and its entries scaled to
    primitive integers, the first of them (the pivot) positive.  That form
    is unique, so dataclass equality and hashing are subspace equality.
    Build subspaces with `from_vectors`, `zero` or `full`; `basis` is the
    reduced echelon basis over Fractions, worked out on first read.
    """

    ambient_dim: int
    echelon: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = []
        for v in vectors:
            row = [as_rational(x) for x in v]
            if len(row) != ambient_dim:
                raise DimensionMismatch("vector does not live in the ambient space")
            rows.append(row)
        return _subspace_int(ambient_dim, _int_rows(rows))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(((i,), (1,)) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.echelon)

    @cached_property
    def basis(self) -> RationalMatrix:
        reduced = ((cols[0], dict(zip(cols, vals))) for cols, vals in self.echelon)
        rows = _fraction_rows(reduced, self.ambient_dim)
        return RationalMatrix(len(rows), self.ambient_dim, _freeze(rows))

    def basis_vectors(self) -> tuple[tuple[Q, ...], ...]:
        return self.basis.entries

    def reduce(self, vector: Sequence) -> tuple[Q, ...]:
        """Residue of a vector after elimination against the basis."""
        v = [as_rational(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector/ambient mismatch")
        for row in self.basis.entries:
            p = next(c for c, e in enumerate(row) if e)
            f = v[p]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vector: Sequence) -> bool:
        return all(v == 0 for v in self.reduce(vector))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("subspace ambient mismatch")
        return all(self.contains(row) for row in other.basis.entries)


def _check_ambient(s1: Subspace, s2: Subspace) -> None:
    if s1.ambient_dim != s2.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    _check_ambient(s1, s2)
    return _subspace_int(s1.ambient_dim, _dict_rows(s1) + _dict_rows(s2))


def subspace_intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Zassenhaus: eliminate [B1|B1; B2|0], read the intersection off the
    right block of the rows whose pivot lies in it (their left block is
    zero)."""
    _check_ambient(s1, s2)
    n = s1.ambient_dim
    rows = [{**r, **{k + n: v for k, v in r.items()}} for r in _dict_rows(s1)]
    rows += _dict_rows(s2)
    return _subspace_int(
        n, ({k - n: v for k, v in row.items()} for c, row in _rref_int(rows) if c >= n)
    )


def complement_in(s1: Subspace, s2: Subspace) -> Subspace:
    """A deterministic T with s1 + T = s2 and s1 ∩ T = 0.

    Requires s1 ⊆ s2.  The basis rows of s2 are scanned in order and a row is
    kept whenever it enlarges the span (`_add_pivot` accepts it), which
    extends the reduced echelon basis of s1 by standard-order pivots.
    """
    _check_ambient(s1, s2)
    pivots: dict[int, dict[int, int]] = {}
    for row in _dict_rows(s1):
        _add_pivot(pivots, row)
    taken = tuple(r for r in s2.echelon if _add_pivot(pivots, dict(zip(*r))))
    # the rank is dim(s1 + s2), which is dim s2 exactly when s1 ⊆ s2
    if len(pivots) != s2.dim:
        raise NotASubspace("first space is not contained in the second")
    # rows of a reduced echelon basis are one too, in the stored form already
    return Subspace(s1.ambient_dim, taken)


def restrict(space: Subspace, constraint_rows: Sequence[Sequence[Q]]) -> Subspace:
    """{v in space : C v = 0} for a list of constraint row vectors."""
    return _restrict_int(space, _int_rows(constraint_rows))


def _restrict_int(space: Subspace, rows: Iterable[dict[int, int]]) -> Subspace:
    """{v in space : C v = 0} for sparse integer rows C: the combinations
    y B with (C B^T) y = 0, B the stored integer basis."""
    basis = _dict_rows(space)
    small = []
    for row in rows:
        acc = {}
        for b, brow in enumerate(basis):
            v = sum(a * brow.get(k, 0) for k, a in row.items())
            if v:
                acc[b] = v
        if acc:
            small.append(acc)
    if not small:
        return space
    vectors = []
    for y in _null_vectors_int(small, len(basis)):
        vec: dict[int, int] = {}
        for b, coef in y.items():
            for k, v in basis[b].items():
                vec[k] = vec.get(k, 0) + coef * v
        vectors.append({k: v for k, v in vec.items() if v})
    return _subspace_int(space.ambient_dim, vectors)
