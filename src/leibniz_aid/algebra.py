"""Finite-dimensional Leibniz algebras over Q given by structure constants.

A (right) Leibniz algebra satisfies [x,[y,z]] = [[x,y],z] - [[x,z],y] on all
elements; brackets are not assumed anticommutative.  The structure constant
c[i][j][k] is the coefficient of e_{k+1} in [e_{i+1}, e_{j+1}] (indices are
0-based internally, 1-based in every public error message and document).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Mapping, Sequence

from .exactlin import (
    Q,
    QONE,
    QZERO,
    RationalMatrix,
    Subspace,
    as_rational,
    complement_in,
    format_rational,
    _fraction_rows,
    _freeze,
    _int_matrix,
    _int_rows,
    _nullspace_int,
    _rref_int,
    _subspace_int,
)

Vector = tuple[Q, ...]


class IndexOutOfRange(ValueError):
    """A 1-based basis index in a product list falls outside 1..dim."""


class NotAnIdeal(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


class NotNilpotent(ValueError):
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


@dataclass(frozen=True)
class LeibnizAlgebra:
    dim: int
    constants: tuple[tuple[Vector, ...], ...]
    labels: tuple[str, ...] | None = None

    def label(self, k: int) -> str:
        """Display name of the (1-based) k-th basis vector."""
        if self.labels:
            return self.labels[k - 1]
        return f"e{k}"

    # -- construction -------------------------------------------------

    @staticmethod
    def build(
        dim: int,
        products: Mapping[tuple[int, int], Mapping[int, object]] | Sequence,
        check: str = "enforce",
        labels: Sequence[str] | None = None,
    ) -> "LeibnizAlgebra":
        """Build from a sparse list of basis products, 1-based indices.

        `products` maps (i, j) to {k: coefficient}; omitted pairs multiply to
        zero.  A sequence of (i, j, {k: coeff}) triples is also accepted.
        With check='enforce' the Leibniz identity is verified on every basis
        triple and IdentityViolation raised on the first failure; 'skip'
        trusts the caller.
        """
        if check not in ("enforce", "skip"):
            raise ValueError(f"unknown check mode: {check!r}")
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        table = [[[QZERO] * dim for _ in range(dim)] for _ in range(dim)]
        items = products.items() if isinstance(products, Mapping) else (
            ((i, j), c) for i, j, c in products
        )
        for (i, j), coeffs in items:
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise IndexOutOfRange(f"product index ({i},{j}) outside 1..{dim}")
            for k, v in coeffs.items():
                if not 1 <= k <= dim:
                    raise IndexOutOfRange(f"target index {k} outside 1..{dim}")
                table[i - 1][j - 1][k - 1] = table[i - 1][j - 1][k - 1] + as_rational(v)
        constants = tuple(tuple(tuple(row) for row in plane) for plane in table)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("label count differs from dimension")
        alg = LeibnizAlgebra(dim, constants, labels)
        if check == "enforce":
            alg.check_identity()
        return alg

    def check_identity(self) -> None:
        """Raise IdentityViolation on the first basis triple (i, j, k), in
        lexicographic order, where the Leibniz identity fails.

        Both sides are quadratic in the constants, so they are summed over
        the nonzero constants scaled to ints by one common denominator den,
        and scaled back by den**2 only to report a failure.
        """
        n = self.dim
        den, nz = self.scaled_constants()
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # [e_i,[e_j,e_k]] and [[e_i,e_j],e_k] - [[e_i,e_k],e_j]
                    lhs, rhs = [0] * n, [0] * n
                    for t, a in nz[j][k]:
                        for m, b in nz[i][t]:
                            lhs[m] += a * b
                    for t, a in nz[i][j]:
                        for m, b in nz[t][k]:
                            rhs[m] += a * b
                    for t, a in nz[i][k]:
                        for m, b in nz[t][j]:
                            rhs[m] -= a * b
                    if lhs != rhs:
                        raise IdentityViolation(
                            i + 1, j + 1, k + 1,
                            tuple(Q(v, den * den) for v in lhs),
                            tuple(Q(v, den * den) for v in rhs),
                        )

    def scaled_constants(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
        """(den, nz): one common denominator of the constants, and nz[i][j]
        the pairs (k, den * c[i][j][k]) for the nonzero constants, as ints.

        Computed once per algebra and kept in the instance; tuples all the
        way down, so no caller can change the shared copy.
        """
        cached = self.__dict__.get("_scaled_constants")
        if cached is None:
            c = self.constants
            den = lcm(*(v.denominator for plane in c for row in plane for v in row))
            cached = den, tuple(
                tuple(
                    tuple((k, v.numerator * (den // v.denominator)) for k, v in enumerate(row) if v)
                    for row in plane
                )
                for plane in c
            )
            # the dataclass is frozen; the cache is not one of its fields
            self.__dict__["_scaled_constants"] = cached
        return cached

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


def _pairs(x: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero coordinates of an integer vector as (index, value) pairs."""
    return [(i, v) for i, v in enumerate(x) if v]


def _bracket_columns(alg: LeibnizAlgebra, x: Iterable[tuple[int, int]]) -> list[dict[int, int]]:
    """The one bracket routine: the integer vectors [x, e_j] for integer
    coordinates x given as (i, x_i) pairs, read off the integer constants,
    so each is scaled by their common denominator; they span [x, L]."""
    nz = alg.scaled_constants()[1]
    cols: list[dict[int, int]] = [{} for _ in range(alg.dim)]
    for i, xi in x:
        for col, entries in zip(cols, nz[i]):
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
    """Lower central series L^1 = L, L^{k+1} = [L^k, L].

    Terms are listed until they stabilize; nilindex is the first s with
    L^s = 0, or None when the series stalls above zero.
    """
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
    nilindex = len(terms)
    n = alg.dim
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


# -- quotients, sums, base change, grading -----------------------------


def _transition_inverse(columns: Sequence[Sequence[Q]], n: int) -> RationalMatrix:
    """Inverse of the matrix whose columns are the given n vectors."""
    aug = [
        [columns[j][i] for j in range(n)] + [QONE if k == i else QZERO for k in range(n)]
        for i in range(n)
    ]
    reduced = _rref_int(_int_rows(aug))
    if len(reduced) < n or any(c >= n for c, _ in reduced):
        raise SingularMatrix("transition matrix is singular")
    return RationalMatrix(n, n, _freeze(row[n:] for row in _fraction_rows(reduced, 2 * n)))


def quotient(alg: LeibnizAlgebra, ideal: Subspace) -> tuple[LeibnizAlgebra, RationalMatrix]:
    """Quotient by a two-sided ideal, with the projection matrix.

    The quotient basis is the deterministic complement of the ideal inside L;
    the projection maps old coordinates to quotient coordinates.  Raises
    NotAnIdeal when [L,I] or [I,L] leaves I.
    """
    full = Subspace.full(alg.dim)
    if not ideal.contains_subspace(product_span(alg, full, ideal)):
        raise NotAnIdeal("[L, I] is not contained in I")
    if not ideal.contains_subspace(product_span(alg, ideal, full)):
        raise NotAnIdeal("[I, L] is not contained in I")
    comp = complement_in(ideal, full)
    a, m, n = ideal.dim, comp.dim, alg.dim
    columns = list(ideal.basis_vectors()) + list(comp.basis_vectors())
    proj = RationalMatrix(m, n, _transition_inverse(columns, n).entries[a:])
    # in the basis of these columns the projection keeps the last m coordinates
    c = change_basis(alg, RationalMatrix(n, n, _freeze(zip(*columns)))).constants
    products = {
        (i + 1, j + 1): {k + 1: v for k, v in enumerate(c[a + i][a + j][a:]) if v}
        for i in range(m)
        for j in range(m)
    }
    return LeibnizAlgebra.build(m, products, check="enforce"), proj


def direct_sum(a: LeibnizAlgebra, b: LeibnizAlgebra) -> LeibnizAlgebra:
    """Block-diagonal sum; the factors do not interact."""
    n, m = a.dim, b.dim
    products: dict[tuple[int, int], dict[int, Q]] = {}
    for i in range(n):
        for j in range(n):
            coeffs = {k + 1: v for k, v in enumerate(a.constants[i][j]) if v}
            if coeffs:
                products[(i + 1, j + 1)] = coeffs
    for i in range(m):
        for j in range(m):
            coeffs = {n + k + 1: v for k, v in enumerate(b.constants[i][j]) if v}
            if coeffs:
                products[(n + i + 1, n + j + 1)] = coeffs
    labels = None
    if a.labels or b.labels:
        labels = tuple(
            (a.labels[i] if a.labels else f"e{i + 1}") for i in range(n)
        ) + tuple((b.labels[i] if b.labels else f"e{i + 1}") + "'" for i in range(m))
    return LeibnizAlgebra.build(n + m, products, check="skip", labels=labels)


def change_basis(alg: LeibnizAlgebra, p: RationalMatrix) -> LeibnizAlgebra:
    """Structure constants in the basis f_j = sum_i P[i][j] e_i.

    Raises SingularMatrix when P is not invertible.  The result is re-checked
    against the Leibniz identity (cheap insurance, the identity is basis
    independent).
    """
    n = alg.dim
    if (p.rows, p.cols) != (n, n):
        raise SingularMatrix("base change matrix has the wrong shape")
    inv = _transition_inverse([p.col(j) for j in range(n)], n)
    # over ints: U = s P, Z = d P^-1 and the constants scaled by den, so
    # Z [u_i, u_j] is the coordinate vector of [f_i, f_j] times d den s^2
    den = alg.scaled_constants()[0]
    s, u = _int_matrix(p.entries)
    d, z = _int_matrix(inv.entries)
    scale = d * den * s * s
    ucols = [_pairs(col) for col in zip(*u)]
    products: dict[tuple[int, int], dict[int, Q]] = {}
    for i in range(n):
        cols = _bracket_columns(alg, ucols[i])
        for j in range(n):
            w = _combine(cols, ucols[j])
            if w:
                zw = (sum(row[m] * v for m, v in w.items()) for row in z)
                products[(i + 1, j + 1)] = {k + 1: Q(t, scale) for k, t in enumerate(zw) if t}
    return LeibnizAlgebra.build(n, products, check="enforce")


def _series_columns(series: SeriesReport) -> tuple[list[Vector], list[int]]:
    """A basis adapted to the lower central series of a nilpotent algebra,
    with the degree of each vector: degree i spans a deterministic complement
    of L^{i+1} inside L^i."""
    columns: list[Vector] = []
    degrees: list[int] = []
    terms = series.terms
    for i in range(len(terms) - 1):
        comp = complement_in(terms[i + 1], terms[i]).basis_vectors()
        columns.extend(comp)
        degrees.extend([i + 1] * len(comp))
    return columns, degrees


def graded(alg: LeibnizAlgebra) -> LeibnizAlgebra:
    """Associated graded algebra of the lower central series filtration.

    The basis is adapted to the series (see _series_columns); products are
    projected onto the component of the matching total degree.  Requires a
    nilpotent input.
    """
    series = central_series(alg)
    if not series.nilpotent:
        raise NotNilpotent("the lower central series does not reach zero")
    columns, degrees = _series_columns(series)
    n = alg.dim
    c = change_basis(alg, RationalMatrix(n, n, _freeze(zip(*columns)))).constants
    products = {
        (i + 1, j + 1): {
            k + 1: v
            for k, v in enumerate(c[i][j])
            if v and degrees[k] == degrees[i] + degrees[j]
        }
        for i in range(n)
        for j in range(n)
    }
    return LeibnizAlgebra.build(n, products, check="enforce")


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
