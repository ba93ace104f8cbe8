"""Derivation towers of Leibniz algebras: Der, Inner, AID, RCAID, CAID.

A derivation d satisfies d([x,y]) = [d(x),y] + [x,d(y)].  Right
multiplications R_x(y) = [y,x] span the inner derivations.  An almost inner
derivation moves every element inside its own right ideal: D(x) in [x, L]
for all x.  Subspaces of endomorphisms live in the n^2-dimensional
coordinate space of matrices, vectorized row major; column j of a matrix is
the image of e_j.

Membership of a candidate D in AID is decided in three stages: a linear
upper bound from the per-basis-vector conditions, a symbolic certificate
pass that either proves D(x) in [x,L] for every rational x by case-split
elimination, or returns a concrete refuting x (verified by an exact rank
test), or gives up with an explicit inconclusive verdict, and exact
sampling refinement over a deterministic grid plus seeded random points.
The certificate pass runs on the linear bound before sampling, which then
tests its points only against the generators not proved, and once more,
reusing each outcome, on the generators the refined space adds.  Once
nothing outside the proved part is left to cut, the walk stops testing
points; the sample count it reports is still that of the full walk.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, gcd, isqrt
from typing import Iterator, Sequence

from ._poly import Poly
from .algebra import (
    LeibnizAlgebra,
    SeriesReport,
    _coords_str,
    _bracket_columns,
    _pairs,
    _series_columns,
    _transition_inverse,
    annihilators,
    central_series,
    change_basis,
)
from .exactlin import (
    Q,
    QZERO,
    RationalMatrix,
    Subspace,
    as_rational,
    _freeze,
    _add_pivot,
    _dict_rows,
    _int_matrix,
    _null_vectors_int,
    _nullspace_int,
    _primitive_map,
    _restrict_int,
    _solve_int,
    _subspace_int,
    solve_linear,
    subspace_intersect,
    subspace_sum,
    complement_in,
)

DEFAULT_SEED = 3141592653
# random sample points have entries in -RANDOM_BOUND..RANDOM_BOUND, and the
# refinement stops after STALL_LIMIT of them in a row cut nothing
RANDOM_BOUND = 10
STALL_LIMIT = 25
# refutation rounds before AID is reported `partial`
MAX_ROUNDS = 60
# certifier nodes per generator before it is `inconclusive`
NODE_BUDGET = 4000


class NotBracketClosed(ValueError):
    """The given endomorphism space is not closed under the commutator."""


class NotInCaid(ValueError):
    """No global x makes D - R_x land in the center."""


# ---------------------------------------------------------------------------
# vectorized endomorphisms


def endo_to_vec(m: RationalMatrix) -> tuple[Q, ...]:
    return tuple(v for row in m.entries for v in row)


def vec_to_endo(vec: Sequence[Q], n: int) -> RationalMatrix:
    return RationalMatrix(n, n, _freeze(vec[r * n : (r + 1) * n] for r in range(n)))


def matrix_unit(n: int, row: int, col: int) -> RationalMatrix:
    """The endomorphism sending e_col to e_row (1-based), all else to zero."""
    return RationalMatrix(
        n,
        n,
        _freeze(
            tuple(Q(1) if (r + 1 == row and c + 1 == col) else QZERO for c in range(n))
            for r in range(n)
        ),
    )


def endo_actions(alg: LeibnizAlgebra, m: RationalMatrix) -> list[str]:
    """Readable per-basis-vector description, e.g. 'e2 -> e4'."""
    out = []
    for j in range(alg.dim):
        img = m.col(j)
        if any(img):
            out.append(f"{alg.label(j + 1)} -> {_coords_str(img)}")
    return out or ["0"]


# ---------------------------------------------------------------------------
# linear spaces of derivations


def derivation_space(alg: LeibnizAlgebra) -> Subspace:
    """Null space of the Leibniz-rule constraints in endomorphism space.

    The constraint for (i, j) at coordinate m is
    sum_k c[i][j][k] D[m][k] - c[k][j][m] D[k][i] - c[i][k][m] D[k][j] = 0.
    Rows are built sparse from the integer constants, made primitive and
    deduplicated, then eliminated by the sparse integer kernel.
    """
    n = alg.dim
    _, nz = alg.scaled_constants()
    # by_left[i]: (k, m, c[i][k][m]); by_right[j]: (k, m, c[k][j][m])
    by_left = [[(k, m, v) for k in range(n) for m, v in nz[i][k]] for i in range(n)]
    by_right = [[(k, m, v) for k in range(n) for m, v in nz[k][j]] for j in range(n)]
    rows: list[dict[int, int]] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    for i in range(n):
        for j in range(n):
            acc: list[dict[int, int]] = [{} for _ in range(n)]
            for k, v in nz[i][j]:
                for m in range(n):
                    acc[m][m * n + k] = v
            for k, m, v in by_right[j]:
                row = acc[m]
                row[k * n + i] = row.get(k * n + i, 0) - v
            for k, m, v in by_left[i]:
                row = acc[m]
                row[k * n + j] = row.get(k * n + j, 0) - v
            for row in acc:
                row = {col: v for col, v in row.items() if v}
                if row:
                    row = _primitive_map(row)
                    key = tuple(sorted(row.items()))
                    if key not in seen:
                        seen.add(key)
                        rows.append(row)
    return _nullspace_int(rows, n * n)


def inner_space(alg: LeibnizAlgebra) -> Subspace:
    """Span of the right multiplications R_{e_j}, read off the integer
    constants: entry (r, i) of R_{e_j} is c[i][j][r]."""
    n = alg.dim
    nz = alg.scaled_constants()[1]
    rows = [{r * n + i: v for i in range(n) for r, v in nz[i][j]} for j in range(n)]
    return _subspace_int(n * n, rows)


def inner_combination(alg: LeibnizAlgebra, m: RationalMatrix) -> tuple[Q, ...] | None:
    """Coefficients a with R_a = m, or None: the global witness for target 0."""
    return restriction_witness(alg, m, Subspace.zero(alg.dim))


def aid_basis_candidate(alg: LeibnizAlgebra, der: Subspace | None = None) -> Subspace:
    """Derivations whose column i lies in [e_i, L], for every i.

    This is only the basis-vector slice of the almost inner condition, hence
    an upper bound for AID that the sampling refinement then tightens.
    """
    n = alg.dim
    if der is None:
        der = derivation_space(alg)
    rows = []
    for i in range(n):
        rows.extend(_point_conditions(alg, [1 if k == i else 0 for k in range(n)]))
    return _restrict_int(der, rows)


def _point_conditions(alg: LeibnizAlgebra, x: Sequence[int]) -> list[dict[int, int]]:
    """Integer rows, linear in D, that all vanish iff D(x) in [x, L], for an
    integer x: each integer functional f vanishing on [x, L] gives f(D x) = 0,
    the row f[m] * x[k] at entry (m, k)."""
    n = alg.dim
    xs = _pairs(x)
    return [
        {m * n + k: fm * xk for m, fm in f.items() for k, xk in xs}
        for f in _null_vectors_int(_bracket_columns(alg, xs), n)
    ]


# ---------------------------------------------------------------------------
# sampling refinement


@dataclass(frozen=True)
class AidConfig:
    seed: int = DEFAULT_SEED


def refinement_grid(n: int) -> Iterator[tuple[int, ...]]:
    """Deterministic sample points for the almost inner condition.

    Dimensions up to 5 get the full integer grid (radius 2 up to dimension 4,
    radius 1 at dimension 5); above that, all vectors supported on at most 3
    coordinates with entries in {-2, -1, 1, 2}.  Points that are scalar
    multiples of earlier ones impose the same constraint and are skipped.
    `_grid_length(n)` is the number of points, so a walk that stops
    testing them early still counts the whole grid.
    """
    if n == 0:
        return
    if n <= 5:
        r = 2 if n <= 4 else 1
        for point in itertools.product(range(-r, r + 1), repeat=n):
            if _primitive(point):
                yield point
    else:
        for size in (1, 2, 3):
            for support in itertools.combinations(range(n), size):
                for vals in itertools.product((-2, -1, 1, 2), repeat=size):
                    point = [0] * n
                    for pos, v in zip(support, vals):
                        point[pos] = v
                    if _primitive(point):
                        yield tuple(point)


def _grid_length(n: int) -> int:
    """The number of points `refinement_grid(n)` yields, in closed form.

    A point is kept when its entries have gcd 1 and its first nonzero
    entry is positive, so of the nonzero vectors with gcd 1 exactly half
    are kept (x and -x pair off).  For n <= 4 the nonzero vectors of
    {-2..2}^n number 5^n - 1, and those with gcd 2 are the 3^n - 1 nonzero
    vectors of {-2, 0, 2}^n: (5^n - 3^n)/2.  For n = 5 every nonzero
    vector of {-1, 0, 1}^5 has gcd 1: (3^5 - 1)/2 = 121.  For n >= 6 a
    support of size s carries 4^s value tuples, half with a positive first
    entry, less the 2^(s-1) of those made of +-2 only: 1 for s = 1, 6 for
    s = 2 and 28 for s = 3, so n + 6 C(n,2) + 28 C(n,3).
    """
    if n == 0:
        return 0
    if n <= 4:
        return (5**n - 3**n) // 2
    if n == 5:
        return (3**5 - 1) // 2
    return n + 6 * comb(n, 2) + 28 * comb(n, 3)


def _primitive(point: Sequence[int]) -> bool:
    return gcd(*point) == 1 and next(v for v in point if v) > 0


class _CutView:
    """A complement in a candidate space of a part P that never cuts, seen
    over the integers, for the cut test at integer x.

    P is Inner plus the generators the certifier proved before the walk.
    No member of AID cuts: for D = E + C with E in P and C in the
    complement, E(x) lies in [x, L] at every x (for E = R_a it is [x, a]),
    so x cuts the candidate iff it cuts the complement.  The stored basis
    vectors C_b are integer vectors, so at an integer x the images C_b(x)
    and the bracket columns [x, e_j] are integer vectors spanning the same
    lines as the rational ones.  x cuts iff some C_b(x) leaves the span of
    the columns.
    """

    __slots__ = ("alg", "images")

    def __init__(self, alg: LeibnizAlgebra, space: Subspace):
        n = alg.dim
        self.alg = alg
        # images[b]: {k: [(m, C_b[m][k])]} for the nonzero columns k
        self.images = []
        for b in space.echelon:
            cols: dict[int, list[tuple[int, int]]] = {}
            for idx, v in zip(*b):
                m, k = divmod(idx, n)
                cols.setdefault(k, []).append((m, v))
            self.images.append(cols)

    def cuts(self, x: Sequence[int]) -> bool:
        """Whether C(x) in [x, L] fails for some C of the space."""
        pivots: dict[int, dict[int, int]] | None = None
        for image in self.images:
            img: dict[int, int] = {}
            for k, col in image.items():
                xk = x[k]
                if xk:
                    for m, v in col:
                        img[m] = img.get(m, 0) + xk * v
            img = {m: v for m, v in img.items() if v}
            # a zero image never cuts: [x, L] is eliminated only for the
            # first nonzero one
            if not img:
                continue
            if pivots is None:
                pivots = {}
                for col in _bracket_columns(self.alg, _pairs(x)):
                    _add_pivot(pivots, col)
            if _add_pivot(pivots, img):
                return True
        return False


def _restrict_at_point(alg: LeibnizAlgebra, space: Subspace, x: Sequence) -> Subspace:
    """The members D of space with D(x) in [x, L], for a rational x.

    The condition is homogeneous in x, so x is scaled to integers first.
    """
    return _restrict_int(space, _point_conditions(alg, _int_matrix([x])[1][0]))


def aid_refine(
    alg: LeibnizAlgebra,
    space: Subspace,
    cfg: AidConfig = AidConfig(),
    inner: Subspace | None = None,
    *,
    _proved: Subspace | None = None,
) -> tuple[Subspace, int]:
    """Intersect a candidate space with sampled almost-inner conditions.

    Walks the deterministic grid, then random points seeded by cfg.seed, with
    entries in -RANDOM_BOUND..RANDOM_BOUND, until STALL_LIMIT consecutive
    samples fail to shrink the space.  `inner` is Inner(L) (worked out here
    when not given) and must lie inside space.  `_proved` is Inner plus the
    generators the certifier has proved (Inner when not given): no member
    of AID cuts, so each point is tested on a complement of `_proved` only.
    It lies in every restriction of the space, and if a point ever cut one
    of its generators, `complement_in` would raise.  Once the space is
    `_proved` no point can cut, so the walk stops testing points and counts
    the ones left: the rest of the grid, and the STALL_LIMIT - stall
    nonzero random points that would end it.  The samples counted do not
    depend on `_proved`, and reaching dim Inner ends the walk: the result
    always contains the inner derivations.  Returns the refined space and
    the number of samples the full walk uses.
    """
    n = alg.dim
    samples = 0
    if n == 0 or space.dim == 0:
        return space, samples
    if inner is None:
        inner = inner_space(alg)
    proved = inner if _proved is None else _proved
    # sample points are integers: the cut test runs on the integer view, and
    # only a point that cuts takes the exact restriction
    view = _CutView(alg, complement_in(proved, space))
    for point in refinement_grid(n):
        if space.dim <= inner.dim:
            break
        if not view.images:
            # nothing outside P is left to cut, and the space no longer
            # moves: the rest of the grid is counted, not walked
            samples = _grid_length(n)
            break
        samples += 1
        if view.cuts(point):
            space = _restrict_at_point(alg, space, point)
            view = _CutView(alg, complement_in(proved, space))
    rng = random.Random(cfg.seed)
    stall = 0
    while stall < STALL_LIMIT and space.dim > inner.dim:
        if not view.images:
            # every remaining nonzero point would stall: count them
            samples += STALL_LIMIT - stall
            break
        point = tuple(rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for _ in range(n))
        if not any(point):
            continue
        samples += 1
        dim = space.dim
        if view.cuts(point):
            space = _restrict_at_point(alg, space, point)
            view = _CutView(alg, complement_in(proved, space))
        # the exact restriction, not the view, decides whether the stall ends
        stall = 0 if space.dim < dim else stall + 1
    return space, samples


# ---------------------------------------------------------------------------
# symbolic certification


@dataclass(frozen=True)
class CertOutcome:
    """branch_log, after a "series-adapted basis" line when elimination ran
    there: if proved, nothing (or "inner: constant witness"); if refuted, the
    refuting leaf's case path; if inconclusive, each undecided leaf in walk
    order, its case path and then its reason."""

    kind: str  # 'proved' | 'refuted' | 'inconclusive'
    refuting_x: tuple[Q, ...] | None = None
    branch_log: tuple[str, ...] = ()


class _CertContext:
    """What every branch of one certification shares: the algebra, the
    derivation and the node budget left."""

    __slots__ = ("alg", "dmat", "budget")

    def __init__(self, alg, dmat):
        self.alg = alg
        self.dmat = dmat
        self.budget = NODE_BUDGET


def _strip_row(row: list[Poly], nz: frozenset[int]) -> list[Poly]:
    """Remove a safe common monomial and the rational content of a row, its
    coefficients followed by its right-hand side.

    Dividing a whole row by a shared monomial is an equivalence only where
    the monomial cannot vanish, so only variables the current branch forces
    nonzero are divided out.  (Dividing by anything else can overconstrain a
    shared unknown on the vanishing locus: t2*w1 = 0 does not force w1 = 0 at
    t2 = 0.)  Rational content removal is always exact; it is read off the
    first nonzero entry, to keep coefficients small, and dividing by a
    monomial leaves it alone.
    """
    polys = [p for p in row if not p.is_zero()]
    if not polys:
        return row
    c = polys[0].rational_content()
    mono = polys[0].monomial_gcd()
    for p in polys[1:]:
        mono = tuple(min(a, b) for a, b in zip(mono, p.monomial_gcd()))
    mono = tuple(e if i in nz else 0 for i, e in enumerate(mono))
    if any(mono):
        row = [p.divide_monomial(mono) if not p.is_zero() else p for p in row]
    if c != 1:
        row = [p.scale(Q(1) / c) for p in row]
    return row


def _search_refutation(
    ctx: _CertContext,
    residual: Poly,
    nz: frozenset[int],
    polys: tuple[Poly, ...],
    subs: list[tuple[int, Poly]],
) -> tuple[Q, ...] | None:
    """Look for a small rational point where the branch residual is nonzero.

    Candidate points keep the branch's nonzero conditions (nz and polys) as
    a guide; each candidate is then verified with the exact rank test, which
    is the only thing that can declare a refutation.
    """
    n = ctx.alg.dim
    substituted = {k for k, _ in subs}
    free = sorted(nz.union(
        residual.variables(), *(r.variables() for _, r in subs),
        *(p.variables() for p in polys),
    ) - substituted)
    if not free:
        free = [v for v in range(n) if v not in substituted][:1]
    checks = 0
    seen = 0
    prev = 0
    for radius in (1, 2, 3, 5, 7):
        for vals in itertools.product(range(-radius, radius + 1), repeat=len(free)):
            if vals and max(abs(v) for v in vals) <= prev:
                continue  # inner shells were already tried
            seen += 1
            if seen > 20000:
                return None
            point = [QZERO] * n
            for var, v in zip(free, vals):
                point[var] = Q(v)
            for var, repl in reversed(subs):
                point[var] = repl.evaluate(point)
            if residual.evaluate(point) == 0:
                continue
            if any(point[v] == 0 for v in nz) or any(
                p.evaluate(point) == 0 for p in polys
            ):
                continue
            checks += 1
            if aid_witness(ctx.alg, ctx.dmat, point) is None:
                return tuple(point)
            if checks > 50:
                return None
        prev = radius
    return None


def _linear_power(p: Poly) -> Poly | None:
    """A linear form l with p = c * l**k (k >= 2), or None.

    The zero set of such a pivot is the hyperplane l = 0, so a case split on
    l is exact even though the pivot itself is linear in no variable.  The
    coefficients of l are read off the leading terms and the factorization is
    then verified by exact multiplication, so a wrong guess returns None.
    """
    k = p.total_degree()
    if k < 2:
        return None
    variables = sorted(p.variables())
    # every variable of c*l**k reaches the full degree k
    if any(p.degree_in(v) != k for v in variables):
        return None
    nvars = p.nvars
    v0 = variables[0]
    c = p.terms.get(tuple(k if i == v0 else 0 for i in range(nvars)))
    if not c:
        return None
    # normalize l to unit v0-coefficient; the t_v0^(k-1)*t_w coefficient of
    # c*l**k is then c*k*a_w, and the t_v0^(k-1) coefficient is c*k*a_0
    terms = {tuple(1 if i == v0 else 0 for i in range(nvars)): Q(1)}
    a0 = p.terms.get(tuple(k - 1 if i == v0 else 0 for i in range(nvars)), QZERO)
    if a0:
        terms[(0,) * nvars] = a0 / (c * k)
    for w in variables[1:]:
        mono = tuple(
            k - 1 if i == v0 else (1 if i == w else 0) for i in range(nvars)
        )
        aw = p.terms.get(mono, QZERO)
        if aw:
            terms[tuple(1 if i == w else 0 for i in range(nvars))] = aw / (c * k)
    ell = Poly(nvars, terms)
    power = ell
    for _ in range(k - 1):
        power = power * ell
    return ell if power.scale(c) == p else None


# a branch state: the variables and the other polynomials it holds nonzero
_Held = tuple[frozenset[int], tuple[Poly, ...]]


def _held_nonzero(nz: frozenset[int], polys: tuple[Poly, ...], p: Poly) -> _Held:
    """The branch state (nz, polys) that also holds p != 0.

    A nonzero monomial holds every variable in it nonzero, and those join the
    set nz, which later pivots can exploit one variable at a time; a nonzero
    constant adds nothing, and any other polynomial joins polys.
    """
    if len(p.terms) == 1:
        return nz | p.variables(), polys
    return nz, polys + (p,)


def _pivot_choice(rows: list[list[Poly]]) -> tuple[int, int, Poly]:
    """Pick the next pivot entry; smaller score first.

    Score class 0: nonzero constants (no case split at all), 1: polynomials
    linear in some variable with a rational coefficient (both branches
    resolvable), 2: anything else.  Ties prefer sparse columns, then sparse
    rows, low degree, and finally position, which keeps runs deterministic.
    """
    col_fill = [0] * (len(rows[0]) - 1)
    for row in rows:
        for c, p in enumerate(row[:-1]):
            if not p.is_zero():
                col_fill[c] += 1
    best = None
    for i, row in enumerate(rows):
        coeffs = row[:-1]
        row_fill = sum(1 for p in coeffs if not p.is_zero())
        for c, p in enumerate(coeffs):
            if p.is_zero():
                continue
            if p.is_constant():
                cls = 0
            elif p.linear_var_with_constant_coeff() is not None:
                cls = 1
            else:
                cls = 2
            score = (cls, col_fill[c], row_fill, p.total_degree(), len(p.terms), i, c)
            if best is None or score < best[0]:
                best = (score, i, c, p)
    _, i, c, p = best
    return i, c, p


def _eliminate(
    rows: list[list[Poly]], pi: int, pc: int, pivot: Poly
) -> list[list[Poly]]:
    """Consume the pivot row by the fraction-free update pivot*row - f*pivot_row,
    which keeps entries polynomial.  A constant pivot leaves its factor on
    each updated row; the next node's `_strip_row` divides it out."""
    prow = rows[pi]
    out = []
    for idx, row in enumerate(rows):
        if idx == pi:
            continue
        f = row[pc]
        if f.is_zero():
            out.append(row)
            continue
        new = [pivot * a - f * b for a, b in zip(row, prow)]
        new[pc] = Poly.zero(pivot.nvars)
        out.append(new)
    return out


def _decide(
    ctx: _CertContext,
    rows: list[list[Poly]],
    nz: frozenset[int],
    polys: tuple[Poly, ...],
    subs: list[tuple[int, Poly]],
    path: tuple[str, ...],
) -> Iterator[CertOutcome]:
    """Eliminate rows, each its coefficients then its right-hand side, on the
    branch that holds nz and polys nonzero, after subs, and yield the leaves
    of its case tree that are not proved, in walk order, each log starting
    with path, the branch's case labels (see `CertOutcome`); a branch that
    yields nothing is proved."""
    ctx.budget -= 1
    if ctx.budget <= 0:
        yield CertOutcome("inconclusive", branch_log=path + ("node budget exhausted",))
        return
    # normalize and triage
    cleaned = []
    for row in rows:
        row = _strip_row(row, nz)
        if all(p.is_zero() for p in row[:-1]):
            rhs = row[-1]
            if rhs.is_zero():
                continue
            x = _search_refutation(ctx, rhs, nz, polys, subs)
            if x is None:
                reason = f"unverified residual {rhs}"
                yield CertOutcome("inconclusive", branch_log=path + (reason,))
            else:
                yield CertOutcome("refuted", refuting_x=x, branch_log=path)
            return
        cleaned.append(row)
    rows = cleaned
    if all(row[-1].is_zero() for row in rows):
        return
    pi, pc, pivot = _pivot_choice(rows)
    if len(pivot.terms) == 1 and pivot.variables() <= nz:
        # a nonzero constant, or a monomial in variables the branch already
        # forces nonzero: the pivot cannot vanish here, so no case split
        yield from _decide(ctx, _eliminate(rows, pi, pc, pivot), nz, polys, subs, path)
        return
    zero = _zero_branch(pivot, nz, polys)
    split_poly, cases = (pivot, []) if zero is None else zero
    # branch split_poly != 0 (the same region as pivot != 0)
    yield from _decide(
        ctx, _eliminate(rows, pi, pc, pivot), *_held_nonzero(nz, polys, split_poly),
        subs, path + (f"case {split_poly} != 0",),
    )
    if zero is None:
        note = f"cannot solve {pivot} = 0 (nonlinear in every variable)"
        yield CertOutcome("inconclusive", branch_log=path + (note,))
    for label, k, replacement, state in cases:
        zero_rows = [[p.subs_var(k, replacement) for p in row] for row in rows]
        yield from _decide(
            ctx, zero_rows, *state, subs + [(k, replacement)],
            path + (f"case {label}, t{k + 1} := {replacement}",),
        )


def _solved_for(ell: Poly) -> tuple[int, Poly]:
    """(k, r) with ell = 0 exactly where t_k = r, for ell linear in t_k with a
    rational coefficient (the smallest such k)."""
    k, coeff = ell.linear_var_with_constant_coeff()
    return k, (ell - Poly.var(ell.nvars, k, coeff)).scale(Q(-1) / coeff)


def _linear_reading(p: Poly) -> Poly | None:
    """p itself when it is a constant or linear in some variable with a
    rational coefficient, else the l of p = c * l**k, else None."""
    if p.is_constant() or p.linear_var_with_constant_coeff() is not None:
        return p
    return _linear_power(p)


def _zero_branch(
    pivot: Poly, nz: frozenset[int], polys: tuple[Poly, ...]
) -> tuple[Poly, list[tuple[str, int, Poly, _Held]]] | None:
    """Split pivot = 0 into cases; None when it cannot be solved.

    Returns (split, cases), where the branch pivot != 0 records split != 0,
    the same region.  The pivot is read as m * l, m a monomial and l linear
    in some variable with a rational coefficient, a power of such a form, or
    a constant.  In order: the pivot itself is l (split is the pivot); the
    pivot is a rational multiple of a power of a linear form l (split is l);
    m is the pivot's monomial gcd, and the quotient is read the same way
    (split is the pivot).  m * l = 0 splits into t_v = 0 for each variable v
    of m outside nz, the variables the branch holds nonzero, then all those
    t_v nonzero and l = 0, solved for one variable of l.  Each case is
    (label, k, replacement for t_k, the branch state (nz, polys) of the case).
    """
    nvars = pivot.nvars
    mono = (0,) * nvars
    ell = _linear_reading(pivot)
    if ell is None and any(mono := pivot.monomial_gcd()):
        ell = _linear_reading(pivot.divide_monomial(mono))
    if ell is None:
        return None
    zero = Poly.zero(nvars)
    mvars = [v for v, e in enumerate(mono) if e and v not in nz]
    cases = [(f"t{v + 1} = 0", v, zero, (nz, polys)) for v in mvars]
    if not ell.is_constant():
        k, replacement = _solved_for(ell)
        state = nz, polys
        for v in mvars:
            state = _held_nonzero(*state, Poly.var(nvars, v).subs_var(k, replacement))
        label = "".join(f"t{v + 1} != 0, " for v in mvars) + f"{ell} = 0"
        cases.append((label, k, replacement, state))
    return (pivot if any(mono) else ell), cases


@dataclass(frozen=True)
class _AdaptedBasis:
    """`alg` in the basis f_j = sum_i p[i][j] e_i; p is None when the given
    basis is adapted already or the algebra is not nilpotent."""

    alg: LeibnizAlgebra
    p: RationalMatrix | None = None
    pinv: RationalMatrix | None = None


def _series_adapted_basis(alg: LeibnizAlgebra, series: SeriesReport) -> _AdaptedBasis:
    """The algebra in a basis adapted to its lower central series.

    In such a basis the structure constants of a nilpotent algebra only push
    into strictly deeper series layers, which keeps elimination pivots sparse.
    """
    if not series.nilpotent:
        return _AdaptedBasis(alg)
    columns, _ = _series_columns(series)
    n = alg.dim
    p = RationalMatrix(n, n, _freeze(zip(*columns)))
    if p == RationalMatrix.identity(n):
        return _AdaptedBasis(alg)
    return _AdaptedBasis(change_basis(alg, p), p, _transition_inverse(columns, n))


def _conjugated(space: Subspace, basis: _AdaptedBasis) -> Subspace:
    """{P D P^-1 : D in space}, for a space of endomorphisms in the adapted
    basis.  Each P D P^-1 is formed over the ints from the stored integer
    basis, up to a nonzero factor that leaves the span alone."""
    n = basis.alg.dim
    p, pinv = _int_matrix(basis.p.entries)[1], _int_matrix(basis.pinv.entries)[1]
    rows = []
    for cols, vals in space.echelon:
        d = [[0] * n for _ in range(n)]
        for idx, v in zip(cols, vals):
            r, c = divmod(idx, n)
            d[r][c] = v
        m = _int_product(_int_product(p, d), pinv)
        rows.append({r * n + c: x for r, row in enumerate(m) for c, x in enumerate(row) if x})
    return _subspace_int(n * n, rows)


def _int_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x) for col in cols] for row in a]


def aid_certify(
    alg: LeibnizAlgebra,
    dmat: RationalMatrix,
    *,
    _basis: _AdaptedBasis | None = None,
) -> CertOutcome:
    """Decide whether D(x) lies in [x, L] for every rational x.

    The witness equation left_mult(x) w = D x is eliminated symbolically in
    the coordinates t of x, splitting into pivot = 0 / pivot != 0 cases when
    a pivot polynomial can vanish, within NODE_BUDGET nodes.  Every split
    removes a row (pivot != 0) or a variable (each zero case), so no branch
    nests more than 2n splits.  `_zero_branch` solves pivot = 0 for one
    variable per case; a pivot it cannot solve leaves that branch (and with
    it the whole certificate) inconclusive.

    An inner D is proved first by its constant witness, D = R_w: elimination
    alone leaves some inner D inconclusive (R_e2 on D4:L13:0 in some random
    bases).

    Almost-innerness does not depend on the basis, while elimination is very
    sensitive to it, so a nilpotent algebra is eliminated in a basis adapted
    to its lower central series, where the constants are triangular by layer;
    `_basis` is that basis when the caller has computed it already.  The
    leaves `_decide` yields are read up to the first refuted one, a concrete
    rational point mapped back to the given basis and re-verified there with
    an exact rank comparison; one that does not replay ends an inconclusive
    log.  The log of each outcome is as `CertOutcome` says.
    """
    n = alg.dim
    if n == 0:
        return CertOutcome("proved")
    if inner_combination(alg, dmat) is not None:
        return CertOutcome("proved", branch_log=("inner: constant witness",))
    basis = _basis
    if basis is None:
        basis = _series_adapted_basis(alg, central_series(alg))
    dm = dmat if basis.p is None else basis.pinv @ dmat @ basis.p
    # row m of the witness equation, linear forms in t, as [M | b]:
    # sum_j (sum_i c[i][j][m] t_i) w_j = sum_k D[m][k] t_k
    c = basis.alg.constants
    unit = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    rows = [
        [Poly(n, {unit[i]: c[i][j][m] for i in range(n)}) for j in range(n)]
        + [Poly(n, dict(zip(unit, dm.entries[m])))]
        for m in range(n)
    ]
    log = prefix = () if basis.p is None else ("series-adapted basis",)
    for leaf in _decide(_CertContext(basis.alg, dm), rows, frozenset(), (), [], ()):
        if leaf.kind == "refuted":
            if basis.p is None:
                return leaf
            x = basis.p.apply(leaf.refuting_x)
            if aid_witness(alg, dmat, x) is None:
                return CertOutcome("refuted", refuting_x=x, branch_log=prefix + leaf.branch_log)
            note = "refuting point does not replay in the given basis"
            return CertOutcome("inconclusive", branch_log=log + leaf.branch_log + (note,))
        log += leaf.branch_log
    return CertOutcome("proved" if log == prefix else "inconclusive", branch_log=log)


def aid_witness(
    alg: LeibnizAlgebra, dmat: RationalMatrix, x: Sequence
) -> tuple[Q, ...] | None:
    """A concrete a with [x, a] = D(x), or None when there is none."""
    xs = tuple(as_rational(v) for v in x)
    return solve_linear(alg.left_mult(xs), dmat.apply(xs))


# ---------------------------------------------------------------------------
# the AID space


@dataclass(frozen=True)
class AidResult:
    upper_bound: Subspace
    proved: Subspace
    status: str  # 'certified_exact' | 'probabilistic' | 'partial'
    samples_used: int
    seed: int
    witnesses: tuple[tuple[RationalMatrix, tuple[Q, ...]], ...]
    proved_generators: tuple[tuple[RationalMatrix, CertOutcome], ...] = ()
    inconclusive_generators: tuple[tuple[RationalMatrix, CertOutcome], ...] = ()

    @property
    def dim(self) -> int:
        return self.upper_bound.dim


def aid_space(alg: LeibnizAlgebra, cfg: AidConfig = AidConfig()) -> AidResult:
    """Compute AID(L) with certificates.

    Pipeline: linear candidate from basis conditions, certification of a
    deterministic complement of Inner in it, grid/random sampling refinement
    that tests its points only against the generators not proved (a proved
    one never cuts), then certification of a deterministic complement of
    Inner inside the refined space, reusing the outcome of each generator
    certified before.  A refuted generator's refuting x restricts
    the space at x (no sampling resumes) and the complement is certified
    again; the loop ends when every complement generator is proved
    (certified_exact) or some remain inconclusive (probabilistic), or the
    round cap is hit (partial).
    """
    return _der_inner_aid(alg, cfg)[2]


def _der_inner_aid(
    alg: LeibnizAlgebra, cfg: AidConfig, series: SeriesReport | None = None
) -> tuple[Subspace, Subspace, AidResult, _AdaptedBasis]:
    """Der, Inner and AID of one algebra, each computed once, and the
    series-adapted basis they used; `series` is the central series when the
    caller has it already.

    Der is solved in the series-adapted basis, where the Leibniz-rule system
    is sparse, and each basis vector is mapped back by D -> P D P^-1.  Inner,
    the linear candidate and the sampling refinement stay in the given basis:
    the basis-vector slice D e_i in [e_i, L] and the sample grid depend on
    the basis, and so do the samples and witnesses reported.
    """
    n = alg.dim
    basis = _series_adapted_basis(alg, series if series is not None else central_series(alg))
    if basis.p is None:
        der = derivation_space(alg)
    else:
        der = _conjugated(derivation_space(basis.alg), basis)
    inner = inner_space(alg)
    cand = aid_basis_candidate(alg, der)
    # each generator is certified once, keyed by its vector: the candidate's
    # generators before the walk, and any new ones the walk leaves after it
    outcomes: dict[tuple[Q, ...], CertOutcome] = {}

    def certified(gen_vec: tuple[Q, ...]) -> CertOutcome:
        if gen_vec not in outcomes:
            outcomes[gen_vec] = aid_certify(alg, vec_to_endo(gen_vec, n), _basis=basis)
        return outcomes[gen_vec]

    # a proved generator never cuts, so the walk tests its points only
    # against the generators left open
    gens = complement_in(inner, cand).basis_vectors()
    first = [v for v in gens if certified(v).kind == "proved"]
    first_proved = subspace_sum(inner, Subspace.from_vectors(n * n, first)) if first else inner
    space, samples = aid_refine(alg, cand, cfg, inner=inner, _proved=first_proved)
    refutations: list[tuple[RationalMatrix, tuple[Q, ...]]] = []
    proved_gens: list[tuple[RationalMatrix, CertOutcome]] = []
    inconclusive: list[tuple[RationalMatrix, CertOutcome]] = []
    status = "partial"
    for _ in range(MAX_ROUNDS):
        proved_gens, inconclusive = [], []
        for gen_vec in complement_in(inner, space).basis_vectors():
            gmat = vec_to_endo(gen_vec, n)
            outcome = certified(gen_vec)
            if outcome.kind == "refuted":
                refutations.append((gmat, outcome.refuting_x))
                space = _restrict_at_point(alg, space, outcome.refuting_x)
                samples += 1
                break
            if outcome.kind == "proved":
                proved_gens.append((gmat, outcome))
            else:
                inconclusive.append((gmat, outcome))
        else:
            status = "probabilistic" if inconclusive else "certified_exact"
            break
    if status == "certified_exact":
        # Inner plus a proved complement is the whole space; one object for
        # both bounds, since callers may keep many results alive
        proved = space
    else:
        proved = subspace_sum(
            inner,
            Subspace.from_vectors(n * n, [endo_to_vec(g) for g, _ in proved_gens]),
        )
    aid = AidResult(
        upper_bound=space,
        proved=proved,
        status=status,
        samples_used=samples,
        seed=cfg.seed,
        witnesses=tuple(refutations),
        proved_generators=tuple(proved_gens),
        inconclusive_generators=tuple(inconclusive),
    )
    return der, inner, aid, basis


# ---------------------------------------------------------------------------
# restricted and central almost inner derivations


def _hom_into(n: int, target: Subspace) -> Subspace:
    """Endomorphisms whose image lies inside the target subspace of Q^n."""
    return _subspace_int(
        n * n,
        ({k * n + col: v for k, v in zip(*t)} for t in target.echelon for col in range(n)),
    )


def rcaid_caid(alg: LeibnizAlgebra, target: str, aid: Subspace) -> Subspace:
    """AID elements D with D - R_x mapping into the target for one global x.

    target is 'right_ann' or 'center'.  Linear description:
    aid ∩ (Inner + Hom(L, T)).
    """
    ann = annihilators(alg)
    if target == "right_ann":
        t = ann.ann_r
    elif target == "center":
        t = ann.center
    else:
        raise ValueError(f"unknown target: {target!r}")
    return _envelope_meet(aid, inner_space(alg), t)


def _envelope_meet(aid: Subspace, inner: Subspace, target: Subspace) -> Subspace:
    """aid ∩ (Inner + Hom(L, target))."""
    envelope = subspace_sum(inner, _hom_into(target.ambient_dim, target))
    return subspace_intersect(aid, envelope)


def restriction_witness(
    alg: LeibnizAlgebra, dmat: RationalMatrix, target: Subspace
) -> tuple[Q, ...] | None:
    """A global x with (D - R_x)(L) inside the target, if one exists: for
    each integer functional f vanishing on the target and each j, the row
    f . [e_j, x] = f . D e_j over ints, times den (constants) and d (D)."""
    n = alg.dim
    den, nz = alg.scaled_constants()
    d, dint = _int_matrix(dmat.entries)
    functionals = _null_vectors_int(_dict_rows(target), n)
    rows = []
    for j in range(n):
        for f in functionals:
            # nz[j][i] holds [e_j, e_i] times den
            row = {i: d * sum(f.get(m, 0) * v for m, v in entries)
                   for i, entries in enumerate(nz[j])}
            row[n] = den * sum(fm * dint[m][j] for m, fm in f.items())
            rows.append({k: v for k, v in row.items() if v})
    return _solve_int(rows, n)


def caid_restriction_witness(alg: LeibnizAlgebra, dmat: RationalMatrix) -> tuple[Q, ...]:
    """The global x for a central almost inner derivation; NotInCaid otherwise."""
    x = restriction_witness(alg, dmat, annihilators(alg).center)
    if x is None:
        raise NotInCaid("no global x maps D - R_x into the center")
    return x


# ---------------------------------------------------------------------------
# Lie structure on derivation spaces


def bracket(d1: RationalMatrix, d2: RationalMatrix) -> RationalMatrix:
    return (d1 @ d2) - (d2 @ d1)


def subalgebra_nilpotency(space: Subspace) -> tuple[tuple[int, ...], bool]:
    """Lower central series dims of a bracket-closed space of matrices.

    Raises NotBracketClosed when some commutator of basis elements leaves
    the space.  Returns the series dimensions and whether it reaches zero.
    """
    nsq = space.ambient_dim
    n = isqrt(nsq)
    if n * n != nsq:
        raise ValueError("ambient dimension is not a square")
    mats = [vec_to_endo(v, n) for v in space.basis_vectors()]

    def commutators(left: list[RationalMatrix]) -> Subspace:
        return Subspace.from_vectors(
            nsq, [endo_to_vec(bracket(a, b)) for a in left for b in mats])

    # the first term [S, S] is also the closure test
    term = commutators(mats)
    if not space.contains_subspace(term):
        raise NotBracketClosed("commutator of basis elements leaves the space")
    dims = [space.dim]
    while True:
        dims.append(term.dim)
        if term.dim in (0, dims[-2]):
            return tuple(dims), term.dim == 0
        term = commutators([vec_to_endo(v, n) for v in term.basis_vectors()])


# ---------------------------------------------------------------------------
# full analysis


@dataclass(frozen=True)
class Deviation:
    location: str
    expected: str
    computed: str
    certificate: dict


@dataclass(frozen=True)
class AnalysisReport:
    algebra_id: str
    dim: int
    labels: tuple[str, ...] | None
    series: SeriesReport
    annihilator_dims: dict
    tower: dict
    aid: AidResult
    rcaid: Subspace
    caid: Subspace
    complement_generators: tuple[dict, ...]
    deviations: tuple[Deviation, ...]
    notes: tuple[str, ...]


def analysis_report(
    alg: LeibnizAlgebra,
    cfg: AidConfig = AidConfig(),
    algebra_id: str = "file:algebra",
    expected=None,
) -> AnalysisReport:
    """Series, annihilators and the full derivation tower of one algebra.

    `expected` is an optional catalog record of published dimensions; any
    disagreement is reported as a deviation that carries a machine-checkable
    certificate.
    """
    from .catalog import build_deviations  # local import to avoid a cycle

    series = central_series(alg)
    ann = annihilators(alg)
    der, inner, aid, basis = _der_inner_aid(alg, cfg, series)
    notes = [
        "field: Q; sampling and certificates range over rational points only",
        "matrix convention: column j is the image of e_j; transposed "
        "presentations of the same generator are treated as the same object",
    ]
    if aid.status != "certified_exact":
        notes.append(
            "aid not certified exact; rcaid/caid computed from the proved lower bound"
        )
    # certified exact, the proved bound is the upper bound
    rcaid = _envelope_meet(aid.proved, inner, ann.ann_r)
    caid = _envelope_meet(aid.proved, inner, ann.center)
    tower = {
        "der": der.dim,
        "inner": inner.dim,
        "aid": aid.upper_bound.dim,
        "aid_proved": aid.proved.dim,
        "rcaid": rcaid.dim,
        "caid": caid.dim,
        "outer": der.dim - inner.dim,
    }
    comp_info = []
    for kind, pairs in (
        ("proved", aid.proved_generators),
        ("inconclusive", aid.inconclusive_generators),
        ("refuted", aid.witnesses),
    ):
        for gmat, detail in pairs:
            info = {"matrix": gmat, "actions": endo_actions(alg, gmat), "outcome": kind}
            if kind == "refuted":
                info["refuting_x"] = list(detail)
            else:
                info["branch_log"] = list(detail.branch_log)
            comp_info.append(info)
    deviations = ()
    if expected is not None:
        deviations = tuple(
            build_deviations(alg, expected, algebra_id, der=der, inner=inner,
                             aid=aid, rcaid=rcaid, ann_r=ann.ann_r, _basis=basis)
        )
    return AnalysisReport(
        algebra_id=algebra_id,
        dim=alg.dim,
        labels=alg.labels,
        series=series,
        annihilator_dims={
            "right": ann.ann_r.dim,
            "left": ann.ann_l.dim,
            "center": ann.center.dim,
        },
        tower=tower,
        aid=aid,
        rcaid=rcaid,
        caid=caid,
        complement_generators=tuple(comp_info),
        deviations=deviations,
        notes=tuple(notes),
    )
