"""Derivation towers of Leibniz algebras: Der, Inner, AID, RCAID, CAID.

A derivation d satisfies d([x,y]) = [d(x),y] + [x,d(y)].  Right
multiplications R_x(y) = [y,x] span the inner derivations.  An almost inner
derivation moves every element inside its own right ideal: D(x) in [x, L]
for all x.  Subspaces of endomorphisms live in the n^2-dimensional
coordinate space of matrices, vectorized row major; column j of a matrix is
the image of e_j.

Membership of a candidate D in AID is decided in four steps.  First, a
linear upper bound from the per-basis-vector conditions.  Second, a
symbolic certificate pass over the generators of a complement of Inner in
it: each is proved, D(x) in [x,L] for every rational x by case-split
elimination, or refuted by a concrete x (verified by an exact rank test),
or given up with an explicit inconclusive verdict.  Third, exact sampling
refinement over a deterministic grid plus seeded random points, tested
only against the generators not proved.  Once nothing outside the proved
part is left to cut, the walk stops testing points; the sample count it
reports is still that of the full walk.  Fourth, the certificate pass once
more, reusing each outcome, on the generators the refined space adds;
these span a complement of Inner, so elimination alone decides them.  A
refuted generator's point cuts the space and the complement is certified
again, until a round refutes nothing; each such cut lowers the dimension.

The steps share one basis, `_AdaptedBasis`, adapted to the lower central
series, where the constants of a nilpotent algebra are sparse: Der, the
candidate, the walk (each point x of the given basis taken as P^-1 x) and
the elimination run there.  Inner, the complements of Inner, the refutation
rounds and all that is reported are in the given basis, and only the
candidate and a walk that cut it move back.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, gcd, isqrt
from operator import mul
from typing import Iterator, Sequence

from ._poly import Poly
from .algebra import (
    LeibnizAlgebra,
    SeriesReport,
    _coords_str,
    _bracket_basis,
    _bracket_columns,
    _constants_in,
    _int_inverse,
    _pairs,
    annihilators,
    central_series,
)
from .exactlin import (
    DimensionMismatch,
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
    return RationalMatrix.from_rows([[int((r, c) == (row, col)) for c in range(1, n + 1)]
                                     for r in range(1, n + 1)])


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


def aid_basis_candidate(alg: LeibnizAlgebra, der: Subspace | None = None, *,
                        _into=None) -> Subspace:
    """Derivations whose column i lies in [e_i, L], for every i.

    This is only the basis-vector slice of the almost inner condition, hence
    an upper bound for AID that the sampling refinement then tightens.  With
    `_into` (`_AdaptedBasis.point_in`), alg is the given algebra in its
    series-adapted basis, and each e_i is taken there first.
    """
    n = alg.dim
    if der is None:
        der = derivation_space(alg)
    rows = []
    for i in range(n):
        e = [1 if k == i else 0 for k in range(n)]
        rows.extend(_point_conditions(alg, e if _into is None else _into(e)))
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
    if n <= 4:
        return (5**n - 3**n) // 2
    if n == 5:
        return (3**5 - 1) // 2
    return n + 6 * comb(n, 2) + 28 * comb(n, 3)


def _primitive(point: Sequence[int]) -> bool:
    return gcd(*point) == 1 and next(v for v in point if v) > 0


def _cuts(alg: LeibnizAlgebra, part: Subspace, x: Sequence[int]) -> bool:
    """Whether C(x) in [x, L] fails for some C of part, at an integer x.

    part is a complement in a candidate space of a part P that never cuts:
    Inner plus the generators the certifier proved before the walk.  No
    member of AID cuts: for D = E + C with E in P and C in the complement,
    E(x) lies in [x, L] at every x (for E = R_a it is [x, a]), so x cuts the
    candidate iff it cuts the complement.  At an integer x the images C_b(x)
    of the integer echelon rows of part and the bracket columns [x, e_j] are
    integer vectors, and x cuts iff some C_b(x) leaves the columns' span.
    """
    n = alg.dim
    pivots: dict[int, dict[int, int]] | None = None
    for cols, vals in part.echelon:
        img: dict[int, int] = {}
        for idx, v in zip(cols, vals):
            m, k = divmod(idx, n)
            xk = x[k]
            if xk:
                img[m] = img.get(m, 0) + xk * v
        img = {m: v for m, v in img.items() if v}
        # a zero image never cuts: [x, L] is eliminated only for the first
        # nonzero one
        if not img:
            continue
        if pivots is None:
            pivots = {}
            for col in _bracket_columns(alg, _pairs(x)):
                _add_pivot(pivots, col)
        if _add_pivot(pivots, img):
            return True
    return False


def _restrict_at_point(alg: LeibnizAlgebra, space: Subspace, x: Sequence) -> Subspace:
    """The members D of space with D(x) in [x, L], for a rational x.

    The condition is homogeneous in x, so x is scaled to integers first.
    """
    return _restrict_int(space, _point_conditions(alg, _int_matrix([x])[1][0]))


def aid_refine(alg: LeibnizAlgebra, space: Subspace, cfg: AidConfig = AidConfig(),
               inner: Subspace | None = None, *, _proved: Subspace | None = None,
               _into=None) -> tuple[Subspace, int]:
    """Intersect a candidate space with sampled almost-inner conditions.

    Walks the deterministic grid, then random points seeded by cfg.seed, with
    entries in -RANDOM_BOUND..RANDOM_BOUND, until STALL_LIMIT consecutive
    random points fail to shrink the space.  `inner` is Inner(L) (worked out
    here when not given) and must lie inside space.  `_proved` is Inner plus
    the generators the certifier has proved (Inner when not given): no member
    of AID cuts, so each point is tested (`_cuts`) on a complement of
    `_proved` only, and only a point that cuts takes the exact restriction
    (were a generator of `_proved` ever cut, `complement_in` would raise).
    Once that complement is zero the walk stops testing points and counts
    the ones left: the rest of the grid, and the STALL_LIMIT - stall random
    points that would end it; so the samples do not depend on `_proved`.
    Reaching dim Inner ends the walk.  With `_into`, as in
    `aid_basis_candidate`, each point is taken into alg's basis first: x
    cuts D iff P^-1 x cuts P^-1 D P, so the samples are those of the given
    basis; `_proved` is then required and only dim `inner` is read.  Returns
    the refined space and the number of samples the full walk uses.
    """
    n = alg.dim
    samples = 0
    if n == 0 or space.dim == 0:
        return space, samples
    if inner is None:
        inner = inner_space(alg)
    proved = inner if _proved is None else _proved
    part = complement_in(proved, space)
    stall = 0
    for point, drawn in _sample_points(n, cfg.seed):
        if stall >= STALL_LIMIT or space.dim <= inner.dim:
            break
        if not part.dim:
            # nothing outside P is left to cut, and the space no longer
            # moves: the rest of the walk is counted, not walked
            samples = (samples if drawn else _grid_length(n)) + STALL_LIMIT - stall
            break
        samples += 1
        if _into is not None:
            point = _into(point)
        if _cuts(alg, part, point):
            space = _restrict_at_point(alg, space, point)
            part = complement_in(proved, space)
            stall = 0
        elif drawn:
            stall += 1
    return space, samples


def _sample_points(n: int, seed: int) -> Iterator[tuple[tuple[int, ...], bool]]:
    """The walk's points, each with whether it was drawn at random: the
    grid, then nonzero random points seeded by seed, without end."""
    for point in refinement_grid(n):
        yield point, False
    rng = random.Random(seed)
    while True:
        point = tuple(rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for _ in range(n))
        if any(point):
            yield point, True


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
            cls = (0 if p.is_constant()
                   else 1 if p.linear_var_with_constant_coeff() is not None else 2)
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
    yields nothing is proved.  A zero case whose substitutions make a
    condition the branch holds nonzero vanish identically (`_emptied`) has
    no point, so it is skipped: a refuting point would have to lie in it,
    and its residuals could only end unverified."""
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
        case_subs = subs + [(k, replacement)]
        if _emptied(state, case_subs):
            continue
        zero_rows = [[p.subs_var(k, replacement) for p in row] for row in rows]
        yield from _decide(
            ctx, zero_rows, *state, case_subs,
            path + (f"case {label}, t{k + 1} := {replacement}",),
        )


def _emptied(state: _Held, subs: list[tuple[int, Poly]]) -> bool:
    """Whether subs, applied in order, make a variable or a polynomial the
    branch state holds nonzero vanish identically: such a case has no point."""
    nz, polys = state
    nvars = subs[0][1].nvars
    for p in itertools.chain((Poly.var(nvars, v) for v in nz), polys):
        for k, replacement in subs:
            if p.degree_in(k):
                p = p.subs_var(k, replacement)
        if p.is_zero():
            return True
    return False


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
        """The basis `algebra._bracket_basis` builds from brackets, in which
        the constants of a nilpotent algebra only push into strictly deeper
        series layers, which keeps elimination pivots sparse.  The given
        basis is adapted already when every series term is spanned by the
        trailing unit vectors."""
        series = central_series(alg)
        # a term of dimension d is spanned by the last d unit vectors exactly
        # when its first echelon pivot is column dim - d
        if not series.nilpotent or all(
            t.dim == 0 or t.echelon[0][0][0] == alg.dim - t.dim for t in series.terms
        ):
            return _AdaptedBasis(alg, series)
        s, u = _bracket_basis(alg, series)
        d, z = _int_inverse(u)
        return _AdaptedBasis(_constants_in(alg, u, z, s * d), series, u, s, z, d)

    def conjugate(self, dmat: RationalMatrix) -> RationalMatrix:
        """P^-1 D P, an endomorphism of the given basis carried into this
        one: Z D U over the ints, divided by d and D's own scale once."""
        if self.u is None:
            return dmat
        e, dint = _int_matrix(dmat.entries)
        m = self._times(self._times(self.z, dint), self.u)
        return vec_to_endo([Q(v, e * self.d) for v in itertools.chain(*m)], dmat.rows)

    def space_back(self, space: Subspace) -> Subspace:
        """{P D P^-1 : D in space}, a space of this basis moved to the given
        one: U D Z for each stored integer row D, up to d / s."""
        return self._moved(space, self.u, self.z)

    def space_in(self, space: Subspace) -> Subspace:
        """{P^-1 D P : D in space}, the inverse move: Z D U for each row D."""
        return self._moved(space, self.z, self.u)

    def _moved(self, space: Subspace, left, right) -> Subspace:
        if self.u is None:
            return space
        n = self.alg.dim
        rows = []
        for row in _dict_rows(space):
            m = [[row.get(r * n + c, 0) for c in range(n)] for r in range(n)]
            m = self._times(self._times(left, m), right)
            rows.append({k: v for k, v in enumerate(itertools.chain(*m)) if v})
        return _subspace_int(n * n, rows)

    def point_back(self, x: Sequence[Q]) -> tuple[Q, ...]:
        """P x, a point of this basis in the coordinates of the given one."""
        if self.u is None:
            return tuple(x)
        return tuple(sum((xi * w for xi, w in zip(x, row)), QZERO) / self.s for row in self.u)

    def point_in(self, x: Sequence[int]) -> Sequence[int]:
        """Z x, an integer x of the given basis in this one: P^-1 x up to
        d / s, which the almost inner condition, homogeneous in x, ignores."""
        return x if self.u is None else [sum(map(mul, row, x)) for row in self.z]

    @staticmethod
    def _times(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
        """The product of two integer matrices given by their rows."""
        cols = list(zip(*b))
        return [[sum(map(mul, row, col)) for col in cols] for row in a]


def aid_certify(alg: LeibnizAlgebra, dmat: RationalMatrix) -> CertOutcome:
    """Decide whether D(x) lies in [x, L] for every rational x: `_judged`
    in the series-adapted basis of alg, worked out here.  A D that does not
    fit alg raises DimensionMismatch (`restriction_witness`)."""
    if alg.dim == dmat.rows == dmat.cols == 0:
        return CertOutcome("proved")
    return _judged(alg, dmat, _AdaptedBasis.of(alg))[0]


def _judged(
    alg: LeibnizAlgebra, dmat: RationalMatrix, basis: _AdaptedBasis
) -> tuple[CertOutcome, tuple[Q, ...] | None]:
    """The outcome for a claimed generator D and `inner_combination(alg, D)`.

    An inner D is proved by that constant witness D = R_w, and only a D that
    is not inner is eliminated in `basis`, the series-adapted basis of alg:
    elimination alone leaves some inner D inconclusive (R_e1 on D4:L13:0 in
    some random bases).
    """
    combination = inner_combination(alg, dmat)
    if combination is not None:
        return CertOutcome("proved", branch_log=("inner: constant witness",)), combination
    return _eliminated(alg, dmat, basis), None


def _eliminated(alg: LeibnizAlgebra, dmat: RationalMatrix, basis: _AdaptedBasis) -> CertOutcome:
    """Decide D(x) in [x, L] for every rational x by elimination alone.

    The witness equation left_mult(x) w = D x is eliminated symbolically in
    the coordinates t of x, splitting into pivot = 0 / pivot != 0 cases when
    a pivot polynomial can vanish, within NODE_BUDGET nodes.  Every split
    removes a row (pivot != 0) or a variable (each zero case), so no branch
    nests more than 2n splits.  `_zero_branch` solves pivot = 0 for one
    variable per case; a pivot it cannot solve leaves that branch (and with
    it the whole certificate) inconclusive.

    Elimination, unlike almost-innerness, is very sensitive to the basis,
    so it runs in `basis`, where D is P^-1 D P (`_AdaptedBasis.conjugate`).
    The leaves `_decide` yields are read up to the first refuted one, a
    rational point mapped back by P (`point_back`) and re-verified in the
    given basis by an exact rank comparison (`aid_witness`); one that does
    not replay ends an inconclusive log.  The log is as `CertOutcome` says.
    """
    n = alg.dim
    dm = basis.conjugate(dmat)
    # row m of the witness equation, linear forms in t, as [M | b]:
    # sum_j (sum_i c[i][j][m] t_i) w_j = sum_k D[m][k] t_k
    c = basis.alg.constants
    unit = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    rows = [
        [Poly(n, {unit[i]: c[i][j][m] for i in range(n)}) for j in range(n)]
        + [Poly(n, dict(zip(unit, dm.entries[m])))]
        for m in range(n)
    ]
    log = prefix = () if basis.u is None else ("series-adapted basis",)
    for leaf in _decide(_CertContext(basis.alg, dm), rows, frozenset(), (), [], ()):
        if leaf.kind == "refuted":
            x = basis.point_back(leaf.refuting_x)
            if aid_witness(alg, dmat, x) is None:
                return CertOutcome("refuted", refuting_x=x, branch_log=prefix + leaf.branch_log)
            note = "refuting point does not replay in the given basis"
            return CertOutcome("inconclusive", branch_log=log + leaf.branch_log + (note,))
        log += leaf.branch_log
    return CertOutcome("proved" if log == prefix else "inconclusive", branch_log=log)


def aid_witness(alg: LeibnizAlgebra, dmat: RationalMatrix, x: Sequence) -> tuple[Q, ...] | None:
    """A concrete a with [x, a] = D(x), or None when there is none.

    Raises DimensionMismatch unless D is n x n and x has n coordinates."""
    xs = tuple(as_rational(v) for v in x)
    if (dmat.rows, dmat.cols, len(xs)) != (alg.dim,) * 3:
        raise DimensionMismatch("D and x must have the algebra's dimension")
    return solve_linear(alg.left_mult(xs), dmat.apply(xs))


# ---------------------------------------------------------------------------
# the AID space


@dataclass(frozen=True)
class AidResult:
    upper_bound: Subspace
    proved: Subspace
    status: str  # 'certified_exact' | 'probabilistic'
    samples_used: int
    seed: int
    witnesses: tuple[tuple[RationalMatrix, tuple[Q, ...]], ...]
    proved_generators: tuple[tuple[RationalMatrix, CertOutcome], ...] = ()
    inconclusive_generators: tuple[tuple[RationalMatrix, CertOutcome], ...] = ()

    @property
    def dim(self) -> int:
        return self.upper_bound.dim


def aid_space(alg: LeibnizAlgebra, cfg: AidConfig = AidConfig()) -> AidResult:
    """Compute AID(L) with certificates, by the four steps of the module
    docstring (`_der_inner_aid`): certified_exact when every generator of the
    last complement of Inner is proved, probabilistic when some remain
    inconclusive."""
    return _der_inner_aid(alg, cfg)[2]


def _der_inner_aid(
    alg: LeibnizAlgebra, cfg: AidConfig
) -> tuple[Subspace, Subspace, AidResult, _AdaptedBasis]:
    """Der, Inner and AID of one algebra, each computed once, and the
    series-adapted basis they used, which carries the central series.

    Der is solved in `basis` and stays there: callers read its dimension,
    and only `catalog.build_deviations` moves it back, for a Der deviation.
    Inner is solved in the given basis.  The candidate and the walk run in
    `basis` at the points P^-1 x of the given ones and move back
    (`space_back`) unless their dimension shows them to be Inner or
    unchanged.  The complements of Inner, their certificates and the
    refutation rounds stay in the given basis, so every generator, sample
    and witness reported is that of the given basis.  The proved parts are
    Inner plus the stored echelon rows of the proved complement generators,
    a subset of a reduced echelon basis and so canonical as it stands.
    """
    n = alg.dim
    basis = _AdaptedBasis.of(alg)
    der = derivation_space(basis.alg)
    inner = inner_space(alg)
    moved_cand = aid_basis_candidate(basis.alg, der, _into=basis.point_in)
    # Inner lies in the candidate, so a candidate of its dimension is Inner
    cand = inner if moved_cand.dim == inner.dim else basis.space_back(moved_cand)
    # each generator is certified once, keyed by its vector: the candidate's
    # generators before the walk, and any new ones the walk leaves after it;
    # they span a complement of Inner, so none is inner and elimination
    # alone decides them
    outcomes: dict[tuple[Q, ...], CertOutcome] = {}

    def certified(gen_vec: tuple[Q, ...]) -> CertOutcome:
        if gen_vec not in outcomes:
            outcomes[gen_vec] = _eliminated(alg, vec_to_endo(gen_vec, n), basis)
        return outcomes[gen_vec]

    # a proved generator never cuts, so the walk tests its points only
    # against the generators left open, none when all are proved
    comp = complement_in(inner, cand)
    first = tuple(row for row, v in zip(comp.echelon, comp.basis_vectors())
                  if certified(v).kind == "proved")
    moved_proved = moved_cand if len(first) == comp.dim else basis.space_in(
        subspace_sum(inner, Subspace(n * n, first)))
    moved, samples = aid_refine(basis.alg, moved_cand, cfg, inner=inner,
                                _proved=moved_proved, _into=basis.point_in)
    # the walk's result lies between Inner and the candidate
    ends = {cand.dim: cand, inner.dim: inner}
    space = ends[moved.dim] if moved.dim in ends else basis.space_back(moved)
    # each round walks a complement of Inner in the space up to its first
    # refuted generator; the exact rank test replayed its refuting x, so the
    # restriction at x drops that generator and keeps Inner (R_a(x) = [x, a]):
    # the dimension falls every round, and a round that refutes nothing ends
    # the loop within dim(space) - dim(Inner) + 1 rounds
    refutations: list[tuple[RationalMatrix, tuple[Q, ...]]] = []
    while True:
        comp = complement_in(inner, space)
        # (stored echelon row, matrix, outcome) of each generator judged
        judged = []
        for row, gen_vec in zip(comp.echelon, comp.basis_vectors()):
            outcome = certified(gen_vec)
            if outcome.kind == "refuted":
                break
            judged.append((row, vec_to_endo(gen_vec, n), outcome))
        else:
            break
        refutations.append((vec_to_endo(gen_vec, n), outcome.refuting_x))
        space = _restrict_at_point(alg, space, outcome.refuting_x)
        samples += 1
    proved_gens = [(g, o) for _, g, o in judged if o.kind == "proved"]
    inconclusive = [(g, o) for _, g, o in judged if o.kind != "proved"]
    status = "probabilistic" if inconclusive else "certified_exact"
    if status == "certified_exact":
        # Inner plus a proved complement is the whole space; one object for
        # both bounds, since callers may keep many results alive
        proved = space
    else:
        proved = subspace_sum(
            inner, Subspace(n * n, tuple(r for r, _, o in judged if o.kind == "proved")))
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
    targets = {"right_ann": ann.ann_r, "center": ann.center}
    if target not in targets:
        raise ValueError(f"unknown target: {target!r}")
    return _envelope_meet(aid, inner_space(alg), targets[target])


def _envelope_meet(aid: Subspace, inner: Subspace, target: Subspace) -> Subspace:
    """aid ∩ (Inner + Hom(L, target))."""
    envelope = subspace_sum(inner, _hom_into(target.ambient_dim, target))
    return subspace_intersect(aid, envelope)


def restriction_witness(
    alg: LeibnizAlgebra, dmat: RationalMatrix, target: Subspace
) -> tuple[Q, ...] | None:
    """A global x with (D - R_x)(L) inside the target, if one exists: for
    each integer functional f vanishing on the target and each j, the row
    f . [e_j, x] = f . D e_j over ints, times den (constants) and d (D).
    Raises DimensionMismatch unless D is n x n and T lies in Q^n."""
    n = alg.dim
    if (dmat.rows, dmat.cols, target.ambient_dim) != (n, n, n):
        raise DimensionMismatch("D and the target must have the algebra's dimension")
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

    ann = annihilators(alg)
    der, inner, aid, basis = _der_inner_aid(alg, cfg)
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
                             aid=aid, rcaid=rcaid, ann_r=ann.ann_r, adapted=basis)
        )
    return AnalysisReport(
        algebra_id=algebra_id,
        dim=alg.dim,
        labels=alg.labels,
        series=basis.series,
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
