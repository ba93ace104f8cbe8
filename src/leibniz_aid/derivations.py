"""Derivation towers of Leibniz algebras: Der, Inner, AID, RCAID, CAID.

A derivation d satisfies d([x,y]) = [d(x),y] + [x,d(y)].  Right
multiplications R_x(y) = [y,x] span the inner derivations.  An almost inner
derivation moves every element inside its own right ideal: D(x) in [x, L]
for all x.  Subspaces of endomorphisms live in the n^2-dimensional
coordinate space of matrices, vectorized row major; column j of a matrix is
the image of e_j.

Membership of a candidate D in AID is decided in three steps.  First, a
linear upper bound from the per-basis-vector conditions.  Second, exact
sampling refinement over a deterministic grid plus seeded random points.
Third, refutation rounds: a refuted generator's point cuts the space and
the complement is certified again, until a round refutes nothing; each
such cut lowers the dimension.  One rule certifies a complement of Inner
in each space these steps hold (the candidate, each space a cut of the
walk leaves, each round's space): its generators in order, up to the first
refuted one, each proved, D(x) in [x,L] for every rational x by
case-split elimination, or refuted by a concrete x (verified by an exact
rank test), or given up with an explicit inconclusive verdict.  They span
a complement of Inner, so elimination alone decides them, and each
outcome is kept, so none is certified twice.  The walk tests its points
only against the generators of its space left unproved, and once none is
left it stops testing points; the sample count it reports is still that
of the full walk.

The steps share one basis, `_AdaptedBasis`, adapted to the lower central
series, where the constants of a nilpotent algebra are sparse: Der, Inner,
the candidate, the walk (each point x of the given basis taken as P^-1 x),
the complements of Inner, their elimination and the refutation rounds all
run there.  What is reported moves back to the given basis once, after the
rounds: Inner, AID's bounds, its generators and its witnesses.

One analysis of an algebra is one value, `Analysis`, built by `analysis`:
the adapted basis with the central series, Der, Inner and the `AidResult`,
and, worked out on first read, the annihilators, RCAID and CAID, the last
two as the pair from AID's proved bound and from its upper bound.
`aid_space`, `analysis_report` and every command read that value, so each
stage runs once per analysis.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, gcd, isqrt, lcm
from operator import mul
from typing import Callable, Iterator, Sequence

from ._poly import Poly
from .algebra import (
    Annihilators,
    LeibnizAlgebra,
    SeriesReport,
    _coords_str,
    _bracket_basis,
    _bracket_columns,
    _combine,
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


def derivation_space(alg: LeibnizAlgebra, *, _gens: int | None = None) -> Subspace:
    """Null space of the Leibniz-rule constraints in endomorphism space.

    The constraint for (i, j) at coordinate m is
    sum_k c[i][j][k] D[m][k] - c[k][j][m] D[k][i] - c[i][k][m] D[k][j] = 0,
    the m-th coordinate of D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j].
    Rows are built sparse from the integer constants, made primitive and
    deduplicated, then eliminated by the sparse integer kernel.  A pair
    (i, j) with [e_i, e_j] = 0 builds only the rows at the m that its
    other two terms reach.

    With `_gens` = g, as in `analysis`, only the pairs with j < g
    are built, L x G for G the span of e_1..e_g, and the null space is
    still Der when G generates L.  Let K = {y : D[x, y] = [Dx, y] + [x, Dy]
    for all x}, a linear subspace.  For y, z in K, write D[x, [y, z]] =
    D[[x, y], z] - D[[x, z], y] by the identity [x, [y, z]] = [[x, y], z] -
    [[x, z], y], expand it by the rule at ([x, y], z), (x, y), ([x, z], y)
    and (x, z), and regroup by the identity: it is [Dx, [y, z]] +
    [x, [Dy, z] + [y, Dz]], which is [Dx, [y, z]] + [x, D[y, z]] by the
    rule at (y, z).  So K is closed under the bracket.  The rows make G
    lie in K, and a nilpotent L is generated by any complement of L^2
    (`central_series`), so K = L.  The rows of L x G are a subset of the
    full rows, so the null space is the same canonical Subspace.
    """
    n = alg.dim
    _, nz = alg.scaled_constants()
    g = n if _gens is None else _gens
    # by_left[i]: (k, m, c[i][k][m]); by_right[j]: (k, m, c[k][j][m])
    by_left = [[(k, m, v) for k in range(n) for m, v in nz[i][k]] for i in range(n)]
    by_right = [[(k, m, v) for k in range(n) for m, v in nz[k][j]] for j in range(g)]
    rows: list[dict[int, int]] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    for i in range(n):
        for j in range(g):
            acc: dict[int, dict[int, int]] = {}
            if nz[i][j]:
                for m in range(n):
                    acc[m] = {m * n + k: v for k, v in nz[i][j]}
            for k, m, v in by_right[j]:
                row = acc.setdefault(m, {})
                row[k * n + i] = row.get(k * n + i, 0) - v
            for k, m, v in by_left[i]:
                row = acc.setdefault(m, {})
                row[k * n + j] = row.get(k * n + j, 0) - v
            for row in (acc[m] for m in sorted(acc)):
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
    Inner plus generators the certifier proved.  No
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
               inner: Subspace | None = None, *,
               _proved: Callable[[Subspace], Subspace] | None = None,
               _into=None) -> tuple[Subspace, int]:
    """Intersect a candidate space with sampled almost-inner conditions.

    Walks the deterministic grid, then random points seeded by cfg.seed, with
    entries in -RANDOM_BOUND..RANDOM_BOUND, until STALL_LIMIT consecutive
    random points fail to shrink the space.  `inner` is Inner(L) (worked out
    here when not given) and must lie inside space.  `_proved` maps each
    space the walk holds, the given one and each a cut leaves, to a part of
    it that is Inner plus generators the certifier has proved (Inner when
    not given); it is read again after every cut.  No member of AID cuts,
    so each point is tested (`_cuts`) on a complement of that part only,
    and only a point that cuts takes the exact restriction (were a
    generator of the part ever cut, `complement_in` would raise).  Once
    that complement is zero the walk stops testing points and counts the
    ones left: the rest of the grid, and the STALL_LIMIT - stall random
    points that would end it; so neither the cuts nor the samples depend on
    `_proved`.  Reaching dim Inner ends the walk.  With `_into`, as in
    `aid_basis_candidate`, each point is taken into alg's basis first: x
    cuts D iff P^-1 x cuts P^-1 D P, so the samples are those of the given
    basis.  Returns the refined space and the number of samples the full
    walk uses.
    """
    n = alg.dim
    samples = 0
    if n == 0 or space.dim == 0:
        return space, samples
    if inner is None:
        inner = inner_space(alg)
    proved = (lambda _: inner) if _proved is None else _proved
    part = complement_in(proved(space), space)
    stall = 0
    for point, drawn in _sample_points(n, cfg.seed):
        if stall >= STALL_LIMIT or space.dim <= inner.dim:
            break
        if not part.dim:
            # nothing outside the proved part is left to cut, and the space
            # no longer moves: the rest of the walk is counted, not walked
            samples = (samples if drawn else _grid_length(n)) + STALL_LIMIT - stall
            break
        samples += 1
        if _into is not None:
            point = _into(point)
        if _cuts(alg, part, point):
            space = _restrict_at_point(alg, space, point)
            part = complement_in(proved(space), space)
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


@dataclass(frozen=True, slots=True)
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
    derivation as an integer matrix, up to a positive factor, since only
    whether a witness exists is asked of it, and the node budget left."""

    __slots__ = ("alg", "dint", "budget")

    def __init__(self, alg: LeibnizAlgebra, dint: Sequence[Sequence[int]]):
        self.alg = alg
        self.dint = dint
        self.budget = NODE_BUDGET


def _strip_row(row: list[Poly], nz: frozenset[int]) -> tuple[list[Poly], int]:
    """Remove a safe common monomial and the content of a row, its
    coefficients followed by its right-hand side, over the ints.

    Dividing a whole row by a shared monomial is an equivalence only where
    the monomial cannot vanish, so only variables the current branch forces
    nonzero are divided out.  (Dividing by anything else can overconstrain a
    shared unknown on the vanishing locus: t2*w1 = 0 does not force w1 = 0 at
    t2 = 0.)  Dividing by a nonzero number is always exact: the row is
    divided by the gcd of all its coefficients, signed by its first nonzero
    entry's leading term, after a row with a Fraction coefficient is
    scaled to ints.  Returns the row and the content m of its first nonzero
    entry.  The printed row is the row divided by m, whose first entry is
    primitive; neither it nor the returned row changes when the given row
    is multiplied by a nonzero rational.
    """
    polys = [p for p in row if p.terms]
    if not polys:
        return row, 1
    try:
        g = gcd(*(c for p in polys for c in p.terms.values()))
    except TypeError:
        # math.gcd takes ints only: clear the row's denominators, then strip
        return _strip_row(_over_ints(row)[1], nz)
    first = polys[0].content()
    if first < 0:
        g = -g
    mono = polys[0].monomial_gcd()
    for p in polys[1:]:
        mono = tuple(min(a, b) for a, b in zip(mono, p.monomial_gcd()))
    mono = tuple(e if i in nz else 0 for i, e in enumerate(mono))
    if g != 1 or any(mono):
        row = [p.divide_monomial(mono, g) if p.terms else p for p in row]
    return row, first // g


def _over_ints(polys: Sequence[Poly]) -> tuple[int, list[Poly]]:
    """(d, [d * p for p in polys]) for the least positive d that makes every
    coefficient an int."""
    d = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return d, [Poly(p.nvars, {m: c.numerator * (d // c.denominator)
                              for m, c in p.terms.items()}) for p in polys]


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
            if _int_witness(ctx.alg, ctx.dint, 1, point) is None:
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
    # c*l**k is then c*k*a_w, and the t_v0^(k-1) coefficient is c*k*a_0,
    # each divided exactly, as Fractions, also when p is over the ints
    terms = {tuple(1 if i == v0 else 0 for i in range(nvars)): Q(1)}
    a0 = p.terms.get(tuple(k - 1 if i == v0 else 0 for i in range(nvars)))
    if a0:
        terms[(0,) * nvars] = Q(a0, c * k)
    for w in variables[1:]:
        mono = tuple(
            k - 1 if i == v0 else (1 if i == w else 0) for i in range(nvars)
        )
        aw = p.terms.get(mono)
        if aw:
            terms[tuple(1 if i == w else 0 for i in range(nvars))] = Q(aw, c * k)
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
    each updated row; the next node's `_strip_row` divides it out.  A zero
    entry of either row drops its product."""
    prow = rows[pi]
    out = []
    for idx, row in enumerate(rows):
        if idx == pi:
            continue
        f = row[pc]
        if f.is_zero():
            out.append(row)
            continue
        new = []
        for a, b in zip(row, prow):
            if not b.terms:
                new.append(pivot * a if a.terms else a)
            elif not a.terms:
                new.append(-(f * b))
            else:
                new.append(pivot * a - f * b)
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
    # normalize and triage; scales[i] is the content m of row i's first
    # entry, and the row it prints is row i divided by m
    cleaned = []
    scales = []
    for row in rows:
        row, m = _strip_row(row, nz)
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
        scales.append(m)
    rows = cleaned
    if all(row[-1].is_zero() for row in rows):
        return
    pi, pc, pivot = _pivot_choice(rows)
    if len(pivot.terms) == 1 and pivot.variables() <= nz:
        # a nonzero constant, or a monomial in variables the branch already
        # forces nonzero: the pivot cannot vanish here, so no case split
        yield from _decide(ctx, _eliminate(rows, pi, pc, pivot), nz, polys, subs, path)
        return
    # the pivot as its row prints it; the split and its labels read this
    # one, the integer rows the integer pivot
    shown = pivot if scales[pi] == 1 else pivot.scale(Q(1, scales[pi]))
    zero = _zero_branch(shown, nz, polys)
    split_poly, cases = (shown, []) if zero is None else zero
    # branch split_poly != 0 (the same region as pivot != 0)
    yield from _decide(
        ctx, _eliminate(rows, pi, pc, pivot), *_held_nonzero(nz, polys, split_poly),
        subs, path + (f"case {split_poly} != 0",),
    )
    if zero is None:
        note = f"cannot solve {shown} = 0 (nonlinear in every variable)"
        yield CertOutcome("inconclusive", branch_log=path + (note,))
    for label, k, replacement, state in cases:
        case_subs = subs + [(k, replacement)]
        if _emptied(state, case_subs):
            continue
        den, (num,) = _over_ints([replacement])
        zero_rows = [_substituted(row, k, num, den) for row in rows]
        yield from _decide(
            ctx, zero_rows, *state, case_subs,
            path + (f"case {label}, t{k + 1} := {replacement}",),
        )


def _substituted(row: list[Poly], k: int, num: Poly, den: int) -> list[Poly]:
    """The integer row at t_k := num / den, times den**E for E its degree
    in t_k, which keeps it over the ints; a row free of t_k is passed on as
    the same object."""
    top = max(p.degree_in(k) for p in row)
    if not top:
        return row
    return [p.subs_var(k, num, den, top) if p.terms else p for p in row]


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
    # ell is coeff * t_k plus its terms free of t_k; over the ints a unit
    # coefficient is its own inverse, so only another one makes Fractions
    rest = Poly(ell.nvars, {m: c for m, c in ell.terms.items() if not m[k]})
    return k, rest.scale(-coeff if coeff in (1, -1) else Q(-1) / coeff)


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
    return _eliminated(alg, basis.conjugate(dmat), basis), None


def _eliminated(alg: LeibnizAlgebra, dm: Sequence[Sequence[int]],
                basis: _AdaptedBasis) -> CertOutcome:
    """Decide D(x) in [x, L] for every rational x by elimination alone.

    The witness equation left_mult(x) w = D x is eliminated symbolically in
    the coordinates t of x, splitting into pivot = 0 / pivot != 0 cases when
    a pivot polynomial can vanish, within NODE_BUDGET nodes.  Every split
    removes a row (pivot != 0) or a variable (each zero case), so no branch
    nests more than 2n splits.  `_zero_branch` solves pivot = 0 for one
    variable per case; a pivot it cannot solve leaves that branch (and with
    it the whole certificate) inconclusive.

    Elimination, unlike almost-innerness, is very sensitive to the basis,
    so it runs in `basis`, on dm, integer rows of a positive multiple of
    P^-1 D P (a stored row of a complement of Inner, or `conjugate` of a
    claimed D), over the ints: dm's scale moves the witness only, and every
    row, pivot and case split is that of elimination over Q (`_strip_row`).  A rational enters only the printed
    pivot and what is read off it (its split, the replacement and the
    conditions a branch holds nonzero) and the refutation search's points;
    the zero cases substitute over the ints (`_substituted`).

    The leaves `_decide` yields are read up to the first refuted one, a
    rational point mapped back by P (`point_back`) and re-verified in the
    given basis by an exact integer solve (`_int_witness`) against dm
    moved back (`endo_back`), a positive multiple of D; one that does not
    replay ends an inconclusive log.  The log is as `CertOutcome` says.
    """
    n = alg.dim
    # row m of the witness equation, linear forms in t, as [M | b]:
    # sum_j (sum_i den c[i][j][m] t_i) w_j = sum_k dm[m][k] t_k, with
    # nz[i][j] holding the pairs (m, den c[i][j][m])
    nz = basis.alg.scaled_constants()[1]
    unit = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    coeffs: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for m, v in nz[i][j]:
                coeffs[m][j][unit[i]] = v
    rows = [[Poly(n, f) for f in coeffs[m]] + [Poly(n, dict(zip(unit, dm[m])))]
            for m in range(n)]
    log = prefix = () if basis.u is None else ("series-adapted basis",)
    for leaf in _decide(_CertContext(basis.alg, dm), rows, frozenset(), (), [], ()):
        if leaf.kind == "refuted":
            x = basis.point_back(leaf.refuting_x)
            if _int_witness(alg, basis.endo_back(dm), 1, x) is None:
                return CertOutcome("refuted", refuting_x=x, branch_log=prefix + leaf.branch_log)
            note = "refuting point does not replay in the given basis"
            return CertOutcome("inconclusive", branch_log=log + leaf.branch_log + (note,))
        log += leaf.branch_log
    return CertOutcome("proved" if log == prefix else "inconclusive", branch_log=log)


def aid_witness(alg: LeibnizAlgebra, dmat: RationalMatrix, x: Sequence) -> tuple[Q, ...] | None:
    """A concrete a with [x, a] = D(x), or None when there is none: one
    integer solve (`_int_witness`) of D's integer multiple.

    Raises DimensionMismatch unless D is n x n and x has n coordinates."""
    xs = tuple(as_rational(v) for v in x)
    if (dmat.rows, dmat.cols, len(xs)) != (alg.dim,) * 3:
        raise DimensionMismatch("D and x must have the algebra's dimension")
    e, dint = _int_matrix(dmat.entries)
    return _int_witness(alg, dint, e, xs)


def _int_witness(alg: LeibnizAlgebra, dint: Sequence[Sequence[int]], e: int,
                 x: Sequence[Q]) -> tuple[Q, ...] | None:
    """The a with [x, a] = D(x) that sets every free unknown to zero, or
    None, for D = dint / e and a rational x, over the ints.

    With x = x' / d, x' integer, the columns [x', e_j] of `_bracket_columns`
    are den d [x, e_j] (den the constants' denominator) and dint x' is e d
    D(x), so row m is sum_j a_j e [x', e_j]_m = den (dint x')_m: row m of
    [left_mult(x) | D(x)] times e den d."""
    n = alg.dim
    xs = _pairs(_int_matrix([x])[1][0])
    cols = _bracket_columns(alg, xs)
    den = alg.scaled_constants()[0]
    rows = []
    for m in range(n):
        row = {j: e * col[m] for j, col in enumerate(cols) if m in col}
        b = den * sum(dint[m][k] * xk for k, xk in xs)
        if b:
            row[n] = b
        if row:
            rows.append(row)
    return _solve_int(rows, n)


# ---------------------------------------------------------------------------
# the AID space


@dataclass(frozen=True, slots=True)
class AidResult:
    """AID with its bounds, in the given basis.  `judged` holds each
    generator of the last complement of Inner once, as its stored row moved
    back (`_AdaptedBasis.row_back`: the upper bound's own echelon row when
    P = I) with its outcome; `proved_generators` and
    `inconclusive_generators` build their matrices when read."""

    upper_bound: Subspace
    proved: Subspace
    status: str  # 'certified_exact' | 'probabilistic'
    samples_used: int
    seed: int
    witnesses: tuple[tuple[RationalMatrix, tuple[Q, ...]], ...]
    judged: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], CertOutcome], ...] = ()

    @property
    def dim(self) -> int:
        return self.upper_bound.dim

    @property
    def proved_generators(self) -> tuple[tuple[RationalMatrix, CertOutcome], ...]:
        return self._generators(True)

    @property
    def inconclusive_generators(self) -> tuple[tuple[RationalMatrix, CertOutcome], ...]:
        return self._generators(False)

    def _generators(self, proved: bool) -> tuple[tuple[RationalMatrix, CertOutcome], ...]:
        n = isqrt(self.upper_bound.ambient_dim)
        return tuple((_row_endo(row, n), o) for row, o in self.judged
                     if (o.kind == "proved") == proved)


def _row_endo(row: tuple[tuple[int, ...], tuple[int, ...]], n: int) -> RationalMatrix:
    """The endomorphism of a stored echelon row, divided by its pivot."""
    return vec_to_endo(Subspace(n * n, (row,)).basis_vectors()[0], n)


def _row_ints(row: tuple[tuple[int, ...], tuple[int, ...]], n: int) -> list[list[int]]:
    """The stored echelon row as the integer rows of an n x n matrix."""
    entries = dict(zip(*row))
    return [[entries.get(r * n + c, 0) for c in range(n)] for r in range(n)]


def aid_space(alg: LeibnizAlgebra, cfg: AidConfig = AidConfig()) -> AidResult:
    """Compute AID(L) with certificates, by the three steps of the module
    docstring (`analysis`): certified_exact when every generator of the
    last complement of Inner is proved, probabilistic when some remain
    inconclusive."""
    return analysis(alg, cfg).aid


@dataclass(frozen=True)
class Analysis:
    """One analysis of an algebra, each stage of its tower computed once.

    `basis` is the series-adapted basis, with the central series; `der`
    lies in it, and `inner` and `aid`, worked out there too, were moved
    back to the given basis once.  The annihilators,
    `rcaid` and `caid` are worked out on first read.  RCAID and CAID are
    pairs, from AID's proved bound and from its upper bound: one object
    twice when AID is certified exact.
    """

    alg: LeibnizAlgebra
    basis: _AdaptedBasis
    der: Subspace
    inner: Subspace
    aid: AidResult

    @cached_property
    def annihilators(self) -> Annihilators:
        return annihilators(self.alg)

    @cached_property
    def rcaid(self) -> tuple[Subspace, Subspace]:
        return self._meets(self.annihilators.ann_r)

    @cached_property
    def caid(self) -> tuple[Subspace, Subspace]:
        return self._meets(self.annihilators.center)

    def _meets(self, target: Subspace) -> tuple[Subspace, Subspace]:
        proved = _envelope_meet(self.aid.proved, self.inner, target)
        if self.aid.proved is self.aid.upper_bound:
            return proved, proved
        return proved, _envelope_meet(self.aid.upper_bound, self.inner, target)

    def upper_dims(self) -> dict[str, int]:
        """Der, Inner, AID and RCAID and CAID from AID's upper bound, which
        always contains AID: what `fuzz` compares across bases, whatever
        each basis certified."""
        return {"der": self.der.dim, "inner": self.inner.dim, "aid": self.aid.dim,
                "rcaid": self.rcaid[1].dim, "caid": self.caid[1].dim}

    def judge(self, dmat: RationalMatrix) -> tuple[CertOutcome, tuple[Q, ...] | None]:
        """`_judged` for a claimed generator, in this analysis's basis."""
        return _judged(self.alg, dmat, self.basis)


def analysis(alg: LeibnizAlgebra, cfg: AidConfig = AidConfig()) -> Analysis:
    """Der, Inner and AID of one algebra, each computed once, in the
    series-adapted basis they share.

    Der is solved in `basis`, from the Leibniz rule at the pairs (e_i, g)
    for its first `basis.gens` vectors g only, and stays there: callers
    read its dimension, and only `catalog.build_deviations` moves it back,
    for a Der deviation.  Inner, the candidate, the walk at the points
    P^-1 x of the given ones, the complements of Inner with their
    certificates (`judged`, the rule of the module docstring) and the
    rounds run in `basis` too, since x cuts D exactly when P^-1 x cuts
    P^-1 D P: the walk reads its proved part, Inner plus the proved rows,
    with no move, and a round restricts at the refuting point taken in.
    Only a refuted generator moves back before the rounds end, for its
    replay (`_eliminated`).  Then what is reported moves back once: Inner
    and each generator, which span AID's bounds, and each witness.
    """
    n = alg.dim
    basis = _AdaptedBasis.of(alg)
    der = derivation_space(basis.alg, _gens=basis.gens)
    inner = inner_space(basis.alg)
    cand = aid_basis_candidate(basis.alg, der, _into=basis.point_in)
    # each generator is certified once, keyed by its stored echelon row;
    # the generators span a complement of Inner, so none is inner and
    # elimination alone decides them
    outcomes: dict[tuple[tuple[int, ...], tuple[int, ...]], CertOutcome] = {}

    @lru_cache(maxsize=1)
    def judged(space: Subspace) -> tuple[list, tuple | None]:
        """The stored echelon rows of a complement of Inner in space (those
        of space) with their outcomes, up to the first refuted one, and that
        one with its outcome, or None (once for the walk's last space)."""
        rows = []
        for row in complement_in(inner, space).echelon:
            if row not in outcomes:
                outcomes[row] = _eliminated(alg, _row_ints(row, n), basis)
            if outcomes[row].kind == "refuted":
                return rows, (row, outcomes[row])
            rows.append((row, outcomes[row]))
        return rows, None

    def proved(space: Subspace) -> Subspace:
        """Inner plus the proved generators of space: space itself when its
        verdict proves every generator."""
        rows, refuted = judged(space)
        sure = tuple(row for row, o in rows if o.kind == "proved")
        if refuted is None and len(sure) == len(rows):
            return space
        return subspace_sum(inner, Subspace(n * n, sure))

    # a proved generator never cuts, so the walk tests its points only
    # against the generators left open, and stops once none is
    space, samples = aid_refine(basis.alg, cand, cfg, inner=inner, _proved=proved,
                                _into=basis.point_in)
    judged_rows, refuted = judged(space)
    # each round restricts at the refuting x of the first refuted generator;
    # the exact rank test replayed it, so the restriction drops that
    # generator and keeps Inner (R_a(x) = [x, a]): the dimension falls every
    # round, and a round that refutes nothing ends the loop within
    # dim(space) - dim(Inner) + 1 rounds
    refutations = []
    while refuted is not None:
        row, outcome = refuted
        refutations.append((row, outcome.refuting_x))
        space = _restrict_at_point(basis.alg, space, basis.point_in(outcome.refuting_x))
        samples += 1
        judged_rows, refuted = judged(space)
    # the space itself exactly when every generator is proved
    lower = proved(space)
    # Inner and each generator move back once and span the bounds (P = I: no move)
    given_inner = basis.space_back(inner)
    judged = tuple((basis.row_back(r), o) for r, o in judged_rows)

    def given(adapted: Subspace, rows: list) -> Subspace:
        if basis.u is None or not rows:
            return adapted if rows else given_inner
        return _subspace_int(n * n, _dict_rows(given_inner) + [dict(zip(*r)) for r in rows])

    upper = given(space, [r for r, _ in judged])
    aid = AidResult(
        upper_bound=upper,
        # one object for both bounds when they agree, since callers may
        # keep many results alive
        proved=upper if lower is space else given(lower, [r for r, o in judged if o.kind == "proved"]),
        status="certified_exact" if lower is space else "probabilistic",
        samples_used=samples,
        seed=cfg.seed,
        witnesses=tuple((_row_endo(basis.row_back(r), n), x) for r, x in refutations),
        judged=judged,
    )
    return Analysis(alg, basis, der, given_inner, aid)


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


def _int_commutator(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> dict[int, int]:
    """AB - BA of two integer matrices given by their rows, as a sparse
    row-major vector."""
    ab, ba = _int_product(a, b), _int_product(b, a)
    flat = (x - y for p, q in zip(ab, ba) for x, y in zip(p, q))
    return {k: v for k, v in enumerate(flat) if v}


def subalgebra_nilpotency(space: Subspace) -> tuple[tuple[int, ...], bool]:
    """Lower central series dims of a bracket-closed space of matrices.

    Raises NotBracketClosed when some commutator of basis elements leaves
    the space.  Returns the series dimensions and whether it reaches zero.
    Each term is spanned by the commutators of the stored integer rows of
    the one before with those of the space, taken as integer matrices; the
    rows are positive multiples of a basis, so they span the same terms.
    """
    nsq = space.ambient_dim
    n = isqrt(nsq)
    if n * n != nsq:
        raise ValueError("ambient dimension is not a square")

    def matrices(sub: Subspace) -> list[list[list[int]]]:
        return [[[row.get(r * n + c, 0) for c in range(n)] for r in range(n)]
                for row in _dict_rows(sub)]

    mats = matrices(space)

    def commutators(left: list[list[list[int]]]) -> Subspace:
        return _subspace_int(nsq, [_int_commutator(a, b) for a in left for b in mats])

    # the first term [S, S] is also the closure test, by rank
    term = commutators(mats)
    if subspace_sum(space, term).dim != space.dim:
        raise NotBracketClosed("commutator of basis elements leaves the space")
    dims = [space.dim]
    while True:
        dims.append(term.dim)
        if term.dim in (0, dims[-2]):
            return tuple(dims), term.dim == 0
        term = commutators(matrices(term))


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

    an = analysis(alg, cfg)
    aid, ann = an.aid, an.annihilators
    notes = [
        "field: Q; sampling and certificates range over rational points only",
        "matrix convention: column j is the image of e_j; transposed "
        "presentations of the same generator are treated as the same object",
    ]
    (rcaid, rcaid_upper), (caid, caid_upper) = an.rcaid, an.caid
    tower = {
        "der": an.der.dim,
        "inner": an.inner.dim,
        "aid": aid.upper_bound.dim,
        "aid_proved": aid.proved.dim,
        "rcaid": rcaid.dim,
        "caid": caid.dim,
        "outer": an.der.dim - an.inner.dim,
    }
    if aid.status != "certified_exact":
        notes.append("aid not certified exact; rcaid/caid computed from the proved "
                     "lower bound, rcaid_upper/caid_upper from the upper bound")
        tower.update(rcaid_upper=rcaid_upper.dim, caid_upper=caid_upper.dim)
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
    deviations = () if expected is None else tuple(build_deviations(an, expected, algebra_id))
    return AnalysisReport(
        algebra_id=algebra_id,
        dim=alg.dim,
        labels=alg.labels,
        series=an.basis.series,
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
