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
rank test), or given up with an explicit inconclusive verdict; the
elimination itself is `certify`'s.  They span a complement of Inner, so
elimination alone decides them, and each outcome is kept, so none is
certified twice.  The walk tests its points
only against the generators of its space left unproved, and once none is
left it stops testing points; the sample count it reports is still that
of the full walk.

The steps share one basis, `algebra._AdaptedBasis`, adapted to the lower
central series, where the constants of a nilpotent algebra are sparse:
Der, Inner, the candidate, the walk (each point x of the given basis taken
as P^-1 x), the complements of Inner, their elimination and the refutation
rounds all run there.  The elimination (`certify`) knows no basis: this
module moves each generator in and each refuting point back.  What is
reported moves back to the given basis once, after the rounds: Inner,
AID's bounds, its generators and its witnesses.

One analysis of an algebra is one value, `Analysis`, built by `analysis`:
the adapted basis with the central series, Der, Inner and the `AidResult`,
and, worked out on first read, the annihilators, RCAID and CAID, the last
two as the pair from AID's proved bound and from its upper bound, and the
tower of their dimensions.  `aid_space`, `analysis_report` and every
command read that value, so each stage runs once per analysis.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, gcd, isqrt
from typing import Callable, Iterator, Sequence

from .algebra import (
    Annihilators,
    LeibnizAlgebra,
    _AdaptedBasis,
    _coords_str,
    _bracket_columns,
    _int_product,
    _pairs,
    annihilators,
)
from .certify import CertOutcome, undecided_leaves, _int_witness
from .exactlin import (
    DimensionMismatch,
    Q,
    RationalMatrix,
    Subspace,
    _freeze,
    _add_pivot,
    _dict_rows,
    _int_matrix,
    _null_vectors_int,
    _nullspace_int,
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


class NotBracketClosed(ValueError):
    """The given endomorphism space is not closed under the commutator."""


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
    Rows are built sparse from the integer constants and go to the sparse
    integer kernel as built: it keeps its rows primitive and reduces a
    repeated row to zero.  A pair (i, j) with [e_i, e_j] = 0 builds only
    the rows at the m that its other two terms reach.

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
# certification in the series-adapted basis


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
    """Decide D(x) in [x, L] for every rational x by elimination alone
    (`certify.undecided_leaves`), in `basis`, since elimination, unlike
    almost-innerness, is very sensitive to the basis: dm is integer rows of
    a positive multiple of P^-1 D P (a stored row of a complement of Inner,
    or `conjugate` of a claimed D).  The leaves are read up to the first
    refuted one, whose point is mapped back by P (`point_back`) and
    replayed in the given basis by an exact integer solve (`_int_witness`)
    against dm moved back (`endo_back`), a positive multiple of D; one that
    does not replay ends an inconclusive log, as `CertOutcome` says.
    """
    log = prefix = () if basis.u is None else ("series-adapted basis",)
    for leaf in undecided_leaves(basis.alg, dm):
        if leaf.kind == "refuted":
            x = basis.point_back(leaf.refuting_x)
            if _int_witness(alg, basis.endo_back(dm), 1, x) is None:
                return CertOutcome("refuted", refuting_x=x, branch_log=prefix + leaf.branch_log)
            note = "refuting point does not replay in the given basis"
            return CertOutcome("inconclusive", branch_log=log + leaf.branch_log + (note,))
        log += leaf.branch_log
    return CertOutcome("proved" if log == prefix else "inconclusive", branch_log=log)


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
    `rcaid`, `caid` and `tower` are worked out on first read.  RCAID and
    CAID are pairs, from AID's proved bound and from its upper bound: one
    object twice when AID is certified exact.
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

    @cached_property
    def tower(self) -> dict[str, int]:
        """The `aid-report/1` tower: AID's two bounds, and RCAID and CAID
        from the proved one, with `rcaid_upper` and `caid_upper` from the
        upper one only when AID is not certified exact."""
        (rcaid, rcaid_upper), (caid, caid_upper) = self.rcaid, self.caid
        tower = {"der": self.der.dim, "inner": self.inner.dim, "aid": self.aid.dim,
                 "aid_proved": self.aid.proved.dim, "rcaid": rcaid.dim, "caid": caid.dim,
                 "outer": self.der.dim - self.inner.dim}
        if self.aid.status != "certified_exact":
            tower.update(rcaid_upper=rcaid_upper.dim, caid_upper=caid_upper.dim)
        return tower

    def upper_dims(self) -> dict[str, int]:
        """The upper side of `tower`, which always contains AID: what `fuzz`
        compares across bases, whatever each basis certified."""
        t = self.tower
        return {"der": t["der"], "inner": t["inner"], "aid": t["aid"],
                "rcaid": t.get("rcaid_upper", t["rcaid"]),
                "caid": t.get("caid_upper", t["caid"])}

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
class AnalysisReport:
    """One analysis with its catalog id and its deviations from the
    published values, each the document `catalog.build_deviations` writes;
    `cli.report_json` builds the `aid-report/1` document from it."""

    algebra_id: str
    analysis: Analysis
    deviations: tuple[dict, ...]


def analysis_report(
    alg: LeibnizAlgebra,
    cfg: AidConfig = AidConfig(),
    algebra_id: str = "file:algebra",
    expected=None,
) -> AnalysisReport:
    """The analysis of one algebra (`analysis`) with its deviations.

    `expected` is an optional catalog record of published dimensions; any
    disagreement is reported as a deviation that carries a machine-checkable
    certificate.
    """
    from .catalog import build_deviations  # local import to avoid a cycle

    an = analysis(alg, cfg)
    deviations = () if expected is None else tuple(build_deviations(an, expected, algebra_id))
    return AnalysisReport(algebra_id, an, deviations)
