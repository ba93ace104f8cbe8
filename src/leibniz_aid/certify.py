"""Case-split certification of the almost inner condition D(x) in [x, L].

The certifier works on an algebra's integer table of structure constants
and the integer rows of one endomorphism D, and knows nothing of the basis
they are written in: a caller that eliminates in another basis than the
one it was given (`derivations`, in the series-adapted basis) moves D and
each refuting point itself.  `undecided_leaves` builds the witness
equation [x, w] = D(x) as rows [M | b], linear forms in the coordinates t
of x, and eliminates them fraction-free, splitting into pivot = 0 /
pivot != 0 cases when a pivot polynomial can vanish, within NODE_BUDGET
nodes.  `aid_witness` is the exact rank test at one point, the only thing
that can declare a refutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterator, Sequence

from ._poly import Poly
from .algebra import LeibnizAlgebra, _bracket_columns, _pairs
from .exactlin import (DimensionMismatch, Q, QZERO, RationalMatrix, as_rational,
                       _int_matrix, _solve_int)

# certifier nodes per generator before it is `inconclusive`
NODE_BUDGET = 4000


@dataclass(frozen=True, slots=True)
class CertOutcome:
    """branch_log, after the "series-adapted basis" line that `derivations`
    puts first when elimination ran there: if proved, nothing (or "inner:
    constant witness"); if refuted, the refuting leaf's case path; if
    inconclusive, each undecided leaf in walk order, its case path and then
    its reason."""

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


def undecided_leaves(alg: LeibnizAlgebra, dm: Sequence[Sequence[int]]) -> Iterator[CertOutcome]:
    """The leaves of the case tree of D(x) in [x, L] that are not proved,
    in walk order (`_decide`), for D given by integer rows dm of a positive
    multiple: none when D(x) lies in [x, L] for every rational x.

    The witness equation left_mult(x) w = D x is eliminated symbolically in
    the coordinates t of x, within NODE_BUDGET nodes.  Every split removes
    a row (pivot != 0) or a variable (each zero case), so no branch nests
    more than 2n splits.  `_zero_branch` solves pivot = 0 for one variable
    per case; a pivot it cannot solve leaves that branch inconclusive.
    The rows are over the ints: dm's scale moves the witness only, and
    every row, pivot and case split is that of elimination over Q
    (`_strip_row`).  A rational enters only the printed pivot and what is
    read off it (its split, the replacement and the conditions a branch
    holds nonzero) and the refutation search's points; the zero cases
    substitute over the ints (`_substituted`).
    """
    n = alg.dim
    # row m of the witness equation, linear forms in t, as [M | b]:
    # sum_j (sum_i den c[i][j][m] t_i) w_j = sum_k dm[m][k] t_k, with
    # nz[i][j] holding the pairs (m, den c[i][j][m])
    nz = alg.scaled_constants()[1]
    unit = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    coeffs: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for m, v in nz[i][j]:
                coeffs[m][j][unit[i]] = v
    rows = [[Poly(n, f) for f in coeffs[m]] + [Poly(n, dict(zip(unit, dm[m])))]
            for m in range(n)]
    return _decide(_CertContext(alg, dm), rows, frozenset(), (), [], ())


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
