"""Derivation spaces, the sampling pipeline, the series-adapted basis and
judging a generator in it; the certifier on its own is `test_certify.py`."""

from __future__ import annotations

import itertools
import json
import random
from math import gcd, lcm

import pytest

from leibniz_aid import algebra, certify, derivations
from leibniz_aid._poly import Poly
from leibniz_aid.algebra import (
    LeibnizAlgebra,
    annihilators,
    central_series,
    change_basis,
    direct_sum,
    to_json_dict,
)
from leibniz_aid.catalog import make
from leibniz_aid.cli import _random_invertible, main, report_json, report_text
from leibniz_aid.derivations import (
    AidConfig,
    NotBracketClosed,
    aid_basis_candidate,
    aid_certify,
    aid_refine,
    aid_space,
    analysis,
    analysis_report,
    bracket,
    derivation_space,
    endo_actions,
    endo_to_vec,
    inner_combination,
    inner_space,
    matrix_unit,
    rcaid_caid,
    refinement_grid,
    restriction_witness,
    subalgebra_nilpotency,
    vec_to_endo,
    _cuts,
    _grid_length,
    _restrict_at_point,
)
from leibniz_aid.certify import aid_witness
from leibniz_aid.exactlin import (
    DimensionMismatch,
    Q,
    RationalMatrix,
    Subspace,
    complement_in,
    rref,
    subspace_sum,
)

from conftest import (
    CATALOG_BATTERY,
    SERIES_FALLBACK_CASES,
    aid_of,
    dense_derivation_space,
    dense_inner_combination,
    dense_subspace,
    fraction_aid_basis_candidate,
    fraction_restrict_at_point,
    fraction_subalgebra_nilpotency,
    fraction_transition_inverse,
    fuzz_copies,
    three_bases,
    sympy_derivation_dim,
)

NF3 = make("catalog:NF:3")

# independently recomputed dimension of Der for the catalogued instances
DER_DIMS = {
    "catalog:D4:L4:0": 3,
    "catalog:D4:L4:1": 4,
    "catalog:D4:L9": 5,
    "catalog:D4:L10": 4,
    "catalog:D4:L11": 5,
    "catalog:D4:L12": 5,
    "catalog:D4:L13:0": 5,
    "catalog:D4:L13:1": 7,
    "catalog:D4:L13:2": 5,
    "catalog:D4:L20:0": 7,
    "catalog:D4:L20:2": 7,
    "catalog:G53": 10,
}


# -- vectorized endomorphisms -------------------------------------------


def test_endo_vec_roundtrip():
    m = RationalMatrix.from_rows([[1, 2], [Q(1, 3), -4]])
    assert vec_to_endo(endo_to_vec(m), 2).entries == m.entries


def test_matrix_unit_sends_col_to_row():
    e = matrix_unit(3, 3, 1)
    assert e.apply((1, 0, 0)) == (0, 0, 1)
    assert e.apply((0, 1, 0)) == (0, 0, 0)


def test_endo_actions_describe_nonzero_columns():
    acts = endo_actions(NF3, NF3.right_mult((1, 0, 0)))
    assert acts == ["e1 -> 1*e2", "e2 -> 1*e3"]
    assert endo_actions(NF3, matrix_unit(3, 1, 1).scale(0)) == ["0"]


# -- derivation and inner spaces ----------------------------------------


@pytest.mark.parametrize("ref,expected", sorted(DER_DIMS.items()))
def test_derivation_dims_frozen(ref, expected):
    assert derivation_space(make(ref)).dim == expected


@pytest.mark.parametrize(
    "ref", ["catalog:NF:3", "catalog:D4:L4:0", "catalog:D4:L13:1", "catalog:G53"]
)
def test_derivation_dims_against_independent_oracle(ref):
    alg = make(ref)
    assert derivation_space(alg).dim == sympy_derivation_dim(alg)


def test_derivation_space_members_satisfy_the_product_rule():
    rng = random.Random(2)
    for ref in ("catalog:NF:4", "catalog:D4:L9", "catalog:F3:5:1,2,3"):
        alg = make(ref)
        n = alg.dim
        for v in derivation_space(alg).basis_vectors():
            d = vec_to_endo(v, n)
            for _ in range(5):
                x = tuple(Q(rng.randint(-3, 3)) for _ in range(n))
                y = tuple(Q(rng.randint(-3, 3)) for _ in range(n))
                lhs = d.apply(alg.product(x, y))
                rhs = tuple(
                    a + b
                    for a, b in zip(
                        alg.product(d.apply(x), y), alg.product(x, d.apply(y))
                    )
                )
                assert lhs == rhs


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_derivation_space_matches_the_dense_builder(ref):
    for a in fuzz_copies(ref):
        assert derivation_space(a) == dense_derivation_space(a), ref


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_inner_space_matches_the_right_multiplications(ref):
    for alg in fuzz_copies(ref):
        n = alg.dim
        mults = [endo_to_vec(alg.right_mult(alg.basis_coords(j))) for j in range(n)]
        assert inner_space(alg) == dense_subspace(n * n, mults), ref


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_aid_basis_candidate_matches_the_fraction_oracle(ref):
    for alg in fuzz_copies(ref):
        der = derivation_space(alg)
        assert aid_basis_candidate(alg, der) == fraction_aid_basis_candidate(alg, der), ref


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_restrict_at_point_matches_the_fraction_oracle(ref):
    rng = random.Random(7)
    for alg in fuzz_copies(ref):
        n = alg.dim
        der = derivation_space(alg)
        for space in (der, aid_basis_candidate(alg, der)):
            for trial in range(4):
                # integer points, then rational ones
                x = [rng.randint(-3, 3) for _ in range(n)]
                if trial >= 2:
                    x = [Q(v, rng.randint(1, 5)) for v in x]
                assert _restrict_at_point(alg, space, x) == \
                    fraction_restrict_at_point(alg, space, x), (ref, x)


@pytest.mark.parametrize("ref", ["catalog:G53", "catalog:F3:5:1,2,3", "catalog:D4:L9"])
def test_der_in_the_adapted_basis_maps_back_to_der(ref):
    alg = random_basis_copy(ref, 3)
    an = analysis(alg, AidConfig())
    der, basis = an.der, an.basis
    assert basis.u is not None  # Der was solved in the series-adapted basis
    # and stays there: the analysis reports only its dimension
    assert der == derivation_space(basis.alg)
    assert basis.space_back(der) == derivation_space(alg)


def test_der_of_a_non_nilpotent_algebra_stays_in_the_given_basis():
    solvable = LeibnizAlgebra.build(2, {(2, 1): {2: 1}})  # [e2,e1]=e2
    alg = change_basis(direct_sum(solvable, make("catalog:NF:3")),
                       _random_invertible(random.Random(4), 5))
    an = analysis(alg, AidConfig())
    der, basis = an.der, an.basis
    assert basis.u is None and basis.alg is alg
    assert der == derivation_space(alg) == dense_derivation_space(alg)


def _generator_der_cases():
    """(label, algebra, standard) triples: the standard bases of the sweep,
    which are series-adapted already, the battery in three random bases,
    which Der meets as bracket bases, and a direct sum with three
    generators in G53 and one in NF:3."""
    refs = [f"catalog:NF:{n}" for n in range(2, 17)] + [
        f"catalog:F3:{n}:0,0,1" for n in range(5, 13)]
    cases = [(ref, make(ref), True) for ref in refs]
    rng = random.Random(11)
    for ref in CATALOG_BATTERY:
        base = make(ref)
        for copy in range(3):
            alg = change_basis(base, _random_invertible(rng, base.dim))
            cases.append((f"{ref} basis {copy}", alg, False))
    g53_nf3 = direct_sum(make("catalog:G53"), make("catalog:NF:3"))
    cases.append(("G53 + NF:3", g53_nf3, False))
    return cases


def test_der_from_the_generators_equals_the_full_solve(monkeypatch):
    # the analysis solves Der from the pairs (e_i, g) for the first
    # n - dim L^2 vectors g of the adapted basis, through the module's
    # derivation_space, and gets the full solve's Subspace
    solve = derivations.derivation_space
    gens_seen = []

    def spy(alg, **kwargs):
        gens_seen.append(kwargs["_gens"])
        return solve(alg, **kwargs)

    monkeypatch.setattr(derivations, "derivation_space", spy)
    most = 0
    bracket_bases = 0
    for label, alg, standard in _generator_der_cases():
        gens_seen.clear()
        an = analysis(alg, AidConfig())
        der, basis = an.der, an.basis
        n = alg.dim
        g = n - central_series(alg).dims[1]
        assert gens_seen == [g] and basis.gens == g < n, label
        if standard:
            assert basis.u is None, label  # the given basis is adapted
        bracket_bases += basis.u is not None
        assert der == solve(basis.alg), label
        most = max(most, g)
    # every random copy, and the direct sum, is moved to its bracket basis
    assert most == 4 and bracket_bases == 100


@pytest.mark.parametrize("alg, fallback", SERIES_FALLBACK_CASES)
def test_der_off_the_nilpotent_path_takes_every_pair(alg, fallback):
    # a non-nilpotent algebra, dimension 0 and an abelian one (L^2 = 0) are
    # solved from all n^2 pairs
    basis = algebra._AdaptedBasis.of(alg)
    assert basis.gens == alg.dim
    assert derivation_space(basis.alg, _gens=basis.gens) == \
        derivation_space(alg) == dense_derivation_space(alg)


def _layer_of(series, n):
    """The series degree of each column of a basis adapted to it: column j
    lies in L^i exactly when j >= n - dim L^i."""
    return [sum(1 for d in series.dims if d >= n - j) for j in range(n)]


def _trailing_units(series, n):
    return all(
        t == Subspace.from_vectors(n, [[int(k == j) for k in range(n)] for j in range(n - t.dim, n)])
        for t in series.terms
    )


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_bracket_basis_is_adapted_and_keeps_der_and_aid(ref):
    an = analysis(make(ref), AidConfig())
    der, aid = an.der, an.aid
    for seed in (1, 2, 3):
        alg = random_basis_copy(ref, seed)
        n = alg.dim
        basis = algebra._AdaptedBasis.of(alg)
        series = basis.series
        layer = _layer_of(series, n)
        c = basis.alg.constants
        # [L^a, L^b] lies in L^{a+b}
        assert all(
            layer[k] >= layer[i] + layer[j]
            for i in range(n) for j in range(n) for k in range(n) if c[i][j][k]
        ), (ref, seed)
        if basis.u is not None:
            # P P^-1 = (U / s)(s Z / d) = I: U Z = d I over the ints
            identity = [[basis.d * int(r == k) for k in range(n)] for r in range(n)]
            assert algebra._int_product(basis.u, basis.z) == identity
        moved = analysis(alg, AidConfig())
        moved_der, moved_aid = moved.der, moved.aid
        assert (moved_der.dim, moved_aid.dim) == (der.dim, aid.dim), (ref, seed)


@pytest.mark.parametrize("ref", CATALOG_BATTERY + ("catalog:F3:10:0,0,1", "catalog:NF:8"))
def test_adapted_basis_is_the_given_one_exactly_when_the_terms_are_trailing_units(ref):
    base = make(ref)
    # f_j = e_j + e_{j+1} + ... + e_n keeps every term on trailing unit vectors
    lower = RationalMatrix.from_rows([[int(r >= k) for k in range(base.dim)] for r in range(base.dim)])
    for alg in fuzz_copies(ref) + [change_basis(base, lower)]:
        n = alg.dim
        basis = algebra._AdaptedBasis.of(alg)
        series = basis.series
        assert (basis.u is None) == _trailing_units(series, n), ref
        if basis.u is None:
            assert basis.alg is alg
        else:
            # the bracket basis is adapted: its terms are trailing units
            assert _trailing_units(central_series(basis.alg), n), ref


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_space_moves_match_the_fraction_products(ref):
    base, ps = three_bases(ref)
    rng = random.Random(11)
    for p in ps:
        alg = change_basis(base, p)
        n = alg.dim
        basis = algebra._AdaptedBasis.of(alg)
        # P = U / s, and its inverse from the dense oracle
        pm = (RationalMatrix.identity(n) if basis.u is None
              else RationalMatrix.from_rows([[Q(v, basis.s) for v in row] for row in basis.u]))
        pinv = fraction_transition_inverse([pm.col(j) for j in range(n)], n)
        random_space = Subspace.from_vectors(
            n * n, [[rng.randint(-2, 2) for _ in range(n * n)] for _ in range(2)])
        for space in (derivation_space(basis.alg), derivation_space(alg), random_space):
            gens = [vec_to_endo(v, n) for v in space.basis_vectors()]
            back = [list(itertools.chain(*(pm @ g @ pinv).entries)) for g in gens]
            assert basis.space_back(space) == Subspace.from_vectors(n * n, back), ref


def test_bracket_basis_of_a_random_f3_12_copy_is_sparse():
    alg = random_basis_copy("catalog:F3:12:0,0,1", 1)
    basis = algebra._AdaptedBasis.of(alg)
    c = basis.alg.constants
    assert sum(1 for plane in c for row in plane for v in row if v) <= 41
    an = analysis(alg, AidConfig())
    der, aid = an.der, an.aid
    assert (der.dim, aid.dim, aid.status) == (21, 12, "certified_exact")


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_adapted_basis_moves_der_and_refutations_back_to_the_given_basis(ref):
    for seed in (1, 2):
        alg = random_basis_copy(ref, seed)
        n = alg.dim
        basis = algebra._AdaptedBasis.of(alg)
        der = derivation_space(alg)
        # the P^-1 D P images of a Der basis span Der of the adapted algebra,
        # and the space method maps them back onto Der
        gens = [vec_to_endo(v, n) for v in der.basis_vectors()]
        # (conjugate gives each up to a positive factor, over the ints)
        moved = [basis.conjugate(g) for g in gens]
        images = Subspace.from_vectors(n * n, [list(itertools.chain(*m)) for m in moved])
        assert images == derivation_space(basis.alg), (ref, seed)
        assert basis.space_back(images) == der, (ref, seed)
        # x refutes P^-1 D P in the adapted basis exactly when P x refutes D
        # in the given one, so a refutation found there replays here
        aid = aid_space(alg).upper_bound
        own = algebra._AdaptedBasis.of(basis.alg)
        assert own.u is None  # the adapted algebra is its own adapted basis
        refuted = 0
        for v in complement_in(aid, der).basis_vectors():
            dmat = vec_to_endo(v, n)
            dm = RationalMatrix.from_rows(basis.conjugate(dmat))
            # the certifier's refutation in the adapted basis, if any, then grid points
            outcome = derivations._eliminated(basis.alg, basis.conjugate(dmat), own)
            points = [outcome.refuting_x] if outcome.kind == "refuted" else []
            points += [tuple(map(Q, x)) for x in itertools.islice(refinement_grid(n), 300)]
            for x in points:
                there = aid_witness(basis.alg, dm, x) is None
                assert (aid_witness(alg, dmat, basis.point_back(x)) is None) == there, (ref, x)
                if there:
                    refuted += 1
                    break
        assert refuted == der.dim - aid.dim, (ref, seed)


def test_an_analysis_inverts_its_adapted_basis_once(monkeypatch):
    import leibniz_aid.algebra as alg_mod

    calls = []
    invert = alg_mod._int_inverse

    def spy(u):
        calls.append(len(u))
        return invert(u)

    monkeypatch.setattr(alg_mod, "_int_inverse", spy)
    alg = random_basis_copy("catalog:G53", 1)
    calls.clear()
    report = analysis_report(alg)
    assert calls == [alg.dim]
    assert report.analysis.aid.status == "certified_exact"
    # in an adapted basis already, nothing is inverted
    calls.clear()
    analysis_report(make("catalog:G53"))
    assert calls == []


def test_mis_shaped_endomorphisms_and_points_are_rejected():
    alg = make("catalog:D4:L9")
    center = annihilators(alg).center
    for dmat in (matrix_unit(5, 5, 2), matrix_unit(3, 3, 2), RationalMatrix.from_rows([[0] * 4] * 3)):
        with pytest.raises(DimensionMismatch):
            aid_certify(alg, dmat)
        with pytest.raises(DimensionMismatch):
            restriction_witness(alg, dmat, center)
        with pytest.raises(DimensionMismatch):
            inner_combination(alg, dmat)
        for x in ((1, 0, 0, 0), (1, 0, 0, 0, 0)):
            with pytest.raises(DimensionMismatch):
                aid_witness(alg, dmat, x)
    gen = matrix_unit(4, 4, 2)
    with pytest.raises(DimensionMismatch):
        aid_witness(alg, gen, (1, 0, 0, 0, 0))
    with pytest.raises(DimensionMismatch):
        restriction_witness(alg, gen, Subspace.zero(5))
    # nor is a 0-dimensional algebra spared the check
    with pytest.raises(DimensionMismatch):
        aid_certify(LeibnizAlgebra.build(0, {}), matrix_unit(5, 5, 2))
    assert aid_certify(LeibnizAlgebra.build(0, {}), matrix_unit(0, 0, 0)).kind == "proved"
    # the right shapes still go through
    assert aid_witness(alg, gen, (1, 0, 0, 0)) is not None
    assert restriction_witness(alg, gen, center) is not None


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_inner_combination_matches_the_fraction_oracle(ref):
    rng = random.Random(37)
    for alg in fuzz_copies(ref):
        n = alg.dim
        a = tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        m = alg.right_mult(a)
        combo = inner_combination(alg, m)
        assert combo is not None and combo == dense_inner_combination(alg, m), ref
        # the algebra is nilpotent, so every R_a is and the identity is not inner
        ident = RationalMatrix.identity(n)
        assert inner_combination(alg, ident) is None, ref
        assert dense_inner_combination(alg, ident) is None, ref


def test_inner_space_spans_right_multiplications():
    inner = inner_space(NF3)
    assert inner.dim == 1  # only R_{e1} is nonzero here
    assert inner.contains(endo_to_vec(NF3.right_mult((5, -2, 7))))
    assert derivation_space(NF3).contains_subspace(inner)


def test_candidate_sits_between_inner_and_der():
    for ref in ("catalog:D4:L9", "catalog:D4:L13:1", "catalog:G53"):
        alg = make(ref)
        cand = aid_basis_candidate(alg)
        assert derivation_space(alg).contains_subspace(cand)
        assert cand.contains_subspace(inner_space(alg))


# -- sampling ------------------------------------------------------------


def test_refinement_grid_is_primitive_and_duplicate_free():
    pts = list(refinement_grid(3))
    assert len(pts) == len(set(pts))
    for p in pts:
        nz = [v for v in p if v]
        assert nz and nz[0] > 0
        g = 0
        for v in p:
            g = gcd(g, abs(v))
        assert g == 1
    # no two points are proportional
    seen = set()
    for p in pts:
        assert p not in seen
        seen.add(p)


@pytest.mark.parametrize("n", range(21))
def test_grid_length_counts_the_grid(n):
    assert _grid_length(n) == sum(1 for _ in refinement_grid(n))


def test_refinement_grid_high_dim_limits_support():
    pts = list(refinement_grid(7))
    assert pts
    for p in pts:
        assert sum(1 for v in p if v) <= 3
        assert all(abs(v) <= 2 for v in p)


def test_aid_refine_respects_floor():
    inner = inner_space(NF3)
    cand = aid_basis_candidate(NF3)
    space, samples = aid_refine(NF3, cand, inner=inner)
    assert space.contains_subspace(inner)
    if cand.dim == inner.dim:
        assert samples == 0


def test_aid_refine_cuts_a_known_overestimate():
    alg = make("catalog:D4:L13:1")
    inner = inner_space(alg)
    cand = aid_basis_candidate(alg)
    refined, samples = aid_refine(alg, cand, inner=inner)
    assert refined.dim < cand.dim
    assert refined.contains_subspace(inner)


@pytest.mark.parametrize("ref", ["catalog:D4:L13:1", "catalog:G53", "catalog:F3:6:0,0,1"])
def test_aid_refine_works_out_inner_by_default(ref):
    alg = make(ref)
    cand = aid_basis_candidate(alg)
    inner = inner_space(alg)
    full = aid_refine(alg, cand, inner=inner)
    assert aid_refine(alg, cand) == full
    # `_proved` defaults to Inner at every space
    assert aid_refine(alg, cand, inner=inner, _proved=lambda _: inner) == full


# every entry of the `sweep` benchmark workload, whose gate checks only the
# tower dimensions
@pytest.mark.parametrize(
    "ref,samples",
    [(f"catalog:NF:{n}", 0) for n in range(2, 17)]
    + [
        (f"catalog:F3:{n}:0,0,1", samples)
        for n, samples in zip(range(5, 13), (146, 681, 1138, 1769, 2602, 3665, 4986, 6593))
    ],
)
def test_refinement_sample_counts_are_pinned(ref, samples):
    assert aid_space(make(ref)).samples_used == samples


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_candidate_and_walk_in_the_adapted_basis_are_those_of_the_given_basis(ref):
    # the analysis solves Inner, builds the candidate and walks in the
    # series-adapted basis, carrying each point of the given basis there;
    # moved back, all three agree with the public given-basis routines,
    # samples included
    for seed in (1, 2, 3):
        alg = random_basis_copy(ref, seed)
        basis = algebra._AdaptedBasis.of(alg)
        inner = inner_space(alg)
        moved_inner = inner_space(basis.alg)
        assert basis.space_back(moved_inner) == inner, (ref, seed)
        cand = aid_basis_candidate(alg)
        moved_cand = aid_basis_candidate(
            basis.alg, derivation_space(basis.alg), _into=basis.point_in)
        assert basis.space_back(moved_cand) == cand, (ref, seed)
        moved, samples = aid_refine(basis.alg, moved_cand, inner=moved_inner,
                                    _into=basis.point_in)
        assert (basis.space_back(moved), samples) == \
            aid_refine(alg, cand, inner=inner), (ref, seed)


NO_REPLAY = "refuting point does not replay in the given basis"


def _over_its_pivot(m: RationalMatrix) -> bool:
    return next(v for row in m.entries for v in row if v) == 1


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_reported_generators_and_witnesses_are_those_of_the_given_basis(ref, monkeypatch):
    # the generators are chosen, certified and refuted in the adapted basis
    # and moved back: with Inner they span the upper bound, each lies in it
    # and outside Inner, each is shown over its pivot, and every witness
    # replays in the given basis.  With sampling skipped the rounds refute
    # the candidate's generators, so witnesses are moved back too
    base, ps = three_bases(ref)
    walk = derivations.aid_refine
    for sampled in (True, False):
        refine = walk if sampled else (lambda alg, space, cfg, inner, **_: (space, 0))
        monkeypatch.setattr(derivations, "aid_refine", refine)
        for p in ps:
            alg = change_basis(base, p)
            n = alg.dim
            an = analysis(alg)
            aid = an.aid
            inner = inner_space(alg)
            assert an.inner == inner, ref
            gens = [g for g, _ in aid.proved_generators + aid.inconclusive_generators]
            span = Subspace.from_vectors(n * n, [endo_to_vec(g) for g in gens])
            assert subspace_sum(inner, span) == aid.upper_bound, ref
            assert subspace_sum(inner, span).dim == inner.dim + len(gens), ref
            for g in gens:
                assert aid.upper_bound.contains(endo_to_vec(g)), ref
                assert not inner.contains(endo_to_vec(g)), ref
            if aid.status == "certified_exact":
                assert aid.proved is aid.upper_bound
            else:
                proved = [endo_to_vec(g) for g, _ in aid.proved_generators]
                assert aid.proved == subspace_sum(
                    inner, Subspace.from_vectors(n * n, proved)), ref
            assert all(map(_over_its_pivot, gens)), ref
            assert all(_over_its_pivot(g) for g, _ in aid.witnesses), ref
            assert all(aid_witness(alg, g, x) is None for g, x in aid.witnesses), ref
            assert not any(o.branch_log[-1:] == (NO_REPLAY,) for _, o in aid.judged), ref
            if not sampled and aid.status == "certified_exact":
                # the rounds alone cut a candidate above AID, each cut at a
                # refuting point moved back
                cand = aid_basis_candidate(alg)
                assert bool(aid.witnesses) == (cand.dim > aid.dim), ref


def test_a_complement_generator_whose_refutation_does_not_replay_is_inconclusive(monkeypatch):
    # D4:L4:1 in a random basis, with sampling skipped: the rounds refute
    # its candidate's first generator in the adapted basis, and when the
    # point does not replay in the given basis the generator stays,
    # inconclusive, and nothing is cut at that point
    alg = random_basis_copy("catalog:D4:L4:1", 1)
    monkeypatch.setattr(derivations, "aid_refine", lambda alg, space, cfg, inner, **_: (space, 0))
    assert aid_space(alg).witnesses
    replay = derivations._int_witness

    def no_replay_in_the_given_basis(given, dint, e, x):
        return (Q(0),) * given.dim if given is alg else replay(given, dint, e, x)

    monkeypatch.setattr(derivations, "_int_witness", no_replay_in_the_given_basis)
    aid = aid_space(alg)
    assert not aid.witnesses and aid.status == "probabilistic"
    assert aid.upper_bound == aid_basis_candidate(alg)
    [(_, outcome), *_] = aid.judged
    assert outcome.kind == "inconclusive" and outcome.refuting_x is None
    assert outcome.branch_log[0] == "series-adapted basis"
    assert outcome.branch_log[-1] == NO_REPLAY


@pytest.mark.parametrize("sampled", [True, False])
def test_nothing_moves_between_bases_while_the_walk_or_the_rounds_run(sampled, monkeypatch):
    # every space and generator goes back to the given basis after the last
    # certification and the last restriction at a point; during the walk and
    # the rounds only a refuted generator is moved, by `endo_back`, to replay
    # its point in the given basis
    events = []

    def logged(name, fn):
        def spy(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return spy

    def unsampled(alg, space, cfg, inner, **_):
        return space, 0

    walk = derivations.aid_refine if sampled else unsampled

    def walked(*args, **kwargs):
        events.append("walk")
        out = walk(*args, **kwargs)
        events.append("walked")
        return out

    eliminated = derivations._eliminated

    def certified(*args):
        outcome = eliminated(*args)
        events.append(f"_eliminated {outcome.kind}")
        return outcome

    monkeypatch.setattr(derivations, "aid_refine", walked)
    monkeypatch.setattr(derivations, "_eliminated", certified)
    monkeypatch.setattr(derivations, "_restrict_at_point",
                        logged("_restrict_at_point", derivations._restrict_at_point))
    for name in ("space_back", "endo_back"):
        method = getattr(algebra._AdaptedBasis, name)
        monkeypatch.setattr(algebra._AdaptedBasis, name, logged(name, method))
    moved = replayed = 0
    for ref in CATALOG_BATTERY:
        base, ps = three_bases(ref)
        for p in ps:
            events.clear()
            aid = aid_space(change_basis(base, p))
            last = max(i for i, e in enumerate(events) if e == "walked"
                       or e.startswith(("_eliminated", "_restrict_at_point")))
            assert "space_back" not in events[:last], (ref, events)
            assert events.count("walk") == events.count("walked") == 1
            # one replay per refuted certification
            assert events.count("endo_back") == events.count("_eliminated refuted") \
                >= len(aid.witnesses), ref
            moved += events.count("space_back")
            replayed += events.count("endo_back")
    assert moved and replayed


def random_basis_copy(ref: str, seed: int):
    alg = make(ref)
    return change_basis(alg, _random_invertible(random.Random(seed), alg.dim))


# a cut the cut test missed would leave the dimensions alone (certification
# restricts at the refuting point) but would change the samples and witnesses
@pytest.mark.parametrize(
    "ref,samples,witnesses",
    [
        ("catalog:G53", 146, 0),
        ("catalog:F3:5:1,2,3", 146, 0),
        ("catalog:F1:7:0,0,0,1,0", 9, 0),
    ],
)
def test_refinement_sample_counts_are_pinned_off_the_standard_basis(
    ref, samples, witnesses
):
    aid = aid_space(random_basis_copy(ref, 1))
    assert aid.samples_used == samples
    assert len(aid.witnesses) == witnesses
    assert aid.status == "certified_exact"


@pytest.mark.parametrize("ref,seed", [(ref, seed) for ref in CATALOG_BATTERY
                                      for seed in (None, 1, 2, 3)])
def test_walk_with_the_proved_view_equals_the_full_walk(ref, seed):
    alg = make(ref) if seed is None else random_basis_copy(ref, seed)
    n = alg.dim
    inner = inner_space(alg)
    cand = aid_basis_candidate(alg)
    outcomes = {}

    def proved_part(space: Subspace) -> Subspace:
        """Inner plus the generators of a complement of Inner in space that
        the certifier proves"""
        gens = complement_in(inner, space).basis_vectors()
        for v in gens:
            if v not in outcomes:
                outcomes[v] = aid_certify(alg, vec_to_endo(v, n)).kind
        return subspace_sum(inner, Subspace.from_vectors(
            n * n, [v for v in gens if outcomes[v] == "proved"]))

    proved = proved_part(cand)
    full = aid_refine(alg, cand, inner=inner)
    # the full walk tests every proved generator at every point: none cuts
    assert full[0].contains_subspace(proved)
    assert aid_refine(alg, cand, inner=inner, _proved=lambda _: proved) == full
    # a proved part that grows at each cut, read for the candidate and again
    # for each space a cut leaves, each inside the last, ends the walk at the
    # same space with the same samples
    held = []

    def grown(space: Subspace) -> Subspace:
        held.append(space)
        return proved_part(space)

    assert aid_refine(alg, cand, inner=inner, _proved=grown) == full
    if cand.dim:
        assert held[0] == cand and held[-1] == full[0]
        assert all(a.dim > b.dim and a.contains_subspace(b) for a, b in zip(held, held[1:]))


def test_walk_with_everything_proved_visits_every_point():
    # the full walk ends neither early nor after a random cut, so it visits
    # every grid point and STALL_LIMIT random points; with the whole space
    # proved the part left open is zero and those points are counted, not tested.
    # n = 4, 5 and 8 reach each branch of `_grid_length`
    for ref in ("catalog:D4:L11", "catalog:F3:5:0,0,1", "catalog:F3:8:0,0,1"):
        alg = make(ref)
        inner = inner_space(alg)
        cand = aid_basis_candidate(alg)
        assert cand.dim > inner.dim
        walked = len(list(refinement_grid(alg.dim))) + derivations.STALL_LIMIT
        assert aid_refine(alg, cand, inner=inner) == (aid_space(alg).upper_bound, walked)
        assert aid_refine(alg, cand, inner=inner, _proved=lambda _: cand) == (cand, walked)


def counted_cut_tests(monkeypatch) -> list:
    tested = []

    def spy(alg, part, x):
        tested.append(tuple(x))
        return _cuts(alg, part, x)

    monkeypatch.setattr(derivations, "_cuts", spy)
    return tested


def test_walk_counts_the_rest_once_a_cut_empties_the_view(monkeypatch):
    # in the standard basis D4:L11 has candidate 4 > AID 3 > Inner 2; the
    # full walk cuts once, at grid point 124 (counting from 0) of 272
    alg = make("catalog:D4:L11")
    inner = inner_space(alg)
    cand = aid_basis_candidate(alg)
    aid = aid_space(alg).upper_bound
    assert (cand.dim, aid.dim, inner.dim) == (4, 3, 2)
    full = aid_refine(alg, cand, inner=inner)
    assert full == (aid, 297)
    tested = counted_cut_tests(monkeypatch)
    assert aid_refine(alg, cand, inner=inner, _proved=lambda _: aid) == full
    # with AID proved that cut leaves nothing open: the other 148 grid points
    # and the 25 random ones are counted, not tested
    assert len(tested) == 125 and tested[-1] == (1, 1, -2, -2)


def test_walk_counts_the_stall_once_a_random_cut_empties_the_view(monkeypatch):
    # no battery entry cuts in the random phase, so the grid is taken away:
    # the first random point cuts F1:5:0,1,1 + F3:5:0,0,1 from its candidate
    # (dimension 8) down to AID (7), which lies above Inner (6)
    alg = direct_sum(make("catalog:F1:5:0,1,1"), make("catalog:F3:5:0,0,1"))
    inner = inner_space(alg)
    cand = aid_basis_candidate(alg)
    aid = aid_space(alg).upper_bound
    assert (cand.dim, aid.dim, inner.dim) == (8, 7, 6)
    monkeypatch.setattr(derivations, "refinement_grid", lambda n: iter(()))
    full = aid_refine(alg, cand, inner=inner)
    assert full == (aid, 1 + derivations.STALL_LIMIT)
    tested = counted_cut_tests(monkeypatch)
    assert aid_refine(alg, cand, inner=inner, _proved=lambda _: aid) == full
    assert len(tested) == 1


# the schedule of an analysis: the certifier refutes the candidate's first
# generator before the walk; the walk cuts it at its last tested point, and
# the one generator that cut leaves open is proved there, so the rest of the
# walk is counted, not tested.  D4:L11 cuts at grid point 124 (counting from
# 0) of 272, the three seed-1 copies at their third point
@pytest.mark.parametrize("ref,seed,tested", [
    ("catalog:D4:L11", None, 125),
    ("catalog:D4:L12", 1, 3),
    ("catalog:D4:L20:0", 1, 3),
    ("catalog:D4:L20:2", 1, 3),
])
def test_the_walk_stops_testing_at_the_cut_that_leaves_only_proved_generators(
        monkeypatch, ref, seed, tested):
    alg = make(ref) if seed is None else random_basis_copy(ref, seed)
    inner = inner_space(alg)
    cand = aid_basis_candidate(alg)
    points = counted_cut_tests(monkeypatch)
    # tested against Inner alone, the walk tests every one of its points
    space, samples = aid_refine(alg, cand, inner=inner)
    assert samples == len(points) == 297
    points.clear()
    eliminated = derivations._eliminated
    certified = []

    def spy(alg, dm, basis):
        outcome = eliminated(alg, dm, basis)
        certified.append((len(points), outcome.kind))
        return outcome

    monkeypatch.setattr(derivations, "_eliminated", spy)
    res = aid_space(alg)
    assert certified == [(0, "refuted"), (tested, "proved")]
    assert len(points) == tested
    assert (res.upper_bound, res.samples_used) == (space, 297)
    assert res.status == "certified_exact" and not res.witnesses
    assert [o.kind for _, o in res.judged] == ["proved"]


# on D4:L13:1 the certifier refutes the first generator before the walk and
# the walk cuts both; on F3:6:0,0,1 it proves the one generator
@pytest.mark.parametrize("ref", ["catalog:F3:6:0,0,1", "catalog:D4:L13:1"])
def test_each_generator_is_certified_once_per_analysis(monkeypatch, ref):
    eliminated = derivations._eliminated
    seen = []

    def spy(alg, dm, basis):
        seen.append(tuple(map(tuple, dm)))
        return eliminated(alg, dm, basis)

    monkeypatch.setattr(derivations, "_eliminated", spy)
    alg = make(ref)
    res = aid_space(alg)
    assert res.status == "certified_exact"
    assert seen
    assert len(set(seen)) == len(seen)
    # a kept outcome changes no cut of the walk
    assert not res.witnesses
    assert res.samples_used == aid_refine(alg, aid_basis_candidate(alg))[1]


def test_aid_space_solves_for_no_constant_witness(monkeypatch):
    # the generators an analysis certifies span a complement of Inner, so
    # none of them is inner and elimination alone decides each
    combination = derivations.inner_combination
    solved = []

    def spy(alg, m):
        solved.append(m)
        return combination(alg, m)

    monkeypatch.setattr(derivations, "inner_combination", spy)
    for ref in CATALOG_BATTERY:
        aid_space(make(ref))
    assert solved == []


@pytest.mark.parametrize(
    "ref,seed",
    [
        ("catalog:G53", 1),
        ("catalog:F1:7:0,0,0,1,0", 1),
        ("catalog:F3:8:0,0,1", None),
        # at grid point 26 the first complement image of Der is zero and a
        # later one cuts
        ("catalog:G53", None),
    ],
)
def test_integer_cut_test_agrees_with_the_exact_restriction(ref, seed):
    alg = make(ref) if seed is None else random_basis_copy(ref, seed)
    n = alg.dim
    der = derivation_space(alg)
    inner = inner_space(alg)
    refined = aid_space(alg).upper_bound
    rng = random.Random(0 if seed is None else seed)

    def points():
        # sparse and dense integer points, then rational ones
        for trial in range(100):
            support = rng.sample(range(n), rng.randint(1, n))
            point = [0] * n
            for k in support:
                point[k] = rng.choice([v for v in range(-4, 5) if v])
            if trial % 3 == 2:
                point = [Q(v, rng.randint(1, 7)) for v in point]
            yield point
        # grid points, where the complement images can all vanish
        yield from itertools.islice(refinement_grid(n), 40)

    outcomes = {True: 0, False: 0}
    lazy = 0
    for space in (der, aid_basis_candidate(alg, der), refined):
        comp = complement_in(inner, space)
        basis = [vec_to_endo(b, n) for b in space.basis_vectors()]
        comp_basis = [vec_to_endo(b, n) for b in comp.basis_vectors()]
        for point in points():
            cut = _restrict_at_point(alg, space, point) != space
            # the exact rank test, generator by generator, is the oracle
            assert cut == any(aid_witness(alg, d, point) is None for d in basis)
            # Inner never cuts: the complement cuts exactly when the space does
            assert cut == any(aid_witness(alg, c, point) is None for c in comp_basis)
            # the condition is homogeneous in x: a rational x is tested at
            # an integer multiple
            scale = lcm(*(Q(v).denominator for v in point))
            x = [int(v * scale) for v in point]
            assert _cuts(alg, space, x) == cut
            assert _cuts(alg, comp, x) == cut
            outcomes[cut] += 1
            if comp_basis and not any(any(c.apply(x)) for c in comp_basis):
                lazy += 1
    assert outcomes[True] and outcomes[False]
    if seed is None:
        # in the standard basis some grid points give every complement
        # generator a zero image: the cut test decides them without [x, L]
        assert lazy


def test_analysis_reads_rcaid_and_caid_from_both_bounds_on_first_read(monkeypatch):
    # aid_space reaches no annihilator; the analysis works them out once,
    # on first read, and each pair is the public meet with each bound
    solved = []
    original = derivations.annihilators
    monkeypatch.setattr(derivations, "annihilators",
                        lambda alg: solved.append(alg) or original(alg))
    exact = make("catalog:D4:L9")
    aid_space(exact)
    an = analysis(exact)
    assert solved == []
    assert an.rcaid[0] is an.rcaid[1] and an.caid[0] is an.caid[1]
    assert an.rcaid[0] == rcaid_caid(exact, "right_ann", an.aid.upper_bound)
    assert len(solved) == 2  # one for the analysis, one for rcaid_caid
    monkeypatch.setattr(certify, "NODE_BUDGET", 1)
    an = analysis(random_basis_copy("catalog:G53", 1))
    aid = an.aid
    assert aid.status == "probabilistic"
    for pair, target in ((an.rcaid, "right_ann"), (an.caid, "center")):
        assert pair == (rcaid_caid(an.alg, target, aid.proved),
                        rcaid_caid(an.alg, target, aid.upper_bound))
        assert pair[0].dim < pair[1].dim


def test_inconclusive_generator_reports_its_branch_log(monkeypatch, tmp_path, capsys):
    # with a budget of one node per generator, G53 in this basis leaves its
    # complement generators undecided, and the report says why
    monkeypatch.setattr(certify, "NODE_BUDGET", 1)
    alg = random_basis_copy("catalog:G53", 1)
    report = analysis_report(alg)
    aid = report.analysis.aid
    assert aid.status == "probabilistic"
    assert aid.inconclusive_generators
    doc = report_json(report)
    gens = [g for g in doc["complement_generators"] if g["outcome"] == "inconclusive"]
    assert len(gens) == len(aid.inconclusive_generators)
    for g in gens:
        assert g["branch_log"][-1] == "node budget exhausted"
    # RCAID is a bound too: from the proved part and from the upper bound,
    # and the upper one is the RCAID that fuzz compares across bases
    tower = doc["tower"]
    assert (tower["rcaid"], tower["rcaid_upper"]) == (4, 5)
    assert (tower["caid"], tower["caid_upper"]) == (4, 5)
    assert "RCAID 4..5, CAID 4..5" in report_text(doc)
    source = tmp_path / "g53.json"
    source.write_text(json.dumps(to_json_dict(alg)))
    assert main(["fuzz", str(source), "--basis-changes", "0"]) == 0
    fuzzed = json.loads(capsys.readouterr().out)
    assert fuzzed["reference_dims"]["rcaid"] == tower["rcaid_upper"]
    assert fuzzed["reference_dims"]["caid"] == tower["caid_upper"]


# -- certification --------------------------------------------------------


def test_certify_inner_derivation_is_proved_by_constant_witness():
    out = aid_certify(NF3, NF3.right_mult((1, 2, 0)))
    assert out.kind == "proved"
    assert out.branch_log == ("inner: constant witness",)


def test_certify_refutes_with_a_verified_point():
    alg = make("catalog:D4:L4:1")
    e42 = matrix_unit(4, 4, 2)
    out = aid_certify(alg, e42)
    assert out.kind == "refuted"
    x = out.refuting_x
    # the refutation replays: no witness solves [x, w] = D x
    assert aid_witness(alg, e42, x) is None
    # and the exact rank comparison confirms it
    n = alg.dim
    cols = [alg.product(x, alg.basis_coords(j)) for j in range(n)]
    m = RationalMatrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])
    aug = RationalMatrix.from_rows(
        [list(m.entries[i]) + [e42.apply(x)[i]] for i in range(n)]
    )
    assert rref(aug).rank > rref(m).rank


def test_certify_proves_membership_outside_inner():
    # theta3 != 0 gives a genuine AID element that is not inner
    alg = make("catalog:F3:5:0,0,1")
    e52 = matrix_unit(5, 5, 2)
    assert not inner_space(alg).contains(endo_to_vec(e52))
    out = aid_certify(alg, e52)
    assert out.kind == "proved"


def _witness_equation_coeffs(alg):
    """Coefficient rows of left_mult(x) w = D x, linear forms in x."""
    n = alg.dim
    c = alg.constants
    return [
        [
            Poly(n, {tuple(int(t == i) for t in range(n)): c[i][j][m]
                     for i in range(n) if c[i][j][m]})
            for j in range(n)
        ]
        for m in range(n)
    ]


def test_certify_eliminates_only_in_the_series_adapted_basis(monkeypatch):
    l9 = make("catalog:D4:L9")
    gen = aid_space(l9).proved_generators[0][0]
    p = RationalMatrix.from_rows(
        [[1, 1, -2, 0], [2, 1, 1, 0], [1, 0, 2, -1], [2, -1, 0, -1]]
    )
    cols = [p.col(j) for j in range(4)]
    moved = change_basis(l9, p)
    gm = fraction_transition_inverse(cols, 4) @ gen @ p
    roots = {}  # elimination context -> the rows it started from

    def spy(ctx, rows, *args):
        roots.setdefault(ctx, (ctx.alg, rows))
        return decide(ctx, rows, *args)

    decide = certify._decide
    monkeypatch.setattr(certify, "_decide", spy)
    out = aid_certify(moved, gm)
    assert out.kind == "proved"
    assert out.branch_log[0] == "series-adapted basis"
    # one elimination, and not on the moved constants: the raw-basis attempt
    # on this presentation exhausts itself without deciding anything
    [(root_alg, rows)] = roots.values()
    root_coeffs = [row[:-1] for row in rows]
    assert root_coeffs == _witness_equation_coeffs(root_alg)
    assert root_coeffs != _witness_equation_coeffs(moved)
    assert algebra._AdaptedBasis.of(root_alg).u is None


def _moved_d4_l4_1():
    """D4:L4:1 and its non-AID derivation E(4,2), in the basis p."""
    alg = make("catalog:D4:L4:1")
    p = RationalMatrix.from_rows(
        [[1, 1, -2, 0], [2, 1, 1, 0], [1, 0, 2, -1], [2, -1, 0, -1]]
    )
    gm = fraction_transition_inverse([p.col(j) for j in range(4)], 4) @ matrix_unit(4, 4, 2) @ p
    return change_basis(alg, p), gm


def test_certify_maps_an_adapted_refutation_back_to_the_given_basis():
    moved, gm = _moved_d4_l4_1()
    out = aid_certify(moved, gm)
    assert out.kind == "refuted"
    assert out.branch_log[0] == "series-adapted basis"
    assert aid_witness(moved, gm, out.refuting_x) is None


def test_certify_reports_a_refutation_that_does_not_replay_as_inconclusive(monkeypatch):
    moved, gm = _moved_d4_l4_1()
    replay = derivations._int_witness

    def no_replay_in_the_given_basis(alg, dint, e, x):
        # the search in the adapted basis is left alone
        return (Q(0),) * alg.dim if alg is moved else replay(alg, dint, e, x)

    monkeypatch.setattr(derivations, "_int_witness", no_replay_in_the_given_basis)
    out = aid_certify(moved, gm)
    assert out.kind == "inconclusive"
    assert out.refuting_x is None
    assert out.branch_log[-1] == "refuting point does not replay in the given basis"


def test_constant_witness_shortcut_proves_what_elimination_cannot(monkeypatch):
    # R_e1 on D4:L13:0 in this random basis is inner, yet elimination in the
    # series-adapted basis stops at a binary form it cannot solve
    alg = change_basis(make("catalog:D4:L13:0"), _random_invertible(random.Random(1), 4))
    r_e1 = alg.right_mult((1, 0, 0, 0))
    out = aid_certify(alg, r_e1)
    assert out == certify.CertOutcome("proved", branch_log=("inner: constant witness",))
    monkeypatch.setattr(derivations, "inner_combination", lambda *a: None)
    out = aid_certify(alg, r_e1)
    assert out.kind == "inconclusive"
    assert out.branch_log[-1] == (
        "cannot solve t1^2 - t1*t2 - 2*t2^2 = 0 (nonlinear in every variable)"
    )


# -- the full pipeline ----------------------------------------------------


def test_aid_space_null_filiform_is_exactly_inner():
    res = aid_space(make("catalog:NF:5"))
    assert res.status == "certified_exact"
    assert res.upper_bound == res.proved
    assert res.dim == 1
    assert not res.inconclusive_generators


def test_aid_space_l9_finds_one_extra_generator():
    res = aid_space(make("catalog:D4:L9"))
    assert res.status == "certified_exact"
    assert res.dim == 4
    assert len(res.proved_generators) == 1
    assert res.seed == AidConfig().seed


@pytest.mark.parametrize("budget", [None, 1])
def test_aid_result_keeps_each_generator_once(budget, monkeypatch):
    # G53 proves its complement generators, and with a budget of one node
    # leaves them inconclusive; either way each is held as one stored row
    # with its outcome, and its matrix, that row over its pivot, is built
    # when read.  In the standard basis (P = I) the row is the upper bound's
    # own echelon row; in a random one it is a row of the adapted basis
    # moved back, which with Inner spans the upper bound
    if budget is not None:
        monkeypatch.setattr(certify, "NODE_BUDGET", budget)
    for seed in (None, 1):
        alg = make("catalog:G53") if seed is None else random_basis_copy("catalog:G53", seed)
        n = alg.dim
        aid = aid_space(alg)
        assert aid.judged
        rows = [row for row, _ in aid.judged]
        vectors = [[dict(zip(*row)).get(k, 0) for k in range(n * n)] for row in rows]
        # each row is in the stored form: primitive integers, positive pivot
        assert all(Subspace(n * n, (row,)) == Subspace.from_vectors(n * n, [v])
                   for row, v in zip(rows, vectors))
        if seed is None:
            assert all(any(row is r for r in aid.upper_bound.echelon) for row in rows)
        assert subspace_sum(inner_space(alg), Subspace.from_vectors(n * n, vectors)) \
            == aid.upper_bound
        kinds = [o.kind for _, o in aid.judged]
        assert set(kinds) == ({"proved"} if budget is None else {"inconclusive"})
        read = aid.proved_generators + aid.inconclusive_generators
        assert [g for g, _ in read] == [derivations._row_endo(row, n) for row in rows]
        assert [o for _, o in read] == [o for _, o in aid.judged]


def test_aid_space_records_refutations(monkeypatch):
    # with sampling skipped, certification itself must cut the linear
    # candidate of D4:L4:1 down to Inner, by a refuting point that replays
    alg = make("catalog:D4:L4:1")
    sampled = aid_space(alg)
    assert sampled.status == "certified_exact"
    assert sampled.dim == inner_space(alg).dim
    monkeypatch.setattr(derivations, "aid_refine", lambda alg, space, cfg, inner, **_: (space, 0))
    res = aid_space(alg)
    assert res.status == "certified_exact"
    assert res.upper_bound == sampled.upper_bound
    [(gmat, x)] = res.witnesses
    assert aid_witness(alg, gmat, x) is None
    assert res.samples_used == 1


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_refutation_loop_ends_by_dimension(monkeypatch, seed):
    # with sampling skipped, the rounds alone cut the linear candidate: each
    # refutation replays, so it drops at least one dimension, and the loop
    # ends at a round that refutes nothing
    algebras = {ref: make(ref) if seed is None else random_basis_copy(ref, seed)
                for ref in CATALOG_BATTERY}
    if seed is None:
        walked = {ref: aid_space(alg).upper_bound for ref, alg in algebras.items()}
    monkeypatch.setattr(derivations, "aid_refine", lambda alg, space, cfg, inner, **_: (space, 0))
    complements = []

    def counted_complement(sub, space):
        complements.append(space)
        return complement_in(sub, space)

    monkeypatch.setattr(derivations, "complement_in", counted_complement)
    refuted = {}
    for ref, alg in algebras.items():
        complements.clear()
        res = aid_space(alg)
        # one complement of the candidate before the walk, which the first
        # round reuses, then one per round after a refutation
        assert len(complements) == len(res.witnesses) + 1, ref
        assert res.status in ("certified_exact", "probabilistic"), ref
        assert all(aid_witness(alg, g, x) is None for g, x in res.witnesses), ref
        cand = aid_basis_candidate(alg)
        assert len(res.witnesses) <= cand.dim - res.upper_bound.dim, ref
        assert res.samples_used == len(res.witnesses)
        if seed is None:
            # in the standard basis the rounds reach the walk's bound
            assert res.status == "certified_exact", ref
            assert res.upper_bound == walked[ref], ref
        refuted[ref] = len(res.witnesses)
    if seed is None:
        # D4:L13:2 refutes in two rounds, so a third one ends the loop
        assert refuted["catalog:D4:L13:2"] == 2
        assert sum(refuted.values()) == 10


def test_aid_space_g53():
    res = aid_space(make("catalog:G53"))
    assert res.status == "certified_exact"
    assert res.dim == 5


def test_certified_result_shares_one_subspace_for_both_bounds():
    res = aid_space(make("catalog:D4:L9"))
    assert res.status == "certified_exact"
    assert res.proved is res.upper_bound


def test_aid_space_random_basis_f3_6_is_certified_exact():
    # eliminating this copy in its own basis swelled for ~90 s and gave up
    res = aid_space(random_basis_copy("catalog:F3:6:0,0,1", 1))
    assert res.status == "certified_exact"
    assert res.dim == 6


# -- restricted variants ---------------------------------------------------


def test_rcaid_caid_of_null_filiform_collapse_to_inner():
    aid = aid_space(NF3).upper_bound
    inner = inner_space(NF3)
    assert rcaid_caid(NF3, "right_ann", aid) == inner
    assert rcaid_caid(NF3, "center", aid) == inner
    with pytest.raises(ValueError):
        rcaid_caid(NF3, "left_ann", aid)


def test_rcaid_strictly_between_inner_and_aid_on_l9():
    alg = make("catalog:D4:L9")
    res = aid_space(alg)
    rcaid = rcaid_caid(alg, "right_ann", res.upper_bound)
    assert inner_space(alg).dim == 3
    assert rcaid.dim == 4  # every AID element here restricts correctly
    assert res.upper_bound.contains_subspace(rcaid)


def test_restriction_witness_reproduces():
    alg = make("catalog:D4:L9")
    res = aid_space(alg)
    gen = res.proved_generators[0][0]
    from leibniz_aid.algebra import annihilators

    t = annihilators(alg).ann_r
    x = restriction_witness(alg, gen, t)
    assert x is not None
    diff = gen - alg.right_mult(x)
    for j in range(alg.dim):
        assert t.contains(diff.col(j))


def test_central_restriction_witness_is_none_off_caid():
    center = annihilators(NF3).center
    assert restriction_witness(NF3, matrix_unit(3, 2, 2), center) is None
    x = restriction_witness(NF3, NF3.right_mult((2, 1, 0)), center)
    assert x == (2, 0, 0)  # e3 acts trivially, so only x1 is pinned


# -- Lie structure ----------------------------------------------------------


def test_bracket_of_derivation_with_inner_is_inner_of_image():
    alg = make("catalog:D4:L9")
    rng = random.Random(4)
    ders = [vec_to_endo(v, 4) for v in derivation_space(alg).basis_vectors()]
    for d in ders:
        for _ in range(3):
            x = tuple(Q(rng.randint(-3, 3)) for _ in range(4))
            lhs = bracket(d, alg.right_mult(x))
            rhs = alg.right_mult(d.apply(x))
            assert lhs.entries == rhs.entries


def test_subalgebra_nilpotency_cases():
    # a one-dimensional space of commuting matrices
    dims, nilpotent = subalgebra_nilpotency(inner_space(NF3))
    assert nilpotent and dims[-1] == 0
    # E11, E12 close up but the series stalls at span(E12)
    s = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    dims, nilpotent = subalgebra_nilpotency(s)
    assert not nilpotent
    assert dims == (2, 1, 1)
    # E12, E21 do not close up
    with pytest.raises(NotBracketClosed):
        subalgebra_nilpotency(Subspace.from_vectors(4, [[0, 1, 0, 0], [0, 0, 1, 0]]))
    with pytest.raises(ValueError):
        subalgebra_nilpotency(Subspace.full(3))


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_subalgebra_nilpotency_matches_the_fraction_oracle(ref):
    alg = make(ref)
    for space in (inner_space(alg), aid_of(ref).upper_bound):
        assert subalgebra_nilpotency(space) == fraction_subalgebra_nilpotency(space), ref


def test_subalgebra_nilpotency_of_der_matches_the_fraction_oracle():
    stalled = 0
    for ref in ("catalog:NF:3", "catalog:G53", "catalog:F3:6:0,0,1", "catalog:D4:L13:1",
                "catalog:D3:L4"):
        der = derivation_space(make(ref))
        dims, nilpotent = subalgebra_nilpotency(der)
        assert (dims, nilpotent) == fraction_subalgebra_nilpotency(der), ref
        stalled += not nilpotent
    assert stalled  # some series stops above zero
    # a space that is not bracket-closed raises in both
    s = Subspace.from_vectors(9, [[0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0]])
    for nilpotency in (subalgebra_nilpotency, fraction_subalgebra_nilpotency):
        with pytest.raises(NotBracketClosed):
            nilpotency(s)


def test_aid_series_forms_each_commutator_once(monkeypatch):
    # G53's AID has series 5, 1, 0: [S, S] takes 25 commutators, and they are
    # the closure test too; [[S, S], S] takes 5 more
    aid = aid_space(make("catalog:G53")).upper_bound
    calls = []
    commutator = derivations._int_commutator

    def counted(a, b):
        calls.append((a, b))
        return commutator(a, b)

    monkeypatch.setattr(derivations, "_int_commutator", counted)
    assert subalgebra_nilpotency(aid) == ((5, 1, 0), True)
    assert len(calls) == 30
