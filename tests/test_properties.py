"""Cross-cutting structural properties of the derivation tower.

Every check here is stated directly in terms of computable objects
(subspace inclusions, exact matrix identities) and runs over the whole
instance battery, so it stays meaningful regardless of any recorded
expected dimensions.
"""

from __future__ import annotations

import random

import pytest

import leibniz_aid as la
from leibniz_aid import cli
from leibniz_aid.algebra import (
    LeibnizAlgebra,
    annihilators,
    central_series,
    change_basis,
    direct_sum,
)
from leibniz_aid.certify import aid_witness
from leibniz_aid.derivations import (
    DEFAULT_SEED,
    aid_space,
    bracket,
    derivation_space,
    endo_to_vec,
    inner_space,
    rcaid_caid,
    refinement_grid,
    subalgebra_nilpotency,
    vec_to_endo,
)
from leibniz_aid.exactlin import Q, RationalMatrix, Subspace, rref

from conftest import CATALOG_BATTERY, analyze, fraction_transition_inverse


def spaces_of(ref: str):
    """(algebra, der, inner, aid-subspace, rcaid, caid) for one battery ref."""
    report = analyze(ref)
    alg = la.make(ref)
    der = derivation_space(alg)
    inner = inner_space(alg)
    aid = report.analysis.aid.upper_bound
    return alg, der, inner, aid, report.analysis.rcaid[0], report.analysis.caid[0]


def mats_of(space: Subspace, n: int) -> list[RationalMatrix]:
    return [vec_to_endo(v, n) for v in space.basis_vectors()]


# -- inclusion chain and bracket closures (battery-wide) -------------------


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_inclusion_chain(ref):
    _, der, inner, aid, rcaid, caid = spaces_of(ref)
    assert caid.contains_subspace(inner)
    assert rcaid.contains_subspace(caid)
    assert aid.contains_subspace(rcaid)
    assert der.contains_subspace(aid)


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_bracket_closures(ref):
    alg, _, _, aid, rcaid, caid = spaces_of(ref)
    n = alg.dim
    for space in (aid, rcaid, caid):
        basis = mats_of(space, n)
        for a in basis:
            for b in basis:
                assert space.contains(endo_to_vec(bracket(a, b)))


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_rcaid_is_an_ideal_in_aid(ref):
    alg, _, _, aid, rcaid, _ = spaces_of(ref)
    n = alg.dim
    for a in mats_of(aid, n):
        for b in mats_of(rcaid, n):
            assert rcaid.contains(endo_to_vec(bracket(a, b)))


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_bracket_with_right_multiplication(ref):
    # [D, R_x] = R_{D(x)} for derivations D
    alg, der, _, _, _, _ = spaces_of(ref)
    n = alg.dim
    rng = random.Random(hash(ref) & 0xFFFF)
    xs = [alg.basis_coords(i) for i in range(n)]
    xs.append(tuple(Q(rng.randint(-3, 3)) for _ in range(n)))
    for d in mats_of(der, n):
        for x in xs:
            lhs = bracket(d, alg.right_mult(x))
            assert lhs.entries == alg.right_mult(d.apply(x)).entries


# -- structure of proved almost inner derivations ---------------------------


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_aid_members_map_into_the_derived_subalgebra(ref):
    alg, _, _, aid, _, _ = spaces_of(ref)
    n = alg.dim
    derived = Subspace.from_vectors(
        n, [alg.constants[i][j] for i in range(n) for j in range(n)]
    )
    ann = annihilators(alg)
    series = central_series(alg)
    for d in mats_of(aid, n):
        for j in range(n):
            assert derived.contains(d.col(j))
        # annihilate the center
        for z in ann.center.basis_vectors():
            assert not any(d.apply(z))
        # preserve the right annihilator and every series ideal
        for v in ann.ann_r.basis_vectors():
            assert ann.ann_r.contains(d.apply(v))
        for term in series.terms:
            for v in term.basis_vectors():
                assert term.contains(d.apply(v))


def test_nilindex_three_collapses_caid_to_aid():
    hit = 0
    for ref in CATALOG_BATTERY:
        alg, _, _, aid, _, caid = spaces_of(ref)
        series = central_series(alg)
        if series.nilindex == 3:
            assert caid == aid, ref
            hit += 1
    assert hit >= 10  # the battery has plenty of nilindex-3 instances


def test_zero_center_collapses_caid_to_inner():
    # non-nilpotent inputs, as would arrive from algebra files
    solvable2 = LeibnizAlgebra.build(2, {(2, 1): {2: 1}})
    solvable3 = LeibnizAlgebra.build(3, {(2, 1): {2: 1}, (3, 1): {3: 2}})
    for alg in (solvable2, solvable3):
        assert annihilators(alg).center.dim == 0
        res = aid_space(alg)
        inner = inner_space(alg)
        caid = rcaid_caid(alg, "center", res.upper_bound)
        assert caid == inner


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_aid_of_nilpotent_algebra_is_nilpotent(ref):
    alg, _, _, aid, _, _ = spaces_of(ref)
    if not central_series(alg).nilpotent:
        return
    dims, nilpotent = subalgebra_nilpotency(aid)
    assert nilpotent, (ref, dims)


@pytest.mark.parametrize(
    "left,right",
    [("catalog:NF:2", "catalog:NF:2"), ("catalog:D4:L9", "catalog:NF:3")],
)
def test_direct_sum_additivity(left, right):
    a, b = la.make(left), la.make(right)
    s = direct_sum(a, b)
    ra, rb, rs = aid_space(a), aid_space(b), aid_space(s)
    assert rs.status == "certified_exact"
    assert rs.dim == ra.dim + rb.dim
    assert inner_space(s).dim == inner_space(a).dim + inner_space(b).dim
    # the reduced basis respects the block structure
    n = a.dim
    for v in rs.upper_bound.basis_vectors():
        m = vec_to_endo(v, s.dim)
        for i in range(s.dim):
            for j in range(s.dim):
                if (i < n) != (j < n):
                    assert m.entries[i][j] == 0


# -- soundness sandwich ------------------------------------------------------


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_inner_proved_upper_sandwich(ref):
    report = analyze(ref)
    alg = la.make(ref)
    inner = inner_space(alg)
    assert report.analysis.aid.proved.contains_subspace(inner)
    assert report.analysis.aid.upper_bound.contains_subspace(report.analysis.aid.proved)
    assert (report.analysis.aid.status == "certified_exact") == (
        report.analysis.aid.proved == report.analysis.aid.upper_bound
    )


# -- basis-change equivariance ----------------------------------------------

EQUIVARIANCE_DRAWS = (
    [(f"catalog:D3:{e}", 10) for e in ("L2", "L3", "L4", "L5", "L6")]
    + [("catalog:D3:L1:1", 10)]
    + [("catalog:NF:3", 10), ("catalog:NF:4", 10)]
    + [("catalog:D4:L9", 5), ("catalog:D4:L12", 5), ("catalog:D4:L20:0", 5)]
    + [("catalog:G53", 5)]
)  # 100 random invertible matrices in total


def _random_invertible(rng: random.Random, n: int) -> RationalMatrix:
    while True:
        m = RationalMatrix.from_rows(
            [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        if rref(m).rank == n:
            return m


def _tower(alg) -> tuple[int, int, int, int, int, str]:
    aid = aid_space(alg)
    return (
        derivation_space(alg).dim,
        inner_space(alg).dim,
        aid.upper_bound.dim,
        rcaid_caid(alg, "right_ann", aid.upper_bound).dim,
        rcaid_caid(alg, "center", aid.upper_bound).dim,
        aid.status,
    )


def test_basis_change_equivariance_hundred_draws():
    assert sum(k for _, k in EQUIVARIANCE_DRAWS) == 100
    rng = random.Random(20260814)
    for ref, trials in EQUIVARIANCE_DRAWS:
        alg = la.make(ref)
        n = alg.dim
        base = _tower(alg)
        der = derivation_space(alg)
        for _ in range(trials):
            p = _random_invertible(rng, n)
            moved = change_basis(alg, p)
            assert _tower(moved) == base, (ref, p.entries)
            # the derivation space moves by conjugation, elementwise
            pinv = fraction_transition_inverse([p.col(j) for j in range(n)], n)
            conjugated = Subspace.from_vectors(
                n * n,
                [
                    endo_to_vec(pinv @ vec_to_endo(v, n) @ p)
                    for v in der.basis_vectors()
                ],
            )
            assert conjugated == derivation_space(moved), (ref, p.entries)


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_certified_status_survives_random_bases(ref):
    if analyze(ref).analysis.aid.status != "certified_exact":
        pytest.skip("not certified in the standard basis")
    alg = la.make(ref)
    rng = random.Random(DEFAULT_SEED)  # three bases, drawn as `fuzz` draws them
    for _ in range(3):
        p = cli._random_invertible(rng, alg.dim)
        status = aid_space(change_basis(alg, p)).status
        assert status == "certified_exact", (ref, p.entries)


# -- witness coherence --------------------------------------------------------


@pytest.mark.parametrize("ref", CATALOG_BATTERY)
def test_witness_coherence_on_the_full_grid(ref):
    report = analyze(ref)
    alg = la.make(ref)
    n = alg.dim
    for gmat, _ in report.analysis.aid.proved_generators:
        for point in refinement_grid(n):
            x = tuple(Q(v) for v in point)
            w = aid_witness(alg, gmat, x)
            assert w is not None, (ref, point)
            assert alg.product(x, w) == gmat.apply(x)
