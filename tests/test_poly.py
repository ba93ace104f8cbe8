"""Sparse integer polynomials used by the symbolic certifier."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_aid._poly import Poly
from leibniz_aid.exactlin import Q

N = 3  # enough variables for every test here


def p_const(c) -> Poly:
    return Poly.const(N, c)


def t(k, coeff=1) -> Poly:
    return Poly.var(N, k, coeff)


@st.composite
def polys(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(*(st.integers(0, 2) for _ in range(N))),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            max_size=5,
        )
    )
    return Poly(N, {m: Q(c) for m, c in terms.items()})


points = st.tuples(
    *(st.fractions(min_value=-3, max_value=3, max_denominator=3) for _ in range(N))
)


# -- ring axioms via evaluation ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), points)
def test_add_mul_commute_with_evaluation(p, q, pt):
    pt = tuple(Q(x) for x in pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)
    assert p.scale(Q(3, 2)).evaluate(pt) == Q(3, 2) * p.evaluate(pt)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, N - 1), polys(), polys(), points)
def test_subs_var_agrees_with_evaluation(k, p, r, pt):
    r = Poly(N, {m: c for m, c in r.terms.items() if not m[k]})  # keep t_k out
    pt = tuple(Q(x) for x in pt)
    substituted = p.subs_var(k, r)
    moved = pt[:k] + (r.evaluate(pt),) + pt[k + 1:]
    assert substituted.evaluate(pt) == p.evaluate(moved)
    # terms that cancel leave no zero coefficient behind
    assert all(substituted.terms.values())
    assert not substituted.degree_in(k)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_difference_is_the_sum_with_the_negation(p, q):
    before = dict(p.terms), dict(q.terms)
    assert p - q == p + (-q)
    assert all((p - q).terms.values())
    assert (p - p).is_zero()
    # the difference is a new polynomial: neither operand changes
    assert (p.terms, q.terms) == before


@settings(max_examples=80, deadline=None)
@given(st.integers(0, N - 1), polys(), polys(), st.integers(1, 6), st.integers(0, 3), points)
def test_subs_var_over_a_denominator_scales_by_its_power(k, p, r, den, degree, pt):
    # den**E * p(t_k := r / den), E the larger of degree and p's degree in t_k
    r = Poly(N, {m: c for m, c in r.terms.items() if not m[k]})
    pt = tuple(Q(x) for x in pt)
    top = max(degree, p.degree_in(k))
    moved = pt[:k] + (r.evaluate(pt) / den,) + pt[k + 1:]
    assert type(moved[k]) is Q
    assert p.subs_var(k, r, den, degree).evaluate(pt) == den**top * p.evaluate(moved)


def test_subs_var_over_a_denominator_keeps_integers():
    p = t(0) * t(0) * t(1) + t(0, 3) + p_const(2)  # t1^2 t2 + 3 t1 + 2
    # t1 := (t2 - 1) / 2, the row's degree 3: 2 (t2 - 1)^2 t2 + 12 (t2 - 1) + 16
    got = p.subs_var(0, t(1) - p_const(1), 2, 3)
    assert got == (t(1) - p_const(1)) * (t(1) - p_const(1)) * t(1).scale(2) \
        + t(1, 12) + p_const(4)
    assert all(type(c) is int for c in got.terms.values())


def test_subs_var_rejects_self_reference():
    import pytest

    with pytest.raises(ValueError):
        t(0).subs_var(0, t(0) + p_const(1))


def test_subs_var_leaves_no_reference_cycle():
    # its temporaries are freed by reference counting as the call returns,
    # not whenever the cyclic collector next runs
    import gc

    p = t(0) * t(0) * t(0) + t(0) * t(1) + p_const(2)
    gc.collect()
    gc.disable()
    try:
        substituted = p.subs_var(0, t(1) + t(2, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()
    pt = (Q(0), Q(2), Q(-1))
    assert substituted.evaluate(pt) == p.evaluate((Q(-1),) + pt[1:])


# -- structure queries ----------------------------------------------------


def test_linear_var_with_constant_coeff():
    p = t(0, 2) + t(1) * t(2)  # 2 t1 + t2 t3
    assert p.linear_var_with_constant_coeff() == (0, Q(2))
    q = t(0) * t(1) + t(2, -1)  # t1 t2 - t3
    assert q.linear_var_with_constant_coeff() == (2, Q(-1))
    r = t(0) * t(0) + t(1) * t(2)
    assert r.linear_var_with_constant_coeff() is None


def test_degree_and_variable_queries():
    p = t(0) * t(0) * t(1) + t(2) + p_const(5)
    assert p.degree_in(0) == 2 and p.degree_in(1) == 1 and p.degree_in(2) == 1
    assert p.total_degree() == 3
    assert p.variables() == {0, 1, 2}
    assert not p.is_constant()
    assert p_const(5).is_constant()


def test_monomial_gcd_and_division():
    p = t(0) * t(0) * t(1) + t(0) * t(1) * t(2)  # t1^2 t2 + t1 t2 t3
    assert p.monomial_gcd() == (1, 1, 0)
    q = p.divide_monomial((1, 1, 0))
    assert q == t(0) + t(2)


def test_content_normalizes_sign_and_scale():
    p = t(0, -6) + t(1, -4)  # -2 (3 t1 + 2 t2)
    c = p.content()
    assert c == -2
    normalized = p.divide_monomial((0,) * N, c)
    assert normalized == t(0, 3) + t(1, 2)
    assert all(type(v) is int for v in normalized.terms.values())
    # scaling by any nonzero int does not change the normalized form
    for s in (5, -7):
        scaled = p.scale(s)
        assert scaled.divide_monomial((0,) * N, scaled.content()) == normalized
    assert Poly.zero(N).content() == 1


def test_str_rendering():
    p = t(0, 2) * t(0) + t(1, -1) + p_const(Q(1, 2))
    assert str(p) == "2*t1^2 - t2 + 1/2"
    assert str(Poly.zero(N)) == "0"


def test_hash_and_eq_consistency():
    a = t(0) + t(1)
    b = t(1) + t(0)
    assert a == b and hash(a) == hash(b)
    assert a != t(0)
