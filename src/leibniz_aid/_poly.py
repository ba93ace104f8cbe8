"""Sparse multivariate polynomials with integer coefficients.

Just enough arithmetic for fraction-free elimination with case splits:
add/multiply, linearity tests per variable, exact division by a monomial
and an integer, substitution of a variable by a polynomial in the remaining
variables or by such a polynomial over an integer (times that integer's
power, so integer coefficients stay integers), and evaluation at rational
points.  Sums start from the int 0, so integer polynomials stay over the
ints; the same operations take `Fraction` coefficients too, which the
certifier builds only for what it prints and where it evaluates at
rational points.  Monomials are exponent tuples; absent monomials are zero.
"""

from __future__ import annotations

from math import gcd
from operator import add, sub
from typing import Mapping, Sequence

from .exactlin import Q, QZERO, format_rational

# a coefficient: an int, or a Fraction where the certifier prints or
# evaluates at a rational point
Coeff = int | Q


class Poly:
    """A polynomial, never changed once built: the structure queries are
    worked out on first read and kept."""

    __slots__ = ("nvars", "terms", "_shape", "_linear")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Coeff] | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Coeff] = {
            m: c for m, c in (terms or {}).items() if c
        }
        self._shape = self._linear = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c: Coeff) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, k: int, coeff: Coeff = 1) -> "Poly":
        mono = tuple(1 if i == k else 0 for i in range(nvars))
        return Poly(nvars, {mono: coeff})

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "Poly", op=add) -> "Poly":
        """self op other, op add or sub, into one copy of self's terms."""
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = op(terms.get(m, 0), c)
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        out = Poly(self.nvars)
        out.terms = terms
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self.__add__(other, sub)

    def __neg__(self) -> "Poly":
        out = Poly(self.nvars)
        out.terms = {m: -c for m, c in self.terms.items()}
        out._shape = self._shape
        return out

    def __mul__(self, other: "Poly") -> "Poly":
        terms: dict[tuple[int, ...], Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        out = Poly(self.nvars)
        out.terms = terms
        return out

    def scale(self, c: Coeff) -> "Poly":
        out = Poly(self.nvars)
        if c:
            out.terms = {m: c * v for m, v in self.terms.items()}
            out._shape = self._shape
        return out

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _structure(self) -> tuple[tuple[int, ...], tuple[int, ...], int, frozenset[int]]:
        """(the degree in each variable, the exponentwise min over the
        support, the total degree, the variables), from one pass."""
        shape = self._shape
        if shape is None:
            if self.terms:
                columns = list(zip(*self.terms))
                degrees = tuple(map(max, columns))
                mins = tuple(map(min, columns))
                total = max(map(sum, self.terms))
            else:
                degrees = mins = (0,) * self.nvars
                total = 0
            shape = degrees, mins, total, frozenset(i for i, e in enumerate(degrees) if e)
            self._shape = shape
        return shape

    def is_constant(self) -> bool:
        return not self._structure()[3]

    def degree_in(self, k: int) -> int:
        return self._structure()[0][k]

    def total_degree(self) -> int:
        return self._structure()[2]

    def variables(self) -> frozenset[int]:
        return self._structure()[3]

    def linear_var_with_constant_coeff(self) -> tuple[int, Coeff] | None:
        """A variable k with this = c*t_k + (terms without t_k), c rational.

        Returns (k, c) for the smallest such k, or None.  This is the
        splittability test of the certifier: the zero branch can then solve
        for t_k exactly.
        """
        # _linear is None until worked out, and () when there is no such k
        if self._linear is None:
            self._linear = ()
            degrees = self._structure()[0]
            for k in sorted(self.variables()):
                unit = tuple(int(i == k) for i in range(self.nvars))
                # c*t_k is the one term in t_k
                if degrees[k] == 1 and unit in self.terms and sum(
                        1 for m in self.terms if m[k]) == 1:
                    self._linear = k, self.terms[unit]
                    break
        return self._linear or None

    def subs_var(self, k: int, replacement: "Poly", den: int = 1, degree: int = 0) -> "Poly":
        """den**E * self at t_k := replacement / den, E the larger of degree
        and self's degree in t_k; replacement must not involve t_k.

        With den = 1 this is the substitution t_k := replacement.  A den
        above 1 substitutes a quotient and keeps integer coefficients
        integers; the entries of one row share one degree, so the row is
        scaled by one power of den.  A polynomial free of t_k comes back as
        itself times den**E: the same object when that is 1.
        """
        if k in replacement.variables():
            raise ValueError("replacement reuses the substituted variable")
        own = self.degree_in(k)
        top = max(degree, own)
        if not own:
            return self if den == 1 or not top else self.scale(den**top)
        # each term c * m adds c * den**(top - e) * rest * replacement**e, e
        # the power of t_k in m, into one dict; powers[e] = replacement**e is
        # a plain list rather than a memoizing closure, whose self-reference
        # would leave a cycle per call for the cyclic collector to free at
        # some later time
        terms: dict[tuple[int, ...], Coeff] = {}
        powers = [None, replacement]
        for m, c in self.terms.items():
            e = m[k]
            if den != 1 and e < top:
                c *= den ** (top - e)
            if not e:
                terms[m] = terms.get(m, 0) + c
                continue
            while len(powers) <= e:
                powers.append(powers[-1] * replacement)
            rest = m[:k] + (0,) + m[k + 1:]
            for pm, pc in powers[e].terms.items():
                mono = tuple(map(add, rest, pm))
                terms[mono] = terms.get(mono, 0) + c * pc
        return Poly(self.nvars, terms)

    def evaluate(self, point: Sequence[Q]) -> Q:
        """The value at a rational point, a Fraction even where it is an
        integer."""
        total = QZERO
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, point):
                if e:
                    v *= x**e
            total += v
        return total

    # -- normalization -----------------------------------------------------

    def monomial_gcd(self) -> tuple[int, ...]:
        """Exponentwise min over the support (the largest common monomial)."""
        return self._structure()[1]

    def divide_monomial(self, mono: tuple[int, ...], c: int = 1) -> "Poly":
        """self / (c * t^mono), for a monomial and, over the ints, a c that
        divide every term."""
        out = Poly(self.nvars)
        out.terms = {
            tuple(a - b for a, b in zip(m, mono)): v if c == 1 else v // c
            for m, v in self.terms.items()
        }
        return out

    def content(self) -> int:
        """The gcd of the integer coefficients, with the sign of the
        lexicographically leading term, so self / content() is the one
        primitive polynomial of its scalar class with a positive leading
        coefficient."""
        if not self.terms:
            return 1
        g = gcd(*self.terms.values())
        return -g if self.terms[max(self.terms)] < 0 else g

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), reverse=True):
            factors = [
                f"t{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e
            ]
            if not factors:
                parts.append(format_rational(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(format_rational(c) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")
