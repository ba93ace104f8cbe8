"""Sparse multivariate polynomials over Q.

Just enough arithmetic for fraction-free elimination with case splits:
add/multiply, linearity tests per variable, substitution of a variable by a
polynomial in the remaining variables, and evaluation at rational points.
Monomials are exponent tuples; absent monomials are zero.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping, Sequence

from .exactlin import Q, QZERO, format_rational


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Q] | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Q] = {
            m: c for m, c in (terms or {}).items() if c
        }

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = Q(c)
        if not c:
            return Poly(nvars)
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, k: int, coeff=1) -> "Poly":
        mono = tuple(1 if i == k else 0 for i in range(nvars))
        return Poly(nvars, {mono: Q(coeff)})

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, QZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        out = Poly(self.nvars)
        out.terms = terms
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.__neg__()

    def __neg__(self) -> "Poly":
        out = Poly(self.nvars)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __mul__(self, other: "Poly") -> "Poly":
        terms: dict[tuple[int, ...], Q] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = terms.get(m, QZERO) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        out = Poly(self.nvars)
        out.terms = terms
        return out

    def scale(self, c) -> "Poly":
        c = Q(c)
        out = Poly(self.nvars)
        if c:
            out.terms = {m: c * v for m, v in self.terms.items()}
        return out

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def degree_in(self, k: int) -> int:
        return max((m[k] for m in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def variables(self) -> set[int]:
        out: set[int] = set()
        for m in self.terms:
            out.update(i for i, e in enumerate(m) if e)
        return out

    def linear_var_with_constant_coeff(self) -> tuple[int, Q] | None:
        """A variable k with this = c*t_k + (terms without t_k), c rational.

        Returns (k, c) for the smallest such k, or None.  This is the
        splittability test of the certifier: the zero branch can then solve
        for t_k exactly.
        """
        for k in sorted(self.variables()):
            coeff = None
            ok = True
            for m, c in self.terms.items():
                if m[k] == 0:
                    continue
                if m[k] > 1 or any(e for i, e in enumerate(m) if i != k):
                    ok = False
                    break
                coeff = c
            if ok and coeff is not None:
                return k, coeff
        return None

    def subs_var(self, k: int, replacement: "Poly") -> "Poly":
        """Substitute t_k := replacement (which must not involve t_k)."""
        if k in replacement.variables():
            raise ValueError("replacement reuses the substituted variable")
        out = Poly.zero(self.nvars)
        # powers[e] = replacement**e, extended as needed; a plain list rather
        # than a memoizing closure, whose self-reference would leave a cycle
        # per call for the cyclic collector to free at some later time
        powers = [Poly.const(self.nvars, 1)]
        for m, c in self.terms.items():
            e = m[k]
            while len(powers) <= e:
                powers.append(powers[-1] * replacement)
            rest = Poly(self.nvars, {tuple(0 if i == k else x for i, x in enumerate(m)): c})
            out = out + (rest * powers[e] if e else rest)
        return out

    def evaluate(self, point: Sequence[Q]) -> Q:
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
        if not self.terms:
            return (0,) * self.nvars
        mins = None
        for m in self.terms:
            mins = m if mins is None else tuple(min(a, b) for a, b in zip(mins, m))
        return mins

    def divide_monomial(self, mono: tuple[int, ...]) -> "Poly":
        out = Poly(self.nvars)
        out.terms = {
            tuple(a - b for a, b in zip(m, mono)): c for m, c in self.terms.items()
        }
        return out

    def rational_content(self) -> Q:
        """Positive rational c with self/c having coprime integer coefficients;
        the sign of the lexicographically leading term is folded in so the
        normalized polynomial is unique for its scalar class."""
        if not self.terms:
            return Q(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        content = Q(num, den)
        lead = self.terms[max(self.terms)]
        return -content if lead < 0 else content

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
