"""Sparse multivariate polynomials with integer coefficients.

Monomials are exponent tuples.  The only non-generic operation is the
simple-reflection substitution used by divided differences; it is kept here
because it is pure rewriting of exponent data.
"""
from __future__ import annotations

from math import comb
from operator import add
from typing import Iterable, Mapping

Monomial = tuple[int, ...]


class Poly:
    """Polynomial in a fixed number of variables, stored as {monomial: coeff}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None):
        self.nvars = nvars
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: 1})

    @classmethod
    def linear(cls, coeffs: Iterable[int]) -> "Poly":
        """Linear form sum(coeffs[i] * x_i)."""
        cs = list(coeffs)
        n = len(cs)
        terms = {}
        for i, c in enumerate(cs):
            if c:
                terms[tuple(1 if j == i else 0 for j in range(n))] = c
        return cls(n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c: int) -> "Poly":
        if not c:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def reflect_substitute(self, i: int, row: Iterable[int]) -> "Poly":
        """Apply the substitution x_i -> -x_i, x_j -> x_j - row[j]*x_i (j != i).

        With row = the i-th Cartan row this is the simple reflection s_i acting
        on polynomials in simple-root coordinates (row[i] = 2 is ignored; the
        x_i image is forced to -x_i).
        """
        rw = list(row)
        out: dict[Monomial, int] = {}
        for mono, c in self.terms.items():
            base: dict[Monomial, int] = {mono: -c if mono[i] % 2 else c}
            for j, ej in enumerate(mono):
                cj = rw[j]
                if j == i or not ej or not cj:
                    continue
                # replace x_j^ej by (x_j - cj*x_i)^ej
                expanded: dict[Monomial, int] = {}
                for m0, c0 in base.items():
                    for k in range(ej + 1):
                        m1 = list(m0)
                        m1[j] -= k
                        m1[i] += k
                        m1t = tuple(m1)
                        expanded[m1t] = expanded.get(m1t, 0) + c0 * comb(ej, k) * (-cj) ** k
                base = expanded
            for m0, c0 in base.items():
                out[m0] = out.get(m0, 0) + c0
        return Poly(self.nvars, out)

    def divexact_variable(self, i: int) -> "Poly":
        """Divide by x_i; every monomial must contain x_i."""
        out = {}
        for mono, c in self.terms.items():
            if mono[i] == 0:
                raise ArithmeticError(f"polynomial not divisible by variable {i}")
            m = list(mono)
            m[i] -= 1
            out[tuple(m)] = c
        return Poly(self.nvars, out)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            c = self.terms[mono]
            vars_ = "*".join(
                f"x{j}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(mono)
                if e
            )
            bits.append(f"{c}" + (f"*{vars_}" if vars_ else ""))
        return "Poly(" + " + ".join(bits) + ")"
