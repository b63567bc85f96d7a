"""Sparse polynomial arithmetic and the reflection substitution."""

from fractions import Fraction

import pytest

from schubdeform.poly import Poly
from schubdeform.rootsystem import root_system

from oracles import constant_term, reflect


def test_construction_drops_zeros():
    p = Poly(2, {(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): 3}
    assert Poly.zero(2).is_zero()
    assert constant_term(Poly.const(2, 5)) == 5
    assert Poly.const(2, 0).is_zero()


def test_ring_axioms():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x + 2 * x * y + y * y
    q = (x + y) * (x + y)
    assert p == q
    assert p - q == Poly.zero(2)
    assert (x + y) * Poly.const(2, 1) == x + y
    assert x * y == y * x
    assert (x + y).degree() == 1
    assert p.degree() == 2
    assert Poly.zero(2).degree() == -1


def test_linear_and_scale():
    f = Poly.linear([2, Fraction(1, 3)])
    assert f.terms == {(1, 0): 2, (0, 1): Fraction(1, 3)}
    assert f.scale(3).terms == {(1, 0): 6, (0, 1): 1}
    assert f.scale(0).is_zero()
    assert (-f) + f == Poly.zero(2)


def test_reflect_substitute_is_involution():
    rs = root_system("B", 2)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x * y + 3 * y + Poly.const(2, 7)
    for i in range(2):
        row = rs.cartan[i]
        assert p.reflect_substitute(i, row).reflect_substitute(i, row) == p


def test_reflect_substitute_matches_root_action():
    """The substitution on a linear form equals the geometric reflection."""
    for label in (("A", 2), ("B", 2), ("G", 2), ("C", 3)):
        rs = root_system(*label)
        for i in range(rs.rank):
            for r in rs.positive_roots:
                f = Poly.linear(r)
                img = f.reflect_substitute(i, rs.cartan[i])
                assert img == Poly.linear(reflect(rs, r, i))


def test_invariant_polynomial_fixed():
    # x^2 + xy + y^2 is s_1- and s_2-invariant for A2 in root coordinates
    rs = root_system("A", 2)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x + x * y + y * y
    for i in range(2):
        assert p.reflect_substitute(i, rs.cartan[i]) == p


def test_divexact_variable():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * y + x * x
    assert p.divexact_variable(0) == y + x
    with pytest.raises(ArithmeticError):
        (x + y).divexact_variable(0)


def test_repr_stable():
    x = Poly.variable(2, 0)
    assert repr(Poly.zero(2)) == "Poly(0)"
    assert "x0" in repr(x)
