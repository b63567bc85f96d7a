"""The value records keep the behaviour callers rely on: repr, equality,
hashing, immutability and one mutable default per record."""

from fractions import Fraction

import pytest

from schubdeform import (
    CartanType,
    Coweight,
    GoldenResult,
    HornCheck,
    Inequality,
    Weight,
    build_root_system,
    root_system,
)


def test_cartan_type_validates_normalises_and_keys_the_memo():
    ct = CartanType("b", 3)
    assert repr(ct) == "CartanType(family='B', rank=3)" and str(ct) == "B3"
    assert ct == CartanType("B", 3) and hash(ct) == hash(CartanType("B", 3))
    assert ct != CartanType("C", 3)
    assert build_root_system(ct) is root_system("B", 3)
    with pytest.raises(ValueError, match="unknown family 'Z'"):
        CartanType("Z", 2)
    with pytest.raises(ValueError, match="rank 1 not admissible for family B"):
        CartanType("b", 1)
    with pytest.raises(AttributeError):
        ct.rank = 4


def test_weights_and_coweights_are_immutable_values():
    c = (Fraction(1), Fraction(1, 2))
    w = Weight(c)
    assert repr(w) == "Weight(coords=(Fraction(1, 1), Fraction(1, 2)), basis='root')"
    assert repr(Coweight((1, 0))) == "Coweight(coords=(1, 0))"
    assert w == Weight(c, "root") and hash(w) == hash(Weight(c, "root"))
    assert w != Weight(c, "fweight")
    assert Weight(c) != Coweight(c) and Coweight(c) == Coweight(c)
    assert hash(Coweight(c)) == hash(Coweight(tuple(c)))
    assert len({w, Weight(c), Coweight(c)}) == 2
    with pytest.raises(AttributeError):
        w.coords = ()


def test_inequalities_are_immutable_values():
    q = Inequality(0, ((1,), ()), ((1, 0), (0, -1)))
    assert repr(q) == "Inequality(omitted=0, words=((1,), ()), functional=((1, 0), (0, -1)))"
    assert q == Inequality(0, ((1,), ()), ((1, 0), (0, -1)))
    assert hash(q) == hash(Inequality(0, ((1,), ()), ((1, 0), (0, -1))))
    assert q != Inequality(1, ((1,), ()), ((1, 0), (0, -1)))
    assert q.flat() == (1, 0, 0, -1)
    with pytest.raises(AttributeError):
        q.omitted = 1


def test_records_built_without_a_dict_get_their_own():
    a, b = HornCheck("character", 1, 0, "<="), HornCheck("character", 1, 0, "<=")
    assert a.data == {} and a.data is not b.data
    a.data["coweight"] = 0
    assert b.data == {} and HornCheck("character", 1, 0, "<=").data == {}
    assert not a.passed and HornCheck("size", 2, 2, "==", {"signature": (1,)}).passed
    r, t = GoldenResult("b3_p2", False), GoldenResult("b3_p2", False)
    assert r.bijection == {} and r.bijection is not t.bijection and r.detail == ""
    assert repr(r) == "GoldenResult(name='b3_p2', matched=False, bijection={}, detail='')"
