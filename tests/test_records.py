"""The value records keep the behaviour callers rely on: repr, equality,
hashing and immutability, and each is built from every one of its fields."""

import pytest

from schubdeform import (
    CartanType,
    GoldenResult,
    HornCheck,
    Inequality,
    root_system,
)


def test_cartan_type_validates_normalises_and_keys_the_memo():
    ct = CartanType("b", 3)
    assert repr(ct) == "CartanType(family='B', rank=3)" and str(ct) == "B3"
    assert ct == CartanType("B", 3) and hash(ct) == hash(CartanType("B", 3))
    assert ct != CartanType("C", 3)
    assert root_system(*ct) is root_system("B", 3)
    with pytest.raises(ValueError, match="unknown family 'Z'"):
        CartanType("Z", 2)
    with pytest.raises(ValueError, match="rank 1 not admissible for family B"):
        CartanType("b", 1)
    with pytest.raises(AttributeError):
        ct.rank = 4


def test_inequalities_are_immutable_values():
    q = Inequality(0, ((1,), ()), ((1, 0), (0, -1)))
    assert repr(q) == "Inequality(omitted=0, words=((1,), ()), functional=((1, 0), (0, -1)))"
    assert q == Inequality(0, ((1,), ()), ((1, 0), (0, -1)))
    assert hash(q) == hash(Inequality(0, ((1,), ()), ((1, 0), (0, -1))))
    assert q != Inequality(1, ((1,), ()), ((1, 0), (0, -1)))
    assert q.flat() == (1, 0, 0, -1)
    with pytest.raises(AttributeError):
        q.omitted = 1


def test_horn_checks_and_golden_results_take_every_field():
    with pytest.raises(TypeError, match="data"):
        HornCheck("character", 1, 0, "<=")
    with pytest.raises(TypeError, match="bijection"):
        GoldenResult("b3_p2", False)
    a = HornCheck("character", 1, 0, "<=", {"coweight": 1})
    assert not a.passed and HornCheck("size", 2, 2, "==", {"signature": [1]}).passed
    assert a.as_dict() == {"kind": "character", "lhs": 1, "rhs": 0, "relation": "<=",
                           "passed": False, "data": {"coweight": 1}}
    r = GoldenResult("b3_p2", False, {}, "")
    assert repr(r) == "GoldenResult(name='b3_p2', matched=False, bijection={}, detail='')"
