"""Inversion-set combinatorics and the full-flag cross-check."""

import itertools
from math import comb

import pytest

from schubdeform import crosscheck_gb, parabolic
from schubdeform.invsets import inversion_product

from common import ARITHMETIC_TYPES, group_for, ring_for
from oracles import is_closed, is_inversion_set, kostant_decomposition


def test_with_inversions_round_trip():
    for family, rank in [("B", 2)] + ARITHMETIC_TYPES:
        g = group_for(family, rank)
        for w in g.elements:
            assert g.with_inversions(g.inversion_set(w)) is w
        assert g.with_inversions(frozenset()) is g.identity
        assert g.with_inversions(range(g.rs.num_positive_roots)) is g.longest_element()
        # alpha_1 + alpha_2 is a root, so {alpha_1, alpha_2} is not closed: no inversion set
        simple = [g.rs.root_index[tuple(int(i == j) for j in range(rank))] for i in (0, 1)]
        assert g.with_inversions(simple) is None


def test_inversion_sets_are_closed_coclosed():
    """Subsets of positives arising as inversion sets = closed with closed complement."""
    g = group_for("A", 2)
    rs = g.rs
    n = rs.num_positive_roots
    inv_sets = {g.inversion_set(w) for w in g.elements}
    for bits in itertools.product((0, 1), repeat=n):
        sub = frozenset(k for k in range(n) if bits[k])
        comp = frozenset(range(n)) - sub
        both = is_closed(rs, sub) and is_closed(rs, comp)
        assert (sub in inv_sets) == both
        found = is_inversion_set(g, sub)
        assert (found is not None) == both


def test_inversion_product_is_partial():
    g = group_for("B", 2)
    e = g.identity
    for w in g.elements:
        assert inversion_product(g, e, w) == w
    s0, s1 = g.simple_reflection(0), g.simple_reflection(1)
    assert inversion_product(g, s0, s0) is None  # overlapping inversions
    got = inversion_product(g, s0, s1)
    if got is not None:
        assert got.length == 2
        assert g.inversion_set(got) == g.inversion_set(s0) | g.inversion_set(s1)


@pytest.mark.parametrize("family,rank,levi", [
    ("A", 3, (0, 2)), ("B", 3, (1, 2)), ("C", 3, (0, 1))])
def test_kostant_decomposition_sizes(family, rank, levi):
    """Degree d pieces are indexed by the W^P elements of length d."""
    p = parabolic(group_for(family, rank), levi)
    for d in range(p.dim + 1):
        mods = kostant_decomposition(p, d)
        expect = [w for w in p.reps if w.length == d]
        assert len(mods) == len(expect)
        for m in mods:
            assert m.degree == d
            assert m.element in expect


def test_kostant_total_dimension_grassmannian():
    # on Gr(2,4) the number of degree-d classes is the Gaussian binomial count
    p = parabolic(group_for("A", 3), (0, 2))
    sizes = [len(kostant_decomposition(p, d)) for d in range(p.dim + 1)]
    assert sizes == [1, 1, 2, 1, 1]
    assert sum(sizes) == comb(4, 2)


def test_crosscheck_small():
    rep = crosscheck_gb(ring_for("A", 2))
    assert rep.passed
    assert rep.pairs == 36
    with pytest.raises(ValueError):
        crosscheck_gb(ring_for("A", 2, (0,)))
