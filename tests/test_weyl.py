"""Weyl group enumeration, inversion sets, and parabolic quotients."""

import itertools
import random

import pytest

from schubdeform import BudgetError, CartanType, RootSystem, parabolic, root_system, weyl_group
from schubdeform import weyl

from common import ALL_TYPES, ARITHMETIC_TYPES, group_for


@pytest.mark.parametrize("family,rank,order", [
    ("A", 2, 6), ("A", 3, 24), ("B", 2, 8), ("B", 3, 48),
    ("C", 3, 48), ("D", 3, 24), ("G", 2, 12),
])
def test_group_orders(family, rank, order):
    g = group_for(family, rank)
    assert g.order == order == len(g.elements)


def _fresh(family, rank):
    """A root system of its own, so that no memoised group answers."""
    return RootSystem(CartanType(family, rank))


def test_budget_cap(monkeypatch):
    with pytest.raises(BudgetError):
        weyl_group(root_system("E", 8))
    monkeypatch.setattr(weyl, "DEFAULT_CAP", 6)
    assert weyl_group(_fresh("A", 2)).order == 6
    with pytest.raises(BudgetError, match="Weyl group of F4 has order 1152, exceeding the cap 6$"):
        weyl_group(_fresh("F", 4))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_lengths_and_inversions(family, rank):
    g = group_for(family, rank)
    n_pos = g.rs.num_positive_roots
    for w in g.elements:
        inv = g.inversion_set(w)
        assert len(inv) == w.length <= n_pos
    w_o = g.longest_element()
    assert w_o.length == n_pos
    assert g.inversion_set(w_o) == frozenset(range(n_pos))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_group_axioms(family, rank):
    g = group_for(family, rank)
    e = g.identity
    for w in g.elements:
        assert g.mult(w, g.inverse(w)) == e
        assert g.mult(e, w) == w
    # simple reflections are involutions matching one-letter words
    for i in range(rank):
        s = g.simple_reflection(i)
        assert s.word == (i,)
        assert g.mult(s, s) == e


# every type of rank at most 4 the library admits
TYPES_TO_RANK_4 = ALL_TYPES + [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)]


@pytest.mark.parametrize("family,rank", TYPES_TO_RANK_4)
def test_right_multiplication_table_and_descents(family, rank):
    """Against the definitions, not the enumeration's own recurrence: w s_i
    read from the table is the matrix product, the stored inversion set of w
    is {beta > 0 : w(beta) < 0}, and bit i of the descent mask is set exactly
    when w sends alpha_i to a negative root.  Each element's matrix is the
    product of its word's reflections, s_i(alpha_j) = alpha_j - a_ij alpha_i,
    and the elements are ordered by length, then matrix."""
    g = group_for(family, rank)
    roots, cartan = g.rs.positive_roots, g.rs.cartan
    identity = tuple(tuple(int(j == k) for k in range(rank)) for j in range(rank))
    assert g.identity.cols == identity
    for i in range(rank):
        assert g.simple_reflection(i).cols == tuple(
            tuple(int(k == j) - cartan[i][j] * int(k == i) for k in range(rank))
            for j in range(rank))
    assert [w.index for w in g.elements] == list(range(g.order))
    assert g.elements == sorted(g.elements, key=lambda w: (w.length, w.cols))
    for w in g.elements:
        cols = identity
        for i in reversed(w.word):
            cols = tuple(g.simple_reflection(i).act_root(col) for col in cols)
        assert cols == w.cols
        assert g.inversion_set(w) == {k for k, r in enumerate(roots)
                                      if any(c < 0 for c in w.act_root(r))}
        for i in range(rank):
            ws = g.times_simple(w, i)
            assert ws.cols == _column_product(w, g.simple_reflection(i))
            negative = any(c < 0 for c in w.cols[i])
            assert bool(w.descents >> i & 1) is negative
            assert negative is (ws.length < w.length)
        assert w.descents >> rank == 0


def _column_product(u, v):
    """(uv)(alpha_j) = u(v(alpha_j)): the product of the two matrices."""
    return tuple(u.act_root(col) for col in v.cols)


@pytest.mark.parametrize("family,rank", ARITHMETIC_TYPES)
def test_products_and_inverses_match_the_matrices(family, rank):
    """mult folds v's reduced word over the table; it agrees with the matrix
    product on every pair (2,000 seeded pairs in F4), and w w^{-1} = e."""
    g = group_for(family, rank)
    if family == "F":
        rng = random.Random(24)
        pairs = [(rng.choice(g.elements), rng.choice(g.elements)) for _ in range(2000)]
    else:
        pairs = itertools.product(g.elements, repeat=2)
    for u, v in pairs:
        assert g.mult(u, v).cols == _column_product(u, v)
    for w in g.elements:
        assert g.mult(w, g.inverse(w)) is g.identity is g.mult(g.inverse(w), w)


@pytest.mark.parametrize("family,rank", ARITHMETIC_TYPES)
def test_each_element_is_one_object_of_its_group(family, rank):
    """Every lookup returns the group's own object, and elements compare by
    identity: a separately built group of the same type, with the same
    matrices in the same order, shares no equal element."""
    g = group_for(family, rank)
    other = weyl_group(_fresh(family, rank))
    for w, x in zip(g.elements, other.elements, strict=True):
        assert g.from_word(w.word) is w
        assert g.inverse(g.inverse(w)) is w
        assert g.with_inversions(g.inversion_set(w)) is w
        assert x.cols == w.cols and x != w
    assert not set(g.elements) & set(other.elements)


@pytest.mark.parametrize("family,rank", ARITHMETIC_TYPES)
def test_longest_elements_invert_their_positive_roots(family, rank):
    """For every Levi inside every sub-Levi `within`, w_o inverts exactly the
    positive roots of `within` and w_o_levi exactly those of the Levi."""
    g = group_for(family, rank)
    for within in _subsets(range(rank)):
        for levi in _subsets(within):
            p = parabolic(g, levi, within)
            assert g.inversion_set(p.w_o) == p.within_roots
            assert g.inversion_set(p.w_o_levi) == p.levi_roots


def _subsets(indices):
    indices = tuple(indices)
    return [c for k in range(len(indices) + 1) for c in itertools.combinations(indices, k)]


def test_from_word_reduces():
    g = group_for("A", 2)
    assert g.from_word((0, 0)) is g.identity
    assert g.from_word((0, 1, 0)) == g.from_word((1, 0, 1))
    assert g.from_word((0, 1, 0)).length == 3


def test_length_profile_is_palindromic():
    g = group_for("B", 3)
    prof = [0] * (g.rs.num_positive_roots + 1)
    for w in g.elements:
        prof[w.length] += 1
    assert prof == prof[::-1]
    assert sum(prof) == g.order


@pytest.mark.parametrize("family,rank,levi,n_reps", [
    ("A", 3, (0, 2), 6),   # Gr(2,4)
    ("A", 3, (1, 2), 4),   # P^3
    ("B", 3, (1, 2), 6),   # five-dimensional quadric
    ("B", 3, (0, 2), 12),
    ("C", 3, (0, 1), 8),   # Lagrangian Grassmannian LG(3,6)
    ("G", 2, (0,), 6),
])
def test_rep_counts(family, rank, levi, n_reps):
    p = parabolic(group_for(family, rank), levi)
    assert len(p.reps) == n_reps
    assert p.dim + len(p.levi_roots) == p.rs.num_positive_roots


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_minimal_representatives(family, rank):
    g = group_for(family, rank)
    for levi in [(), tuple(range(rank - 1)), tuple(range(rank))]:
        p = parabolic(g, levi)
        seen = set()
        for w in g.elements:
            m = p.minimal_rep(w)
            assert p.contains(m)
            assert m.length <= w.length
            seen.add(m.index)
        assert seen == {w.index for w in p.reps}
        # index of W_P in W
        assert len(p.reps) * sum(1 for w in g.elements
                                 if g.inversion_set(w) <= p.levi_roots) == g.order


def test_iota_is_codim_flipping_involution():
    p = parabolic(group_for("C", 3), (1, 2))
    for w in p.reps:
        iw = p.iota(w)
        assert p.contains(iw)
        assert p.codim(iw) == w.length
        assert p.iota(iw) == w


def test_degree_profile_symmetry():
    p = parabolic(group_for("B", 3), (0, 2))
    prof = p.degree_profile()
    assert sum(prof) == len(p.reps)
    assert prof == prof[::-1]


def test_coweight_action_preserves_pairings():
    g = group_for("B", 2)
    rs = g.rs
    h = rs.fundamental_coweight(0)
    for w in g.elements:
        img = w.act_coweight_coords(h.coords)
        winv = g.inverse(w)
        for r in rs.positive_roots:
            assert rs.eval_coweight(r, img) == \
                rs.eval_coweight(winv.act_root(r), h.coords)


def test_parabolic_rejects_bad_levi():
    g = group_for("A", 2)
    with pytest.raises(ValueError):
        parabolic(g, (5,))
