"""Necessary inequalities for nonvanishing: characters, classes, dimensions."""

from itertools import combinations

import pytest

from schubdeform import (
    CartanType,
    RootSystem,
    central_characters,
    check_character,
    check_dimension,
    check_refined,
    codim_difference_identity,
    coset_codim,
    deformed_ring,
    dimension_tuples,
    parabolic,
    weyl_group,
)
from schubdeform.horn import levi_blocks
from schubdeform.schubert import SchubertBasis

from common import all_rings, group_for, maximal_ring, ring_for


def test_central_characters_partition_nilradical():
    ring = maximal_ring("C", 3, 1)
    p = ring.parabolic
    classes = central_characters(p)
    sizes = {cc.signature: len(roots) for cc, roots in classes}
    assert sizes == {(1,): 4, (2,): 3}
    union = frozenset()
    for _, roots in classes:
        assert not (union & roots)
        union |= roots
    assert union == p.nilradical_roots


def test_central_characters_minuscule_single_class():
    ring = maximal_ring("B", 3, 0)
    classes = central_characters(ring.parabolic)
    assert len(classes) == 1
    cc, roots = classes[0]
    assert cc.signature == (1,)
    assert roots == ring.parabolic.nilradical_roots


def test_coset_codim_constant_on_cosets():
    g = group_for("B", 3)
    p = parabolic(g, (0, 2))
    levi_elements = [w for w in g.elements if g.inversion_set(w) <= p.levi_roots]
    for w in p.reps:
        base = coset_codim(p, w)
        assert base == p.codim(w)
        for q in levi_elements:
            assert coset_codim(p, g.mult(w, q)) == base


def test_dimension_tuples_enumeration():
    p = parabolic(group_for("A", 2), (1,))
    tuples = list(dimension_tuples(p, 3))
    brute = [(u, v, w) for u in p.reps for v in p.reps for w in p.reps
             if p.codim(u) + p.codim(v) + p.codim(w) == p.dim]
    assert tuples == brute
    assert list(dimension_tuples(p, 2)) == [
        (u, v) for u in p.reps for v in p.reps
        if p.codim(u) + p.codim(v) == p.dim]


def test_character_checks_on_dual_pairs():
    ring = maximal_ring("B", 2, 0)
    p = ring.parabolic
    for w in p.reps:
        rep = check_character(ring, (w, p.iota(w)))
        assert rep.applicable
        assert rep.passed
        rep2 = check_refined(ring, (w, p.iota(w)))
        assert rep2.applicable  # dual pairs are always movable
        assert rep2.passed


def test_refined_class_sums_reproduce_character_gaps():
    """Summing the per-class equalities over classes gives the overall equality."""
    ring = maximal_ring("C", 3, 1)
    p = ring.parabolic
    for ws in dimension_tuples(p, 2):
        if not ring.is_levi_movable(ws).movable:
            continue
        rep = check_refined(ring, ws)
        assert rep.passed
        per_class = [c for c in rep.checks if c.kind == "class-size"]
        assert sum(c.lhs for c in per_class) == sum(c.rhs for c in per_class)
        assert sum(c.rhs for c in per_class) == p.dim


def test_inapplicable_reports():
    ring = maximal_ring("B", 2, 0)
    p = ring.parabolic
    zero_d = None
    for ws in dimension_tuples(p, 3):
        if ring.point_coefficient(ws) == 0:
            zero_d = ws
            break
    if zero_d is not None:
        rep = check_character(ring, zero_d)
        assert not rep.applicable
        assert "zero" in rep.reason
        assert rep.passed  # vacuously
    # non-movable tuple inapplicable for the refined family
    for ws in dimension_tuples(ring.parabolic, 3):
        cert = ring.is_levi_movable(ws)
        if cert.coefficient != 0 and not cert.movable:
            rep = check_refined(ring, ws)
            assert not rep.applicable
            assert not rep.checks
            break


def test_levi_blocks_structure():
    ring = ring_for("B", 3, (0, 2))
    blocks = levi_blocks(ring, 2)
    assert blocks  # one per maximal parabolic of the Levi
    for blk in blocks:
        assert blk.coweight_index in ring.parabolic.levi
        for t in blk.tuples:
            assert len(t) == 2
            assert all(0 <= k < len(blk.reps) for k in t)
    # evals against alpha_i(u x_p) through the rational coweight action
    for family, rank in [("B", 3), ("C", 3), ("G", 2)]:
        for ring in all_rings(family, rank):
            rs = ring.rs
            blocks = levi_blocks(ring, 2)
            assert [b.coweight_index for b in blocks] == list(ring.parabolic.levi)
            for blk in blocks:
                x_p = rs.fundamental_coweight(blk.coweight_index)
                assert len(blk.evals) == len(blk.reps)
                for u, vec in zip(blk.reps, blk.evals):
                    assert u.group is ring.group
                    h = u.act_coweight_coords(x_p.coords)
                    assert vec == tuple(
                        rs.eval_coweight(tuple(int(i == j) for j in range(rank)), h)
                        for i in range(rank))


def test_check_dimension_identity_and_errors():
    ring = ring_for("B", 3, (0, 2))
    g = ring.group
    p = ring.parabolic
    pairs = [ws for ws in dimension_tuples(p, 2)
             if ring.point_coefficient(ws) != 0][:4]
    sub = parabolic(g, (0,), within=p.levi)
    sub_unit = max(sub.reps, key=lambda w: w.length)  # the fundamental class
    for ws in pairs:
        us = [sub_unit, sub_unit]
        rep = check_dimension(ring, ws, (0,), (0, 1), tuple(us))
        assert rep.applicable
        assert rep.passed
        kinds = [c.kind for c in rep.checks]
        assert "product-nonzero" in kinds and "dimension-bound" in kinds
        assert "dimension" in kinds  # outer Levi meets P exactly in the inner
    with pytest.raises(ValueError):
        check_dimension(ring, pairs[0], (1,), (0, 1), ((), ()))  # inner not in Levi
    with pytest.raises(ValueError):
        check_dimension(ring, pairs[0], (0,), (2,), ((), ()))  # outer misses inner


def test_levi_quotients_share_the_group_basis(monkeypatch):
    """The checks of a B3 ring with Levi 1,3 recurse into Levi quotients L/(L cap Q),
    and every one of them reads the constants of the group's single basis."""
    built = []
    init = SchubertBasis.__init__
    monkeypatch.setattr(SchubertBasis, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    g = weyl_group(RootSystem(CartanType("B", 3)))  # nothing memoised
    ring = deformed_ring(parabolic(g, (0, 2)))
    ws = [g.from_word(w) for w in ((2, 1), (0, 2, 1, 0, 2, 1), (0, 2, 1, 0, 2, 1))]
    assert check_character(ring, ws).passed
    assert check_refined(ring, ws).passed
    dim = check_dimension(ring, ws, (0,), (0, 1), ((2,), (2,), ()))
    assert dim.passed and "dimension" in [c.kind for c in dim.checks]
    assert built == [(g,)]


def test_codim_difference_identity_samples():
    ring = ring_for("C", 3, (0, 2))
    levi_group = parabolic(ring.group, (), within=ring.parabolic.levi).reps
    assert len(levi_group) == 4  # W_L of type A1 x A1
    for w in ring.parabolic.reps[:6]:
        for u in levi_group[:4]:
            lhs, rhs = codim_difference_identity(ring, w, u, (0,), (0, 1))
            assert lhs == rhs


@pytest.mark.parametrize("family", ["B", "C"])
def test_codim_difference_identity_needs_w_in_the_quotient(family):
    """The sides agree for every w in W^P and u in W_L; any other w is refused."""
    ring = ring_for(family, 3, (0, 2))
    levi_group = parabolic(ring.group, (), within=ring.parabolic.levi).reps
    for w in ring.group.elements:
        if ring.parabolic.contains(w):
            for u in levi_group:
                lhs, rhs = codim_difference_identity(ring, w, u, (0,), (0, 1))
                assert lhs == rhs
        else:
            with pytest.raises(ValueError, match="not a minimal coset representative"):
                codim_difference_identity(ring, w, ring.group.identity, (0,), (0, 1))


def test_dimension_check_refusals():
    """A zero classical product, a Levi tuple of the wrong length or with zero
    product on L/(L cap Q), and an outer Levi meeting the Levi of P in more
    than the inner one are each refused."""
    ring = ring_for("B", 3, (0, 2))
    g = ring.group
    sub = parabolic(g, (0,), within=ring.parabolic.levi)
    unit = max(sub.reps, key=lambda w: w.length)
    ws = next(ws for ws in dimension_tuples(ring.parabolic, 2)
              if ring.point_coefficient(ws) != 0)
    point = g.identity  # labels the point class, whose square is zero
    with pytest.raises(ValueError, match="^tuple has zero classical product$"):
        check_dimension(ring, (point, point), (0,), (0, 1), (unit, unit))
    with pytest.raises(ValueError, match="^Levi tuple length must match the main tuple$"):
        check_dimension(ring, ws, (0,), (0, 1), (unit,))
    with pytest.raises(ValueError, match="^Levi tuple has zero classical product$"):
        check_dimension(ring, ws, (0,), (0, 1), ((), ()))  # the point class of P^1, twice
    with pytest.raises(ValueError, match="^outer parabolic must meet P exactly in the inner one$"):
        codim_difference_identity(ring, ws[0], (), (0,), (0, 1, 2))


# Levi-movable three-factor tuples over all pairs Q < P < G of each type
RICHMOND_MOVABLE = {("A", 2): 30, ("A", 3): 864, ("B", 2): 42, ("B", 3): 1770,
                    ("C", 2): 42, ("C", 3): 1776, ("D", 3): 864, ("G", 2): 66}


@pytest.mark.parametrize("family,rank", list(RICHMOND_MOVABLE))
def test_richmond_multiplicative_formula(family, rank):
    """Richmond (Michigan Math. J. 61, 2012): for Q < P < G, write each w_j in
    W^Q as u_j v_j with u_j in W^P and v_j in W_P cap W^Q; on a Levi-movable
    tuple, c^{G/Q}(w) = c^{G/P}(u) c^{P/Q}(v).  Every pair of proper Levis
    Q < P at s = 3, with the G/P and P/Q constants read from the group's
    basis; some non-movable tuple breaks the formula, so the check can fail."""
    g = group_for(family, rank)
    movable = mismatched = 0
    for size in range(1, rank):
        for p in combinations(range(rank), size):
            ring_p = deformed_ring(parabolic(g, p))
            for q in (q for k in range(size) for q in combinations(p, k)):
                ring_q = deformed_ring(parabolic(g, q))
                ring_pq = deformed_ring(parabolic(g, q, within=p))
                for ws in dimension_tuples(ring_q.parabolic, 3):
                    gaps = any(ring_q.character_gaps(ws).values())
                    if gaps and mismatched:
                        continue  # one mismatch is enough, and needs no more products
                    c = ring_q.point_coefficient(ws)
                    us = [ring_p.parabolic.minimal_rep(w) for w in ws]
                    vs = [g.mult(g.inverse(u), w) for u, w in zip(us, ws)]
                    assert all(ring_pq.parabolic.contains(v) for v in vs)
                    split = ring_p.point_coefficient(us) * ring_pq.point_coefficient(vs)
                    if c and not gaps:
                        assert c == split, (p, q, ws)
                        movable += 1
                    else:
                        mismatched += c != split
    assert movable == RICHMOND_MOVABLE[family, rank] and mismatched
