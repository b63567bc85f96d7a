"""Deformed ring: characters, exponents, movability, presentation."""

import random

import pytest

from schubdeform import DeformedClass, DimensionError, deformed_ring, parabolic

from common import ALL_TYPES, all_rings, group_for, maximal_ring, ring_for
from oracles import tangent_complement_check


def test_chi_of_identity_is_nilradical_sum():
    ring = ring_for("B", 3, (0, 2))
    rs = ring.rs
    total = [0] * rs.rank
    for k in ring.parabolic.nilradical_roots:
        for j, c in enumerate(rs.positive_roots[k]):
            total[j] += c
    assert ring.chi(ring.group.identity) == tuple(total)


def test_chi_levi_dominant():
    """chi_w pairs nonnegatively with the Levi coroots for w in W^P."""
    ring = ring_for("C", 3, (1, 2))
    rs = ring.rs
    for w in ring.parabolic.reps:
        chi = ring.chi(w)
        for i in ring.parabolic.levi:
            assert rs.coroot_pairing(chi, i) >= 0


def test_unit_and_point_labels():
    ring = ring_for("B", 2, (0,))
    p = ring.parabolic
    unit = ring.unit()
    assert p.codim(unit) == 0
    assert ring.point() is ring.group.identity
    assert p.codim(ring.point()) == p.dim
    # the unit multiplies trivially, with zero exponents
    for w in p.reps:
        prod = ring.deformed_product(unit, w)
        assert prod.coeffs == {w: {(0,) * len(ring.omitted): 1}}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_exponents_nonnegative_and_graded(family, rank):
    for omit in range(rank):
        ring = maximal_ring(family, rank, omit)
        p = ring.parabolic
        for u in p.reps:
            for v in p.reps:
                cls = ring.deformed_product(u, v)
                for w, mono in cls.coeffs.items():
                    assert p.codim(w) == p.codim(u) + p.codim(v)
                    for exps, c in mono.items():
                        assert all(e >= 0 for e in exps)
                        assert c > 0


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_every_class_is_keyed_by_its_representative(family, rank):
    """Products, folds, classes and labels are keyed by the ring's own minimal
    representatives, objects of its group, never by positions or copies."""
    for ring in all_rings(family, rank):
        reps = set(ring.reps)  # elements hash by identity

        def check(keys, *where):
            assert all(w in reps and w.group is ring.group for w in keys), \
                (family, rank, ring.parabolic.levi) + where

        check(ring.labels)
        assert len(ring.labels) == len(reps)
        check(ring.fold(()))
        outside = [w for w in ring.group.elements if w not in reps]
        if outside:
            with pytest.raises(ValueError, match="not a minimal coset representative"):
                ring.basis_class(outside[-1])
        for u in ring.reps:
            for v in ring.reps:
                check(ring.classical_product(u, v), u, v)
                check(ring.product0(u, v), u, v)
                check(ring.deformed_product(u, v).coeffs, u, v)
                check(ring.fold((u, v, u)), u, v)


def test_minuscule_detection():
    assert maximal_ring("B", 3, 0).is_minuscule()
    assert not maximal_ring("B", 3, 1).is_minuscule()
    assert not maximal_ring("B", 3, 2).is_minuscule()
    assert maximal_ring("C", 3, 2).is_minuscule()
    assert not maximal_ring("C", 3, 0).is_minuscule()
    for omit in range(3):
        assert maximal_ring("A", 3, omit).is_minuscule()
    assert not maximal_ring("G", 2, 0).is_minuscule()
    assert not ring_for("B", 3, (2,)).is_minuscule()  # not maximal


def test_specializations():
    ring = maximal_ring("B", 3, 2)
    p = ring.parabolic
    for u in p.reps:
        for v in p.reps:
            cls = ring.deformed_product(u, v)
            assert cls.classical() == ring.classical_product(u, v)
            zero = cls.at_zero()
            assert set(zero) <= set(cls.classical())
            assert ring.product0(u, v) == zero


def _add(a: DeformedClass, b: DeformedClass) -> DeformedClass:
    """The sum of two classes of one ring, monomial by monomial."""
    out = {w: dict(m) for w, m in a.coeffs.items()}
    for w, mono in b.coeffs.items():
        tgt = out.setdefault(w, {})
        for e, c in mono.items():
            tgt[e] = tgt.get(e, 0) + c
    return DeformedClass(a.ring, out)


def test_multiply_distributes():
    ring = maximal_ring("C", 3, 1)
    p = ring.parabolic
    a = ring.basis_class(p.reps[1])
    b = ring.basis_class(p.reps[2])
    c = ring.basis_class(p.reps[3])
    lhs = ring.multiply(_add(a, b), c)
    rhs = _add(ring.multiply(a, c), ring.multiply(b, c))
    assert lhs == rhs
    with pytest.raises(TypeError):
        hash(lhs)  # compared by value, so unhashable


@pytest.mark.parametrize("family", ["A", "D", "B", "C"])
def test_rank_four_ring_laws_on_sampled_triples(family):
    """Criteria 03 and 04 on a fixed sample of rank-4 classes: on every maximal
    parabolic the deformed product of sampled basis classes commutes and
    associates, and at tau = 0 a class times the dual of a class of its
    codimension is the point class exactly when the two are equal."""
    rng = random.Random(20261018)
    unequal = 0
    for omitted in range(4):
        ring = maximal_ring(family, 4, omitted)
        p = ring.parabolic
        point = {ring.point(): 1}
        for _ in range(40):
            u, v, w = (rng.choice(p.reps) for _ in range(3))
            a, b, c = (ring.basis_class(x) for x in (u, v, w))
            ab = ring.multiply(a, b)
            assert ab == ring.multiply(b, a), (family, omitted, u, v)
            assert ring.multiply(ab, c) == ring.multiply(a, ring.multiply(b, c)), \
                (family, omitted, u, v, w)
            x = rng.choice([x for x in p.reps if x.length == u.length])
            for y in (u, x):
                assert ring.product0(u, p.iota(y)) == (point if y == u else {}), \
                    (family, omitted, u, y)
            unequal += x != u
    assert unequal > 0


def test_point_coefficient_on_padded_dual_pairs():
    ring = maximal_ring("B", 3, 1)
    p = ring.parabolic
    unit = ring.unit()
    for w in p.reps:
        assert ring.point_coefficient((unit, w, p.iota(w))) == 1
        assert ring.point_coefficient((w, p.iota(w))) == 1
    # mismatched partners of equal codimension give zero
    by_codim = {}
    for w in p.reps:
        by_codim.setdefault(p.codim(w), []).append(w)
    twins = next(v for v in by_codim.values() if len(v) > 1)
    assert ring.point_coefficient((unit, twins[0], p.iota(twins[1]))) == 0


def test_movability_requires_balanced_codims():
    ring = maximal_ring("B", 3, 1)
    p = ring.parabolic
    with pytest.raises(DimensionError):
        ring.is_levi_movable((p.reps[0], p.reps[0], p.reps[0]))
    with pytest.raises(ValueError):
        ring.is_levi_movable((ring.group.simple_reflection(0),
                              p.reps[0], p.reps[0]))
    # a movable C3 triple of the same shape is foreign to the B3 ring
    other = maximal_ring("C", 3, 1)
    q = other.parabolic
    w = q.reps[1]
    foreign = (other.unit(), w, q.iota(w))
    assert other.is_levi_movable(foreign).movable
    with pytest.raises(ValueError, match="same Weyl group"):
        ring.is_levi_movable(foreign)


def test_dual_pairs_always_movable():
    for fam, rank, omit in [("A", 3, 1), ("B", 3, 1), ("C", 3, 0), ("G", 2, 1)]:
        ring = maximal_ring(fam, rank, omit)
        p = ring.parabolic
        for w in p.reps:
            cert = ring.is_levi_movable((w, p.iota(w)))
            assert cert.coefficient == 1
            assert cert.movable


def test_labels_by_codimension():
    ring = maximal_ring("B", 3, 1)
    labs = ring.labels
    assert len(set(labs.values())) == len(labs) == len(ring.reps)
    for w in ring.reps:
        assert labs[w].startswith(f"c{ring.parabolic.codim(w)}")
    order = ring.table_order
    assert sorted(order, key=ring.reps.index) == ring.reps
    codims = [ring.parabolic.codim(w) for w in order]
    assert codims == sorted(codims)


def test_labels_beyond_eight_classes_per_codimension():
    """Suffixes run a..z, then aa, ab, ...: the first eight are unchanged."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    suffixes = list(letters) + [x + y for x in letters for y in letters]
    longest = 0
    for family in ("D", "B"):
        ring = ring_for(family, 4)
        assert len(set(ring.labels.values())) == len(ring.labels)
        by_codim = {}
        for w in ring.table_order:
            by_codim.setdefault(ring.parabolic.codim(w), []).append(w)
        for codim, group in by_codim.items():
            got = [ring.labels[w] for w in group]
            assert got == ([f"c{codim}"] if len(group) == 1 else
                           [f"c{codim}{x}" for x in suffixes[:len(group)]])
            longest = max(longest, len(group))
    assert longest > 26  # the two-letter suffixes are reached


def test_tangent_space_combinatorics():
    ring = ring_for("B", 3, (0, 2))
    p = ring.parabolic
    for w in p.reps:
        assert tangent_complement_check(ring, w)


def test_memoized_factory():
    g = group_for("A", 2)
    assert deformed_ring(parabolic(g, (0,))) is deformed_ring(parabolic(g, (0,)))
