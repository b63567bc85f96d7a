"""Inequality systems for sums of dominant coweights and their pruning."""

from fractions import Fraction

import pytest

from schubdeform import (
    BudgetError,
    Coweight,
    cone_contains,
    dual_coweight,
    evaluate,
    generate_system,
    extreme_rays,
    primitive,
    prune_redundant,
    systems_equivalent,
)
from schubdeform.eigencone import (
    cone_rows,
    dominance_rows,
    enumerate_tuples,
    tuple_inequality,
)

from common import ALL_TYPES, group_for, maximal_ring, ring_for


def mixed_coweight(rs, coeffs):
    """Nonnegative combination of fundamental coweights, hence dominant."""
    coords = tuple(
        sum(Fraction(c) * rs.cartan_inv[i][k] for i, c in enumerate(coeffs))
        for k in range(rs.rank))
    return Coweight(coords)


def test_a2_three_factor_counts_and_modes():
    g = group_for("A", 2)
    sys_c = generate_system(g, 3, "classical")
    sys_d = generate_system(g, 3, "deformed")
    assert len(sys_c.inequalities) == 12
    assert sys_c.label == "A2 s=3 classical"
    # in type A nothing collapses, so both modes give the same functionals
    key = lambda q: (q.omitted, q.functional)
    assert sorted(map(key, sys_c.inequalities)) == sorted(map(key, sys_d.inequalities))


@pytest.mark.parametrize("family,deformed,classical", [
    ("A", 142, 142), ("D", 294, 477), ("B", 474, 957), ("C", 474, 948)])
def test_rank_four_generation_counts(family, deformed, classical):
    """Three-factor systems of every rank-4 classical type: deformed / classical row counts."""
    g = group_for(family, 4)
    assert len(generate_system(g, 3, "deformed").inequalities) == deformed
    assert len(generate_system(g, 3, "classical").inequalities) == classical


def test_two_factor_tuples_are_dual_pairs():
    for family, rank, omit in [("A", 2, 0), ("B", 2, 1), ("C", 3, 0)]:
        ring = maximal_ring(family, rank, omit)
        p = ring.parabolic
        expect = {(w, p.iota(w)) for w in ring.reps}
        assert set(enumerate_tuples(ring, 2, "classical")) == expect
        assert set(enumerate_tuples(ring, 2, "deformed")) == expect


def test_enumerate_tuples_validation():
    borel = ring_for("A", 2)
    with pytest.raises(ValueError):
        enumerate_tuples(borel, 2, "classical")
    ring = maximal_ring("A", 2, 0)
    with pytest.raises(ValueError):
        enumerate_tuples(ring, 1, "classical")
    with pytest.raises(ValueError):
        enumerate_tuples(ring, 2, "quantum")


def test_inequality_value_is_the_natural_pairing():
    # every maximal parabolic of every type: roots and coroots differ only in
    # the non-simply-laced B, C and G, where a mix-up in the functional shows
    for family, rank in ALL_TYPES:
        for i0 in range(rank):
            ring = maximal_ring(family, rank, i0)
            rs = ring.rs
            omega = rs.fundamental_weight(i0)
            hs = (mixed_coweight(rs, [k + 2 for k in range(rank)]),
                  mixed_coweight(rs, [1 + 2 * (k % 2) for k in range(rank)]),
                  mixed_coweight(rs, [Fraction(1, k + 2) for k in range(rank)]))
            tuples = enumerate_tuples(ring, 3, "classical")
            assert tuples
            for ws in tuples:
                q = tuple_inequality(ring, ws)
                manual = sum(rs.pair(w.act_weight(omega), h) for w, h in zip(ws, hs))
                assert q.value(hs) == manual
                assert len(q.flat()) == 3 * rs.rank


def test_sum_zero_triples_are_members():
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        g = group_for(family, rank)
        rs = g.rs
        system = generate_system(g, 3, "classical")
        h = mixed_coweight(rs, tuple(Fraction(i + 2, 3) for i in range(rank)))
        hd = dual_coweight(g, h)
        zero = Coweight((Fraction(0),) * rank)
        for hs in [(h, hd, zero), (zero, h, hd), (hd, zero, h)]:
            verdict = evaluate(system, hs)
            assert verdict.member and not verdict.violations
        assert evaluate(system, (zero, zero, zero)).member


def test_violations_are_exact_and_scale():
    g = group_for("A", 2)
    rs = g.rs
    system = generate_system(g, 3, "classical")
    h = mixed_coweight(rs, (1, 1))
    big = Coweight(tuple(10 * c for c in h.coords))
    small = Coweight(tuple(c / 10 for c in h.coords))
    verdict = evaluate(system, (big, small, small))
    assert not verdict.member
    values = sorted(v for _, v in verdict.violations)
    assert values == [Fraction(49, 5), Fraction(49, 5)]
    tripled = evaluate(system, tuple(
        Coweight(tuple(3 * c for c in x.coords)) for x in (big, small, small)))
    assert sorted(v for _, v in tripled.violations) == [3 * v for v in values]


def test_evaluate_rejects_bad_input():
    g = group_for("A", 2)
    system = generate_system(g, 2, "classical")
    ok = Coweight((Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        evaluate(system, (ok,))
    with pytest.raises(ValueError):
        evaluate(system, (ok, Coweight((Fraction(-1), Fraction(0)))))


def test_dominance_rows_structure():
    rs = group_for("B", 2).rs
    rows = dominance_rows(rs, 3)
    assert len(rows) == 6
    h = mixed_coweight(rs, (2, 5))
    flat = h.coords * 3
    for idx, row in enumerate(rows):
        j, i = divmod(idx, rs.rank)
        # block j holds column i of the negated Cartan matrix
        for k in range(rs.rank):
            assert row[j * rs.rank + k] == -rs.cartan[k][i]
        assert all(row[m] == 0 for m in range(6) if m // rs.rank != j)
        alpha = tuple(int(i == n) for n in range(rs.rank))
        value = sum(a * b for a, b in zip(row, flat))
        assert value == -rs.eval_coweight(alpha, h.coords)


def test_prune_a2_keeps_everything():
    system = generate_system(group_for("A", 2), 3, "classical")
    with pytest.raises(ValueError):
        system.essential()
    pruned = prune_redundant(system)
    assert pruned.redundant == [False] * 12
    assert pruned.essential() == pruned.inequalities


def test_prune_b2_and_mode_equivalence():
    g = group_for("B", 2)
    sys_c = generate_system(g, 3, "classical")
    sys_d = generate_system(g, 3, "deformed")
    assert (len(sys_c.inequalities), len(sys_d.inequalities)) == (19, 18)
    pruned_c = prune_redundant(sys_c)
    pruned_d = prune_redundant(sys_d)
    assert sum(pruned_c.redundant) == 1
    assert sum(pruned_d.redundant) == 0
    key = lambda q: (q.omitted, q.functional)
    assert {key(q) for q in pruned_c.essential()} == {key(q) for q in pruned_d.essential()}
    assert systems_equivalent(sys_c, sys_d)
    # a redundant functional really is implied by the rest plus dominance
    k = pruned_c.redundant.index(True)
    flats = [q.flat() for q in sys_c.inequalities]
    gens = flats[:k] + flats[k + 1:] + dominance_rows(g.rs, 3)
    assert cone_contains(flats[k], gens)


def test_two_factor_cone_rays_are_conjugate_pairs():
    g = group_for("A", 2)
    rs = g.rs
    system = generate_system(g, 2, "classical")
    assert len(system.inequalities) == 6
    lin, rays = extreme_rays(cone_rows(system))
    assert lin == []
    expect = set()
    for i in range(rs.rank):
        x = rs.fundamental_coweight(i)
        expect.add(primitive(tuple(x.coords) + tuple(dual_coweight(g, x).coords)))
    assert set(rays) == expect


def test_generate_system_budget():
    with pytest.raises(BudgetError):
        generate_system(group_for("A", 2), 3, "classical", cap=10)


def test_as_dict_shapes():
    system = prune_redundant(generate_system(group_for("A", 2), 3, "deformed"))
    d = system.as_dict()
    assert d["system"] == "A2" and d["s"] == 3 and d["mode"] == "deformed"
    assert d["count"] == 12 and d["essential_count"] == 12
    for q in d["inequalities"]:
        assert q["parabolic"] in (1, 2)
        assert all(i >= 1 for w in q["words"] for i in w)
        assert all(len(b) == 2 for b in q["functional"])
