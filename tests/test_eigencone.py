"""Inequality systems for sums of dominant coweights and their pruning."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from schubdeform import (
    BudgetError,
    CartanType,
    Coweight,
    RootSystem,
    cone_contains,
    dual_coweight,
    evaluate,
    generate_system,
    prune_redundant,
    schubert_basis,
    systems_equivalent,
    weyl_group,
)
from schubdeform import cones, weyl
from schubdeform.cones import dominance_rows, orbit_labels
from schubdeform.eigencone import MODES, InequalitySystem, enumerate_tuples, tuple_inequality

from common import ALL_TYPES, group_for, maximal_ring, ring_for
from oracles import (
    act_weight,
    cone_rows,
    equivalent_reference,
    extreme_rays,
    horn_row,
    horn_rows,
    inequality_blocks_reference,
    lr_coefficient,
    movable_rows_reference,
    primitive,
    redundant_reference,
)


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


@pytest.mark.parametrize("family,deformed,classical,redundant", [
    ("A", 142, 142, 0), ("D", 294, 477, 183),
    pytest.param("B", 474, 957, 483, marks=pytest.mark.slow),
    pytest.param("C", 474, 948, 474, marks=pytest.mark.slow)])
def test_rank_four_eigencone_gate(family, deformed, classical, redundant):
    """Three factors at rank 4: the deformed system has no redundant row
    (Ressayre's irredundancy theorem), its rows are exactly the essential
    classical rows, and the two systems cut out the same cone."""
    g = group_for(family, 4)
    sys_d = generate_system(g, 3, "deformed")
    sys_c = generate_system(g, 3, "classical")
    assert (len(sys_d.inequalities), len(sys_c.inequalities)) == (deformed, classical)
    assert not any(prune_redundant(sys_d).redundant)
    pruned_c = prune_redundant(sys_c)
    assert sum(pruned_c.redundant) == redundant
    key = lambda q: (q.omitted, q.functional)
    assert sorted(map(key, pruned_c.essential())) == sorted(map(key, sys_d.inequalities))
    assert systems_equivalent(sys_c, sys_d)


def _variant(system, rows):
    return InequalitySystem(system.rs, system.s, system.mode, rows)


def test_orbit_pruning_matches_the_per_row_loop():
    """`redundant` lists equal the one-LP-per-row reference element for
    element, on closed systems and on two that are not closed under S_s."""
    cases = [(f, r, 3) for f, r in ALL_TYPES] + [(f, 2, 4) for f in "ABCG"]
    for family, rank, s in cases:
        g = group_for(family, rank)
        for mode in MODES:
            system = generate_system(g, s, mode)
            assert prune_redundant(system).redundant == redundant_reference(system), \
                (family, rank, s, mode)
    # one LP per orbit: B3 has 25 orbits of classical rows and 18 of deformed
    g = group_for("B", 3)
    sys_c = generate_system(g, 3, "classical")
    sys_d = generate_system(g, 3, "deformed")
    for system, orbits in ((sys_c, 25), (sys_d, 18)):
        labels = orbit_labels([q.flat() for q in system.inequalities], 3)
        assert len(set(labels)) == orbits
    # row 0 dropped: redundant row 94 loses the implication that row 0 gave
    # it, while rows 111 and 116 of its orbit stay redundant
    dropped = _variant(sys_c, sys_c.inequalities[1:])
    assert prune_redundant(dropped).redundant == redundant_reference(dropped)
    assert systems_equivalent(sys_c, dropped) is equivalent_reference(sys_c, dropped)
    # one row of an essential orbit twice: closed as a set, not as a multiset
    sys_b2 = generate_system(group_for("B", 2), 3, "deformed")
    doubled = _variant(sys_b2, sys_b2.inequalities + sys_b2.inequalities[:1])
    verdicts = prune_redundant(doubled).redundant
    assert verdicts == redundant_reference(doubled)
    assert sum(verdicts) == 2


def _orbit_labels_reference(rows, s):
    """Row k's label by brute force over every block permutation: when the
    rows, counted with multiplicity, are closed under all of them, the first
    row equal to some permutation of row k's blocks; otherwise the first
    equal copy of row k."""
    k = len(rows[0]) // s

    def images(row):
        blocks = [row[j * k:(j + 1) * k] for j in range(s)]
        return {sum(perm, ()) for perm in itertools.permutations(blocks)}

    count = Counter(rows)
    closed = all(count[m] == c for r, c in count.items() for m in images(r))
    labels = []
    for row in rows:
        same = images(row) if closed else {row}
        labels.append(next(i for i, r in enumerate(rows) if r in same))
    return labels


def test_orbit_labels_match_the_permutation_reference():
    """Sorted-block labels against every permutation of the blocks, on closed
    systems, on copies with one row dropped or one row duplicated, and on the
    rows whose last block is the largest (closed under swapping blocks 1 and
    2, not under rotating)."""
    for family, rank in (("B", 3), ("G", 2)):
        for s in (3, 4):
            for mode in MODES:
                flats = [q.flat() for q in generate_system(group_for(family, rank), s,
                                                           mode).inequalities]
                k = len(flats[0]) // s
                last_largest = [r for r in flats
                                if all(r[-k:] >= r[j * k:(j + 1) * k] for j in range(s))]
                for rows in (flats, flats[1:], flats + flats[:1], last_largest):
                    assert orbit_labels(rows, s) == _orbit_labels_reference(rows, s), \
                        (family, rank, s, mode, len(rows))
                # orbits merge rows of the closed system only
                assert len(set(orbit_labels(flats, s))) < len(set(flats))
                assert len(set(orbit_labels(flats[1:], s))) == len(set(flats[1:]))


def test_equivalence_uses_orbits_only_when_both_sides_are_closed():
    g = group_for("B", 2)
    sys_c = generate_system(g, 3, "classical")
    sys_d = generate_system(g, 3, "deformed")
    labels = orbit_labels([q.flat() for q in sys_d.inequalities], 3)
    # drop a row that is not the first of its orbit: the rows that remain
    # of that orbit lie in the smaller cone, the dropped one does not
    k = next(k for k, label in enumerate(labels) if label != k)
    smaller = _variant(sys_d, sys_d.inequalities[:k] + sys_d.inequalities[k + 1:])
    assert not equivalent_reference(sys_c, smaller)
    assert systems_equivalent(sys_c, smaller) is False
    assert systems_equivalent(smaller, sys_c) is False
    # the two row lists together are closed, neither is alone
    extra = _variant(sys_d, sys_d.inequalities + sys_d.inequalities[k:k + 1])
    assert systems_equivalent(smaller, extra) is False
    assert systems_equivalent(sys_c, sys_d) is equivalent_reference(sys_c, sys_d) is True


def test_lp_budget_is_checked_before_any_row_is_built():
    rs = group_for("A", 2).rs
    huge = InequalitySystem(rs, 1000, "classical", [])
    for check in (prune_redundant, lambda x: systems_equivalent(x, x)):
        with pytest.raises(BudgetError, match="cap 1000000"):
            check(huge)


def test_equivalence_sizes_each_side_by_the_other(monkeypatch):
    """A row of one system is tested against the other's rows plus dominance.
    The 12 A2 rows (4 orbits) against a system of those rows and their
    doubles (24 rows, 8 orbits) plan 4 LPs of 6 * (24 + 13) cells and 8 of
    6 * (12 + 13): 2,088 cells, where sizing every LP by the larger system
    planned 12 of 6 * (24 + 13) = 2,664."""
    a = generate_system(group_for("A", 2), 3, "classical")
    doubled = [q._replace(functional=tuple(tuple(2 * x for x in block) for block in q.functional))
               for q in a.inequalities]
    b = _variant(a, a.inequalities + doubled)
    monkeypatch.setattr(cones, "LP_RUN_CAP", 2088)
    assert systems_equivalent(a, b) and systems_equivalent(b, a)
    monkeypatch.setattr(cones, "LP_RUN_CAP", 2087)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(BudgetError, match="run cap 2087"):
            systems_equivalent(x, y)


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
                manual = sum(rs.eval_coweight(act_weight(w, omega).coords, h.coords)
                             for w, h in zip(ws, hs))
                assert q.value(hs) == manual
                assert len(q.flat()) == 3 * rs.rank


def test_inequality_blocks_match_the_word_fold():
    """Reading w^{-1}'s columns gives the blocks that folding the reduced word
    gives, for every element and every maximal parabolic."""
    cases = ALL_TYPES + [("D", 4), ("B", 4), ("C", 4), ("F", 4)]
    for family, rank in cases:
        for i0 in range(rank):
            ring = maximal_ring(family, rank, i0)
            ws = ring.group.elements
            assert tuple_inequality(ring, ws).functional == \
                inequality_blocks_reference(ring, ws), (family, rank, i0)


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
    for bad in ((-1, 0), (0, -1)):  # alpha_1, then only alpha_2, negative
        with pytest.raises(ValueError, match="is not dominant"):
            evaluate(system, (ok, Coweight(tuple(map(Fraction, bad)))))


def test_evaluate_checks_coweight_length():
    """A coweight with too few or too many coordinates is refused by name,
    never read as a member, as "not dominant" or as an IndexError."""
    system = generate_system(group_for("B", 3), 3, "deformed")
    for coords in ((0,), (2, 2), (1, 0, 0, 0)):
        h = Coweight(tuple(Fraction(c) for c in coords))
        with pytest.raises(ValueError, match=f"has {len(coords)} coordinates, expected 3 for B3"):
            evaluate(system, (h, h, h))


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


def _common_rows(system):
    """The rows of a B_n, C_n or A_{2n-1} system in the coordinates x of R^n,
    scaled to integers, then the rows of x_1 >= ... >= x_n >= 0 for every factor.

    A coweight of C_n has coroot coordinates t_k = x_1+...+x_k; one of B_n
    has the same for k < n and t_n = (x_1+...+x_n)/2, and B's rows are
    doubled.  One of A_{2n-1} in the Cartan of sp(2n), diag(x, -reversed x),
    has t_k = x_1+...+x_k for k <= n and t_{2n-k} = t_k, so A's blocks are
    first folded onto t_1..t_n.
    """
    family, m = system.rs.label[0], system.rs.rank
    n = (m + 1) // 2 if family == "A" else m
    scale = [2] * (n - 1) + [1] if family == "B" else [1] * n
    rows = []
    for q in system.inequalities:
        blocks = q.functional
        if family == "A":
            blocks = [[b[k] + b[m - 1 - k] for k in range(n - 1)] + [b[n - 1]] for b in blocks]
        rows.append(tuple(sum(c * a for c, a in zip(scale[i:], block[i:]))
                          for block in blocks for i in range(n)))
    for j in range(system.s):
        for i in range(n):
            row = [0] * (system.s * n)
            row[j * n + i] = -1
            if i + 1 < n:
                row[j * n + i + 1] = 1
            rows.append(tuple(row))
    return rows


def _assert_symplectic_cone_agrees(family: str, rank: int, n: int) -> None:
    """In both modes, each row of the (family, rank) system and of C_n, in the
    common coordinates x, lies in the other side's cone."""
    for mode in MODES:
        rows, c_rows = (_common_rows(generate_system(group_for(f, r), 3, mode))
                        for f, r in ((family, rank), ("C", n)))
        for mine, other in ((rows, c_rows), (c_rows, rows)):
            shared = set(other)
            assert all(r in shared or cone_contains(r, other) for r in mine), (rank, mode)


@pytest.mark.parametrize("rank", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_odd_orthogonal_and_symplectic_cones_agree(rank):
    """Belkale-Kumar: the eigencones of so(2n+1) and sp(2n) are one cone in
    the common coordinates x; each side's rows lie in the other's cone."""
    _assert_symplectic_cone_agrees("B", rank, rank)


def test_deformed_odd_orthogonal_and_symplectic_rows_agree_through_rank_five():
    """Belkale-Kumar without LPs: in the common coordinates x the deformed
    B_n and C_n systems at s = 3 have the same rows up to positive scaling
    for n = 2..5, so they cut out one cone.  At n = 5 the LP comparison is
    out of budget."""
    counts = []
    for n in range(2, 6):
        sys_b, sys_c = (generate_system(group_for(f, n), 3, "deformed") for f in "BC")
        rows = {primitive(r) for r in _common_rows(sys_b)}
        assert rows == {primitive(r) for r in _common_rows(sys_c)}, n
        counts.append((len(sys_b.inequalities), len(sys_c.inequalities), len(rows)))
    # the row sets are counted with the dominance rows
    assert counts == [(18, 18, 24), (93, 93, 102), (474, 474, 486), (2421, 2421, 2436)]
    assert len(generate_system(group_for("D", 5), 3, "deformed").inequalities) == 1967


@pytest.mark.parametrize("n", [2, 3])
def test_symplectic_cone_is_the_special_linear_cone_on_its_coweights(n):
    """Belkale-Kumar: Gamma(sp(2n)) = Gamma(sl(2n)) cut by the Cartan of sp(2n).
    The A_{2n-1} rows restricted there (t_{2n-k} = t_k) and the C_n rows cut
    out one cone of x-dominant tuples."""
    _assert_symplectic_cone_agrees("A", 2 * n - 1, n)


def _reference_cases():
    """Every rank <= 3 type and A4, D4, B4 and C4, at s = 3 and 4 in both
    modes.  The id is the type, then the mode and s where they are not
    deformed at s = 3."""
    for family, rank in ALL_TYPES + [("A", 4), ("D", 4), ("B", 4), ("C", 4)]:
        for s in (3, 4):
            for mode in MODES:
                tag = ("" if mode == "deformed" else f"-{mode}") + ("" if s == 3 else f"-s{s}")
                yield pytest.param(family, rank, mode, s, id=f"{family}-{rank}{tag}")


@pytest.mark.parametrize("family,rank,mode,s", _reference_cases())
def test_gaps_first_generation_matches_the_movability_reference(family, rank, mode, s):
    """Generation walks tuple prefixes and skips one that cannot reach a
    balanced zero-gap tuple, before folding its product; the inequalities,
    in order, are those of `is_levi_movable` run on every dimension tuple.
    At s = 4 a two-factor prefix is pruned by the sums two more factors can
    reach, a table that s = 3 reads only at the first factor."""
    g = group_for(family, rank)
    assert generate_system(g, s, mode).inequalities == movable_rows_reference(g, s, mode)


@pytest.mark.parametrize("family,rank,s,mode,constants", [
    ("F", 4, 3, "deformed", 1242),
    ("F", 4, 3, "classical", 5263),
    ("B", 4, 3, "deformed", 336),
    ("C", 4, 4, "deformed", 355)])
def test_generation_folds_only_prefixes_of_zero_gap_tuples(family, rank, s, mode, constants):
    """The structure constants generation computes, on a group of its own: a
    walk that pruned on codimension alone would fold every prefix of a
    balanced tuple, and F4 deformed would read 5,263 as classical does."""
    g = weyl_group(RootSystem(CartanType(family, rank)))
    generate_system(g, s, mode)
    assert len(schubert_basis(g)._products) == constants


@pytest.mark.parametrize("rank,rows", [(2, 12), (3, 41), (4, 142)])
def test_type_a_rows_are_horns_inequalities(rank, rows):
    """For SL(n) both modes give exactly the rows of Horn's recursive T^n_r
    (Knutson-Tao-Woodward: the system is irredundant), built with no Schubert
    calculus."""
    expect = horn_rows(rank + 1)
    assert len(expect) == rows
    g = group_for("A", rank)
    for mode in MODES:
        flats = [q.flat() for q in generate_system(g, 3, mode).inequalities]
        assert len(flats) == rows and set(flats) == expect, mode


def test_type_a2_membership_is_littlewood_richardson_positivity():
    """Knutson-Tao saturation: for partitions lam, mu and nu with at most
    three parts and |nu| = |lam| + |mu|, the centred eigenvalue triple
    (lam, mu, -reversed nu) lies in the A2 cone exactly when c^nu_{lam,mu} > 0."""
    rng = random.Random(20261019)

    def partition():
        return tuple(sorted((rng.randint(0, 4) for _ in range(3)), reverse=True))

    def coweight(x):
        # coroot coordinates of diag(x) - mean: the partial sums
        mean = Fraction(sum(x), 3)
        return Coweight((x[0] - mean, x[0] + x[1] - 2 * mean))

    systems = [generate_system(group_for("A", 2), 3, mode) for mode in MODES]
    positive = 0
    for _ in range(300):
        lam, mu = partition(), partition()
        total = sum(lam) + sum(mu)
        nu = rng.choice([(a, b, total - a - b) for a in range(total + 1)
                         for b in range(a + 1) if 0 <= total - a - b <= b])
        expect = lr_coefficient(lam, mu, nu) > 0
        hs = (coweight(lam), coweight(mu), coweight(tuple(-v for v in reversed(nu))))
        for system in systems:
            assert evaluate(system, hs).member is expect, (lam, mu, nu, system.mode)
        positive += expect
    assert positive == 88


def test_type_a5_horn_rows_cut_out_the_generated_cone():
    """At A5 Horn's recursion gives one row more than the 521 of either mode:
    the triple (1,3,5), (1,3,5), (2,4,6) of T^6_3, whose LR coefficient
    c^{321}_{21,21} is 2, while generation keeps coefficient-1 tuples.  That
    row lies in the cone of the generated rows and dominance, so the two
    systems cut out the same cone."""
    expect = horn_rows(6)
    extra = horn_row(6, (1, 3, 5), (1, 3, 5), (2, 4, 6))
    assert len(expect) == 522 and extra in expect
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    g = group_for("A", 5)
    for mode in MODES:
        system = generate_system(g, 3, mode)
        flats = [q.flat() for q in system.inequalities]
        assert len(flats) == 521 and set(flats) == expect - {extra}, mode
        assert cone_contains(extra, cone_rows(system)), mode


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


def test_generate_system_budget(monkeypatch):
    monkeypatch.setattr(weyl, "TUPLE_CAP", 10)
    with pytest.raises(BudgetError, match="enumeration bound exceeds cap 10 for A2, s=3"):
        generate_system(group_for("A", 2), 3, "classical")


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_from_dict_reads_what_as_dict_writes(family, rank):
    for mode in MODES:
        system = generate_system(group_for(family, rank), 3, mode)
        assert InequalitySystem.from_dict(system.as_dict()) == system


def test_from_dict_of_a_pruned_system_is_the_unpruned_system():
    system = generate_system(group_for("B", 2), 3, "classical")
    pruned = prune_redundant(system)
    assert any(pruned.redundant)
    loaded = InequalitySystem.from_dict(pruned.as_dict())
    assert loaded.redundant is None and loaded == system


def test_as_dict_shapes():
    system = prune_redundant(generate_system(group_for("A", 2), 3, "deformed"))
    d = system.as_dict()
    assert d["system"] == "A2" and d["s"] == 3 and d["mode"] == "deformed"
    assert d["count"] == 12 and d["essential_count"] == 12
    for q in d["inequalities"]:
        assert q["parabolic"] in (1, 2)
        assert all(i >= 1 for w in q["words"] for i in w)
        assert all(len(b) == 2 for b in q["functional"])
