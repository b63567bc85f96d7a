"""End-to-end acceptance gate, one test per shipped guarantee.

Each test prints one PASS line with its headline numbers; sweep totals are
asserted exactly so that a silent loss of coverage fails the gate.  Run with
`pytest -v tests/test_acceptance.py` to get one verdict line per criterion.
"""

import itertools
import random
from fractions import Fraction

import pytest

from schubdeform import (
    cone_contains,
    crosscheck_gb,
    deformed_ring,
    dual_coweight,
    evaluate,
    generate_system,
    parabolic,
    prune_redundant,
    schubert_basis,
    systems_equivalent,
    verify_all,
)
from schubdeform.cones import dominance_rows
from schubdeform.horn import (
    check_character,
    check_dimension,
    check_refined,
    dimension_tuples,
)

import oracles
from common import ALL_TYPES, GB_TYPES, all_rings, group_for, maximal_ring, ring_for


def combination_coweight(rs, coeffs):
    """Nonnegative combination of fundamental coweights, hence dominant."""
    return tuple(
        sum(Fraction(c) * rs.cartan_inv[i][k] for i, c in enumerate(coeffs))
        for k in range(rs.rank))


def test_criterion_01_golden_tables():
    """Every bundled multiplication table is reproduced exactly.

    Matching means a degree-preserving relabeling under which every product
    entry agrees in both coefficients and deformation exponents; the found
    bijections are printed.
    """
    results = verify_all()
    assert len(results) == 4
    for r in results:
        assert r.matched, f"{r.name}: {r.detail}"
        assert r.bijection
        print(f"  {r.name}: "
              + ", ".join(f"{a}={b}" for a, b in sorted(r.bijection.items())))
    print("PASS criterion 1: all four golden tables verified with explicit "
          "bijections")


MINUSCULE_SPACES = [("B", 3, 0), ("C", 3, 2), ("A", 3, 0), ("A", 3, 1),
                    ("A", 3, 2)]


def test_criterion_02_minuscule_collapse():
    """On minuscule spaces the deformed product is the classical product."""
    products = 0
    for family, rank, omit in MINUSCULE_SPACES:
        ring = maximal_ring(family, rank, omit)
        assert ring.is_minuscule()
        for u in ring.reps:
            for v in ring.reps:
                dc = ring.deformed_product(u, v)
                for terms in dc.coeffs.values():
                    assert all(not any(e) for e in terms), (family, rank, omit)
                assert dc.at_zero() == dc.classical() == \
                    ring.classical_product(u, v)
                products += 1
    print(f"PASS criterion 2: no deformation exponent in {products} products "
          f"on {len(MINUSCULE_SPACES)} minuscule spaces")


def test_criterion_03_duality():
    """v times the dual of w at tau=0 is the point class exactly when v=w."""
    pairs = 0
    for family, rank in ALL_TYPES:
        for ring in all_rings(family, rank):
            p = ring.parabolic
            for v in ring.reps:
                for w in ring.reps:
                    if v.length != w.length:
                        continue
                    prod = ring.product0(v, p.iota(w))
                    assert prod == ({ring.point(): 1} if v == w else {}), \
                        (family, rank, p.levi, v.word, w.word)
                    pairs += 1
    assert pairs == 1637
    print(f"PASS criterion 3: duality holds for all {pairs} equal-length "
          "pairs on every parabolic of every rank <= 3 type")


def test_criterion_04_commutative_associative():
    """The deformed product is commutative and associative, exhaustively."""
    ordered_pairs = 0
    triples = 0
    for family, rank in ALL_TYPES:
        for ring in all_rings(family, rank):
            classes = [ring.basis_class(w) for w in ring.reps]
            for a, b in itertools.product(classes, repeat=2):
                assert ring.multiply(a, b) == ring.multiply(b, a)
                ordered_pairs += 1
            for a, b, c in itertools.combinations_with_replacement(classes, 3):
                left = ring.multiply(ring.multiply(a, b), c)
                right = ring.multiply(a, ring.multiply(b, c))
                assert left == right, (family, rank, ring.parabolic.levi)
                triples += 1
    assert triples == 64341
    print(f"PASS criterion 4: {ordered_pairs} ordered pairs commute and "
          f"{triples} triples associate over every rank <= 3 parabolic")


def test_criterion_05_full_flag_rule():
    """Degenerate structure constants on the full flag match the root-set rule.

    The alternative computation multiplies inversion sets: the product of two
    basis classes is the unique class whose inversion set is the disjoint
    union, or zero when no such class exists.
    """
    total = 0
    for family, rank in GB_TYPES:
        g = group_for(family, rank)
        report = crosscheck_gb(ring_for(family, rank))
        assert report.passed and not report.mismatches, report.label
        assert report.pairs == len(g.elements) ** 2
        total += report.pairs
    print(f"PASS criterion 5: inversion-set rule matches on {total} pairs "
          f"across {len(GB_TYPES)} full flag varieties")


def test_criterion_06_horn_soundness():
    """Necessary inequalities hold on every applicable tuple; zero violations.

    Character sums are checked on every length-3 tuple with nonzero classical
    product over every rank <= 3 parabolic; refined class-by-class versions on
    every Levi-movable tuple; dimension bounds on sampled nested-parabolic
    data.
    """
    balanced = nonzero = movable = 0
    for family, rank in ALL_TYPES:
        for ring in all_rings(family, rank):
            p = ring.parabolic
            for ws in dimension_tuples(p, 3):
                balanced += 1
                if ring.point_coefficient(ws) == 0:
                    continue
                nonzero += 1
                assert check_character(ring, ws).passed, \
                    (family, rank, p.levi, [w.word for w in ws])
                if ring.is_levi_movable(ws).movable:
                    movable += 1
                    assert check_refined(ring, ws).passed, \
                        (family, rank, p.levi, [w.word for w in ws])
    assert (balanced, nonzero, movable) == (20942, 7294, 1943)

    dimension_checks = 0
    for family in ("B", "C"):
        ring = ring_for(family, 3, (0, 2))
        p = ring.parabolic
        ambient = [ws for ws in dimension_tuples(p, 3)
                   if ring.point_coefficient(ws) != 0][:5]
        for q in [(), (0,), (2,), (0, 2)]:
            qh = tuple(sorted(set(q) | {1}))
            sub_ring = deformed_ring(parabolic(ring.group, q, within=p.levi))
            utuples = [us for us in dimension_tuples(sub_ring.parabolic, 3)
                       if sub_ring.point_coefficient(us) != 0][:3]
            for ws in ambient:
                for us in utuples:
                    rep = check_dimension(ring, ws, q, qh, tuple(us))
                    assert rep.applicable and rep.passed, \
                        (family, q, [w.word for w in ws])
                    dimension_checks += 1
    assert dimension_checks >= 100
    print(f"PASS criterion 6: {nonzero} character reports, {movable} refined "
          f"reports, {dimension_checks} dimension reports, zero violations "
          f"({balanced} balanced tuples scanned)")


def test_criterion_07_oracle_equivalence():
    """Structure constants agree with two independent oracles.

    Divisor products on every full flag variety are recomputed by the
    reflection-sum recursion; products on the Grassmannian of planes in
    4-space are recomputed by the tableau rule.  All constants are
    nonnegative integers.
    """
    divisor_products = 0
    for family, rank in ALL_TYPES:
        g = group_for(family, rank)
        basis = schubert_basis(g)
        borel = parabolic(g, ())
        for i in range(rank):
            s_i = g.simple_reflection(i)
            for w in g.elements:
                if w.length + 1 > g.rs.num_positive_roots:
                    continue
                got = basis.product(s_i, w)
                assert oracles.chevalley_oracle(borel, i, w) == got, (family, rank, i)
                assert all(isinstance(c, int) and c >= 0 for c in got.values())
                divisor_products += 1

    ring = ring_for("A", 3, (0, 2))
    p = ring.parabolic
    pmap = {w: oracles.grassmannian_partition(
        oracles.one_line(p.iota(w).word, 4), 2)
        for w in ring.reps}
    tableau_pairs = 0
    for u in ring.reps:
        for v in ring.reps:
            got = {pmap[w]: c for w, c in ring.classical_product(u, v).items()}
            want = oracles.lr_product(pmap[u], pmap[v], 2, 2)
            assert got == want, (u.word, v.word, got, want)
            assert all(isinstance(c, int) and c >= 0 for c in got.values())
            tableau_pairs += 1
    assert tableau_pairs == 36
    print(f"PASS criterion 7: {divisor_products} divisor products match the "
          f"reflection-sum oracle; all {tableau_pairs} Grassmannian pairs "
          "match the tableau oracle")


def test_criterion_08_eigencone_counts():
    """Headline inequality counts and exact polyhedral equivalence.

    For both rank-3 non-simply-laced types with three factors: the classical
    system has 126 tuple inequalities (135 rows with the 9 dominance rows) of
    which exactly 33 are redundant; the degenerate-product system has the 93
    essential ones with none redundant; the two systems cut out the same cone.
    """
    for family in ("B", "C"):
        g = group_for(family, 3)
        sys_c = generate_system(g, 3, "classical")
        sys_d = generate_system(g, 3, "deformed")
        if len(sys_c.inequalities) != 126 or len(sys_d.inequalities) != 93:
            per_s = {}
            for s in (2, 3, 4):
                per_s[s] = (len(generate_system(g, s, "classical").inequalities),
                            len(generate_system(g, s, "deformed").inequalities))
            pytest.fail(f"{family}3 inequality counts (classical, deformed) "
                        f"per factor count: {per_s}")
        dom = dominance_rows(g.rs, 3)
        assert len(dom) == 9
        assert len(sys_c.inequalities) + len(dom) == 135

        pruned_c = prune_redundant(sys_c)
        assert sum(pruned_c.redundant) == 33, f"{family}3 classical"
        assert len(pruned_c.essential()) == 93
        pruned_d = prune_redundant(sys_d)
        assert sum(pruned_d.redundant) == 0, f"{family}3 deformed"

        # every dominance row is essential in the combined 135-row system
        flats = [q.flat() for q in sys_c.inequalities]
        for k, row in enumerate(dom):
            others = flats + dom[:k] + dom[k + 1:]
            assert not cone_contains(row, others), f"{family}3 dominance {k}"

        key = lambda q: (q.omitted, q.functional)
        assert {key(q) for q in pruned_c.essential()} == \
            {key(q) for q in sys_d.inequalities}
        assert systems_equivalent(sys_c, sys_d)
    print("PASS criterion 8: B3 and C3 triple systems have 126+9=135 rows, "
          "33 redundant, 93 essential = the zero-redundancy degenerate "
          "system, and the two cones coincide exactly")


# violations of the constructed non-member triple, per type label
NONMEMBER_VIOLATIONS = {"A1": 1, "A2": 2, "A3": 9, "B2": 6, "B3": 28,
                        "C2": 6, "C3": 34, "D3": 9, "G2": 11}


def test_criterion_09_membership():
    """Randomized members and a constructed non-member per type.

    Any (h, -w_o h, 0) with h dominant must be accepted; the lopsided triple
    (10r, r/10, r/10) with r the sum of the fundamental coweights must be
    rejected with the frozen number of violated inequalities.
    """
    for family, rank in ALL_TYPES:
        g = group_for(family, rank)
        rs = g.rs
        system = generate_system(g, 3, "classical")
        zero = (Fraction(0),) * rank
        rng = random.Random(20260825)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(0, 20), rng.randint(1, 5))
                      for _ in range(rank)]
            h = combination_coweight(rs, coeffs)
            verdict = evaluate(system, (h, dual_coweight(g, h), zero))
            assert verdict.member, (family, rank, coeffs)

        r = combination_coweight(rs, (1,) * rank)
        big = tuple(10 * c for c in r)
        small = tuple(c / 10 for c in r)
        verdict = evaluate(system, (big, small, small))
        assert not verdict.member, (family, rank)
        assert len(verdict.violations) == NONMEMBER_VIOLATIONS[rs.label]
        assert all(value > 0 for _, value in verdict.violations)
    print(f"PASS criterion 9: 100 random members accepted per type and the "
          f"constructed non-member rejected with "
          f"{sum(NONMEMBER_VIOLATIONS.values())} violations total")
