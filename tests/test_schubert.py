"""Structure constants by localization, their divided-difference references and the disk cache."""

import hashlib
import json
import random
import zlib
from itertools import combinations
from pathlib import Path

import pytest

from schubdeform import deformed_ring, parabolic, schubert_basis
from schubdeform.poly import Poly
from schubdeform.schubert import SchubertBasis, divided_difference

import oracles
from common import ALL_TYPES, group_for


def test_divided_difference_basics():
    rs = group_for("A", 2).rs
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    # kills invariants
    assert divided_difference(rs, 0, Poly.const(2, 3)).is_zero()
    inv = x * x + x * y + y * y
    assert divided_difference(rs, 0, inv).is_zero()
    # lowers degree by one on a non-invariant
    out = divided_difference(rs, 0, x * y)
    assert out.degree() == 1
    # twisted Leibniz rule: d_i(fg) = (d_i f) g + (s_i f)(d_i g)
    f = x + y
    g = x * y
    lhs = divided_difference(rs, 0, f * g)
    rhs = divided_difference(rs, 0, f) * g + \
        f.reflect_substitute(0, rs.cartan[0]) * divided_difference(rs, 0, g)
    assert lhs == rhs


def test_divided_difference_square_zero():
    rs = group_for("B", 2).rs
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    for p in (x * x * y, (x + y) * (x + y), x * y * y):
        for i in range(2):
            once = divided_difference(rs, i, p)
            assert divided_difference(rs, i, once).is_zero()


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_product_symmetry_and_grading(family, rank):
    g = group_for(family, rank)
    basis = schubert_basis(g)
    for u in g.elements:
        for v in g.elements:
            if u.index > v.index:
                continue
            row = basis.product(u, v)
            assert row == basis.product(v, u)
            for w_idx, c in row.items():
                w = g.elements[w_idx]
                assert w.length == u.length + v.length
                assert isinstance(c, int) and c > 0


def test_unit_and_point():
    g = group_for("B", 2)
    basis = schubert_basis(g)
    e = g.identity
    for w in g.elements:
        assert basis.product(e, w) == {w.index: 1}
    w_o = g.longest_element()
    assert basis.product(w_o, w_o) == {}


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                         ("C", 3), ("G", 2)])
def test_chevalley_oracle_full_flag(family, rank):
    """Degree-1 products from the reflection-sum rule match the computed ones."""
    g = group_for(family, rank)
    basis = schubert_basis(g)
    borel = parabolic(g, ())
    for i in range(rank):
        s_i = g.simple_reflection(i)
        for w in g.elements:
            if w.length + 1 > g.rs.num_positive_roots:
                continue
            assert oracles.chevalley_oracle(borel, i, w) == basis.product(s_i, w)


def test_chevalley_oracle_parabolic():
    g = group_for("A", 3)
    p = parabolic(g, (0, 2))
    basis = schubert_basis(g)
    for w in p.reps:
        if w.length + 1 > p.dim:
            continue
        got = oracles.chevalley_oracle(p, 1, w)
        full = basis.product(g.simple_reflection(1), w)
        assert got == {k: c for k, c in full.items() if p.contains(g.elements[k])}
    with pytest.raises(ValueError):
        oracles.chevalley_oracle(p, 0, g.identity)


def test_products_match_whole_polynomial_reference():
    """Every G/B product of every rank <= 3 type against the rational reference, and
    the exact-division and sign check on a restriction made wrong on purpose: the
    diagonal entry xi^x(x) of a target x, one larger (3/4) or negated (3/-3)."""
    for family, rank in ALL_TYPES:
        g = group_for(family, rank)
        basis = SchubertBasis(g)
        table = {(u.index, v.index): basis.product(u, v)
                 for u in g.elements for v in g.elements[u.index:]
                 if u.length + v.length <= g.rs.num_positive_roots}
        assert table == oracles.divided_difference_table(g), (family, rank)
    g = group_for("B", 2)
    u, v = g.simple_reflection(0), g.simple_reflection(1)
    x = g.mult(v, u)
    assert x.index in SchubertBasis(g).product(u, v)
    for wrong in (lambda c: c + 1, lambda c: -c):
        basis = SchubertBasis(g)
        row = basis._restriction(x)
        row[x.index] = wrong(row[x.index])
        with pytest.raises(AssertionError, match="non-integral or negative"):
            basis.product(u, v)


@pytest.mark.parametrize("family,digest", [
    ("A", "eefdfc764d99a2aa5463494bbc6e4d5169ce2befdccfeaedf7ab959a721f8c0a"),
    ("D", "fda95e7ed317d8ee4ef8f3516404e2efe945d58100f025617ebb27f8b658843b"),
    pytest.param("B", "f53013b31bdc447a10c198de4b6a00d207dc6ac35b235dc1d6ace845ad4e24ba",
                 marks=pytest.mark.slow),
    pytest.param("C", "4c125625b947641d503f3362ecc124d2d5e7026e50575e60f5acc967b468cbbe",
                 marks=pytest.mark.slow)], ids=["A4", "D4", "B4", "C4"])
def test_every_rank_four_product_matches_its_pinned_digest(family, digest):
    """Every G/B product class(u)*class(v), u <= v, of a rank-4 type, hashed as
    the keyed JSON object of cache format 2.  The digests were recorded from
    the divided-difference kernel (P_u P_v dotted against per-monomial
    functionals)."""
    g = group_for(family, 4)
    basis = SchubertBasis(g)
    top = g.rs.num_positive_roots
    for u in g.elements:
        for v in g.elements[u.index:]:
            if u.length + v.length <= top:
                basis.product(u, v)
    keyed = {f"{u},{v}": {str(w): c for w, c in sorted(row.items())}
             for (u, v), row in sorted(basis._products.items())}
    payload = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,rank,pairs", [
    ("A", 4, 60), ("D", 4, 60),
    pytest.param("B", 4, 40, marks=pytest.mark.slow),
    pytest.param("C", 4, 40, marks=pytest.mark.slow),
    pytest.param("F", 4, 8, marks=pytest.mark.slow)])
def test_descent_rule_matches_every_target_loop(family, rank, pairs):
    """Rows of sampled rank-4 G/B products, computed only on the targets w with
    D(w) inside D(u) | D(v), equal the rows that take every target of the
    right length.  Some nonzero constant has a descent that u lacks, and some
    one that v lacks, so a rule reading the descents of one factor fails."""
    g = group_for(family, rank)
    basis, reference, functionals = SchubertBasis(g), SchubertBasis(g), {}
    rng = random.Random(20261019)
    top = g.rs.num_positive_roots
    outside_u = outside_v = 0
    for _ in range(pairs):
        u = rng.choice(g.elements)
        v = rng.choice([x for x in g.elements if u.length + x.length <= top])
        row = basis.product(u, v)
        assert row == oracles.product_every_target(reference, u, v, functionals), (u, v)
        targets = [g.elements[k] for k in row]
        outside_u += any(w.descents & ~u.descents for w in targets)
        outside_v += any(w.descents & ~v.descents for w in targets)
    assert outside_u and outside_v


def _subsets(indices):
    for size in range(len(indices) + 1):
        yield from combinations(indices, size)


def test_chevalley_oracle_levi_quotients():
    """Degree-1 products on every Levi quotient L/(L cap Q) against the reflection-sum rule.

    Every Levi of the rank-3 types and G2, and every proper Levi of A4: the
    whole A4 Levi is the A4 flag variety, whose degree-1 table alone takes
    about 35 s.  The products come from the group's basis, restricted to W_L.
    """
    cases = 0
    for family, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 3), ("G", 2), ("A", 4)]:
        g = group_for(family, rank)
        for levi in _subsets(range(rank)):
            if rank == 4 and len(levi) == rank:
                continue
            basis = schubert_basis(g)
            for q in _subsets(levi):
                sub = parabolic(g, q, within=levi)
                for i in sub.omitted:
                    for w in sub.reps:
                        if w.length + 1 > sub.dim:
                            continue
                        full = basis.product(g.simple_reflection(i), w)
                        assert oracles.chevalley_oracle(sub, i, w) == {
                            k: c for k, c in full.items() if sub.contains(g.elements[k])}
                        cases += 1
    assert cases == 1596


@pytest.mark.parametrize("family,rank,within,alone", [
    ("B", 3, (1, 2), ("B", 2)),
    ("A", 3, (0, 1), ("A", 2)),
])
def test_levi_quotient_matches_standalone_ring(family, rank, within, alone):
    """A Levi quotient of W has the table of the standalone group under the index shift."""
    g, h = group_for(family, rank), group_for(*alone)
    shift = within[0]
    for q in _subsets(within):
        levi_ring = deformed_ring(parabolic(g, q, within=within))
        ring = deformed_ring(parabolic(h, [i - shift for i in q]))
        assert [tuple(i - shift for i in u.word) for u in levi_ring.reps] == \
            [u.word for u in ring.reps]
        # the two rings' representatives, matched in rep order
        alone_of = dict(zip(levi_ring.reps, ring.reps))
        assert [levi_ring.labels[u] for u in levi_ring.reps] == \
            [ring.labels[u] for u in ring.reps]
        for u, u_alone in alone_of.items():
            for v, v_alone in alone_of.items():
                coeffs = levi_ring.deformed_product(u, v).coeffs
                assert {alone_of[w]: mono for w, mono in coeffs.items()} == \
                    ring.deformed_product(u_alone, v_alone).coeffs


def test_cache_round_trip(tmp_path):
    g = group_for("B", 2)
    fresh = SchubertBasis(g)
    fresh.use_cache_dir(tmp_path)
    u = g.simple_reflection(0)
    v = g.simple_reflection(1)
    row = fresh.product(u, v)
    fresh.save_cache()
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    reloaded = SchubertBasis(g)
    reloaded.use_cache_dir(tmp_path)
    assert reloaded._products[(min(u.index, v.index), max(u.index, v.index))] == row
    assert reloaded.product(u, v) == row


def test_cache_rejects_corruption(tmp_path):
    g = group_for("A", 2)
    fresh = SchubertBasis(g)
    fresh.use_cache_dir(tmp_path)
    fresh.product(g.simple_reflection(0), g.simple_reflection(1))
    fresh.save_cache()
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    rows = json.loads(doc["entries"])
    first = next(pairs for _, _, pairs in rows if pairs)
    first[0][1] += 1  # tamper without updating the digest
    doc["entries"] = json.dumps(rows, separators=(",", ":"))
    path.write_text(json.dumps(doc))
    clean = SchubertBasis(g)
    clean.use_cache_dir(tmp_path)
    assert clean._products == {}  # checksum mismatch ignored


@pytest.mark.parametrize("entries,stored", [
    ("[[1,2,[[3,1]]]]", {(1, 2): {3: 1}}),  # well formed: read
    ('{"1,2":{"3":1}}', {}),  # the keyed object of format 2
    ("[[1,2]]", {}),  # a row without its constants
    ("[[1,2,[[3]]]]", {}),  # a constant without its element
    ("[[1,2,[[3,1.0]]]]", {}),
    ("[[1,2,[[3,true]]]]", {}),
    ('[[1,2,[["3",1]]]]', {}),
    ("[[1,2,[[3,[1]]]]]", {}),
    ("[[2,1,[[3,1]]]]", {}),  # u > v is never written
    ("[[1,2,[[6,1]]]]", {}),  # A2 has elements 0..5
    ("[[1,2,[[-1,1]]]]", {}),
    ("[[[1],2,[]]]", {}),
    ("7", {}),
    ("[" * 100_000, {}),  # nested past the parser's limit
])
def test_cache_reads_only_integer_rows_it_could_have_written(tmp_path, entries, stored):
    """A file with a good checksum over entries of the wrong shape is ignored."""
    g = group_for("A", 2)
    basis = SchubertBasis(g)
    basis.use_cache_dir(tmp_path)
    basis.product(g.simple_reflection(0), g.simple_reflection(1))
    basis.save_cache()
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    doc.update(entries=entries, crc32=zlib.crc32(entries.encode()))
    path.write_text(json.dumps(doc))
    clean = SchubertBasis(g)
    clean.use_cache_dir(tmp_path)
    assert clean._products == stored


def test_cache_ignores_other_group(tmp_path):
    a2 = group_for("A", 2)
    b2 = group_for("B", 2)
    first = SchubertBasis(a2)
    first.use_cache_dir(tmp_path)
    first.product(a2.simple_reflection(0), a2.simple_reflection(1))
    first.save_cache()
    path = next(tmp_path.glob("*.json"))
    renamed = path.with_name(path.name.replace("A2", "B2"))
    path.rename(renamed)
    other = SchubertBasis(b2)
    other.use_cache_dir(tmp_path)
    assert other._products == {}  # Cartan matrix mismatch ignored


def test_concurrent_saves_do_not_take_each_others_temporary_file(tmp_path, monkeypatch):
    """Runs sharing a cache directory may save at the same moment.  Here a
    second writer saves between the first one's write and its rename: each
    renames a temporary file of its own, so both succeed and leave one
    complete file and no temporary one."""
    g = group_for("A", 2)
    first, second = SchubertBasis(g), SchubertBasis(g)
    u, v = g.simple_reflection(0), g.simple_reflection(1)
    for basis in (first, second):
        basis.use_cache_dir(tmp_path)
        row = basis.product(u, v)
    replace, waiting = Path.replace, [second]

    def interleaved(self, target):
        if waiting:
            waiting.pop().save_cache()
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", interleaved)
    first.save_cache()
    assert not waiting
    assert [f.name for f in tmp_path.iterdir()] == ["constants-A2.json"]
    reloaded = SchubertBasis(g)
    reloaded.use_cache_dir(tmp_path)
    assert reloaded._products == {(u.index, v.index): row}


def test_levi_flag_varieties_restrict_the_group_basis():
    """Every product on L/B_L, for every nonempty proper Levi of every rank <= 3 type,
    against the basis of W_L built on its own: top class prod(positive roots of L),
    division by |W_L|^2 and ascents inside L.  The ring reads them from the group's
    basis, dropping the classes outside W_L; a product past the top degree of L is 0."""
    cases = 0
    for family, rank in ALL_TYPES:
        g = group_for(family, rank)
        for levi in _subsets(range(rank)):
            if not 0 < len(levi) < rank:
                continue
            ring = deformed_ring(parabolic(g, (), within=levi))
            p = ring.parabolic
            table = oracles.divided_difference_table(g, levi)
            for u in p.reps:
                for v in p.reps:
                    row = table.get((min(u.index, v.index), max(u.index, v.index)), {})
                    expect = {p.iota(g.elements[k]): c for k, c in row.items()}
                    assert ring.classical_product(p.iota(u), p.iota(v)) == expect, \
                        (family, rank, levi, u, v)
                    cases += 1
    assert cases == 488
