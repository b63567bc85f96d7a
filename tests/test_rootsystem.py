"""Root system construction and exact linear algebra."""

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from schubdeform import CartanType, build_root_system, root_system
from schubdeform.rootsystem import cartan_matrix

from common import ALL_TYPES, CACHE_ENV_VAR, TYPES_TO_RANK_8
from oracles import reflect, rho, root_coroot, to_fweight
from test_transcripts import _wrong_transcripts

ROOTS_PINS = Path(__file__).resolve().parent / "roots_transcripts.json"

# |W| of each family (Bourbaki, Plates I-IX)
WEYL_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2 ** n * factorial(n),
    "C": lambda n: 2 ** n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51_840, 7: 2_903_040, 8: 696_729_600}[n],
    "F": lambda n: 1_152,
    "G": lambda n: 12,
}


def test_cartan_matrices_known():
    assert cartan_matrix(CartanType("A", 2)) == ((2, -1), (-1, 2))
    assert cartan_matrix(CartanType("G", 2)) == ((2, -3), (-1, 2))
    # B3: node 3 is the short root, C3: node 3 is the long root
    assert cartan_matrix(CartanType("B", 3)) == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert cartan_matrix(CartanType("C", 3)) == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    # D4: node 2 is the branch point
    assert cartan_matrix(CartanType("D", 4)) == (
        (2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
    # E6: chain 1-3-4-5-6 with node 2 on node 4
    assert cartan_matrix(CartanType("E", 6)) == (
        (2, 0, -1, 0, 0, 0), (0, 2, 0, -1, 0, 0), (-1, 0, 2, -1, 0, 0),
        (0, -1, -1, 2, -1, 0), (0, 0, 0, -1, 2, -1), (0, 0, 0, 0, -1, 2))
    # F4: nodes 1 and 2 are long, 3 and 4 short
    assert cartan_matrix(CartanType("F", 4)) == (
        (2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))


@pytest.mark.parametrize("family,rank", TYPES_TO_RANK_8)
def test_lengths_symmetrize_cartan_and_counts_match(family, rank):
    ct = CartanType(family, rank)
    rs = build_root_system(ct)
    d, a = rs.lengths, rs.cartan
    assert all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(rank) for j in range(rank))
    assert rs.num_positive_roots == ct.num_positive_roots
    assert rs.weyl_order() == WEYL_ORDERS[family](rank)


def test_roots_transcripts_in_one_process(capsys, monkeypatch):
    """`roots` output for the types the benchmark's pins never reach."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    jobs = json.loads(ROOTS_PINS.read_text())["jobs"]
    assert list(jobs) == [f"roots --type {f} --rank {n} --format json"
                          for f, n in TYPES_TO_RANK_8]
    assert not _wrong_transcripts([(key.split(), pin) for key, pin in jobs.items()], capsys)


def test_bad_types_rejected():
    with pytest.raises(ValueError):
        CartanType("Z", 2)
    with pytest.raises(ValueError):
        CartanType("B", 1)
    with pytest.raises(ValueError):
        CartanType("E", 5)


@pytest.mark.parametrize("family,rank,num_pos,order", [
    ("A", 1, 1, 2), ("A", 2, 3, 6), ("A", 3, 6, 24),
    ("B", 2, 4, 8), ("B", 3, 9, 48), ("C", 3, 9, 48),
    ("D", 3, 6, 24), ("G", 2, 6, 12), ("F", 4, 24, 1152),
])
def test_counts(family, rank, num_pos, order):
    rs = root_system(family, rank)
    assert rs.num_positive_roots == num_pos
    assert rs.weyl_order() == order


def test_highest_root():
    assert root_system("B", 3).highest_root() == (1, 2, 2)
    assert root_system("C", 3).highest_root() == (2, 2, 1)
    assert root_system("G", 2).highest_root() == (3, 2)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_lengths_and_form(family, rank):
    rs = root_system(family, rank)
    sq = sorted({rs.form(r, r) for r in rs.positive_roots})
    assert sq[0] == 2  # short roots normalized
    assert len(sq) <= 2 or family == "G"
    # the form is symmetric
    a, b = rs.positive_roots[0], rs.positive_roots[-1]
    assert rs.form(a, b) == rs.form(b, a)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_fundamental_weight_duality(family, rank):
    rs = root_system(family, rank)
    for i in range(rank):
        w = rs.fundamental_weight(i)
        for j in range(rank):
            assert rs.coroot_pairing(w, j) == (1 if i == j else 0)
        x = rs.fundamental_coweight(i)
        for j in range(rank):
            alpha = tuple(int(j == k) for k in range(rank))
            assert rs.eval_coweight(alpha, x) == (1 if i == j else 0)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_reflections_permute_other_positives(family, rank):
    rs = root_system(family, rank)
    for i in range(rank):
        alpha_i = tuple(int(i == k) for k in range(rank))
        assert reflect(rs, alpha_i, i) == tuple(-c for c in alpha_i)
        others = {r for r in rs.positive_roots if r != alpha_i}
        assert {reflect(rs, r, i) for r in others} == others


def test_reflect_coweight_matches_pairings():
    rs = root_system("B", 3)
    h = (Fraction(3), Fraction(1, 2), Fraction(5))
    for i in range(3):
        img = rs.reflect_coweight(h, i)
        # pairing with any root transforms contragrediently
        for r in rs.positive_roots:
            assert rs.eval_coweight(reflect(rs, r, i), h) == rs.eval_coweight(r, img)


def test_root_coroot_normalization():
    rs = root_system("G", 2)
    for i in range(rs.rank):
        alpha = tuple(int(i == k) for k in range(rs.rank))
        assert root_coroot(rs, alpha) == tuple(Fraction(int(i == k)) for k in range(rs.rank))
    for r in rs.positive_roots:
        rv = root_coroot(rs, r)
        # <beta, beta^vee> = 2 for every root
        assert sum(c * rs.coroot_pairing(r, k) for k, c in enumerate(rv)) == 2


def test_rho_is_sum_of_fundamental_weights():
    rs = root_system("C", 3)
    half_sum = rho(rs)
    total = [Fraction(0)] * 3
    for i in range(3):
        for k, c in enumerate(rs.fundamental_weight(i)):
            total[k] += c
    assert tuple(total) == half_sum
    # rho of a Levi only involves the Levi block
    rho_l = rho(rs, (0, 1))
    assert rs.coroot_pairing(rho_l, 0) == 1
    assert rs.coroot_pairing(rho_l, 1) == 1


def test_fweight_round_trip():
    rs = root_system("B", 3)
    for i in range(3):
        w = rs.fundamental_weight(i)
        fw = to_fweight(rs, w)
        assert fw == tuple(Fraction(int(i == j)) for j in range(3))


def test_build_root_system_is_cached():
    assert build_root_system(CartanType("A", 2)) is root_system("A", 2)
