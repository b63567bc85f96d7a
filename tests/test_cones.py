"""Exact rational cone membership and extreme rays."""

import random
from fractions import Fraction

import pytest

from schubdeform import cone_contains

from oracles import extreme_rays, primitive


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert primitive((0, -5)) == (0, -1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_cone_contains_basics():
    gens = [(1, 0), (0, 1)]
    assert cone_contains((2, 3), gens)
    assert cone_contains((0, 0), gens)
    assert not cone_contains((-1, 0), gens)
    assert not cone_contains((1, -1), gens)
    # exact rationals, no tolerance
    assert cone_contains((Fraction(1, 7), Fraction(2, 7)), gens)


def test_cone_contains_lower_dimensional():
    gens = [(1, 1, 0), (1, -1, 0)]
    assert cone_contains((2, 0, 0), gens)
    assert not cone_contains((2, 0, 1), gens)
    assert not cone_contains((0, 0, 1), [])
    assert cone_contains((0, 0, 0), [])


def test_cone_contains_needs_conic_combination():
    # (1,1) is in the span but not the cone of these generators
    gens = [(1, 0), (-1, 1)]
    assert cone_contains((0, 1), gens)
    assert cone_contains((-2, 3), gens)
    assert not cone_contains((1, -1), gens)


def test_extreme_rays_orthant():
    # rows cut {x : r.x <= 0}; the negated identity rows give the positive orthant
    lin, rays = extreme_rays([(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    assert lin == []
    assert sorted(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_extreme_rays_halfspace_has_lineality():
    lin, rays = extreme_rays([(0, 0, 1)])
    assert len(lin) == 2
    assert len(rays) == 1
    assert rays[0][2] < 0  # the z <= 0 direction
    for l in lin:
        assert l[2] == 0


def test_extreme_rays_square_cone():
    # x >= |y|, x >= |z| has four extreme rays
    rows = [(-1, 1, 0), (-1, -1, 0), (-1, 0, 1), (-1, 0, -1)]
    lin, rays = extreme_rays(rows)
    assert lin == []
    assert len(rays) == 4
    for r in rays:
        assert r[0] == 1 and abs(r[1]) == 1 and abs(r[2]) == 1


def test_extreme_rays_reproduce_by_membership():
    rows = [(-1, -2), (-2, -1)]
    lin, rays = extreme_rays(rows)
    assert not lin
    assert len(rays) == 2
    # every ray satisfies the constraints; interior points are conic combos
    for r in rays:
        assert all(sum(a * b for a, b in zip(row, r)) <= 0 for row in rows)
    assert cone_contains((1, 1), rays)
    assert not cone_contains((1, -1), rays)


def _polar_oracle(target, gens, dim):
    """Membership by duality: target is in cone(G) iff it pairs <= 0 with the
    extreme rays of the polar {x : g.x <= 0} and to 0 with its lineality."""
    lin, rays = extreme_rays(gens, dim=dim)

    def pair(v):
        return sum(Fraction(a) * b for a, b in zip(target, v))
    return all(pair(r) <= 0 for r in rays) and all(pair(l) == 0 for l in lin)


def test_cone_contains_matches_polar_duality():
    rng = random.Random(20060101)
    hits = 0
    for case in range(200):
        dim = rng.randint(2, 4)
        rational = case % 3 == 0
        entry = ((lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                 if rational else (lambda: rng.randint(-3, 3)))
        gens = [tuple(entry() for _ in range(dim))
                for _ in range(rng.randint(0, 6))]
        if gens and case % 2:
            # a nonnegative combination, then perhaps nudged off the cone
            coeffs = [rng.randint(0, 2) for _ in gens]
            target = [sum(c * g[i] for c, g in zip(coeffs, gens))
                      for i in range(dim)]
            if case % 4 == 1:
                target[rng.randrange(dim)] -= 1
        else:
            target = [entry() for _ in range(dim)]
        expected = _polar_oracle(target, gens, dim)
        assert cone_contains(target, gens) == expected, (target, gens)
        hits += expected
    # both verdicts occur often enough for the comparison to mean something
    assert 40 <= hits <= 160
