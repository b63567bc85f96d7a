"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools

from schubdeform import deformed_ring, parabolic, root_system, weyl_group

# the environment variable the command line takes a cache directory from
CACHE_ENV_VAR = "SCHUBDEFORM_CACHE_DIR"

# every simple type of rank at most 3 the library admits
ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
             ("C", 2), ("C", 3), ("D", 3), ("G", 2)]

# every simple type of rank at most 8 the library admits
TYPES_TO_RANK_8 = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                   + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
                   + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

# the types whose Weyl-group arithmetic is checked against its definitions
ARITHMETIC_TYPES = [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("F", 4)]

# the types named by the full-flag cross-check requirement
GB_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


def group_for(family: str, rank: int):
    return weyl_group(root_system(family, rank))


def ring_for(family: str, rank: int, levi=()):
    return deformed_ring(parabolic(group_for(family, rank), levi))


def maximal_ring(family: str, rank: int, omitted: int):
    """Ring of the maximal parabolic omitting one 0-based simple index."""
    levi = [k for k in range(rank) if k != omitted]
    return ring_for(family, rank, levi)


def all_rings(family: str, rank: int):
    """Every parabolic of one group, Borel through the full group."""
    for r in range(rank + 1):
        for levi in itertools.combinations(range(rank), r):
            yield ring_for(family, rank, levi)
