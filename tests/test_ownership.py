"""Memoised state lives on the objects it describes, not in module tables."""

import gc
import weakref

from schubdeform import (
    CartanType,
    DeformedRing,
    RootSystem,
    check_character,
    deformed_ring,
    dimension_tuples,
    parabolic,
    weyl_group,
)
from schubdeform.horn import levi_blocks

from common import group_for


def test_unreferenced_group_and_ring_are_freed():
    rs = RootSystem(CartanType("B", 2))
    group = weyl_group(rs)
    ring = deformed_ring(parabolic(group, (0,)))
    assert levi_blocks(ring, 3)
    refs = (weakref.ref(group), weakref.ref(ring))
    del rs, group, ring
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_collected_rings_do_not_leak_state():
    g = group_for("B", 3)
    expected = {}
    for levi in ((0, 1), (1,)):
        ring = deformed_ring(parabolic(g, levi))
        ws = next(ws for ws in dimension_tuples(ring.parabolic, 3)
                  if ring.point_coefficient(ws))
        expected[levi] = (ws, levi_blocks(ring, 3), check_character(ring, ws))
    for k in range(40):
        levi = ((0, 1), (1,))[k % 2]
        ws, blocks, report = expected[levi]
        ring = DeformedRing(parabolic(g, levi))
        assert levi_blocks(ring, 3) == blocks
        assert check_character(ring, ws) == report
        del ring
        gc.collect()
