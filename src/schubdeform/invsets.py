"""Inversion-set combinatorics of the degenerate product on G/B.

On the full flag variety the degenerate product of two dual-basis classes
is again a basis class or zero, governed purely by inversion sets:
eps_u * eps_v = eps_w when Phi_u and Phi_v are disjoint and their union is
the inversion set Phi_w of some (then unique) w, and 0 otherwise.
"""
from __future__ import annotations

from typing import NamedTuple

from .deform import DeformedRing
from .weyl import WeylElement, WeylGroup, check_pair_budget


def inversion_product(group: WeylGroup, u: WeylElement, v: WeylElement) -> WeylElement | None:
    """eps_u * eps_v under the degenerate product on G/B: an element or None (zero)."""
    group.check(u, v)
    pu, pv = u.inversions, v.inversions
    if pu & pv:
        return None
    return group.with_inversions(pu | pv)


class CrossCheckReport(NamedTuple):
    label: str
    pairs: int
    mismatches: list[tuple]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def crosscheck_gb(ring: DeformedRing) -> CrossCheckReport:
    """Compare the degenerate product on G/B against the inversion-set rule.

    `ring` must be built on the Borel (empty Levi).  Both sides are computed
    in the codimension-graded basis; the degenerate product of the classes
    of u and v equals the class of w exactly when Phi_w = Phi_u | Phi_v
    disjointly, always with coefficient 1.
    """
    if ring.parabolic.levi:
        raise ValueError("cross-check is defined on the full flag variety")
    group = ring.group
    check_pair_budget(len(group.elements), ring.rs.label)
    p = ring.parabolic
    mismatches = []
    pairs = 0
    for u in group.elements:
        for v in group.elements:
            pairs += 1
            # eps_u = [class of iota(u)]; compare in the Lambda labelling
            left = ring.product0(p.iota(u), p.iota(v))
            w = inversion_product(group, u, v)
            right = {} if w is None else {p.iota(w): 1}
            if left != right:
                mismatches.append((u.word, v.word, left, right))
    return CrossCheckReport(ring.rs.label, pairs, mismatches)
