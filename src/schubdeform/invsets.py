"""Inversion-set combinatorics of the degenerate product on G/B.

On the full flag variety the degenerate product of two dual-basis classes
is again a basis class or zero, governed purely by inversion sets:
eps_u * eps_v = eps_w when Phi_u and Phi_v are disjoint and their union is
the inversion set Phi_w of some (then unique) w, and 0 otherwise.

A subset of the positive roots is an inversion set iff it is closed under
root addition and so is its complement.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .deform import DeformedRing
from .weyl import WeylElement, WeylGroup


def inversion_product(group: WeylGroup, u: WeylElement, v: WeylElement) -> WeylElement | None:
    """eps_u * eps_v under the degenerate product on G/B: an element or None (zero)."""
    pu = group.inversion_set(u)
    pv = group.inversion_set(v)
    if pu & pv:
        return None
    return group.with_inversions(pu | pv)


def is_closed(rs, roots: frozenset[int]) -> bool:
    """Closed under root addition: a, b in S and a+b a root imply a+b in S."""
    have = {rs.positive_roots[k] for k in roots}
    for a in have:
        for b in have:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.root_index and s not in have:
                return False
    return True


def is_inversion_set(group: WeylGroup, roots: Iterable[int]) -> WeylElement | None:
    """Recognize an inversion set: closed with closed complement, else None.

    The combinatorial test and the direct lookup over the enumerated group
    must agree; disagreement is a hard failure.
    """
    rs = group.rs
    s = frozenset(roots)
    comp = frozenset(range(len(rs.positive_roots))) - s
    combinatorial = is_closed(rs, s) and is_closed(rs, comp)
    found = group.with_inversions(s)
    if combinatorial != (found is not None):
        raise AssertionError(f"closed/coclosed test disagrees with enumeration on {sorted(s)}")
    return found


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
    p = ring.parabolic
    mismatches = []
    pairs = 0
    for u in group.elements:
        for v in group.elements:
            pairs += 1
            # eps_u = [class of iota(u)]; compare in the Lambda labelling
            left = ring.product0(p.iota(u), p.iota(v))
            w = inversion_product(group, u, v)
            right = {} if w is None else {ring.position(p.iota(w)): 1}
            if left != right:
                mismatches.append((u.word, v.word, left, right))
    return CrossCheckReport(ring.rs.label, pairs, mismatches)
