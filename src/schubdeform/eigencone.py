"""Eigenvalue-problem inequality systems and their pruning.

Every standard maximal parabolic contributes one linear inequality on
s-tuples of dominant coweights for each tuple of Schubert classes whose
product is exactly the point class; the union over maximal parabolics
cuts out the additive eigencone inside the dominant tuples.  Two modes:
the classical cup product, and the degenerate product which keeps only
the Levi-movable tuples and yields a smaller system describing the same
cone.  Redundancy and system equivalence are decided by exact rational
cone membership against the other inequalities plus dominance.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cones import cone_contains
from .deform import MODES, DeformedRing, deformed_ring
from .horn import TUPLE_CAP, check_tuple_budget, dimension_tuples
from .rootsystem import Coweight, RootSystem
from .weyl import WeylElement, WeylGroup, parabolic


@dataclass(frozen=True)
class Inequality:
    """One linear condition on an s-tuple of dominant coweights.

    The blocks are the weights w_j omega in fundamental-weight
    coordinates, where omega is the fundamental weight of the omitted
    simple root; the value on (h_1,...,h_s) is sum_j (w_j omega)(h_j)
    and membership requires it to be nonpositive.
    """

    omitted: int
    words: tuple[tuple[int, ...], ...]
    functional: tuple[tuple[int, ...], ...]

    def value(self, hs: Sequence[Coweight]) -> Fraction:
        if len(hs) != len(self.functional):
            raise ValueError("tuple length mismatch")
        total = Fraction(0)
        for block, h in zip(self.functional, hs):
            for a, t in zip(block, h.coords):
                if a and t:
                    total += a * Fraction(t)
        return total

    def flat(self) -> tuple[int, ...]:
        return tuple(x for block in self.functional for x in block)

    def as_dict(self) -> dict:
        return {
            "parabolic": self.omitted + 1,
            "words": [[i + 1 for i in w] for w in self.words],
            "functional": [list(b) for b in self.functional],
        }


@dataclass
class InequalitySystem:
    """All inequalities of one mode for one group and number of factors."""

    rs: RootSystem
    s: int
    mode: str
    inequalities: list[Inequality]
    redundant: list[bool] | None = None

    @property
    def label(self) -> str:
        return f"{self.rs.label} s={self.s} {self.mode}"

    def essential(self) -> list[Inequality]:
        if self.redundant is None:
            raise ValueError("system has not been pruned")
        return [q for q, r in zip(self.inequalities, self.redundant) if not r]

    def as_dict(self) -> dict:
        out = {
            "system": self.rs.label,
            "s": self.s,
            "mode": self.mode,
            "count": len(self.inequalities),
            "inequalities": [q.as_dict() for q in self.inequalities],
        }
        if self.redundant is not None:
            out["redundant"] = self.redundant
            out["essential_count"] = len(self.essential())
        return out


@dataclass
class Verdict:
    """Membership result with the violated inequalities and exact values."""

    member: bool
    violations: list[tuple[Inequality, Fraction]]


def enumerate_tuples(ring: DeformedRing, s: int, mode: str) -> list[tuple[WeylElement, ...]]:
    """Generating tuples: balanced codimensions, product equal to the point.

    In deformed mode the tuple must also be Levi-movable, so that the point
    coefficient of the degenerate product is one.
    """
    if len(ring.omitted) != 1:
        raise ValueError("inequalities come from maximal parabolics only")
    if s < 2:
        raise ValueError("need at least two factors")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    out = []
    for ws in dimension_tuples(ring.parabolic, s):
        cert = ring.is_levi_movable(ws)
        if cert.coefficient == 1 and (mode == "classical" or cert.movable):
            out.append(ws)
    return out


def tuple_inequality(ring: DeformedRing, ws: Sequence[WeylElement]) -> Inequality:
    """The inequality generated by one tuple on one maximal parabolic.

    Entry k of block j is <w_j omega, alpha_k^vee>, the i0-th coroot
    coordinate of w_j^{-1} alpha_k^vee.
    """
    group, n = ring.group, ring.rs.rank
    i0 = ring.omitted[0]
    coroots = [tuple(int(k == j) for j in range(n)) for k in range(n)]
    blocks = []
    for w in ws:
        inv = group.inverse(w)
        blocks.append(tuple(inv.act_coweight_coords(a)[i0] for a in coroots))
    return Inequality(i0, tuple(w.word for w in ws), tuple(blocks))


def generate_system(group: WeylGroup, s: int, mode: str,
                    cap: int = TUPLE_CAP) -> InequalitySystem:
    """Union of the inequalities over all standard maximal parabolics."""
    rs = group.rs
    rings = [deformed_ring(parabolic(group, tuple(j for j in range(rs.rank) if j != i)))
             for i in range(rs.rank)]
    check_tuple_budget((len(ring.reps) for ring in rings), s, rs.label, cap)
    ineqs = []
    for ring in rings:
        for ws in enumerate_tuples(ring, s, mode):
            ineqs.append(tuple_inequality(ring, ws))
    return InequalitySystem(rs=rs, s=s, mode=mode, inequalities=ineqs)


def evaluate(system: InequalitySystem, hs: Sequence[Coweight]) -> Verdict:
    """Membership of a tuple of dominant coweights in the described cone."""
    rs = system.rs
    if len(hs) != system.s:
        raise ValueError(f"expected {system.s} coweights, got {len(hs)}")
    for h in hs:
        for i in range(rs.rank):
            e_i = tuple(int(i == j) for j in range(rs.rank))
            if rs.eval_coweight(e_i, h.coords) < 0:
                raise ValueError(f"coweight {h.coords} is not dominant")
    violations = []
    for q in system.inequalities:
        v = q.value(hs)
        if v > 0:
            violations.append((q, v))
    return Verdict(member=not violations, violations=violations)


def dominance_rows(rs: RootSystem, s: int) -> list[tuple[int, ...]]:
    """Rows cutting out dominance of every factor, in nonpositive form.

    Row (j,i) evaluates to -alpha_i(h_j) on the concatenated coroot
    coordinates, so dominance is exactly `row . x <= 0` for every row.
    """
    rows = []
    n = rs.rank
    for j in range(s):
        for i in range(n):
            vec = [0] * (s * n)
            for k in range(n):
                vec[j * n + k] = -rs.cartan[k][i]
            rows.append(tuple(vec))
    return rows


def prune_redundant(system: InequalitySystem) -> InequalitySystem:
    """Annotate each inequality implied by the others plus dominance.

    Implication is exact cone membership of the functional in the span
    of the remaining functionals and the negated dominance rows; the
    annotation order matches the inequality order.
    """
    flats = [q.flat() for q in system.inequalities]
    dom = dominance_rows(system.rs, system.s)
    redundant = []
    for k in range(len(flats)):
        gens = [f for l, f in enumerate(flats) if l != k] + dom
        redundant.append(cone_contains(flats[k], gens))
    return InequalitySystem(system.rs, system.s, system.mode,
                            list(system.inequalities), redundant)


def systems_equivalent(a: InequalitySystem, b: InequalitySystem) -> bool:
    """Whether two systems cut out the same set of dominant tuples."""
    if a.rs is not b.rs or a.s != b.s:
        raise ValueError("systems must be over the same group and length")
    dom = dominance_rows(a.rs, a.s)
    fa = [q.flat() for q in a.inequalities]
    fb = [q.flat() for q in b.inequalities]
    return (all(cone_contains(f, fb + dom) for f in fa)
            and all(cone_contains(f, fa + dom) for f in fb))


def cone_rows(system: InequalitySystem) -> list[tuple[int, ...]]:
    """Full homogeneous description: functionals plus dominance rows."""
    return [q.flat() for q in system.inequalities] + dominance_rows(
        system.rs, system.s)


def dual_coweight(group: WeylGroup, h: Coweight) -> Coweight:
    """The conjugate -w_o h of a coweight; dominant whenever h is."""
    img = group.longest_element().act_coweight_coords(h.coords)
    return Coweight(tuple(-Fraction(x) for x in img))
