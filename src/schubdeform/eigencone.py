"""Eigenvalue-problem inequality systems and their pruning.

Every standard maximal parabolic contributes one linear inequality on
s-tuples of dominant coweights for each tuple of Schubert classes whose
product is exactly the point class; the union over maximal parabolics
cuts out the additive eigencone inside the dominant tuples.  Two modes:
the classical cup product, and the degenerate product which keeps only
the Levi-movable tuples and yields a smaller system describing the same
cone.  Redundancy and system equivalence are decided by exact rational
cone membership against the other inequalities plus dominance; those
linear programs live in `cones`, which only pruning and equivalence load.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .deform import MODES, DeformedRing, deformed_ring
from .rootsystem import RootSystem, root_system
from .weyl import WeylElement, WeylGroup, check_tuple_budget, parabolic

if TYPE_CHECKING:
    from fractions import Fraction


class Inequality(NamedTuple):
    """One linear condition on an s-tuple of dominant coweights.

    The blocks are the weights w_j omega in fundamental-weight
    coordinates, where omega is the fundamental weight of the omitted
    simple root; the value on (h_1,...,h_s) is sum_j (w_j omega)(h_j)
    and membership requires it to be nonpositive.
    """

    omitted: int
    words: tuple[tuple[int, ...], ...]
    functional: tuple[tuple[int, ...], ...]

    def value(self, hs: Sequence[Sequence]) -> Fraction:
        from fractions import Fraction

        if len(hs) != len(self.functional):
            raise ValueError("tuple length mismatch")
        total = Fraction(0)
        for block, h in zip(self.functional, hs):
            for a, t in zip(block, h):
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


class InequalitySystem(NamedTuple):
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

    @classmethod
    def from_dict(cls, doc: dict) -> InequalitySystem:
        """The unpruned system a document of `as_dict` describes.

        Raises ValueError naming the first missing or malformed field; a
        `redundant` annotation is not read, since pruning decides it again.
        """
        for key in ("system", "s", "mode", "inequalities"):
            if key not in doc:
                raise ValueError(f"input file is missing field {key!r}")
        label, s, mode, raw = doc["system"], doc["s"], doc["mode"], doc["inequalities"]
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if not isinstance(label, str) or not label[1:].isdecimal():
            raise ValueError(f"bad system label {label!r}")
        if type(s) is not int or s < 2:
            raise ValueError(f"bad number of factors {s!r}")
        if not isinstance(raw, list):
            raise ValueError("inequalities must be a list")
        rs = root_system(label[0], int(label[1:]))
        n = rs.rank
        inequalities = []
        for k, q in enumerate(raw, 1):
            where = f"inequality {k}"
            if not isinstance(q, dict):
                raise ValueError(f"{where} must be a JSON object")
            for key in ("parabolic", "words", "functional"):
                if key not in q:
                    raise ValueError(f"{where} is missing field {key!r}")
            omitted = q["parabolic"]
            if type(omitted) is not int or not 1 <= omitted <= n:
                raise ValueError(f"{where} parabolic must be an integer in 1..{n}")
            words, blocks = q["words"], q["functional"]
            for name, val in (("words", words), ("functional", blocks)):
                if not isinstance(val, list) or len(val) != s:
                    raise ValueError(f"{where} {name} must be a list of {s} entries")
            functional = tuple(tuple(_int_list(b, f"{where} block")) for b in blocks)
            if any(len(b) != n for b in functional):
                raise ValueError(f"{where} has a block whose length is not the rank {n}")
            inequalities.append(Inequality(
                omitted=omitted - 1,
                words=tuple(tuple(i - 1 for i in _int_list(w, f"{where} word", 1, n))
                            for w in words),
                functional=functional,
            ))
        return cls(rs, s, mode, inequalities)


def _int_list(x, what: str, lo: int | None = None, hi: int | None = None) -> list[int]:
    if not isinstance(x, list) or not all(type(v) is int for v in x):
        raise ValueError(f"{what} must be a list of integers")
    if lo is not None and not all(lo <= v <= hi for v in x):
        raise ValueError(f"{what} has entries outside {lo}..{hi}")
    return x


def enumerate_tuples(ring: DeformedRing, s: int, mode: str) -> list[tuple[WeylElement, ...]]:
    """Generating tuples: balanced codimensions, product equal to the point.

    In deformed mode the tuple must also be Levi-movable, so that the point
    coefficient of the degenerate product is one: its character gap at the
    omitted coweight x_i0 must be zero as well.  One depth-first walk over
    the representatives, in their stored order, extends a prefix only when
    the remaining factors can still reach the codimension and (in deformed
    mode) the character sum left to place, so a prefix with no balanced
    zero-gap completion is skipped.  Each prefix kept is folded once; the
    last factor w is read off by duality, as the coefficient of iota(w) in
    the product of the others.
    """
    if len(ring.omitted) != 1:
        raise ValueError("inequalities come from maximal parabolics only")
    if s < 2:
        raise ValueError("need at least two factors")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    p = ring.parabolic
    i0 = ring.omitted[0]
    # (codimension, character at x_i0) of each factor; the character is 0 in
    # classical mode, where no gap is asked for
    chars = {w: ring.chi(w)[i0] if mode == "deformed" else 0 for w in ring.reps}
    # each factor with its dual iota(w) and its step
    steps = [(w, p.iota(w), (p.codim(w), x)) for w, x in chars.items()]
    goal = (p.dim, chars[ring.point()])
    # reach[m]: the sums of m factors, up to the goal (every sum only grows)
    kinds = {step for _, _, step in steps}
    reach = [{(0, 0)}]
    for _ in range(s - 1):
        reach.append({(c + a, x + b) for c, x in reach[-1] for a, b in kinds
                      if c + a <= goal[0] and x + b <= goal[1]})
    out = []

    def walk(prefix: tuple, acc: dict[WeylElement, int], left: tuple[int, int]) -> None:
        after = reach[s - 1 - len(prefix)]
        for w, dual, (c, x) in steps:
            rest = (left[0] - c, left[1] - x)
            if rest not in after:
                continue
            if len(prefix) == s - 1:
                if acc.get(dual) == 1:
                    out.append(prefix + (w,))
            else:
                nxt = ring.fold_step(acc, w) if prefix else {w: 1}
                if nxt:
                    walk(prefix + (w,), nxt, rest)

    walk((), {}, goal)
    return out


def tuple_inequality(ring: DeformedRing, ws: Sequence[WeylElement]) -> Inequality:
    """The inequality generated by one tuple on one maximal parabolic.

    Entry k of block j is <w_j omega, alpha_k^vee>, the i0-th coroot
    coordinate of w_j^{-1} alpha_k^vee: column k of w_j^{-1} (w_j^{-1} alpha_k
    in root coordinates) at i0, times d_i0 / d_k for the half squared lengths d.
    """
    d = ring.rs.lengths
    i0 = ring.omitted[0]
    blocks = []
    for w in ws:
        block = []
        for k, col in enumerate(w.inverse.cols):
            entry, rest = divmod(col[i0] * d[i0], d[k])
            if rest:
                raise AssertionError(f"non-integral pairing at {w}, coroot {k + 1}")
            block.append(entry)
        blocks.append(tuple(block))
    return Inequality(i0, tuple(w.word for w in ws), tuple(blocks))


def generate_system(group: WeylGroup, s: int, mode: str) -> InequalitySystem:
    """Union of the inequalities over all standard maximal parabolics."""
    rs = group.rs
    rings = [deformed_ring(parabolic(group, tuple(j for j in range(rs.rank) if j != i)))
             for i in range(rs.rank)]
    check_tuple_budget((len(ring.reps) for ring in rings), s - 1, s, rs.label)
    ineqs = []
    for ring in rings:
        for ws in enumerate_tuples(ring, s, mode):
            ineqs.append(tuple_inequality(ring, ws))
    return InequalitySystem(rs=rs, s=s, mode=mode, inequalities=ineqs)


def prune_redundant(system: InequalitySystem) -> InequalitySystem:
    """Annotate each inequality implied by the others plus dominance.

    Implication is exact cone membership of the functional in the span
    of the remaining functionals and the negated dominance rows; the
    annotation order matches the inequality order.  Redundancy is invariant
    under permuting the s factors, so when the rows are closed under that
    (every generated system is) one LP per S_s-orbit decides the whole
    orbit; a saved system that is not closed takes one LP per row.  A row
    with an equal copy is redundant without an LP.
    """
    from .cones import implied

    flats = [q.flat() for q in system.inequalities]
    redundant = list(implied(system.rs, system.s, (flats, None)))
    return InequalitySystem(system.rs, system.s, system.mode,
                            list(system.inequalities), redundant)


def systems_equivalent(a: InequalitySystem, b: InequalitySystem) -> bool:
    """Whether two systems cut out the same set of dominant tuples.

    Each row of one system must lie in the cone of the other's rows plus
    dominance.  When both systems are closed under permuting the s factors,
    one LP per S_s-orbit of rows decides its orbit; a row that is also a row
    of the other system needs no LP.
    """
    from .cones import implied

    # rows are coordinates fixed by the Cartan type, whichever object built it
    if a.rs.label != b.rs.label or a.s != b.s:
        raise ValueError("systems must be over the same group and length")
    fa = [q.flat() for q in a.inequalities]
    fb = [q.flat() for q in b.inequalities]
    return all(implied(a.rs, a.s, (fa, fb), (fb, fa)))


def dual_coweight(group: WeylGroup, h: Sequence) -> tuple[Fraction, ...]:
    """The conjugate -w_o h of a coweight; dominant whenever h is."""
    from fractions import Fraction

    return tuple(-Fraction(x) for x in group.longest_element().act_coweight_coords(h))
