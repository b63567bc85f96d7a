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

from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .cones import cone_contains
from .deform import MODES, DeformedRing, deformed_ring
from .horn import check_tuple_budget, dimension_tuples
from .rootsystem import BudgetError, Coweight, RootSystem
from .weyl import WeylElement, WeylGroup, parabolic


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


class Verdict(NamedTuple):
    """Membership result with the violated inequalities and exact values."""

    member: bool
    violations: list[tuple[Inequality, Fraction]]


def enumerate_tuples(ring: DeformedRing, s: int, mode: str) -> list[tuple[WeylElement, ...]]:
    """Generating tuples: balanced codimensions, product equal to the point.

    In deformed mode the tuple must also be Levi-movable, so that the point
    coefficient of the degenerate product is one; a tuple with a nonzero
    character gap is not, and is dropped before any product is folded.
    """
    if len(ring.omitted) != 1:
        raise ValueError("inequalities come from maximal parabolics only")
    if s < 2:
        raise ValueError("need at least two factors")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    out = []
    for ws in dimension_tuples(ring.parabolic, s):
        if mode == "deformed" and any(ring.character_gaps(ws).values()):
            continue
        if ring.point_coefficient(ws) == 1:
            out.append(ws)
    return out


def tuple_inequality(ring: DeformedRing, ws: Sequence[WeylElement]) -> Inequality:
    """The inequality generated by one tuple on one maximal parabolic.

    Entry k of block j is <w_j omega, alpha_k^vee>, the i0-th coroot
    coordinate of w_j^{-1} alpha_k^vee: column k of w_j^{-1} (w_j^{-1} alpha_k
    in root coordinates) at i0, times d_i0 / d_k for the half squared lengths d.
    """
    group, d = ring.group, ring.rs.lengths
    i0 = ring.omitted[0]
    blocks = []
    for w in ws:
        block = []
        for k, col in enumerate(group.inverse(w).cols):
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
    check_tuple_budget((len(ring.reps) for ring in rings), s, rs.label)
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
    dominance = dominance_rows(rs, 1)
    for h in hs:
        if len(h.coords) != rs.rank:
            raise ValueError(f"coweight {h.coords} has {len(h.coords)} coordinates, "
                             f"expected {rs.rank} for {rs.label}")
        if any(sum(a * t for a, t in zip(row, h.coords)) > 0 for row in dominance):
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


# Tableau cells of one cone-membership LP: a tableau this size holds about
# 8 MB of references, and every pivot touches each cell.  The largest LP of a
# generated rank-4 system at s = 3 (B4 classical, 957 rows) has 11,784 cells.
LP_CELL_CAP = 1_000_000
# Tableau cells over the LPs of one run, one LP per orbit label: at s = 3, B4
# needs about 2.0 M to prune its classical rows and 2.0 M for equivalence.
LP_RUN_CAP = 10_000_000


def _check_lp_budget(rs: RootSystem, s: int, *sides: tuple[int, Sequence[int]]) -> None:
    """Raise BudgetError when one LP would have a tableau of more than
    LP_CELL_CAP cells, or the run's LPs more than LP_RUN_CAP cells together.

    Each side (rows, labels) takes one LP per distinct label against `rows`
    rows plus dominance.  The tableau has one row per coordinate (s * rank)
    and a column per generator (the rows and the s * rank dominance rows),
    per artificial variable and for the right-hand side.  Callers check
    before building any dominance row, so a huge s costs nothing.
    """
    dim = s * rs.rank
    planned = []
    for rows, labels in sides:
        cells = dim * (rows + 2 * dim + 1)
        if cells > LP_CELL_CAP:
            raise BudgetError(f"LP tableau of {cells} cells exceeds cap {LP_CELL_CAP} "
                              f"for {rs.label}, s={s}")
        planned.append((len(set(labels)), cells))
    if sum(lps * cells for lps, cells in planned) > LP_RUN_CAP:
        plan = " and ".join(f"{lps} LPs of {cells} cells" for lps, cells in planned)
        raise BudgetError(f"{plan} exceed the run cap {LP_RUN_CAP} for {rs.label}, s={s}")


def orbit_labels(rows: Sequence[tuple[int, ...]], s: int) -> list[int]:
    """Label each row with the index of the first row of its S_s-orbit.

    S_s permutes the s blocks of a flat row, so two rows share an orbit
    exactly when their blocks agree as multisets: each row is keyed by its
    sorted blocks.  Orbits are used only when the rows, counted with
    multiplicity, are closed under swapping blocks 1 and 2 and under
    rotating the blocks, which generate S_s; otherwise each orbit is one row
    and its equal copies.
    """
    count = Counter(rows)
    k = len(rows[0]) // s if rows else 0
    closed = all(count[r[k:2 * k] + r[:k] + r[2 * k:]] == c and count[r[k:] + r[:k]] == c
                 for r, c in count.items())
    first: dict[tuple, int] = {}
    labels = []
    for i, r in enumerate(rows):
        key = tuple(sorted(r[j * k:(j + 1) * k] for j in range(s))) if closed else r
        labels.append(first.setdefault(key, i))
    return labels


def _contained(rows: Sequence[tuple[int, ...]], labels: Sequence[int],
               generators: Callable[[int], list[tuple[int, ...]]]) -> Iterator[bool]:
    """cone_contains(rows[k], generators(k)) for each k in order, solved once
    per label; a row that occurs among its own generators needs no LP.

    Sound when the generators of rows with one label are images of each
    other under the block permutation that maps the rows.
    """
    verdicts: dict[int, bool] = {}
    for k, label in enumerate(labels):
        if label not in verdicts:
            gens = generators(k)
            verdicts[label] = rows[k] in gens or cone_contains(rows[k], gens)
        yield verdicts[label]


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
    flats = [q.flat() for q in system.inequalities]
    labels = orbit_labels(flats, system.s)
    _check_lp_budget(system.rs, system.s, (len(flats), labels))
    dom = dominance_rows(system.rs, system.s)
    redundant = list(_contained(flats, labels, lambda k: flats[:k] + flats[k + 1:] + dom))
    return InequalitySystem(system.rs, system.s, system.mode,
                            list(system.inequalities), redundant)


def systems_equivalent(a: InequalitySystem, b: InequalitySystem) -> bool:
    """Whether two systems cut out the same set of dominant tuples.

    Each row of one system must lie in the cone of the other's rows plus
    dominance.  When both systems are closed under permuting the s factors,
    one LP per S_s-orbit of rows decides its orbit; a row that is also a row
    of the other system needs no LP.
    """
    if a.rs is not b.rs or a.s != b.s:
        raise ValueError("systems must be over the same group and length")
    fa = [q.flat() for q in a.inequalities]
    fb = [q.flat() for q in b.inequalities]
    # a side mark in every block: the marked rows are closed only when both
    # systems are, and no orbit mixes the two
    n = a.rs.rank
    marked = [tuple(x for j in range(a.s) for x in f[j * n:(j + 1) * n] + (side,))
              for side, flats in enumerate((fa, fb)) for f in flats]
    labels = orbit_labels(marked, a.s)
    _check_lp_budget(a.rs, a.s, (len(fb), labels[:len(fa)]), (len(fa), labels[len(fa):]))
    dom = dominance_rows(a.rs, a.s)
    return all(_contained(fa + fb, labels, lambda k: (fb if k < len(fa) else fa) + dom))


def dual_coweight(group: WeylGroup, h: Coweight) -> Coweight:
    """The conjugate -w_o h of a coweight; dominant whenever h is."""
    img = group.longest_element().act_coweight_coords(h.coords)
    return Coweight(tuple(-Fraction(x) for x in img))
