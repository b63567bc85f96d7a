"""Exact cone membership, and the linear programs of eigencone systems.

No floating point anywhere.  A cone is given by generators, and membership
is a fraction-free phase-one simplex with Bland's rule, so it terminates.

The simplex is revised: every tableau row is a combination of the initial
rows, whose artificial block is the identity, so a row is kept as that
block (its coefficients over the initial rows) and its rhs, and a column is
computed only when it enters.  The reduced costs are y.column for a
generator column and y_k + alpha for artificial k, kept as the integer
vector (y, alpha).  Each kept vector stands for a positive multiple of the
rational one.  A pivot replaces row i by piv*T[i] - T[i][enter]*T[leave]
divided by its gcd and leaves the pivot row as it is.  Positive row scaling
keeps every sign and every per-row ratio, so Bland's choices and the verdict
are those of the rational simplex on the full tableau.

The rest of the module is what deciding and pruning an inequality system
needs beyond the simplex: the dominance rows, membership of a tuple of
coweights (`evaluate`), the S_s-orbits of rows that let one LP decide a
whole orbit, and `implied`, the one LP plan that labels the orbits, checks
the tableau budget and decides each row.  `eigencone.prune_redundant` and
`eigencone.systems_equivalent` each make one call to it when they run, so
generating a system loads none of this module.
"""
from __future__ import annotations

from collections import Counter
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .rootsystem import BudgetError

if TYPE_CHECKING:
    from fractions import Fraction

    from .eigencone import Inequality, InequalitySystem
    from .rootsystem import RootSystem


def _clear_denominators(v: Sequence) -> list[int]:
    """The rational vector times the lcm of its denominators."""
    if all(type(x) is int for x in v):
        return list(v)
    from fractions import Fraction

    fr = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr]


def _eliminate(row: list[int], pivot_row: list[int], piv: int, f: int) -> list[int]:
    """piv*row - f*pivot_row, divided by the gcd of its entries."""
    out = [piv * a - f * b for a, b in zip(row, pivot_row)]
    g = gcd(*out)
    if g > 1:
        out = [x // g for x in out]
    return out


def cone_contains(target: Sequence, generators: Sequence[Sequence]) -> bool:
    """Whether target lies in the nonnegative rational span of the generators."""
    m = len(target)
    n = len(generators)
    for g in generators:
        if len(g) != m:
            raise ValueError("generator dimension mismatch")
    # initial tableau rows [generator columns | artificial identity | rhs], one
    # per coordinate, scaled to integers and signed so that the rhs is >= 0;
    # its generator and rhs columns are kept, and each current row as
    # [coefficients over the initial rows | rhs]
    rows = []
    for i in range(m):
        row = _clear_denominators([g[i] for g in generators] + [target[i]])
        if row[-1] < 0:
            row = [-x for x in row]
        rows.append(row)
    columns = [tuple(row[j] for row in rows) for j in range(n + 1)]
    T = [[int(i == k) for k in range(m)] + [rows[i][n]] for i in range(m)]
    basis = list(range(n, n + m))
    # phase-one reduced costs (unit cost on the artificials) as [y | alpha]
    dual = [-1] * m + [1]
    while True:
        enter = None
        for j in range(n):
            cost = sum(map(mul, dual, columns[j]))
            if cost < 0:
                enter = j
                break
        else:
            enter = next((n + k for k in range(m) if dual[k] + dual[m] < 0), None)
            if enter is None:
                break
            cost = dual[enter - n] + dual[m]
        if enter < n:
            col = [sum(map(mul, row, columns[enter])) for row in T]
        else:
            col = [row[enter - n] for row in T]
        # ratio test rhs/col[i] by cross-multiplication (denominators > 0)
        leave = None
        for i, row in enumerate(T):
            a = col[i]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = row[m] * col[leave]
                rhs = T[leave][m] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-one objective unbounded below")
        pivot_row = T[leave]
        piv = col[leave]
        for i, row in enumerate(T):
            if i != leave and col[i]:
                T[i] = _eliminate(row, pivot_row, piv, col[i])
        dual = _eliminate(dual, pivot_row[:m] + [0], piv, cost)
        basis[leave] = enter
    return sum(map(mul, dual, columns[n])) == 0


# -- inequality systems ---------------------------------------------------

class Verdict(NamedTuple):
    """Membership result with the violated inequalities and exact values."""

    member: bool
    violations: list[tuple[Inequality, Fraction]]


def evaluate(system: InequalitySystem, hs: Sequence[Sequence]) -> Verdict:
    """Membership of a tuple of dominant coweights, each in coroot coordinates,
    in the described cone."""
    rs = system.rs
    if len(hs) != system.s:
        raise ValueError(f"expected {system.s} coweights, got {len(hs)}")
    dominance = dominance_rows(rs, 1)
    for h in hs:
        if len(h) != rs.rank:
            raise ValueError(f"coweight {h} has {len(h)} coordinates, "
                             f"expected {rs.rank} for {rs.label}")
        if any(sum(a * t for a, t in zip(row, h)) > 0 for row in dominance):
            raise ValueError(f"coweight {h} is not dominant")
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


def implied(rs: RootSystem, s: int,
            *sides: tuple[list[tuple[int, ...]], list[tuple[int, ...]] | None]) -> Iterator[bool]:
    """Whether each row of each side (rows, others), in order, lies in the cone
    of `others` (None: the side's other rows) plus dominance.

    The one LP plan of pruning and equivalence.  Each row's blocks are marked
    with its side, so S_s-orbits are labelled once over all sides, never mix
    two, and are used only when every side is closed; that is sound when each
    `others` is None or the rows of a side.  One LP decides each label, a row
    among its own generators needs none, and the verdicts come lazily.

    Before any dominance row is built, BudgetError is raised when one LP has
    more than LP_CELL_CAP tableau cells, or all LPs more than LP_RUN_CAP.  A
    tableau has s * rank rows, and a column per generator (`others`, or all
    the side's rows, and s * rank dominance rows), per artificial and for the
    right-hand side.
    """
    n = rs.rank
    dim = s * n
    marked = [tuple(x for j in range(s) for x in row[j * n:(j + 1) * n] + (side,))
              for side, (rows, _) in enumerate(sides) for row in rows]
    labels = orbit_labels(marked, s)
    plan = []
    for rows, others in sides:
        cells = dim * (len(rows if others is None else others) + 2 * dim + 1)
        if cells > LP_CELL_CAP:
            raise BudgetError(f"LP tableau of {cells} cells exceeds cap {LP_CELL_CAP} "
                              f"for {rs.label}, s={s}")
        mine, labels = labels[:len(rows)], labels[len(rows):]
        plan.append((rows, others, mine, len(set(mine)), cells))
    if sum(lps * cells for *_, lps, cells in plan) > LP_RUN_CAP:
        text = " and ".join(f"{lps} LPs of {cells} cells" for *_, lps, cells in plan)
        raise BudgetError(f"{text} exceed the run cap {LP_RUN_CAP} for {rs.label}, s={s}")
    dom = dominance_rows(rs, s)
    verdicts: dict[int, bool] = {}
    for rows, others, mine, _, _ in plan:
        for k, (row, label) in enumerate(zip(rows, mine)):
            if label not in verdicts:
                gens = (rows[:k] + rows[k + 1:] if others is None else others) + dom
                verdicts[label] = row in gens or cone_contains(row, gens)
            yield verdicts[label]
