"""Independent oracles for cross-checking structure constants.

The tableau count implements the classical combinatorial rule directly, and
the permutation helpers translate type-A Weyl elements to Grassmannian data
by hand.  `divided_difference_table` is the reference for the integer kernel
of `SchubertBasis.product`: it applies whole-polynomial divided differences to
the rational top class prod(positive roots)/|W| and reads off constant terms,
sharing only `Poly` and `divided_difference` with the library.
`redundant_reference` and `equivalent_reference` are the references for the
orbit-at-a-time `prune_redundant` and `systems_equivalent`: one LP per row,
with no symmetry used, sharing only `cone_contains` and `dominance_rows`.
"""

from __future__ import annotations

from fractions import Fraction

from schubdeform.cones import cone_contains
from schubdeform.eigencone import dominance_rows
from schubdeform.poly import Poly
from schubdeform.schubert import divided_difference


def pad(lam: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(lam) + (0,) * (n - len(lam))


def lr_coefficient(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu} by brute tableau count.

    Counts fillings of the skew shape nu/lam with content mu, rows weakly
    and columns strictly increasing, whose reverse reading word is a
    lattice word.
    """
    rows = len(nu)
    lam = pad(tuple(lam), rows)
    nu = tuple(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if any(l > v for l, v in zip(lam, nu)):
        return 0
    cells = [(r, c) for r in range(rows) for c in range(lam[r], nu[r])]
    m = len(mu)
    fill: dict[tuple[int, int], int] = {}

    def admissible(r: int, c: int, v: int) -> bool:
        if c - 1 >= lam[r] and fill.get((r, c - 1), v) > v:
            return False
        if r > 0 and (r - 1, c) in fill and fill[(r - 1, c)] >= v:
            return False
        return True

    def lattice() -> bool:
        counts = [0] * (m + 1)
        for r in range(rows):
            for c in range(nu[r] - 1, lam[r] - 1, -1):
                v = fill[(r, c)]
                counts[v] += 1
                if v > 1 and counts[v] > counts[v - 1]:
                    return False
        return True

    out = 0
    content = [0] * (m + 1)

    def rec(k: int) -> None:
        nonlocal out
        if k == len(cells):
            out += lattice()
            return
        r, c = cells[k]
        for v in range(1, m + 1):
            if content[v] >= mu[v - 1] or not admissible(r, c, v):
                continue
            fill[(r, c)] = v
            content[v] += 1
            rec(k + 1)
            content[v] -= 1
            del fill[(r, c)]

    rec(0)
    return out


def lr_product(lam, mu, k: int, cols: int) -> dict[tuple[int, ...], int]:
    """Expansion of the product of two Schubert classes on Gr(k, k+cols).

    Keys are partitions inside the k x cols box, values the coefficients.
    """
    shapes = []
    def grow(prefix, maxpart):
        if len(prefix) == k:
            shapes.append(tuple(x for x in prefix if x))
            return
        for part in range(maxpart, -1, -1):
            grow(prefix + [part], part)
    grow([], cols)
    out = {}
    for nu in shapes:
        c = lr_coefficient(lam, mu, pad(nu, k))
        if c:
            out[nu] = c
    return out


def one_line(word, n: int) -> tuple[int, ...]:
    """One-line form of a type A_{n-1} Weyl element from a reduced word."""
    perm = list(range(1, n + 1))
    for i in word:
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def inversions(perm) -> int:
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def grassmannian_partition(perm, k: int) -> tuple[int, ...]:
    """Partition of a Grassmannian permutation with descent at position k."""
    first = sorted(perm[:k])
    lam = tuple(first[k - 1 - j] - (k - j) for j in range(k))
    if any(lam[j] < lam[j + 1] for j in range(k - 1)) or lam[-1] < 0:
        raise ValueError(f"{perm} is not Grassmannian at {k}")
    return tuple(x for x in lam if x)


def divided_difference_table(group) -> dict[tuple[int, int], dict[int, int]]:
    """Every G/B product class(u)*class(v), u.index <= v.index, as {w index: c}.

    P_w is the divided difference along a reduced word of w^-1 w_o applied to
    the top class prod(positive roots)/|W|, and c_uv^w is the constant term of
    d_w(P_u P_v), applying one operator of the word of w at a time to the
    whole polynomial.  The operators run on |W| P_u times |W| P_v, whose
    coefficients are integers, and each constant term is divided back by
    |W|^2: the same linear map, without rational arithmetic in the inner loop.
    """
    rs = group.rs
    top = Poly.const(rs.rank, 1)
    for root in rs.positive_roots:
        top = top * Poly.linear(root)
    top = Poly(rs.rank, {m: Fraction(c, group.order) for m, c in top.terms.items()})
    polys = {}
    for w in sorted(group.elements, key=lambda w: -w.length):
        ascent = next((i for i in range(rs.rank)
                       if group.mult(w, group.simple_reflection(i)).length > w.length), None)
        polys[w.index] = top if ascent is None else divided_difference(
            rs, ascent, polys[group.mult(w, group.simple_reflection(ascent)).index])
    cleared = {}
    for k, p in polys.items():
        assert all((c * group.order).denominator == 1 for c in p.terms.values())
        cleared[k] = Poly(rs.rank, {m: int(c * group.order) for m, c in p.terms.items()})
    table = {}
    for u in group.elements:
        for v in group.elements[u.index:]:
            d = u.length + v.length
            if d > rs.num_positive_roots:
                continue
            memo = {group.identity.index: cleared[u.index] * cleared[v.index]}

            def apply(y):
                if y.index not in memo:
                    i = y.word[0]
                    tail = group.mult(group.simple_reflection(i), y)
                    memo[y.index] = divided_difference(rs, i, apply(tail))
                return memo[y.index]

            row = {}
            for w in group.elements:
                if w.length == d:
                    c = Fraction(apply(w).constant_term(), group.order ** 2)
                    if c:
                        assert c.denominator == 1 and c > 0, (u, v, w, c)
                        row[w.index] = int(c)
            table[(u.index, v.index)] = row
    return table


def redundant_reference(system) -> list[bool]:
    """Per inequality, whether it lies in the cone of all the others plus
    dominance: one LP per row, in row order."""
    flats = [q.flat() for q in system.inequalities]
    dom = dominance_rows(system.rs, system.s)
    return [cone_contains(flats[k], [f for l, f in enumerate(flats) if l != k] + dom)
            for k in range(len(flats))]


def equivalent_reference(a, b) -> bool:
    """Whether each system's rows lie in the cone of the other's plus dominance."""
    dom = dominance_rows(a.rs, a.s)
    fa = [q.flat() for q in a.inequalities]
    fb = [q.flat() for q in b.inequalities]
    return (all(cone_contains(f, fb + dom) for f in fa)
            and all(cone_contains(f, fa + dom) for f in fb))
