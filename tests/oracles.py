"""Independent oracles and reference checks for the test suite.

Every reference a test compares the library against lives here, and none of
it ships in the package.

The tableau count implements the classical combinatorial rule directly, and
the permutation helpers translate type-A Weyl elements to Grassmannian data
by hand.  `divided_difference_table` is the reference for the integer kernel
of `SchubertBasis.product`: it applies whole-polynomial divided differences to
the rational top class prod(positive roots)/|W| and reads off constant terms,
sharing only `Poly` and `divided_difference` with the library;
`product_every_target` is a second divided-difference reference, which
reaches rank 4: it dots P_u P_v against per-monomial functionals E_w for every
target of the right length, with no descent rule.
`chevalley_oracle` recomputes degree-1 products by the reflection-sum
(Chevalley) rule from reflection matrices it builds itself.
`redundant_reference` and `equivalent_reference` are the references for the
orbit-at-a-time `prune_redundant` and `systems_equivalent`: one LP per row,
with no symmetry used, sharing only `cone_contains` and `dominance_rows`.
`inequality_blocks_reference` is the reference for the blocks of
`tuple_inequality`: it moves each simple coroot through the reduced word
instead of reading the element's columns.  `movable_rows_reference` is the
reference for gaps-first generation: it folds the point coefficient of every
dimension tuple before it looks at the character gaps.  `is_inversion_set`
recognises an inversion set as a closed set of roots with closed complement,
the reference for the group's own lookup.  `extreme_rays` is incremental
double description, the polar check of `cone_contains`, and `horn_rows`
builds the type-A eigencone inequalities from Horn's recursion, with no
Schubert calculus at all.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from schubdeform.cones import cone_contains
from schubdeform.deform import deformed_ring
from schubdeform.cones import dominance_rows
from schubdeform.eigencone import tuple_inequality
from schubdeform.horn import dimension_tuples
from schubdeform.poly import Poly
from schubdeform.schubert import divided_difference
from schubdeform.weyl import WeylElement, parabolic


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


def divided_difference_table(group, within=None) -> dict[tuple[int, int], dict[int, int]]:
    """Every G/B product class(u)*class(v), u.index <= v.index, as {w index: c}.

    P_w is the divided difference along a reduced word of w^-1 w_o applied to
    the top class prod(positive roots)/|W|, and c_uv^w is the constant term of
    d_w(P_u P_v), applying one operator of the word of w at a time to the
    whole polynomial.  The operators run on |W| P_u times |W| P_v, whose
    coefficients are integers, and each constant term is divided back by
    |W|^2: the same linear map, without rational arithmetic in the inner loop.

    With `within`, a set of simple indices generating a Levi subgroup W_L,
    the table is that of the flag variety L/B_L built on its own: u, v and w
    run over W_L, the top class is prod(positive roots of L)/|W_L|, ascents
    stay inside L and the division is by |W_L|^2.
    """
    rs = group.rs
    within = range(rs.rank) if within is None else sorted(set(within))
    roots = rs.levi_positive(within)
    elements = [w for w in group.elements if w.inversions <= set(roots)]
    order = len(elements)
    top = Poly.const(rs.rank, 1)
    for k in roots:
        top = top * Poly.linear(rs.positive_roots[k])
    top = Poly(rs.rank, {m: Fraction(c, order) for m, c in top.terms.items()})
    polys = {}
    for w in sorted(elements, key=lambda w: -w.length):
        ascent = next((i for i in within
                       if group.mult(w, group.simple_reflection(i)).length > w.length), None)
        polys[w.index] = top if ascent is None else divided_difference(
            rs, ascent, polys[group.mult(w, group.simple_reflection(ascent)).index])
    cleared = {}
    for k, p in polys.items():
        assert all((c * order).denominator == 1 for c in p.terms.values())
        cleared[k] = Poly(rs.rank, {m: int(c * order) for m, c in p.terms.items()})
    table = {}
    for u in elements:
        for v in elements:
            d = u.length + v.length
            if v.index < u.index or d > len(roots):
                continue
            memo = {group.identity.index: cleared[u.index] * cleared[v.index]}

            def apply(y):
                if y.index not in memo:
                    i = y.word[0]
                    tail = group.mult(group.simple_reflection(i), y)
                    memo[y.index] = divided_difference(rs, i, apply(tail))
                return memo[y.index]

            row = {}
            for w in elements:
                if w.length == d:
                    c = Fraction(constant_term(apply(w)), order ** 2)
                    if c:
                        assert c.denominator == 1 and c > 0, (u, v, w, c)
                        row[w.index] = int(c)
            table[(u.index, v.index)] = row
    return table


@functools.lru_cache(maxsize=None)
def _step(rs, j: int, mono: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The terms of d_j x^m."""
    return divided_difference(rs, j, Poly(rs.rank, {mono: 1})).terms


def product_every_target(basis, u, v, functionals: dict) -> dict[int, int]:
    """class(u)*class(v) from `basis`'s polynomials, as {w index: c}: the dot
    product sum_m [P_u P_v]_m E_w(m) / |W|^2, taken for every w of length
    l(u)+l(v) with no descent rule.  E_w(m), the constant term of d_w x^m, is
    memoised in `functionals` as {(w index, m): E_w(m)} for the calls on one
    basis, through the last letter j of the word of w:
    E_w(m) = sum_m' [d_j x^m]_m' E_{w s_j}(m')."""
    group = basis.group

    def functional(w, mono):
        got = functionals.get((w.index, mono))
        if got is None:
            if not w.word:
                return 1
            j = w.word[-1]
            shorter = w.right[j]
            got = functionals[(w.index, mono)] = sum(
                c * functional(shorter, m) for m, c in _step(basis.rs, j, mono).items())
        return got

    f = basis.polynomial(u) * basis.polynomial(v)
    scale = group.order ** 2
    row = {}
    for w in group.elements:
        if w.length == u.length + v.length:
            dot = sum(coeff * functional(w, m) for m, coeff in f.terms.items())
            c, rem = divmod(dot, scale)
            assert rem == 0 and c >= 0, (u, v, w, c)
            if c:
                row[w.index] = c
    return row


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


def inequality_blocks_reference(ring, ws) -> tuple[tuple[int, ...], ...]:
    """The blocks of `tuple_inequality(ring, ws)`: entry k of block j is the
    i0-th coroot coordinate of w_j^{-1} alpha_k^vee, with w_j^{-1} applied by
    folding its reduced word one simple reflection at a time."""
    n = ring.rs.rank
    i0 = ring.omitted[0]
    coroots = [tuple(int(k == j) for j in range(n)) for k in range(n)]
    return tuple(tuple(w.inverse.act_coweight_coords(a)[i0] for a in coroots)
                 for w in ws)


def movable_rows_reference(group, s: int, mode: str) -> list:
    """The inequalities of `generate_system(group, s, mode)`, in order, from
    `is_levi_movable` on every dimension tuple: the point coefficient is folded
    for each tuple, whatever its character gaps."""
    out = []
    for i in range(group.rs.rank):
        ring = deformed_ring(parabolic(group, [j for j in range(group.rs.rank) if j != i]))
        for ws in dimension_tuples(ring.parabolic, s):
            cert = ring.is_levi_movable(ws)
            if cert.coefficient == 1 and (mode == "classical" or cert.movable):
                out.append(tuple_inequality(ring, ws))
    return out


# -- small conversions -------------------------------------------------


def constant_term(p: Poly) -> int:
    return p.terms.get((0,) * p.nvars, 0)


def reflect(rs, v: Sequence, i: int) -> tuple:
    """s_i acting on root coordinates."""
    p = rs.coroot_pairing(v, i)
    return tuple(v[j] - p if j == i else v[j] for j in range(rs.rank))


def root_coroot(rs, r: Sequence) -> tuple[Fraction, ...]:
    """Coroot-basis coordinates of beta^vee for a root beta in root coordinates."""
    bb = rs.form(r, r)
    return tuple(Fraction(2 * rs.lengths[k] * r[k], 1) / bb for k in range(rs.rank))


def to_fweight(rs, coords_root: Sequence) -> tuple:
    """Fundamental-weight coordinates of a weight given in root coordinates."""
    return tuple(rs.coroot_pairing(coords_root, j) for j in range(rs.rank))


def rho(rs, levi: Iterable[int] | None = None) -> tuple:
    """Half sum of the positive roots (of the Levi subsystem, if given)."""
    idx = rs.levi_positive(levi) if levi is not None else range(rs.num_positive_roots)
    return tuple(Fraction(c, 2) for c in rs.root_sum(idx))


def act_weight(w: WeylElement, weight: Sequence) -> tuple:
    """w acting on a weight in root coordinates."""
    return tuple(Fraction(x) for x in w.act_root(weight))


# -- inversion sets, recognised without the group -----------------------


def is_closed(rs, roots: frozenset[int]) -> bool:
    """Closed under root addition: a, b in S and a+b a root imply a+b in S."""
    have = {rs.positive_roots[k] for k in roots}
    for a in have:
        for b in have:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.root_index and s not in have:
                return False
    return True


def is_inversion_set(group, roots: Iterable[int]) -> WeylElement | None:
    """Recognize an inversion set: closed with closed complement, else None.

    A subset of the positive roots is an inversion set iff it is closed under
    root addition and so is its complement.  The combinatorial test and the
    direct lookup over the enumerated group must agree; disagreement is a
    hard failure.
    """
    rs = group.rs
    s = frozenset(roots)
    comp = frozenset(range(len(rs.positive_roots))) - s
    combinatorial = is_closed(rs, s) and is_closed(rs, comp)
    found = group.with_inversions(s)
    if combinatorial != (found is not None):
        raise AssertionError(f"closed/coclosed test disagrees with enumeration on {sorted(s)}")
    return found


# -- the reflection-sum (Chevalley) rule --------------------------------


@functools.cache
def reflection(group, root_coords: tuple[int, ...]) -> WeylElement:
    """The reflection s_beta for a root beta in root coordinates."""
    rs = group.rs
    n = rs.rank
    bb = rs.form(root_coords, root_coords)
    cols = []
    for j in range(n):
        ej = tuple(int(j == k) for k in range(n))
        p = 2 * rs.form(ej, root_coords) / bb
        col = tuple(ej[k] - p * root_coords[k] for k in range(n))
        icol = tuple(int(x) for x in col)
        if tuple(Fraction(x) for x in icol) != tuple(Fraction(x) for x in col):
            raise AssertionError("non-integral reflection matrix")
        cols.append(icol)
    cols = tuple(cols)
    return next(w for w in group.elements if w.cols == cols)


def chevalley_oracle(p, i: int, w: WeylElement) -> dict[int, int]:
    """Degree-1 product class(s_i)*class(w) on G/P by the reflection-sum rule.

    Independent of the divided-difference path: the coefficient of w s_beta
    (when it has length l(w)+1 and is a minimal representative) is
    omega_i(beta^vee).  Requires i in `p.omitted` and w in W^P.
    Returns {element index: coefficient}.
    """
    if i not in p.omitted:
        raise ValueError("degree-1 classes of G/P are indexed by simple roots outside the Levi")
    if not p.contains(w):
        raise ValueError("w is not a minimal coset representative")
    rs = p.rs
    g = p.group
    omega = rs.fundamental_weight(i)
    out: dict[int, int] = {}
    for beta in rs.positive_roots:
        s_beta = reflection(g, beta)
        cand = g.mult(w, s_beta)
        if cand.length != w.length + 1 or not p.contains(cand):
            continue
        bb = rs.form(beta, beta)
        mult = 2 * rs.form(omega, beta) / bb
        assert mult.denominator == 1 and mult >= 0
        if mult:
            out[cand.index] = out.get(cand.index, 0) + int(mult)
    return {k: v for k, v in out.items() if v}


# -- nil-radical cohomology and tangent spaces --------------------------


@dataclass
class KostantModule:
    """One irreducible summand of a graded piece of the nil-radical cohomology."""

    element: WeylElement
    degree: int
    lowest_weight: tuple  # w^{-1} rho - rho, in fundamental-weight coordinates


def kostant_decomposition(parab, degree: int) -> list[KostantModule]:
    """Summands of the degree-d piece for the nil-radical of the parabolic.

    Indexed by minimal representatives of length d; the recorded weight
    w^{-1} rho - rho equals minus the sum of the inversion set of w and is
    dominant for the Levi (checked).
    """
    rs = parab.rs
    rho_w = rho(rs)
    out = []
    for w in parab.reps:
        if w.length != degree:
            continue
        winv = w.inverse
        coords = tuple(Fraction(a) - Fraction(b) for a, b in
                       zip(winv.act_root(rho_w), rho_w))
        if tuple(-c for c in rs.root_sum(w.inversions)) != coords:
            raise AssertionError(f"weight formulas disagree at {w}")
        fw = to_fweight(rs, coords)
        for i in parab.levi:
            if fw[i] < 0:
                raise AssertionError(f"weight of {w} not dominant for the Levi")
        out.append(KostantModule(w, degree, tuple(fw)))
    return out


def tangent_complement_check(ring, w: WeylElement) -> bool:
    """Partition R(u_P) = Phi_w | w_o^L(Phi_{iota w}).

    For w in W^P the tangent roots at the base point of the cell of w are the
    negatives of its inversion set Phi_w.
    """
    p = ring.parabolic
    rs = ring.rs
    first = w.inversions
    second = set()
    for k in p.iota(w).inversions:
        img = p.w_o_levi.act_root(rs.positive_roots[k])
        second.add(rs.root_index[img])
    return (not (first & second)) and (first | second) == p.nilradical_roots


# -- double description -------------------------------------------------

Vec = tuple[Fraction, ...]


def _vec(v: Iterable) -> Vec:
    return tuple(Fraction(x) for x in v)


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for x, y in zip(a, b):
        if x and y:
            total += x * y
    return total


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    fr = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in fr))
    ints = [x.numerator * (den // x.denominator) for x in fr]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(x // g for x in ints)


def extreme_rays(rows: Sequence[Sequence], dim: int | None = None
                 ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Minimal generators of the cone {x : r.x <= 0 for every row r}.

    Returns (lineality basis, extreme rays) as primitive integer vectors;
    the cone is the rational span of the lineality plus nonnegative
    combinations of the rays.  The ray list is sorted and canonical; the
    lineality basis is one choice of basis, not canonical.  Incremental
    double description with the combinatorial adjacency test on tight-row
    sets.
    """
    rws = [_vec(r) for r in rows]
    if dim is None:
        if not rws:
            raise ValueError("dimension required when there are no rows")
        dim = len(rws[0])
    for r in rws:
        if len(r) != dim:
            raise ValueError("row dimension mismatch")
    lineality: list[Vec] = [
        tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[Vec, frozenset[int]]] = []
    for idx, a in enumerate(rws):
        vals = [_dot(a, l) for l in lineality]
        k0 = next((k for k, v in enumerate(vals) if v != 0), None)
        if k0 is not None:
            # slice the lineality: one direction becomes a ray
            l0, v0 = lineality[k0], vals[k0]
            new_lin = []
            for k, l in enumerate(lineality):
                if k != k0:
                    f = vals[k] / v0
                    new_lin.append(tuple(x - f * y for x, y in zip(l, l0)))
            new_rays = []
            for vec, zs in rays:
                f = _dot(a, vec) / v0
                new_rays.append(
                    (tuple(x - f * y for x, y in zip(vec, l0)), zs | {idx}))
            r0 = l0 if v0 < 0 else tuple(-x for x in l0)
            new_rays.append((r0, frozenset(range(idx))))
            lineality = new_lin
            rays = new_rays
            continue
        zero, neg, pos = [], [], []
        for vec, zs in rays:
            v = _dot(a, vec)
            if v == 0:
                zero.append((vec, zs | {idx}))
            elif v < 0:
                neg.append((vec, zs, v))
            else:
                pos.append((vec, zs, v))
        if not pos:
            rays = zero + [(vec, zs) for vec, zs, _ in neg]
            continue
        others = ([zs for _, zs in zero] + [zs for _, zs, _ in neg]
                  + [zs for _, zs, _ in pos])
        combos = []
        for ni, (vn, zn, dn) in enumerate(neg):
            for pi, (vp, zp, dp) in enumerate(pos):
                common = zn & zp
                adjacent = True
                for oi, other in enumerate(others):
                    if oi == len(zero) + ni or oi == len(zero) + len(neg) + pi:
                        continue
                    if common <= other:
                        adjacent = False
                        break
                if adjacent:
                    vec = tuple(dp * x - dn * y for x, y in zip(vn, vp))
                    combos.append((vec, common | {idx}))
        rays = zero + [(vec, zs) for vec, zs, _ in neg] + combos
    lin_out = [primitive(l) for l in lineality]
    ray_out = sorted(primitive(v) for v, _ in rays)
    return lin_out, ray_out


def cone_rows(system) -> list[tuple[int, ...]]:
    """Full homogeneous description: functionals plus dominance rows."""
    return [q.flat() for q in system.inequalities] + dominance_rows(
        system.rs, system.s)


# -- Horn's recursion ----------------------------------------------------


@functools.cache
def horn_triples(n: int, r: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Horn's set T^n_r (Fulton, Bull. Amer. Math. Soc. 37, 2000, section 1).

    The triples (I, J, K) of r-element subsets of {1..n}, each sorted, with
    sum(I) + sum(J) = sum(K) + r(r+1)/2 and, for every p < r and every
    (F, G, H) in T^r_p, sum_F i_f + sum_G j_g <= sum_H k_h + p(p+1)/2.
    """
    smaller = [(p, horn_triples(r, p)) for p in range(1, r)]
    subsets = list(itertools.combinations(range(1, n + 1), r))
    out = []
    for I in subsets:
        for J in subsets:
            for K in subsets:
                if sum(I) + sum(J) != sum(K) + r * (r + 1) // 2:
                    continue
                if all(sum(I[f - 1] for f in F) + sum(J[g - 1] for g in G)
                       <= sum(K[h - 1] for h in H) + p * (p + 1) // 2
                       for p, triples in smaller for F, G, H in triples):
                    out.append((I, J, K))
    return tuple(out)


def horn_row(n: int, I, J, K) -> tuple[int, ...]:
    """The flat row of a triple of T^n_r in the coroot coordinates of
    `generate_system`.

    It puts -1 on I in block 1, on J in block 2 and on {n+1-k : k in K} in
    block 3, as vectors a of R^n; the coefficient of the coroot coordinate
    t_k is a_k - a_{k+1}.
    """
    row = []
    for block in (I, J, tuple(n + 1 - k for k in K)):
        a = [-int(i in block) for i in range(1, n + 1)]
        row.extend(a[k] - a[k + 1] for k in range(n - 1))
    return tuple(row)


def horn_rows(n: int) -> set[tuple[int, ...]]:
    """The three-factor rows of A_{n-1} from T^n_r, r = 1..n-1 (`horn_row`)."""
    return {horn_row(n, I, J, K) for r in range(1, n) for I, J, K in horn_triples(n, r)}
