"""Weyl groups as explicit permutation-style groups on the root lattice.

Each element is built once, as one object of its group, so elements compare
by identity; each keeps its integer matrix action on the simple roots
(columns = images of the simple roots).  Enumeration is breadth-first
over right multiplication by simple reflections, so the stored word of each
element is reduced, and it records every product w s_i in a table.  It finds
elements by their inversion sets: s_i permutes the positive roots other than
alpha_i, so the inversion set of w s_i follows from that of w, and an
element's matrix is built only when the element is first found (Humphreys,
Reflection Groups and Coxeter Groups, 1990, ch. 1).  Products and inverses
are folds of reduced words over the table, so no group operation multiplies
matrices.
"""
from __future__ import annotations

from typing import Iterable, NoReturn, Sequence

from .rootsystem import BudgetError, RootSystem

Cols = tuple[tuple[int, ...], ...]

# largest group weyl_group enumerates.  Measured on a 2-core VM with Python
# 3.11: F4 (1,152 elements) 0.02 s, D5 (1,920) 0.05 s, B5 (3,840) 0.09 s and
# A6 (5,040) 0.13 s; past the cap, D6 (23,040) takes 1.1 s and 57 MB, and A7
# (40,320) 1.8 s and 83 MB.  Every rank <= 4 group fits (F4, the largest, has
# 1,152 elements); larger ones are refused before enumeration.
DEFAULT_CAP = 10_000

# tuples an s-fold scan over the representatives of quotients may take
TUPLE_CAP = 5_000_000

# pairs the pair scans of `leviprod-check` and `deform-table` may take; each
# pair costs a product on G/B, so the cost per pair grows with |W|.  Measured
# with leviprod-check on a 2-core VM with Python 3.11: D4 (36,864 pairs)
# 0.5 s, B4 (147,456) 3.8 s and A5 (518,400) 14.5 s; past the cap, F4
# (1,327,104) took 236.5 s and 383 MB, and the D5 deform-table (3,682,561)
# had not ended after 20 s.
_PAIR_CAP = 1_000_000


def check_tuple_budget(sizes: Iterable[int], free: int, s: int, label: str,
                       cap: int | None = None) -> None:
    """Raise BudgetError when scans of s-tuples over quotients with these
    numbers of representatives could take more than `cap` tuples (TUPLE_CAP
    by default), by the bound sum(n ** free for n in sizes), where `free`
    factors range freely: s - 1 for generation, where codimension balance
    fixes the last factor, s for the Levi blocks of the Horn checks, where
    none does, and 2 for the pair scans of `leviprod-check` and
    `deform-table`, held to _PAIR_CAP.

    The sum stops growing once it passes the cap, so a huge s costs a few
    multiplications, never a huge integer.
    """
    cap = TUPLE_CAP if cap is None else cap
    total = 0
    for n in sizes:
        term = 1
        for _ in range(free if n > 1 else 0):
            term *= n
            if total + term > cap:
                break
        total += term
        if total > cap:
            raise BudgetError(f"enumeration bound exceeds cap {cap} for {label}, s={s}")


class WeylElement:
    """Group element, one object per element of its group; `cols` is its action
    on the simple roots."""

    __slots__ = ("cols", "word", "index", "group", "descents")

    def __init__(self, cols: Cols, word: tuple[int, ...], group: "WeylGroup"):
        self.cols = cols
        self.word = word
        self.group = group
        self.index = -1  # assigned after the deterministic sort
        self.descents = 0  # bit i set when w(alpha_i) < 0, i.e. l(w s_i) < l(w)

    @property
    def length(self) -> int:
        return len(self.word)

    def act_root(self, v: Sequence) -> tuple:
        """Action on a vector in simple-root coordinates."""
        n = len(self.cols)
        out = [0] * n
        for j, vj in enumerate(v):
            if vj:
                col = self.cols[j]
                for k in range(n):
                    if col[k]:
                        out[k] += vj * col[k]
        return tuple(out)

    def act_coweight_coords(self, t: Sequence) -> tuple:
        """Action on coroot coordinates, by folding the reduced word."""
        rs = self.group.rs
        cur = tuple(t)
        for i in reversed(self.word):
            cur = rs.reflect_coweight(cur, i)
        return cur

    def __repr__(self):
        word = "".join(str(i + 1) for i in self.word) or "e"
        return f"W[{word}]"


class WeylGroup:
    """Fully enumerated Weyl group of a root system."""

    def __init__(self, rs: RootSystem):
        order = rs.weyl_order()
        if order > DEFAULT_CAP:
            raise BudgetError(
                f"Weyl group of {rs.label} has order {order}, exceeding the cap {DEFAULT_CAP}"
            )
        self.rs = rs
        self.order = order
        self._enumerate()
        self._inverse = [self._fold(self.identity, reversed(w.word)) for w in self.elements]
        self._parabolics: dict[tuple, Parabolic] = {}  # filled by parabolic
        self._basis = None  # built by schubert.schubert_basis

    # -- enumeration ----------------------------------------------------

    def _enumerate(self):
        rs = self.rs
        n, cartan = rs.rank, rs.cartan
        simple = [rs.root_index[tuple(int(j == i) for j in range(n))] for i in range(n)]
        # s_i permutes the positive roots other than alpha_i; perms[i] also
        # fixes alpha_i, so that Phi(w s_i) = s_i(Phi(w) - {alpha_i}), plus
        # alpha_i when alpha_i is not in Phi(w), is perms[i](Phi(w)) ^ {alpha_i}
        perms = []
        for i in range(n):
            perm = []
            for r in rs.positive_roots:
                img = list(r)
                img[i] -= rs.coroot_pairing(r, i)
                perm.append(rs.root_index.get(tuple(img), simple[i]))
            perms.append(perm)
        flips = [frozenset((a,)) for a in simple]
        ident: Cols = tuple(tuple(int(j == k) for k in range(n)) for j in range(n))
        e = WeylElement(ident, (), self)
        e.index = 0
        # breadth-first: the elements in the order they are found, each keyed
        # by its inversion set, with the products w s_i of each
        found: dict[frozenset[int], WeylElement] = {frozenset(): e}
        order, sets, right = [e], [frozenset()], []
        for w, inv in zip(order, sets):  # the loop reaches what it appends
            products = []
            for i in range(n):
                key = frozenset(map(perms[i].__getitem__, inv)) ^ flips[i]
                x = found.get(key)
                if x is None:
                    # right multiplication: (w s_i)(alpha_j) = w(alpha_j - a_ij alpha_i)
                    wi = w.cols[i]
                    cols = tuple(
                        col if not cartan[i][j] else
                        tuple(c - cartan[i][j] * ci for c, ci in zip(col, wi))
                        for j, col in enumerate(w.cols))
                    x = found[key] = WeylElement(cols, w.word + (i,), self)
                    x.index = len(order)
                    order.append(x)
                    sets.append(key)
                products.append(x)
            right.append(tuple(products))
            w.descents = sum(1 << i for i, a in enumerate(simple) if a in inv)
        if len(order) != self.order:
            raise AssertionError(
                f"enumerated {len(order)} elements of {rs.label}, expected {self.order}"
            )
        els = sorted(order, key=lambda w: (w.length, w.cols))
        found_at = [w.index for w in els]
        for k, w in enumerate(els):
            w.index = k
        self.elements: list[WeylElement] = els
        self._right = [right[k] for k in found_at]  # [w.index][i] = w s_i
        self._inversion_sets = [sets[k] for k in found_at]  # [w.index] = Phi(w)
        self._by_inversions = found

    # -- group operations -----------------------------------------------

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def _fold(self, w: WeylElement, word: Iterable[int]) -> WeylElement:
        """w s_i1 ... s_ik for the word (i1, ..., ik), read from the right-multiplication table."""
        for i in word:
            w = self._right[w.index][i]
        return w

    def from_word(self, word: Iterable[int]) -> WeylElement:
        """Element given by a (not necessarily reduced) word of simple indices."""
        word = tuple(word)
        bad = next((i for i in word if not 0 <= i < self.rs.rank), None)
        if bad is not None:
            raise ValueError(f"simple index {bad} out of range")
        return self._fold(self.identity, word)

    def simple_reflection(self, i: int) -> WeylElement:
        return self._right[0][i]

    def times_simple(self, w: WeylElement, i: int) -> WeylElement:
        """w s_i, read from the right-multiplication table."""
        return self._right[w.index][i]

    def mult(self, u: WeylElement, v: WeylElement) -> WeylElement:
        return self._fold(u, v.word)

    def inverse(self, w: WeylElement) -> WeylElement:
        return self._inverse[w.index]

    # -- root combinatorics ---------------------------------------------

    def inversion_set(self, w: WeylElement) -> frozenset[int]:
        """Phi_w = {beta > 0 : w(beta) < 0} as positive-root indices; |Phi_w| = l(w)."""
        return self._inversion_sets[w.index]

    def with_inversions(self, roots: Iterable[int]) -> WeylElement | None:
        """The element whose inversion set is the given set of positive-root
        indices, or None when it is no inversion set (an element is determined
        by its inversion set)."""
        return self._by_inversions.get(frozenset(roots))

    def longest_element(self) -> WeylElement:
        return self.elements[-1]

    def check(self, *ws: WeylElement) -> None:
        """Raise ValueError unless every w is an element of this group."""
        for w in ws:
            if not isinstance(w, WeylElement) or w.group is not self:
                raise ValueError(f"elements must belong to the same Weyl group "
                                 f"({self.rs.label}); {w!r} does not")

    def __repr__(self):
        return f"WeylGroup({self.rs.label}, order={self.order})"


class Parabolic:
    """Combinatorial model of a generalized flag variety L/(L cap Q).

    `levi` is the set of simple indices generating the Levi of Q, and
    `within` the set generating the Levi factor L; by default `within` is
    every simple index, giving G/Q.  The Schubert cells are indexed by the
    elements of the standard parabolic subgroup W_L that are minimal
    representatives of their W_Q-cosets.
    """

    def __init__(self, group: WeylGroup, levi: Iterable[int],
                 within: Iterable[int] | None = None):
        self.group = group
        self.rs = group.rs
        self.levi = tuple(sorted(set(levi)))
        self.within = tuple(range(self.rs.rank)) if within is None else tuple(sorted(set(within)))
        if any(i not in range(self.rs.rank) for i in self.within + self.levi):
            raise ValueError(f"levi indices out of range: {self.levi}")
        if not set(self.levi) <= set(self.within):
            raise ValueError(f"{self.levi} is not contained in the Levi {self.within}")
        self.omitted = tuple(i for i in self.within if i not in self.levi)
        self.levi_roots = frozenset(self.rs.levi_positive(self.levi))
        self.within_roots = frozenset(self.rs.levi_positive(self.within))
        self.nilradical_roots = self.within_roots - self.levi_roots
        self.dim = len(self.nilradical_roots)
        # W^Q: the w inverting nilradical roots only; by length, then by the action
        # on the simple roots of `within` (the group's order when that is all of them)
        self.reps: list[WeylElement] = sorted(
            (w for w in group.elements if group.inversion_set(w) <= self.nilradical_roots),
            key=lambda w: (w.length, [w.cols[j] for j in self.within]))
        # the longest element of W_I is the one whose inversion set is Phi_I^+
        self.w_o = group.with_inversions(self.within_roots)
        self.w_o_levi = group.with_inversions(self.levi_roots)
        if self.w_o is None or self.w_o_levi is None:
            raise AssertionError("no longest element found")
        self._iota = {w: group.mult(group.mult(self.w_o, w), self.w_o_levi) for w in self.reps}
        for w, iw in self._iota.items():
            assert iw in self._iota and iw.length == self.dim - w.length
        self._ring = None  # built by deform.deformed_ring

    def contains(self, w: WeylElement) -> bool:
        """Whether w is in W_L and a minimal-length coset representative (w in W^Q);
        False for an element of another group."""
        return w in self._iota

    def refuse(self, w: WeylElement) -> NoReturn:
        """Raise the ValueError for a w outside W^Q: one of another group, or not a
        minimal representative."""
        self.group.check(w)
        raise ValueError(f"{w} is not a minimal coset representative")

    def codim(self, w: WeylElement) -> int:
        """Codimension of the Schubert variety labelled by w (dimension l(w))."""
        return self.dim - w.length

    def iota(self, w: WeylElement) -> WeylElement:
        """Basis involution w -> w_o w w_o_levi (longest of W_L, W_Q) exchanging the
        labellings; ValueError for a w outside W^Q."""
        iw = self._iota.get(w)
        if iw is None:
            self.refuse(w)
        return iw

    def minimal_rep(self, w: WeylElement) -> WeylElement:
        """Minimal-length representative of the coset w W_P."""
        while True:
            i = next((i for i in self.levi if w.descents >> i & 1), None)
            if i is None:
                return w
            w = self.group.times_simple(w, i)

    def degree_profile(self) -> tuple[int, ...]:
        """Number of representatives of each length 0..dim."""
        prof = [0] * (self.dim + 1)
        for w in self.reps:
            prof[w.length] += 1
        return tuple(prof)

    def __repr__(self):
        within = "" if len(self.within) == self.rs.rank else \
            f", within=[{one_based(self.within, '')}]"
        return f"Parabolic({self.rs.label}, levi=[{one_based(self.levi)}]{within}, dim={self.dim})"


def one_based(indices: Iterable[int], empty: str = "-") -> str:
    """Simple indices as the command line writes them: 1-based, comma-separated,
    `empty` for none ("-" for a Levi, "e" for the word of the identity)."""
    return ",".join(str(i + 1) for i in indices) or empty


def weyl_group(rs: RootSystem) -> WeylGroup:
    """The Weyl group of a root system, enumerated once and kept on `rs`."""
    if rs._weyl_group is None:
        rs._weyl_group = WeylGroup(rs)
    return rs._weyl_group


def parabolic(group: WeylGroup, levi: Iterable[int],
              within: Iterable[int] | None = None) -> Parabolic:
    """The Parabolic of a Levi index set inside the Levi factor `within`
    (every simple index by default), built once and kept on `group`."""
    within = range(group.rs.rank) if within is None else within
    key = (tuple(sorted(set(levi))), tuple(sorted(set(within))))
    if key not in group._parabolics:
        group._parabolics[key] = Parabolic(group, *key)
    return group._parabolics[key]
