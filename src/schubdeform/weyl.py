"""Weyl groups as explicit permutation-style groups on the root lattice.

Elements are canonicalized by their integer matrix action on the simple
roots (columns = images of the simple roots).  Enumeration is breadth-first
over right multiplication by simple reflections, so the stored word of each
element is reduced, and it records every product w s_i in a table that the
rest of the package reads instead of multiplying matrices.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .rootsystem import BudgetError, Coweight, RootSystem

Cols = tuple[tuple[int, ...], ...]

# largest group weyl_group enumerates.  Measured on a 2-core VM with Python
# 3.11: A5 (720 elements) 0.28 s, D5 (1,920) 0.73 s, B5 (3,840) 2.0 s and A6
# (5,040) 2.4 s, while A7 (40,320) took 32 s and 98 MB.  Every rank <= 4 group
# fits (F4, the largest, has 1,152 elements); larger ones are refused before
# enumeration.
DEFAULT_CAP = 10_000


class WeylElement:
    """Group element, identified by its action on the simple roots."""

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

    def act_coweight(self, h: Coweight) -> Coweight:
        return Coweight(tuple(Fraction(x) for x in self.act_coweight_coords(h.coords)))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.cols == other.cols

    def __hash__(self):
        return hash(self.cols)

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
        self.elements: list[WeylElement] = []
        self._by_cols: dict[Cols, WeylElement] = {}
        self._right: list[tuple[WeylElement, ...]] = []  # [w.index][i] = w s_i
        self._enumerate()
        self._inv_index: list[int] = [self._compute_inverse(w).index for w in self.elements]
        self._inversion_sets: list[frozenset[int]] = [
            self._compute_inversions(w) for w in self.elements
        ]
        self._parabolics: dict[tuple, Parabolic] = {}  # filled by parabolic
        self._basis = None  # built by schubert.schubert_basis
        self._by_inversions = None  # built by invsets.element_with_inversions

    # -- enumeration ----------------------------------------------------

    def _enumerate(self):
        n = self.rs.rank
        cartan = self.rs.cartan
        ident: Cols = tuple(tuple(int(j == k) for k in range(n)) for j in range(n))
        e = WeylElement(ident, (), self)
        found = {ident: e}
        right: dict[Cols, list[Cols]] = {}
        frontier = [e]
        while frontier:
            new = []
            for w in frontier:
                products = right[w.cols] = []
                for i in range(n):
                    # right multiplication: (w s_i)(alpha_j) = w(alpha_j - a_ij alpha_i)
                    wi = w.cols[i]
                    cols = tuple(
                        col if not cartan[i][j] else
                        tuple(c - cartan[i][j] * ci for c, ci in zip(col, wi))
                        for j, col in enumerate(w.cols))
                    products.append(cols)
                    if cols not in found:
                        el = WeylElement(cols, w.word + (i,), self)
                        found[cols] = el
                        new.append(el)
            frontier = new
        els = sorted(found.values(), key=lambda w: (w.length, w.cols))
        for k, w in enumerate(els):
            w.index = k
        self.elements = els
        self._by_cols = {w.cols: w for w in els}
        if len(els) != self.order:
            raise AssertionError(
                f"enumerated {len(els)} elements of {self.rs.label}, expected {self.order}"
            )
        self._right = [tuple(found[c] for c in right[w.cols]) for w in els]
        for w, products in zip(els, self._right):
            w.descents = sum(1 << i for i, x in enumerate(products) if x.length < w.length)

    # -- group operations -----------------------------------------------

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def from_word(self, word: Iterable[int]) -> WeylElement:
        """Element given by a (not necessarily reduced) word of simple indices."""
        w = self.identity
        for i in word:
            if not 0 <= i < self.rs.rank:
                raise ValueError(f"simple index {i} out of range")
            w = self._right[w.index][i]
        return w

    def simple_reflection(self, i: int) -> WeylElement:
        return self._right[0][i]

    def times_simple(self, w: WeylElement, i: int) -> WeylElement:
        """w s_i, read from the right-multiplication table."""
        return self._right[w.index][i]

    def mult(self, u: WeylElement, v: WeylElement) -> WeylElement:
        n = self.rs.rank
        cols = tuple(u.act_root(v.cols[j]) for j in range(n))
        return self._by_cols[cols]

    def _compute_inverse(self, w: WeylElement) -> WeylElement:
        u = self.identity
        for i in reversed(w.word):
            u = self._right[u.index][i]
        return u

    def inverse(self, w: WeylElement) -> WeylElement:
        return self.elements[self._inv_index[w.index]]

    # -- root combinatorics ---------------------------------------------

    def _compute_inversions(self, w: WeylElement) -> frozenset[int]:
        out = []
        for k, r in enumerate(self.rs.positive_roots):
            img = w.act_root(r)
            if any(c < 0 for c in img):
                out.append(k)
        return frozenset(out)

    def inversion_set(self, w: WeylElement) -> frozenset[int]:
        """Phi_w = {beta > 0 : w(beta) < 0} as positive-root indices; |Phi_w| = l(w)."""
        return self._inversion_sets[w.index]

    def longest_element(self) -> WeylElement:
        return self.elements[-1]

    def __len__(self):
        return len(self.elements)

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
        # by length, then by the action on the simple roots of `within`: the
        # group's own order when `within` is every simple index
        self.reps: list[WeylElement] = sorted(
            (w for w in group.elements if self.contains(w)),
            key=lambda w: (w.length, [w.cols[j] for j in self.within]))
        self.rep_position = {w.index: k for k, w in enumerate(self.reps)}
        self.w_o = self._longest(self.within_roots)
        self.w_o_levi = self._longest(self.levi_roots)
        self._iota = [
            group.mult(group.mult(self.w_o, w), self.w_o_levi) for w in self.reps
        ]
        for w, iw in zip(self.reps, self._iota):
            assert self.contains(iw) and iw.length == self.dim - w.length
        self._ring = None  # built by deform.deformed_ring

    def _longest(self, roots: frozenset[int]) -> WeylElement:
        """Longest element of the subgroup whose positive roots are `roots`."""
        for w in self.group.elements:
            if w.length == len(roots) and self.group.inversion_set(w) <= roots:
                return w
        raise AssertionError("no longest element found")

    def contains(self, w: WeylElement) -> bool:
        """Whether w is in W_L and a minimal-length coset representative (w in W^Q)."""
        return self.group.inversion_set(w) <= self.nilradical_roots

    def codim(self, w: WeylElement) -> int:
        """Codimension of the Schubert variety labelled by w (dimension l(w))."""
        return self.dim - w.length

    def iota(self, w: WeylElement) -> WeylElement:
        """Basis involution w -> w_o w w_o_levi (longest of W_L, W_Q) exchanging the labellings."""
        return self._iota[self.rep_position[w.index]]

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
