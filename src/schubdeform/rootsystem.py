"""Root systems of the finite simple types with exact rational arithmetic.

Conventions used throughout the package:

- cartan[i][j] = <alpha_j, alpha_i^vee> = 2(alpha_i, alpha_j)/(alpha_i, alpha_i),
  so the simple reflection acts by s_i(alpha_j) = alpha_j - cartan[i][j] alpha_i.
- A weight is the tuple of its simple-root coordinates, a coweight the
  tuple of its simple-coroot coordinates.
- Simple roots are numbered as in Bourbaki, Lie Groups ch. 4-6, Plates
  I-IX. The long simple roots are alpha_1 ... alpha_{n-1} in B_n, alpha_n
  in C_n, alpha_1 and alpha_2 in F4, and alpha_2 in G2; in A, D and E all
  roots have one length.
- The invariant form is normalized so that the short roots have squared
  length 2.
- Positive roots are ordered by height, then lexicographically.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    # each function that makes a rational imports Fraction itself, so a job
    # that makes none loads no `fractions` (nor the `decimal` it pulls in)
    from fractions import Fraction

    Vector = tuple[Fraction, ...]

# largest positive-root count root_system builds; A44 (990 roots) takes about
# 1 s on a 2-core VM with Python 3.11
MAX_POSITIVE_ROOTS = 1000


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


def _chain(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(n - 1))


# one row of _FAMILIES: which ranks a family admits, its number of positive
# roots in closed form, and its Dynkin diagram in Bourbaki numbering (0-based),
# as the bonds and each simple root's half squared length with short = 1
class _Family(NamedTuple):
    admits: Callable[[int], bool]
    positive_roots: Callable[[int], int]
    dynkin: Callable[[int], tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]


_FAMILIES = {
    "A": _Family(lambda n: n >= 1, lambda n: n * (n + 1) // 2,
                 lambda n: (_chain(n), (1,) * n)),
    "B": _Family(lambda n: n >= 2, lambda n: n * n,
                 lambda n: (_chain(n), (2,) * (n - 1) + (1,))),
    "C": _Family(lambda n: n >= 2, lambda n: n * n,
                 lambda n: (_chain(n), (1,) * (n - 1) + (2,))),
    "D": _Family(lambda n: n >= 3, lambda n: n * (n - 1),
                 lambda n: (_chain(n - 1) + ((n - 3, n - 1),), (1,) * n)),
    "E": _Family(lambda n: n in (6, 7, 8), lambda n: {6: 36, 7: 63, 8: 120}[n],
                 lambda n: (((0, 2), (1, 3)) + _chain(n)[2:], (1,) * n)),
    "F": _Family(lambda n: n == 4, lambda n: 24, lambda n: (_chain(4), (2, 2, 1, 1))),
    "G": _Family(lambda n: n == 2, lambda n: 6, lambda n: (_chain(2), (1, 3))),
}


class CartanType(NamedTuple("CartanType", [("family", str), ("rank", int)])):
    """A simple Cartan type, e.g. CartanType("B", 3); the family is upper-cased.

    Immutable and hashable, since root_system memoises on it.
    """

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        fam = family.upper()
        if fam not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of A-G")
        if not _FAMILIES[fam].admits(rank):
            raise ValueError(f"rank {rank} not admissible for family {fam}")
        return super().__new__(cls, fam, rank)

    @property
    def num_positive_roots(self) -> int:
        return _FAMILIES[self.family].positive_roots(self.rank)

    def __str__(self):
        return f"{self.family}{self.rank}"


def cartan_matrix(ct: CartanType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix in Bourbaki numbering, rows indexed by coroots.

    Across a bond, a_ij = -max(d_i, d_j) / d_i for the half squared lengths d.
    """
    bonds, d = _FAMILIES[ct.family].dynkin(ct.rank)
    a = [[2 if i == j else 0 for j in range(ct.rank)] for i in range(ct.rank)]
    for i, j in bonds:
        a[i][j] = -(max(d[i], d[j]) // d[i])
        a[j][i] = -(max(d[i], d[j]) // d[j])
    return tuple(tuple(row) for row in a)


def _invert(mat: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a nonsingular square rational matrix by Gaussian elimination."""
    from fractions import Fraction

    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class RootSystem:
    """The root system of a simple Cartan type, read off its Dynkin diagram.

    `lengths[i]` is half the squared length of alpha_i, an integer with
    short = 1, so the short roots have squared length 2. Types with more
    than MAX_POSITIVE_ROOTS positive roots raise BudgetError before any
    construction work.
    """

    def __init__(self, ct: CartanType):
        if ct.num_positive_roots > MAX_POSITIVE_ROOTS:
            raise BudgetError(
                f"{ct} has {ct.num_positive_roots} positive roots, "
                f"exceeding the cap {MAX_POSITIVE_ROOTS}")
        self.label = str(ct)
        self.cartan = cartan_matrix(ct)
        self.rank = ct.rank
        self.lengths = _FAMILIES[ct.family].dynkin(ct.rank)[1]
        self.positive_roots = self._close_roots()
        self.root_index = {r: k for k, r in enumerate(self.positive_roots)}
        self._heights = tuple(sum(r) for r in self.positive_roots)
        self._weyl_group = None  # built by weyl.weyl_group

    @cached_property
    def cartan_inv(self) -> tuple[tuple[Fraction, ...], ...]:
        """The inverse Cartan matrix, computed on first use."""
        return _invert(self.cartan)

    # -- construction ---------------------------------------------------

    def _close_roots(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        seen: set[tuple[int, ...]] = set()
        frontier = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        seen.update(frontier)
        while frontier:
            new = []
            for v in frontier:
                for i in range(n):
                    w = list(v)
                    w[i] -= self.coroot_pairing(v, i)
                    wt = tuple(w)
                    if wt not in seen:
                        seen.add(wt)
                        new.append(wt)
            frontier = new
        pos = [r for r in seen if all(c >= 0 for c in r) and any(r)]
        pos.sort(key=lambda r: (sum(r), r))
        return tuple(pos)

    # -- basic data -----------------------------------------------------

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def root_sum(self, roots: Iterable[int]) -> tuple[int, ...]:
        """Sum of the positive roots with the given indices, in root coordinates."""
        acc = [0] * self.rank
        for k in roots:
            for j, c in enumerate(self.positive_roots[k]):
                acc[j] += c
        return tuple(acc)

    def form(self, v: Sequence, w: Sequence) -> Fraction:
        """Invariant form on root coordinates: (alpha_i, w) = d_i <w, alpha_i^vee>."""
        return self.eval_coweight(w, [vi * d for vi, d in zip(v, self.lengths)])

    def coroot_pairing(self, v: Sequence, i: int) -> Fraction:
        """<v, alpha_i^vee> for v in root coordinates."""
        return sum(self.cartan[i][j] * v[j] for j in range(self.rank) if v[j])

    def reflect_coweight(self, t: Sequence, i: int) -> tuple:
        """s_i acting on coroot coordinates: h -> h - alpha_i(h) alpha_i^vee."""
        val = sum(t[k] * self.cartan[k][i] for k in range(self.rank) if t[k])
        return tuple(t[j] - val if j == i else t[j] for j in range(self.rank))

    def eval_coweight(self, v: Sequence, t: Sequence) -> Fraction:
        """lambda(h) for lambda in root coordinates, h in coroot coordinates."""
        from fractions import Fraction

        return Fraction(sum(ti * self.coroot_pairing(v, i) for i, ti in enumerate(t) if ti))

    def highest_root(self) -> tuple[int, ...]:
        """Highest root: the last positive root, as they are ordered by height."""
        return self.positive_roots[-1]

    def weyl_order(self) -> int:
        """|W| = prod over positive roots of (ht + 1) / ht (Macdonald 1972, at t = 1)."""
        num = den = 1
        for h in self._heights:
            num *= h + 1
            den *= h
        return num // den

    # -- weights and coweights ------------------------------------------

    def fundamental_weight(self, i: int) -> Vector:
        """omega_i in root coordinates (column i of the inverse Cartan matrix)."""
        return tuple(self.cartan_inv[j][i] for j in range(self.rank))

    def fundamental_coweight(self, i: int) -> Vector:
        """x_i with alpha_j(x_i) = delta_ij, in coroot coordinates."""
        return self.cartan_inv[i]

    def levi_positive(self, levi: Iterable[int]) -> tuple[int, ...]:
        """Indices of positive roots supported on the given simple indices."""
        lv = set(levi)
        bad = lv - set(range(self.rank))
        if bad:
            raise ValueError(f"levi indices out of range: {sorted(bad)}")
        return tuple(
            k for k, r in enumerate(self.positive_roots)
            if all(j in lv for j in range(self.rank) if r[j])
        )

    def __repr__(self):
        return f"RootSystem({self.label}, rank={self.rank}, positive={len(self.positive_roots)})"


_built = lru_cache(maxsize=None)(RootSystem)  # one RootSystem per CartanType


def root_system(family: str, rank: int) -> RootSystem:
    """The root system of a type, such as root_system("B", 3), built once per type."""
    return _built(CartanType(family, rank))
