"""The deformed cup product on G/P and Levi-movability.

Basis classes are keyed by their minimal representatives w in W^P, the
WeylElement objects themselves, graded so the class of w has codimension
dim(G/P) - l(w); the identity class is keyed by w_o w_o^L and the point
class by e.  The deformed product multiplies the classical structure
constant on w by a monomial in one indeterminate per simple root outside
the Levi, with exponent (chi_w - chi_u - chi_v)(x_i), where chi_w is the
sum of the nilradical roots beta with w(beta) > 0 and x_i is the
fundamental coweight.

Setting every indeterminate to 1 recovers the classical product; setting
them to 0 gives the degenerate product whose nonzero constants are exactly
the Levi-movable ones.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .schubert import schubert_basis
from .weyl import Parabolic, WeylElement

ExpVec = tuple[int, ...]

# the ring's two products, and so the two modes of eigencone generation
MODES = ("classical", "deformed")


class DimensionError(ValueError):
    """Codimension sum does not meet the dimension condition."""


class MovabilityCertificate(NamedTuple):
    """Evidence for a Levi-movability verdict."""

    coefficient: int
    character_gap: dict[int, int]  # omitted simple index -> (sum chi_wj - chi_e)(x_i)

    @property
    def movable(self) -> bool:
        return self.coefficient != 0 and all(v == 0 for v in self.character_gap.values())


class DeformedClass:
    """Element of the deformed ring: {representative: {exponent vector: int}}."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "DeformedRing",
                 coeffs: dict[WeylElement, dict[ExpVec, int]] | None = None):
        self.ring = ring
        self.coeffs = {}
        if coeffs:
            for w, mono in coeffs.items():
                clean = {e: c for e, c in mono.items() if c}
                if clean:
                    self.coeffs[w] = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, DeformedClass) and self.ring is other.ring
                and self.coeffs == other.coeffs)

    def classical(self) -> dict[WeylElement, int]:
        """Specialization at tau = 1 (the ordinary cup product expansion)."""
        sums = {w: sum(mono.values()) for w, mono in self.coeffs.items()}
        return {w: c for w, c in sums.items() if c}

    def at_zero(self) -> dict[WeylElement, int]:
        """Specialization at tau = 0 (keep exponent-zero monomials only)."""
        zero = (0,) * len(self.ring.omitted)
        return {w: mono[zero] for w, mono in self.coeffs.items() if zero in mono}

    def terms(self) -> Iterator[tuple[WeylElement, ExpVec, int]]:
        """(representative, exponents, coefficient) of every term: classes in
        table order, the monomials of one class by sorted exponents."""
        rank = self.ring._table_rank
        for w in sorted(self.coeffs, key=rank.__getitem__):
            for exps, coeff in sorted(self.coeffs[w].items()):
                yield w, exps, coeff

    def __repr__(self):
        """Expansion with the classes in codimension order, e.g. `2*t2*c6 + c7`."""
        ring = self.ring
        bits = []
        for w, exps, coeff in self.terms():
            mono = ring.monomial(exps)
            head = "" if coeff == 1 else f"{coeff}*"
            bits.append(head + (mono + "*" if mono else "") + ring.labels[w])
        return " + ".join(bits) if bits else "0"


class DeformedRing:
    """Deformed cohomology ring of one G/P, over the classical constants; every
    class, label and character is keyed by its minimal representative in `reps`."""

    def __init__(self, parab: Parabolic):
        self.parabolic = parab
        self.group = parab.group
        self.rs = parab.rs
        self.basis = schubert_basis(parab.group)
        self.omitted = parab.omitted
        self.reps = parab.reps
        # 2 rho of `within` and 2 rho_Q, for the cross-check of every character
        two_rho = self.rs.root_sum(parab.within_roots)
        two_rho_q = self.rs.root_sum(parab.levi_roots)
        self._chi = {w: self._chi_coords(w, two_rho, two_rho_q) for w in self.reps}
        self._classical: dict[tuple[WeylElement, WeylElement], dict[WeylElement, int]] = {}
        self._levi_blocks: dict[int, list] = {}  # by number of factors, from horn.levi_blocks
        # representatives of each codimension in rep order, by increasing codimension
        groups: dict[int, list[WeylElement]] = {}
        for w in self.reps:
            groups.setdefault(parab.codim(w), []).append(w)
        self.by_codim = dict(sorted(groups.items()))
        # by codimension (unit class first), in rep order within one
        self.table_order = [w for group in self.by_codim.values() for w in group]
        self._table_rank = {w: k for k, w in enumerate(self.table_order)}
        self.labels = {w: f"c{codim}" + ("" if len(group) == 1 else _suffix(k))
                       for codim, group in self.by_codim.items() for k, w in enumerate(group)}

    # -- characters ------------------------------------------------------

    def _chi_coords(self, w: WeylElement, two_rho: tuple[int, ...],
                    two_rho_q: tuple[int, ...]) -> tuple[int, ...]:
        acc = self.rs.root_sum(self.parabolic.nilradical_roots - w.inversions)
        # cross-check, doubled: chi_w = rho - 2 rho_Q + w^{-1} rho, rho that of `within`
        wr = w.inverse.act_root(two_rho)
        alt = tuple(r - 2 * q + x for r, q, x in zip(two_rho, two_rho_q, wr))
        if any(2 * a != b for a, b in zip(acc, alt)):
            raise AssertionError(
                f"character formulas disagree at {w}: 2*{list(acc)} vs {list(alt)}")
        return acc

    def chi(self, w: WeylElement) -> tuple[int, ...]:
        """Character chi_w as a weight in root coordinates."""
        chi = self._chi.get(w)
        if chi is None:
            self.parabolic.refuse(w)
        return chi

    # -- products --------------------------------------------------------

    def classical_product(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, int]:
        """Cup product of the codim-graded classes, as {representative: coeff}.

        The memo holds representatives only, keyed by the elements themselves,
        so a miss is where `iota` refuses an element outside this ring's W^P.
        """
        key = (u, v) if u.index <= v.index else (v, u)
        hit = self._classical.get(key)
        if hit is not None:
            return hit
        p = self.parabolic
        row = self.basis.product(p.iota(u), p.iota(v))
        out: dict[WeylElement, int] = {}
        for k, c in row.items():
            el = self.group.elements[k]
            # restriction to L/B_L drops every class outside W_L
            if not el.inversions <= p.within_roots:
                continue
            if not p.contains(el):
                raise AssertionError(
                    f"product of minimal representatives left W^P at {el}")
            out[p.iota(el)] = c
        self._classical[key] = out
        return out

    def exponents(self, u: WeylElement, v: WeylElement, w: WeylElement) -> ExpVec:
        """Deformation exponents (chi_w - chi_u - chi_v)(x_i), i outside the Levi."""
        cu, cv, cw = self.chi(u), self.chi(v), self.chi(w)
        return tuple(cw[i] - cu[i] - cv[i] for i in self.omitted)

    def deformed_product(self, u: WeylElement, v: WeylElement) -> DeformedClass:
        out: dict[WeylElement, dict[ExpVec, int]] = {}
        for w, c in self.classical_product(u, v).items():
            e = self.exponents(u, v, w)
            if any(x < 0 for x in e):
                raise AssertionError(f"negative deformation exponent {e} at {u}, {v}, {w}")
            out[w] = {e: c}
        return DeformedClass(self, out)

    def product0(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, int]:
        """Degenerate product: classical constants with all exponents zero."""
        return self.deformed_product(u, v).at_zero()

    def multiply(self, a: DeformedClass, b: DeformedClass) -> DeformedClass:
        """Deformed product of two general classes."""
        out: dict[WeylElement, dict[ExpVec, int]] = {}
        for u, mu in a.coeffs.items():
            for v, mv in b.coeffs.items():
                for w, mono in self.deformed_product(u, v).coeffs.items():
                    tgt = out.setdefault(w, {})
                    for e0, c0 in mono.items():
                        for eu, cu in mu.items():
                            for ev, cv in mv.items():
                                e = tuple(x + y + z for x, y, z in zip(e0, eu, ev))
                                tgt[e] = tgt.get(e, 0) + c0 * cu * cv
        return DeformedClass(self, out)

    def basis_class(self, w: WeylElement) -> DeformedClass:
        """The class of a minimal representative; ValueError for any other element."""
        self.check_tuple((w,))
        zero = (0,) * len(self.omitted)
        return DeformedClass(self, {w: {zero: 1}})

    def unit(self) -> WeylElement:
        """Label of the identity class, w_o w_o^L."""
        return self.group.mult(self.parabolic.w_o, self.parabolic.w_o_levi)

    def point(self) -> WeylElement:
        """Label of the point class, the identity of W."""
        return self.group.identity

    # -- multi-factor coefficients and movability ------------------------

    def fold_step(self, acc: dict[WeylElement, int], w: WeylElement) -> dict[WeylElement, int]:
        """The product acc * [w] of a classical expansion {representative: coeff} and a class."""
        out: dict[WeylElement, int] = {}
        for x, c in acc.items():
            for y, c2 in self.classical_product(x, w).items():
                out[y] = out.get(y, 0) + c * c2
        return out

    def fold(self, ws: Sequence[WeylElement]) -> dict[WeylElement, int]:
        """Classical product of the classes of ws, as {representative: coeff}.

        Starts from the first factor (the unit when ws is empty) and stops
        as soon as the product is zero; every factor is checked first.
        """
        self.check_tuple(ws)
        if not ws:
            return {self.unit(): 1}
        acc = {ws[0]: 1}
        for w in ws[1:]:
            if not acc:
                break
            acc = self.fold_step(acc, w)
        return acc

    def point_coefficient(self, ws: Sequence[WeylElement]) -> int:
        """Classical coefficient of the point class in the product of the [ws]."""
        if not ws:
            raise ValueError("need at least one factor")
        return self.fold(ws[:-1]).get(self.parabolic.iota(ws[-1]), 0)

    def check_tuple(self, ws: Sequence[WeylElement]) -> None:
        """Raise ValueError unless every entry is a minimal representative of this ring's W^P."""
        for w in ws:
            if not self.parabolic.contains(w):
                self.parabolic.refuse(w)

    def is_levi_movable(self, ws: Sequence[WeylElement]) -> MovabilityCertificate:
        """Movability test for a tuple with codimensions summing to dim(G/P).

        Raises ValueError for entries outside this ring's W^P, DimensionError
        when the codimension condition fails, and ValueError for an empty
        tuple that meets it (on a point G/P); otherwise the certificate
        records the classical point-class coefficient and the per-coweight
        character gaps, and `.movable` is the verdict.
        """
        self.check_tuple(ws)
        p = self.parabolic
        total = sum(p.codim(w) for w in ws)
        if total != p.dim:
            raise DimensionError(
                f"codimensions sum to {total}, expected dim G/P = {p.dim}")
        return MovabilityCertificate(self.point_coefficient(ws), self.character_gaps(ws))

    def character_gaps(self, ws: Sequence[WeylElement]) -> dict[int, int]:
        """(sum chi_wj - chi_e)(x_i) for each i outside the Levi: no structure constant is
        needed, and a tuple with nonzero point coefficient is movable when all are 0."""
        chis, chi_e = [self.chi(w) for w in ws], self._chi[self.group.identity]
        return {i: sum(c[i] for c in chis) - chi_e[i] for i in self.omitted}

    # -- presentation ----------------------------------------------------

    def monomial(self, exps: ExpVec) -> str:
        """Monomial of an exponent vector, such as `t1t3^2`; "" for the constant 1."""
        return "".join(f"t{self.omitted[k] + 1}" + (f"^{e}" if e > 1 else "")
                       for k, e in enumerate(exps) if e)

    def is_minuscule(self) -> bool:
        """Maximal parabolic whose omitted simple root has coefficient 1 in the highest root."""
        if len(self.omitted) != 1:
            return False
        return self.rs.highest_root()[self.omitted[0]] == 1


def _suffix(k: int) -> str:
    """Label suffix of the k-th class of one codimension: a..z, then aa, ab, ..."""
    out = ""
    k += 1
    while k:
        k, r = divmod(k - 1, 26)
        out = chr(ord("a") + r) + out
    return out


def deformed_ring(parab: Parabolic) -> DeformedRing:
    """The DeformedRing of a parabolic, built once and kept on `parab`."""
    if parab._ring is None:
        parab._ring = DeformedRing(parab)
    return parab._ring
