"""Necessary conditions for nonvanishing Schubert structure constants.

Three families of checks on tuples of minimal representatives:

* character inequalities: when the classical product of the classes is a
  nonzero multiple of the point class, the fundamental-coweight values of
  sum(chi_{w_j}) - chi_e are nonpositive, and so are the refinements
  obtained by pairing against u_j x_p for Schubert tuples u with nonzero
  product on a maximal parabolic quotient of the Levi;
* central-character refinements: for Levi-movable tuples the nilradical
  splits into classes by the root coefficients outside the Levi, and each
  class separately satisfies an exact count identity plus the refined
  pairing inequalities;
* dimension inequalities: pushing the tuple into a larger flag variety
  G/Qhat forces its product there to stay nonzero and bounds per-factor
  root counts inside the intersected nilradicals.

All checks return a HornReport whose stored left/right hand sides
re-evaluate to the recorded verdicts.
"""
from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

from .deform import DeformedRing, deformed_ring
from .weyl import Parabolic, WeylElement, check_tuple_budget, one_based, parabolic

_REL = {"<=": operator.le, "==": operator.eq, ">=": operator.ge}


class HornCheck(NamedTuple):
    """One exact inequality or identity, with its generating data: simple
    indices and words 1-based and sequences as lists, as printed."""

    kind: str
    lhs: int
    rhs: int
    relation: str
    data: dict

    @property
    def passed(self) -> bool:
        return _REL[self.relation](self.lhs, self.rhs)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "lhs": self.lhs, "rhs": self.rhs,
                "relation": self.relation, "passed": self.passed, "data": dict(self.data)}


class HornReport(NamedTuple):
    """Outcome of one family of checks on one tuple."""

    system: str
    levi: tuple[int, ...]
    words: tuple[tuple[int, ...], ...]
    reason: str
    coefficient: int | None
    checks: list[HornCheck]

    @property
    def applicable(self) -> bool:
        """Whether the family applies to the tuple: exactly when it gives no reason."""
        return not self.reason

    @property
    def passed(self) -> bool:
        """Whether every reported inequality holds (vacuously if none)."""
        return all(c.passed for c in self.checks)

    def failures(self) -> list[HornCheck]:
        return [c for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        return {
            "system": self.system,
            "levi": [i + 1 for i in self.levi],
            "words": [[i + 1 for i in w] for w in self.words],
            "applicable": self.applicable,
            "reason": self.reason,
            "coefficient": self.coefficient,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


def central_characters(parab: Parabolic) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """Partition of the nilradical roots by their character on the center.

    Two roots restrict to the same character exactly when their
    coefficients agree on every simple root outside the Levi, so a
    character is recorded as that coefficient tuple, its signature.
    Returns (signature, positive-root index set) pairs sorted by
    signature; every class is nonempty.
    """
    rs = parab.rs
    classes: dict[tuple[int, ...], set[int]] = {}
    for k in parab.nilradical_roots:
        root = rs.positive_roots[k]
        sig = tuple(root[i] for i in parab.omitted)
        classes.setdefault(sig, set()).add(k)
    return [(sig, frozenset(ks)) for sig, ks in sorted(classes.items())]


def coset_codim(parab: Parabolic, w: WeylElement) -> int:
    """Codimension of the cell labelled by the coset w W_P, for any w in W.

    Counts the nilradical roots sent to positive roots by w; for a minimal
    representative this agrees with dim G/P - l(w).
    """
    parab.group.check(w)
    return len(parab.nilradical_roots - parab.group.inversion_set(w))


def dimension_tuples(parab: Parabolic, s: int) -> Iterator[tuple[WeylElement, ...]]:
    """All s-tuples of minimal representatives with codimension sum dim G/P.

    Deterministic order: factors run through the representatives in their
    stored (length, matrix) order.  No command runs it: it is the tests'
    enumerator of balanced tuples, and the benchmark tracer times it by name.
    """
    if s < 1:
        raise ValueError("need at least one factor")
    reps = parab.reps
    dim = parab.dim

    def rec(j: int, remaining: int, acc: tuple) -> Iterator[tuple[WeylElement, ...]]:
        if j == s - 1:
            for w in reps:
                if parab.codim(w) == remaining:
                    yield acc + (w,)
            return
        slots = s - 1 - j
        for w in reps:
            after = remaining - parab.codim(w)
            if 0 <= after <= slots * dim:
                yield from rec(j + 1, after, acc + (w,))

    return rec(0, dim, ())


# -- Levi recursion ------------------------------------------------------


def _levi_element(sub: Parabolic, u) -> WeylElement:
    """An element of the Levi subgroup W_L of `sub`, given as one or as a word in ambient indices."""
    if isinstance(u, WeylElement):
        if u.group is not sub.group or not sub.group.inversion_set(u) <= sub.within_roots:
            raise ValueError("Levi tuple entries must lie in the Levi subgroup")
        return u
    for i in u:
        if i not in sub.within:
            raise ValueError(f"simple index {i + 1} is not in the Levi {one_based(sub.within)}"
                             " (1-based indices)")
    return sub.group.from_word(u)


class LeviBlock(NamedTuple):
    """Pairing data from one maximal parabolic quotient of the Levi.

    `coweight_index` is the simple index p omitted from the quotient;
    `evals[u][i]` is alpha_i(u x_p) for each minimal representative u of
    the quotient (an element of W), i.e. the alpha_p-coefficient of
    u^{-1} alpha_i;
    `tuples` are the tuples of representatives with nonzero product on the
    quotient.
    """

    coweight_index: int
    evals: dict[WeylElement, tuple[int, ...]]
    tuples: list[tuple[WeylElement, ...]]


def _nonzero_tuples(ring: DeformedRing, s: int) -> list[tuple[WeylElement, ...]]:
    """Tuples of representatives whose classical product is nonzero."""
    out: list[tuple[WeylElement, ...]] = []

    def rec(acc: tuple, cur: dict[WeylElement, int]):
        if len(acc) == s:
            out.append(acc)
            return
        for w in ring.reps:
            nxt = ring.fold_step(cur, w)
            if nxt:
                rec(acc + (w,), nxt)

    rec((), ring.fold(()))
    return out


def levi_blocks(ring: DeformedRing, s: int) -> list[LeviBlock]:
    """Pairing data for every maximal parabolic quotient of the Levi, kept on `ring`."""
    hit = ring._levi_blocks.get(s)
    if hit is not None:
        return hit
    levi = ring.parabolic.levi
    group = ring.group
    subs = {p: parabolic(group, tuple(i for i in levi if i != p), within=levi) for p in levi}
    # _nonzero_tuples leaves all s factors free
    check_tuple_budget((len(sub.reps) for sub in subs.values()), s, s, ring.rs.label)
    blocks: list[LeviBlock] = []
    for p, sub in subs.items():
        blocks.append(LeviBlock(
            coweight_index=p,
            evals={u: tuple(col[p] for col in group.inverse(u).cols) for u in sub.reps},
            tuples=_nonzero_tuples(deformed_ring(sub), s),
        ))
    ring._levi_blocks[s] = blocks
    return blocks


# -- character inequalities ----------------------------------------------


def _report(ring: DeformedRing, ws: Sequence[WeylElement], coefficient: int | None,
            checks: list[HornCheck], reason: str = "") -> HornReport:
    """The report of one family of checks on `ws`, inapplicable when `reason` is given."""
    return HornReport(ring.rs.label, ring.parabolic.levi, tuple(w.word for w in ws),
                      reason, coefficient, checks)


def _levi_checks(kind: str, chi: Sequence[Sequence[int]], chi_e: Sequence[int],
                 blocks: Sequence[LeviBlock], **data) -> list[HornCheck]:
    """sum_j chi_j(u_j x_p) <= chi_e(x_p) for every block p and nonzero Levi tuple u."""
    checks = []
    for blk in blocks:
        p = blk.coweight_index
        for tup in blk.tuples:
            lhs = sum(a * b for c, u in zip(chi, tup) for a, b in zip(c, blk.evals[u]))
            checks.append(HornCheck(
                kind, lhs, chi_e[p], "<=",
                {**data, "coweight": p + 1, "levi_words": [[i + 1 for i in u.word] for u in tup]}))
    return checks


def check_character(ring: DeformedRing, ws: Sequence[WeylElement]) -> HornReport:
    """Character inequalities for a tuple with codimension sum dim G/P.

    The classical point-class coefficient comes with the movability
    certificate; a zero coefficient makes the report inapplicable (the
    inequalities are only forced by a nonzero product).  Raises
    DimensionError when the codimension condition fails.
    """
    cert = ring.is_levi_movable(ws)
    if cert.coefficient == 0:
        return _report(ring, ws, 0, [], "classical point coefficient is zero")
    chi = [ring.chi(w) for w in ws]
    chi_e = ring.chi(ring.group.identity)
    checks = [HornCheck("character", gap, 0, "<=", {"coweight": i + 1})
              for i, gap in cert.character_gap.items()]
    checks += _levi_checks("character-levi", chi, chi_e, levi_blocks(ring, len(ws)))
    return _report(ring, ws, cert.coefficient, checks)


# -- central character refinements ---------------------------------------


def check_refined(ring: DeformedRing, ws: Sequence[WeylElement]) -> HornReport:
    """Central-character refinements, valid for Levi-movable tuples only.

    Per class: the per-factor counts of class roots kept positive must
    add up to the class size, and the class-restricted characters satisfy
    the same coweight pairings as the full ones.  Non-movable input gives
    an inapplicable report.
    """
    parab = ring.parabolic
    cert = ring.is_levi_movable(ws)
    if not cert.movable:
        return _report(ring, ws, cert.coefficient, [],
                       "tuple is not Levi-movable: coefficient "
                       f"{cert.coefficient}, character gaps "
                       f"{ {i + 1: g for i, g in sorted(cert.character_gap.items())} }")
    group = ring.group
    checks = []
    classes = central_characters(parab)
    for sig, roots in classes:
        lhs = sum(len(roots - group.inversion_set(w)) for w in ws)
        checks.append(HornCheck("class-size", lhs, len(roots), "==", {"signature": list(sig)}))
    blocks = levi_blocks(ring, len(ws))
    for sig, roots in classes:
        # partial characters supported on this central class
        chi_c = [ring.rs.root_sum(roots - group.inversion_set(w)) for w in ws]
        chi_c_e = ring.rs.root_sum(roots)
        checks += _levi_checks("class-levi", chi_c, chi_c_e, blocks, signature=list(sig))
    return _report(ring, ws, cert.coefficient, checks)


# -- dimension inequalities ----------------------------------------------


def _levi_pair(ring: DeformedRing, inner_levi: Iterable[int], outer_levi: Iterable[int]
               ) -> tuple[Parabolic, Parabolic, frozenset[int] | None]:
    """L/(L cap Q) for the inner Levi Q, G/Qhat for the outer Levi, and the common
    nilradical roots of Qhat and P when Qhat meets P exactly in Q, else None.
    Q must sit inside the Levi of P and Qhat contain Q, checked before either is built."""
    parab = ring.parabolic
    q, qh, levi = set(inner_levi), set(outer_levi), set(parab.levi)
    if not q <= levi:
        raise ValueError(f"inner Levi {one_based(sorted(q))} must sit inside the Levi "
                         f"{one_based(parab.levi)} (1-based indices)")
    if not q <= qh:
        raise ValueError(f"outer Levi {one_based(sorted(qh))} must contain the inner Levi "
                         f"{one_based(sorted(q))} (1-based indices)")
    qhat_parab = parabolic(ring.group, qh)
    overlap = qhat_parab.nilradical_roots & parab.nilradical_roots if qh & levi == q else None
    return parabolic(ring.group, q, within=parab.levi), qhat_parab, overlap


def check_dimension(ring: DeformedRing, ws: Sequence[WeylElement],
                    inner_levi: Iterable[int], outer_levi: Iterable[int],
                    utuple: Sequence) -> HornReport:
    """Dimension inequalities from projecting into a larger flag variety.

    `inner_levi` picks a parabolic Q inside P (so inside the Levi of P),
    `outer_levi` a parabolic Qhat containing Q.  The tuple must have a
    nonzero classical product on G/P and the Levi tuple `utuple` (elements
    of the Levi subgroup W_L, or words in its simple indices) a nonzero
    product on L/(L cap Q).  The shifted classes w_j u_j then have a
    nonzero product on G/Qhat, and when Qhat meets P exactly in Q the
    per-factor counts of kept roots in the common nilradical are bounded
    by its size.
    """
    sub, qhat_parab, overlap = _levi_pair(ring, inner_levi, outer_levi)
    if not ring.fold(ws):  # which refuses any w outside W^P
        raise ValueError("tuple has zero classical product")

    us = [sub.minimal_rep(_levi_element(sub, u)) for u in utuple]
    if len(us) != len(ws):
        raise ValueError("Levi tuple length must match the main tuple")
    if not deformed_ring(sub).fold(us):
        raise ValueError("Levi tuple has zero classical product")

    raw = [ring.group.mult(w, u) for w, u in zip(ws, us)]
    hats = [qhat_parab.minimal_rep(r) for r in raw]
    for r, h in zip(raw, hats):
        if coset_codim(qhat_parab, r) != qhat_parab.codim(h):
            raise AssertionError("codimension not constant on the coset")

    checks = []
    qh = qhat_parab.levi
    hat_prod = deformed_ring(qhat_parab).fold(hats)
    outer = [i + 1 for i in qh]
    hat_words = [[i + 1 for i in h.word] for h in hats]
    checks.append(HornCheck("product-nonzero", len(hat_prod), 1, ">=",
                            {"outer_levi": outer, "hat_words": hat_words}))
    checks.append(HornCheck(
        "dimension-bound", sum(qhat_parab.codim(h) for h in hats),
        qhat_parab.dim, "<=", {"outer_levi": outer, "hat_words": hat_words}))
    if overlap is not None:
        sides = [codim_difference_identity(ring, w, u, sub.levi, qh) for w, u in zip(ws, us)]
        if any(lhs != rhs for lhs, rhs in sides):
            raise AssertionError("codimension difference identity failed")
        terms = [rhs for _, rhs in sides]
        checks.append(HornCheck(
            "dimension", sum(terms), len(overlap), "<=",
            {"inner_levi": [i + 1 for i in sub.levi], "outer_levi": outer, "terms": terms,
             "hat_words": hat_words}))
    return _report(ring, ws, None, checks)


def codim_difference_identity(ring: DeformedRing, w: WeylElement, u,
                              inner_levi: Iterable[int],
                              outer_levi: Iterable[int]) -> tuple[int, int]:
    """Both sides of the codimension difference identity for w u.

    Left: codim of the coset of w u in G/Qhat minus the codim of u in its
    quotient of the Levi.  Right: the count of common nilradical roots of
    Qhat and P kept positive by w u.  Requires w in W^P and Qhat to meet P
    exactly in the inner parabolic; the two sides then agree for every u
    in the Levi subgroup.
    """
    ring.check_tuple((w,))
    sub, qhat_parab, overlap = _levi_pair(ring, inner_levi, outer_levi)
    if overlap is None:
        raise ValueError("outer parabolic must meet P exactly in the inner one")
    el = _levi_element(sub, u)
    hat = ring.group.mult(w, el)
    lhs = coset_codim(qhat_parab, hat) - sub.codim(sub.minimal_rep(el))
    return lhs, len(overlap - ring.group.inversion_set(hat))

