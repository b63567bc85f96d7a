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

from .deform import DeformedRing, MovabilityCertificate, deformed_ring
from .weyl import BudgetError, Parabolic, WeylElement, one_based, parabolic

_REL = {"<=": operator.le, "==": operator.eq, ">=": operator.ge}


class CentralChar(NamedTuple):
    """Restriction of a nilradical root to the center of the Levi.

    Two roots restrict to the same character exactly when their
    coefficients agree on every simple root outside the Levi, so a
    character is recorded as that coefficient tuple.
    """

    omitted: tuple[int, ...]
    signature: tuple[int, ...]


class HornCheck(NamedTuple("HornCheck", [("kind", str), ("lhs", int), ("rhs", int),
                                          ("relation", str), ("data", dict)])):
    """One exact inequality or identity, with its generating data."""

    __slots__ = ()

    def __new__(cls, kind: str, lhs: int, rhs: int, relation: str, data: dict | None = None):
        # a check built without data gets a dict of its own
        return super().__new__(cls, kind, lhs, rhs, relation, {} if data is None else data)

    @property
    def passed(self) -> bool:
        return _REL[self.relation](self.lhs, self.rhs)

    def as_dict(self) -> dict:
        data = {}
        for k, v in self.data.items():
            if k == "coweight":
                data[k] = v + 1
            elif k in ("inner_levi", "outer_levi"):
                data[k] = [i + 1 for i in v]
            elif k.endswith("words"):
                data[k] = [[i + 1 for i in w] for w in v]
            elif isinstance(v, tuple):
                data[k] = list(v)
            else:
                data[k] = v
        return {"kind": self.kind, "lhs": self.lhs, "rhs": self.rhs,
                "relation": self.relation, "passed": self.passed, "data": data}


class HornReport(NamedTuple):
    """Outcome of one family of checks on one tuple."""

    system: str
    levi: tuple[int, ...]
    words: tuple[tuple[int, ...], ...]
    applicable: bool
    reason: str
    coefficient: int | None
    checks: list[HornCheck]

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


def central_characters(parab: Parabolic) -> list[tuple[CentralChar, frozenset[int]]]:
    """Partition of the nilradical roots by their character on the center.

    Returns (character, positive-root index set) pairs sorted by
    signature; every class is nonempty.
    """
    rs = parab.rs
    classes: dict[tuple[int, ...], set[int]] = {}
    for k in parab.nilradical_roots:
        root = rs.positive_roots[k]
        sig = tuple(root[i] for i in parab.omitted)
        classes.setdefault(sig, set()).add(k)
    return [(CentralChar(parab.omitted, sig), frozenset(ks))
            for sig, ks in sorted(classes.items())]


def coset_codim(parab: Parabolic, w: WeylElement) -> int:
    """Codimension of the cell labelled by the coset w W_P, for any w in W.

    Counts the nilradical roots sent to positive roots by w; for a minimal
    representative this agrees with dim G/P - l(w).
    """
    return len(parab.nilradical_roots - parab.group.inversion_set(w))


def dimension_tuples(parab: Parabolic, s: int) -> Iterator[tuple[WeylElement, ...]]:
    """All s-tuples of minimal representatives with codimension sum dim G/P.

    Deterministic order: factors run through the representatives in their
    stored (length, matrix) order.
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


TUPLE_CAP = 5_000_000


def check_tuple_budget(sizes: Iterable[int], s: int, label: str) -> None:
    """Raise BudgetError when s-fold scans over quotients with these numbers
    of representatives could take more than TUPLE_CAP tuples, by the bound
    sum(n ** (s - 1) for n in sizes).

    The sum stops growing once it passes the cap, so a huge s costs a few
    multiplications, never a huge integer.
    """
    total = 0
    for n in sizes:
        term = 1
        for _ in range(s - 1 if n > 1 else 0):
            term *= n
            if total + term > TUPLE_CAP:
                break
        total += term
        if total > TUPLE_CAP:
            raise BudgetError(f"enumeration bound exceeds cap {TUPLE_CAP} for {label}, s={s}")


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
    `reps` are the minimal representatives of the quotient, elements of W;
    `evals[k][i]` is alpha_i(u_k x_p) for the representative u_k, i.e. the
    alpha_p-coefficient of u_k^{-1} alpha_i;
    `tuples` are the index tuples with nonzero product on the quotient.
    """

    coweight_index: int
    reps: list[WeylElement]
    evals: list[tuple[int, ...]]
    tuples: list[tuple[int, ...]]


def _nonzero_tuples(ring: DeformedRing, s: int) -> list[tuple[int, ...]]:
    """Index tuples of representatives whose classical product is nonzero."""
    out: list[tuple[int, ...]] = []

    def rec(acc: tuple, cur: dict[int, int]):
        if len(acc) == s:
            out.append(acc)
            return
        for pos, w in enumerate(ring.reps):
            nxt = ring.fold_step(cur, w)
            if nxt:
                rec(acc + (pos,), nxt)

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
    check_tuple_budget((len(sub.reps) for sub in subs.values()), s, ring.rs.label)
    blocks: list[LeviBlock] = []
    for p, sub in subs.items():
        blocks.append(LeviBlock(
            coweight_index=p,
            reps=list(sub.reps),
            evals=[tuple(col[p] for col in group.inverse(u).cols) for u in sub.reps],
            tuples=_nonzero_tuples(deformed_ring(sub), s),
        ))
    ring._levi_blocks[s] = blocks
    return blocks


# -- character inequalities ----------------------------------------------


def _report_shell(ring: DeformedRing, ws: Sequence[WeylElement]) -> dict:
    return {
        "system": ring.rs.label,
        "levi": ring.parabolic.levi,
        "words": tuple(w.word for w in ws),
    }


def _levi_checks(kind: str, chi: Sequence[Sequence[int]], chi_e: Sequence[int],
                 blocks: Sequence[LeviBlock], **data) -> list[HornCheck]:
    """sum_j chi_j(u_j x_p) <= chi_e(x_p) for every block p and nonzero Levi tuple u."""
    checks = []
    for blk in blocks:
        p = blk.coweight_index
        for tup in blk.tuples:
            lhs = sum(a * b for c, upos in zip(chi, tup) for a, b in zip(c, blk.evals[upos]))
            checks.append(HornCheck(
                kind, lhs, chi_e[p], "<=",
                {**data, "coweight": p,
                 "levi_words": tuple(blk.reps[k].word for k in tup)}))
    return checks


def _character_checks(ring: DeformedRing, ws: Sequence[WeylElement],
                      cert: MovabilityCertificate,
                      blocks: Sequence[LeviBlock]) -> list[HornCheck]:
    """The certificate's character gaps, which must be nonpositive, then the Levi pairings."""
    chi = [ring.chi(w).coords for w in ws]
    chi_e = ring.chi(ring.group.identity).coords
    checks = [HornCheck("character", gap, 0, "<=", {"coweight": i})
              for i, gap in cert.character_gap.items()]
    return checks + _levi_checks("character-levi", chi, chi_e, blocks)


def check_character(ring: DeformedRing, ws: Sequence[WeylElement]) -> HornReport:
    """Character inequalities for a tuple with codimension sum dim G/P.

    The classical point-class coefficient comes with the movability
    certificate; a zero coefficient makes the report inapplicable (the
    inequalities are only forced by a nonzero product).  Raises
    DimensionError when the codimension condition fails.
    """
    cert = ring.is_levi_movable(ws)
    shell = _report_shell(ring, ws)
    if cert.coefficient == 0:
        return HornReport(applicable=False, coefficient=0, checks=[],
                          reason="classical point coefficient is zero", **shell)
    checks = _character_checks(ring, ws, cert, levi_blocks(ring, len(ws)))
    return HornReport(applicable=True, coefficient=cert.coefficient, checks=checks,
                      reason="", **shell)


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
    shell = _report_shell(ring, ws)
    if not cert.movable:
        return HornReport(
            applicable=False, coefficient=cert.coefficient, checks=[],
            reason=("tuple is not Levi-movable: coefficient "
                    f"{cert.coefficient}, character gaps "
                    f"{ {i + 1: g for i, g in sorted(cert.character_gap.items())} }"),
            **shell)
    group = ring.group
    checks = []
    classes = central_characters(parab)
    for cc, roots in classes:
        lhs = sum(len(roots - group.inversion_set(w)) for w in ws)
        checks.append(HornCheck("class-size", lhs, len(roots), "==",
                                {"signature": cc.signature}))
    blocks = levi_blocks(ring, len(ws))
    for cc, roots in classes:
        # partial characters supported on this central class
        chi_c = [ring.rs.root_sum(roots - group.inversion_set(w)) for w in ws]
        chi_c_e = ring.rs.root_sum(roots)
        checks += _levi_checks("class-levi", chi_c, chi_c_e, blocks,
                               signature=cc.signature)
    return HornReport(applicable=True, coefficient=cert.coefficient,
                      checks=checks, reason="", **shell)


# -- dimension inequalities ----------------------------------------------


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
    parab = ring.parabolic
    group = ring.group
    ring.check_tuple(ws)
    q = tuple(sorted(set(inner_levi)))
    qh = tuple(sorted(set(outer_levi)))
    if not set(q) <= set(parab.levi):
        raise ValueError(f"inner Levi {one_based(q)} must sit inside the Levi "
                         f"{one_based(parab.levi)} (1-based indices)")
    if not set(q) <= set(qh):
        raise ValueError(f"outer Levi {one_based(qh)} must contain the inner Levi "
                         f"{one_based(q)} (1-based indices)")
    if not ring.fold(ws):
        raise ValueError("tuple has zero classical product")

    sub = parabolic(group, q, within=parab.levi)
    us = [sub.minimal_rep(_levi_element(sub, u)) for u in utuple]
    if len(us) != len(ws):
        raise ValueError("Levi tuple length must match the main tuple")
    if not deformed_ring(sub).fold(us):
        raise ValueError("Levi tuple has zero classical product")

    qhat_parab = parabolic(group, qh)
    qhat_ring = deformed_ring(qhat_parab)
    raw = [group.mult(w, u) for w, u in zip(ws, us)]
    hats = [qhat_parab.minimal_rep(r) for r in raw]
    for r, h in zip(raw, hats):
        if coset_codim(qhat_parab, r) != qhat_parab.codim(h):
            raise AssertionError("codimension not constant on the coset")

    checks = []
    hat_prod = qhat_ring.fold(hats)
    hat_words = tuple(h.word for h in hats)
    checks.append(HornCheck("product-nonzero", len(hat_prod), 1, ">=",
                            {"outer_levi": qh, "hat_words": hat_words}))
    checks.append(HornCheck(
        "dimension-bound", sum(qhat_parab.codim(h) for h in hats),
        qhat_parab.dim, "<=", {"outer_levi": qh, "hat_words": hat_words}))
    if set(qh) & set(parab.levi) == set(q):
        sides = [codim_difference_identity(ring, w, u, q, qh) for w, u in zip(ws, us)]
        if any(lhs != rhs for lhs, rhs in sides):
            raise AssertionError("codimension difference identity failed")
        terms = [rhs for _, rhs in sides]
        overlap = qhat_parab.nilradical_roots & parab.nilradical_roots
        checks.append(HornCheck(
            "dimension", sum(terms), len(overlap), "<=",
            {"inner_levi": q, "outer_levi": qh, "terms": tuple(terms),
             "hat_words": hat_words}))
    return HornReport(applicable=True, coefficient=None, checks=checks,
                      reason="", **_report_shell(ring, ws))


def codim_difference_identity(ring: DeformedRing, w: WeylElement, u,
                              inner_levi: Iterable[int],
                              outer_levi: Iterable[int]) -> tuple[int, int]:
    """Both sides of the codimension difference identity for w u.

    Left: codim of the coset of w u in G/Qhat minus the codim of u in its
    quotient of the Levi.  Right: the count of common nilradical roots of
    Qhat and P kept positive by w u.  Requires Qhat to meet P exactly in
    the inner parabolic; the two sides agree for every w in W^P and every
    u in the Levi subgroup.
    """
    parab = ring.parabolic
    group = ring.group
    q = tuple(sorted(set(inner_levi)))
    qh = tuple(sorted(set(outer_levi)))
    if set(qh) & set(parab.levi) != set(q):
        raise ValueError("outer parabolic must meet P exactly in the inner one")
    sub = parabolic(group, q, within=parab.levi)
    el = _levi_element(sub, u)
    qhat_parab = parabolic(group, qh)
    hat = group.mult(w, el)
    lhs = coset_codim(qhat_parab, hat) - sub.codim(sub.minimal_rep(el))
    overlap = qhat_parab.nilradical_roots & parab.nilradical_roots
    rhs = len(overlap - group.inversion_set(hat))
    return lhs, rhs


# -- converse experiment -------------------------------------------------


def converse_search(ring: DeformedRing, s: int = 3,
                    limit: int | None = 10) -> list[HornReport]:
    """Tuples meeting every character inequality yet with zero product.

    Scans the codimension-balanced s-tuples; each report returned is a
    candidate witness that the character inequalities do not suffice for
    nonvanishing.  Purely experimental: nothing is asserted either way.
    """
    check_tuple_budget([len(ring.reps)], s, ring.rs.label)
    tuples = dimension_tuples(ring.parabolic, s)  # rejects s < 1 before the Levi scan
    blocks = levi_blocks(ring, s)
    shellbase = {"system": ring.rs.label, "levi": ring.parabolic.levi}
    found: list[HornReport] = []
    for ws in tuples:
        cert = ring.is_levi_movable(ws)
        if cert.coefficient != 0:
            continue
        checks = _character_checks(ring, ws, cert, blocks)
        if all(c.passed for c in checks):
            found.append(HornReport(
                words=tuple(w.word for w in ws), applicable=True,
                reason="zero product but every character check passes",
                coefficient=0, checks=checks, **shellbase))
            if limit is not None and len(found) >= limit:
                break
    return found
