"""Schubert classes and their structure constants via divided differences.

Classes of G/B live in the coinvariant algebra.  Everything here is integer:
the top class is prod(positive roots) with coefficient 1, which is |W| times
the class of the point, and P_w, the divided difference along a reduced word
of w^{-1} w_o applied to it, is |W| times the class of w.

A structure constant is a dot product.  Write E_w(m) for the constant term of
d_w x^m, the divided difference of w applied to one monomial; then
c_{uv}^w = sum_m [P_u P_v]_m E_w(m) / |W|^2, and the division must be exact
with a non-negative quotient.  E_w is one linear functional on monomials of
degree l(w), shared by every product of the basis and memoised per (w, m)
through E_w(m) = sum_m' [d_j x^m]_m' E_{w s_j}(m') for the last letter j of
the reduced word of w.

Only the constants that can be nonzero are computed: c_{uv}^w = 0 unless
every right descent of w is a right descent of u or of v.  Take P with Levi
the simple indices that are descents of neither; then u and v lie in W^P,
and pullback H*(G/P) -> H*(G/B) is an injective ring map onto the span of
the classes of W^P, so their product lies in that span.

Constants for G/P are index restrictions of the G/B constants, and so are
those of the Levi flag varieties L/(L cap Q): restriction to the fibre L/B_L
of G/B -> G/P_L is a ring map keeping the class of each w in W_L and sending
the others to zero.  A Weyl group thus has one basis, memo set and cache file.

A disk cache (versioned, checksummed) can be attached to the basis; it is
never trusted over a fresh computation: a failed checksum or a version
mismatch silently triggers a rebuild, and a constant already computed is
never replaced by a stored one.
"""
from __future__ import annotations

import json
import os
from operator import mul
from pathlib import Path
from typing import AbstractSet

from .poly import Monomial, Poly
from .rootsystem import RootSystem
from .weyl import WeylElement, WeylGroup

CACHE_FORMAT_VERSION = 1
CACHE_ENV_VAR = "SCHUBDEFORM_CACHE_DIR"


def divided_difference(rs: RootSystem, i: int, f: Poly) -> Poly:
    """(f - s_i f) / alpha_i; exact, with a hard failure if division is inexact."""
    diff = f - f.reflect_substitute(i, rs.cartan[i])
    if diff.is_zero():
        return diff
    return diff.divexact_variable(i)


class SchubertBasis:
    """Basis polynomials and structure constants of one Weyl group."""

    def __init__(self, group: WeylGroup):
        self.group = group
        self.rs = group.rs
        self._by_length: list[list[WeylElement]] = [
            [] for _ in range(self.rs.num_positive_roots + 1)]
        for w in group.elements:
            self._by_length[w.length].append(w)
        self._polys: dict[int, Poly] = {}
        self._functionals: dict[int, dict[Monomial, int]] = {
            group.identity.index: {(0,) * self.rs.rank: 1}}
        self._steps: dict[tuple[int, Monomial], dict[Monomial, int]] = {}
        self._products: dict[tuple[int, int], dict[int, int]] = {}
        self._cache_path: Path | None = None  # no disk cache until `use_cache_dir`
        self._dirty = False

    # -- basis polynomials ----------------------------------------------

    def top_polynomial(self) -> Poly:
        """prod R+ with coefficient 1: |W| times the class of the point."""
        prod = Poly.const(self.rs.rank, 1)
        for root in self.rs.positive_roots:
            prod = prod * Poly.linear(root)
        return prod

    def polynomial(self, w: WeylElement) -> Poly:
        """|W| times the representative polynomial of the codimension-l(w) class of w."""
        idx = w.index
        if idx in self._polys:
            return self._polys[idx]
        if w.length == self.rs.num_positive_roots:
            p = self.top_polynomial()
        else:
            # P_w = d_i P_{w s_i} for any ascent i of w
            i = next(i for i in range(self.rs.rank) if not w.descents >> i & 1)
            p = divided_difference(self.rs, i, self.polynomial(self.group.times_simple(w, i)))
        self._polys[idx] = p
        return p

    # -- structure constants --------------------------------------------

    def product(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        """Expansion of class(u)*class(v) as {element index: coefficient}.

        Gradings add: only elements of length l(u)+l(v) can appear, and only
        those whose right descents all lie in D(u) | D(v); every other
        constant of the row is zero without being computed.
        """
        d = u.length + v.length
        if d > self.rs.num_positive_roots:
            return {}
        key = (u.index, v.index) if u.index <= v.index else (v.index, u.index)
        hit = self._products.get(key)
        if hit is not None:
            return hit
        f = self.polynomial(u) * self.polynomial(v)
        monos, coeffs = f.terms.keys(), list(f.terms.values())
        scale = self.group.order ** 2
        others = ~(u.descents | v.descents)
        out: dict[int, int] = {}
        for w in self._by_length[d]:
            if w.descents & others:
                continue
            dot = sum(map(mul, coeffs, map(self.functional(w, monos).__getitem__, monos)))
            c, rem = divmod(dot, scale)
            if rem or c < 0:
                raise AssertionError(
                    f"non-integral or negative constant {dot}/{scale} at {u}, {v}, {w}"
                )
            if c:
                out[w.index] = c
        self._products[key] = out
        self._dirty = True
        return out

    def functional(self, w: WeylElement, monos: AbstractSet[Monomial]) -> dict[Monomial, int]:
        """E_w as {m: constant term of d_w x^m}, with an entry for each of `monos`.

        Entries are memoised for the life of the basis and shared by every
        product; the monomials must have degree l(w).
        """
        row = self._functionals.setdefault(w.index, {})
        missing = monos - row.keys()
        if missing:
            j = w.word[-1]
            steps = {m: self._step(j, m) for m in missing}
            shorter = self.functional(self.group.times_simple(w, j),
                                      {m2 for step in steps.values() for m2 in step})
            for m, step in steps.items():
                row[m] = sum(c * shorter[m2] for m2, c in step.items())
        return row

    def _step(self, j: int, mono: Monomial) -> dict[Monomial, int]:
        """The terms of d_j x^m, memoised per (j, m)."""
        got = self._steps.get((j, mono))
        if got is None:
            got = self._steps[(j, mono)] = divided_difference(
                self.rs, j, Poly(self.rs.rank, {mono: 1})).terms
        return got

    # -- disk cache ------------------------------------------------------

    def use_cache_dir(self, cache_dir: str | os.PathLike | None) -> None:
        """Read and write the disk cache in `cache_dir` from now on (None: no cache).

        The directory's file is merged into the known constants, and the
        basis is dirty unless the file already holds all of them, so the
        next `save_cache` leaves a complete file there.
        """
        self._cache_path = None
        if cache_dir is not None:
            self._cache_path = Path(cache_dir) / f"constants-{self.rs.label}.json"
        stored = self._load_cache()
        for key, row in stored.items():
            self._products.setdefault(key, row)
        self._dirty = self._cache_path is not None and any(
            stored.get(key) != row for key, row in self._products.items())

    def _payload(self) -> str:
        entries = {
            f"{k[0]},{k[1]}": {str(w): c for w, c in sorted(row.items())}
            for k, row in sorted(self._products.items())
        }
        return json.dumps(entries, sort_keys=True, separators=(",", ":"))

    def save_cache(self) -> None:
        if self._cache_path is None or not self._dirty:
            return
        import hashlib  # only runs that touch a cache file pay for it

        payload = self._payload()
        doc = {
            "format_version": CACHE_FORMAT_VERSION,
            "label": self.rs.label,
            "cartan": self.rs.cartan,
            "entries": json.loads(payload),
            "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        }
        self._cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        tmp.replace(self._cache_path)
        self._dirty = False

    def _load_cache(self) -> dict[tuple[int, int], dict[int, int]]:
        """Constants stored in the cache file; empty when it is missing or invalid."""
        path = self._cache_path
        if path is None or not path.exists():
            return {}
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        if doc.get("format_version") != CACHE_FORMAT_VERSION:
            return {}
        if doc.get("cartan") != [list(r) for r in self.rs.cartan]:
            return {}
        import hashlib

        payload = json.dumps(doc.get("entries", {}), sort_keys=True, separators=(",", ":"))
        if hashlib.sha256(payload.encode()).hexdigest() != doc.get("sha256"):
            return {}
        out = {}
        for key, row in doc["entries"].items():
            a, b = key.split(",")
            out[(int(a), int(b))] = {int(w): int(c) for w, c in row.items()}
        return out


def schubert_basis(group: WeylGroup) -> SchubertBasis:
    """The SchubertBasis of `group`, built on first use and kept on it.

    It has no disk cache until `SchubertBasis.use_cache_dir` chooses one.
    """
    if group._basis is None:
        group._basis = SchubertBasis(group)
    return group._basis


def default_cache_dir() -> Path | None:
    """Cache directory from the environment, or None when it names none."""
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None
