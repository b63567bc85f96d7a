"""Schubert classes and their structure constants by localization.

Write xi^y(x) for the restriction of the equivariant class of y to the fixed
point x, evaluated where every simple root is 1, so each root takes its
height.  Billey's formula gives xi^e = 1 and, for x = x' s_j > x',
xi^y(x) = xi^y(x') + [y s_j < y] xi^{y s_j}(x') ht(x'(alpha_j)); then
xi^y(x) != 0 exactly when y <= x.  Restricted to x, the equivariant product
of u and v reads xi^u(x) xi^v(x) = sum_{y <= x} p_uv^y xi^y(x), a triangular
system solved in length order with integers alone: every division is exact,
every p_uv^y non-negative (Graham), and p_uv^x = c_uv^x at l(x) = l(u)+l(v).

Only the constants that can be nonzero are computed: p_uv^x = 0 unless
every right descent of x is a right descent of u or of v.  Take P with Levi
the simple indices that are descents of neither; then u and v lie in W^P,
and pullback H_T(G/P) -> H_T(G/B) is an injective ring map onto the span of
the classes of W^P, so their product lies in that span.

Constants for G/P are index restrictions of the G/B constants, and so are
those of the Levi flag varieties L/(L cap Q): restriction to the fibre L/B_L
of G/B -> G/P_L is a ring map keeping the class of each w in W_L and sending
the others to zero.  A Weyl group thus has one basis, memo set and cache file.

The coinvariant polynomials P_w, |W| times the class of w, stay as the
reference the tests compare against; no product reads them.

A disk cache can be attached to the basis.  Its file holds the rows as one
string, a JSON array of [u, v, [[w, c], ...]] integer rows, with the crc32
of that string, checked before the rows are parsed.  Any file this code did
not write for this group is ignored, and a constant already computed is
never replaced by a stored one.  The checksum catches a damaged file, not a
forged one, so zlib's crc32 does it and no job loads OpenSSL.
"""
from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

from .rootsystem import RootSystem
from .weyl import WeylElement, WeylGroup

if TYPE_CHECKING:
    from .poly import Poly

CACHE_FORMAT_VERSION = 3  # 3: rows as one checksummed string (2: keyed object, 1: sha256)


def divided_difference(rs: RootSystem, i: int, f: Poly) -> Poly:
    """(f - s_i f) / alpha_i; exact, with a hard failure if division is inexact."""
    diff = f - f.reflect_substitute(i, rs.cartan[i])
    if diff.is_zero():
        return diff
    return diff.divexact_variable(i)


class SchubertBasis:
    """Structure constants of one Weyl group, and its reference basis polynomials."""

    def __init__(self, group: WeylGroup):
        self.group = group
        self.rs = group.rs
        self._rows: dict[int, dict[int, int]] = {group.identity.index: {group.identity.index: 1}}
        self._polys: dict[int, Poly] = {}
        self._products: dict[tuple[int, int], dict[int, int]] = {}
        self._cache_path: Path | None = None  # no disk cache until `use_cache_dir`
        self._dirty = False

    # -- reference basis polynomials --------------------------------------

    def top_polynomial(self) -> Poly:
        """prod R+ with coefficient 1: |W| times the class of the point."""
        from .poly import Poly  # reference only: no product loads it

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
            p = divided_difference(self.rs, i, self.polynomial(w.right[i]))
        self._polys[idx] = p
        return p

    # -- structure constants --------------------------------------------

    def _restriction(self, x: WeylElement) -> dict[int, int]:
        """{y index: xi^y(x)} for every y <= x, by Billey's formula; memoised."""
        row = self._rows.get(x.index)
        if row is None:
            j = x.word[-1]
            prev = x.right[j]
            shorter = self._restriction(prev)
            height = sum(prev.cols[j])  # ht(x'(alpha_j)), a positive root
            row = dict(shorter)
            elements = self.group.elements
            for z, c in shorter.items():
                if not elements[z].descents >> j & 1:  # y = z s_j > z
                    y = elements[z].right[j].index
                    row[y] = row.get(y, 0) + c * height
            self._rows[x.index] = row
        return row

    def product(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        """Expansion of class(u)*class(v) as {element index: coefficient}.

        Gradings add: only elements of length l(u)+l(v) can appear.  The
        triangular solve runs over the x >= u, v of length at most that whose
        right descents all lie in D(u) | D(v); every other constant is zero
        without being computed.  ValueError for an element of another group,
        checked first: the memo is keyed by indices, which such an element shares.
        """
        self.group.check(u, v)
        d = u.length + v.length
        if d > self.rs.num_positive_roots:
            return {}
        key = (u.index, v.index) if u.index <= v.index else (v.index, u.index)
        hit = self._products.get(key)
        if hit is not None:
            return hit
        others = ~(u.descents | v.descents)
        solved: dict[int, int] = {}
        for x in self.group.elements[key[1]:]:  # length order: every x >= u, v
            if x.length > d:
                break
            if x.descents & others:
                continue
            row = self._restriction(x)
            value = row.get(u.index, 0) * row.get(v.index, 0)
            if not value:
                continue
            value -= sum(c * row.get(y, 0) for y, c in solved.items())
            c, rem = divmod(value, row[x.index])
            if rem or c < 0:
                raise AssertionError(
                    f"non-integral or negative constant {value}/{row[x.index]} at {u}, {v}, {x}"
                )
            if c:
                solved[x.index] = c
        out = {k: c for k, c in solved.items() if self.group.elements[k].length == d}
        self._products[key] = out
        self._dirty = True
        return out

    # -- disk cache ------------------------------------------------------

    def use_cache_dir(self, cache_dir: str | os.PathLike | None) -> None:
        """Read and write the disk cache in `cache_dir` from now on (None: no cache).

        The directory's file is merged into the known constants, and the
        basis is dirty unless the file already holds all of them, so the
        next `save_cache` leaves a complete file there.
        """
        self._cache_path = (None if cache_dir is None
                            else Path(cache_dir) / f"constants-{self.rs.label}.json")
        stored = self._load_cache() if self._cache_path else {}
        for key, row in stored.items():
            self._products.setdefault(key, row)
        self._dirty = self._cache_path is not None and any(
            stored.get(key) != row for key, row in self._products.items())

    def save_cache(self) -> None:
        if self._cache_path is None or not self._dirty:
            return
        entries = json.dumps([[u, v, sorted(row.items())]
                              for (u, v), row in sorted(self._products.items())],
                             separators=(",", ":"))
        doc = {
            "format_version": CACHE_FORMAT_VERSION,
            "label": self.rs.label,
            "cartan": self.rs.cartan,
            "entries": entries,
            "crc32": zlib.crc32(entries.encode()),
        }
        path = self._cache_path
        path.parent.mkdir(parents=True, exist_ok=True)
        # a temporary file of this writer's own: runs sharing the directory
        # each rename a complete file into place, the last one wins
        tmp = path.with_name(f"{path.stem}.{os.getpid()}-{id(self):x}.tmp")
        try:
            tmp.write_text(json.dumps(doc, sort_keys=True))
            tmp.replace(path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        self._dirty = False

    def _load_cache(self) -> dict[tuple[int, int], dict[int, int]]:
        """Constants in the cache file; empty unless this code wrote it for this group."""
        try:
            doc = json.loads(self._cache_path.read_text())
        except (OSError, ValueError, RecursionError):  # missing, unreadable, not JSON, too deep
            return {}
        # the entries are checked as read, before they are parsed; this code writes only ASCII
        if not isinstance(doc, dict) or doc.get("format_version") != CACHE_FORMAT_VERSION \
                or doc.get("cartan") != [list(r) for r in self.rs.cartan] \
                or not isinstance(entries := doc.get("entries"), str) or not entries.isascii() \
                or zlib.crc32(entries.encode()) != doc.get("crc32"):
            return {}
        n = len(self.group.elements)
        stored = {}
        try:
            for u, v, pairs in json.loads(entries):
                row = stored[u, v] = dict(pairs)
                if u > v or not all(type(x) is int and 0 <= x < n for x in (u, v, *row)) \
                        or not all(type(c) is int for c in row.values()):
                    return {}
        except (TypeError, ValueError, RecursionError):  # not a list of such rows
            return {}
        return stored


def schubert_basis(group: WeylGroup) -> SchubertBasis:
    """The SchubertBasis of `group`, built on first use and kept on it.

    It has no disk cache until `SchubertBasis.use_cache_dir` chooses one.
    """
    if group._basis is None:
        group._basis = SchubertBasis(group)
    return group._basis

