"""Schubert classes and their structure constants via divided differences.

Classes of G/B live in the coinvariant algebra; the class of codimension
l(w) indexed by w is represented by the polynomial obtained from the top
class prod(positive roots)/|W| by applying divided-difference operators
along a reduced word of w^{-1} w_o.  Structure constants are read off by
applying the operator of the target element and taking the constant term.

Constants for G/P are index restrictions of the G/B constants, so only the
G/B table is ever computed.  A disk cache (versioned, checksummed) can be
attached; it is never trusted over a fresh computation: a failed checksum
or a version mismatch silently triggers a rebuild, and a constant already
computed is never replaced by a stored one.
"""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path

from .poly import Poly
from .rootsystem import RootSystem
from .weyl import Parabolic, WeylElement, WeylGroup

CACHE_FORMAT_VERSION = 1
CACHE_ENV_VAR = "SCHUBDEFORM_CACHE_DIR"


def divided_difference(rs: RootSystem, i: int, f: Poly) -> Poly:
    """(f - s_i f) / alpha_i; exact, with a hard failure if division is inexact."""
    diff = f - f.reflect_substitute(i, rs.cartan[i])
    if diff.is_zero():
        return diff
    return diff.divexact_variable(i)


class SchubertBasis:
    """Basis polynomials and structure constants for one Weyl group."""

    def __init__(self, group: WeylGroup, cache_dir: str | os.PathLike | None = None):
        self.group = group
        self.rs = group.rs
        self._polys: dict[int, Poly] = {}
        self._products: dict[tuple[int, int], dict[int, int]] = {}
        self._cache_path: Path | None = None
        self._dirty = False
        self.use_cache_dir(cache_dir)

    # -- basis polynomials ----------------------------------------------

    def top_polynomial(self) -> Poly:
        prod = Poly.const(self.rs.rank, Fraction(1, self.group.order))
        for r in self.rs.positive_roots:
            prod = prod * Poly.linear(r)
        return prod

    def polynomial(self, w: WeylElement) -> Poly:
        """Representative polynomial of the codimension-l(w) class of w."""
        idx = w.index
        if idx in self._polys:
            return self._polys[idx]
        if w.length == len(self.rs.positive_roots):
            p = self.top_polynomial()
        else:
            # P_w = d_i P_{w s_i} for any ascent i of w
            g = self.group
            i = next(
                i for i in range(self.rs.rank)
                if g.mult(w, g.simple_reflection(i)).length > w.length
            )
            p = divided_difference(self.rs, i, self.polynomial(g.mult(w, g.simple_reflection(i))))
        self._polys[idx] = p
        return p

    # -- structure constants --------------------------------------------

    def product(self, u: WeylElement, v: WeylElement) -> dict[int, int]:
        """Expansion of class(u)*class(v) as {element index: coefficient}.

        Gradings add: only elements of length l(u)+l(v) can appear.
        """
        n_pos = len(self.rs.positive_roots)
        d = u.length + v.length
        if d > n_pos:
            return {}
        key = (u.index, v.index) if u.index <= v.index else (v.index, u.index)
        hit = self._products.get(key)
        if hit is not None:
            return hit
        out: dict[int, int] = {}
        f = self.polynomial(u) * self.polynomial(v)
        memo: dict[int, Poly] = {self.group.identity.index: f}

        def apply(y: WeylElement) -> Poly:
            got = memo.get(y.index)
            if got is not None:
                return got
            i = y.word[0]
            tail = self.group.mult(self.group.simple_reflection(i), y)
            p = divided_difference(self.rs, i, apply(tail))
            memo[y.index] = p
            return p

        for w in self.group.by_length(d):
            c = apply(w).constant_term()
            if c:
                frac = Fraction(c)
                if frac.denominator != 1 or frac < 0:
                    raise AssertionError(
                        f"non-integral or negative constant {c} at {u}, {v}, {w}"
                    )
                out[w.index] = int(frac)
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
        payload = json.dumps(doc.get("entries", {}), sort_keys=True, separators=(",", ":"))
        if hashlib.sha256(payload.encode()).hexdigest() != doc.get("sha256"):
            return {}
        out = {}
        for key, row in doc["entries"].items():
            a, b = key.split(",")
            out[(int(a), int(b))] = {int(w): int(c) for w, c in row.items()}
        return out


def chevalley_oracle(p: Parabolic, i: int, w: WeylElement) -> dict[int, int]:
    """Degree-1 product class(s_i)*class(w) on G/P by the reflection-sum rule.

    Independent of the divided-difference path: the coefficient of w s_beta
    (when it has length l(w)+1 and is a minimal representative) is
    omega_i(beta^vee).  Requires alpha_i outside the Levi and w in W^P.
    Returns {element index: coefficient}.
    """
    if i in p.levi:
        raise ValueError("degree-1 classes of G/P are indexed by simple roots outside the Levi")
    if not p.contains(w):
        raise ValueError("w is not a minimal coset representative")
    rs = p.rs
    g = p.group
    omega = rs.fundamental_weight(i).coords
    out: dict[int, int] = {}
    for beta in rs.positive_roots:
        s_beta = g.reflection(beta)
        cand = g.mult(w, s_beta)
        if cand.length != w.length + 1 or not p.contains(cand):
            continue
        bb = rs.form(beta, beta)
        mult = 2 * rs.form(omega, beta) / bb
        assert mult.denominator == 1 and mult >= 0
        if mult:
            out[cand.index] = out.get(cand.index, 0) + int(mult)
    return {k: v for k, v in out.items() if v}


def schubert_basis(group: WeylGroup) -> SchubertBasis:
    """The group's one SchubertBasis, built on first use and kept on `group`.

    It has no disk cache until `SchubertBasis.use_cache_dir` chooses one.
    """
    if group._basis is None:
        group._basis = SchubertBasis(group)
    return group._basis


def default_cache_dir(no_cache: bool = False) -> Path | None:
    """Cache directory from the environment, or None when caching is off."""
    if no_cache:
        return None
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return None
