"""Verification of computed deformed products against bundled reference tables.

Reference tables label classes only by codimension, with primes separating
classes of equal codimension, so a table pins the ring down up to a
degree-preserving relabelling.  The verifier searches the (small) set of
codimension-preserving bijections for one under which every tabulated entry
matches exactly; zero entries and pairs absent from a table (those whose
codimensions sum beyond the dimension) are also checked.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .weyl import WeylElement, parabolic, weyl_group
from .rootsystem import root_system

if TYPE_CHECKING:
    from .deform import DeformedRing

GOLDEN_NAMES = ("b3_p2", "b3_p3", "c3_p1", "c3_p2")
_TABLE_DIR = Path(__file__).with_name("data") / "golden"


class GoldenTable(NamedTuple):
    name: str
    family: str
    rank: int
    parabolic: int  # 1-based index of the omitted simple root
    classes: dict[str, int]  # label -> codimension
    products: dict[tuple[str, str], list[tuple[int, int, str]]]

    @classmethod
    def load(cls, key: str) -> "GoldenTable":
        # the tables ship as package files next to this module, so no job
        # needs importlib.resources to read one
        doc = json.loads((_TABLE_DIR / f"{key}.json").read_text())
        products = {}
        for pair, entries in doc["products"].items():
            a, b = pair.split("|")
            products[(a, b)] = [(int(c), int(e), lab) for c, e, lab in entries]
        return cls(
            name=doc["name"],
            family=doc["family"],
            rank=int(doc["rank"]),
            parabolic=int(doc["parabolic"]),
            classes={k: int(v) for k, v in doc["classes"].items()},
            products=products,
        )


class GoldenResult(NamedTuple):
    """A verdict, with the bijection (table label -> internal label) that matched."""

    name: str
    matched: bool
    bijection: dict[str, str]
    detail: str


def _ring_for(table: GoldenTable) -> DeformedRing:
    from .deform import deformed_ring  # listing GOLDEN_NAMES loads no ring layer

    rs = root_system(table.family, table.rank)
    group = weyl_group(rs)
    levi = tuple(i for i in range(table.rank) if i != table.parabolic - 1)
    return deformed_ring(parabolic(group, levi))


def _bijections(table: GoldenTable, ring: DeformedRing):
    """All codimension-preserving maps from table labels to representatives."""
    table_by_codim: dict[int, list[str]] = {}
    for lab, cd in table.classes.items():
        table_by_codim.setdefault(cd, []).append(lab)
    codims = sorted(table_by_codim)
    for cd in codims:
        if len(table_by_codim[cd]) != len(ring.by_codim.get(cd, [])):
            return
    choices = [itertools.permutations(ring.by_codim[cd]) for cd in codims]
    for combo in itertools.product(*choices):
        yield {lab: w for cd, perm in zip(codims, combo)
               for lab, w in zip(table_by_codim[cd], perm)}


def _check_bijection(table: GoldenTable, ring: DeformedRing,
                     mapping: dict[str, WeylElement]) -> str:
    """Empty string when every tabulated product matches, else a diagnostic."""
    for (la, lb), entries in table.products.items():
        got = ring.deformed_product(mapping[la], mapping[lb])
        expect: dict[WeylElement, dict[tuple[int, ...], int]] = {}
        for c, e, lab in entries:
            expect.setdefault(mapping[lab], {})[(e,)] = c
        if got.coeffs != expect:
            return f"{la}*{lb}: computed {got.coeffs} != tabulated {expect}"
    # pairs not shown must be forced to zero by the grading
    shown = set(table.products) | {(b, a) for a, b in table.products}
    for la, ca in table.classes.items():
        for lb, cb in table.classes.items():
            if (la, lb) in shown:
                continue
            if ca + cb <= ring.parabolic.dim:
                return f"table omits {la}*{lb} though codimensions allow a nonzero product"
            if not ring.deformed_product(mapping[la], mapping[lb]).is_zero():
                return f"{la}*{lb}: expected zero beyond top degree"
    return ""


def verify_table(table: GoldenTable) -> GoldenResult:
    ring = _ring_for(table)
    # table must list every non-unit class
    nonunit = len(ring.reps) - 1
    if len(table.classes) != nonunit:
        return GoldenResult(table.name, False, {},
                            f"table lists {len(table.classes)} classes, ring has {nonunit}")
    last_detail = "no codimension-preserving bijection exists"
    for mapping in _bijections(table, ring):
        detail = _check_bijection(table, ring, mapping)
        if not detail:
            bij = {lab: ring.labels[w] for lab, w in mapping.items()}
            return GoldenResult(table.name, True, bij, "")
        last_detail = detail
    return GoldenResult(table.name, False, {}, last_detail)


def verify_all() -> list[GoldenResult]:
    return [verify_table(GoldenTable.load(k)) for k in GOLDEN_NAMES]
