"""`horn-check`: necessary inequalities for one tuple."""
from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from ..cli import EXIT_MISMATCH, EXIT_OK, Table, _job, _parse_levi, _ring_for
from ._words import _tuple_for, _words_args, parse_words

if TYPE_CHECKING:
    from ..horn import HornReport


def add_arguments(p: argparse.ArgumentParser) -> None:
    _words_args(p)
    p.add_argument("--check", choices=("all", "character", "refined", "dimension"),
                   default="all")
    p.add_argument("--inner-levi", help="1-based indices of the smaller Levi")
    p.add_argument("--outer-levi", help="1-based indices of the larger Levi")
    p.add_argument("--levi-words",
                   help="words of the Levi tuple in ambient 1-based indices")


def _report_tables(reports: list[tuple[str, HornReport]]) -> list[Table]:
    rows = []
    for fam, rep in reports:
        if not rep.applicable:
            rows.append([fam, "-", "-", "-", "-", "n/a", rep.reason])
            continue
        for c in rep.checks:
            note = " ".join(f"{k}={v}" for k, v in sorted(c.as_dict().get("data", {}).items())
                            if not isinstance(v, (list, dict)))
            rows.append([fam, c.kind, c.lhs, c.relation, c.rhs, c.passed, note])
    return [Table("checks", ["family", "kind", "lhs", "rel", "rhs", "ok", "context"], rows)]


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..horn import check_character, check_dimension, check_refined

    which = args.check
    wants_dimension = args.inner_levi is not None or args.outer_levi is not None
    idle = [k for k in ("inner-levi", "outer-levi", "levi-words") if k in _job(args)]
    if idle and which in ("character", "refined"):
        raise ValueError(f"--{idle[0]} does nothing with --check {which}")
    if idle and which == "all" and not wants_dimension:
        raise ValueError("--levi-words does nothing without --inner-levi and --outer-levi")
    ring = _ring_for(args)
    ws = _tuple_for(ring, args.words)
    reports: list[tuple[str, HornReport]] = []
    if which in ("all", "character"):
        reports.append(("character", check_character(ring, ws)))
    if which in ("all", "refined"):
        reports.append(("refined", check_refined(ring, ws)))
    if which == "dimension" or (which == "all" and wants_dimension):
        if args.inner_levi is None or args.outer_levi is None:
            raise ValueError("dimension checks need --inner-levi and --outer-levi")
        inner = _parse_levi(args.inner_levi, ring.rs.rank, "inner Levi")
        outer = _parse_levi(args.outer_levi, ring.rs.rank, "outer Levi")
        utuple = parse_words(args.levi_words, ring.rs.rank) if args.levi_words else \
            tuple(() for _ in ws)
        reports.append(("dimension", check_dimension(ring, ws, inner, outer, utuple)))
    failures = sum(len(rep.failures()) for _, rep in reports)
    payload = {
        "reports": {fam: rep.as_dict() for fam, rep in reports},
        "failures": failures,
    }
    tables = _report_tables(reports)
    tables.append(Table("result", ["key", "value"], [
        ["families run", ", ".join(fam for fam, _ in reports)],
        ["failed checks", failures],
    ]))
    return tables, payload, EXIT_OK if failures == 0 else EXIT_MISMATCH
