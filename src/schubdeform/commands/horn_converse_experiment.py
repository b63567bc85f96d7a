"""`horn-converse-experiment`: search for zero-product tuples passing the character checks."""
from __future__ import annotations

import argparse

from ..cli import EXIT_OK, Table, _add_common, _ring_for


def add_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--limit", type=int, default=10,
                   help="stop after this many candidates (0 = unlimited)")


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..horn import converse_search
    from ..weyl import one_based

    if args.limit < 0:
        raise ValueError(f"--limit must be 0 (unlimited) or positive, not {args.limit}")
    ring = _ring_for(args)
    found = converse_search(ring, s=args.s, limit=args.limit or None)
    rows = [[k + 1, "; ".join(one_based(w, "e") for w in rep.words)]
            for k, rep in enumerate(found)]
    tables = [
        Table("summary", ["key", "value"], [
            ["system", ring.rs.label],
            ["levi", one_based(ring.parabolic.levi)],
            ["candidates", len(found)],
        ]),
        Table("zero-product tuples passing every character inequality",
              ["#", "words"], rows),
    ]
    payload = {
        "system": ring.rs.label,
        "levi": [i + 1 for i in ring.parabolic.levi],
        "candidates": [rep.as_dict() for rep in found],
    }
    return tables, payload, EXIT_OK
