"""`deform-table`: full deformed multiplication table."""
from __future__ import annotations

import argparse

from ..cli import EXIT_OK, Table, _add_common, _ring_for

add_arguments = _add_common


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..weyl import check_tuple_budget, one_based

    ring = _ring_for(args)
    parab = ring.parabolic
    order = [pos for pos in ring.table_order() if ring.reps[pos].length < parab.dim]
    check_tuple_budget((len(order),), 2, 2, ring.rs.label)
    labels = [ring.labels[pos] for pos in order]
    classes = Table("classes", ["label", "word", "codim"],
                    [[ring.labels[pos], one_based(ring.reps[pos].word, "e"),
                      parab.codim(ring.reps[pos])] for pos in order])
    grid_rows = []
    entries = []
    for pu in order:
        row = [ring.labels[pu]]
        for pv in order:
            val = repr(ring.deformed_product(ring.reps[pu], ring.reps[pv]))
            row.append(val)
            if pu <= pv:
                entries.append({"left": ring.labels[pu], "right": ring.labels[pv],
                                "value": val})
        grid_rows.append(row)
    grid = Table("deformed multiplication table (unit class omitted)",
                 ["*"] + labels, grid_rows)
    payload = {
        "type": ring.rs.label,
        "levi": [i + 1 for i in parab.levi],
        "classes": [{"label": ring.labels[pos],
                     "word": [i + 1 for i in ring.reps[pos].word],
                     "codim": parab.codim(ring.reps[pos])} for pos in order],
        "products": entries,
    }
    return [classes, grid], payload, EXIT_OK
