"""`deform-table`: full deformed multiplication table."""
from __future__ import annotations

import argparse

from ..cli import EXIT_OK, Table, _add_common, _ring_for

add_arguments = _add_common


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..weyl import check_pair_budget, one_based

    ring = _ring_for(args)
    parab = ring.parabolic
    order = [w for w in ring.table_order if w.length < parab.dim]
    check_pair_budget(len(order), ring.rs.label)
    labels = [ring.labels[w] for w in order]
    classes = Table("classes", ["label", "word", "codim"],
                    [[ring.labels[w], one_based(w.word, "e"), parab.codim(w)] for w in order])
    grid_rows = []
    entries = []
    for u in order:
        row = [ring.labels[u]]
        for v in order:
            val = repr(ring.deformed_product(u, v))
            row.append(val)
            # group order is rep order here: the ring's Levi factor is the whole group
            if u.index <= v.index:
                entries.append({"left": ring.labels[u], "right": ring.labels[v],
                                "value": val})
        grid_rows.append(row)
    grid = Table("deformed multiplication table (unit class omitted)",
                 ["*"] + labels, grid_rows)
    payload = {
        "type": ring.rs.label,
        "levi": [i + 1 for i in parab.levi],
        "classes": [{"label": ring.labels[w], "word": [i + 1 for i in w.word],
                     "codim": parab.codim(w)} for w in order],
        "products": entries,
    }
    return [classes, grid], payload, EXIT_OK
