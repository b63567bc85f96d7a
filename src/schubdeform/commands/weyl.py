"""`weyl`: Weyl group and coset representatives."""
from __future__ import annotations

import argparse

from ..cli import EXIT_OK, Table, _add_common, _parabolic_for
from ..rootsystem import root_system

add_arguments = _add_common


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..weyl import one_based, weyl_group

    group = weyl_group(root_system(args.type, args.rank))
    parab = _parabolic_for(args, group)
    profile = parab.degree_profile()
    summary = Table("summary", ["key", "value"], [
        ["type", group.rs.label],
        ["Weyl order", group.order],
        ["Levi", one_based(parab.levi)],
        ["representatives", len(parab.reps)],
        ["dimension", parab.dim],
        ["longest element", one_based(parab.w_o.word, "e")],
        ["degree profile", " ".join(map(str, profile))],
    ])
    reps = Table("minimal representatives", ["#", "word", "length", "codim"],
                 [[k + 1, one_based(w.word, "e"), w.length, parab.codim(w)]
                  for k, w in enumerate(parab.reps)])
    payload = {
        "type": group.rs.label,
        "weyl_order": group.order,
        "levi": [i + 1 for i in parab.levi],
        "dimension": parab.dim,
        "degree_profile": list(profile),
        "representatives": [
            {"word": [i + 1 for i in w.word], "length": w.length, "codim": parab.codim(w)}
            for w in parab.reps
        ],
    }
    return [summary, reps], payload, EXIT_OK
