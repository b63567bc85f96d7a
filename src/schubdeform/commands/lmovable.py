"""`lmovable`: Levi-movability certificate for a tuple."""
from __future__ import annotations

import argparse

from ..cli import EXIT_OK, Table, _ring_for
from ._words import _tuple_for, _words_args

add_arguments = _words_args


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..weyl import one_based

    ring = _ring_for(args)
    ws = _tuple_for(ring, args.words)
    cert = ring.is_levi_movable(ws)
    verdict = Table("verdict", ["key", "value"], [
        ["words", "; ".join(one_based(w.word, "e") for w in ws)],
        ["codimension sum", ring.parabolic.dim],
        ["point coefficient", cert.coefficient],
        ["movable", cert.movable],
    ])
    gaps = Table("character gaps", ["coweight", "gap"],
                 [[i + 1, g] for i, g in sorted(cert.character_gap.items())])
    payload = {
        "words": [[i + 1 for i in w.word] for w in ws],
        "coefficient": cert.coefficient,
        "character_gap": {str(i + 1): g for i, g in sorted(cert.character_gap.items())},
        "movable": cert.movable,
    }
    return [verdict, gaps], payload, EXIT_OK
