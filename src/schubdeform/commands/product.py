"""`product`: deformed product of listed classes."""
from __future__ import annotations

import argparse

from ..cli import EXIT_OK, Table, _ring_for
from ._words import _tuple_for, _words_args

add_arguments = _words_args


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..weyl import one_based

    ring = _ring_for(args)
    parab = ring.parabolic
    ws = _tuple_for(ring, args.words)
    if len(ws) < 2:
        raise ValueError("need at least two factors, e.g. --words '1,2;2,1'")
    acc = ring.basis_class(ws[0])
    for w in ws[1:]:
        acc = ring.multiply(acc, ring.basis_class(w))
    rows = []
    expansion = []
    for pos, exps, coeff in acc.terms():
        w = ring.reps[pos]
        rows.append([ring.labels[pos], one_based(w.word, "e"), parab.codim(w),
                     ring.monomial(exps) or "1", coeff])
        expansion.append({
            "label": ring.labels[pos],
            "word": [i + 1 for i in w.word],
            "codim": parab.codim(w),
            "exponents": list(exps),
            "coefficient": coeff,
        })
    rendered = repr(acc)
    factors = " * ".join(ring.labels[ring.position(w)] for w in ws)
    summary = Table("product", ["expression", "value"], [[factors, rendered]])
    terms = Table("terms", ["label", "word", "codim", "monomial", "coefficient"], rows)
    payload = {
        "factors": [{"word": [i + 1 for i in w.word],
                     "label": ring.labels[ring.position(w)]} for w in ws],
        "rendered": rendered,
        "terms": expansion,
    }
    return [summary, terms], payload, EXIT_OK
