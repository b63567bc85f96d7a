"""`verify-golden`: check bundled multiplication tables."""
from __future__ import annotations

import argparse

from ..cli import EXIT_MISMATCH, EXIT_OK, Table, _basis_for
from ..rootsystem import root_system


def add_arguments(p: argparse.ArgumentParser) -> None:
    from ..golden import GOLDEN_NAMES

    p.add_argument("--table", choices=GOLDEN_NAMES, help="single table (default: all)")


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..golden import GOLDEN_NAMES, GoldenTable, verify_table
    from ..weyl import weyl_group

    goldens = [GoldenTable.load(name) for name in ([args.table] if args.table else GOLDEN_NAMES)]
    for g in goldens:
        _basis_for(args, weyl_group(root_system(g.family, g.rank)))
    results = [verify_table(g) for g in goldens]
    rows = []
    for r in results:
        note = r.detail if not r.matched else \
            "; ".join(f"{a}={b}" for a, b in sorted(r.bijection.items()))
        rows.append([r.name, r.matched, note])
    table = Table("golden table verification", ["table", "ok", "bijection / detail"], rows)
    payload = {"results": [
        {"table": r.name, "matched": r.matched,
         "bijection": dict(sorted(r.bijection.items())), "detail": r.detail}
        for r in results]}
    return [table], payload, EXIT_OK if all(r.matched for r in results) else EXIT_MISMATCH
