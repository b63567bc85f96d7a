"""`eigencone`: generate an inequality system."""
from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from ..cli import EXIT_OK, Table, _add_common, _group_for

if TYPE_CHECKING:
    from ..eigencone import InequalitySystem


def add_arguments(p: argparse.ArgumentParser) -> None:
    from ..deform import MODES

    _add_common(p, parab=False)
    p.add_argument("--s", type=int, default=3, help="number of factors")
    p.add_argument("--mode", choices=MODES, default="classical")
    p.add_argument("--output", help="also write the full system as JSON to this file")


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..eigencone import generate_system

    system = generate_system(_group_for(args), args.s, args.mode)
    return _system_tables(system), system.as_dict(), EXIT_OK


def _system_tables(system: InequalitySystem) -> list[Table]:
    """Inequalities per maximal parabolic, and the redundant and essential
    ones once the system is pruned; `redundancy` shows them too."""
    per: dict[int, list[int]] = {}
    for k, q in enumerate(system.inequalities):
        per.setdefault(q.omitted, []).append(k)
    rows = []
    for i in sorted(per):
        ks = per[i]
        row = [i + 1, len(ks)]
        if system.redundant is not None:
            red = sum(1 for k in ks if system.redundant[k])
            row += [red, len(ks) - red]
        rows.append(row)
    total = ["total", len(system.inequalities)]
    cols = ["parabolic", "inequalities"]
    if system.redundant is not None:
        nred = sum(system.redundant)
        total += [nred, len(system.inequalities) - nred]
        cols += ["redundant", "essential"]
    rows.append(total)
    return [Table(f"inequality system {system.label}", cols, rows)]
