"""`eigencone`: generate an inequality system."""
from __future__ import annotations

import argparse

from ..cli import EXIT_OK, Table, _add_common, _group_for, _system_tables


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
