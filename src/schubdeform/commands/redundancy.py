"""`redundancy`: prune a saved or freshly generated system."""
from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import TYPE_CHECKING

from ..cli import EXIT_OK, JSON_SCHEMA_VERSION, Table, _add_common, _group_for, _job
from .eigencone import _system_tables

if TYPE_CHECKING:
    from ..eigencone import InequalitySystem


def add_arguments(p: argparse.ArgumentParser) -> None:
    from ..deform import MODES

    p.add_argument("--input", help="JSON file produced by the eigencone command")
    _add_common(p, parab=False, required_type=False)
    p.add_argument("--s", type=int, help="number of factors (default: the file's, else 3)")
    p.add_argument("--mode", choices=MODES, help="default: the file's, else classical")
    p.add_argument("--output", help="write the pruned system as JSON to this file")


def _load_system(path: str) -> InequalitySystem:
    """The system in an --input file; the system part is read by `from_dict`."""
    from ..eigencone import InequalitySystem

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError("input file is nested too deeply") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"input file is not UTF-8 JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("input file must hold a JSON object")
    if doc.get("schema_version", JSON_SCHEMA_VERSION) != JSON_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc['schema_version']!r}")
    return InequalitySystem.from_dict(doc)


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..eigencone import generate_system, prune_redundant
    from ..weyl import one_based

    if args.input:
        # the file holds the system: no group is built and no constant computed
        unused = [k for k in ("type", "rank", "cache_dir", "no_cache") if k in _job(args)]
        if unused:
            raise ValueError(f"--{unused[0].replace('_', '-')} does nothing with --input")
        system = _load_system(args.input)
        for name, held in (("s", system.s), ("mode", system.mode)):
            given = getattr(args, name)
            if given is not None and given != held:
                raise ValueError(f"--{name} {given} disagrees with {args.input},"
                                 f" which holds {name} {held}")
    else:
        if args.type is None or args.rank is None:
            raise ValueError("need either --input FILE or --type/--rank")
        system = generate_system(_group_for(args), 3 if args.s is None else args.s,
                                 args.mode or "classical")
    # the job echoes the system that was pruned
    args.s, args.mode = system.s, system.mode
    system = prune_redundant(system)
    tables = _system_tables(system)
    redundant_ids = [k + 1 for k, r in enumerate(system.redundant) if r]
    tables.append(Table("redundant inequalities", ["#", "parabolic", "words"],
                        [[k, system.inequalities[k - 1].omitted + 1,
                          "; ".join(one_based(w, "e") for w in system.inequalities[k - 1].words)]
                         for k in redundant_ids]))
    payload = system.as_dict()
    payload["redundant_ids"] = redundant_ids
    return tables, payload, EXIT_OK
