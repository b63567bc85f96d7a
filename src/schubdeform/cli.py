"""Command-line front end.

Subcommands cover root-system and Weyl-group inspection, deformed products
and full multiplication tables, movability and inequality checks, eigencone
inequality systems with redundancy pruning, and verification against the
bundled golden tables.

Every run echoes a normalized job description into its output header so the
result is reproducible from the header alone.  Output formats are markdown
(default), csv, and json; rationals appear as "p/q" strings in json.  Exit
codes: 0 success, 2 invalid arguments or input data, 3 enumeration budget
exceeded, 4 verification mismatch.  A reader that closes stdout early (as
`| head` does) is no error: the rest of the output is dropped and the command
keeps its own exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence, TextIO

# the only layer every job runs; each command module imports the layers it
# uses, so a job loads no other
from .rootsystem import BudgetError, root_system

if TYPE_CHECKING:
    from .deform import DeformedRing
    from .schubert import SchubertBasis
    from .weyl import Parabolic, WeylGroup

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4

JSON_SCHEMA_VERSION = 1


# -- job description ------------------------------------------------------

def _job(args: argparse.Namespace) -> dict:
    """Everything needed to reproduce the run, in header order: the JSON `job`
    object, and the fields of the header line.  Options without a value are left out."""
    job = {}
    for key in ("command", "type", "rank", "levi", "parabolic", "s", "mode", "words", "check",
                "inner-levi", "outer-levi", "levi-words", "table", "input",
                "output", "format", "cache_dir", "no_cache"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None and val is not False:
            job[key] = [i + 1 for i in val] if key == "levi" else val
    return job


def _header(args: argparse.Namespace) -> str:
    """The job as one line: `key=value`, and a bare `no-cache`."""
    bits = []
    for k, v in _job(args).items():
        k = k.replace("_", "-")
        if isinstance(v, list):
            v = ",".join(map(str, v)) or "-"
        bits.append(k if k == "no-cache" else f"{k}={v}")
    return "# " + " ".join(bits)


# -- formatting -----------------------------------------------------------

class Table(NamedTuple):
    title: str
    columns: list[str]
    rows: list[list]


def rational(x) -> str:
    """An exact rational as "p/q", or as the integer it is."""
    from fractions import Fraction

    return str(Fraction(x))


def _document(args: argparse.Namespace, payload: dict) -> str:
    """The JSON document of a run: schema version, job, then the payload."""
    doc = {"schema_version": JSON_SCHEMA_VERSION, "job": _job(args), **payload}
    return json.dumps(doc, indent=2, default=rational) + "\n"


def _cell(x) -> str:
    # a Fraction prints as `rational` writes it
    if isinstance(x, bool):
        return "yes" if x else "no"
    return str(x)


def _write_markdown(out: TextIO, table: Table) -> None:
    rows = [[_cell(x) for x in r] for r in table.rows]
    widths = [len(c) for c in table.columns]
    for r in rows:
        for k, x in enumerate(r):
            widths[k] = max(widths[k], len(x))
    def line(cells):
        out.write("| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |\n")
    line(table.columns)
    line(["-" * w for w in widths])
    for r in rows:
        line(r)


def emit(args: argparse.Namespace, tables: list[Table], document: str | None,
         out: TextIO) -> None:
    """Write one run's result to `out`: its JSON `document` under --format json,
    else its tables.  A reader that has gone away is not an error."""
    try:
        if args.format == "json":
            out.write(document)
        else:
            out.write(_header(args) + "\n")
            for t in tables:
                if args.format == "csv":
                    import csv

                    out.write(f"# {t.title}\n")
                    writer = csv.writer(out, lineterminator="\n")
                    writer.writerow(t.columns)
                    writer.writerows([_cell(x) for x in r] for r in t.rows)
                else:
                    out.write(f"\n## {t.title}\n\n")
                    _write_markdown(out, t)
        out.flush()
    except BrokenPipeError:
        # the rest goes nowhere, so the interpreter's last flush cannot fail either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)


# -- shared argument plumbing ---------------------------------------------

def _parse_index_list(text: str, rank: int, what: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        idx = tuple(int(tok) - 1 for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} {text!r}: expected comma-separated integers")
    if any(i < 0 or i >= rank for i in idx):
        raise ValueError(f"{what} {text!r} has entries outside 1..{rank}")
    return idx


def _parse_levi(text: str, rank: int, what: str) -> tuple[int, ...]:
    """A set of simple indices; unlike the letters of a word, none may repeat."""
    idx = _parse_index_list(text, rank, what)
    if len(set(idx)) != len(idx):
        raise ValueError(f"{what} {text!r} repeats an index")
    return idx


def _basis_for(args: argparse.Namespace, group: WeylGroup) -> SchubertBasis:
    """The group's basis; --no-cache beats --cache-dir, which beats SCHUBDEFORM_CACHE_DIR."""
    from .schubert import schubert_basis

    basis = schubert_basis(group)
    basis.use_cache_dir(None if args.no_cache
                        else args.cache_dir or os.environ.get("SCHUBDEFORM_CACHE_DIR") or None)
    if basis not in args.bases:
        args.bases.append(basis)
    return basis


def _group_for(args: argparse.Namespace) -> WeylGroup:
    """The Weyl group of a command that computes structure constants."""
    from .weyl import weyl_group

    group = weyl_group(root_system(args.type, args.rank))
    _basis_for(args, group)
    return group


def _parabolic_for(args: argparse.Namespace, group: WeylGroup) -> Parabolic:
    from .weyl import parabolic

    levi, omitted = getattr(args, "levi", None), getattr(args, "parabolic", None)
    if levi is not None:
        return parabolic(group, levi)
    if omitted is not None:
        return parabolic(group, [k for k in range(group.rs.rank) if k != omitted - 1])
    return parabolic(group, [])


def _ring_for(args: argparse.Namespace) -> DeformedRing:
    """The deformed ring of the job's parabolic, with the run's cache attached."""
    from .deform import deformed_ring

    return deformed_ring(_parabolic_for(args, _group_for(args)))


# -- argument parser ------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, parab: bool = True,
                required_type: bool = True) -> None:
    p.add_argument("--type", choices=list("ABCDEFG"), required=required_type,
                   help="Cartan family")
    p.add_argument("--rank", type=int, required=required_type)
    if parab:
        choice = p.add_mutually_exclusive_group()
        choice.add_argument("--levi",
                            help="1-based simple indices of the Levi, e.g. '1,3' ('-' for Borel)")
        choice.add_argument("--parabolic", type=int,
                            help="maximal parabolic by its omitted 1-based simple index")


# each subcommand's help line, in `-h` order
_COMMANDS = {
    "roots": "root system data",
    "weyl": "Weyl group and coset representatives",
    "product": "deformed product of listed classes",
    "deform-table": "full deformed multiplication table",
    "lmovable": "Levi-movability certificate for a tuple",
    "horn-check": "necessary inequalities for one tuple",
    "eigencone": "generate an inequality system",
    "redundancy": "prune a saved or freshly generated system",
    "leviprod-check": "degenerate product vs inversion-set rule on the full flag variety",
    "verify-golden": "check bundled multiplication tables",
}


def _command(name: str):
    """The module of one subcommand, imported on first use.

    It defines `add_arguments(parser)` and `run(args)`.  A job imports the
    module of its own command only, so it compiles no other handler and
    loads only the layers that handler runs.  The benchmark tracer times the
    layers a handler calls, not the handler: `commands` is none of its layers.
    """
    return import_module(f".commands.{name.replace('-', '_')}", __package__)


class _Parser(argparse.ArgumentParser):
    """A parser built for one argv (`argv` is None for the full parser).

    A parser with one subcommand would name only that one in its usage
    lines, so it reports no error itself: the full parser parses the argv
    again and reports the error as it always does.
    """

    argv: list[str] | None = None

    def error(self, message: str):
        if self.argv is not None:
            build_parser().parse_args(self.argv)
        super().error(message)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.

    Given the `argv` it is about to parse, when argv[0] names a command,
    only that subcommand is registered, so only its command module and the
    layers that module runs are loaded; a parse error is reported by the
    full parser.  Without argv, or when argv[0] names no command (as for
    `-h` or a missing or unknown command), every subcommand is registered.
    """
    top = _Parser(prog="schubdeform",
                  description="Exact Schubert calculus with the deformed product.")
    sub = top.add_subparsers(dest="command", required=True)
    named = [argv[0]] if argv and argv[0] in _COMMANDS else []
    for name in named or _COMMANDS:
        p = sub.add_parser(name, help=_COMMANDS[name])
        if named:
            top.argv = p.argv = list(argv)
        _command(name).add_arguments(p)
        p.add_argument("--format", choices=("md", "csv", "json"), default="md")
        if name not in ("roots", "weyl"):  # every other command builds a Schubert basis
            p.add_argument("--cache-dir", help="directory for the structure-constant cache")
            p.add_argument("--no-cache", action="store_true")
    return top


def _check_args(args: argparse.Namespace) -> None:
    """Refuse a bad --levi or --parabolic before any group is built; --levi
    becomes 0-based simple indices.  Every command with them requires --rank."""
    if getattr(args, "levi", None) is not None:
        args.levi = _parse_levi(args.levi, args.rank, "levi")
    elif getattr(args, "parabolic", None) is not None and not 1 <= args.parabolic <= args.rank:
        raise ValueError(f"parabolic index {args.parabolic} outside 1..{args.rank}")
    args.cache_dir = getattr(args, "cache_dir", None) or None


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    # bases this run pointed at its cache directory; saved when the run ends
    args.bases = []
    try:
        _check_args(args)
        tables, payload, code = _command(args.command).run(args)
        output = getattr(args, "output", None)
        # the JSON document is rendered once, also when it goes both to the file and stdout
        document = _document(args, payload) if output or args.format == "json" else None
        if output:
            Path(output).write_text(document)
        emit(args, tables, document, sys.stdout)
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        code = EXIT_BUDGET
    except (ValueError, OSError) as e:  # OSError: the --input and --output files
        print(f"error: {e}", file=sys.stderr)
        code = EXIT_USAGE
    try:
        for basis in args.bases:
            basis.save_cache()
    except OSError as e:  # a --cache-dir that cannot be created or written
        print(f"error: cannot save the cache: {e}", file=sys.stderr)
        return code or EXIT_USAGE
    return code


if __name__ == "__main__":
    # under `python -m schubdeform.cli` this module runs as __main__; the
    # command modules import it as schubdeform.cli, which must be this module
    # and not a second copy compiled and run again
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    raise SystemExit(main())
