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
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence, TextIO

# the only layer every job runs; each command, and each command's arguments,
# import the layers they use, so a job loads no other
from .rootsystem import BudgetError, root_system

if TYPE_CHECKING:
    from .deform import DeformedRing
    from .eigencone import InequalitySystem
    from .horn import HornReport
    from .schubert import SchubertBasis
    from .weyl import Parabolic, WeylElement, WeylGroup

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
                "inner-levi", "outer-levi", "levi-words", "table", "limit", "input",
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
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _document(args: argparse.Namespace, payload: dict) -> str:
    """The JSON document of a run: schema version, job, then the payload."""
    doc = {"schema_version": JSON_SCHEMA_VERSION, "job": _job(args), **payload}
    return json.dumps(doc, indent=2, default=rational) + "\n"


def _cell(x) -> str:
    if isinstance(x, Fraction):
        return rational(x)
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


def emit(args: argparse.Namespace, tables: list[Table], payload: dict, out: TextIO) -> None:
    """Write one run's result to `out`; a reader that has gone away is not an error."""
    try:
        if args.format == "json":
            out.write(_document(args, payload))
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


def parse_words(text: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated reduced words in 1-based simple indices.

    An empty segment or "e" denotes the identity, e.g. "1,2;e;2,3,2".
    """
    words = []
    for seg in text.split(";"):
        seg = seg.strip()
        if seg in ("", "e", "-"):
            words.append(())
            continue
        words.append(_parse_index_list(seg, rank, "word"))
    return tuple(words)


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


def _tuple_for(ring: DeformedRing, text: str) -> list[WeylElement]:
    """The classes named by semicolon-separated words: each reduced and in W^P."""
    from .weyl import one_based

    parab = ring.parabolic
    out = []
    for word in parse_words(text, ring.rs.rank):
        w = parab.group.from_word(word)
        if w.length != len(word):
            raise ValueError(f"word {one_based(word, 'e')} is not reduced")
        if not parab.contains(w):
            rep = parab.minimal_rep(w)
            raise ValueError(
                f"word {one_based(word, 'e')} is not a minimal coset representative"
                f" (its coset is represented by {one_based(rep.word, 'e')})")
        out.append(w)
    return out


# -- subcommands ----------------------------------------------------------

def cmd_roots(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    rs = root_system(args.type, args.rank)
    n = rs.rank
    summary = Table("summary", ["key", "value"], [
        ["type", rs.label],
        ["rank", n],
        ["positive roots", rs.num_positive_roots],
        ["Weyl order", rs.weyl_order()],
        ["highest root", " ".join(map(str, rs.highest_root()))],
    ])
    cartan = Table("cartan matrix", ["row"] + [f"a{j + 1}" for j in range(n)],
                   [[f"a{i + 1}"] + list(rs.cartan[i]) for i in range(n)])
    roots = Table("positive roots", ["#", "coordinates", "height", "length^2"],
                  [[k + 1, " ".join(map(str, r)), sum(r), rational(rs.form(r, r))]
                   for k, r in enumerate(rs.positive_roots)])
    fw = Table("fundamental weights (root coordinates)",
               ["i", "coordinates"],
               [[i + 1, " ".join(rational(x) for x in rs.fundamental_weight(i).coords)]
                for i in range(n)])
    payload = {
        "type": rs.label,
        "rank": n,
        "cartan": [list(r) for r in rs.cartan],
        "weyl_order": rs.weyl_order(),
        "highest_root": list(rs.highest_root()),
        "positive_roots": [list(r) for r in rs.positive_roots],
        "fundamental_weights": [list(rs.fundamental_weight(i).coords) for i in range(n)],
    }
    return [summary, cartan, roots, fw], payload, EXIT_OK


def cmd_weyl(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from .weyl import one_based, weyl_group

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


def cmd_product(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from .weyl import one_based

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


def cmd_deform_table(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from .weyl import one_based

    ring = _ring_for(args)
    parab = ring.parabolic
    order = [pos for pos in ring.table_order() if ring.reps[pos].length < parab.dim]
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


def cmd_lmovable(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from .weyl import one_based

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


def _report_tables(reports: list[tuple[str, HornReport]]) -> list[Table]:
    rows = []
    for fam, rep in reports:
        if not rep.applicable:
            rows.append([fam, "-", "-", "-", "-", "n/a", rep.reason])
            continue
        for c in rep.checks:
            note = " ".join(f"{k}={v}" for k, v in sorted(c.as_dict().get("data", {}).items())
                            if not isinstance(v, (list, dict)))
            rows.append([fam, c.kind, c.lhs, c.relation, c.rhs, c.passed, note])
    return [Table("checks", ["family", "kind", "lhs", "rel", "rhs", "ok", "context"], rows)]


def cmd_horn_check(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from .horn import check_character, check_dimension, check_refined

    which = args.check
    wants_dimension = args.inner_levi is not None or args.outer_levi is not None
    idle = [k for k in ("inner-levi", "outer-levi", "levi-words") if k in _job(args)]
    if idle and which in ("character", "refined"):
        raise ValueError(f"--{idle[0]} does nothing with --check {which}")
    if idle and which == "all" and not wants_dimension:
        raise ValueError("--levi-words does nothing without --inner-levi and --outer-levi")
    ring = _ring_for(args)
    ws = _tuple_for(ring, args.words)
    reports: list[tuple[str, HornReport]] = []
    if which in ("all", "character"):
        reports.append(("character", check_character(ring, ws)))
    if which in ("all", "refined"):
        reports.append(("refined", check_refined(ring, ws)))
    if which == "dimension" or (which == "all" and wants_dimension):
        if args.inner_levi is None or args.outer_levi is None:
            raise ValueError("dimension checks need --inner-levi and --outer-levi")
        inner = _parse_levi(args.inner_levi, ring.rs.rank, "inner Levi")
        outer = _parse_levi(args.outer_levi, ring.rs.rank, "outer Levi")
        utuple = parse_words(args.levi_words, ring.rs.rank) if args.levi_words else \
            tuple(() for _ in ws)
        reports.append(("dimension", check_dimension(ring, ws, inner, outer, utuple)))
    failures = sum(len(rep.failures()) for _, rep in reports)
    payload = {
        "reports": {fam: rep.as_dict() for fam, rep in reports},
        "failures": failures,
    }
    tables = _report_tables(reports)
    tables.append(Table("result", ["key", "value"], [
        ["families run", ", ".join(fam for fam, _ in reports)],
        ["failed checks", failures],
    ]))
    return tables, payload, EXIT_OK if failures == 0 else EXIT_MISMATCH


def _system_tables(system: InequalitySystem) -> list[Table]:
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


def cmd_eigencone(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from .eigencone import generate_system

    system = generate_system(_group_for(args), args.s, args.mode)
    return _system_tables(system), system.as_dict(), EXIT_OK


def _load_system(path: str) -> InequalitySystem:
    """The system in an --input file; the system part is read by `from_dict`."""
    from .eigencone import InequalitySystem

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


def cmd_redundancy(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from .eigencone import generate_system, prune_redundant
    from .weyl import one_based

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


def cmd_leviprod_check(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from .invsets import crosscheck_gb
    from .weyl import one_based

    report = crosscheck_gb(_ring_for(args))
    rows = [["type", report.label], ["pairs", report.pairs],
            ["mismatches", len(report.mismatches)], ["passed", report.passed]]
    tables = [Table("degenerate product vs inversion-set rule", ["key", "value"], rows)]
    if report.mismatches:
        tables.append(Table("first mismatches", ["u", "v", "computed", "expected"],
                            [[one_based(u, "e"), one_based(v, "e"), str(lt), str(rt)]
                             for u, v, lt, rt in report.mismatches[:5]]))
    payload = {
        "type": report.label,
        "pairs": report.pairs,
        "mismatches": len(report.mismatches),
        "passed": report.passed,
    }
    return tables, payload, EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_verify_golden(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from .golden import GOLDEN_NAMES, GoldenTable, verify_table
    from .weyl import weyl_group

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


def cmd_horn_converse(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from .horn import converse_search
    from .weyl import one_based

    if args.limit < 0:
        raise ValueError(f"--limit must be 0 (unlimited) or positive, not {args.limit}")
    ring = _ring_for(args)
    found = converse_search(ring, s=args.s, limit=args.limit or None)
    rows = [[k + 1, "; ".join(one_based(w, "e") for w in rep.words)]
            for k, rep in enumerate(found)]
    tables = [
        Table("summary", ["key", "value"], [
            ["system", ring.rs.label],
            ["levi", one_based(ring.parabolic.levi)],
            ["candidates", len(found)],
        ]),
        Table("zero-product tuples passing every character inequality",
              ["#", "words"], rows),
    ]
    payload = {
        "system": ring.rs.label,
        "levi": [i + 1 for i in ring.parabolic.levi],
        "candidates": [rep.as_dict() for rep in found],
    }
    return tables, payload, EXIT_OK


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


def _type_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, parab=False)


def _words_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--words", required=True,
                   help="semicolon-separated reduced words, 1-based, e.g. '1,2;2,1'")


def _horn_check_args(p: argparse.ArgumentParser) -> None:
    _words_args(p)
    p.add_argument("--check", choices=("all", "character", "refined", "dimension"),
                   default="all")
    p.add_argument("--inner-levi", help="1-based indices of the smaller Levi")
    p.add_argument("--outer-levi", help="1-based indices of the larger Levi")
    p.add_argument("--levi-words",
                   help="words of the Levi tuple in ambient 1-based indices")


def _eigencone_args(p: argparse.ArgumentParser) -> None:
    from .deform import MODES

    _add_common(p, parab=False)
    p.add_argument("--s", type=int, default=3, help="number of factors")
    p.add_argument("--mode", choices=MODES, default="classical")
    p.add_argument("--output", help="also write the full system as JSON to this file")


def _redundancy_args(p: argparse.ArgumentParser) -> None:
    from .deform import MODES

    p.add_argument("--input", help="JSON file produced by the eigencone command")
    _add_common(p, parab=False, required_type=False)
    p.add_argument("--s", type=int, help="number of factors (default: the file's, else 3)")
    p.add_argument("--mode", choices=MODES, help="default: the file's, else classical")
    p.add_argument("--output", help="write the pruned system as JSON to this file")


def _verify_golden_args(p: argparse.ArgumentParser) -> None:
    from .golden import GOLDEN_NAMES

    p.add_argument("--table", choices=GOLDEN_NAMES, help="single table (default: all)")


def _horn_converse_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--limit", type=int, default=10,
                   help="stop after this many candidates (0 = unlimited)")


def _commands() -> dict:
    """Each subcommand's handler, help line and arguments, in `-h` order.

    Read when the parser is built, so a handler rebound on the module (as the
    benchmark tracer does) is the one that runs.
    """
    return {
        "roots": (cmd_roots, "root system data", _type_args),
        "weyl": (cmd_weyl, "Weyl group and coset representatives", _add_common),
        "product": (cmd_product, "deformed product of listed classes", _words_args),
        "deform-table": (cmd_deform_table, "full deformed multiplication table", _add_common),
        "lmovable": (cmd_lmovable, "Levi-movability certificate for a tuple", _words_args),
        "horn-check": (cmd_horn_check, "necessary inequalities for one tuple",
                       _horn_check_args),
        "eigencone": (cmd_eigencone, "generate an inequality system", _eigencone_args),
        "redundancy": (cmd_redundancy, "prune a saved or freshly generated system",
                       _redundancy_args),
        "leviprod-check": (cmd_leviprod_check,
                           "degenerate product vs inversion-set rule on the full flag variety",
                           _type_args),
        "verify-golden": (cmd_verify_golden, "check bundled multiplication tables",
                          _verify_golden_args),
        "horn-converse-experiment": (cmd_horn_converse,
                                     "search for zero-product tuples passing the character"
                                     " checks", _horn_converse_args),
    }


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.

    Every subcommand is registered with its help line, so the usage line and
    `-h` never change.  Given the `argv` it is about to parse, only the
    subcommand that argv names gets its arguments, and only the layers their
    choices come from are loaded; without argv, or when argv names none,
    every subcommand gets them.
    """
    top = argparse.ArgumentParser(
        prog="schubdeform",
        description="Exact Schubert calculus with the deformed product.")
    sub = top.add_subparsers(dest="command", required=True)
    commands = _commands()
    # no top-level option takes a value, so the first word that is no option names the command
    named = next((a for a in argv or () if not a.startswith("-")), None)
    for name, (run, summary, add_arguments) in commands.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if named in commands and name != named:
            continue
        add_arguments(p)
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
        tables, payload, code = args.run(args)
        if getattr(args, "output", None):
            Path(args.output).write_text(_document(args, payload))
        emit(args, tables, payload, sys.stdout)
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
    raise SystemExit(main())
