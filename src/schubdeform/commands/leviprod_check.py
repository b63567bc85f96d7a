"""`leviprod-check`: degenerate product vs inversion-set rule on the full flag variety."""
from __future__ import annotations

import argparse

from ..cli import EXIT_MISMATCH, EXIT_OK, Table, _add_common, _ring_for


def add_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p, parab=False)


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
    from ..invsets import crosscheck_gb
    from ..weyl import one_based

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
