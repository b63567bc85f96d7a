"""`roots`: root system data."""
from __future__ import annotations

import argparse

from ..cli import EXIT_OK, Table, _add_common, rational
from ..rootsystem import root_system


def add_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p, parab=False)


def run(args: argparse.Namespace) -> tuple[list[Table], dict, int]:
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
