#!/usr/bin/env python3
"""Whether the classical and deformed eigencone systems of one type agree.

The command line has no equivalence subcommand, so the benchmark calls the
API.  Needs `src/` on PYTHONPATH; prints `true` or `false` as JSON:

    PYTHONPATH=src python3 bench/equiv.py --type B --rank 2 --s 4
"""
import argparse
import json


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--type", required=True)
    ap.add_argument("--rank", type=int, required=True)
    ap.add_argument("--s", type=int, required=True)
    args = ap.parse_args(argv)
    from schubdeform import generate_system, root_system, systems_equivalent, weyl_group
    group = weyl_group(root_system(args.type, args.rank))
    same = systems_equivalent(generate_system(group, args.s, "classical"),
                              generate_system(group, args.s, "deformed"))
    print(json.dumps(same))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
