#!/usr/bin/env python3
"""Regenerate `pins.json`: the cli-warm job pool and every job's expected outcome.

Run from the repository root at the commit whose behaviour is the reference:

    PYTHONPATH=src python3 bench/pin.py

The pool holds, for every rank <= 3 type and A4 and every proper standard
parabolic, one `weyl` job, a `deform-table` job where the table is small,
and a few `product`, `lmovable` and `horn-check` jobs on random
representatives (fixed pool seed).  Each job of the pool and of the fixed
workloads runs once without a cache; its exit code and the sha256 of its
stdout are pinned.  A job that exits 1 with the known labelling IndexError
is pinned as a known defect.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3),
         ("G", 2), ("A", 4)]


def word(w) -> str:
    return ",".join(str(i + 1) for i in w.word) or "e"


def pool_jobs() -> list[tuple[str, ...]]:
    from schubdeform import parabolic, root_system, weyl_group
    rng = random.Random("cli-warm pool")
    jobs = []
    for fam, rank in TYPES:
        group = weyl_group(root_system(fam, rank))
        for size in range(rank):
            for levi in itertools.combinations(range(rank), size):
                p = parabolic(group, levi)
                base = ("--type", fam, "--rank", str(rank),
                        "--levi", ",".join(str(i + 1) for i in levi) or "-")
                jobs.append(run.cli("weyl", *base))
                # cold tables stay cheap enough to prime three times per run
                if len(p.reps) <= 12 and (group.order <= 48 or len(p.reps) <= 5):
                    jobs.append(run.cli("deform-table", *base))
                nonunit = [w for w in p.reps if w.length > 0]
                for _ in range(3):
                    pair = rng.sample(nonunit, 2) if len(nonunit) > 1 else nonunit * 2
                    jobs.append(run.cli("product", *base, "--words",
                                        ";".join(word(w) for w in pair)))
                # triples whose codimensions add up to dim G/P
                triples = [t for t in itertools.combinations_with_replacement(p.reps, 3)
                           if sum(w.length for w in t) == 2 * p.dim]
                for command in ("lmovable", "horn-check"):
                    for t in rng.sample(triples, min(2, len(triples))):
                        jobs.append(run.cli(command, *base, "--words",
                                            ";".join(word(w) for w in t)))
    return jobs


def pin(job) -> dict:
    res = run.run_job(job, run.job_env(None))
    entry = {"exit": res.code, "sha256": hashlib.sha256(res.stdout).hexdigest()}
    if res.code != 0:
        entry["stderr_tail"] = res.stderr_tail
    if res.code == 1 and res.stderr_tail == run.DEFECT_TAIL:
        entry["defect"] = "deform._make_labels: more than 8 classes in one codimension"
    return entry


def main() -> int:
    pool = list(dict.fromkeys(pool_jobs()))
    fixed = [job for jobs in run.FIXED.values() for job, _ in jobs]
    pins = {}
    for n, job in enumerate(fixed + pool):
        pins[run.key(job)] = pin(job)
        print(f"{n + 1}/{len(fixed) + len(pool)} exit {pins[run.key(job)]['exit']}"
              f" {run.key(job)}", file=sys.stderr)
    probe = run.run_job(run.PROBE, run.job_env(None))
    doc = {"probe_sha256": hashlib.sha256(probe.stdout).hexdigest(),
           "pool": [list(j) for j in pool], "jobs": pins}
    run.PINS.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
