"""Byte-identity gate: CLI transcripts against the benchmark's pinned hashes.

`bench/pins.json` pins the exit code and the stdout sha256 of every benchmark
job.  Replaying a cross-section of them in one process checks the output
bytes and that state kept between in-process `main()` runs changes nothing.
"""

import hashlib
import json
from pathlib import Path

from schubdeform import CACHE_ENV_VAR, cli

PINS = Path(__file__).resolve().parent.parent / "bench" / "pins.json"


def _replayed_jobs():
    """First non-defect pinned job per (subcommand, type) of rank <= 3, and every
    non-defect `horn-check` job whose Levi has rank >= 2, in pool order.

    The `horn-check` jobs are the outputs that depend on the order of the
    representatives of the Levi quotients.
    """
    pins = json.loads(PINS.read_text())
    seen, jobs = set(), []
    for job in pins["pool"]:
        args = job[1:]
        family = args[args.index("--type") + 1]
        rank = int(args[args.index("--rank") + 1])
        levi = args[args.index("--levi") + 1] if "--levi" in args else "-"
        pin = pins["jobs"][" ".join(job)]
        if pin.get("defect"):
            continue
        first = rank <= 3 and (args[0], family, rank) not in seen
        seen.add((args[0], family, rank))
        if first or (args[0] == "horn-check" and len(levi.split(",")) >= 2):
            jobs.append((args, pin))
    return jobs


def test_pinned_transcripts_in_one_process(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    jobs = _replayed_jobs()
    assert len(jobs) == 89
    wrong = []
    for args, pin in jobs:
        code = cli.main(list(args))
        out = capsys.readouterr().out
        if code != pin["exit"] or hashlib.sha256(out.encode()).hexdigest() != pin["sha256"]:
            wrong.append(" ".join(args))
    assert not wrong
