"""Byte-identity gate: CLI transcripts against the benchmark's pinned hashes.

`bench/pins.json` pins the exit code and the stdout sha256 of every benchmark
job.  Replaying every pinned command-line job in one process checks the
output bytes and that state kept between in-process `main()` runs changes
nothing.
"""

import hashlib
import json
from pathlib import Path

from schubdeform import CACHE_ENV_VAR, cli

PINS = Path(__file__).resolve().parent.parent / "bench" / "pins.json"


def _replayed_jobs():
    """Every pinned `cli` job except those pinned as defects, in pin order.

    These are the markdown jobs of the pool and the fixed `--no-cache
    --format json` jobs, the only pins of the JSON `job` object.
    """
    pins = json.loads(PINS.read_text())
    return [(key.split()[1:], pin) for key, pin in pins["jobs"].items()
            if key.startswith("cli ") and not pin.get("defect")]


def test_pinned_transcripts_in_one_process(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    jobs = _replayed_jobs()
    assert len(jobs) == 447
    assert sum("--format" in args for args, _ in jobs) == 15
    wrong = []
    for args, pin in jobs:
        code = cli.main(list(args))
        out = capsys.readouterr().out
        if code != pin["exit"] or hashlib.sha256(out.encode()).hexdigest() != pin["sha256"]:
            wrong.append(" ".join(args))
    assert not wrong
