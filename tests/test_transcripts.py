"""Byte-identity gate: CLI transcripts against pinned hashes.

`bench/pins.json` pins the exit code and the stdout sha256 of every benchmark
job.  Replaying every pinned command-line job in one process checks the
output bytes and that state kept between in-process `main()` runs changes
nothing.  The A4 pool jobs that file still pins as the old labelling defect
have their own pins in `tests/a4_transcripts.json`.
"""

import hashlib
import json
from pathlib import Path

from schubdeform import cli

from common import CACHE_ENV_VAR

PINS = Path(__file__).resolve().parent.parent / "bench" / "pins.json"
A4_PINS = Path(__file__).resolve().parent / "a4_transcripts.json"


def _replayed_jobs():
    """Every pinned `cli` job except those pinned as defects, in pin order.

    These are the markdown jobs of the pool and the fixed `--no-cache
    --format json` jobs, the only pins of the JSON `job` object.
    """
    pins = json.loads(PINS.read_text())
    return [(key.split()[1:], pin) for key, pin in pins["jobs"].items()
            if key.startswith("cli ") and not pin.get("defect")]


def _wrong_transcripts(jobs, capsys) -> list[str]:
    wrong = []
    for args, pin in jobs:
        code = cli.main(list(args))
        out = capsys.readouterr().out
        if code != pin["exit"] or hashlib.sha256(out.encode()).hexdigest() != pin["sha256"]:
            wrong.append(" ".join(args))
    return wrong


def test_pinned_transcripts_in_one_process(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    jobs = _replayed_jobs()
    assert len(jobs) == 447
    assert sum("--format" in args for args, _ in jobs) == 15
    assert not _wrong_transcripts(jobs, capsys)


def test_a4_pool_transcripts_in_one_process(capsys, monkeypatch):
    """The 35 A4 pool jobs the benchmark accepts on any exit-0 output."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    pins = json.loads(PINS.read_text())["jobs"]
    defects = sorted(key.split(" ", 1)[1] for key, pin in pins.items()
                     if key.startswith("cli ") and pin.get("defect"))
    a4 = json.loads(A4_PINS.read_text())["jobs"]
    assert sorted(a4) == defects and len(a4) == 35
    assert not _wrong_transcripts([(key.split(), pin) for key, pin in a4.items()], capsys)
