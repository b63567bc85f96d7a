"""Start-up guard: a fresh interpreter loads only the layers a job runs.

Every command-line run starts its own interpreter, so whatever `import
schubdeform` and the front end load before any work is paid on each run.
These tests start interpreters the way the benchmark jobs do (no bytecode
written, no cache directory) and read which package modules they import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CONE_LAYERS = {"eigencone", "cones", "horn", "invsets"}


def _fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("SCHUBDEFORM_CACHE_DIR", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _modules(importtime_log: str) -> set[str]:
    """Every module named in a `-X importtime` log."""
    return {line.rsplit("|", 1)[-1].strip() for line in importtime_log.splitlines()
            if line.startswith("import time:")}


def _layers(importtime_log: str) -> set[str]:
    """Package modules named in a `-X importtime` log, without the package prefix."""
    return {n.split(".", 1)[1] for n in _modules(importtime_log) if n.startswith("schubdeform.")}


def test_import_loads_no_layer():
    proc = _fresh("-X", "importtime", "-c", "import schubdeform")
    assert proc.returncode == 0, proc.stderr
    assert "schubdeform" in proc.stderr  # the log is there, and names the package
    assert _layers(proc.stderr) == set()


@pytest.mark.parametrize("argv", [
    ("roots", "--type", "G", "--rank", "2"),
    ("weyl", "--type", "B", "--rank", "3", "--levi", "1"),
    ("deform-table", "--type", "A", "--rank", "2", "--no-cache"),
])
def test_light_jobs_load_no_cone_layer(argv):
    proc = _fresh("-X", "importtime", "-m", "schubdeform.cli", *argv)
    assert proc.returncode == 0 and proc.stdout.startswith(f"# command={argv[0]} ")
    layers = _layers(proc.stderr)
    assert "rootsystem" in layers
    assert not layers & CONE_LAYERS


# one job of each command the benchmark runs, and the API it calls
BENCH_JOBS = [
    ("-m", "schubdeform.cli", "roots", "--type", "A", "--rank", "1"),
    ("-m", "schubdeform.cli", "weyl", "--type", "B", "--rank", "2", "--levi", "1"),
    ("-m", "schubdeform.cli", "leviprod-check", "--type", "A", "--rank", "2", "--no-cache"),
    ("-m", "schubdeform.cli", "deform-table", "--type", "A", "--rank", "2", "--no-cache"),
    ("-m", "schubdeform.cli", "eigencone", "--type", "A", "--rank", "2", "--mode", "deformed",
     "--no-cache"),
    ("-m", "schubdeform.cli", "redundancy", "--type", "A", "--rank", "2", "--no-cache"),
    ("-m", "schubdeform.cli", "verify-golden", "--table", "c3_p1", "--no-cache"),
    ("-c", "from schubdeform import generate_system, systems_equivalent"),
]


@pytest.mark.parametrize("job", BENCH_JOBS, ids=lambda job: job[2] if job[0] == "-m" else "api")
def test_jobs_load_no_dataclasses_or_inspect(job):
    # -S: without `site`, whose own imports would be in the log
    proc = _fresh("-S", "-X", "importtime", *job)
    assert proc.returncode == 0, proc.stderr
    modules = _modules(proc.stderr)
    assert "schubdeform.rootsystem" in modules  # the log is there
    assert not modules & {"dataclasses", "inspect"}


def test_listing_golden_tables_reads_no_resource_module():
    # without `site`, which may import importlib.resources itself
    proc = _fresh("-S", "-X", "importtime", "-m", "schubdeform.cli",
                  "roots", "--type", "A", "--rank", "1")
    assert proc.returncode == 0 and "schubdeform.golden" in proc.stderr
    assert "importlib.resources" not in proc.stderr


NAMESPACE_PROBE = """
import json
import schubdeform as sd
listed = set(dir(sd))
report = {"not_in_dir": [n for n in sd.__all__ if n not in listed]}
star = {}
exec("from schubdeform import *", star)
report["unbound"] = [n for n in sd.__all__ if n not in star]
report["unresolved"] = [n for n in sd.__all__ if getattr(sd, n) is not star.get(n)]
try:
    sd.no_such_name
    report["unknown"] = "resolved"
except AttributeError as e:
    report["unknown"] = str(e)
try:
    from schubdeform import no_such_name
    report["unknown_from"] = "resolved"
except ImportError:
    report["unknown_from"] = "ImportError"
print(json.dumps(report))
"""


def test_lazy_namespace_lists_and_resolves_every_name():
    proc = _fresh("-c", NAMESPACE_PROBE)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {
        "not_in_dir": [], "unbound": [], "unresolved": [],
        "unknown": "module 'schubdeform' has no attribute 'no_such_name'",
        "unknown_from": "ImportError",
    }

