"""Start-up guard: a fresh interpreter loads only the layers a job runs.

Every command-line run starts its own interpreter, so whatever `import
schubdeform` and the front end load before any work is paid on each run.
These tests start interpreters the way the benchmark jobs do (no bytecode
written, no cache directory) and read which modules are in `sys.modules`
when the job ends.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# runs a job given as `-m module args...` or `-c code`, then lists sys.modules
# on stderr at exit: `-X importtime` logs no module that importlib.import_module
# loads, so it cannot see a layer the lazy namespace imports
MODULES_PROBE = """
import atexit, sys
atexit.register(lambda: print("modules:", *sorted(sys.modules), file=sys.stderr))
flag, target, *args = sys.argv[1:]
if flag == "-m":
    import runpy
    sys.argv = [target, *args]
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    exec(target)
"""


def _fresh(*args: str, path: Path | None = None) -> subprocess.CompletedProcess:
    """Run an interpreter the way a benchmark job does, with `path` (if given)
    ahead of the source on PYTHONPATH."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(str(p) for p in (path, SRC) if p))
    env.pop("SCHUBDEFORM_CACHE_DIR", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _loaded(*job: str, site: bool = True) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run a job (`-m module args...` or `-c code`) in a fresh interpreter,
    without `site` and its own imports unless asked, and return the process
    and every module in its sys.modules at exit."""
    proc = _fresh(*(() if site else ("-S",)), "-c", MODULES_PROBE, *job)
    line = next((line for line in proc.stderr.splitlines() if line.startswith("modules: ")), "")
    return proc, set(line.split()[1:])


def _layers(modules: set[str]) -> set[str]:
    """Package modules among `modules`, without the package prefix."""
    return {n.split(".", 1)[1] for n in modules if n.startswith("schubdeform.")}


def _front_end(layer: str) -> bool:
    """Whether a package module is the command-line front end: cli.py or a command module."""
    return layer == "cli" or layer.split(".")[0] == "commands"


def test_import_loads_no_layer():
    proc, modules = _loaded("-c", "import schubdeform")
    assert proc.returncode == 0, proc.stderr
    assert "schubdeform" in modules  # the list is there, and names the package
    assert _layers(modules) == set()


# the layers each light command loads: `roots` the root system alone, `weyl`
# no Schubert layer, and none of them a cone layer
LIGHT_LAYERS = {
    "roots": {"rootsystem"},
    "weyl": {"rootsystem", "weyl"},
    "deform-table": {"rootsystem", "weyl", "schubert", "deform"},
}


@pytest.mark.parametrize("argv", [
    ("roots", "--type", "G", "--rank", "2"),
    ("weyl", "--type", "B", "--rank", "3", "--levi", "1"),
    ("deform-table", "--type", "A", "--rank", "2", "--no-cache"),
])
def test_light_jobs_load_no_cone_layer(argv):
    proc, modules = _loaded("-m", "schubdeform.cli", *argv)
    assert proc.returncode == 0 and proc.stdout.startswith(f"# command={argv[0]} ")
    assert {n for n in _layers(modules) if not _front_end(n)} == LIGHT_LAYERS[argv[0]]


@pytest.mark.parametrize("argv", [
    ("deform-table", "--type", "B", "--rank", "2", "--levi", "-", "--no-cache"),
    ("eigencone", "--type", "B", "--rank", "3", "--mode", "deformed", "--no-cache"),
])
def test_structure_constants_load_no_polynomial_module(argv):
    # localization computes every constant with integers alone; the
    # coinvariant polynomials are a reference for the tests
    proc, modules = _loaded("-m", "schubdeform.cli", *argv)
    assert proc.returncode == 0 and proc.stdout.startswith(f"# command={argv[0]} ")
    assert "schubdeform.schubert" in modules
    assert "schubdeform.poly" not in modules


# one job of each command the benchmark runs, and the API it calls
API_JOB = ("-c", "from schubdeform import generate_system, systems_equivalent")
BENCH_JOBS = [
    ("-m", "schubdeform.cli", "roots", "--type", "A", "--rank", "1"),
    ("-m", "schubdeform.cli", "weyl", "--type", "B", "--rank", "2", "--levi", "1"),
    ("-m", "schubdeform.cli", "leviprod-check", "--type", "A", "--rank", "2", "--no-cache"),
    ("-m", "schubdeform.cli", "deform-table", "--type", "A", "--rank", "2", "--no-cache"),
    ("-m", "schubdeform.cli", "eigencone", "--type", "A", "--rank", "2", "--mode", "deformed",
     "--no-cache"),
    ("-m", "schubdeform.cli", "redundancy", "--type", "A", "--rank", "2", "--no-cache"),
    ("-m", "schubdeform.cli", "verify-golden", "--table", "c3_p1", "--no-cache"),
    API_JOB,
]


@pytest.mark.parametrize("job", BENCH_JOBS, ids=lambda job: job[2] if job[0] == "-m" else "api")
def test_jobs_load_no_dataclasses_or_inspect(job):
    proc, modules = _loaded(*job, site=False)
    assert proc.returncode == 0, proc.stderr
    assert "schubdeform.rootsystem" in modules  # the list is there
    assert not modules & {"dataclasses", "inspect"}
    if job == API_JOB:  # a layer the namespace loads is seen too
        assert "schubdeform.eigencone" in modules


@pytest.mark.parametrize("job", [job for job in BENCH_JOBS if job[2:3] != ("roots",)],
                         ids=lambda job: job[2] if job[0] == "-m" else "api")
def test_only_jobs_that_make_a_rational_load_fractions(job):
    # `roots` prints the inverse Cartan matrix; no other benchmark job makes a
    # Fraction, and `fractions` would pull in `decimal` and `numbers`
    proc, modules = _loaded(*job, site=False)
    assert proc.returncode == 0, proc.stderr
    assert "schubdeform.rootsystem" in modules  # the list is there
    assert not modules & {"fractions", "decimal", "numbers"}


# installed as `sitecustomize`, so that the job itself starts as `python -m`
# starts it, with cli.py as __main__; at exit it reports how many module
# objects were made from cli.py and which command modules were loaded
SITE_PROBE = """
import atexit, json, os, sys

def _report():
    made = {id(m) for m in list(sys.modules.values())
            if getattr(m, "__file__", None)
            and os.path.realpath(m.__file__) == os.path.realpath(CLI)}
    commands = sorted(n for n in sys.modules if n.startswith("schubdeform.commands."))
    print("report:", json.dumps({"cli": len(made), "commands": commands}), file=sys.stderr)

atexit.register(_report)
"""


@pytest.mark.parametrize("argv", [
    ("roots", "--type", "A", "--rank", "1"),
    ("eigencone", "--type", "A", "--rank", "2", "--no-cache"),
    ("deform-table", "--type", "A", "--rank", "2", "--parabolic", "1", "--no-cache"),
])
def test_a_job_runs_cli_once_and_its_own_command_only(tmp_path, argv):
    # a command module that imported a second copy of cli.py would compile
    # and run it again
    cli_path = SRC / "schubdeform" / "cli.py"
    (tmp_path / "sitecustomize.py").write_text(f"CLI = {str(cli_path)!r}\n" + SITE_PROBE)
    proc = _fresh("-m", "schubdeform.cli", *argv, path=tmp_path)
    assert proc.returncode == 0 and proc.stdout.startswith(f"# command={argv[0]} ")
    line = next(line for line in proc.stderr.splitlines() if line.startswith("report: "))
    module = argv[0].replace("-", "_")
    assert json.loads(line.split(" ", 1)[1]) == {
        "cli": 1, "commands": [f"schubdeform.commands.{module}"]}


def test_running_the_cli_module_warns_of_no_second_copy():
    # runpy warns when the module it is about to run as __main__ is already imported
    proc = _fresh("-W", "error::RuntimeWarning", "-m", "schubdeform.cli",
                  "roots", "--type", "A", "--rank", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("# command=roots ")


# one job of each subcommand, the help, which builds the parser of every one,
# and a refused job
ENTRY_JOBS = [
    ("roots", "--type", "B", "--rank", "2", "--format", "json"),
    ("weyl", "--type", "A", "--rank", "2", "--levi", "1"),
    ("product", "--type", "A", "--rank", "2", "--words", "1;2", "--no-cache"),
    ("deform-table", "--type", "A", "--rank", "2", "--no-cache"),
    ("lmovable", "--type", "A", "--rank", "3", "--parabolic", "1", "--words",
     "2,1;2,1;2,1", "--no-cache"),
    ("horn-check", "--type", "A", "--rank", "2", "--levi", "1", "--words", "2;2;1,2",
     "--no-cache"),
    ("eigencone", "--type", "A", "--rank", "2", "--format", "csv", "--no-cache"),
    ("redundancy", "--type", "A", "--rank", "2", "--no-cache"),
    ("leviprod-check", "--type", "A", "--rank", "2", "--no-cache"),
    ("verify-golden", "--table", "c3_p1", "--no-cache"),
    ("-h",),
    pytest.param(("weyl", "--type", "A", "--rank", "2", "--parabolic", "5"), id="refused"),
]
CONSOLE_SCRIPT = "from schubdeform.cli import main; raise SystemExit(main())"


@pytest.mark.parametrize("argv", ENTRY_JOBS, ids=lambda argv: argv[0])
def test_module_and_console_script_give_the_same_output(argv):
    # `python -m schubdeform.cli` runs cli.py as __main__; the console script
    # imports it as schubdeform.cli and calls main
    as_module = _fresh("-m", "schubdeform.cli", *argv)
    as_script = _fresh("-c", CONSOLE_SCRIPT, *argv)
    assert as_module.stdout or as_module.returncode == 2
    assert (as_module.returncode, as_module.stdout, as_module.stderr) == \
        (as_script.returncode, as_script.stdout, as_script.stderr)


# the jobs that generate systems, or import the API that does, and a Horn check
GENERATION_JOBS = [job for job in BENCH_JOBS
                   if job[0] == "-c" or job[2] in ("eigencone", "redundancy")]
HORN_JOB = ("-m", "schubdeform.cli", "horn-check", "--type", "A", "--rank", "2", "--levi", "1",
            "--words", "2;2;1,2", "--no-cache")


@pytest.mark.parametrize("job", GENERATION_JOBS + [HORN_JOB],
                         ids=lambda job: job[2] if job[0] == "-m" else "api")
def test_only_horn_checks_load_the_horn_layer(job):
    # generation walks its tuples itself; the Horn layer is for the Horn checks
    proc, modules = _loaded(*job, site=False)
    assert proc.returncode == 0, proc.stderr
    assert "schubdeform.rootsystem" in modules  # the list is there
    assert ("schubdeform.horn" in modules) == (job is HORN_JOB)


@pytest.mark.parametrize("argv,loads", [
    (("eigencone", "--type", "B", "--rank", "2", "--no-cache"), False),
    (("eigencone", "--type", "B", "--rank", "2", "--mode", "deformed", "--no-cache"), False),
    (("verify-golden", "--table", "c3_p1", "--no-cache"), False),
    (("redundancy", "--type", "B", "--rank", "2", "--no-cache"), True),
], ids=lambda x: x[0] if isinstance(x, tuple) else str(x))
def test_only_pruning_loads_the_cone_layer(argv, loads):
    # generating a system solves no linear program; pruning one does
    proc, modules = _loaded("-m", "schubdeform.cli", *argv, site=False)
    assert proc.returncode == 0 and proc.stdout.startswith(f"# command={argv[0]} ")
    assert "schubdeform.schubert" in modules  # the list is there
    assert ("schubdeform.cones" in modules) is loads


@pytest.mark.parametrize("argv", ENTRY_JOBS, ids=lambda argv: argv[0])
def test_only_word_commands_load_the_words_module(argv):
    proc, modules = _loaded("-m", "schubdeform.cli", *argv, site=False)
    assert "schubdeform.rootsystem" in modules  # the list is there
    # the help builds the parser of every command, the word commands' included
    assert ("schubdeform.commands._words" in modules) is \
        (argv[0] in ("product", "lmovable", "horn-check", "-h"))


def test_listing_golden_tables_reads_no_resource_module():
    # without `site`, which may import importlib.resources itself
    proc, modules = _loaded("-m", "schubdeform.cli", "verify-golden", "--table", "c3_p1",
                            "--no-cache", site=False)
    assert proc.returncode == 0 and "schubdeform.golden" in modules
    assert "importlib.resources" not in modules


def test_primed_cache_loads_no_openssl(tmp_path):
    # the cache checksum is zlib's crc32: a run reading or writing the file
    # loads no hashlib, and so not OpenSSL's _hashlib either
    argv = ("-m", "schubdeform.cli", "deform-table", "--type", "B", "--rank", "2",
            "--levi", "-", "--cache-dir", str(tmp_path))
    cold, cold_modules = _loaded(*argv, site=False)
    assert cold.returncode == 0 and (tmp_path / "constants-B2.json").is_file()
    warm, warm_modules = _loaded(*argv, site=False)
    assert warm.stdout == cold.stdout
    assert "schubdeform.schubert" in warm_modules
    assert not (cold_modules | warm_modules) & {"hashlib", "_hashlib"}


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_csv_module_loads_only_for_csv_output(fmt):
    proc, modules = _loaded("-m", "schubdeform.cli", "roots", "--type", "A", "--rank", "2",
                            "--format", fmt, site=False)
    assert proc.returncode == 0 and "schubdeform.rootsystem" in modules
    assert ("csv" in modules) == (fmt == "csv")


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

