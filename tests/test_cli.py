"""Command-line front end: formats, exit codes, determinism, caching."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
import zlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schubdeform import GoldenResult, HornCheck
from schubdeform import cli, golden, horn, weyl
from schubdeform.horn import HornReport

from common import CACHE_ENV_VAR


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def file_state(path):
    """Bytes, inode and mtime: a rewrite with equal bytes still changes the last two."""
    st = path.stat()
    return path.read_bytes(), st.st_ino, st.st_mtime_ns


def test_roots_markdown_deterministic(capsys):
    first = run(capsys, "roots", "--type", "B", "--rank", "3")
    second = run(capsys, "roots", "--type", "B", "--rank", "3")
    assert first == second
    code, out, err = first
    assert code == 0 and not err
    assert out.splitlines()[0] == "# command=roots type=B rank=3 format=md"


def test_roots_json_schema_and_rationals(capsys):
    code, out, _ = run(capsys, "roots", "--type", "B", "--rank", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["job"] == {"command": "roots", "type": "B", "rank": 3,
                          "format": "json"}
    # rationals are serialized as "p/q" strings, never floats
    assert re.search(r'"-?\d+/\d+"', out)
    assert not re.search(r"\d\.\d", out)


def test_weyl_csv_comment_headers(capsys):
    code, out, _ = run(capsys, "weyl", "--type", "A", "--rank", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# command=weyl type=A rank=2 format=csv"
    assert "representatives,6" in lines
    header = lines.index("#,word,length,codim")
    assert len([l for l in lines[header + 1:] if l]) == 6


# Job shapes no benchmark pin covers: an output file, an input file, the cache
# flags on their own, `--parabolic` and every horn-check option.  Paths are
# relative to the test's working directory, so the header bytes are fixed.
HEADER_JOBS = [
    (["eigencone", "--type", "A", "--rank", "2", "--output", "system.json",
      "--cache-dir", "cache"],
     "# command=eigencone type=A rank=2 s=3 mode=classical output=system.json"
     " format=md cache-dir=cache",
     {"command": "eigencone", "type": "A", "rank": 2, "s": 3, "mode": "classical",
      "output": "system.json", "format": "json", "cache_dir": "cache"}),
    (["redundancy", "--input", "system.json"],
     "# command=redundancy s=3 mode=classical input=system.json format=md",
     {"command": "redundancy", "s": 3, "mode": "classical", "input": "system.json",
      "format": "json"}),
    (["lmovable", "--type", "A", "--rank", "3", "--parabolic", "1", "--words", "2,1;2,1;2,1"],
     "# command=lmovable type=A rank=3 parabolic=1 words=2,1;2,1;2,1 format=md",
     {"command": "lmovable", "type": "A", "rank": 3, "parabolic": 1, "words": "2,1;2,1;2,1",
      "format": "json"}),
    (["verify-golden", "--table", "b3_p2", "--cache-dir", "cache"],
     "# command=verify-golden table=b3_p2 format=md cache-dir=cache",
     {"command": "verify-golden", "table": "b3_p2", "format": "json", "cache_dir": "cache"}),
    (["horn-check", "--type", "B", "--rank", "3", "--levi", "1,3",
      "--words", "3,2;1,3,2,1,3,2;1,3,2,1,3,2", "--check", "dimension",
      "--inner-levi", "1", "--outer-levi", "1,2", "--levi-words", "3;3;e"],
     "# command=horn-check type=B rank=3 levi=1,3 words=3,2;1,3,2,1,3,2;1,3,2,1,3,2"
     " check=dimension inner-levi=1 outer-levi=1,2 levi-words=3;3;e format=md",
     {"command": "horn-check", "type": "B", "rank": 3, "levi": [1, 3],
      "words": "3,2;1,3,2,1,3,2;1,3,2,1,3,2", "check": "dimension", "inner-levi": "1",
      "outer-levi": "1,2", "levi-words": "3;3;e", "format": "json"}),
]


def test_job_headers_of_unpinned_shapes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    for argv, header, job in HEADER_JOBS:
        for fmt in ("md", "csv"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert code == 0 and not err, argv
            assert out.splitlines()[0] == header.replace("format=md", f"format={fmt}")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and list(json.loads(out)["job"].items()) == list(job.items())


def test_redundancy_input_echoes_the_system_it_pruned(tmp_path, capsys, monkeypatch):
    """`s` and `mode` come from the file, not from the --s and --mode defaults;
    an explicit value that disagrees with the file is refused."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, _, _ = run(capsys, "eigencone", "--type", "B", "--rank", "2", "--s", "4",
                     "--mode", "deformed", "--output", "b2.json", "--no-cache")
    assert code == 0
    code, out, err = run(capsys, "redundancy", "--input", "b2.json")
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == [
        "# command=redundancy s=4 mode=deformed input=b2.json format=md", "",
        "## inequality system B2 s=4 deformed"]
    assert run(capsys, "redundancy", "--input", "b2.json", "--s", "4",
               "--mode", "deformed") == (0, out, "")
    code, out, _ = run(capsys, "redundancy", "--input", "b2.json", "--format", "json")
    assert json.loads(out)["job"] == {"command": "redundancy", "s": 4, "mode": "deformed",
                                      "input": "b2.json", "format": "json"}
    for flag, value, held in (("--s", "3", "4"), ("--mode", "classical", "deformed")):
        code, out, err = run(capsys, "redundancy", "--input", "b2.json", flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} {value} disagrees with b2.json, which holds" \
                      f" {flag[2:]} {held}\n"


def test_redundancy_input_refuses_flags_that_do_nothing(tmp_path, capsys, monkeypatch):
    """With --input the file is the system: --type, --rank, --cache-dir and
    --no-cache would do nothing, so each is refused by name."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, _, _ = run(capsys, "eigencone", "--type", "B", "--rank", "2", "--output", "b2.json",
                     "--no-cache")
    assert code == 0
    for extra in (["--type", "A"], ["--rank", "2"], ["--cache-dir", "zz"], ["--no-cache"]):
        code, out, err = run(capsys, "redundancy", "--input", "b2.json", *extra)
        assert (code, out) == (2, ""), extra
        assert err == f"error: {extra[0]} does nothing with --input\n"
    assert not (tmp_path / "zz").exists()


@pytest.mark.parametrize("argv", [argv for argv, _, _ in HEADER_JOBS] + [
    ["roots", "--type", "G", "--rank", "2", "--format", "csv"],
    ["deform-table", "--type", "B", "--rank", "3", "--levi", "-", "--no-cache"],
    ["product", "--type", "A", "--rank", "2", "--words", "1;2", "--cache-dir", "c"],
])
def test_header_line_and_json_job_walk_the_same_fields(argv):
    args = cli.build_parser().parse_args(argv)
    cli._check_args(args)
    header_keys = [bit.split("=", 1)[0] for bit in cli._header(args)[2:].split(" ")]
    assert header_keys == [k.replace("_", "-") for k in cli._job(args)]


# the commands that compute structure constants, each through a SchubertBasis
BASIS_COMMANDS = {"product", "deform-table", "lmovable", "horn-check", "eigencone",
                  "redundancy", "leviprod-check", "verify-golden"}


def test_every_flag_is_echoed_and_cache_flags_sit_on_basis_commands():
    """Each optional argument of each subcommand is a field of the job, so
    the header names it; the cache flags go on the commands that build a
    basis, and only there."""
    top = cli.build_parser()
    subs = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    cached = set()
    for name, parser in subs.choices.items():
        for action in parser._actions:
            if not action.option_strings or action.dest == "help":
                continue
            job = cli._job(argparse.Namespace(**{action.dest: (0,)}))
            assert action.dest in {k.replace("-", "_") for k in job}, (name, action.dest)
        flags = {"--cache-dir", "--no-cache"} & set(parser._option_string_actions)
        assert flags in (set(), {"--cache-dir", "--no-cache"}), name
        if flags:
            cached.add(name)
    assert cached == BASIS_COMMANDS


def _parsed(parser: argparse.ArgumentParser, argv: list[str]) -> tuple:
    """Exit code, stdout, stderr and the parsed fields of one parse."""
    out, err = io.StringIO(), io.StringIO()
    fields = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields = vars(parser.parse_args(argv))
            code = 0
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue(), fields


COMMAND_NAMES = ["roots", "weyl", "product", "deform-table", "lmovable", "horn-check",
                 "eigencone", "redundancy", "leviprod-check", "verify-golden"]
PARSES = [[name, "--help"] for name in COMMAND_NAMES] + [
    ["-h"], [], ["no-such-command"], ["-h", "roots"], ["--bogus", "roots"],
    ["roots", "--type", "A", "--rank", "2", "--bogus"],
    ["weyl", "--type", "A", "--rank", "2", "--no-cache"],
    ["roots", "--type", "Z", "--rank", "2"],
    ["eigencone", "--type", "B", "--rank", "2", "--mode", "sideways"],
    ["redundancy", "--mode", "sideways"],
    ["verify-golden", "--table", "z9_p1"],
    ["weyl", "--type", "A"],
    ["product", "--type", "A", "--rank", "2"],
    ["weyl", "--type", "A", "--rank", "3", "--levi", "1", "--parabolic", "2"],
    ["product", "--type", "A", "--rank", "2", "--words", "1;2", "--format", "csv"],
    ["horn-check", "--type", "B", "--rank", "3", "--levi", "1,3", "--words", "2;2;2",
     "--check", "dimension", "--inner-levi", "1", "--outer-levi", "1,3"],
    ["redundancy"], ["verify-golden"],
    ["eigencone", "--type", "G", "--rank", "2", "--cache-dir", "c"],
    ["eigencone", "--bogus"], ["eigencone", "-h"], ["--help", "eigencone"],
]


@pytest.mark.parametrize("argv", PARSES, ids=lambda argv: " ".join(argv) or "no-args")
def test_parser_for_argv_parses_as_the_full_parser(argv):
    """The parser built for an argv, which gives arguments only to the command
    the argv names, answers it as the parser of every command does: the same
    exit code, help, usage and error text, and the same fields."""
    assert _parsed(cli.build_parser(argv), argv) == _parsed(cli.build_parser(), argv)


def test_words_has_one_definition():
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    words = [(name, p._option_string_actions["--words"]) for name, p in subs.choices.items()
             if "--words" in p._option_string_actions]
    assert [name for name, _ in words] == ["product", "lmovable", "horn-check"]
    assert all(a.required and a.help == words[0][1].help for _, a in words)
    assert words[0][1].help


# argv, and the subcommands the parser built for it registers
REGISTERED = [
    (["roots", "--type", "A"], ["roots"]),
    (["eigencone", "--bogus"], ["eigencone"]),
    (["-h", "roots"], COMMAND_NAMES),
    (["--type", "A", "roots"], COMMAND_NAMES),
    (["no-such-command"], COMMAND_NAMES),
    ([], COMMAND_NAMES),
]


def test_parser_for_argv_fills_in_only_the_named_command():
    """One subcommand when argv[0] names a command, every one otherwise;
    each registered subcommand gets its arguments."""
    for argv, choices in REGISTERED:
        subs = next(a for a in cli.build_parser(argv)._actions
                    if isinstance(a, argparse._SubParsersAction))
        assert list(subs.choices) == choices, argv
        assert all("--format" in p._option_string_actions for p in subs.choices.values())


TOKENS = st.sampled_from(COMMAND_NAMES + [
    "-h", "--help", "--type", "--rank", "--levi", "--parabolic", "--words", "--s", "--mode",
    "--table", "--format", "--no-cache", "--cache-dir", "--input", "--check",
    "--bogus", "--", "-", "-1", "A", "Z", "2", "1;2", "deformed", "c3_p1", "json", "x"])


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(argv=st.lists(TOKENS, max_size=8))
def test_parser_for_any_argv_parses_as_the_full_parser(argv):
    assert _parsed(cli.build_parser(argv), argv) == _parsed(cli.build_parser(), argv)


def _fresh(*argv, **streams) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, which knows no constant yet and
    takes no cache directory from the environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop(CACHE_ENV_VAR, None)
    return subprocess.run([sys.executable, "-m", "schubdeform.cli", *argv], text=True,
                          env=env, timeout=120, **streams)


def _to_closed_pipe(*argv):
    """Run the CLI in a fresh interpreter whose stdout reader has already gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _fresh(*argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [
    ("roots", "--type", "A", "--rank", "1"),
    ("roots", "--type", "B", "--rank", "3", "--format", "json"),
    ("weyl", "--type", "A", "--rank", "4"),
    ("weyl", "--type", "A", "--rank", "3", "--format", "json"),
])
def test_closed_stdout_keeps_the_exit_code(argv):
    proc = _to_closed_pipe(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_argparse_rejections():
    for argv in (["roots", "--type", "Z", "--rank", "2"],
                 ["roots", "--type", "A"],
                 ["roots", "--type", "A", "--rank", "2", "--format", "xml"],
                 ["roots", "--type", "A", "--rank", "1", "--jobs", "0"],
                 # no basis is built, so there is no cache to point at or skip
                 ["roots", "--type", "A", "--rank", "2", "--no-cache"],
                 ["roots", "--type", "A", "--rank", "2", "--cache-dir", "c"],
                 ["weyl", "--type", "A", "--rank", "2", "--no-cache"],
                 ["weyl", "--type", "A", "--rank", "2", "--cache-dir", "c"],
                 # pruning is the redundancy command's job
                 ["eigencone", "--type", "A", "--rank", "2", "--prune"],
                 ["no-such-command"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2


def test_invalid_input_exit_2(capsys):
    bad = [
        ["roots", "--type", "G", "--rank", "3"],
        ["product", "--type", "A", "--rank", "2", "--words", "1,1;2"],
        ["product", "--type", "A", "--rank", "2", "--words", "1"],
        ["product", "--type", "A", "--rank", "2", "--levi", "1",
         "--words", "1;2"],
        ["weyl", "--type", "A", "--rank", "2", "--levi", "5"],
        ["lmovable", "--type", "B", "--rank", "2", "--words", "1;2"],
        ["weyl", "--type", "A", "--rank", "2", "--levi", "1,1"],
        ["horn-check", "--type", "A", "--rank", "3", "--parabolic", "1",
         "--words", "2,1;2,1;2,1", "--inner-levi", "2,2", "--outer-levi", "2,3"],
        ["horn-check", "--type", "A", "--rank", "3", "--parabolic", "1",
         "--words", "2,1;2,1;2,1", "--inner-levi", "2", "--outer-levi", "2,3,2"],
        ["eigencone", "--type", "A", "--rank", "2", "--s", "-1"],
    ]
    for argv in bad:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")
    code, _, err = run(capsys, "product", "--type", "A", "--rank", "2",
                       "--levi", "1", "--words", "1;2")
    assert code == 2 and "minimal" in err


def test_parabolic_range_is_checked_while_parsing(capsys, monkeypatch):
    """An out-of-range --parabolic is refused, as --levi is, before any Weyl
    group is enumerated (F4 takes a noticeable time to build)."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Weyl group was built")

    monkeypatch.setattr(weyl.WeylGroup, "__init__", refuse)
    monkeypatch.setattr(weyl, "weyl_group", refuse)  # also the group kept on the root system
    for command in ("deform-table", "weyl"):
        for k in ("9", "0"):
            code, out, err = run(capsys, command, "--type", "F", "--rank", "4",
                                 "--parabolic", k)
            assert (code, out) == (2, ""), (command, k)
            assert err == f"error: parabolic index {k} outside 1..4\n"


def test_budget_exceeded_exit_3(capsys):
    for argv in (["weyl", "--type", "E", "--rank", "8"],
                 ["weyl", "--type", "A", "--rank", "7"],
                 ["weyl", "--type", "E", "--rank", "6"]):
        t0 = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 3, argv
        assert err.startswith("error:") and "exceeding the cap" in err, argv


def test_tuple_scan_budget_exit_3_fast(capsys):
    for argv in (["eigencone", "--type", "A", "--rank", "2", "--s", "100000"],
                 ["redundancy", "--type", "A", "--rank", "2", "--s", "100000"],
                 ["eigencone", "--type", "A", "--rank", "2", "--s", "2000"],
                 # the Levi blocks of the full Levi, one word per factor
                 ["horn-check", "--type", "A", "--rank", "2", "--levi", "1,2",
                  "--words", ";".join(["e"] * 100)],
                 ["horn-check", "--type", "A", "--rank", "2", "--levi", "1,2",
                  "--words", ";".join(["e"] * 1000)]):
        t0 = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 3, argv
        # the message names the cap, never the (possibly huge) bound
        assert err.startswith("error:") and "cap 5000000" in err and len(err) < 200, argv


def _address_space_2gb():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("family, rank, levi, s", [
    ("F", "4", "1,2,3,4", 4), ("B", "3", "1,2,3", 7), ("D", "4", "1,2,3,4", 5)])
def test_levi_scan_budget_counts_every_factor(family, rank, levi, s):
    """The Levi scan of horn-check walks every s-tuple of each block's
    quotient, no factor fixed by balance, so it is bounded by sum |W^P|^s,
    and these full-Levi jobs exit 3 before the scan.  Each runs in a fresh
    interpreter limited to 2 GB of address space, so a regression fails here
    instead of exhausting the machine."""
    t0 = time.perf_counter()
    proc = _fresh("horn-check", "--type", family, "--rank", rank, "--levi", levi,
                  "--words", ";".join(["e"] * s), "--no-cache", "--format", "json",
                  capture_output=True, preexec_fn=_address_space_2gb)
    assert time.perf_counter() - t0 < 10
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (f"error: enumeration bound exceeds cap 5000000 "
                           f"for {family}{rank}, s={s}\n")


def test_root_system_budget_exit_3_fast(tmp_path, capsys):
    path = tmp_path / "a200.json"
    path.write_text(json.dumps({"system": "A200", "s": 3, "mode": "classical",
                                "inequalities": []}))
    for argv in (["roots", "--type", "A", "--rank", "200"],
                 ["roots", "--type", "A", "--rank", "1000000000"],
                 ["redundancy", "--input", str(path)]):
        t0 = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 3, argv
        assert err.startswith("error:") and "positive roots" in err, argv


def test_lp_budget_exit_3_fast(tmp_path, capsys):
    # without the check, the 2000 dominance rows of length 2000 take about
    # 32 MB and the run exits 0
    path = tmp_path / "a2_s1000.json"
    path.write_text(json.dumps({"system": "A2", "s": 1000, "mode": "deformed",
                                "inequalities": []}))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "redundancy", "--input", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and not out
    assert err.startswith("error:") and "cap 1000000" in err and len(err) < 200


def test_lp_run_budget_exit_3_fast(tmp_path, capsys):
    # 2,000 distinct rows, not closed under permuting the factors, need one LP
    # each: 24.2 M tableau cells in all; unchecked, the run takes minutes and exits 0
    rng = random.Random(20261018)
    rows = set()
    while len(rows) < 2000:
        rows.add(tuple(tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(3)))
    path = tmp_path / "a2_rows.json"
    path.write_text(json.dumps({"system": "A2", "s": 3, "mode": "classical", "inequalities": [
        {"parabolic": 1, "words": [[], [], []], "functional": [list(b) for b in row]}
        for row in sorted(rows)]}))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "redundancy", "--input", str(path))
    assert time.perf_counter() - t0 < 2.0
    assert code == 3 and not out
    assert err.startswith("error:") and "run cap 10000000" in err and len(err) < 200


def test_verify_golden_single_table(capsys):
    code, out, _ = run(capsys, "verify-golden", "--table", "c3_p1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    (result,) = doc["results"]
    assert result["table"] == "C3-P1" and result["matched"]
    # this table has no codimension ties, so the matching is positional
    assert result["bijection"] and all(
        k[1:] == v[1:] for k, v in result["bijection"].items())


def test_verify_golden_mismatch_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(
        golden, "verify_table",
        lambda table: GoldenResult(name=table.name, matched=False,
                                   detail="forced mismatch"))
    code, out, _ = run(capsys, "verify-golden", "--table", "c3_p1")
    assert code == 4
    assert "forced mismatch" in out


def test_horn_check_failure_exit_4(capsys, monkeypatch):
    failing = HornReport(system="A3", levi=(1, 2), words=((1, 0),) * 3,
                         applicable=True, reason="", coefficient=0,
                         checks=[HornCheck("character-sum", 5, 3, "<=")])
    monkeypatch.setattr(horn, "check_character", lambda ring, ws: failing)
    code, _, _ = run(capsys, "horn-check", "--type", "A", "--rank", "3",
                     "--parabolic", "1", "--words", "2,1;2,1;2,1",
                     "--check", "character")
    assert code == 4


def test_horn_check_passes(capsys):
    code, out, _ = run(capsys, "horn-check", "--type", "A", "--rank", "3",
                       "--parabolic", "1", "--words", "2,1;2,1;2,1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    reports = doc["reports"]
    assert reports and all(r["passed"] for r in reports.values())


def test_horn_check_levi_words_are_ambient(capsys):
    code, out, _ = run(capsys, "horn-check", "--type", "B", "--rank", "3", "--levi", "1,3",
                       "--words", "3,2;1,3,2,1,3,2;1,3,2,1,3,2", "--format", "json")
    assert code == 0
    words = [w for rep in json.loads(out)["reports"].values() for c in rep["checks"]
             for w in c["data"].get("levi_words", [])]
    assert [3] in words  # s_3, the simple reflection of the block of coweight 1
    assert all(set(w) <= {1, 3} for w in words)


def test_horn_check_levi_words_one_path(capsys):
    """Trivial and nontrivial Levis take Levi words the same way: ambient letters of the Levi."""
    borel = ["horn-check", "--type", "A", "--rank", "2", "--levi", "-",
             "--words", "e;1,2,1;1,2,1", "--check", "dimension",
             "--inner-levi", "-", "--outer-levi", "1"]
    code, out, err = run(capsys, *borel, "--levi-words", "e;e;e")
    assert code == 0 and not err
    assert "| dimension | dimension       | 2   | <=  | 2   | yes |" in out
    code, _, err = run(capsys, *borel, "--levi-words", "1;e;e")
    assert code == 2 and "not in the Levi" in err
    levi13 = ["horn-check", "--type", "B", "--rank", "3", "--levi", "1,3",
              "--words", "3,2;1,3,2,1,3,2;1,3,2,1,3,2", "--check", "dimension",
              "--inner-levi", "1", "--outer-levi", "1,2"]
    code, _, err = run(capsys, *levi13, "--levi-words", "3;3;e")
    assert code == 0 and not err
    code, _, err = run(capsys, *levi13, "--levi-words", "2;3;e")
    assert code == 2 and "not in the Levi" in err


def test_horn_check_refuses_dimension_flags_that_run_nothing(capsys):
    """The Levi pair and the Levi tuple feed the dimension checks only; where
    none runs, the first such flag is refused by name."""
    base = ["horn-check", "--type", "B", "--rank", "3", "--levi", "1,3",
            "--words", "3,2;1,3,2,1,3,2;1,3,2,1,3,2"]
    pair = ["--inner-levi", "1", "--outer-levi", "1,2"]
    for extra, flag in (
            (["--check", "character", *pair], "--inner-levi does nothing with --check character"),
            (["--check", "refined", "--outer-levi", "1,2", "--levi-words", "3;3;e"],
             "--outer-levi does nothing with --check refined"),
            (["--check", "refined", "--levi-words", "3;3;e"],
             "--levi-words does nothing with --check refined"),
            (["--levi-words", "3;3;e"],
             "--levi-words does nothing without --inner-levi and --outer-levi")):
        assert run(capsys, *base, *extra) == (2, "", f"error: {flag}\n"), extra
    code, out, err = run(capsys, *base, *pair, "--levi-words", "3;3;e")
    assert (code, err) == (0, "") and "| dimension | dimension " in out


def test_horn_check_errors_name_one_based_indices(capsys):
    """Levi errors name the simple indices the way the user typed them."""
    base = ["horn-check", "--type", "B", "--rank", "3", "--levi", "1,3",
            "--words", "3,2;1,3,2,1,3,2;1,3,2,1,3,2", "--check", "dimension"]
    code, _, err = run(capsys, *base, "--inner-levi", "1", "--outer-levi", "1,2",
                       "--levi-words", "2;e;e")
    assert code == 2
    assert "simple index 2 is not in the Levi 1,3 (1-based indices)" in err
    code, _, err = run(capsys, *base, "--inner-levi", "2", "--outer-levi", "1,2",
                       "--levi-words", "e;e;e")
    assert code == 2 and "inner Levi 2 must sit inside the Levi 1,3 (1-based" in err
    code, _, err = run(capsys, *base, "--inner-levi", "1", "--outer-levi", "2,3",
                       "--levi-words", "e;e;e")
    assert code == 2 and "outer Levi 2,3 must contain the inner Levi 1 (1-based" in err


def test_product_with_more_than_eight_classes_per_codimension(capsys):
    code, out, err = run(capsys, "product", "--type", "A", "--rank", "4", "--levi", "-",
                         "--words", "1;2")
    assert code == 0 and not err  # the A4 flag variety has 22 classes in codimension 5
    assert out.startswith("# command=product type=A rank=4 levi=- words=1;2")


def test_lmovable_verdicts(capsys):
    code, out, _ = run(capsys, "lmovable", "--type", "A", "--rank", "3",
                       "--parabolic", "1", "--words", "2,1;2,1;2,1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["movable"] is True and doc["coefficient"] == 1
    code, out, _ = run(capsys, "lmovable", "--type", "B", "--rank", "2",
                       "--words", "2,1;1,2,1;2,1,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["movable"] is False
    assert doc["character_gap"] == {"1": -1, "2": 0}


def test_product_json_structure(capsys):
    code, out, _ = run(capsys, "product", "--type", "A", "--rank", "2",
                       "--words", "1,2;2,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["job"]["words"] == "1,2;2,1"
    assert doc["terms"]
    for term in doc["terms"]:
        assert isinstance(term["coefficient"], int)
        assert all(isinstance(e, int) for e in term["exponents"])


def test_eigencone_redundancy_roundtrip(tmp_path, capsys):
    path = tmp_path / "a2.json"
    code, _, _ = run(capsys, "eigencone", "--type", "A", "--rank", "2",
                     "--s", "3", "--output", str(path))
    assert code == 0
    saved = json.loads(path.read_text())
    assert saved["schema_version"] == 1
    assert saved["system"] == "A2" and saved["count"] == 12
    code, out, _ = run(capsys, "redundancy", "--input", str(path),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["redundant_ids"] == []
    assert doc["count"] == 12 and doc["essential_count"] == 12


def test_json_output_file_holds_the_stdout_bytes(tmp_path, capsys):
    # one rendered document goes to both
    path = tmp_path / "b2.json"
    code, out, _ = run(capsys, "redundancy", "--type", "B", "--rank", "2", "--s", "4",
                       "--format", "json", "--output", str(path), "--no-cache")
    assert code == 0 and json.loads(out)["redundant_ids"]
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("x", [Fraction(-3, 4), Fraction(0), Fraction(6, 3), Fraction(7, 2)],
                         ids=str)
def test_table_cell_of_a_rational_is_its_rational_text(x):
    assert cli._cell(x) == cli.rational(x)


def test_redundancy_malformed_input_exit_2(tmp_path, capsys):
    good = {"system": "A2", "s": 3, "mode": "classical", "inequalities": [
        {"parabolic": 1, "words": [[], [1], [2, 1]],
         "functional": [[1, 0], [-1, 1], [0, -1]]}]}
    bad = {
        "no_parabolic": dict(good, inequalities=[
            {"words": [[], [1], [2, 1]], "functional": [[1, 0], [-1, 1], [0, -1]]}]),
        "top_level_array": [good],
        "short_block": dict(good, inequalities=[
            {"parabolic": 1, "words": [[], [1], [2, 1]],
             "functional": [[1, 0], [-1], [0, -1]]}]),
        "string_entry": dict(good, inequalities=[
            {"parabolic": 1, "words": [[], [1], [2, 1]],
             "functional": [[1, 0], [-1, "1"], [0, -1]]}]),
        "bad_label": dict(good, system=3),
        "future_schema": dict(good, schema_version=2),
    }
    for name, doc in bad.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "redundancy", "--input", str(path))
        assert code == 2, name
        assert err.startswith("error:") and "Traceback" not in err, name
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)  # past the JSON parser's recursion limit
    assert run(capsys, "redundancy", "--input", str(path)) == (
        2, "", "error: input file is nested too deeply\n")
    path.write_bytes(b"\xff")
    assert run(capsys, "redundancy", "--input", str(path)) == (
        2, "", "error: input file is not UTF-8 JSON: 'utf-8' codec can't decode"
               " byte 0xff in position 0: invalid start byte\n")
    path.write_bytes(b"")
    assert run(capsys, "redundancy", "--input", str(path)) == (
        2, "", "error: input file is not UTF-8 JSON: Expecting value: line 1 column 1 (char 0)\n")
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    code, _, _ = run(capsys, "redundancy", "--input", str(path))
    assert code == 0


def test_redundancy_fresh_generation_matches(capsys):
    code, out, _ = run(capsys, "redundancy", "--type", "B", "--rank", "2",
                       "--s", "3", "--mode", "deformed", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 18 and doc["essential_count"] == 18
    code, _, _ = run(capsys, "redundancy")
    assert code == 2


def test_cache_dir_cold_and_warm_identical(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ("product", "--type", "A", "--rank", "2", "--words", "1,2;2",
            "--cache-dir", str(cache), "--format", "json")
    cold = run(capsys, *argv)
    assert cold[0] == 0
    assert (cache / "constants-A2.json").is_file()
    warm = run(capsys, *argv)
    assert warm == cold


def test_cache_dir_after_no_cache_run_is_written(tmp_path, capsys):
    argv = ("product", "--type", "A", "--rank", "2", "--words", "2;1,2")
    assert run(capsys, *argv, "--no-cache")[0] == 0
    cache = tmp_path / "cache"
    assert run(capsys, *argv, "--cache-dir", str(cache))[0] == 0
    assert json.loads((cache / "constants-A2.json").read_text())["entries"]


def _fresh_stdout(*argv) -> str:
    proc = _fresh(*argv, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, ""), argv
    return proc.stdout


def test_cache_file_of_format_one_is_ignored_and_rewritten(tmp_path):
    """A format-1 file (sha256 checksum) is not read, even with a checksum
    that holds: its constants here are all off by one, and the run still
    prints the table of the cold run.  Having computed them, the run
    replaces the file with a format-3 one (crc32 of the rows string)."""
    cache = tmp_path / "cache"
    argv = ("deform-table", "--type", "A", "--rank", "2", "--levi", "-", "--cache-dir", str(cache))
    path = cache / "constants-A2.json"
    cold = _fresh_stdout(*argv)
    doc = json.loads(path.read_text())
    good = doc["entries"]
    assert doc["format_version"] == 3 and "sha256" not in doc
    assert doc["crc32"] == zlib.crc32(good.encode())

    wrong = _keyed(good, 1)
    payload = json.dumps(wrong, sort_keys=True, separators=(",", ":"))
    del doc["crc32"]
    doc.update(format_version=1, entries=wrong,
               sha256=hashlib.sha256(payload.encode()).hexdigest())
    path.write_text(json.dumps(doc, sort_keys=True))
    assert _fresh_stdout(*argv) == cold
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 3 and "sha256" not in doc and doc["entries"] == good


def _keyed(entries: str, shift: int) -> dict:
    """The rows of a format-3 file as the keyed object of formats 1 and 2,
    every constant moved by `shift`."""
    return {f"{u},{v}": {str(w): c + shift for w, c in pairs}
            for u, v, pairs in json.loads(entries)}


def _format_three(doc: dict, rows, **fields) -> bytes:
    """A format-3 file of `rows` with a checksum that holds, and `doc`'s
    other fields unless given."""
    entries = json.dumps(rows, separators=(",", ":"))
    return json.dumps({**doc, "entries": entries, "crc32": zlib.crc32(entries.encode()),
                       **fields}).encode()


def _format_two(doc: dict, shift: int) -> bytes:
    keyed = _keyed(doc["entries"], shift)
    payload = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
    return json.dumps(dict(doc, format_version=2, entries=keyed,
                           crc32=zlib.crc32(payload.encode()))).encode()


def _off_by_one(doc: dict) -> list:
    return [[u, v, [[w, c + 1] for w, c in pairs]] for u, v, pairs in json.loads(doc["entries"])]


# files the cache did not write for A2, made from a good A2 file; every one
# that parses holds constants off by one, so a run that read it would differ
# (format 1 has a test of its own above)
FOREIGN_FILES = {
    "not UTF-8": lambda good, doc: b"\xff" + good,
    "not JSON": lambda good, doc: good[:-1],
    "not an object": lambda good, doc: b"[" + good + b"]",
    "nested past the parser's limit": lambda good, doc: b"[" * 100_000,
    "format 2": lambda good, doc: _format_two(doc, 1),
    "another Cartan matrix": lambda good, doc: _format_three(doc, _off_by_one(doc),
                                                             cartan=[[2, -2], [-1, 2]]),
    "bad checksum": lambda good, doc: _format_three(doc, _off_by_one(doc), crc32=doc["crc32"]),
    "rows of the wrong shape": lambda good, doc: _format_three(doc, _keyed(doc["entries"], 1)),
}


@pytest.mark.parametrize("case", FOREIGN_FILES)
def test_cache_file_it_did_not_write_is_ignored_and_rewritten(tmp_path, case):
    """Each file is ignored as a corrupt one is: the run exits 0 with an empty
    stderr and the stdout of the cold run, and rewrites the file in format 3."""
    cache = tmp_path / "cache"
    argv = ("deform-table", "--type", "A", "--rank", "2", "--levi", "-", "--cache-dir", str(cache))
    path = cache / "constants-A2.json"
    cold = _fresh_stdout(*argv)
    good = path.read_bytes()
    doc = json.loads(good)
    path.write_bytes(FOREIGN_FILES[case](good, doc))
    assert _fresh_stdout(*argv) == cold
    assert json.loads(path.read_text()) == doc


def test_no_cache_run_after_env_cache_run_writes_nothing(tmp_path, capsys, monkeypatch):
    first = tmp_path / "first"
    monkeypatch.setenv(CACHE_ENV_VAR, str(first))
    assert run(capsys, "product", "--type", "A", "--rank", "2", "--words", "1;2")[0] == 0
    written = file_state(first / "constants-A2.json")
    fresh = tmp_path / "fresh"
    monkeypatch.setenv(CACHE_ENV_VAR, str(fresh))
    assert run(capsys, "product", "--type", "A", "--rank", "2", "--words", "1;1,2",
               "--no-cache")[0] == 0
    assert not fresh.exists()
    assert file_state(first / "constants-A2.json") == written


def test_warm_run_leaves_cache_file_alone(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ("product", "--type", "A", "--rank", "2", "--words", "2,1;1")
    assert run(capsys, *argv, "--cache-dir", str(cache))[0] == 0
    written = file_state(cache / "constants-A2.json")
    assert run(capsys, *argv, "--cache-dir", str(cache))[0] == 0
    assert file_state(cache / "constants-A2.json") == written
    # leaving the directory and coming back reads the file again
    assert run(capsys, *argv, "--no-cache")[0] == 0
    assert run(capsys, *argv, "--cache-dir", str(cache))[0] == 0
    assert file_state(cache / "constants-A2.json") == written


def test_unwritable_cache_dir_exit_2_after_the_result(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("")
    argv = ("deform-table", "--type", "A", "--rank", "2")
    code, out, err = run(capsys, *argv, "--cache-dir", str(blocker / "sub"))
    assert code == 2
    assert err.startswith("error: cannot save the cache:") and err.count("\n") == 1
    assert out.splitlines()[0].endswith(f"cache-dir={blocker / 'sub'}")
    _, expect, _ = run(capsys, *argv, "--no-cache")
    assert out.splitlines()[1:] == expect.splitlines()[1:]


def test_no_cache_wins_over_cache_dir(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ("product", "--type", "A", "--rank", "2", "--words", "1,2;2,1",
            "--cache-dir", str(cache), "--no-cache")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == ("# command=product type=A rank=2 words=1,2;2,1"
                                   f" format=md cache-dir={cache} no-cache")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["job"] == {
        "command": "product", "type": "A", "rank": 2, "words": "1,2;2,1", "format": "json",
        "cache_dir": str(cache), "no_cache": True}
    assert not cache.exists()


# one fresh interpreter per run, which prints its exit code and the number of
# structure-constant rows it computed rather than read from the cache
_COUNTED_RUN = """
import sys
import schubdeform.schubert as schubert
from schubdeform import cli
computed = []
product = schubert.SchubertBasis.product
def counted(basis, u, v):
    known = len(basis._products)
    row = product(basis, u, v)
    computed.append(len(basis._products) - known)
    return row
schubert.SchubertBasis.product = counted
code = cli.main(sys.argv[1:])
print(code, sum(computed), file=sys.stderr)
"""


def test_levi_constants_persist_with_their_group(tmp_path):
    """The Levi quotients of a horn-check read and write the group's own cache file."""
    argv = ["horn-check", "--type", "B", "--rank", "3", "--levi", "1,3",
            "--words", "3,2;1,3,2,1,3,2;1,3,2,1,3,2", "--cache-dir", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop(CACHE_ENV_VAR, None)
    runs = [subprocess.run([sys.executable, "-c", _COUNTED_RUN, *argv], capture_output=True,
                           text=True, env=env, timeout=120) for _ in range(2)]
    (code, cold), (code2, warm) = (map(int, r.stderr.split()) for r in runs)
    assert (code, code2) == (0, 0) and cold > 0 and warm == 0
    assert runs[0].stdout == runs[1].stdout
    assert [p.name for p in tmp_path.iterdir()] == ["constants-B3.json"]


def test_levi_and_parabolic_are_exclusive(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["weyl", "--type", "A", "--rank", "2", "--levi", "1", "--parabolic", "1"])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "product", "--type", "B", "--rank", "2",
                     "--words", "1,2,1;2,1,2")
    assert code == 0
    assert (tmp_path / "envcache" / "constants-B2.json").is_file()


def test_no_cache_flag_disables_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "product", "--type", "B", "--rank", "2",
                     "--words", "1,2,1;2,1,2", "--no-cache")
    assert code == 0
    assert not (tmp_path / "envcache").exists()


def test_leviprod_check_passes(capsys):
    code, out, _ = run(capsys, "leviprod-check", "--type", "A", "--rank", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["mismatches"] == 0


def test_deform_table_runs(capsys):
    code, out, _ = run(capsys, "deform-table", "--type", "C", "--rank", "3",
                       "--parabolic", "1")
    assert code == 0
    assert "# command=deform-table type=C rank=3 parabolic=1 format=md" == \
        out.splitlines()[0]
    assert "c5" in out
