"""Bounded fuzz of the command line: the exit-code contract for any argv.

Every subcommand runs with a rank <= 3 type, or with a type the library
refuses; rank 4 only for `roots` and `weyl`, whose work does not grow with
the tables.  Levi sets repeat indices, leave the range or are `-`; words are
reduced, not reduced, outside W^P or junk; `--parabolic`, `--s`, `--limit`
and `--format` take good and bad values, and `--levi` sometimes comes with
`--parabolic`.  Where tuples are scanned, s is at most 3.  Every run must
exit 0, 2, 3 or 4 without a traceback, with an empty stderr exactly on exit 0.

The same holds for any bytes in a file the command line reads: a
structure-constant cache file, which a run ignores unless this code wrote
it, and a `redundancy --input` system.
"""

import contextlib
import io
import json
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from schubdeform import cli, dimension_tuples, parabolic, root_system, weyl_group

from common import ALL_TYPES

TYPES = ALL_TYPES * 3 + [("A", 0), ("G", 3), ("D", 2), ("E", 3)]
RANK4 = [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)]
TABLE_COMMANDS = ["product", "deform-table", "lmovable", "horn-check", "eigencone",
                  "redundancy", "leviprod-check", "horn-converse-experiment"]
# the commands that compute structure constants, and so offer the cache flags
CACHE_COMMANDS = TABLE_COMMANDS + ["verify-golden"]
JUNK = st.sampled_from(["", "x", "1,,2", "0", "-1", "1;2", "e", " ", "1.5"])


def _one_based(indices) -> str:
    return ",".join(str(i + 1) for i in indices) or "-"


def _word(word) -> str:
    return ",".join(str(i + 1) for i in word) or "e"


@st.composite
def levi_sets(draw, rank):
    """A Levi argument: a valid set, repeats, out of range, '-' or junk."""
    kind = draw(st.sampled_from(["set", "set", "set", "raw", "dash", "junk"]))
    if kind == "set":
        return _one_based(draw(st.sets(st.integers(0, max(rank - 1, 0)), max_size=rank)))
    if kind == "raw":
        return ",".join(map(str, draw(st.lists(st.integers(-1, rank + 1), min_size=1,
                                                max_size=4))))
    return "-" if kind == "dash" else draw(JUNK)


def _admitted(family, rank):
    try:
        return weyl_group(root_system(family, rank))
    except ValueError:
        return None


@st.composite
def words(draw, group, levi, count):
    """`count` words: a codimension-balanced tuple, or each one a minimal
    representative, a reduced word, letters (often not reduced) or junk."""
    rank = group.rs.rank if group else 3
    parab = parabolic(group, levi) if group is not None and levi is not None else None
    if parab is not None and draw(st.booleans()):
        tuples = list(islice(dimension_tuples(parab, count), 40))
        if tuples:
            return ";".join(_word(w.word) for w in draw(st.sampled_from(tuples)))
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(["rep", "rep", "element", "letters", "junk"]))
        if kind == "rep" and parab is not None:
            out.append(_word(draw(st.sampled_from(parab.reps)).word))
        elif kind == "element" and group is not None:
            out.append(_word(draw(st.sampled_from(group.elements)).word))
        elif kind == "junk":
            out.append(draw(JUNK))
        else:
            out.append(",".join(map(str, draw(st.lists(st.integers(0, rank + 1), min_size=1,
                                                        max_size=4)))))
    return ";".join(out)


def _levi_of(text: str, rank: int):
    """The 0-based Levi a `--levi` argument names, or None when the CLI refuses it."""
    if text == "-":
        return ()
    toks = text.split(",")
    if all(t.isdecimal() and 1 <= int(t) <= rank for t in toks) and len(set(toks)) == len(toks):
        return tuple(int(t) - 1 for t in toks)
    return None


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["roots", "weyl", "verify-golden"] + TABLE_COMMANDS * 2))
    group, rank, levi = None, 3, None
    if command == "verify-golden":
        argv = [command]
        if draw(st.booleans()):
            argv += ["--table", draw(st.sampled_from(["b3_p2", "c3_p1", "a2_p1", "bogus"]))]
    else:
        family, rank = draw(st.sampled_from(
            TYPES + (RANK4 if command in ("roots", "weyl") else [])))
        argv = [command, "--type", family, "--rank", str(rank)]
        group = _admitted(family, rank)
    if command not in ("roots", "eigencone", "redundancy", "leviprod-check", "verify-golden"):
        choice = draw(st.sampled_from(["none", "levi", "levi", "parabolic", "parabolic", "both"]))
        levi = () if choice == "none" else None
        if choice in ("levi", "both"):
            text = draw(levi_sets(rank))
            argv += ["--levi", text]
            levi = _levi_of(text, rank) if choice == "levi" else None
        if choice in ("parabolic", "both"):
            k = draw(st.integers(-1, rank + 1))
            argv += ["--parabolic", str(k)]
            if choice == "parabolic" and 1 <= k <= rank:
                levi = tuple(i for i in range(rank) if i != k - 1)
    if command in ("product", "lmovable", "horn-check"):
        argv += ["--words", draw(words(group, levi, draw(st.integers(1, 3))))]
    if command == "horn-check":
        argv += ["--check", draw(st.sampled_from(["all", "character", "refined", "dimension"]))]
        if draw(st.booleans()):
            argv += ["--inner-levi", draw(levi_sets(rank)),
                     "--outer-levi", draw(levi_sets(rank))]
        if draw(st.booleans()):
            argv += ["--levi-words", draw(words(group, (), 3))]
    if command in ("eigencone", "redundancy", "horn-converse-experiment"):
        argv += ["--s", str(draw(st.integers(-1, 3)))]
    if command in ("eigencone", "redundancy"):
        argv += ["--mode", draw(st.sampled_from(["classical", "deformed"]))]
    if command == "horn-converse-experiment":
        argv += ["--limit", str(draw(st.integers(-1, 3)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["md", "csv", "json", "xml"]))]
    return argv


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_any_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + (["--no-cache"] if argv[0] in CACHE_COMMANDS else []))
        except SystemExit as stop:  # argparse rejects the argv
            code = stop.code
    assert code in (0, 2, 3, 4), argv
    if "--levi" in argv and "--parabolic" in argv:
        assert code == 2, argv  # two parabolics named: refused, not one of them ignored
    assert "Traceback" not in err.getvalue(), argv
    assert (code == 0) is (not err.getvalue()), (argv, code, err.getvalue())


def _main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12)


@st.composite
def file_bytes(draw, valid: bytes):
    """Any bytes, JSON text of any value, deep nesting, or `valid` with a few
    bytes replaced, inserted or deleted."""
    kind = draw(st.sampled_from(["bytes", "json", "deep", "edited", "edited"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES)).encode()
    if kind == "deep":
        return draw(st.sampled_from([b"[", b'{"a":'])) * draw(st.integers(1, 200_000))
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(range(len(data))))  # uniform, unlike st.integers
        # digits and brackets often keep the file parseable
        byte = draw(st.sampled_from(b"0123456789[],") | st.integers(0, 255))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "replace":
            data[at] = byte
        elif edit == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    return bytes(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    """A directory, a job that caches there (the full A2 table, whose every
    entry is a stored constant) with its no-cache stdout, and the bytes of a
    good A2 cache file and B2 system file."""
    root = tmp_path_factory.mktemp("files")
    table = ["deform-table", "--type", "A", "--rank", "2", "--levi", "-", "--cache-dir",
             str(root)]
    assert _main(table)[0] == 0
    assert _main(["eigencone", "--type", "B", "--rank", "2", "--output", str(root / "b2.json"),
                  "--no-cache"])[0] == 0
    return {"root": root, "table": table,
            "no_cache": _main(table[:-2] + ["--no-cache"])[1],
            "cache": (root / "constants-A2.json").read_bytes(),
            "input": (root / "b2.json").read_bytes()}


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_any_cache_file_is_ignored_or_read_without_changing_output(files, data):
    (files["root"] / "constants-A2.json").write_bytes(data.draw(file_bytes(files["cache"])))
    # a Weyl group built afresh, whose basis knows no constant, so that the
    # run uses whatever the file gives
    root_system("A", 2)._weyl_group = None
    code, out, err = _main(files["table"])
    assert (code, err) == (0, "")
    # the header echoes the cache flags, and nothing else differs
    assert out.splitlines()[1:] == files["no_cache"].splitlines()[1:]


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_any_input_file_keeps_the_exit_code_contract(files, data):
    path = files["root"] / "input.json"
    path.write_bytes(data.draw(file_bytes(files["input"])))
    code, _, err = _main(["redundancy", "--input", str(path)])
    assert code in (0, 2, 3, 4) and "Traceback" not in err
    assert (code == 0) is (not err), (code, err)
