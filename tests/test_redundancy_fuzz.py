"""Bounded fuzz of `redundancy --input`: the exit-code contract on hostile files.

Documents are well formed or carry one defect (a missing key, a value of the
wrong type, a bad label, number of factors, block or entry).  Some row sets
are closed under permuting the factors, so the orbit path of
`prune_redundant` runs, and some miss one row of that or repeat one.  Every run must exit 0, 2, 3 or 4 without a
traceback, and a well-formed document must give the one-LP-per-row
reference verdicts.
"""

import contextlib
import io
import itertools
import json

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from schubdeform import cli, root_system
from schubdeform.eigencone import Inequality, InequalitySystem

from oracles import redundant_reference

TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.text(max_size=3),
                 st.lists(st.integers(-2, 2), max_size=3), st.just({}))


def permuted(block_lists, s):
    """Every row of the list with its blocks permuted in every way."""
    out = []
    for blocks in block_lists:
        for order in itertools.permutations(range(s)):
            out.append([blocks[j] for j in order])
    return out


@st.composite
def documents(draw):
    family, rank = draw(st.sampled_from(TYPES))
    s = draw(st.integers(2, 4))
    block = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    rows = draw(st.lists(st.lists(block, min_size=s, max_size=s), max_size=6))
    if draw(st.booleans()):
        # closed, one row short, or one row twice (closed as a set only)
        rows = permuted(rows[:2], s)
        rows = draw(st.sampled_from([rows, rows[1:], rows + rows[:1]]))
    word = st.lists(st.integers(1, rank), max_size=3)
    doc = {"system": f"{family}{rank}", "s": s,
           "mode": draw(st.sampled_from(["classical", "deformed"])),
           "inequalities": [{"parabolic": draw(st.integers(1, rank)),
                             "words": draw(st.lists(word, min_size=s, max_size=s)),
                             "functional": blocks} for blocks in rows]}
    defect = draw(st.one_of(st.none(), st.sampled_from(
        ["drop", "junk", "label", "s", "block", "entry", "array", "schema"])))
    if defect == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif defect == "junk":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    elif defect == "label":
        doc["system"] = draw(st.one_of(st.sampled_from(["G3", "A0", "X2", "A", "", "A200"]),
                                       st.text(max_size=4)))
    elif defect == "s":
        doc["s"] = draw(st.one_of(st.integers(-2, 6), JUNK))
    elif defect in ("block", "entry") and doc["inequalities"]:
        q = draw(st.sampled_from(doc["inequalities"]))
        if defect == "block":
            q[draw(st.sampled_from(["parabolic", "words", "functional"]))] = draw(JUNK)
        else:
            q["functional"][0] = draw(st.lists(JUNK, max_size=3))
    elif defect == "array":
        doc = [doc]
    elif defect == "schema":
        doc["schema_version"] = draw(JUNK)
    return doc, defect is None


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(documents())
def test_redundancy_input_keeps_the_exit_code_contract(tmp_path, case):
    doc, well_formed = case
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["redundancy", "--input", str(path), "--format", "json"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) is (not err.getvalue())
    if well_formed:
        assert code == 0, err.getvalue()
        system = InequalitySystem(
            root_system(doc["system"][0], int(doc["system"][1:])), doc["s"], doc["mode"],
            [Inequality(q["parabolic"] - 1, (), tuple(map(tuple, q["functional"])))
             for q in doc["inequalities"]])
        assert json.loads(out.getvalue())["redundant"] == redundant_reference(system)
