"""Self-test of the benchmark: one small job per workload, traced and untraced.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is reported with its unit,
and that a corrupted pinned hash makes the run incorrect.  Takes under a
minute; it is not part of the tier-1 suite.
"""
import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# the cheapest job of each workload
SMALLEST = {
    "gb-table": "leviprod-check --type B --rank 2",
    "gp-generate": "verify-golden --table c3_p1",
    "prune-lp": "redundancy --type B --rank 2",
    "cli-warm": " weyl ",
}


def smallest(workload):
    return lambda jobs: [j for j in jobs if SMALLEST[workload] in " ".join(j) + " "][:1]


@pytest.fixture(autouse=True)
def clean_work():
    yield
    shutil.rmtree(run.WORK, ignore_errors=True)


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_reported(workload):
    res = run.run_workload(workload, seed=1, seconds=0, trace=True,
                           jobs_filter=smallest(workload))
    assert res["correct"], res["record"]["failures"]
    assert res["attempted"] >= 1
    e2e = res["record"]["end_to_end"]
    for m in SPEC["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"]
        assert e2e[m["name"]]["value"] > 0, m["name"]
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


def test_corrupted_pin_is_a_failure():
    pins = copy.deepcopy(run.load_pins())
    job = run.FIXED["prune-lp"][1][0]
    assert job[1:5] == ("redundancy", "--type", "B", "--rank")
    pins["jobs"][run.key(job)]["sha256"] = "0" * 64
    res = run.run_workload("prune-lp", seed=1, seconds=0, trace=False, pins=pins,
                           jobs_filter=lambda jobs: [job])
    assert not res["correct"]
    assert res["failed"] == res["attempted"] == run.MIN_PASSES["prune-lp"]
    assert res["record"]["failures"][0]["reason"] == "stdout differs from the pinned sha256"


def test_known_defect_is_counted_not_hidden():
    pins = run.load_pins()
    defects = [k for k, p in pins["jobs"].items() if p.get("defect")]
    assert defects and all(" --rank 4 " in k for k in defects)
    job = tuple(defects[0].split(" "))
    res = run.run_workload("cli-warm", seed=1, seconds=0, trace=False,
                           jobs_filter=lambda jobs: [job])
    assert res["correct"]
    assert res["failed"] == res["attempted"] > 0
    assert res["metrics"]["ok_ratio"]["value"] == 0
    note = res["record"]["failures"][0]
    assert note["argv"] == list(job) and note["stderr_tail"] == run.DEFECT_TAIL
