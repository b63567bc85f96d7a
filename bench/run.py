#!/usr/bin/env python3
"""Benchmark of the schubdeform command line, timed from outside the program.

Every job is one `schubdeform` command (or one small API script) started in a
fresh interpreter, one job at a time, with `src/` on PYTHONPATH.  Each job's
exit code and stdout are checked against the expectations in `pins.json` and
against semantic checks, so a faster wrong answer counts as a failure.

    python3 bench/run.py --workload gb-table --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all        # every workload, one table each

With `--trace 0` the last stdout line is one JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced pass (see `tracer.py`) measured after the untraced passes.  A record
of each run (environment, metrics, failed jobs, per-function span totals)
is written to `bench/results/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

CLI_EXIT_CODES = (0, 2, 3, 4)   # the exit-code contract documented by the CLI
JOB_TIMEOUT_S = 150
SETUP_REPEATS = 3
# the known labelling defect: more than 8 classes in one codimension
DEFECT_TAIL = "IndexError: string index out of range"

WORKLOADS = ("gb-table", "gp-generate", "prune-lp", "cli-warm")   # why: see README.md


def cli(*args: str) -> tuple[str, ...]:
    return ("cli",) + args


def equiv(family: str, rank: int, s: int) -> tuple[str, ...]:
    return ("equiv", "--type", family, "--rank", str(rank), "--s", str(s))


def _ineq_count(n):
    return lambda doc: doc["count"] == n


def _redundant_count(n):
    return lambda doc: sum(doc["redundant"]) == n


def _full_table(order):
    """A full-flag deform-table: every non-unit class, one product per unordered pair."""
    n = order - 1
    return lambda doc: len(doc["classes"]) == n and len(doc["products"]) == n * (n + 1) // 2


def _golden_all(doc):
    return len(doc["results"]) == 1 and doc["results"][0]["matched"] is True


def _leviprod_passed(doc):
    return doc["passed"] is True and doc["mismatches"] == 0


# fixed job lists; each job maps to its semantic check on the parsed stdout
FIXED: dict[str, list[tuple[tuple[str, ...], object]]] = {
    "gb-table": [
        (cli("leviprod-check", "--type", "A", "--rank", "3", "--no-cache", "--format", "json"),
         _leviprod_passed),
        (cli("leviprod-check", "--type", "B", "--rank", "2", "--no-cache", "--format", "json"),
         _leviprod_passed),
        (cli("leviprod-check", "--type", "G", "--rank", "2", "--no-cache", "--format", "json"),
         _leviprod_passed),
        (cli("deform-table", "--type", "A", "--rank", "3", "--levi", "-", "--no-cache",
             "--format", "json"), _full_table(24)),
        (cli("deform-table", "--type", "G", "--rank", "2", "--levi", "-", "--no-cache",
             "--format", "json"), _full_table(12)),
    ],
    "gp-generate": [
        (cli("eigencone", "--type", "B", "--rank", "3", "--s", "3", "--mode", "deformed",
             "--no-cache", "--format", "json"), _ineq_count(93)),
        (cli("eigencone", "--type", "C", "--rank", "3", "--s", "3", "--mode", "deformed",
             "--no-cache", "--format", "json"), _ineq_count(93)),
    ] + [(cli("verify-golden", "--table", name, "--no-cache", "--format", "json"), _golden_all)
         for name in ("b3_p2", "b3_p3", "c3_p1", "c3_p2")],
    "prune-lp": [
        (cli("redundancy", "--type", "B", "--rank", "2", "--s", "3", "--no-cache",
             "--format", "json"), _redundant_count(1)),
        (cli("redundancy", "--type", "B", "--rank", "2", "--s", "4", "--no-cache",
             "--format", "json"), _redundant_count(4)),
        (cli("redundancy", "--type", "G", "--rank", "2", "--s", "3", "--no-cache",
             "--format", "json"), _redundant_count(3)),
        (cli("redundancy", "--type", "A", "--rank", "2", "--s", "4", "--no-cache",
             "--format", "json"), _redundant_count(0)),
        (equiv("B", 2, 3), lambda out: out is True),
        (equiv("A", 2, 4), lambda out: out is True),
    ],
}
PROBE = cli("roots", "--type", "A", "--rank", "1")
REFERENCE = ("reference",)
REF_S = 0.20   # nominal time of the reference job: times are scaled to this host speed
SEGMENT_S = 1.0   # a reference run follows every this many seconds of jobs

# cli-warm: jobs per command drawn from the rank <= 3 pool, plus one A4 job
WARM_DRAW = {"weyl": 3, "deform-table": 2, "product": 2, "lmovable": 2, "horn-check": 2}

# passes over the job list at least; more run while one more fits in --seconds.
# A job's time is its median over the passes.
MIN_PASSES = {"gb-table": 3, "gp-generate": 3, "prune-lp": 3,
              "cli-warm": 9}   # 12 distinct jobs x 9 passes = 108 warm samples

END_TO_END = {   # name -> unit
    "wall_s": "s", "cpu_s": "s", "job_p50_s": "s", "job_p90_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def key(job) -> str:
    return " ".join(job)


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def on_a4(job) -> bool:
    return job[job.index("--type") + 1] == "A" and job[job.index("--rank") + 1] == "4"


def make_jobs(workload: str, seed: int, pins: dict) -> list[tuple[str, ...]]:
    if workload in FIXED:
        return [job for job, _ in FIXED[workload]]
    rng = random.Random(f"cli-warm:{seed}")
    pool = [tuple(j) for j in pins["pool"]]
    jobs = []
    for command, n in WARM_DRAW.items():
        jobs += rng.sample([j for j in pool if j[1] == command and not on_a4(j)], n)
    jobs.append(rng.choice([j for j in pool if on_a4(j)]))
    rng.shuffle(jobs)
    return jobs


# -- running one job --------------------------------------------------------

@dataclass
class JobRun:
    job: tuple[str, ...]
    wall: float
    cpu: float
    maxrss_kb: int
    code: int
    stdout: bytes
    stderr_tail: str


def command(job, trace_out: Path | None = None) -> list[str]:
    kind, args = job[0], list(job[1:])
    if trace_out is not None:
        return [sys.executable, str(BENCH / "tracer.py"), str(trace_out), kind] + args
    if kind == "cli":
        return [sys.executable, "-m", "schubdeform.cli"] + args
    return [sys.executable, str(BENCH / f"{kind}.py")] + args


def job_env(cache_dir: Path | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SCHUBDEFORM_CACHE_DIR", None)
    if cache_dir is not None:
        env["SCHUBDEFORM_CACHE_DIR"] = str(cache_dir)
    return env


def run_job(job, env: dict, trace_out: Path | None = None) -> JobRun:
    WORK.mkdir(parents=True, exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command(job, trace_out), stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe, env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = err_path.read_text(errors="replace").strip().splitlines()
    return JobRun(tuple(job), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  proc.returncode, out_path.read_bytes(), err[-1] if err else "")


# -- checking one job -------------------------------------------------------

SEMANTIC = {key(job): check for jobs in FIXED.values() for job, check in jobs}


def check_job(run: JobRun, pins: dict) -> tuple[bool, bool, str]:
    """(failed, wrong, reason).

    failed: the job did not succeed -- an exit code outside the CLI's
    contract or a wrong output.  wrong: the outcome differs from what the
    seed commit pinned, i.e. the benchmark's correctness check failed.  A
    job pinned with the known labelling defect is failed but not wrong
    while it still hits the defect, and neither once it succeeds.
    """
    pin = pins["jobs"].get(key(run.job))
    if pin is None:
        return True, True, "no pinned expectation for this job"
    if pin.get("defect"):
        if run.code == 0:
            return False, False, ""
        if run.code == pin["exit"] and run.stderr_tail == pin["stderr_tail"]:
            return True, False, f"known defect: {run.stderr_tail}"
        return True, True, f"exit {run.code}: {run.stderr_tail}"
    if run.code != pin["exit"]:
        return True, True, f"exit {run.code}, pinned {pin['exit']}: {run.stderr_tail}"
    if hashlib.sha256(run.stdout).hexdigest() != pin["sha256"]:
        return True, True, "stdout differs from the pinned sha256"
    check = SEMANTIC.get(key(run.job))
    if check is not None:
        try:
            ok = check(json.loads(run.stdout))
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            return True, True, "semantic check failed"
    if run.code not in CLI_EXIT_CODES:
        return True, False, f"exit {run.code} is outside the CLI contract"
    return False, False, ""


# -- one workload run -------------------------------------------------------

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def add(self, run: JobRun, pins: dict, notes: list) -> None:
        failed, wrong, reason = check_job(run, pins)
        self.attempted += 1
        self.failed += failed
        self.wrong += wrong
        if failed or wrong:
            notes.append({"argv": list(run.job), "exit": run.code,
                          "stderr_tail": run.stderr_tail, "reason": reason,
                          "wrong": wrong})

    def compare(self, got: JobRun, want: JobRun, what: str, notes: list) -> None:
        if got.code != want.code or got.stdout != want.stdout:
            self.wrong += 1
            notes.append({"argv": list(got.job), "exit": got.code,
                          "stderr_tail": got.stderr_tail, "reason": what, "wrong": True})


def setup(workload: str, seed: int, pins: dict, outcome: Outcome, notes: list,
          rep: int, jobs_filter=None) -> tuple[list, Path | None, dict]:
    """Everything before the first timed job: job generation, a start-up probe
    of the program, and on cli-warm the cold pass that primes the cache."""
    jobs = make_jobs(workload, seed, pins)
    if jobs_filter is not None:
        jobs = jobs_filter(jobs)
    probe = run_job(PROBE, job_env(None))
    if probe.code != 0 or hashlib.sha256(probe.stdout).hexdigest() != pins["probe_sha256"]:
        raise SystemExit(f"error: the program does not start: {probe.stderr_tail}")
    if workload != "cli-warm":
        return jobs, None, {}
    cache = WORK / f"cache-{rep}"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    cold = {}
    for job in jobs:
        run = run_job(job, job_env(cache))
        outcome.add(run, pins, notes)
        cold[key(job)] = run
    return jobs, cache, cold


def run_segmented(jobs, env: dict, scale, trace: bool = False) -> tuple[list, list]:
    """Runs the jobs with a reference run after every SEGMENT_S of them and at
    the end; returns the runs and, for each, the scale of its segment."""
    runs: list[JobRun] = []
    scales: list[float] = []
    pending = 0.0
    for n, job in enumerate(jobs):
        runs.append(run_job(job, env, WORK / f"spans-{n}.json" if trace else None))
        pending += runs[-1].wall
        if pending >= SEGMENT_S or n == len(jobs) - 1:
            scales += [scale()] * (len(runs) - len(scales))
            pending = 0.0
    return runs, scales


def quantile(xs: list[float], q: int) -> float:
    """q-th percentile, interpolated inside the sample range."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, passes: list[list[JobRun]], scales: list[float],
               setups: list[float], outcome: Outcome) -> tuple[dict, int]:
    """Times are scaled to the nominal host speed, pass by pass.  Wall and CPU
    time sum each job's median over the passes.  The job percentiles use those
    medians, except on cli-warm, where every warm run is a sample (108), so
    that ten samples lie above the 90th percentile."""
    walls: dict[str, list[float]] = {}
    cpus: dict[str, list[float]] = {}
    for run, scale in zip((r for p in passes for r in p), scales):
        walls.setdefault(key(run.job), []).append(run.wall * scale)
        cpus.setdefault(key(run.job), []).append(run.cpu * scale)
    job_walls = [statistics.median(v) for v in walls.values()]
    samples = job_walls
    if workload == "cli-warm":
        samples = [w for v in walls.values() for w in v]
    values = {
        "wall_s": sum(job_walls),
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "job_p50_s": statistics.median(samples),
        "job_p90_s": quantile(samples, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.maxrss_kb for p in passes for r in p) / 1024,
        "ok_ratio": 1 - outcome.failed / outcome.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, len(samples)


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.json")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu or platform.processor(), "loadavg_before": os.getloadavg()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 pins: dict | None = None, jobs_filter=None) -> dict:
    """One benchmark run.  `jobs_filter` narrows the job list (self-test)."""
    pins = pins if pins is not None else load_pins()
    env_record = environment(seed)
    outcome, notes = Outcome(), []
    ref_env = job_env(None)
    refs = [run_job(REFERENCE, ref_env).wall]

    def scale() -> float:
        """Scale of the span between the last two reference runs."""
        refs.append(run_job(REFERENCE, ref_env).wall)
        return REF_S / statistics.mean(refs[-2:])

    setups, raw_setups, jobs, cache, cold = [], [], [], None, {}
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs, cache, got = setup(workload, seed, pins, outcome, notes, rep, jobs_filter)
        raw_setups.append(time.perf_counter() - t0)
        setups.append(raw_setups[-1] * scale())
        for k, run in got.items():
            if k in cold:
                outcome.compare(run, cold[k], "cold output differs between set-ups", notes)
            else:
                cold[k] = run
    env = job_env(cache)
    min_passes = MIN_PASSES[workload]
    passes: list[list[JobRun]] = []
    scales: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs, job_scales = run_segmented(jobs, env, scale)
        scales += job_scales
        for run in runs:
            outcome.add(run, pins, notes)
            if key(run.job) in cold:
                outcome.compare(run, cold[key(run.job)], "warm output differs from cold", notes)
        passes.append(runs)
        elapsed, last = time.perf_counter() - start, time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed + last > seconds:
            break
    metrics, n_samples = end_to_end(workload, passes, scales, setups, outcome)
    record = {"workload": workload, "environment": env_record,
              "passes": len(passes), "percentile_samples": n_samples,
              "reference_walls": refs, "raw_setup_walls": raw_setups,
              "job_walls": {key(j): [r.wall for p in passes for r in p if r.job == j]
                            for j in jobs}, "end_to_end": metrics}
    if trace:
        from tracer import layer_metrics   # the benchmark's own span aggregation
        traced, traced_scales = run_segmented(jobs, env, scale, trace=True)
        for run in traced:
            outcome.add(run, pins, notes)
            if key(run.job) in cold:
                outcome.compare(run, cold[key(run.job)], "traced output differs from cold", notes)
        span_files = [WORK / f"spans-{n}.json" for n in range(len(jobs))]
        job_scales = iter(scales)
        untraced = statistics.mean(sum(r.wall * next(job_scales) for r in p) for p in passes)
        # one factor for the traced pass: its scaled wall time over its raw wall time
        traced_scale = (sum(r.wall * k for r, k in zip(traced, traced_scales))
                        / sum(r.wall for r in traced))
        per_layer, functions = layer_metrics(span_files, traced, traced_scale, untraced)
        record["per_layer"], record["functions"] = per_layer, functions
        metrics = per_layer
    env_record["loadavg_after"] = os.getloadavg()
    unique: dict[str, dict] = {}
    for note in notes:
        unique.setdefault(json.dumps(note, sort_keys=True), dict(note, count=0))["count"] += 1
    record.update(attempted=outcome.attempted, failed=outcome.failed,
                  correct=outcome.wrong == 0, failures=list(unique.values()))
    return {"correct": outcome.wrong == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics, "record": record}


def print_table(result: dict) -> None:
    rec = result["record"]
    print(f"== {rec['workload']}")
    print(f"   passes={rec['passes']} percentile samples={rec['percentile_samples']}"
          f" attempted={result['attempted']}"
          f" failed={result['failed']} correct={result['correct']}")
    ref = statistics.median(rec["reference_walls"])
    print(f"   reference job: median {ref:.4f} s, times below scaled by {REF_S} / its time")
    for name, m in rec["end_to_end"].items():
        print(f"   {name:<12} {m['value']:>12.4f} {m['unit']}")
    for name, m in rec.get("per_layer", {}).items():
        print(f"   {name:<36} {m['value']:>14.6g} {m['unit']}")
    for note in rec["failures"]:
        print(f"   failed x{note['count']}: {' '.join(note['argv'])} -> exit {note['exit']}:"
              f" {note['reason']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "schubdeform" / "cli.py").is_file():
        print(f"error: no schubdeform sources under {SRC}", file=sys.stderr)
        return 2
    if not PINS.is_file():
        print(f"error: missing {PINS}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            RESULTS.mkdir(exist_ok=True)
            out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(results[name]["record"], indent=1) + "\n")
            print_table(results[name])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
