#!/usr/bin/env python3
"""Outside-in span recorder for one schubdeform job, and its aggregation.

As a script it runs one job in this interpreter with the public functions of
every schubdeform module wrapped in a timing span:

    python3 bench/tracer.py SPANS.json cli leviprod-check --type B --rank 3
    python3 bench/tracer.py SPANS.json equiv --type B --rank 2 --s 4

Each wrapper replaces every binding of the function, in every module that
imported it (so `eigencone.cone_contains` and `cli.deformed_ring` are traced,
not only their home modules), and a few classes have their methods patched
on the class.  Spans ([name, start, end, parent]) and counters stay in memory
and are written to SPANS.json when the job ends, also when it raises.  The
job's stdout, stderr and exit code are those of the untraced job.

Imported, `layer_metrics` turns the span files of a traced pass into the
per-layer metrics of the benchmark.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("rootsystem", "weyl", "schubert", "poly", "deform", "horn", "eigencone",
          "cones", "invsets", "golden", "cli")
# methods patched on the class; None means every public method plus __init__
METHODS = {
    ("weyl", "WeylGroup"): ("__init__",),
    ("schubert", "SchubertBasis"): None,
    ("deform", "DeformedRing"): ("__init__", "classical_product", "deformed_product",
                                 "product0", "multiply", "point_coefficient",
                                 "is_levi_movable"),
}

perf = time.perf_counter
spans: list[list] = []
stack: list[int] = []
counters: dict[str, float] = {}


def count(name: str, n: float = 1) -> None:
    counters[name] = counters.get(name, 0) + n


def count_max(name: str, n: float) -> None:
    counters[name] = max(counters.get(name, 0), n)


def _open(name: str) -> int:
    idx = len(spans)
    spans.append([name, perf(), 0.0, stack[-1] if stack else -1])
    stack.append(idx)
    return idx


def _close(idx: int) -> None:
    spans[idx][2] = perf()
    stack.pop()


def _traced_iter(name: str, it):
    """Each step of a returned generator is a span of the same name."""
    while True:
        idx = _open(name)
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            _close(idx)
        count(name + ".items")
        yield item


# -- counters taken from arguments and results ------------------------------

def _terms(p) -> int:
    return len(getattr(p, "terms", ()))


def _dd(args, kwargs):
    n_in = _terms(args[2]) if len(args) > 2 else 0

    def post(result):
        n_out = _terms(result)
        count("poly.dd_terms_in", n_in)
        count("poly.dd_terms_out", n_out)
        count_max("poly.max_terms", max(n_in, n_out))
    return post


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def _basis_init(args, kwargs):
    def post(result):
        count("schubert.cache_bytes", _file_size(getattr(args[0], "_cache_path", None)))
    return post


def _save_cache(args, kwargs):
    path = getattr(args[0], "_cache_path", None)
    before = (_file_size(path), getattr(args[0], "_dirty", False))

    def post(result):
        if before[1]:
            count("schubert.cache_bytes", _file_size(path))
    return post


def _group_init(args, kwargs):
    def post(result):
        count("weyl.group_elements", len(getattr(args[0], "elements", ())))
    return post


def _generate(args, kwargs):
    def post(result):
        count("eigencone.inequalities", len(result.inequalities))
    return post


def _prune(args, kwargs):
    def post(result):
        count("eigencone.redundant", sum(result.redundant or ()))
    return post


def _cone_contains(args, kwargs):
    m, n = len(args[0]), len(args[1])

    def post(result):
        count("cones.tableau_cells", m * (n + m + 1))
        count("cones.contained", bool(result))
    return post


def _crosscheck(args, kwargs):
    def post(result):
        count("invsets.pairs", result.pairs)
    return post


HOOKS = {
    "schubert.divided_difference": _dd,
    "schubert.SchubertBasis.__init__": _basis_init,
    "schubert.SchubertBasis.save_cache": _save_cache,
    "weyl.WeylGroup.__init__": _group_init,
    "eigencone.generate_system": _generate,
    "eigencone.prune_redundant": _prune,
    "cones.cone_contains": _cone_contains,
    "invsets.crosscheck_gb": _crosscheck,
}


def wrap(name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        post = hook(args, kwargs) if hook else None
        idx = _open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(idx)
        if post is not None:
            post(result)
        if inspect.isgenerator(result):
            return _traced_iter(name, result)
        return result
    return traced


def install() -> None:
    modules = {layer: importlib.import_module(f"schubdeform.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                wrapped[id(fn)] = (fn, wrap(f"{layer}.{attr}", fn))
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "schubdeform"]
    for mod in owners:
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        if names is None:
            names = ["__init__"] + [a for a, v in vars(cls).items()
                                    if inspect.isfunction(v) and not a.startswith("_")]
        for attr in names:
            setattr(cls, attr, wrap(f"{layer}.{cls_name}.{attr}", vars(cls)[attr]))


def main(argv: list[str]) -> int:
    out, kind, args = Path(argv[0]), argv[1], argv[2:]
    t0 = perf()
    import schubdeform.cli  # noqa: F401  (imports every layer)
    import_s = perf() - t0
    try:
        install()
        if kind == "cli":
            return schubdeform.cli.main(args)
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import equiv
        idx = _open("api.main")
        try:
            return equiv.main(args)
        finally:
            _close(idx)
    finally:
        sys.stdout.flush()
        out.write_text(json.dumps({"import_s": import_s, "spans": spans,
                                   "counters": counters}))


# -- aggregation in the benchmark process -----------------------------------

OUTER = {   # metric -> span names; a span counts unless an ancestor is in the set
    "weyl.group_s": ("weyl.weyl_group", "weyl.WeylGroup.__init__"),
    "weyl.parabolic_s": ("weyl.parabolic",),
    "schubert.basis_s": ("schubert.schubert_basis", "schubert.SchubertBasis.__init__"),
    "schubert.product_s": ("schubert.SchubertBasis.product",),
    "schubert.polynomial_s": ("schubert.SchubertBasis.polynomial",),
    "schubert.dd_s": ("schubert.divided_difference",),
    "schubert.save_cache_s": ("schubert.SchubertBasis.save_cache",),
    "deform.ring_s": ("deform.deformed_ring", "deform.DeformedRing.__init__"),
    "deform.classical_product_s": ("deform.DeformedRing.classical_product",),
    "deform.point_coefficient_s": ("deform.DeformedRing.point_coefficient",),
    "horn.dimension_tuples_s": ("horn.dimension_tuples",),
    "horn.check_s": ("horn.check_character", "horn.check_refined", "horn.check_dimension"),
    "eigencone.generate_s": ("eigencone.generate_system",),
    "eigencone.prune_s": ("eigencone.prune_redundant",),
    "eigencone.equivalent_s": ("eigencone.systems_equivalent",),
    "cones.lp_s": ("cones.cone_contains",),
    "invsets.crosscheck_s": ("invsets.crosscheck_gb",),
    "golden.verify_s": ("golden.verify_table", "golden.verify_all"),
    "cli.main_s": ("cli.main",),
    "cli.emit_s": ("cli.emit",),
}
CALLS = {
    "weyl.parabolic_calls": "weyl.parabolic",
    "schubert.product_calls": "schubert.SchubertBasis.product",
    "schubert.dd_calls": "schubert.divided_difference",
    "deform.rings": "deform.DeformedRing.__init__",
    "deform.classical_product_calls": "deform.DeformedRing.classical_product",
    "deform.deformed_product_calls": "deform.DeformedRing.deformed_product",
    "deform.point_coefficient_calls": "deform.DeformedRing.point_coefficient",
    "cones.lp_calls": "cones.cone_contains",
}
COUNTERS = {
    "weyl.group_elements": "weyl.group_elements",
    "schubert.cache_bytes": "schubert.cache_bytes",
    "poly.dd_terms_in": "poly.dd_terms_in",
    "poly.dd_terms_out": "poly.dd_terms_out",
    "horn.dimension_tuples": "horn.dimension_tuples.items",
    "eigencone.inequalities": "eigencone.inequalities",
    "eigencone.redundant": "eigencone.redundant",
    "cones.tableau_cells": "cones.tableau_cells",
    "invsets.pairs": "invsets.pairs",
}
UNITS = {"_s": "s", "_ms": "ms", "_ratio": "ratio", "_bytes": "bytes"}


def _unit(metric: str) -> str:
    return next((u for suffix, u in UNITS.items() if metric.endswith(suffix)), "count")


def layer_metrics(span_files, runs, scale: float, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics summed over one traced pass, plus per-function totals
    (calls, inclusive seconds of outermost calls, self seconds).  Times are
    multiplied by `scale`, the pass's factor to the nominal host speed; the
    untraced wall time is already scaled."""
    groups = dict(OUTER)
    groups.update({f"{layer}.layer": None for layer in LAYERS})
    bits = {g: 1 << k for k, g in enumerate(groups)}

    def member(name: str) -> int:
        layer = name.split(".")[0]
        m = bits.get(f"{layer}.layer", 0)
        for g, names in OUTER.items():
            if name in names:
                m |= bits[g]
        return m

    values = {m: 0.0 for m in list(OUTER) + list(CALLS) + list(COUNTERS)}
    values.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    layer_incl = dict.fromkeys(LAYERS, 0.0)
    functions: dict[str, list] = {}
    counters_sum: dict[str, float] = {}
    lp_ms: list[float] = []
    import_s = top_s = hits = max_terms = 0.0
    for path in span_files:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            continue
        import_s += doc["import_s"]
        top_s += doc["import_s"]
        for name, v in doc["counters"].items():
            counters_sum[name] = counters_sum.get(name, 0) + v
        max_terms = max(max_terms, doc["counters"].get("poly.max_terms", 0))
        spans = doc["spans"]
        child = [0.0] * len(spans)
        above = [0] * len(spans)          # group bits of all ancestors
        has_dd = [False] * len(spans)
        for i, (name, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                above[i] = above[parent] | member(spans[parent][0])
            else:
                top_s += t1 - t0
            if name == "schubert.divided_difference":
                p = parent
                while p >= 0 and not has_dd[p]:
                    has_dd[p] = True
                    p = spans[p][3]
        for i, (name, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            mine = member(name)
            outer = mine & ~above[i]
            layer = name.split(".")[0]
            if layer in layer_incl:
                values[f"{layer}.self_s"] += dur - child[i]
                if outer & bits[f"{layer}.layer"]:
                    layer_incl[layer] += dur
            for g, names in OUTER.items():
                if outer & bits[g]:
                    values[g] += dur
            f = functions.setdefault(name, [0, 0.0, 0.0])
            f[0] += 1
            f[1] += dur if not any(spans[p][0] == name for p in _chain(spans, parent)) else 0
            f[2] += dur - child[i]
            if name == "schubert.SchubertBasis.product" and not has_dd[i]:
                hits += 1
            if name == "cones.cone_contains":
                lp_ms.append(dur * 1000)
    for metric, name in CALLS.items():
        values[metric] = functions.get(name, [0])[0]
    for metric, name in COUNTERS.items():
        values[metric] = counters_sum.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    traced_wall = sum(r.wall for r in runs)
    values.update({
        "rootsystem.build_s": layer_incl["rootsystem"],
        "schubert.product_hit_ratio": ratio(hits, values["schubert.product_calls"]),
        "poly.max_terms": max_terms,
        "eigencone.keep_ratio": ratio(values["eigencone.inequalities"],
                                      values["horn.dimension_tuples"]),
        "cones.lp_p50_ms": statistics.median(lp_ms) if lp_ms else 0.0,
        "cones.lp_max_ms": max(lp_ms, default=0.0),
        "cones.contained_ratio": ratio(counters_sum.get("cones.contained", 0),
                                       values["cones.lp_calls"]),
        "cli.import_s": import_s,
        "cli.stdout_bytes": sum(len(r.stdout) for r in runs),
        "trace.overhead_ratio": ratio(traced_wall * scale, untraced_wall),
        "trace.coverage_ratio": ratio(top_s, traced_wall),
    })
    for m, v in values.items():
        if _unit(m) in ("s", "ms"):
            values[m] = v * scale
    metrics = {m: {"value": v, "unit": _unit(m)} for m, v in sorted(values.items())}
    table = {n: {"calls": c, "incl_s": i, "self_s": s}
             for n, (c, i, s) in sorted(functions.items(), key=lambda kv: -kv[1][2])}
    return metrics, table


def _chain(spans, p):
    while p >= 0:
        yield p
        p = spans[p][3]


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
