"""Every name the benchmark tracer wraps still exists in the package.

`bench/tracer.py` looks its hooks, patched methods and metric spans up by
dotted name (`layer.function` or `layer.Class.method`).  A rename in the
package would only show in the traced benchmark pass, so this test resolves
every such name the way the tracer does.  It reads `bench/` and writes
nothing there.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolves(name: str) -> bool:
    layer, *rest = name.split(".")
    mod = importlib.import_module(f"schubdeform.{layer}")
    obj = vars(mod).get(rest[0])
    if len(rest) == 1:
        # the tracer wraps public functions defined in their layer module
        return inspect.isfunction(obj) and obj.__module__ == mod.__name__
    # and patches methods defined on the class itself
    return inspect.isclass(obj) and inspect.isfunction(vars(obj).get(rest[1]))


def test_every_traced_name_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    names = set(tracer.HOOKS) | set(tracer.CALLS.values())
    for spans in tracer.OUTER.values():
        names.update(spans)
    for (layer, cls), methods in tracer.METHODS.items():
        names.update(f"{layer}.{cls}.{m}" for m in methods or ("__init__",))
    assert len(names) >= 30
    assert all(name.split(".")[0] in tracer.LAYERS for name in names)
    assert sorted(n for n in names if not _resolves(n)) == []
