"""The names the benchmark looks up in the package must exist.

bench/layers.py names each traced layer by (module, attribute path) and
looks it up only when tracing is switched on, and bench/workloads.py calls
rb.<module>.<attr> on the modules bench/run.py imports, so a rename in the
package would otherwise surface only in a benchmark run.  These tests read
bench/ and edit nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS_PY = BENCH / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _layers()])
def test_traced_layer_resolves(module, attr):
    owner = importlib.import_module(f"roughbody.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        # the tracer replaces the method on its own class, so it must be defined there
        assert callable(cls.__dict__[meth])
    else:
        assert callable(getattr(owner, attr))


def _run_modules() -> tuple[str, ...]:
    """bench/run.py's MODULES: the package modules a workload gets as rb.<module>."""
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no MODULES")


def _workload_names() -> list[tuple[str, str]]:
    """Every (module, attr) of an rb.<module>.<attr> chain in bench/workloads.py."""
    names = set()
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        inner = getattr(node, "value", None)
        if isinstance(node, ast.Attribute) and isinstance(inner, ast.Attribute):
            if isinstance(inner.value, ast.Name) and inner.value.id == "rb":
                names.add((inner.attr, node.attr))
    return sorted(names)


def test_workload_scan_sees_the_coefficient_classes():
    names = _workload_names()
    assert {("chains", "Chain"), ("forms", "Cochain"), ("io", "save_cochain"), ("chains", "restrict")} <= set(names)


@pytest.mark.parametrize("module, attr", _workload_names())
def test_workload_name_resolves(module, attr):
    assert module in _run_modules()
    assert hasattr(importlib.import_module(f"roughbody.{module}"), attr)
