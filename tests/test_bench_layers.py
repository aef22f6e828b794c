"""The names the benchmark looks up in the package must exist.

bench/layers.py names each traced layer by (module, attribute path) and
looks it up only when tracing is switched on, and bench/workloads.py calls
rb.<module>.<attr> on the modules bench/run.py imports, so a rename in the
package would otherwise surface only in a benchmark run.  One test installs
bench/layers.Tracer around a mesh build, so that the counts the benchmark
reads are checked against the program.  These tests read bench/ and edit
nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import roughbody.cli  # noqa: F401  (Tracer.install looks up every traced module)
from roughbody.generate import cube_mesh
from roughbody.mesh import build_complex
from roughbody.simplex_lp import certainly_disjoint, facet_signs, float_image

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS_PY = BENCH / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _layers().LAYERS])
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


def test_traced_overlap_sweep_counts_each_exact_pair():
    """The exact-predicate span count of a traced mesh build is the float filter's undecided pair count."""
    cube = cube_mesh(3, 3, 3)
    V, S = cube.vertices, cube.arrays[3]
    lo, hi = V[S].min(axis=1), V[S].max(axis=1)
    a, b = np.triu_indices(len(S), 1)
    meet = ((lo[a] <= hi[b]) & (lo[b] <= hi[a])).all(axis=1)
    a, b = a[meet], b[meet]
    C = np.ascontiguousarray(np.moveaxis(float_image(V)[S], 0, -1))
    signs = facet_signs(C)
    undecided = int((~certainly_disjoint(C.take(a, -1), signs.take(a, -1), C.take(b, -1), signs.take(b, -1))).sum())

    layers = _layers()
    tracer = layers.Tracer()
    tracer.install()
    tracer.active = True
    try:
        build_complex(V, {3: S})
    finally:
        tracer.active = False
        tracer.uninstall()
    totals = layers.layer_totals(tracer.take())
    assert undecided == 81
    assert totals["simplex_lp.simplex_interiors_intersect.calls"] == undecided
    assert totals["simplex_lp.simplex_interiors_intersect.hits"] == 0
