"""The functions and methods that `bench/run.py --trace 1` wraps must exist.

bench/layers.py names each traced layer by (module, attribute path) and
looks it up only when tracing is switched on, so a rename in the package
would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


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
