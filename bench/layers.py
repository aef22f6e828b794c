"""Per-layer spans and counts, recorded by wrapping roughbody's public functions.

Nothing under src/ changes.  `Tracer.install` replaces each listed function
in every roughbody module namespace that holds it, because modules import
by name (flat_norm is called through cli and sharp, simplex_interiors_intersect
through mesh and maps); a wrapper on the defining module alone would miss
those calls.  Methods are wrapped on their class.  With tracing off no
wrapper is installed.

Spans (layer, parent span, start, end, counts) stay in memory; a layer's
self time is its span durations minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter


def _lp_counts(args, kwargs, result):
    """Pivots, tableau size and the bytes the rank-1 pivot updates move (computed)."""
    m, n = args[1].shape
    basis = args[3] if len(args) > 3 else kwargs.get("basis")
    cols = n + 1 if basis is not None else n + m + 1  # phase 1 carries m artificials
    tableau_bytes = 8 * (m + 1) * cols
    # each pivot reads and writes the whole tableau once in T -= outer(...)
    return {
        "pivots": result.iterations,
        "tableau_mb_max": tableau_bytes / 1e6,
        "bytes_moved_gb": 2 * tableau_bytes * result.iterations / 1e9,
    }


def _simplices(args, kwargs, result):
    return {"simplices": sum(len(v) for v in result.simplices.values())}


def _pieces(args, kwargs, result):
    cx = result.complex
    return {"pieces": cx.n_simplices(cx.top_degree)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute path, per-layer metrics beyond calls and self_s, counter)
LAYERS = [
    ("cli", "main", (), None),
    ("io", "load_mesh", (), None),
    ("io", "save_mesh", ("bytes",), _file_bytes),
    ("io", "save_chain", ("bytes",), _file_bytes),
    ("io", "dumps_report", ("bytes",), lambda a, k, r: {"bytes": len(r)}),
    ("mesh", "build_complex", ("simplices",), _simplices),
    ("mesh", "refine_by_halfspace", ("pieces",), _pieces),
    ("mesh", "barycentric_refine", ("pieces",), _pieces),
    ("simplex_lp", "solve_lp", ("pivots", "tableau_mb_max", "bytes_moved_gb"), _lp_counts),
    ("simplex_lp", "simplex_interiors_intersect", ("hits",), lambda a, k, r: {"hits": int(bool(r))}),
    ("flatnorm", "flat_norm", ("edges",), lambda a, k, r: {"edges": a[0].complex.n_simplices(a[0].degree)}),
    ("chains", "restrict", (), None),
    ("forms", "whitney_realize", (), None),
    ("forms", "interior_product", (), None),
    ("forms", "EvaluableCurrent.evaluate", (), None),
    ("forms", "EvaluableCurrent.mass", (), None),
    ("forms", "EvaluableCurrent.materialize", (), None),
    ("poly", "integrate_over_simplex", (), None),
    ("sharp", "check_product_bounds", (), None),
    ("maps", "is_embedding", (), None),
    ("mechanics", "virtual_power_report", (), None),
    ("mechanics", "stress_report", (), None),
    ("bodies", "koch_prefractal", (), None),
]

# Layers whose call count the benchmark reports; the others report self time only.
_NO_CALLS = {"cli.main", "io.load_mesh", "io.save_mesh", "io.save_chain", "io.dumps_report", "bodies.koch_prefractal"}

# unit and better-direction of each per-layer metric kind
UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "bytes": ("bytes", "lower"),
    "simplices": ("count", "lower"),
    "pieces": ("count", "lower"),
    "pivots": ("count", "lower"),
    "tableau_mb_max": ("MB", "lower"),
    "bytes_moved_gb": ("GB", "lower"),
    "hits": ("count", "higher"),
    "edges": ("count", "lower"),
}
_MAX_KINDS = {"tableau_mb_max"}


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, attr, extra, _ in LAYERS:
        name = layer_name(module, attr)
        kinds = (() if name in _NO_CALLS else ("calls",)) + ("self_s",) + extra
        out.extend((f"{name}.{kind}", *UNITS[kind]) for kind in kinds)
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, None)
                raise
            t1 = perf_counter()
            stack.pop()
            spans[idx] = (name, parent, t0, t1, counter(args, kwargs, result) if counter else None)
            return result

        return wrapper

    def install(self, package: str = "roughbody") -> None:
        namespaces = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module, attr, _, counter in LAYERS:
            owner = sys.modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(layer_name(module, attr), original, counter))
                self._patched.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer_name(module, attr), original, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def take(self) -> list:
        """Spans recorded since the last call, which starts a fresh record."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_totals(spans: list) -> dict[str, float]:
    """Per-layer metrics of one round's spans: calls, self time and counts."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = {}
    for i, (name, parent, t0, t1, counts) in enumerate(spans):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (t1 - t0 - child[i])
        for kind, value in (counts or {}).items():
            key = f"{name}.{kind}"
            out[key] = max(out.get(key, 0.0), value) if kind in _MAX_KINDS else out.get(key, 0) + value
    return out


def write_spans(spans: list, path) -> None:
    """The span tree of one traced round as JSON (times relative to its first span)."""
    origin = spans[0][2] if spans else 0.0
    rows = [
        {"layer": n, "parent": p, "start_s": t0 - origin, "end_s": t1 - origin, "counts": c or {}}
        for n, p, t0, t1, c in spans
    ]
    with open(path, "w") as fh:
        json.dump(rows, fh)
