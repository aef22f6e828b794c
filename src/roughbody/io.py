"""JSON schemas for the on-disk formats.

Mesh:        {"dim": n, "vertices": [[x, ...]], "simplices": {"k": [[i, ...]]}}
Chain:       {"mesh": path, "degree": k, "coefficients": [[index, value]], "role"?: tag}
Cochain:     {"mesh": path, "degree": k, "coefficients": [[index, value]]}
Flux:        {"mesh": path, "degree": n-1, "components": [[[index, value]] per component], "s": s, "b": b}
PA map:      {"mesh": path, "images": [[y, ...] per vertex]}
Sharp field: {"mesh": path, "values": [per-vertex value]}   (vector: {"components": [...]})

Indices are 0-based; simplex orientation is the listed vertex order.
Chain, cochain and flux files share one coefficient reader: a degree that is
not an integer, an entry other than [integer index, numeric value], an index
out of range and an index listed twice in one coefficient list are schema
errors; a JSON boolean is not a number, nor a mesh dim or vertex id.
Coordinates, map images and field values are JSON numbers: a boolean, a
string or an object among them is a schema error.  A file whose top level
is not a JSON object is a schema error.  A flux is the tuple of its n
(n-1)-cochain components; any other degree or component count is a schema
error.  Its recorded s and b are written for the reader and not read back.
Mesh references are resolved relative to the referencing file.  A mesh
degree key is str(k); another spelling ("02", " 2", "+2") is a schema error,
so two keys never name one degree.  One encoder, dumps_report, writes
files and reports.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import numpy as np

from .chains import Chain
from .errors import SchemaViolation
from .forms import Cochain
from .maps import PAMap
from .mesh import Complex, build_complex
from .sharp import SharpField


def _fail(path, msg: str):
    raise SchemaViolation(f"{path}: {msg}")


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        _fail(path, "top-level JSON must be an object")
    return data


def _floats(value, shape: tuple, path, msg: str) -> np.ndarray:
    """value as a float array of the given shape (None: any length), or SchemaViolation(msg).

    The entries must be JSON numbers in nested lists: a boolean, a string
    or an object is not one.
    """
    rows = value if type(value) is list and set(map(type, value)) <= {list} else [value]
    if type(value) is list and set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        try:
            arr = np.array(value, dtype=float)
        except (ValueError, OverflowError):  # ragged rows, or an integer beyond any float
            _fail(path, msg)
        if arr.ndim == len(shape) and all(want in (None, got) for want, got in zip(shape, arr.shape)):
            return arr
    _fail(path, msg)


def load_mesh(path, check_overlap: bool = True) -> Complex:
    data = _load_json(path)
    for key in ("dim", "vertices", "simplices"):
        if key not in data:
            _fail(path, f"missing field '{key}'")
    if isinstance(data["dim"], bool) or data["dim"] not in (1, 2, 3):
        _fail(path, f"field 'dim' must be 1, 2 or 3, got {data['dim']}")
    msg = "field 'vertices' must list dim-length lists of numbers"
    verts = _floats(data["vertices"], (None, data["dim"]), path, msg)
    if not isinstance(data["simplices"], dict):
        _fail(path, "field 'simplices' must map degree strings to index lists")
    simplices = {}
    for key, lst in data["simplices"].items():
        if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
            _fail(path, f"simplex degree '{key}' is not an integer written as str(k)")
        k = int(key)
        if type(lst) is not list or not all(type(s) is list and all(type(v) is int for v in s) for s in lst):
            _fail(path, f"degree-{k} simplices must be lists of integer vertex ids")  # a boolean is not one
        simplices[k] = lst
    return build_complex(verts, simplices, check_overlap=check_overlap)


def save_mesh(cx: Complex, path) -> None:
    top = cx.top_degree
    data = {"dim": cx.dim, "vertices": cx.vertices.tolist(), "simplices": {str(top): cx.arrays[top].tolist()}}
    Path(path).write_text(dumps_report(data))


def _resolve_mesh(data, path, cache: dict | None = None) -> Complex:
    if "mesh" not in data:
        _fail(path, "missing field 'mesh'")
    mesh_path = Path(path).parent / data["mesh"]
    if cache is not None and str(mesh_path) in cache:
        return cache[str(mesh_path)]
    cx = load_mesh(mesh_path)
    if cache is not None:
        cache[str(mesh_path)] = cx
    return cx


def _integer(x) -> int:
    """x as an int; ValueError unless it is an integral number (a string or a boolean is not)."""
    if isinstance(x, (str, bool)) or int(x) != x:
        raise ValueError
    return int(x)


def _coefficients(entries, where, cx, degree) -> dict[int, float]:
    if not isinstance(entries, list):
        _fail(where, "coefficients must be a list of [index, value] entries")
    out = {}
    nmax = cx.n_simplices(degree)
    for entry in entries:
        try:
            index, value = entry
            idx = index if type(index) is int else _integer(index)
            if type(value) not in (float, int):
                raise ValueError
            val = float(value)
        except (TypeError, ValueError, OverflowError):
            _fail(where, f"coefficient entry {entry} is not [index, value]")
        if idx < 0 or idx >= nmax:
            _fail(where, f"coefficient index {idx} out of range for degree {degree}")
        if idx in out:
            _fail(where, f"coefficient index {idx} is listed twice")
        out[idx] = val
    return out


def _degree(data, path, field: str) -> int:
    """The degree of a coefficient file that lists its coefficients under `field`."""
    for key in ("degree", field):
        if key not in data:
            _fail(path, f"missing field '{key}'")
    try:
        return _integer(data["degree"])
    except (TypeError, ValueError, OverflowError):
        _fail(path, f"field 'degree' must be an integer, got {data['degree']!r}")


def _load_coefficients(path, mesh, cache, cls):
    """cls(complex, degree, coefficients) read from a chain or cochain file."""
    data = _load_json(path)
    cx = mesh if mesh is not None else _resolve_mesh(data, path, cache)
    k = _degree(data, path, "coefficients")
    return cls(cx, k, _coefficients(data["coefficients"], path, cx, k))


def coefficient_list(T: Chain | Cochain) -> list[list]:
    """[[index, value]] of a chain or cochain, by index."""
    return [[i, a] for i, a in zip(T.idx.tolist(), T.val.tolist())]


def load_chain(path, mesh: Complex | None = None) -> Chain:
    return _load_coefficients(path, mesh, None, Chain)


def save_chain(chain: Chain, path, mesh_path, role: str | None = None) -> None:
    data = {"mesh": str(mesh_path), "degree": chain.degree, "coefficients": coefficient_list(chain)}
    if role:
        data["role"] = role
    Path(path).write_text(dumps_report(data))


def load_cochain(path, mesh: Complex | None = None, cache: dict | None = None) -> Cochain:
    return _load_coefficients(path, mesh, cache, Cochain)


def save_cochain(cochain: Cochain, path, mesh_path) -> None:
    data = {"mesh": str(mesh_path), "degree": cochain.degree, "coefficients": coefficient_list(cochain)}
    Path(path).write_text(dumps_report(data))


def load_flux(path) -> tuple[Cochain, ...]:
    """The n (n-1)-cochain components of a flux file, all on its one mesh."""
    data = _load_json(path)
    cx = _resolve_mesh(data, path)
    k = _degree(data, path, "components")
    comps = data["components"]
    if k != cx.dim - 1 or not isinstance(comps, list) or len(comps) != cx.dim:
        _fail(path, f"a flux lists {cx.dim} components of degree {cx.dim - 1}")
    return tuple(Cochain(cx, k, _coefficients(c, f"{path} component {i}", cx, k)) for i, c in enumerate(comps))


def save_flux(cochains, path, mesh_path, s: float, b: float) -> None:
    """Write a flux's cochain components with its declared constants s and b."""
    components = [coefficient_list(X) for X in cochains]
    data = {"mesh": str(mesh_path), "degree": cochains[0].degree, "components": components, "s": s, "b": b}
    Path(path).write_text(dumps_report(data))


def mesh_reference(path) -> str:
    """The mesh path a chain, cochain or flux file records, as written."""
    data = _load_json(path)
    if "mesh" not in data:
        _fail(path, "missing field 'mesh'")
    return data["mesh"]


def load_pamap(path, mesh: Complex | None = None) -> PAMap:
    data = _load_json(path)
    cx = mesh if mesh is not None else _resolve_mesh(data, path)
    if "images" not in data:
        _fail(path, "missing field 'images'")
    nv = cx.vertices.shape[0]
    return PAMap(cx, _floats(data["images"], (nv, None), path, "field 'images' must list one point per mesh vertex"))


def load_sharp_field(path, mesh: Complex | None = None):
    """A scalar field, or a list of fields when 'components' is present."""
    data = _load_json(path)
    cx = mesh if mesh is not None else _resolve_mesh(data, path)
    nv = cx.vertices.shape[0]
    if "components" in data:
        rows = _floats(data["components"], (None, nv), path, "field 'components' must list one number per vertex each")
        return [SharpField(cx, row) for row in rows]
    if "values" not in data:
        _fail(path, "missing field 'values' (or 'components')")
    return SharpField(cx, _floats(data["values"], (nv,), path, "field 'values' must list one number per vertex"))


def dumps_report(data) -> str:
    """Deterministic JSON (sorted keys, repr floats): the one encoder of files and reports.

    The bytes of json.dumps(data, sort_keys=True, indent=1) plus a newline,
    numpy scalars and arrays written as the Python values they hold, joined
    from strings: with an indent, json.dumps runs its pure-Python encoder,
    which takes several times as long.
    """
    return _encode(data, "\n") + "\n"


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SCALARS = {  # by exact type; json.dumps writes other scalars (subclasses) and raises on the rest
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    np.int64: lambda x: int.__repr__(int(x)),
    float: lambda x: _FLOAT_WORDS.get((text := float.__repr__(x)), text),
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}
_SCALARS.update({np.float64: _SCALARS[float], np.bool_: _SCALARS[bool]})


def _key_text(key) -> str:
    if not isinstance(key, (str, int, float, type(None))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return key if isinstance(key, str) else json.dumps(key)


def _encode(obj, pad: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=1) writes it (numpy values as Python ones), indented by pad."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            raise TypeError("iteration over a 0-d array")
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if not obj or not isinstance(obj, (list, tuple, dict)):
        return json.dumps(obj)
    inner = pad + " "
    if isinstance(obj, dict):
        parts = [_SCALARS[str](_key_text(k)) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    parts = [f(v) if (f := _SCALARS.get(type(v))) else _encode(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(parts) + pad + "]"
