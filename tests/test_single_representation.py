"""Coefficients and polynomials each have one representation inside the library.

Chain and cochain coefficients are the idx and val arrays.  The `coeffs`
dict view exists for callers outside the package; a module under
roughbody that reads it, or that calls a private `_arrays()` accessor,
brings back the second representation.  Form fields and current densities
are coefficient arrays over roughbody.poly's monomial tables; the dict
`Poly` and its `compose_affine` live only in tests/reference_poly.py.
There is one half-space splitter: mesh.py's `_cut_vertices` and
`_split_ids`, which no other module of the library names.
"""

import ast
import re
from pathlib import Path

import roughbody

_FORBIDDEN = re.compile(r"\.coeffs\b|\b_arrays\(")


def test_no_module_reads_the_dict_view():
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(Path(roughbody.__file__).parent.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _FORBIDDEN.search(line)
    ]
    assert not hits, "read the idx/val arrays instead:\n" + "\n".join(hits)


def test_no_module_uses_the_dict_polynomial():
    hits = []
    for path in sorted(Path(roughbody.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "Poly":
                hits.append(f"{path.name}:{node.lineno}: defines Poly")
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name.split(".")[-1] == "Poly" for alias in node.names
            ):
                hits.append(f"{path.name}:{node.lineno}: imports Poly")
            elif isinstance(node, ast.Call) and "compose_affine" in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None),
            ):
                hits.append(f"{path.name}:{node.lineno}: calls compose_affine")
    assert not hits, "use the coefficient arrays of roughbody.poly:\n" + "\n".join(hits)


def test_one_half_space_splitter():
    names = re.compile(r"\b(_split_ids|_cut_vertices)\b")
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(Path(roughbody.__file__).parent.rglob("*.py"))
        if path.name != "mesh.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if names.search(line)
    ]
    assert not hits, "cut through mesh.refine_by_halfspace instead:\n" + "\n".join(hits)
