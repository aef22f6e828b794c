"""Coefficients have one representation inside the library: the idx and val arrays.

The `coeffs` dict view exists for callers outside the package; a module
under roughbody that reads it, or that calls a private `_arrays()`
accessor, brings back the second representation.
"""

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
