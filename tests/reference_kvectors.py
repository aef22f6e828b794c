"""One-simplex-at-a-time reference for simplex k-vectors (test-only).

`simple_from_columns` takes every k x k minor of an edge matrix by its own
determinant, the way the library did before `mesh.kvectors` computed whole
degrees at once (with explicit 2 x 2 products for triangles in R^3).  The
tests require `kvectors` to agree with it to rounding.
"""

from __future__ import annotations

import numpy as np

from roughbody.multivec import basis_tuples


def simple_from_columns(E: np.ndarray) -> np.ndarray:
    """Components of v_1 ^ ... ^ v_k for the columns of an (n, k) matrix."""
    n, k = E.shape
    return np.array([np.linalg.det(E[list(rows), :]) if k > 0 else 1.0 for rows in basis_tuples(n, k)])
