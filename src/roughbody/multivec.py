"""Exterior algebra over R^n for n <= 3: the basis of Lambda_k R^n and its products.

k-vectors and k-covectors are plain coefficient arrays over the standard
basis of Lambda_k R^n, indexed by sorted k-tuples of axes; this module
holds that indexing, the signs of their wedge and the contraction of
such arrays.  Every sign of e_I ^ e_J comes from one cached table,
wedge_table(n, k, r); the contraction here, like the exterior
derivative, wedge and interior product of form fields, is a
contraction against its dense form, wedge_tensor.
The k-vectors of simplices are computed a whole degree at a time by
mesh.kvectors.  For n <= 3 every k-vector is simple, so the mass norm
of a k-vector and the comass of a k-covector both reduce to the Euclidean
norm of the coefficient array; that fact is relied on throughout the
package.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np


@lru_cache(maxsize=None)
def basis_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Sorted axis tuples indexing the standard basis of Lambda_k R^n."""
    if k < 0 or k > n:
        return ()
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def basis_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {t: i for i, t in enumerate(basis_tuples(n, k))}


def dim(n: int, k: int) -> int:
    return len(basis_tuples(n, k))


def merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign and sorted tuple for e_a ^ e_b; sign 0 if the tuples share an axis."""
    if set(a) & set(b):
        return 0, ()
    merged = a + b
    # parity of the permutation sorting the concatenation
    sign = 1
    items = list(merged)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign, tuple(sorted(merged))


@lru_cache(maxsize=None)
def wedge_table(n: int, k: int, r: int):
    """List of (i, j, out, sign) entries describing Lambda_k x Lambda_r -> Lambda_{k+r}.

    e_I ^ e_J = sign e_out for the i-th k-tuple I and the j-th r-tuple J
    sharing no axis; rows run over i, then j.
    """
    out_index = basis_index(n, k + r)
    table = []
    for i, a in enumerate(basis_tuples(n, k)):
        for j, b in enumerate(basis_tuples(n, r)):
            sign, merged = merge_sign(a, b)
            if sign != 0:
                table.append((i, j, out_index[merged], sign))
    return table


@lru_cache(maxsize=None)
def wedge_tensor(n: int, k: int, r: int) -> np.ndarray:
    """wedge_table(n, k, r) as a read-only (dim(n, k), dim(n, r), dim(n, k + r)) array of signs."""
    T = np.zeros((dim(n, k), dim(n, r), dim(n, k + r)))
    for i, j, o, s in wedge_table(n, k, r):
        T[i, j, o] = s
    T.flags.writeable = False
    return T


def contract(cov: np.ndarray, k: int, vec: np.ndarray, r: int, n: int) -> np.ndarray:
    """Interior product phi -| xi: the (r-k)-vector with <psi, phi-|xi> = <phi^psi, xi>."""
    if k > r:
        raise ValueError("contraction degree exceeds vector degree")
    return np.einsum("i,o,ijo->j", cov, vec, wedge_tensor(n, k, r - k))
