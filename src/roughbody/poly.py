"""Polynomials as coefficient arrays over fixed monomial tables, integrated exactly over simplices.

A polynomial in n <= 3 variables is an array of coefficients over
`monomials(n, degree)`: graded, and within a degree the sorted axis tuples
of combinations_with_replacement, so a lower degree's table is a prefix of
a higher one's and the first 1 + n monomials are 1, x_0, ..., x_(n-1).
Form fields store degree FORM_DEGREE; products reach twice that and are
integrated, never stored.  Every operation contracts against one small
cached table: `product_matrix` multiplies, `derivative_tensor`
differentiates, `substitution` (built from products) changes variables
affinely and `powers` evaluates at points.  `integrate_over_simplex`
substitutes barycentric coordinates and integrates each barycentric
monomial by the Dirichlet formula, so integrals are exact, not quadrature.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, prod

import numpy as np

from .errors import DegreeOverflow

FORM_DEGREE = 2  # coefficients of stored form fields and current densities


@lru_cache(maxsize=None)
def monomials(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Monomials of total degree <= degree in n variables, each as its sorted tuple of axes."""
    return tuple(m for p in range(degree + 1) for m in combinations_with_replacement(range(n), p))


def size(n: int, degree: int) -> int:
    return len(monomials(n, degree))


# (variables, table size) -> degree, for the tables a product of two stored degrees reaches
_DEGREE = {(n, size(n, d)): d for n in range(1, 5) for d in range(2 * FORM_DEGREE + 1)}


@lru_cache(maxsize=None)
def _chain(n: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Per monomial after the first, the index of the monomial without its last axis, and that axis."""
    index = {m: i for i, m in enumerate(monomials(n, degree))}
    rest = monomials(n, degree)[1:]
    return np.array([0] + [index[m[:-1]] for m in rest]), np.array([0] + [m[-1] for m in rest])


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def product_matrix(n: int, da: int, db: int) -> np.ndarray:
    """(size(n, da) * size(n, db), size(n, da + db)): row a * size(n, db) + b is 1 at x^a x^b."""
    A, B = monomials(n, da), monomials(n, db)
    index = {m: i for i, m in enumerate(monomials(n, da + db))}
    P = np.zeros((len(A) * len(B), len(index)))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            P[i * len(B) + j, index[tuple(sorted(a + b))]] = 1.0
    return _readonly(P)


def multiply(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of the products a * b, broadcast over the leading axes."""
    P = product_matrix(n, _DEGREE[n, a.shape[-1]], _DEGREE[n, b.shape[-1]])
    outer = a[..., :, None] * b[..., None, :]
    return np.einsum("...q,qc->...c", outer.reshape(outer.shape[:-2] + (len(P),)), P)


@lru_cache(maxsize=None)
def derivative_tensor(n: int, degree: int) -> np.ndarray:
    """(n, size, size): D[d] maps coefficients to those of the derivative along x_d."""
    mons = monomials(n, degree)
    index = {m: i for i, m in enumerate(mons)}
    D = np.zeros((n, len(mons), len(mons)))
    for a, m in enumerate(mons):
        for d in set(m):
            rest = list(m)
            rest.remove(d)
            D[d, a, index[tuple(rest)]] = m.count(d)
    return _readonly(D)


def powers(x: np.ndarray, degree: int) -> np.ndarray:
    """Values of every monomial of `monomials(n, degree)` at the points x (..., n)."""
    n = x.shape[-1]
    parent, axis = _chain(n, degree)
    out = np.empty(x.shape[:-1] + (size(n, degree),))
    out[..., 0] = 1.0
    for p in range(1, degree + 1):
        s = slice(size(n, p - 1), size(n, p))
        out[..., s] = out[..., parent[s]] * x[..., axis[s]]
    return out


def substitution(L: np.ndarray, degree: int) -> np.ndarray:
    """Matrices of the substitutions x_d = L[t, d, 0] + sum_i L[t, d, 1 + i] y_i.

    L is (t, nx, 1 + ny); the result S (t, size(nx, degree), size(ny, degree))
    maps a polynomial's coefficients c in x to c @ S in y.  Row x^m is the
    row of x^m without its last axis times that axis's affine row.
    """
    t, nx, w = L.shape
    ny = w - 1
    parent, axis = _chain(nx, degree)
    S = np.zeros((t, size(nx, degree), size(ny, degree)))
    S[:, 0, 0] = 1.0
    for p in range(1, degree + 1):
        s = slice(size(nx, p - 1), size(nx, p))
        S[:, s, : size(ny, p)] = multiply(S[:, parent[s], : size(ny, p - 1)], L[:, axis[s]], ny)
    return S


def trim(coef: np.ndarray, n: int) -> np.ndarray:
    """coef cut to the lowest degree that keeps every nonzero coefficient."""
    live = np.flatnonzero(coef.reshape(-1, coef.shape[-1]).any(axis=0))
    if not live.size:
        return coef[..., :1]
    last = monomials(n, _DEGREE[n, coef.shape[-1]])[live[-1]]  # the tables are graded
    return coef[..., : size(n, len(last))]


def fit(coef: np.ndarray, n: int, degree: int = FORM_DEGREE) -> np.ndarray:
    """coef zero-padded to the table of `degree`, or cut to it; DegreeOverflow if that drops a nonzero."""
    have, want = coef.shape[-1], size(n, degree)
    if have <= want:
        out = np.zeros(coef.shape[:-1] + (want,))
        out[..., :have] = coef
        return out
    if coef[..., want:].any():
        raise DegreeOverflow(f"a polynomial of degree {_DEGREE[n, have]} exceeds the stored degree {degree}")
    return coef[..., :want]


@lru_cache(maxsize=None)
def _dirichlet(k: int, degree: int) -> np.ndarray:
    """Integrals over a unit-volume k-simplex of prod lambda_i^b_i, k! prod b_i! / (k + |b|)!, per monomial."""
    exps = [[m.count(i) for i in range(k + 1)] for m in monomials(k + 1, degree)]
    return _readonly(np.array([factorial(k) * prod(map(factorial, b)) / factorial(k + sum(b)) for b in exps]))


def integrate_over_simplex(coef: np.ndarray, coords: np.ndarray, volume: np.ndarray) -> np.ndarray:
    """Exact integrals of the polynomials coef (c, size(n, D)) over c simplices.

    coords (c, k + 1, n) holds each simplex's vertex rows and volume its
    k-volume.  Substituting x = sum_i lambda_i coords[i] gives each
    monomial's barycentric expansion, and the Dirichlet formula its
    moment; every integral is one contraction against the moments.
    """
    c, v, n = coords.shape
    degree = _DEGREE[n, coef.shape[-1]]
    L = np.concatenate([np.zeros((c, n, 1)), coords.transpose(0, 2, 1)], axis=2)
    moments = np.einsum("cmb,b->cm", substitution(L, degree), _dirichlet(v - 1, degree))
    return volume * np.einsum("cm,cm->c", coef, moments)
