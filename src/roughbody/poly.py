"""Small multivariate polynomials with exact integration over simplices.

Everything the package integrates is a polynomial of low total degree
(piecewise-linear fields and their products), so integrals are evaluated
in closed form through barycentric monomial formulas instead of
quadrature rules.
"""

from __future__ import annotations

from math import factorial

import numpy as np

Monomial = tuple[int, ...]


class Poly:
    """Polynomial in n variables stored as {exponent tuple: coefficient}."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Monomial, float] | None = None):
        self.n = n
        self.terms: dict[Monomial, float] = {}
        if terms:
            for m, c in terms.items():
                if c != 0.0:
                    self.terms[m] = self.terms.get(m, 0.0) + c

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c: float) -> "Poly":
        return cls(n, {(0,) * n: float(c)})

    @classmethod
    def affine(cls, n: int, lin: np.ndarray, const: float) -> "Poly":
        """c + lin . x"""
        terms: dict[Monomial, float] = {(0,) * n: float(const)}
        for d in range(n):
            if lin[d] != 0.0:
                m = tuple(1 if e == d else 0 for e in range(n))
                terms[m] = float(lin[d])
        return cls(n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return Poly(self.n, out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) - c
        return Poly(self.n, out)

    def __neg__(self) -> "Poly":
        return Poly(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, a: float) -> "Poly":
        if a == 0.0:
            return Poly.zero(self.n)
        return Poly(self.n, {m: a * c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, float] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                out[m] = out.get(m, 0.0) + ca * cb
        return Poly(self.n, out)

    def diff(self, d: int) -> "Poly":
        out: dict[Monomial, float] = {}
        for m, c in self.terms.items():
            if m[d] > 0:
                md = list(m)
                md[d] -= 1
                out[tuple(md)] = out.get(tuple(md), 0.0) + c * m[d]
        return Poly(self.n, out)

    def __call__(self, x: np.ndarray) -> float:
        acc = 0.0
        for m, c in self.terms.items():
            v = c
            for d, e in enumerate(m):
                if e:
                    v *= x[d] ** e
            acc += v
        return acc

    def compose_affine(self, M: np.ndarray, c: np.ndarray) -> "Poly":
        """Substitute x = c + M y, returning a polynomial in y (M is n x ny)."""
        ny = M.shape[1]
        subs = [Poly.affine(ny, M[d, :], c[d]) for d in range(self.n)]
        out = Poly.zero(ny)
        for m, coeff in self.terms.items():
            term = Poly.constant(ny, coeff)
            for d, e in enumerate(m):
                for _ in range(e):
                    term = term * subs[d]
            out = out + term
        return out


def _bary_monomial_integral(beta: tuple[int, ...], k: int) -> float:
    """Integral over a unit-volume k-simplex of prod lambda_i^beta_i."""
    num = factorial(k)
    for b in beta:
        num *= factorial(b)
    return num / factorial(k + sum(beta))


def integrate_over_simplex(p: Poly, coords: np.ndarray, volume: float) -> float:
    """Exact integral of p over the simplex with vertex rows `coords`.

    The polynomial is expanded in barycentric coordinates; the Dirichlet
    formula then integrates each barycentric monomial exactly.
    """
    k = coords.shape[0] - 1
    # lambda-polynomials: x_d = sum_i lambda_i * coords[i, d]
    out: dict[tuple[int, ...], float] = {}
    zero = (0,) * (k + 1)
    for m, c in p.terms.items():
        expansion: dict[tuple[int, ...], float] = {zero: c}
        for d, e in enumerate(m):
            for _ in range(e):
                nxt: dict[tuple[int, ...], float] = {}
                for bet, cc in expansion.items():
                    for i in range(k + 1):
                        vid = coords[i, d]
                        if vid == 0.0:
                            continue
                        nb = list(bet)
                        nb[i] += 1
                        key = tuple(nb)
                        nxt[key] = nxt.get(key, 0.0) + cc * vid
                expansion = nxt
        for bet, cc in expansion.items():
            out[bet] = out.get(bet, 0.0) + cc
    total = 0.0
    for bet, cc in out.items():
        total += cc * _bary_monomial_integral(bet, k)
    return total * volume
