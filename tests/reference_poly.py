"""Dict polynomials with exact integration over simplices (test-only oracle).

This is the polynomial class the forms layer stored its fields in before
form fields became coefficient arrays over fixed monomial tables
(roughbody.poly): a {exponent tuple: coefficient} dict with term-by-term
arithmetic, one affine substitution (`Poly.compose_affine`) and
integration by substituting barycentric coordinates and the Dirichlet
formula.  The tests compare the array path against it.
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

    def compose_affine(self, M: np.ndarray, c) -> "Poly":
        """Substitute x = c + M y, returning a polynomial in y (M is n x ny, c has n entries).

        Each monomial is expanded one factor x_d = c_d + sum_i M[d, i] y_i at
        a time in a dict of y-exponents; zero entries of M and c add no term.
        """
        ny = M.shape[1]
        rows = M.tolist()
        shift = [float(x) for x in c]
        out: dict[Monomial, float] = {}
        zero = (0,) * ny
        for m, coeff in self.terms.items():
            expansion: dict[Monomial, float] = {zero: coeff}
            for d, e in enumerate(m):
                for _ in range(e):
                    nxt: dict[Monomial, float] = {}
                    for bet, cc in expansion.items():
                        if shift[d] != 0.0:
                            nxt[bet] = nxt.get(bet, 0.0) + cc * shift[d]
                        for i, mdi in enumerate(rows[d]):
                            if mdi == 0.0:
                                continue
                            nb = list(bet)
                            nb[i] += 1
                            key = tuple(nb)
                            nxt[key] = nxt.get(key, 0.0) + cc * mdi
                    expansion = nxt
            for bet, cc in expansion.items():
                out[bet] = out.get(bet, 0.0) + cc
        return Poly(ny, out)


def _bary_monomial_integral(beta: tuple[int, ...], k: int) -> float:
    """Integral over a unit-volume k-simplex of prod lambda_i^beta_i."""
    num = factorial(k)
    for b in beta:
        num *= factorial(b)
    return num / factorial(k + sum(beta))


def integrate_over_simplex(p: Poly, coords: np.ndarray, volume: float) -> float:
    """Exact integral of p over the simplex with vertex rows `coords`.

    Substituting x = sum_i lambda_i coords[i] expands p in barycentric
    coordinates; the Dirichlet formula then integrates each barycentric
    monomial exactly.
    """
    k = coords.shape[0] - 1
    total = 0.0
    for bet, cc in p.compose_affine(coords.T, [0.0] * p.n).terms.items():
        total += cc * _bary_monomial_integral(bet, k)
    return total * volume
