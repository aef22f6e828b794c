"""Polyhedral k-chains and the sparse coefficient class they share with cochains.

A chain is a sparse real-coefficient combination of oriented simplices of
one degree on one complex; a cochain (forms.Cochain) stores coefficients the
same way.  Both are _Coefficients: the linear structure, the dense vector
over all k-simplices and one scatter-add, from_terms, through which every
linear map between coefficient vectors goes (the boundary, sums,
refinement carries, pushforwards and materialized currents).  Keys are
kept in ascending index order, so A + B and B + A agree bitwise.
Cross-complex arithmetic is rejected; build an explicit common refinement
first (rough-bodies provides one).
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import AmbientTooSmall, ComplexMismatch, DegreeMismatch, DegreeZero
from .mesh import Complex, HalfSpace, Refinement, refine_by_halfspace, side_of_simplices

ZERO_DROP = 0.0  # exact-zero coefficients are never stored


class _Coefficients:
    """Sparse finite coefficients on the k-simplices of one complex: index -> value, zeros dropped, keys ascending."""

    __slots__ = ("complex", "degree", "coeffs")

    def __init__(self, cx: Complex, degree: int, coeffs: dict[int, float] | None = None):
        if degree < 0 or degree > cx.top_degree:
            raise DegreeMismatch(f"degree {degree} not carried by the complex")
        self.complex = cx
        self.degree = degree
        self.coeffs = {int(i): float(a) for i, a in sorted((coeffs or {}).items()) if a != ZERO_DROP}
        nmax = cx.n_simplices(degree)
        if any(i < 0 or i >= nmax for i in self.coeffs):
            raise AmbientTooSmall(f"{type(self).__name__.lower()} references simplices outside its complex")
        if not all(map(isfinite, self.coeffs.values())):
            i = next(i for i, a in self.coeffs.items() if not isfinite(a))
            raise ValueError(f"coefficient of simplex {i} is not finite: {self.coeffs[i]}")

    @classmethod
    def from_terms(cls, cx: Complex, k: int, keys, values):
        """The sum of the terms values[j] on the simplices keys[j].

        Each key's terms are added in the order given, starting from 0.0
        (np.bincount), and exact-zero sums are dropped.
        """
        keys = np.asarray(keys, dtype=np.intp).ravel()
        unique, which = np.unique(keys, return_inverse=True)
        sums = np.bincount(which, weights=np.asarray(values, dtype=float).ravel(), minlength=len(unique))
        live = sums != 0.0
        return cls(cx, k, dict(zip(unique[live].tolist(), sums[live].tolist())))

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Keys (ascending) and values as arrays."""
        n = len(self.coeffs)
        return np.fromiter(self.coeffs, np.intp, n), np.fromiter(self.coeffs.values(), float, n)

    def vector(self) -> np.ndarray:
        """Dense coefficients over all k-simplices of the complex."""
        v = np.zeros(self.complex.n_simplices(self.degree))
        idx, vals = self._arrays()
        v[idx] = vals
        return v

    # -- linear structure ------------------------------------------------

    def _check_compatible(self, other: "_Coefficients") -> None:
        if self.complex is not other.complex:
            raise ComplexMismatch(f"{type(self).__name__.lower()}s live on different complexes")
        if self.degree != other.degree:
            raise DegreeMismatch(f"{type(self).__name__.lower()}s have different degrees")

    def __add__(self, other):
        self._check_compatible(other)
        keys, values = zip(self._arrays(), other._arrays())
        return self.from_terms(self.complex, self.degree, np.concatenate(keys), np.concatenate(values))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, a: float):
        return type(self)(self.complex, self.degree, {i: a * v for i, v in self.coeffs.items()})

    def __mul__(self, a: float):
        return self.scale(a)

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1.0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_coefficient_diff(self, other) -> float:
        self._check_compatible(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return max((abs(self.coeffs.get(i, 0.0) - other.coeffs.get(i, 0.0)) for i in keys), default=0.0)


class Chain(_Coefficients):
    """Sparse chain: simplex index -> real coefficient, zeros dropped."""

    __slots__ = ()

    def boundary(self) -> "Chain":
        if self.degree == 0:
            raise DegreeZero("0-chains have no boundary")
        faces, signs = self.complex.incidence_arrays(self.degree)
        idx, vals = self._arrays()
        return Chain.from_terms(self.complex, self.degree - 1, faces[idx], signs[idx] * vals[:, None])

    def mass(self) -> float:
        vols = self.complex.volumes(self.degree)
        return float(sum(abs(a) * vols[i] for i, a in self.coeffs.items()))

    def normal_norm(self) -> float:
        if self.degree == 0:
            raise DegreeZero("normal norm needs degree >= 1")
        return self.mass() + self.boundary().mass()


def elementary(cx: Complex, degree: int, idx: int, coeff: float = 1.0) -> Chain:
    return Chain(cx, degree, {idx: coeff})


def add(a: Chain, b: Chain) -> Chain:
    return a + b


def scale(a: float, chain: Chain) -> Chain:
    return chain.scale(a)


def boundary(chain: Chain) -> Chain:
    return chain.boundary()


def mass(chain: Chain) -> float:
    return chain.mass()


def normal_norm(chain: Chain) -> float:
    return chain.normal_norm()


def _one_side(ref: Refinement, chain: Chain, hs: HalfSpace, complement: bool = False) -> Chain:
    """The chain carried to the refinement, keeping only the pieces on one side of hs."""
    carried = ref.carry_chain(chain)
    sides = side_of_simplices(ref.complex, chain.degree, hs)
    want = -1 if complement else 1
    return Chain(ref.complex, chain.degree, {i: a for i, a in carried.coeffs.items() if sides[i] == want})


def restrict(chain: Chain, hs: HalfSpace, complement: bool = False) -> Chain:
    """Exact restriction of a chain to a half space, on a refined complex.

    The closed side {lam.x >= s} keeps pieces lying inside the cut
    hyperplane; the complement is the open side, so the two restrictions
    are disjointly additive.
    """
    return _one_side(refine_by_halfspace(chain.complex, hs), chain, hs, complement)


def restriction_defect(chain: Chain, hs: HalfSpace) -> float:
    """Mass of (boundary(A) restricted to H) - boundary(A restricted to H).

    This is the term whose integral over the threshold reproduces mass(A);
    it is finite except at thresholds passing through vertices.
    """
    if chain.degree == 0:
        raise DegreeZero("restriction defect needs degree >= 1")
    ref = refine_by_halfspace(chain.complex, hs)
    return (_one_side(ref, chain.boundary(), hs) - _one_side(ref, chain, hs).boundary()).mass()


def defect_integral(
    chain: Chain, hs_direction: np.ndarray, lo: float, hi: float, samples: int
) -> float:
    """Midpoint-rule integral of the restriction defect over thresholds.

    `hs_direction` should be a unit covector so the threshold parametrizes
    arc length; the integral then reproduces mass(chain) over a sweep
    covering the support.
    """
    total = 0.0
    width = (hi - lo) / samples
    for j in range(samples):
        s = lo + (j + 0.5) * width
        total += restriction_defect(chain, HalfSpace(tuple(hs_direction), s)) * width
    return total
