"""Polyhedral k-chains and the sparse coefficient class they share with cochains.

A chain is a sparse real-coefficient combination of oriented simplices of
one degree on one complex; a cochain (forms.Cochain) stores coefficients the
same way.  Both are _Coefficients: two read-only arrays, idx (the simplex
indices, strictly ascending, so A + B and B + A agree bitwise) and val
(finite, nonzero), and one scatter-add, from_terms, through which every
linear map between coefficient vectors goes (the boundary, sums, refinement
carries, pushforwards and materialized currents).  A carry gathers only the
pieces of the chain's own simplices, so its cost follows the support.  The
`coeffs` property is a fresh {index: value} dict, a read-only view kept for
callers outside the library.  Cross-complex arithmetic is rejected; build
an explicit common refinement first (rough-bodies provides one).
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import AmbientTooSmall, ComplexMismatch, DegreeMismatch, DegreeZero
from .mesh import Complex, HalfSpace, Refinement, refine_by_halfspace, side_of_simplices


def running_sum(terms: np.ndarray) -> float:
    """The terms added left to right from 0.0, the order of Python's sum, on any thread count."""
    return float(np.concatenate(([0.0], terms)).cumsum()[-1])


def _summed(keys, values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and their nonzero sums (see from_terms).

    Strictly ascending keys have one value each and skip the sort.
    """
    keys, sums = np.asarray(keys, dtype=np.intp).ravel(), np.asarray(values, dtype=float).ravel()
    if (keys[1:] <= keys[:-1]).any():
        keys, which = np.unique(keys, return_inverse=True)
        sums = np.bincount(which, weights=sums, minlength=len(keys))
    live = sums != 0.0
    keys = keys[live]
    return keys, sums[live]


class _Coefficients:
    """Sparse finite coefficients on the k-simplices of one complex: idx ascending, val nonzero, both read-only."""

    __slots__ = ("complex", "degree", "idx", "val")

    def __init__(self, cx: Complex, degree: int, coeffs: dict[int, float] | None = None):
        """From an {index: value} dict with integer keys (Python or numpy); zero values are dropped."""
        coeffs = coeffs or {}
        try:
            keys = np.fromiter(map(operator.index, coeffs), np.intp, len(coeffs))
        except TypeError:
            bad = next(i for i in coeffs if not hasattr(i, "__index__"))
            raise ValueError(f"simplex index {bad!r} is not an integer") from None
        self._set(cx, degree, *_summed(keys, np.fromiter(coeffs.values(), float, len(coeffs))))

    def _set(self, cx: Complex, degree: int, idx: np.ndarray, val: np.ndarray):
        """Store idx (strictly ascending) and val (nonzero) once the degree, range and values check out."""
        if degree < 0 or degree > cx.top_degree:
            raise DegreeMismatch(f"degree {degree} not carried by the complex")
        if len(idx) and (idx[0] < 0 or idx[-1] >= cx.n_simplices(degree)):
            raise AmbientTooSmall(f"{type(self).__name__.lower()} references simplices outside its complex")
        if not np.isfinite(val).all():
            j = np.flatnonzero(~np.isfinite(val))[0]
            raise ValueError(f"coefficient of simplex {idx[j]} is not finite: {val[j]}")
        idx.flags.writeable = val.flags.writeable = False
        self.complex, self.degree, self.idx, self.val = cx, degree, idx, val
        return self

    @classmethod
    def _of(cls, cx: Complex, degree: int, idx: np.ndarray, val: np.ndarray):
        return cls.__new__(cls)._set(cx, degree, idx, val)

    @classmethod
    def from_terms(cls, cx: Complex, k: int, keys, values):
        """The sum of the terms values[j] on the simplices keys[j].

        Each key's terms are added in the order given, starting from 0.0
        (np.bincount), and exact-zero sums are dropped.
        """
        return cls._of(cx, k, *_summed(keys, values))

    @property
    def coeffs(self) -> dict[int, float]:
        """A fresh {index: value} dict in ascending index order, for callers outside the library."""
        return dict(zip(self.idx.tolist(), self.val.tolist()))

    def vector(self) -> np.ndarray:
        """Dense coefficients over all k-simplices of the complex."""
        v = np.zeros(self.complex.n_simplices(self.degree))
        v[self.idx] = self.val
        return v

    def select(self, keep: np.ndarray):
        """The coefficients at the entries where the mask keep (one per stored index) holds."""
        return self._of(self.complex, self.degree, self.idx[keep], self.val[keep])

    # -- linear structure ------------------------------------------------

    def _check_compatible(self, other: "_Coefficients") -> None:
        if self.complex is not other.complex:
            raise ComplexMismatch(f"{type(self).__name__.lower()}s live on different complexes")
        if self.degree != other.degree:
            raise DegreeMismatch(f"{type(self).__name__.lower()}s have different degrees")

    def __add__(self, other):
        self._check_compatible(other)
        keys, values = np.concatenate([self.idx, other.idx]), np.concatenate([self.val, other.val])
        return self.from_terms(self.complex, self.degree, keys, values)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, a: float):
        val = self.val * float(a)
        live = val != 0.0
        return self._of(self.complex, self.degree, self.idx if live.all() else self.idx[live], val[live])

    def __mul__(self, a: float):
        return self.scale(a)

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1.0)

    def is_zero(self) -> bool:
        return not len(self.idx)

    def max_coefficient_diff(self, other) -> float:
        self._check_compatible(other)
        return float(np.abs(self.vector() - other.vector()).max(initial=0.0))


class Chain(_Coefficients):
    """Sparse chain: real coefficients on ascending simplex indices, zeros dropped."""

    __slots__ = ()

    def boundary(self) -> "Chain":
        if self.degree == 0:
            raise DegreeZero("0-chains have no boundary")
        faces, signs = self.complex.incidence_arrays(self.degree)
        terms = signs[self.idx] * self.val[:, None]
        return Chain.from_terms(self.complex, self.degree - 1, faces[self.idx], terms)

    def mass(self) -> float:
        return running_sum(np.abs(self.val) * self.complex.volumes(self.degree)[self.idx])

    def normal_norm(self) -> float:
        if self.degree == 0:
            raise DegreeZero("normal norm needs degree >= 1")
        return self.mass() + self.boundary().mass()


def elementary(cx: Complex, degree: int, idx: int, coeff: float = 1.0) -> Chain:
    return Chain(cx, degree, {idx: coeff})


def _one_side(ref: Refinement, chain: Chain, hs: HalfSpace, complement: bool = False) -> Chain:
    """The chain carried to the refinement, keeping only the pieces on one side of hs."""
    carried = ref.carry_chain(chain)
    sides = side_of_simplices(ref.complex, chain.degree, hs)
    return carried.select(sides[carried.idx] == (-1 if complement else 1))


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
