"""Polyhedral k-chains over a complex.

A chain is a sparse real-coefficient combination of oriented simplices of
one degree on one complex.  Cross-complex arithmetic is rejected; build an
explicit common refinement first (rough-bodies provides one).
"""

from __future__ import annotations

import numpy as np

from .errors import AmbientTooSmall, ComplexMismatch, DegreeMismatch, DegreeZero
from .mesh import Complex, HalfSpace, Refinement, refine_by_halfspace, side_of_simplices

ZERO_DROP = 0.0  # exact-zero coefficients are never stored


class Chain:
    """Sparse chain: simplex index -> real coefficient, zeros dropped."""

    __slots__ = ("complex", "degree", "coeffs")

    def __init__(self, cx: Complex, degree: int, coeffs: dict[int, float] | None = None):
        if degree < 0 or degree > cx.top_degree:
            raise DegreeMismatch(f"degree {degree} not carried by the complex")
        self.complex = cx
        self.degree = degree
        self.coeffs = {int(i): float(a) for i, a in (coeffs or {}).items() if a != ZERO_DROP}
        nmax = cx.n_simplices(degree)
        if any(i < 0 or i >= nmax for i in self.coeffs):
            raise AmbientTooSmall("chain references simplices outside its complex")

    # -- linear structure ------------------------------------------------

    def _check_compatible(self, other: "Chain") -> None:
        if self.complex is not other.complex:
            raise ComplexMismatch("chains live on different complexes")
        if self.degree != other.degree:
            raise DegreeMismatch("chains have different degrees")

    def __add__(self, other: "Chain") -> "Chain":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for i, a in other.coeffs.items():
            v = out.get(i, 0.0) + a
            if v == 0.0:
                out.pop(i, None)
            else:
                out[i] = v
        return Chain(self.complex, self.degree, out)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + other.scale(-1.0)

    def scale(self, a: float) -> "Chain":
        if a == 0.0:
            return Chain(self.complex, self.degree, {})
        return Chain(self.complex, self.degree, {i: a * v for i, v in self.coeffs.items()})

    def __mul__(self, a: float) -> "Chain":
        return self.scale(a)

    __rmul__ = __mul__

    def __neg__(self) -> "Chain":
        return self.scale(-1.0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    # -- geometry ----------------------------------------------------------

    def boundary(self) -> "Chain":
        if self.degree == 0:
            raise DegreeZero("0-chains have no boundary")
        out: dict[int, float] = {}
        faces, signs = self.complex.incidence_arrays(self.degree)
        idx = np.fromiter(self.coeffs, dtype=np.intp, count=len(self.coeffs))
        terms = signs[idx] * np.fromiter(self.coeffs.values(), dtype=float, count=len(idx))[:, None]
        for fidx, t in zip(faces[idx].ravel().tolist(), terms.ravel().tolist()):
            v = out.get(fidx, 0.0) + t
            if v == 0.0:
                out.pop(fidx, None)
            else:
                out[fidx] = v
        return Chain(self.complex, self.degree - 1, out)

    def mass(self) -> float:
        vols = self.complex.volumes(self.degree)
        return float(sum(abs(a) * vols[i] for i, a in self.coeffs.items()))

    def normal_norm(self) -> float:
        if self.degree == 0:
            raise DegreeZero("normal norm needs degree >= 1")
        return self.mass() + self.boundary().mass()

    def max_coefficient_diff(self, other: "Chain") -> float:
        self._check_compatible(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return max((abs(self.coeffs.get(i, 0.0) - other.coeffs.get(i, 0.0)) for i in keys), default=0.0)


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


def restrict_with_refinement(
    chain: Chain, hs: HalfSpace, complement: bool = False
) -> tuple[Chain, Refinement]:
    """Exact restriction of a chain to a half space, with the refinement used.

    The closed side {lam.x >= s} keeps pieces lying inside the cut
    hyperplane; the complement is the open side, so the two restrictions
    are disjointly additive.
    """
    ref = refine_by_halfspace(chain.complex, hs)
    carried = ref.carry_chain(chain)
    sides = side_of_simplices(ref.complex, chain.degree, hs)
    want = -1 if complement else 1
    kept = {i: a for i, a in carried.coeffs.items() if sides[i] == want}
    return Chain(ref.complex, chain.degree, kept), ref


def restrict(chain: Chain, hs: HalfSpace, complement: bool = False) -> Chain:
    """Restriction of a chain to a (closed) half space, on a refined complex."""
    return restrict_with_refinement(chain, hs, complement)[0]


def restriction_defect(chain: Chain, hs: HalfSpace) -> float:
    """Mass of (boundary(A) restricted to H) - boundary(A restricted to H).

    This is the term whose integral over the threshold reproduces mass(A);
    it is finite except at thresholds passing through vertices.
    """
    if chain.degree == 0:
        raise DegreeZero("restriction defect needs degree >= 1")
    ref = refine_by_halfspace(chain.complex, hs)
    carried = ref.carry_chain(chain)
    carried_bnd = ref.carry_chain(chain.boundary())
    sides_k = side_of_simplices(ref.complex, chain.degree, hs)
    sides_f = side_of_simplices(ref.complex, chain.degree - 1, hs)
    restricted = Chain(
        ref.complex, chain.degree, {i: a for i, a in carried.coeffs.items() if sides_k[i] == 1}
    )
    bnd_restricted = Chain(
        ref.complex,
        chain.degree - 1,
        {i: a for i, a in carried_bnd.coeffs.items() if sides_f[i] == 1},
    )
    return (bnd_restricted - restricted.boundary()).mass()


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
