"""Sharp (piecewise-linear Lipschitz) scalar fields and chain products.

A sharp field is determined by vertex values; its gradient is constant on
each top simplex, and the gradients of all top simplices form one (m, n)
array, the vertex values contracted with the complex's barycentric
gradients.  The field's one piecewise-linear interpolant is `form`, the
Whitney realization of its vertex values (Whitney, Geometric Integration
Theory, 1957).  Multiplication with a chain is that 0-form contracted with
the chain by forms.interior_product, kept lazy as a density current and
materialized to a simplicial chain only when the flat-norm LP needs one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chains import Chain
from .errors import ComplexMismatch, DegreeZero
from .flatnorm import flat_norm
from .forms import Cochain, EvaluableCurrent, FormField, coboundary, interior_product, whitney_realize
from .maps import _region
from .mesh import Complex

BOUND_SLACK = 1e-6
MATERIALIZE_TOL = 1e-3
MATERIALIZE_BUDGET = 150


class SharpField:
    """PL scalar field from vertex values, with per-simplex constant gradients."""

    def __init__(self, cx: Complex, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (cx.vertices.shape[0],):
            raise ValueError("need one value per vertex")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"value at vertex {bad[0]} is not finite: {values[bad[0]]}")
        self.complex = cx
        self.values = values

    @cached_property
    def gradients(self) -> np.ndarray:
        """(m, n): the field's gradient on every top simplex."""
        cx = self.complex
        G = cx.barygrads[:, :, : cx.dim]
        return np.matmul(G.transpose(0, 2, 1), self.values[cx.arrays[cx.top_degree]][:, :, None])[:, :, 0]

    @cached_property
    def form(self) -> FormField:
        """The field as a 0-form: the Whitney realization of its vertex values."""
        return whitney_realize(self.as_cochain())

    def as_cochain(self) -> Cochain:
        """The flat 0-cochain induced by the field (vertex values)."""
        return Cochain.from_terms(self.complex, 0, np.arange(len(self.values)), self.values)

    def sup(self, region=None) -> float:
        """Max |value| over all vertices, or over the vertices of the region's top simplices (EmptyRegion if none)."""
        if region is None:
            return float(np.abs(self.values).max())
        cx = self.complex
        return float(np.abs(self.values[cx.arrays[cx.top_degree][_region(cx, region)]]).max())

    def lipschitz_constant(self, region=None) -> float:
        return float(np.linalg.norm(self.gradients[_region(self.complex, region)], axis=1).max())

    def __add__(self, other: "SharpField") -> "SharpField":
        if self.complex is not other.complex:
            raise ComplexMismatch("fields on different complexes")
        return SharpField(self.complex, self.values + other.values)

    def scale(self, a: float) -> "SharpField":
        return SharpField(self.complex, a * self.values)


def multiply(phi: SharpField, A: Chain) -> EvaluableCurrent:
    """phi * A as a lazy current: phi's PL interpolant contracted with A."""
    return interior_product(phi.form, A)


def boundary_product(phi: SharpField, A: Chain) -> EvaluableCurrent:
    """boundary(phi A) written as phi*boundary(A) - d(alpha_phi) -| A."""
    if A.degree == 0:
        raise DegreeZero("the boundary product rule needs degree >= 1")
    first = multiply(phi, A.boundary())
    second = interior_product(whitney_realize(coboundary(phi.as_cochain())), A)
    return first - second


@dataclass
class ProductBoundsReport:
    """Both sides of the normal-norm and flat-norm product bounds."""

    sup_phi: float
    lip_phi: float
    n_lhs: float
    n_rhs: float
    f_lhs: float
    f_rhs: float
    materialization_error: float
    n_ok: bool
    f_ok: bool

    @property
    def passed(self) -> bool:
        return self.n_ok and self.f_ok


def check_product_bounds(phi: SharpField, A: Chain) -> ProductBoundsReport:
    """Verify N(phi A) <= (sup|phi| + r Lip) N(A) and the flat-norm analogue.

    The flat side is evaluated on a materialized subdivision; the check
    subtracts the documented materialization error bound so it can only
    fail on a genuine violation.  The product is materialized to relative
    oscillation MATERIALIZE_TOL within MATERIALIZE_BUDGET top simplices.
    """
    if A.degree == 0:
        raise DegreeZero("product norm bounds need degree >= 1")
    r = A.degree
    sup_phi = phi.sup()
    lip_phi = phi.lipschitz_constant()

    prod = multiply(phi, A)
    n_lhs = prod.mass() + boundary_product(phi, A).mass()
    n_rhs = (sup_phi + r * lip_phi) * A.normal_norm()
    n_ok = n_lhs <= n_rhs + BOUND_SLACK * (1.0 + n_rhs)

    mat, ref, err = prod.materialize(MATERIALIZE_TOL, size_budget=MATERIALIZE_BUDGET)
    f_lhs = flat_norm(mat).value
    f_rhs = (sup_phi + (r + 1) * lip_phi) * flat_norm(ref.carry_chain(A)).value
    f_ok = f_lhs - err <= f_rhs + BOUND_SLACK * (1.0 + f_rhs)
    return ProductBoundsReport(sup_phi, lip_phi, n_lhs, n_rhs, f_lhs, f_rhs, err, n_ok, f_ok)
