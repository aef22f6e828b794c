"""Test-only two-body overlay and facet-coincidence double loop.

`common_refinement` cuts a padded box by the boundary-facet planes of two
bodies and returns the overlay with both bodies on it; the trace tests
compare masses and classifications against it.  `shared_facet` is the
pair-at-a-time oracle for the precondition of `roughbody.bodies.trace`: it
tests every (part facet, generator facet) pair of boundary facets with
`_coplanar_overlap`, part facet first, and returns the first pair that
shares facet area.
"""

from __future__ import annotations

import numpy as np

from roughbody.bodies import Body, _boundary_halfspaces, _indicator, _inside, _unit_normals
from roughbody.errors import OverlayFailure
from roughbody.generate import cube_mesh, grid_mesh, segment_mesh
from roughbody.mesh import Complex, refine_by_halfspace
from roughbody.simplex_lp import simplex_interiors_intersect


def common_refinement(a: Body, b: Body) -> tuple[Complex, Body, Body]:
    """Overlay complex on which both bodies are simplicial, volumes preserved.

    A padded bounding-box mesh is refined by the hyperplanes of the
    boundary facets of both bodies.  No overlay cell then crosses either
    boundary, so each cell lies wholly inside or outside each body and is
    classified by its barycenter.
    """
    if a.complex.dim != b.complex.dim:
        raise OverlayFailure("bodies live in different ambient dimensions")
    points = np.vstack([a.complex.vertices, b.complex.vertices])
    pad = 0.125 * float(np.ptp(points, axis=0).max())
    lo, hi = points.min(axis=0) - pad, points.max(axis=0) + pad
    n = len(lo)
    cx = segment_mesh(1, lo[0], hi[0]) if n == 1 else grid_mesh(1, 1, lo, hi) if n == 2 else cube_mesh(1, 1, 1, lo, hi)
    for hs in _boundary_halfspaces(a) + _boundary_halfspaces(b):
        cx = refine_by_halfspace(cx, hs).complex
    barys = cx.barycenters(cx.top_degree)
    body_a, body_b = (_indicator(cx, np.flatnonzero(_inside(body, barys))) for body in (a, b))
    for orig, new in ((a, body_a), (b, body_b)):
        if abs(orig.mass() - new.mass()) > 1e-10 * orig.mass():
            raise OverlayFailure(
                f"volume drifted from {orig.mass()} to {new.mass()} in the overlay"
            )
    return cx, body_a, body_b


def _coplanar_overlap(cx_a: Complex, ia: int, cx_b: Complex, ib: int, tol: float) -> bool:
    """Positive (n-1)-measure overlap of two facets (same supporting plane).

    B lies in A's hyperplane when its vertices are within tol of it.  Both
    facets are then projected by dropping the coordinate along which the
    hyperplane's normal is largest, an exact and injective map on that
    hyperplane, and their interiors are compared in n - 1 dimensions.
    """
    A = cx_a.coords(cx_a.dim - 1, ia)
    B = cx_b.coords(cx_b.dim - 1, ib)
    n = cx_a.dim
    normal = _unit_normals(A[None])[0]
    if np.abs((B - A[0]) @ normal).max() > tol:
        return False
    if n == 1:
        return True  # coincident points
    keep = np.arange(n) != np.argmax(np.abs(normal))
    return simplex_interiors_intersect(A[:, keep], B[:, keep])


def shared_facet(part: Body, generator: Body) -> tuple[int, int] | None:
    """The first (part facet, generator facet) pair sharing facet area, one pair at a time."""
    tol = 1e-9 * max(part.complex.diameter(), generator.complex.diameter())
    for ia in part.chain.boundary().idx.tolist():
        for ib in generator.chain.boundary().idx.tolist():
            if _coplanar_overlap(part.complex, ia, generator.complex, ib, tol):
                return ia, ib
    return None
