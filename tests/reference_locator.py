"""Point-at-a-time reference for locating points in a body (test-only).

This is the locator that `roughbody.bodies` replaced with birth levels for
Koch bodies and with one batched barycentric test per body simplex for
overlays and traces.  A point is in the body when its barycentric
coordinates in some body simplex whose bounding box (widened by 1e-9 of
the mesh diameter) holds it are all >= -1e-9.  `carry_onto` re-expresses
a body on a finer complex by locating every top-simplex barycenter.  The
tests require the library to classify exactly as this code does.
"""

from __future__ import annotations

import numpy as np

from roughbody.bodies import Body
from roughbody.chains import Chain
from roughbody.errors import OverlayFailure
from roughbody.mesh import Complex


class RegionLocator:
    """Point-in-body test against the body's original complex."""

    def __init__(self, body: Body):
        self.cx = body.complex
        self.idxs = sorted(body.chain.coeffs)
        n = self.cx.dim
        C = self.cx.all_coords(n)[self.idxs]
        self.lo = C.min(axis=1)
        self.hi = C.max(axis=1)
        self.grads = [self.cx.barygrads[i] for i in self.idxs]
        self.tol = 1e-9 * self.cx.diameter()

    def contains(self, x: np.ndarray) -> bool:
        hit = np.nonzero(
            np.all(x >= self.lo - self.tol, axis=1) & np.all(x <= self.hi + self.tol, axis=1)
        )[0]
        for j in hit:
            G = self.grads[j]
            lam = G[:, :-1] @ x + G[:, -1]
            if np.all(lam >= -1e-9):
                return True
        return False


def carry_onto(body: Body, finest: Complex) -> Body:
    """Re-express a body on the finest mesh by barycenter point location."""
    if body.complex is finest:
        return body
    coeffs: dict[int, float] = {}
    barys = finest.barycenters(finest.top_degree)
    region = RegionLocator(body)
    for i, b in enumerate(barys):
        if region.contains(b):
            coeffs[i] = 1.0
    carried = Body(Chain(finest, finest.dim, coeffs))
    if abs(carried.mass() - body.mass()) > 1e-9 * body.mass():
        raise OverlayFailure("carried body volume drifted")
    return carried
