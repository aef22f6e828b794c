"""Per-top reference for the lowest-order Whitney realization (test-only).

This is the loop `roughbody.forms.whitney_realize` ran before it became one
batched accumulation over all top simplices: for each top, each nonzero
face slot and each vertex position, it adds the barycentric coordinate
lambda_r, as a `Poly`, scaled by k! X(face), the alternating sign and the
wedge component, to the top's component polynomials term by term.  The
face positions and gradient wedges are the same array-built ones the
library uses.  It returns the realized tops' components as {top: [Poly]};
the tests require the library's coefficient array to hold, per top,
component and monomial, a bitwise-equal coefficient.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from reference_poly import Poly
from roughbody.mesh import row_wedges


def whitney_realize(X) -> dict[int, list[Poly]]:
    cx = X.complex
    n = cx.dim
    k = X.degree
    K = cx.top_degree
    comps: dict[int, list[Poly]] = {}
    if X.is_zero():
        return comps
    G = cx.barygrads  # row i of a top: (grad lambda_i, const)
    S = cx.arrays[K]
    faces = cx.face_table(K, k)
    m, nf = faces.shape
    # positions in each top of each face's stored vertices, (m, nf, k + 1)
    pos = np.argmax(cx.arrays[k][faces][..., None] == S[:, None, None, :], axis=-1)
    others = pos[..., [[j for j in range(k + 1) if j != i] for i in range(k + 1)]]
    rows = G[np.arange(m)[:, None, None, None], others, :n]
    W = row_wedges(rows.reshape(m * nf * (k + 1), k, n)).reshape(m, nf, k + 1, -1)
    ncomp = W.shape[-1]
    for top, coeffs in enumerate(X.vector()[faces].tolist()):
        res = None
        for slot, coeff in enumerate(coeffs):
            if not coeff:
                continue
            if res is None:
                res = [Poly.zero(n) for _ in range(ncomp)]
            fact = factorial(k) * coeff
            for i, (r, wcomps) in enumerate(zip(pos[top, slot].tolist(), W[top, slot].tolist())):
                lam = Poly.affine(n, G[top, r, :n], G[top, r, n])
                sign = fact * (1.0 if i % 2 == 0 else -1.0)
                for c_idx, w in enumerate(wcomps):
                    if w != 0.0:
                        res[c_idx] = res[c_idx] + lam.scale(sign * w)
        if res is not None:
            comps[top] = res
    return comps
