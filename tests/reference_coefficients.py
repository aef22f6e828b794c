"""Dict-loop references for the linear maps between coefficient vectors.

These are the loops the library ran before every such map went through
Chain.from_terms: the boundary, the sum of two chains and the pushforward
add each term to a dict and pop a key whose running sum reaches exactly
0.0; the refinement carry walks the refined simplices and adds the
coefficient of each one's parent.  Each returns the coefficient dict, in
the order the loop leaves it, and the number of keys brought back after a
pop (such a key moves to the end of the dict).  The library keeps keys in
ascending order, so tests compare against the sorted items.
"""

from __future__ import annotations

import numpy as np


def _accumulate(out: dict[int, float], pairs) -> tuple[dict[int, float], int]:
    popped: set[int] = set()
    revived = 0
    for i, t in pairs:
        v = out.get(i, 0.0) + t
        if v == 0.0:
            out.pop(i, None)
            popped.add(i)
        else:
            if i in popped and i not in out:
                revived += 1
            out[i] = v
    return out, revived


def boundary(T):
    faces, signs = T.complex.incidence_arrays(T.degree)
    idx = np.fromiter(T.coeffs, dtype=np.intp, count=len(T.coeffs))
    terms = signs[idx] * np.fromiter(T.coeffs.values(), dtype=float, count=len(idx))[:, None]
    return _accumulate({}, zip(faces[idx].ravel().tolist(), terms.ravel().tolist()))


def add(A, B):
    return _accumulate(dict(A.coeffs), B.coeffs.items())


def pushforward(F, T):
    img = F.image()
    pos, sign = img.simplex_image[T.degree], img.simplex_sign[T.degree]
    pairs = ((int(pos[i]), int(sign[i]) * a) for i, a in T.coeffs.items() if pos[i] >= 0)
    return _accumulate({}, pairs)


def carry_chain(ref, T):
    out: dict[int, float] = {}
    for new_idx, idx in enumerate(ref.parent[T.degree].tolist()):
        if idx >= 0 and idx in T.coeffs:
            out[new_idx] = out.get(new_idx, 0.0) + T.coeffs[idx]
    return {i: a for i, a in out.items() if a != 0.0}, 0
