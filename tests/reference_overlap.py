"""Pair-at-a-time reference for the overlap sweep (test-only).

This is the sweep that `roughbody.mesh.first_overlapping_pair` replaced:
it takes the vertex coordinates of every simplex, shape (m, k + 1, n),
and decides each box-meeting pair by `simplex_interiors_intersect`, which
scales that pair alone to integers.  The tests require the library to
report the same first pair.
"""

from __future__ import annotations

import numpy as np

from roughbody.simplex_lp import simplex_interiors_intersect


def reference_first_overlapping_pair(C: np.ndarray) -> tuple[int, int] | None:
    """First pair (a, b) of simplices, vertex coordinates C[a] and C[b], whose interiors meet.

    A sweep over the simplices sorted by their lowest x finds the pairs
    whose bounding boxes meet; the exact predicate decides each of them.
    Boxes that only touch are tested, because the predicate is exact.
    """
    lo, hi = C.min(axis=1), C.max(axis=1)
    order = np.argsort(lo[:, 0])
    C, lo, hi = C[order], lo[order], hi[order]
    ends = np.searchsorted(lo[:, 0], hi[:, 0], side="right")
    for a in range(len(C)):
        near = slice(a + 1, ends[a])
        meet = np.all(lo[near] <= hi[a], axis=1) & np.all(hi[near] >= lo[a], axis=1)
        for b in a + 1 + np.flatnonzero(meet):
            if simplex_interiors_intersect(C[a], C[b]):
                return int(order[a]), int(order[b])
    return None
