"""Dense primal simplex solver and the exact simplex-overlap predicate.

`solve_lp` solves   min c.x   s.t.  A x = b,  x >= 0.

It is the fallback of `flatnorm.flat_norm`, run only when an
interior-point result fails the dual certificate; the network simplex and
the interior-point method solve every flat norm first.  The tableau is
dense and cubic in cost, so it suits small problems only.  Bland's rule
guarantees termination on the degenerate problems that chain geometry
produces routinely.

`simplex_interiors_intersect` decides whether two simplices share a point
of their relative interiors.  It needs no LP and no tolerance: the float
coordinates are scaled to Python integers by one power of two
(`integer_image`), and a separating-axis test (`interiors_intersect`) runs
in exact integer arithmetic.  That integer test is the reference.

`certainly_disjoint` is a float filter in front of it for pairs of
full-dimensional simplices (k = n).  It evaluates the orientation of every
vertex of one simplex against every facet hyperplane of the other in numpy,
each with Shewchuk's static forward error bound (orient2d (3 + 16 eps) eps,
orient3d (7 + 56 eps) eps times the permanent, eps = 2^-53; Shewchuk,
"Adaptive precision floating-point arithmetic and fast robust geometric
predicates", DCG 18, 1997).  A pair is called disjoint only when one facet
hyperplane certainly separates it, so that answer is always right; every
other pair is left to the integer test.  The bounds hold on `float_image`,
a power-of-two scaling that keeps every product of differences clear of
underflow and overflow.  `mesh.first_overlapping_pair` runs the filter on
each block of box-meeting pairs and `simplex_interiors_intersect` on each
pair the filter leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from operator import sub

import numpy as np

from .errors import LPNumericalFailure

FEAS_TOL = 1e-9

_EPS = 2.0**-53
# Shewchuk's static error bounds of orient2d and orient3d, per unit of the determinant's permanent
ORIENT2D_BOUND = (3.0 + 16.0 * _EPS) * _EPS
ORIENT3D_BOUND = (7.0 + 56.0 * _EPS) * _EPS
# no two entries of one column of a float image differ by less than this unless they are equal
FLOAT_GAP = 2.0**-300


@dataclass
class LPResult:
    x: np.ndarray
    value: float
    iterations: int
    status: str  # "optimal" | "infeasible"
    reduced: np.ndarray | None = None  # final phase-2 reduced costs, c - y.A per column


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv = T[row]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, piv)
    T[row] = piv
    basis[row] = col


def _simplex_core(T: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int) -> int:
    """Pivot a tableau (last row = reduced costs) to optimality.

    Dantzig's rule drives ordinary progress; after a run of pivots with no
    objective improvement the rule switches to Bland's, whose anti-cycling
    guarantee ensures termination on degenerate geometry.
    """
    m = T.shape[0] - 1
    it = 0
    stall = 0
    last_obj = T[-1, -1]
    while True:
        red = T[-1, :ncols]
        candidates = np.nonzero(red < -FEAS_TOL)[0]
        if candidates.size == 0:
            return it
        if stall > 40:
            col = int(candidates[0])  # Bland: smallest index
        else:
            col = int(candidates[np.argmin(red[candidates])])  # Dantzig
        colvec = T[:m, col]
        pos = colvec > FEAS_TOL
        if not pos.any():
            raise LPNumericalFailure("LP is unbounded")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / colvec[pos]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + FEAS_TOL * (1.0 + abs(best)))[0]
        row = int(ties[np.argmin(basis[ties])])  # smallest basic index leaves
        _pivot(T, basis, row, col)
        it += 1
        obj = T[-1, -1]
        if abs(obj - last_obj) <= FEAS_TOL * (1.0 + abs(last_obj)):
            stall += 1
        else:
            stall = 0
            last_obj = obj
        if it > max_iter:
            raise LPNumericalFailure(f"simplex exceeded {max_iter} iterations")


def solve_lp(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    basis: list[int] | None = None,
    max_iter: int = 200_000,
) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0.

    If `basis` is given it must index an identity submatrix of A matching b >= 0
    (phase 2 starts immediately).  Otherwise a phase-1 problem with artificial
    variables establishes feasibility first.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    total_it = 0

    # rows with b < 0 enter the tableau negated; the tableau is then the only
    # dense copy of the constraints that the pivots keep alive
    T = np.zeros((m + 1, n + 1 + (m if basis is None else 0)))
    np.multiply(A, np.where(b < 0, -1.0, 1.0)[:, None], out=T[:m, :n])
    del A
    b = np.abs(b)
    T[:m, -1] = b

    if basis is None:
        # phase 1: artificial identity basis
        T[:m, n : n + m] = np.eye(m)
        bas = np.arange(n, n + m)
        T[-1, :n] = -T[:m, :n].sum(axis=0)
        T[-1, -1] = -b.sum()
        total_it += _simplex_core(T, bas, n + m, max_iter)
        if T[-1, -1] < -FEAS_TOL * (1.0 + abs(b).sum()):
            return LPResult(np.zeros(n), np.inf, total_it, "infeasible")
        # drive artificials out of the basis where possible
        for row in range(m):
            if bas[row] >= n:
                pivots = np.nonzero(np.abs(T[row, :n]) > FEAS_TOL)[0]
                if pivots.size:
                    _pivot(T, bas, row, int(pivots[0]))
                    total_it += 1
        keep = [r for r in range(m) if bas[r] < n]
        if len(keep) < m:
            # redundant rows: drop them
            T = np.vstack([T[keep], T[-1:]])
            bas = bas[keep]
            m = len(keep)
        T2 = np.zeros((m + 1, n + 1))
        T2[:m, :n] = T[:m, :n]
        T2[:m, -1] = T[:m, -1]
        basis_arr = bas
    else:
        basis_arr = np.asarray(basis, dtype=int)
        T2 = T
        for row, col in enumerate(basis_arr):
            if abs(T2[row, col] - 1.0) > FEAS_TOL or np.abs(np.delete(T2[:m, col], row)).max(initial=0.0) > FEAS_TOL:
                raise LPNumericalFailure("supplied basis does not index an identity submatrix")

    # phase 2 reduced costs
    T2[-1, :n] = c[:n]
    for row, col in enumerate(basis_arr):
        if c[col] != 0.0:
            T2[-1, :] -= c[col] * T2[row, :]
    total_it += _simplex_core(T2, basis_arr, n, max_iter)

    x = np.zeros(n)
    mrows = T2.shape[0] - 1
    x[basis_arr] = T2[:mrows, -1]
    value = float(c @ x)
    return LPResult(x, value, total_it, "optimal", T2[-1, :n].copy())


def simplex_interiors_intersect(V: np.ndarray, W: np.ndarray) -> bool:
    """Whether two simplices (vertex rows V, W in R^n, n <= 3) share a relative-interior point.

    The pair is scaled to integers by `integer_image` and decided by
    `interiors_intersect`.  This is the exact step of every overlap test,
    mesh sweeps included: `mesh.first_overlapping_pair` calls it on each
    pair its float filter leaves.
    """
    P = integer_image(np.concatenate([V, W]))
    return interiors_intersect(P[: len(V)], P[len(V) :])


def integer_image(X: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of X scaled by one power of two, the same for every entry, to tuples of ints.

    The scaling is exact, and a positive scale changes the sign of no
    predicate below, so the image decides every pair of rows of X exactly.
    """
    X = np.asarray(X, dtype=float)
    flat = X.ravel().tolist()
    # two passes over the ratios, so that no list of them is held for a whole mesh
    bits = max(x.as_integer_ratio()[1] for x in flat).bit_length()
    flat = [p << (bits - q.bit_length()) for p, q in map(float.as_integer_ratio, flat)]
    return list(zip(*[iter(flat)] * X.shape[1]))


def interiors_intersect(A, B) -> bool:
    """Whether the simplices with integer vertex rows A and B share a relative-interior point.

    The relative interiors are disjoint exactly when some axis u properly
    separates the simplices: max A.u <= min B.u (or the reverse) with not
    every projection equal (Rockafellar, Convex Analysis, Thm 11.3).  When
    such an axis exists, a normal of the affine hull of the Minkowski
    difference B - A or a normal of one of its facets within that hull is
    one, and every such normal is among the candidates that `_axes` builds
    from the edge vectors.  In exact arithmetic, touching along shared faces
    never counts as overlap and no overlap is too shallow to count.
    """
    for u in _axes(A, B):
        if _properly_separates(u, A, B):
            return False
    return True


def _sub(p, q):
    return tuple(map(sub, p, q))


def _cross(g, h):
    return (g[1] * h[2] - g[2] * h[1], g[2] * h[0] - g[0] * h[2], g[0] * h[1] - g[1] * h[0])


def _axes(A, B):
    """Candidate separating axes, facet normals first, generated lazily.

    G holds every edge vector of both simplices and a0 - b0.  In R^1 the
    axes are the g in G; in R^2 they are the perpendiculars of the g, edges
    of A and B first, then the g themselves.  In R^3 they are the facet
    normals, then the nonzero g x h for g an edge of A and h an edge of B or
    for g any edge and h = a0 - b0, and, when both simplices have degree
    below 3, each such g x h crossed with every l in G.  When every g x h
    vanishes the pair is collinear and the g themselves are the axes.
    """
    n = len(A[0])
    if n == 2:
        yield from ((p[1] - q[1], q[0] - p[0]) for P in (A, B) for p, q in combinations(P, 2))
    elif n == 3:
        yield from (_cross(_sub(q, p), _sub(r, p)) for P in (A, B) for p, q, r in combinations(P, 3))
    ea = [_sub(q, p) for p, q in combinations(A, 2)]
    eb = [_sub(q, p) for p, q in combinations(B, 2)]
    G = ea + eb + [_sub(A[0], B[0])]
    if n < 3:
        if n == 2:
            yield (-G[-1][1], G[-1][0])
        yield from G
        return
    normals = []
    for g, h in chain(product(ea, eb), product(ea + eb, G[-1:])):
        u = _cross(g, h)
        if any(u):
            normals.append(u)
            yield u
    if not normals:
        yield from G
    elif max(len(A), len(B)) <= 3:
        yield from (_cross(u, g) for u in normals for g in G)


def _properly_separates(u, A, B) -> bool:
    if len(u) == 3:
        ux, uy, uz = u
        pa = [x * ux + y * uy + z * uz for x, y, z in A]
        pb = [x * ux + y * uy + z * uz for x, y, z in B]
    elif len(u) == 2:
        ux, uy = u
        pa = [x * ux + y * uy for x, y in A]
        pb = [x * ux + y * uy for x, y in B]
    else:
        pa = [a[0] * u[0] for a in A]
        pb = [b[0] * u[0] for b in B]
    hi_a, lo_b = max(pa), min(pb)
    if hi_a <= lo_b:
        return min(pa) < max(pb)
    hi_b, lo_a = max(pb), min(pa)
    if hi_b <= lo_a:
        return lo_b < hi_a
    return False


def float_image(X: np.ndarray) -> np.ndarray:
    """The rows of a finite X scaled by one power of two into (-1, 1), NaN where the float filter may not use them.

    A row is NaN when the scaling changes it (an entry falls below the
    normal range) or when one of its entries differs from an entry of the
    same column by less than FLOAT_GAP without being equal to it.  So the
    float difference of two entries of one column of the other rows is 0
    or of magnitude in [FLOAT_GAP, 2).  Every product that orient2d and
    orient3d form from such differences is then 0 or a normal number (a
    nonzero difference of two products is at least 2^-53 times the
    smaller), and Shewchuk's bounds hold whatever the scale of X.  NaN
    makes every sign that uses the row uncertain.
    """
    X = np.asarray(X, dtype=float)
    e = np.frexp(np.abs(X).max(initial=0.0))[1]
    Y = np.ldexp(X, -e)
    bad = (np.ldexp(Y, e) != X).any(axis=1)
    for col in Y.T:
        values, which = np.unique(col, return_inverse=True)
        near = np.diff(values) < FLOAT_GAP
        bad |= (np.append(near, False) | np.insert(near, 0, False))[which]
    Y[bad] = np.nan
    return Y


def _facets(n: int) -> list[list[int]]:
    """Vertex positions of facet i of an n-simplex, the one opposite vertex i, ascending."""
    return [[j for j in range(n + 1) if j != i] for i in range(n + 1)]


def _orient(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float determinants of the matrices with rows R[0], ..., R[n - 1] and their forward error bounds.

    R[r, c] holds coordinate c of row r, for a whole array of matrices.
    Row r is a facet vertex minus the test point, so a test point equal to
    a facet vertex gives a zero row, det 0 and bound 0 exactly.  The
    formulas and bounds are Shewchuk's orient2d and orient3d: the float
    det differs from the exact one by at most the bound.  In R^1 the det is
    one float difference, whose sign is exact, and the bound is 0.
    """
    n = len(R)
    if n == 1:
        return R[0, 0], np.zeros_like(R[0, 0])
    if n == 2:
        left, right = R[0, 0] * R[1, 1], R[0, 1] * R[1, 0]
        return left - right, ORIENT2D_BOUND * (np.abs(left) + np.abs(right))
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = R
    bxcy, cxby, cxay, axcy, axby, bxay = bx * cy, cx * by, cx * ay, ax * cy, ax * by, bx * ay
    det = az * (bxcy - cxby) + bz * (cxay - axcy) + cz * (axby - bxay)
    permanent = (
        (np.abs(bxcy) + np.abs(cxby)) * np.abs(az)
        + (np.abs(cxay) + np.abs(axcy)) * np.abs(bz)
        + (np.abs(axby) + np.abs(bxay)) * np.abs(cz)
    )
    return det, ORIENT3D_BOUND * permanent


def _facet_rows(C: np.ndarray) -> np.ndarray:
    """The vertices of every facet of the simplices C, (vertex, coordinate, simplex), as (row, coordinate, facet, simplex)."""
    return C[_facets(len(C) - 1)].transpose(1, 2, 0, 3)


def facet_signs(C: np.ndarray) -> np.ndarray:
    """Certain sign of the orientation of facet i of each simplex at its own vertex i, else 0.

    C holds the simplices of a float image as (n + 1, n, m): vertex,
    coordinate, simplex.  The result is (n + 1, m).  A sign is 0 where the
    float evaluation cannot certify it, which includes every flat simplex;
    such a facet gives the filter no separating axis.  The rows are a_f -
    a_i, facet vertex minus test point, as in certainly_disjoint.
    """
    det, bound = _orient(_facet_rows(C) - C.transpose(1, 0, 2))
    return (det > bound).astype(np.int8) - (det < -bound)


def certainly_disjoint(CA: np.ndarray, sA: np.ndarray, CB: np.ndarray, sB: np.ndarray) -> np.ndarray:
    """Which pairs of full-dimensional simplices a float filter proves to have disjoint interiors.

    CA and CB hold the p pairs' simplices of a float image (float_image)
    as (n + 1, n, p): vertex, coordinate, pair, so that every array below
    runs contiguously along the pairs.  sA and sB are their facet_signs.
    Pair q is called disjoint when a facet hyperplane of A[q] (or B[q])
    with a certain own sign has every vertex of the other simplex certainly
    on its far side or exactly on it: then it properly separates the pair
    (Rockafellar, Thm 11.3).  Shared vertices lie exactly on it, so
    neighbours across a shared facet are decided.  True is always right;
    False means only that the floats could not decide, and the pair is
    left to `simplex_interiors_intersect`.
    """
    return _facet_separates(CA, sA, CB) | _facet_separates(CB, sB, CA)


def _facet_separates(CA, sA, CB) -> np.ndarray:
    """Whether some facet of A with a certain own sign has every vertex of B certainly beyond it or on it.

    Shewchuk's bound is not strict, so det = -bound still leaves the true
    value on the far side or on the hyperplane, which is all a proper
    separation needs; a zero bound certifies a zero det.
    """
    # row r, coordinate c of A's facet i at B's vertex j: a_f - b_j, indexed [r, c, j, i, pair]
    det, bound = _orient(_facet_rows(CA)[:, :, None] - CB.transpose(1, 0, 2)[:, :, None])
    own = sA.astype(float)
    return ((det * own <= -bound).all(axis=0) & (own != 0)).any(axis=0)
