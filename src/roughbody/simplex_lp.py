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
coordinates are scaled to Python integers by one power of two, and a
separating-axis test runs in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from operator import sub

import numpy as np

from .errors import LPNumericalFailure

FEAS_TOL = 1e-9


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

    The relative interiors are disjoint exactly when some axis u properly
    separates the simplices: max V.u <= min W.u (or the reverse) with not
    every projection equal (Rockafellar, Convex Analysis, Thm 11.3).  When
    such an axis exists, a normal of the affine hull of the Minkowski
    difference W - V or a normal of one of its facets within that hull is
    one, and every such normal is among the candidates that `_axes` builds
    from the edge vectors.  Everything is computed on the exact integer
    images of the coordinates, so touching along shared faces never counts
    as overlap and no overlap is too shallow to count.
    """
    A, B = _integer_rows(V, W)
    return not any(_properly_separates(u, A, B) for u in _axes(A, B))


def _integer_rows(V: np.ndarray, W: np.ndarray) -> tuple[list[tuple], list[tuple]]:
    """Both vertex lists scaled by one power of two so that every coordinate is an int."""
    ratios = [x.as_integer_ratio() for x in V.ravel().tolist() + W.ravel().tolist()]
    bits = max([q for _, q in ratios]).bit_length()
    flat = [p << (bits - q.bit_length()) for p, q in ratios]
    rows = list(zip(*[iter(flat)] * V.shape[1]))
    return rows[: len(V)], rows[len(V) :]


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
