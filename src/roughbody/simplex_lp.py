"""Dense primal simplex solver with Bland's anti-cycling rule.

Solves   min c.x   s.t.  A x = b,  x >= 0.

Problems in this package are small (at most a few thousand variables), so
a dense tableau is adequate and keeps the package free of external solver
dependencies.  Bland's rule guarantees termination on the degenerate
problems that chain geometry produces routinely.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    total_it = 0

    neg = b < 0
    if neg.any():
        A = A.copy()
        A[neg] *= -1.0
        b[neg] *= -1.0

    if basis is None:
        # phase 1: artificial identity basis
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n] = A
        T[:m, n : n + m] = np.eye(m)
        T[:m, -1] = b
        bas = np.arange(n, n + m)
        T[-1, :n] = -A.sum(axis=0)
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
        T2 = np.zeros((m + 1, n + 1))
        T2[:m, :n] = A
        T2[:m, -1] = b
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


def feasible_point(A: np.ndarray, b: np.ndarray, tol: float = FEAS_TOL) -> np.ndarray | None:
    """Phase-1 feasibility for A x = b, x >= 0; returns a point or None."""
    res = solve_lp(np.zeros(A.shape[1]), A, b)
    if res.status == "infeasible":
        return None
    if np.abs(A @ res.x - b).max(initial=0.0) > 1e-6 * (1.0 + np.abs(b).max(initial=0.0)):
        return None
    return res.x


def simplex_interiors_intersect(V: np.ndarray, W: np.ndarray, margin: float = 1e-6) -> bool:
    """Whether two simplices (vertex rows V, W) share an interior point.

    Solved as feasibility of V't = W'u with t, u barycentric and bounded
    below by `margin` (barycentric depth), which excludes touching along
    shared faces; the margin must sit well above the solver tolerance.
    """
    n = V.shape[1]
    ka, kb = V.shape[0], W.shape[0]
    scale = max(np.abs(V).max(), np.abs(W).max(), 1.0)
    # variables a, b >= 0 with t = margin + a, u = margin + b
    A = np.zeros((n + 2, ka + kb))
    A[:n, :ka] = V.T
    A[:n, ka:] = -W.T
    A[n, :ka] = 1.0
    A[n + 1, ka:] = 1.0
    rhs = np.zeros(n + 2)
    rhs[:n] = margin * (W.T.sum(axis=1) - V.T.sum(axis=1))
    rhs[n] = 1.0 - ka * margin
    rhs[n + 1] = 1.0 - kb * margin
    if rhs[n] <= 0 or rhs[n + 1] <= 0:
        return False
    A[:n] /= scale
    rhs[:n] /= scale
    return feasible_point(A, rhs) is not None
