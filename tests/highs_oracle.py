"""Flat norms and overlap depths from scipy's HiGHS, the test suite's independent LP solver.

The flat-norm LP is the sign-split flat-norm program, assembled as a sparse
matrix so that meshes with thousands of faces fit.  HiGHS uses absolute
tolerances, so the costs are divided by their largest entry and the
right-hand side by its largest magnitude before the solve, and the optimum
is scaled back; the solution set of the LP does not change.
"""

import numpy as np


def highs_flat_norm(T):
    from scipy import sparse
    from scipy.optimize import linprog

    cx = T.complex
    k = T.degree
    if k >= cx.top_degree:
        return T.mass()
    m, p = cx.n_simplices(k), cx.n_simplices(k + 1)
    t = np.zeros(m)
    for i, a in T.coeffs.items():
        t[i] = a
    rows, cols, vals = [], [], []
    faces, signs = cx.incidence_arrays(k + 1)
    for j, row in enumerate(zip(faces.tolist(), signs.tolist())):
        for fidx, sgn in zip(*row):
            rows.append(fidx)
            cols.append(j)
            vals.append(sgn)
    B = sparse.csr_matrix((vals, (rows, cols)), shape=(m, p))
    eye = sparse.identity(m)
    A = sparse.hstack([eye, -eye, B, -B]).tocsc()
    c = np.concatenate([cx.volumes(k)] * 2 + [cx.volumes(k + 1)] * 2)
    c_scale = c.max()
    t_scale = np.abs(t).max(initial=0.0) or 1.0
    res = linprog(c / c_scale, A_eq=A, b_eq=t / t_scale, bounds=(0, None), method="highs")
    assert res.success, res.message
    return res.fun * c_scale * t_scale


def overlap_depth(V, W):
    """Largest t with a common point V'a = W'b, a, b >= t barycentric; -inf without one.

    The relative interiors of the two simplices meet exactly when the depth
    is positive.  Coordinates are divided by their largest magnitude first.
    """
    from scipy.optimize import linprog

    scale = max(np.abs(V).max(), np.abs(W).max()) or 1.0
    V, W = np.asarray(V) / scale, np.asarray(W) / scale
    ka, kb, n = len(V), len(W), V.shape[1]
    nv = ka + kb + 1  # a, b, t
    A_eq = np.zeros((n + 2, nv))
    A_eq[:n, :ka] = V.T
    A_eq[:n, ka : ka + kb] = -W.T
    A_eq[n, :ka] = 1.0
    A_eq[n + 1, ka : ka + kb] = 1.0
    b_eq = np.zeros(n + 2)
    b_eq[n:] = 1.0
    A_ub = np.hstack([-np.eye(ka + kb), np.ones((ka + kb, 1))])  # t <= a_i, t <= b_j
    c = np.zeros(nv)
    c[-1] = -1.0
    res = linprog(c, A_ub, np.zeros(ka + kb), A_eq, b_eq, bounds=(None, None), method="highs")
    if res.status == 2:
        return -np.inf
    assert res.success, res.message
    return -res.fun
