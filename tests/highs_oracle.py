"""Flat norms from scipy's HiGHS, the test suite's independent LP solver.

The LP is the sign-split flat-norm program, assembled as a sparse matrix so
that meshes with thousands of faces fit.  HiGHS uses absolute tolerances,
so the costs are divided by their largest entry and the right-hand side by
its largest magnitude before the solve, and the optimum is scaled back;
the solution set of the LP does not change.
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
    for j, row in enumerate(cx.incidence[k + 1]):
        for fidx, sgn in row:
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
