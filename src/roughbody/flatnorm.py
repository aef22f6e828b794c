"""Flat norms of simplicial chains via linear programming.

The flat norm is computed relative to the ambient complex: the fill S
ranges over real coefficients on (k+1)-simplices and the LP minimizes
mass(T - boundary(S)) + mass(S) after sign-splitting the absolute values.
The value is the simplicial flat norm; it satisfies F <= M, F(bd S) <= M(S)
and decreases under ambient refinement.

Two solvers sit behind the one entry point.  For a codimension-one chain
(k + 1 = top degree = ambient dimension) whose shared faces get opposite
incidences once the (k+1)-simplices are oriented by sign(det), the LP's
dual is a min-cost circulation on the dual graph (Ibrahim, Krishnamoorthy
& Vixie, arXiv:1105.5104) and the network simplex solves it; every other
case goes to a Mehrotra predictor-corrector interior-point method, whose
only dense array is the m x m normal matrix.  Both solve a normalised
problem (t over max|t|, both volume vectors over one common scale) and
both return a dual k-cochain phi.  A result is accepted only when phi,
scaled into feasibility (|phi_i| <= vol_k(i), |(delta phi)_j| <=
vol_k+1(j)), proves the lower bound t.phi within CERT_RTOL * M(T) of the
value M(R) + M(S).

An interior-point result that fails this check is solved again on the
dense tableau of `simplex_lp.solve_lp`, and `solver` then reads
"dense-simplex".  No benchmark operation and no test except the one that
forces it takes this fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import Chain
from .errors import LPNumericalFailure, TooFewChains
from .mesh import Complex, kvectors
from .netsimplex import min_cost_circulation
from .simplex_lp import solve_lp

CERT_RTOL = 1e-9  # accepted duality gap, relative to M(T)
S_DROP = 1e-12  # fill coefficients below this times max|t| are dropped
EPS = float(np.finfo(float).eps)
IPM_GAP = 1e-11  # interior-point stop: x.z <= IPM_GAP max(1, c.x)
IPM_STEP = 0.99  # fraction of the step to the boundary of x >= 0, z >= 0
IPM_MAX_ITER = 100


@dataclass
class FlatDecomposition:
    """Optimal T = R + boundary(S) with value = mass(R) + mass(S).

    `phi` is the dual certificate, a feasible k-cochain (one value per
    k-simplex) with value - t.phi = `gap`; `solver` names what produced it.
    """

    value: float
    R: Chain
    S: Chain | None
    iterations: int
    phi: np.ndarray
    solver: str
    gap: float


def flat_norm(T: Chain) -> FlatDecomposition:
    """Flat norm of T relative to its complex, with an optimal, certified decomposition."""
    cx = T.complex
    k = T.degree
    t = T.vector()
    vol_k = cx.volumes(k)
    if k >= cx.top_degree:
        return certify(T, None, np.sign(t) * vol_k, "mass", 0)

    vol_k1 = cx.volumes(k + 1)
    tau = float(np.abs(t).max(initial=0.0)) or 1.0
    nu = float(max(vol_k.max(), vol_k1.max()))
    faces, signs = cx.incidence_arrays(k + 1)
    arcs = _dual_arcs(cx, k, faces, signs)
    lp = (t / tau, vol_k / nu, vol_k1 / nu)
    if arcs is not None:
        return _certified(T, tau, nu, "network-simplex", *_solve_flow(*lp, *arcs))
    try:
        return _certified(T, tau, nu, "interior-point", *_solve_interior(*lp, faces, signs))
    except LPNumericalFailure:
        return _certified(T, tau, nu, "dense-simplex", *_solve_dense(*lp, faces, signs))


def _certified(T, tau, nu, solver, s, phi, iterations) -> FlatDecomposition:
    """Scale a normalised solution back and certify it."""
    j = np.flatnonzero(np.abs(s) > S_DROP)
    S = Chain.from_terms(T.complex, T.degree + 1, j, tau * s[j])
    return certify(T, S, nu * phi, solver, iterations)


def certify(T: Chain, S: Chain | None, phi: np.ndarray, solver: str, iterations: int = 0) -> FlatDecomposition:
    """Accept T = R + bd S only if the dual cochain phi proves it optimal.

    R = T - bd S, so value = M(R) + M(S) is an upper bound for F(T).  phi is
    scaled down until |phi_i| <= vol_k(i) and |(delta phi)_j| <= vol_k+1(j);
    t.phi is then a lower bound.  Raises LPNumericalFailure when the two
    differ by more than CERT_RTOL * M(T).
    """
    cx = T.complex
    k = T.degree
    R = T if S is None else T - S.boundary()
    value = R.mass() + (0.0 if S is None else S.mass())
    t = T.vector()
    vol_k = cx.volumes(k)
    ratio = np.abs(phi) / vol_k
    if k < cx.top_degree:
        # |delta phi| plus a bound on its rounding error, so that the scaled
        # phi stays feasible as computed, even where faces outweigh cofaces
        faces, signs = cx.incidence_arrays(k + 1)
        dphi = np.abs((signs * phi[faces]).sum(axis=1))
        dphi += (k + 2) * EPS * np.abs(phi)[faces].sum(axis=1)
        ratio = np.concatenate([ratio, dphi / cx.volumes(k + 1)])
    rho = max(1.0, float(ratio.max(initial=0.0))) * (1.0 + 4 * EPS)
    phi = phi / rho
    gap = value - float(t @ phi)
    tol = CERT_RTOL * float(np.abs(t) @ vol_k)
    if not gap <= tol:
        raise LPNumericalFailure(
            f"{solver}: duality gap {gap:.3e} exceeds {tol:.3e} = {CERT_RTOL:g} M(T)"
            f" (value {value!r}, certificate scaled by 1/{rho!r})"
        )
    return FlatDecomposition(value, R, S, iterations, phi, solver, gap)


def _dual_arcs(cx: Complex, k: int, faces: np.ndarray, signs: np.ndarray):
    """(tail, head, sigma) of the dual graph when the LP is a circulation, else None.

    Node j < p is the (k+1)-simplex j, node p the ground.  With sigma_j, the
    sign of simplex j's n-vector, orienting it, face i runs from its coface
    of oriented incidence +1 to its coface of oriented incidence -1, and a
    face with one coface runs to or from the ground.  None unless k + 1 is both the top
    degree and the ambient dimension and every face has one coface of each
    oriented sign at most.
    """
    if not k + 1 == cx.top_degree == cx.dim:
        return None
    C = cx.all_coords(k + 1)
    sigma = np.sign(kvectors(C)[:, 0])
    oriented = (signs * sigma[:, None]).ravel()
    face = faces.ravel()
    node = np.repeat(np.arange(faces.shape[0]), k + 2)
    m = cx.n_simplices(k)
    out = np.bincount(face[oriented > 0], minlength=m)
    into = np.bincount(face[oriented < 0], minlength=m)
    if out.max(initial=0) > 1 or into.max(initial=0) > 1 or (out + into).min(initial=1) < 1:
        return None
    p = faces.shape[0]
    tail = np.full(m, p)
    head = np.full(m, p)
    tail[face[oriented > 0]] = node[oriented > 0]
    head[face[oriented < 0]] = node[oriented < 0]
    return tail, head, sigma


def _solve_flow(t, vol_k, vol_k1, tail, head, sigma):
    """Fill, certificate and pivots from the circulation dual of the flat-norm LP.

    Face arcs carry phi_i in [-vol_k(i), vol_k(i)] at cost -t_i; simplex j's
    arc to the ground carries its share of delta phi, bounded by vol_k+1(j).
    The potentials pi give the fill: s_j = sigma_j (pi_ground - pi_j).
    """
    m, p = t.size, vol_k1.size
    res = min_cost_circulation(
        np.concatenate([tail, np.arange(p)]),
        np.concatenate([head, np.full(p, p)]),
        np.concatenate([vol_k, vol_k1]),
        np.concatenate([-t, np.zeros(p)]),
        star=np.arange(m, m + p),
    )
    s = sigma * (res.potential[p] - res.potential[:p])
    return s, res.flow[:m], res.pivots


def _solve_interior(t, vol_k, vol_k1, faces, signs):
    """Fill, certificate and iterations from a primal-dual interior-point solve.

    Mehrotra's predictor-corrector on the sign-split LP min c.x, A x = t,
    x >= 0, with x = (r+, r-, s+, s-), A = [I, -I, B, -B] and c = (vol_k,
    vol_k, vol_k+1, vol_k+1).  It starts feasible, x = (t+ + 1, t- + 1, 1, 1),
    y = 0, z = c, and stops when x.z <= IPM_GAP max(1, c.x): `certify`
    recomputes R = T - bd S exactly, so the primal residual needs no test.
    Each step solves the normal equations with the m x m matrix
    diag(d_r+ + d_r-) + B diag(d_s+ + d_s-) B^T, d = x / z, the only dense
    array; B and B^T act through the incidence arrays.  The equality duals y
    are the certificate.
    """
    m, p = t.size, vol_k1.size
    face = faces.ravel()
    pair = (faces[:, :, None] * m + faces[:, None, :]).ravel()
    pair_sign = (signs[:, :, None] * signs[:, None, :]).reshape(p, -1)
    diag = np.arange(m) * (m + 1)

    def A(v):
        r, s = v[:m] - v[m : 2 * m], v[2 * m : 2 * m + p] - v[2 * m + p :]
        return r + np.bincount(face, (signs * s[:, None]).ravel(), minlength=m)

    def At(y):
        bty = (signs * y[faces]).sum(axis=1)
        return np.concatenate([y, -y, bty, -bty])

    c = np.concatenate([vol_k, vol_k, vol_k1, vol_k1])
    x = np.concatenate([np.maximum(t, 0.0) + 1.0, np.maximum(-t, 0.0) + 1.0, np.ones(2 * p)])
    y = np.zeros(m)
    z = c.copy()
    it = 0
    while x @ z > IPM_GAP * max(1.0, c @ x) and it < IPM_MAX_ITER:
        it += 1
        d = x / z
        ds = d[2 * m : 2 * m + p] + d[2 * m + p :]
        M = np.bincount(pair, (pair_sign * ds[:, None]).ravel(), minlength=m * m)
        M[diag] += d[:m] + d[m : 2 * m]
        solve = _normal_solver(M.reshape(m, m))
        del M  # with `del solve` below, at most two m x m arrays are alive at once
        rp, rd = t - A(x), c - At(y) - z

        def newton(rc):
            dy = solve(rp + A(d * rd - rc / z))
            dz = rd - At(dy)
            return rc / z - d * dz, dy, dz

        dx, dy, dz = newton(-x * z)
        ap, ad = _step(x, dx), _step(z, dz)
        mu = (x @ z) / x.size
        sigma = (((x + ap * dx) @ (z + ad * dz)) / x.size / mu) ** 3
        dx, dy, dz = newton(sigma * mu - x * z - dx * dz)
        ap, ad = IPM_STEP * _step(x, dx), IPM_STEP * _step(z, dz)
        x += ap * dx
        y += ad * dy
        z += ad * dz
        del solve
    s = x[2 * m : 2 * m + p] - x[2 * m + p :]
    return s, y, it


def _step(v, dv):
    """Largest a <= 1 with v + a dv >= 0."""
    neg = dv < 0
    return min(1.0, float((-v[neg] / dv[neg]).min(initial=np.inf)))


def _normal_solver(M):
    """rhs -> M^-1 rhs by Cholesky, or by a diagonally scaled lstsq when Cholesky breaks down."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        e = 1.0 / np.sqrt(M.diagonal())
        Ms = e[:, None] * M * e
        return lambda r: e * np.linalg.lstsq(Ms, e * r, rcond=None)[0]
    return lambda r: _cholesky_solve(L, r)


def _cholesky_solve(L, r, block=64):
    """(L L^T)^-1 r by blocked forward and back substitution (numpy has no triangular solve)."""
    n = r.size
    w = r.copy()
    for i in range(0, n, block):
        j = i + block
        w[i:j] = np.linalg.solve(L[i:j, i:j], w[i:j])
        w[j:] -= L[j:, i:j] @ w[i:j]
    for j in range(n, 0, -block):
        i = max(0, j - block)
        w[i:j] = np.linalg.solve(L[i:j, i:j].T, w[i:j])
        w[:i] -= L[i:j, :i].T @ w[i:j]
    return w


def _solve_dense(t, vol_k, vol_k1, faces, signs):
    """Fill, certificate and pivots from the sign-split LP on the dense tableau.

    The certificate is the equality duals: phi_i = vol_k(i) minus the final
    reduced cost of the r+ column i.
    """
    m, p = t.size, vol_k1.size
    B = np.zeros((m, p))
    np.add.at(B, (faces, np.arange(p)[:, None]), signs)
    c = np.concatenate([vol_k, vol_k, vol_k1, vol_k1])
    basis = [i if t[i] >= 0 else m + i for i in range(m)]
    res = solve_lp(c, np.hstack([np.eye(m), -np.eye(m), B, -B]), t, basis=basis)
    s = res.x[2 * m : 2 * m + p] - res.x[2 * m + p :]
    return s, vol_k - res.reduced[:m], res.iterations


def flat_distance(A: Chain, B: Chain) -> float:
    """Flat distance F(A - B) on the common complex."""
    return flat_norm(A - B).value


@dataclass
class CauchyReport:
    """Successive-distance table for a sequence of chains."""

    distances: list[float]
    ratios: list[float]
    eps: float
    ratio_bound: float
    method: str
    passed: bool


def certify_cauchy(
    chains: list[Chain],
    eps: float = 1e-6,
    ratio_bound: float = 1.0,
    method: str = "flat",
) -> CauchyReport:
    """Certify that successive flat distances shrink geometrically below eps.

    method "flat" solves the LP for each difference; method "mass" uses
    mass(T_{i+1} - T_i), a rigorous upper bound for the flat distance
    (take S = 0), which certifies the Cauchy property without an LP solve.
    Fewer than two chains raise TooFewChains.
    """
    if len(chains) < 2:
        raise TooFewChains(f"need at least two chains, got {len(chains)}")
    for ch in chains[1:]:
        ch._check_compatible(chains[0])
    dist = [(b - a).mass() if method == "mass" else flat_distance(b, a) for a, b in zip(chains, chains[1:])]
    ratios = []
    passed = dist[-1] <= eps
    for d0, d1 in zip(dist, dist[1:]):
        if d0 > eps:
            r = d1 / d0
            ratios.append(r)
            if not r < ratio_bound:
                passed = False
        else:
            ratios.append(0.0 if d1 <= eps else np.inf)
            if d1 > eps:
                passed = False
    return CauchyReport(dist, ratios, eps, ratio_bound, method, passed)


def cochain_flat_norm(X) -> float:
    """Flat norm of a cochain: max pointwise comass of its form and coboundary form.

    Whitney realizations are affine per simplex, so the supremum of the
    (Euclidean, since n <= 3) pointwise comass is attained at vertices and
    the value is exact.
    """
    from .forms import whitney_realize

    w = whitney_realize(X)
    return max(w.vertex_comass_max(), w.d().vertex_comass_max())
