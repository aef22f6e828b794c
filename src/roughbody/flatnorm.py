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
case goes to the dense simplex.  Both solve a normalised problem (t over
max|t|, both volume vectors over one common scale) and both return a dual
k-cochain phi.  A result is accepted only when phi, scaled into
feasibility (|phi_i| <= vol_k(i), |(delta phi)_j| <= vol_k+1(j)), proves
the lower bound t.phi within CERT_RTOL * M(T) of the value M(R) + M(S).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import Chain
from .errors import AmbientTooSmall, LPNumericalFailure
from .mesh import Complex
from .netsimplex import min_cost_circulation
from .simplex_lp import solve_lp

CERT_RTOL = 1e-9  # accepted duality gap, relative to M(T)
S_DROP = 1e-12  # fill coefficients below this times max|t| are dropped
EPS = float(np.finfo(float).eps)


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


def flat_norm(T: Chain, ambient: Complex | None = None) -> FlatDecomposition:
    """Ambient-relative flat norm of T with an optimal, certified decomposition."""
    cx = T.complex
    if ambient is not None and ambient is not cx:
        raise AmbientTooSmall("chain does not live on the ambient complex")
    k = T.degree
    t = _dense(T)
    vol_k = cx.volumes(k)
    if k >= cx.top_degree:
        return certify(T, None, np.sign(t) * vol_k, "mass", 0)

    vol_k1 = cx.volumes(k + 1)
    tau = float(np.abs(t).max(initial=0.0)) or 1.0
    nu = float(max(vol_k.max(), vol_k1.max()))
    faces, signs = cx.incidence_arrays(k + 1)
    arcs = _dual_arcs(cx, k, faces, signs)
    if arcs is not None:
        s, phi, pivots = _solve_flow(t / tau, vol_k / nu, vol_k1 / nu, *arcs)
        solver = "network-simplex"
    else:
        s, phi, pivots = _solve_dense(t / tau, vol_k / nu, vol_k1 / nu, faces, signs)
        solver = "dense-simplex"
    S = Chain(cx, k + 1, {j: tau * s[j] for j in np.nonzero(np.abs(s) > S_DROP)[0]})
    return certify(T, S, nu * phi, solver, pivots)


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
    t = _dense(T)
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


def _dense(T: Chain) -> np.ndarray:
    t = np.zeros(T.complex.n_simplices(T.degree))
    for i, a in T.coeffs.items():
        t[i] = a
    return t


def _dual_arcs(cx: Complex, k: int, faces: np.ndarray, signs: np.ndarray):
    """(tail, head, sigma) of the dual graph when the LP is a circulation, else None.

    Node j < p is the (k+1)-simplex j, node p the ground.  With sigma_j =
    sign(det) orienting simplex j, face i runs from its coface of oriented
    incidence +1 to its coface of oriented incidence -1, and a face with one
    coface runs to or from the ground.  None unless k + 1 is both the top
    degree and the ambient dimension and every face has one coface of each
    oriented sign at most.
    """
    if not k + 1 == cx.top_degree == cx.dim:
        return None
    C = cx.all_coords(k + 1)
    sigma = np.sign(np.linalg.det(C[:, 1:] - C[:, :1]))
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


def flat_distance(A: Chain, B: Chain, ambient: Complex | None = None) -> float:
    """Flat distance F(A - B) on the common ambient complex."""
    return flat_norm(A - B, ambient).value


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
    ambient: Complex | None = None,
    eps: float = 1e-6,
    ratio_bound: float = 1.0,
    method: str = "flat",
) -> CauchyReport:
    """Certify that successive flat distances shrink geometrically below eps.

    method "flat" solves the LP for each difference; method "mass" uses
    mass(T_{i+1} - T_i), a rigorous upper bound for the flat distance
    (take S = 0), which certifies the Cauchy property without an LP solve.
    """
    if len(chains) < 2:
        raise ValueError("need at least two chains")
    for ch in chains[1:]:
        ch._check_compatible(chains[0])
    dist = []
    for a, b in zip(chains, chains[1:]):
        if method == "mass":
            dist.append((b - a).mass())
        else:
            dist.append(flat_distance(b, a, ambient))
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
