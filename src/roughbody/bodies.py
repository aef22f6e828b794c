"""Bodies, material surfaces, fractal prefractal sequences and traces.

A body is the indicator n-chain of a polytopal region (coefficients in
{0,1} on positively oriented top simplices).  Generalized (rough) bodies
are represented by prefractal approximant sequences together with a
flat-norm Cauchy certificate; no limit object is ever materialized.

The Koch approximants are carried by ancestry: all levels live on the
finest mesh, and level k is the set of triangles born at level k or
earlier.  A trace cuts only the part's complex, by the boundary-facet
planes of the generator, so no piece of the part's boundary crosses the
generator's boundary; each piece is classified by a barycentric test at its
barycenter.  No two-body overlay is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multivec
from .chains import Chain
from .errors import GeneratorOverlap, OverlayFailure, WrongDegree
from .flatnorm import CauchyReport, certify_cauchy
from .mesh import Complex, HalfSpace, build_complex, kvectors, refine_by_halfspace
from .simplex_lp import simplex_interiors_intersect


@dataclass
class Body:
    """Indicator chain of a polytopal region (degree n, coefficients in {0,1})."""

    chain: Chain

    def __post_init__(self):
        cx = self.chain.complex
        if self.chain.degree != cx.dim or self.chain.degree != cx.top_degree:
            raise WrongDegree("a body is a top-degree chain of full dimension")
        if (np.abs(self.chain.val - 1.0) > 1e-12).any():
            raise ValueError("body coefficients must be 1")

    @property
    def complex(self) -> Complex:
        return self.chain.complex

    def mass(self) -> float:
        return self.chain.mass()

    def boundary_mass(self) -> float:
        return self.chain.boundary().mass()


def body_from_simplices(cx: Complex, indices) -> Body:
    """Indicator body over the given top simplices (duplicates are idempotent).

    Simplices must be positively oriented so that the chain represents
    integration of n-forms over the region with multiplicity one.
    """
    if cx.top_degree != cx.dim:
        raise WrongDegree("complex carries no full-dimensional simplices")
    idx = np.array([int(i) for i in indices], dtype=np.intp)
    bad = idx[(idx < 0) | (idx >= cx.n_simplices(cx.dim))]
    if bad.size:
        raise WrongDegree(f"simplex index {bad[0]} out of range")
    bad = idx[kvectors(cx.all_coords(cx.dim)[idx])[:, 0] <= 0.0]
    if bad.size:
        raise ValueError(f"simplex {bad[0]} is negatively oriented; flip its vertex order")
    return _indicator(cx, np.unique(idx))


def _indicator(cx: Complex, idx: np.ndarray) -> Body:
    """The body on the top simplices idx (ascending, no repeats)."""
    return Body(Chain.from_terms(cx, cx.dim, idx, np.ones(len(idx))))


@dataclass
class Surface:
    """Restriction of a body's boundary to a facet subset, outward oriented."""

    chain: Chain
    body: Body
    facets: frozenset[int]

    @property
    def complex(self) -> Complex:
        return self.chain.complex

    def mass(self) -> float:
        return self.chain.mass()


def geometric_boundary_surface(body: Body) -> Surface:
    """Boundary surface rebuilt from outward normals (Stokes route).

    For each boundary facet the tangent is nu* -| (e_1 ^ ... ^ e_n) with nu
    the outward unit normal; the resulting chain must equal boundary(body)
    coefficientwise, which the caller can assert as the Stokes identity.
    """
    cx = body.complex
    n = cx.dim
    if body.chain.is_zero():
        raise WrongDegree("empty body has no boundary surface")
    bnd = body.chain.boundary()
    facets = bnd.idx
    # each boundary facet's owning body simplex and, opposite it there, the owner's vertex
    tops = body.chain.idx
    flat = cx.incidence_arrays(n)[0][tops].ravel()
    order = np.argsort(flat, kind="stable")
    at = order[np.searchsorted(flat[order], facets)]
    opposite = cx.arrays[n][tops[at // (n + 1)], at % (n + 1)]
    C = cx.all_coords(n - 1)[facets]
    nu = _unit_normals(C)
    nu *= np.sign(np.einsum("ij,ij->i", nu, C.mean(axis=1) - cx.vertices[opposite]))[:, None]
    vol_vec = np.zeros(multivec.dim(n, n))
    vol_vec[0] = 1.0  # e_1 ^ ... ^ e_n
    star = np.array([multivec.contract(e, 1, vol_vec, n, n) for e in np.eye(n)])
    sign = np.einsum("ij,ij->i", nu @ star, cx.unit_tangents(n - 1)[facets])
    chain = Chain.from_terms(cx, n - 1, facets, np.where(sign > 0, 1.0, -1.0))
    return Surface(chain, body, frozenset(facets.tolist()))


def surface_from_facets(body: Body, facet_indices) -> Surface:
    """Material surface: the body's boundary restricted to selected facets."""
    bnd = body.chain.boundary()
    sel = np.unique(np.array([int(i) for i in facet_indices], dtype=np.intp))
    missing = sel[~np.isin(sel, bnd.idx)]
    if missing.size:
        raise WrongDegree(f"facets {missing.tolist()} are not boundary facets of the body")
    return Surface(bnd.select(np.isin(bnd.idx, sel)), body, frozenset(sel.tolist()))


# -- Koch prefractals -------------------------------------------------------


def _rot60(v: np.ndarray) -> np.ndarray:
    c, s = 0.5, -np.sqrt(3.0) / 2.0  # -60 degrees: outward for a CCW loop
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _koch_build(levels: int) -> tuple[np.ndarray, list, list]:
    """Hierarchical Koch construction: finest points, triangles and birth levels.

    Each step trisects the boundary edges, re-cones the triangles touching
    them (keeping the complex free of T-junctions) and attaches the bump
    triangles.  A kept or re-coned triangle inherits its parent's birth
    level and a bump attached at step j is born at j, so the level-k body
    is exactly the set of triangles born at level <= k.
    """
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    pool_pts = [base[i] for i in range(3)]
    tris: list[tuple[int, int, int]] = [(0, 1, 2)]
    born = [0]
    loop = [0, 1, 2]
    for step in range(1, levels + 1):
        pts = np.asarray(pool_pts)
        boundary_edges = {}
        for a, b in zip(loop, loop[1:] + loop[:1]):
            q1 = pts[a] + (pts[b] - pts[a]) / 3.0
            q2 = pts[a] + 2.0 * (pts[b] - pts[a]) / 3.0
            tip = pts[a] + (pts[b] - pts[a]) / 3.0 + _rot60(q2 - q1)
            i1 = len(pool_pts); pool_pts.append(q1)
            i2 = len(pool_pts); pool_pts.append(q2)
            it = len(pool_pts); pool_pts.append(tip)
            boundary_edges[frozenset((a, b))] = (a, b, i1, i2, it)
        new_tris: list[tuple[int, int, int]] = []
        new_born: list[int] = []
        for t, level in zip(tris, born):
            touched = [frozenset((t[i], t[(i + 1) % 3])) in boundary_edges for i in range(3)]
            if not any(touched):
                new_tris.append(t)
                new_born.append(level)
                continue
            centroid = np.mean([pool_pts[v] for v in t], axis=0)
            ic = len(pool_pts); pool_pts.append(centroid)
            for i in range(3):
                a, b = t[i], t[(i + 1) % 3]
                key = frozenset((a, b))
                if key in boundary_edges:
                    ea, eb, i1, i2, _ = boundary_edges[key]
                    seq = (ea, i1, i2, eb) if ea == a else (eb, i2, i1, ea)
                    for u, v in zip(seq, seq[1:]):
                        new_tris.append((ic, u, v))
                else:
                    new_tris.append((ic, a, b))
            new_born += [level] * (len(new_tris) - len(new_born))
        bumps, new_loop = [], []
        for a, b in zip(loop, loop[1:] + loop[:1]):
            ea, eb, i1, i2, it = boundary_edges[frozenset((a, b))]
            if ea != a:
                i1, i2 = i2, i1
            bumps.append((i1, i2, it))
            new_loop.extend([a, i1, it, i2])
        bumps = np.array(bumps)
        flip = kvectors(np.asarray(pool_pts)[bumps])[:, 0] < 0
        bumps[flip, :2] = bumps[flip, 1::-1]
        new_tris += [tuple(t) for t in bumps.tolist()]
        new_born += [step] * len(bumps)
        tris, born, loop = new_tris, new_born, new_loop
    return np.asarray(pool_pts), tris, born


def _koch_area(level: int) -> float:
    """Closed-form area of the level-k Koch snowflake of unit base side."""
    return np.sqrt(3.0) / 4.0 * (1.0 + 3.0 / 5.0 * (1.0 - (4.0 / 9.0) ** level))


def koch_prefractal(level: int) -> Body:
    """Triangulated level-k Koch snowflake body of unit base side."""
    if level < 0:
        raise ValueError("level must be >= 0")
    points, tris, _ = _koch_build(level)
    cx = build_complex(points, {2: tris}, check_overlap=False)
    return _indicator(cx, np.arange(len(tris)))


@dataclass
class GeneralizedBody:
    """Prefractal approximant sequence with a flat-norm Cauchy certificate."""

    bodies: list[Body]
    report: CauchyReport


def koch_generalized_body(levels: int, eps: float = 1e-2, method: str = "mass") -> GeneralizedBody:
    """Koch snowflake as a certified prefractal sequence on one common mesh.

    Every level-k body is the set of finest triangles born at level <= k,
    so all levels live on the one finest complex and successive distances
    are computed there; each level's area is checked against the closed
    form.  Method "mass" uses mass(T_{k+1} - T_k) = annexed area, a
    rigorous flat-distance upper bound.  A sequence needs levels >= 1: level
    0 alone is one chain, and certify_cauchy raises TooFewChains.
    """
    points, tris, born = _koch_build(levels)
    finest = build_complex(points, {2: tris}, check_overlap=False)
    born = np.asarray(born)
    bodies = []
    for k in range(levels + 1):
        body = _indicator(finest, np.flatnonzero(born <= k))
        area = _koch_area(k)
        if abs(body.mass() - area) > 1e-9 * area:
            raise OverlayFailure(f"level-{k} body has area {body.mass()}, not {area}")
        bodies.append(body)
    report = certify_cauchy([b.chain for b in bodies], eps=eps, method=method)
    return GeneralizedBody(bodies, report)


# -- traces -----------------------------------------------------------------


def _unit_normals(C: np.ndarray) -> np.ndarray:
    """Unit normals of (n-1)-simplices in R^n, coordinates C of shape (m, n, n).

    Each is the Hodge dual of the simplex's (n-1)-vector, normalised.
    """
    n = C.shape[2]
    nu = (kvectors(C) * (-1.0) ** np.arange(n))[:, ::-1]
    return nu / np.linalg.norm(nu, axis=1)[:, None]


def _boundary_halfspaces(body: Body) -> list[HalfSpace]:
    """Deduplicated supporting hyperplanes of the body's boundary facets.

    Two planes are one when their unit normals and their offsets over the
    mesh diameter agree to 1e-9.
    """
    cx = body.complex
    C = cx.all_coords(cx.dim - 1)[body.chain.boundary().idx]
    nu = _unit_normals(C)
    # canonical sign: first component above 1e-12 in magnitude positive
    lead = nu[np.arange(len(nu)), np.argmax(np.abs(nu) > 1e-12, axis=1)]
    nu[lead < 0] *= -1.0
    offsets = np.einsum("ij,ij->i", nu, C[:, 0])
    diam = cx.diameter()
    seen = set()
    out = []
    for normal, s in zip(nu.tolist(), offsets.tolist()):
        key = tuple(round(v / 1e-9) for v in (*normal, s / diam))
        if key not in seen:
            seen.add(key)
            out.append(HalfSpace(tuple(normal), s))
    return out


def _inside(body: Body, X: np.ndarray) -> np.ndarray:
    """Which of the points X, shape (m, n), lie in the body's closed region.

    A point is inside when its barycentric coordinates in some body
    simplex are all >= -1e-9; each simplex tests every point at once.
    """
    cx = body.complex
    n = cx.dim
    hit = np.zeros(len(X), dtype=bool)
    for i in body.chain.idx.tolist():
        G = cx.barygrads[i]
        hit |= np.all(X @ G[:, :n].T + G[:, n] >= -1e-9, axis=1)
    return hit


def _shared_facet(part: Body, generator: Body) -> tuple[int, int] | None:
    """The first (part facet, generator facet) pair of boundary facets sharing area, or None.

    Pairs are met part facet first.  One array pass per generator facet keeps
    the part facets whose hyperplane holds each of its vertices to within
    1e-9 x the larger mesh diameter: no narrower than the cut's vertex
    snapping and `_inside`'s slack, so a generator facet a hair off a part
    facet is refused, not traced.  Only those pairs are projected, dropping
    the coordinate of the largest normal component, and compared exactly.
    """
    n = part.complex.dim
    tol = 1e-9 * max(part.complex.diameter(), generator.complex.diameter())
    ia, ib = part.chain.boundary().idx, generator.chain.boundary().idx
    A = part.complex.all_coords(n - 1)[ia]
    B = generator.complex.all_coords(n - 1)[ib]
    nu = _unit_normals(A)
    near = sorted(
        (a, j)
        for j in range(len(B))
        for a in np.flatnonzero((np.abs(np.einsum("ivk,ik->iv", B[j] - A[:, :1], nu)) <= tol).all(axis=1)).tolist()
    )
    for a, j in near:
        keep = np.arange(n) != np.argmax(np.abs(nu[a]))
        if n == 1 or simplex_interiors_intersect(A[a][:, keep], B[j][:, keep]):  # in 1-D: coincident points
            return int(ia[a]), int(ib[j])
    return None


def trace(part: Body, generator: Body) -> tuple[Chain, Complex]:
    """Trace current boundary(P cap M) - boundary(M) restricted to P.

    `part` is the body (a prefractal level of a generalized body or a
    polytopal body); `generator` is the finite-perimeter generator M.  The
    precondition H^{n-1}(boundary(P) cap boundary(M)) = 0 is checked by
    `_shared_facet`; a shared facet raises GeneratorOverlap.  Under it the
    trace is boundary(P) restricted to M, taken on (and returned with) the
    part's complex cut by every boundary-facet plane of M, where no piece
    crosses boundary(M).
    """
    if part.complex.dim != generator.complex.dim:
        raise OverlayFailure("bodies live in different ambient dimensions")
    shared = _shared_facet(part, generator)
    if shared is not None:
        raise GeneratorOverlap("facet %d of the body lies inside facet %d of the generator" % shared)
    bnd = part.chain.boundary()
    for hs in _boundary_halfspaces(generator):
        bnd = refine_by_halfspace(bnd.complex, hs).carry_chain(bnd)
    cx = bnd.complex
    return bnd.select(_inside(generator, cx.barycenters(cx.dim - 1)[bnd.idx])), cx
