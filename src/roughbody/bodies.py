"""Bodies, material surfaces, fractal prefractal sequences and traces.

A body is the indicator n-chain of a polytopal region (coefficients in
{0,1} on positively oriented top simplices).  Generalized (rough) bodies
are represented by prefractal approximant sequences together with a
flat-norm Cauchy certificate; no limit object is ever materialized.

The Koch approximants are carried by ancestry: all levels live on the
finest mesh, and level k is the set of triangles born at level k or
earlier.  Overlays cut a box only by the boundary-facet planes of both
bodies, so every overlay cell lies wholly inside or outside each body and
is classified by a barycentric test at its barycenter.
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

ORIENTATION_TOL = 1e-12


@dataclass
class Body:
    """Indicator chain of a polytopal region (degree n, coefficients in {0,1})."""

    chain: Chain

    def __post_init__(self):
        cx = self.chain.complex
        if self.chain.degree != cx.dim or self.chain.degree != cx.top_degree:
            raise WrongDegree("a body is a top-degree chain of full dimension")
        for i, a in self.chain.coeffs.items():
            if abs(a - 1.0) > 1e-12:
                raise ValueError("body coefficients must be 1")

    @property
    def complex(self) -> Complex:
        return self.chain.complex

    def mass(self) -> float:
        return self.chain.mass()

    def boundary_mass(self) -> float:
        return self.chain.boundary().mass()


def _positively_oriented(cx: Complex, idx: int) -> bool:
    C = cx.coords(cx.top_degree, idx)
    E = (C[1:] - C[0]).T
    return np.linalg.det(E) > 0.0


def body_from_simplices(cx: Complex, indices) -> Body:
    """Indicator body over the given top simplices (duplicates are idempotent).

    Simplices must be positively oriented so that the chain represents
    integration of n-forms over the region with multiplicity one.
    """
    if cx.top_degree != cx.dim:
        raise WrongDegree("complex carries no full-dimensional simplices")
    coeffs: dict[int, float] = {}
    for i in indices:
        i = int(i)
        if i < 0 or i >= cx.n_simplices(cx.dim):
            raise WrongDegree(f"simplex index {i} out of range")
        if not _positively_oriented(cx, i):
            raise ValueError(f"simplex {i} is negatively oriented; flip its vertex order")
        coeffs[i] = 1.0
    return Body(Chain(cx, cx.dim, coeffs))


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
    if not body.chain.coeffs:
        raise WrongDegree("empty body has no boundary surface")
    bnd = body.chain.boundary()
    vol_vec = np.zeros(multivec.dim(n, n))
    vol_vec[0] = 1.0  # e_1 ^ ... ^ e_n
    owners: dict[int, int] = {}
    faces = cx.incidence_arrays(n)[0]
    for tidx in body.chain.coeffs:
        for fidx in faces[tidx].tolist():
            owners.setdefault(fidx, tidx)
    coeffs: dict[int, float] = {}
    for fidx in bnd.coeffs:
        owner = owners.get(fidx)
        if owner is None:
            raise RuntimeError("boundary facet without an owning body simplex")
        fverts = set(cx.simplices[n - 1][fidx])
        opposite = next(v for v in cx.simplices[n][owner] if v not in fverts)
        fcoords = cx.coords(n - 1, fidx)
        span = (fcoords[1:] - fcoords[0]).T if n > 1 else np.zeros((n, 0))
        away = fcoords.mean(axis=0) - cx.vertices[opposite]
        if span.size:
            proj = span @ np.linalg.pinv(span) @ away
            nu = away - proj
        else:
            nu = away
        nu = nu / np.linalg.norm(nu)
        tangent = multivec.contract(nu, 1, vol_vec, n, n)
        xi = cx.unit_tangent(n - 1, fidx).components
        sign = float(np.dot(tangent, xi))
        coeffs[fidx] = 1.0 if sign > 0 else -1.0
    chain = Chain(cx, n - 1, coeffs)
    return Surface(chain, body, frozenset(bnd.coeffs))


def surface_from_facets(body: Body, facet_indices) -> Surface:
    """Material surface: the body's boundary restricted to selected facets."""
    bnd = body.chain.boundary()
    sel = {int(i) for i in facet_indices}
    missing = sel - set(bnd.coeffs)
    if missing:
        raise WrongDegree(f"facets {sorted(missing)} are not boundary facets of the body")
    return Surface(
        Chain(body.complex, body.complex.dim - 1, {i: bnd.coeffs[i] for i in sel}),
        body,
        frozenset(sel),
    )


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
        for a, b in zip(loop, loop[1:] + loop[:1]):
            ea, eb, i1, i2, it = boundary_edges[frozenset((a, b))]
            if ea != a:
                i1, i2 = i2, i1
            tri = (i1, i2, it)
            E = np.array([pool_pts[tri[1]] - pool_pts[tri[0]], pool_pts[tri[2]] - pool_pts[tri[0]]]).T
            if np.linalg.det(E) < 0:
                tri = (i2, i1, it)
            new_tris.append(tri)
            new_born.append(step)
        new_loop = []
        for a, b in zip(loop, loop[1:] + loop[:1]):
            ea, eb, i1, i2, it = boundary_edges[frozenset((a, b))]
            if ea != a:
                i1, i2 = i2, i1
            new_loop.extend([a, i1, it, i2])
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
    return Body(Chain(cx, 2, {i: 1.0 for i in range(len(tris))}))


@dataclass
class GeneralizedBody:
    """Prefractal approximant sequence with a flat-norm Cauchy certificate."""

    bodies: list[Body]
    report: CauchyReport

    def level(self, k: int) -> Body:
        return self.bodies[k]


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
        body = Body(Chain(finest, 2, dict.fromkeys(np.flatnonzero(born <= k).tolist(), 1.0)))
        area = _koch_area(k)
        if abs(body.mass() - area) > 1e-9 * area:
            raise OverlayFailure(f"level-{k} body has area {body.mass()}, not {area}")
        bodies.append(body)
    report = certify_cauchy([b.chain for b in bodies], finest, eps=eps, method=method)
    return GeneralizedBody(bodies, report)


# -- overlays and traces ------------------------------------------------------


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
    C = cx.all_coords(cx.dim - 1)[sorted(body.chain.boundary().coeffs)]
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
    for i in body.chain.coeffs:
        G = cx.barygrads(i)
        hit |= np.all(X @ G[:, :n].T + G[:, n] >= -1e-9, axis=1)
    return hit


def common_refinement(a: Body, b: Body) -> tuple[Complex, Body, Body]:
    """Overlay complex on which both bodies are simplicial, volumes preserved.

    A padded bounding-box mesh is refined by the hyperplanes of the
    boundary facets of both bodies.  No overlay cell then crosses either
    boundary, so each cell lies wholly inside or outside each body and is
    classified by its barycenter.
    """
    if a.complex.dim != b.complex.dim:
        raise OverlayFailure("bodies live in different ambient dimensions")
    from .generate import cube_mesh, grid_mesh, segment_mesh  # generate imports this module

    points = np.vstack([a.complex.vertices, b.complex.vertices])
    pad = 0.125 * float(np.ptp(points, axis=0).max())
    lo, hi = points.min(axis=0) - pad, points.max(axis=0) + pad
    n = len(lo)
    cx = segment_mesh(1, lo[0], hi[0]) if n == 1 else grid_mesh(1, 1, lo, hi) if n == 2 else cube_mesh(1, 1, 1, lo, hi)
    for hs in _boundary_halfspaces(a) + _boundary_halfspaces(b):
        cx = refine_by_halfspace(cx, hs).complex
    barys = cx.barycenters(cx.top_degree)
    body_a, body_b = (
        Body(Chain(cx, cx.dim, dict.fromkeys(np.flatnonzero(_inside(body, barys)).tolist(), 1.0)))
        for body in (a, b)
    )
    for orig, new in ((a, body_a), (b, body_b)):
        if abs(orig.mass() - new.mass()) > 1e-10 * orig.mass():
            raise OverlayFailure(
                f"volume drifted from {orig.mass()} to {new.mass()} in the overlay"
            )
    return cx, body_a, body_b


def _coplanar_overlap(cx_a: Complex, ia: int, cx_b: Complex, ib: int, tol: float) -> bool:
    """Positive (n-1)-measure overlap of two facets (same supporting plane).

    B lies in A's hyperplane when its vertices are within tol of it.  Both
    facets are then projected by dropping the coordinate along which the
    hyperplane's normal is largest, an exact and injective map on that
    hyperplane, and their interiors are compared in n - 1 dimensions.
    """
    A = cx_a.coords(cx_a.dim - 1, ia)
    B = cx_b.coords(cx_b.dim - 1, ib)
    n = cx_a.dim
    normal = _unit_normals(A[None])[0]
    if np.abs((B - A[0]) @ normal).max() > tol:
        return False
    if n == 1:
        return True  # coincident points
    keep = np.arange(n) != np.argmax(np.abs(normal))
    return simplex_interiors_intersect(A[:, keep], B[:, keep])


def trace(part: Body, generator: Body) -> tuple[Chain, Complex]:
    """Trace current boundary(P cap M) - boundary(M) restricted to P.

    `part` is the body (a prefractal level of a generalized body or a
    polytopal body); `generator` is the finite-perimeter generator M.  The
    precondition H^{n-1}(boundary(P) cap boundary(M)) = 0 is enforced by
    exact facet-coincidence testing.
    """
    tol = 1e-9 * max(part.complex.diameter(), generator.complex.diameter())
    bnd_p = part.chain.boundary()
    bnd_m = generator.chain.boundary()
    for ia in bnd_p.coeffs:
        for ib in bnd_m.coeffs:
            if _coplanar_overlap(part.complex, ia, generator.complex, ib, tol):
                raise GeneratorOverlap(
                    f"facet {ia} of the body lies inside facet {ib} of the generator"
                )
    cx, bp, bm = common_refinement(part, generator)
    inter = Chain(
        cx, cx.dim, {i: 1.0 for i in set(bp.chain.coeffs) & set(bm.chain.coeffs)}
    )
    first = inter.boundary()
    bm_bnd = bm.chain.boundary()
    facets = np.array(list(bm_bnd.coeffs), dtype=np.intp)
    inside = facets[_inside(part, cx.barycenters(cx.dim - 1)[facets])]
    second = Chain(cx, cx.dim - 1, {i: bm_bnd.coeffs[i] for i in inside.tolist()})
    return first - second, cx
