"""Oriented simplicial complexes in R^n (n <= 3).

A Complex stores, per degree k, ordered vertex-index tuples (the order is
the orientation) together with signed incidence tables.  Face tables are
derived automatically and shared faces appear exactly once, which makes
the combinatorial identity "boundary of boundary = 0" structural.

The half-space splitter produces an exact simplicial refinement with the
cut hyperplane as an interface.  Sub-polytopes are triangulated with the
pulling rule (cone from the globally smallest vertex id, quads split along
the diagonal through their smallest vertex), which makes the piece
triangulations of shared faces agree between neighbouring simplices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial

import numpy as np

from .errors import DegenerateSimplex, NonManifoldOverlap
from .multivec import MultiVector, simple_from_columns
from .simplex_lp import simplex_interiors_intersect

DEGENERACY_TOL = 1e-12
COORD_SNAP = 1e-12
VALUE_SNAP = 1e-10


@dataclass(frozen=True)
class HalfSpace:
    """Closed half space {x : lam . x >= s} with lam != 0."""

    lam: tuple[float, ...]
    s: float

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if not np.any(lam != 0.0):
            raise ValueError("half-space functional must be nonzero")
        object.__setattr__(self, "lam", tuple(float(v) for v in lam))

    def unit(self) -> tuple[np.ndarray, float]:
        lam = np.asarray(self.lam)
        nrm = float(np.linalg.norm(lam))
        return lam / nrm, self.s / nrm

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        lam, s = self.unit()
        return np.asarray(points) @ lam - s


def _perm_parity(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Parity of the permutation taking tuple a to tuple b (same elements)."""
    perm = [b.index(x) for x in a]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class Complex:
    """Immutable oriented simplicial complex; use build_complex to construct."""

    def __init__(self, dim, vertices, simplices, index, incidence, face_parent):
        self.dim = dim
        self.vertices = vertices
        self.simplices = simplices
        self.index = index
        self.incidence = incidence
        self.face_parent = face_parent
        self.top_degree = max(k for k, lst in simplices.items() if lst)
        self.validation: dict[str, bool] = {}
        self._volumes: dict[int, np.ndarray] = {}
        self._tangents: dict[int, np.ndarray] = {}
        self._barygrads: dict[tuple[int, int], np.ndarray] = {}
        self._incidence_arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- basic geometry ------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices.get(k, []))

    def coords(self, k: int, idx: int) -> np.ndarray:
        return self.vertices[list(self.simplices[k][idx])]

    def all_coords(self, k: int) -> np.ndarray:
        tuples = np.asarray(self.simplices[k], dtype=int)
        return self.vertices[tuples]

    def volumes(self, k: int) -> np.ndarray:
        if k not in self._volumes:
            if k == 0:
                self._volumes[k] = np.ones(self.n_simplices(0))
            else:
                C = self.all_coords(k)
                E = C[:, 1:, :] - C[:, :1, :]
                gram = E @ E.transpose(0, 2, 1)
                det = np.linalg.det(gram)
                self._volumes[k] = np.sqrt(np.maximum(det, 0.0)) / factorial(k)
        return self._volumes[k]

    def incidence_arrays(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(faces, signs), each (m_k, k + 1): row j lists simplex j's facets and incidences."""
        if k not in self._incidence_arrays:
            rows = np.asarray(self.incidence[k], dtype=np.intp).reshape(self.n_simplices(k), k + 1, 2)
            self._incidence_arrays[k] = (rows[:, :, 0], rows[:, :, 1])
        return self._incidence_arrays[k]

    def volume(self, k: int, idx: int) -> float:
        return float(self.volumes(k)[idx])

    def barycenters(self, k: int) -> np.ndarray:
        return self.all_coords(k).mean(axis=1)

    def unit_tangent(self, k: int, idx: int) -> MultiVector:
        if k == 0:
            return MultiVector(self.dim, 0, np.array([1.0]))
        C = self.coords(k, idx)
        E = (C[1:] - C[0]).T
        comps = simple_from_columns(E)
        nrm = np.linalg.norm(comps)
        if nrm == 0.0:
            raise DegenerateSimplex(f"degree-{k} simplex {idx} has zero volume")
        return MultiVector(self.dim, k, comps / nrm)

    def barygrads(self, idx: int, k: int | None = None) -> np.ndarray:
        """Rows i: (g_i, h_i) with lambda_i(x) = g_i . x + h_i on simplex idx.

        Gradients are tangential (minimum-norm) when the simplex has
        degree below the ambient dimension.
        """
        k = self.top_degree if k is None else k
        key = (k, idx)
        if key not in self._barygrads:
            C = self.coords(k, idx)
            B = np.hstack([C, np.ones((C.shape[0], 1))])
            self._barygrads[key] = np.linalg.pinv(B).T
        return self._barygrads[key]

    def containing_top(self, k: int, idx: int) -> int:
        """Index of a top-degree simplex having (k, idx) as an iterated face."""
        cur_k, cur = k, idx
        while cur_k < self.top_degree:
            parent = self.face_parent[cur_k][cur]
            if parent < 0:
                raise ValueError(f"simplex ({k},{idx}) is not a face of any top simplex")
            cur_k, cur = cur_k + 1, parent
        return cur

    def faces(self, k: int, idx: int, j: int) -> list[int]:
        """Indices of the j-faces of simplex (k, idx)."""
        verts = self.simplices[k][idx]
        return [self.index[j][frozenset(c)] for c in combinations(verts, j + 1)]

    def diameter(self) -> float:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))


def _longest_edges(C: np.ndarray) -> np.ndarray:
    m, v, _ = C.shape
    best = np.zeros(m)
    for i in range(v):
        for j in range(i + 1, v):
            d = np.linalg.norm(C[:, i, :] - C[:, j, :], axis=1)
            best = np.maximum(best, d)
    return best


def build_complex(vertices, simplices, check_overlap: bool = True) -> Complex:
    """Assemble a complex from vertex coordinates and per-degree simplex lists.

    Faces of the given simplices are derived automatically; a face shared by
    several simplices is stored once.  Raises ValueError for a vertex with a
    non-finite coordinate, DegenerateSimplex for simplices of numerically
    zero volume and NonManifoldOverlap when two same-degree simplices have
    intersecting relative interiors (top degree and explicitly given degrees
    are tested; disable with check_overlap=False for trusted input).  The
    overlap test is exact (see first_overlapping_pair): shared faces never
    count, and no overlap is too shallow to be found.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] not in (1, 2, 3):
        raise ValueError("vertices must be (V, n) with n in {1, 2, 3}")
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if bad.size:
        raise ValueError(f"vertex {bad[0]} has a non-finite coordinate {vertices[bad[0]]}")
    nv = vertices.shape[0]

    table: dict[int, list[tuple[int, ...]]] = {0: [(i,) for i in range(nv)]}
    index: dict[int, dict[frozenset, int]] = {0: {frozenset((i,)): i for i in range(nv)}}
    explicit_degrees = set()

    for k in sorted(simplices):
        entries = [tuple(int(v) for v in s) for s in simplices[k]]
        if not entries:
            continue
        if k == 0:
            for s in entries:
                if s[0] < 0 or s[0] >= nv:
                    raise ValueError(f"vertex index {s[0]} out of range")
            continue
        explicit_degrees.add(k)
        table.setdefault(k, [])
        index.setdefault(k, {})
        for s in entries:
            if len(s) != k + 1:
                raise ValueError(f"degree-{k} simplex {s} has {len(s)} vertices")
            if any(v < 0 or v >= nv for v in s):
                raise ValueError(f"simplex {s} references a missing vertex")
            if len(set(s)) != len(s):
                raise DegenerateSimplex(f"simplex {s} repeats a vertex")
            key = frozenset(s)
            if key in index[k]:
                stored = table[k][index[k][key]]
                if stored != s and _perm_parity(s, stored) != 1:
                    raise ValueError(f"simplex {s} duplicates {stored} with opposite orientation")
                continue
            index[k][key] = len(table[k])
            table[k].append(s)

    max_deg = max(table)
    incidence: dict[int, list[list[tuple[int, int]]]] = {}
    face_parent: dict[int, list[int]] = {}
    for k in range(max_deg, 0, -1):
        table.setdefault(k - 1, [])
        index.setdefault(k - 1, {})
        incidence[k] = []
        if k - 1 not in face_parent:
            face_parent[k - 1] = [-1] * len(table[k - 1])
        for idx, s in enumerate(table[k]):
            row = []
            for i in range(k + 1):
                face = s[:i] + s[i + 1 :]
                key = frozenset(face)
                fidx = index[k - 1].get(key)
                if fidx is None:
                    fidx = len(table[k - 1])
                    index[k - 1][key] = fidx
                    table[k - 1].append(face)
                    face_parent[k - 1].append(idx)
                elif face_parent[k - 1][fidx] < 0:
                    face_parent[k - 1][fidx] = idx
                sign = (1 if i % 2 == 0 else -1) * _perm_parity(face, table[k - 1][fidx])
                row.append((fidx, sign))
            incidence[k].append(row)

    cx = Complex(vertices.shape[1], vertices, table, index, incidence, face_parent)

    # degeneracy (scale-aware)
    for k in range(1, max_deg + 1):
        if not table[k]:
            continue
        vols = cx.volumes(k)
        scale = _longest_edges(cx.all_coords(k)) ** k
        bad = np.nonzero(vols < DEGENERACY_TOL * np.maximum(scale, 1e-300))[0]
        if bad.size:
            raise DegenerateSimplex(f"degree-{k} simplex {int(bad[0])} is degenerate")

    # boundary of boundary vanishes, combinatorially
    for k in range(2, max_deg + 1):
        for idx in range(len(table[k])):
            acc: dict[int, int] = {}
            for fidx, sgn in incidence[k][idx]:
                for gidx, sgn2 in incidence[k - 1][fidx]:
                    acc[gidx] = acc.get(gidx, 0) + sgn * sgn2
            if any(v != 0 for v in acc.values()):
                raise RuntimeError("incidence construction violated del o del = 0")

    cx.validation = {"degeneracy": True, "boundary_of_boundary": True, "disjoint_interiors": False}
    if check_overlap:
        for k in ({max_deg} | explicit_degrees) - {0}:
            pair = first_overlapping_pair(cx.all_coords(k))
            if pair is not None:
                raise NonManifoldOverlap(f"degree-{k} simplices {pair[0]} and {pair[1]} overlap")
        cx.validation["disjoint_interiors"] = True
    return cx


def first_overlapping_pair(C: np.ndarray) -> tuple[int, int] | None:
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


# -- operations ---------------------------------------------------------


def simplex_volume(cx: Complex, k: int, idx: int) -> float:
    """k-dimensional Hausdorff volume of one simplex (Gram determinant route)."""
    return cx.volume(k, idx)


def unit_tangent(cx: Complex, k: int, idx: int) -> MultiVector:
    """Simple unit k-vector spanning the simplex, oriented by vertex order."""
    return cx.unit_tangent(k, idx)


# -- half-space splitting ------------------------------------------------


class _VertexPool:
    """Vertex registry with coordinate-snap deduplication."""

    def __init__(self, coords: np.ndarray):
        self.coords = [np.asarray(c, dtype=float) for c in coords]
        self._lookup = {self._key(c): i for i, c in enumerate(self.coords)}

    @staticmethod
    def _key(c) -> tuple[int, ...]:
        return tuple(int(round(x / COORD_SNAP)) for x in c)

    def add(self, c: np.ndarray) -> int:
        key = self._key(c)
        idx = self._lookup.get(key)
        if idx is None:
            idx = len(self.coords)
            self.coords.append(np.asarray(c, dtype=float))
            self._lookup[key] = idx
        return idx

    def array(self) -> np.ndarray:
        return np.asarray(self.coords)


def _quad_triangles(cycle: tuple[int, int, int, int]) -> list[tuple[int, int, int]]:
    """Split a quad cycle along the diagonal through its smallest vertex id."""
    pos = cycle.index(min(cycle))
    a, b, c, d = (cycle[(pos + i) % 4] for i in range(4))
    return [(a, b, c), (a, c, d)]


def _pull_cone(facets: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Pulling triangulation of a convex 3-polytope given facet cycles."""
    verts = sorted({v for f in facets for v in f})
    w = verts[0]
    tets = []
    for f in facets:
        if w in f:
            continue
        tris = [f] if len(f) == 3 else _quad_triangles(f)
        for t in tris:
            tets.append((w,) + tuple(t))
    return tets


def _split_ids(vids, vals, crossing):
    """Split simplex `vids` by the sign pattern of `vals`.

    Returns (plus_pieces, minus_pieces) as vertex-id tuples (orientation
    unset).  `crossing(u, v)` returns the cut vertex id on edge (u, v).
    """
    P = [v for v, d in zip(vids, vals) if d > 0]
    M = [v for v, d in zip(vids, vals) if d < 0]
    Z = [v for v, d in zip(vids, vals) if d == 0]
    if not M:
        return [tuple(vids)], []
    if not P:
        return [], [tuple(vids)]
    k = len(vids) - 1
    if k == 1:
        c = crossing(P[0], M[0])
        return [(P[0], c)], [(M[0], c)]
    if k == 2:
        if Z:
            c = crossing(P[0], M[0])
            return [(P[0], c, Z[0])], [(M[0], c, Z[0])]
        if len(P) == 2:
            p1, p2, m = P[0], P[1], M[0]
            c1, c2 = crossing(p1, m), crossing(p2, m)
            return _quad_triangles((p1, p2, c2, c1)), [(m, c1, c2)]
        p, m1, m2 = P[0], M[0], M[1]
        c1, c2 = crossing(p, m1), crossing(p, m2)
        return [(p, c1, c2)], _quad_triangles((m1, m2, c2, c1))
    # k == 3
    if len(Z) == 2:
        c = crossing(P[0], M[0])
        return [(P[0], c, Z[0], Z[1])], [(M[0], c, Z[0], Z[1])]
    if len(Z) == 1:
        z = Z[0]
        if len(P) == 2:
            p1, p2, m = P[0], P[1], M[0]
            c1, c2 = crossing(p1, m), crossing(p2, m)
            plus = _pull_cone(
                [(p1, p2, z), (p1, c1, z), (p2, c2, z), (z, c1, c2), (p1, p2, c2, c1)]
            )
            return plus, [(m, c1, c2, z)]
        p, m1, m2 = P[0], M[0], M[1]
        c1, c2 = crossing(p, m1), crossing(p, m2)
        minus = _pull_cone(
            [(m1, m2, z), (m1, c1, z), (m2, c2, z), (z, c1, c2), (m1, m2, c2, c1)]
        )
        return [(p, c1, c2, z)], minus
    if len(P) == 3:
        p1, p2, p3, m = P[0], P[1], P[2], M[0]
        c1, c2, c3 = crossing(p1, m), crossing(p2, m), crossing(p3, m)
        plus = _pull_cone(
            [
                (p1, p2, p3),
                (c1, c2, c3),
                (p1, p2, c2, c1),
                (p2, p3, c3, c2),
                (p1, p3, c3, c1),
            ]
        )
        return plus, [(m, c1, c2, c3)]
    if len(M) == 3:
        m1, m2, m3, p = M[0], M[1], M[2], P[0]
        c1, c2, c3 = crossing(p, m1), crossing(p, m2), crossing(p, m3)
        minus = _pull_cone(
            [
                (m1, m2, m3),
                (c1, c2, c3),
                (m1, m2, c2, c1),
                (m2, m3, c3, c2),
                (m1, m3, c3, c1),
            ]
        )
        return [(p, c1, c2, c3)], minus
    # 2 | 2
    p1, p2, m1, m2 = P[0], P[1], M[0], M[1]
    c11, c12 = crossing(p1, m1), crossing(p1, m2)
    c21, c22 = crossing(p2, m1), crossing(p2, m2)
    plus = _pull_cone(
        [
            (p1, c11, c12),
            (p2, c21, c22),
            (p1, p2, c21, c11),
            (p1, p2, c22, c12),
            (c11, c21, c22, c12),
        ]
    )
    minus = _pull_cone(
        [
            (m1, c11, c21),
            (m2, c12, c22),
            (m1, m2, c12, c11),
            (m1, m2, c22, c21),
            (c11, c21, c22, c12),
        ]
    )
    return plus, minus


def _orient_like(piece: tuple[int, ...], parent_pinv: np.ndarray, pool: _VertexPool, vol_floor: float):
    """Reorder `piece` to match the parent orientation; None if degenerate."""
    k = len(piece) - 1
    if k == 0:
        return piece
    C = np.asarray([pool.coords[v] for v in piece])
    F = (C[1:] - C[0]).T
    G = parent_pinv @ F
    det = np.linalg.det(G)
    gram = F.T @ F
    vol = np.sqrt(max(np.linalg.det(gram), 0.0)) / factorial(k)
    if vol <= vol_floor or det == 0.0:
        return None
    if det < 0:
        piece = (piece[1], piece[0]) + piece[2:]
    return piece


@dataclass
class Refinement:
    """A refined complex together with per-simplex carry maps.

    carry[k][old_index] lists the indices of the sub-simplices (oriented
    like the parent) that tile the old simplex in the refined complex.
    """

    complex: Complex
    source: Complex
    carry: dict[int, list[list[int]]] = field(default_factory=dict)

    def carry_chain(self, chain):
        from .chains import Chain

        if chain.complex is not self.source:
            from .errors import ComplexMismatch

            raise ComplexMismatch("chain does not live on the refinement source")
        coeffs: dict[int, float] = {}
        cmap = self.carry[chain.degree]
        for idx, a in chain.coeffs.items():
            for new_idx in cmap[idx]:
                coeffs[new_idx] = coeffs.get(new_idx, 0.0) + a
        return Chain(self.complex, chain.degree, coeffs)


def refine_by_halfspace(cx: Complex, hs: HalfSpace) -> Refinement:
    """Exact refinement of the whole complex by the cut hyperplane of hs."""
    lam, s = hs.unit()
    d = cx.vertices @ lam - s
    snap = VALUE_SNAP * max(cx.diameter(), 1.0)
    d = np.where(np.abs(d) <= snap, 0.0, d)
    dvals = list(d)
    pool = _VertexPool(cx.vertices)
    cross_cache: dict[tuple[int, int], int] = {}

    def crossing(u: int, v: int) -> int:
        a, b = (u, v) if u < v else (v, u)
        cached = cross_cache.get((a, b))
        if cached is not None:
            return cached
        da, db = dvals[a], dvals[b]
        t = da / (da - db)
        x = pool.coords[a] + t * (pool.coords[b] - pool.coords[a])
        vid = pool.add(x)
        if vid == len(dvals):
            dvals.append(0.0)
        cross_cache[(a, b)] = vid
        return vid

    def piece_fn(k, idx, vids, p):
        if k == 0:
            return [vids]
        plus, minus = _split_ids(vids, [dvals[v] for v in vids], crossing)
        C = np.asarray([p.coords[v] for v in vids])
        E = (C[1:] - C[0]).T
        pinv = np.linalg.pinv(E)
        scale = _longest_edges(C[None, :, :])[0] ** k
        out = []
        for piece in plus + minus:
            oriented = _orient_like(piece, pinv, p, DEGENERACY_TOL * scale)
            if oriented is not None:
                out.append(oriented)
        return out

    return _split_complex_with_pool(cx, piece_fn, pool)


def _split_complex_with_pool(cx: Complex, piece_fn, pool: _VertexPool) -> Refinement:
    new_simplices: dict[int, list[tuple[int, ...]]] = {}
    positions: dict[int, dict[tuple[int, ...], int]] = {}
    carry: dict[int, list[list[int]]] = {}
    for k in sorted(cx.simplices):
        new_simplices[k] = []
        positions[k] = {}
        carry[k] = []
        for idx, vids in enumerate(cx.simplices[k]):
            pieces = piece_fn(k, idx, vids, pool)
            dest = []
            for piece in pieces:
                pos = positions[k].get(piece)
                if pos is None:
                    pos = len(new_simplices[k])
                    positions[k][piece] = pos
                    new_simplices[k].append(piece)
                dest.append(pos)
            carry[k].append(dest)
    new_cx = build_complex(pool.array(), new_simplices, check_overlap=False)
    return Refinement(new_cx, cx, carry)


def side_of_simplices(cx: Complex, k: int, hs: HalfSpace) -> np.ndarray:
    """+1 / -1 side labels for the k-simplices of cx (in-plane counts as +1)."""
    lam, s = hs.unit()
    d = cx.barycenters(k) @ lam - s
    snap = VALUE_SNAP * max(cx.diameter(), 1.0)
    return np.where(d >= -snap, 1, -1)


def clip_simplex(cx: Complex, k: int, idx: int, hs: HalfSpace) -> list[np.ndarray]:
    """Exact simplicial subdivision of (simplex intersect half-space).

    Returns vertex-coordinate arrays, each oriented like the parent simplex;
    an empty intersection yields an empty list.  The simplex is refined on
    its own by refine_by_halfspace and the pieces on the + side are kept.
    """
    one = build_complex(cx.coords(k, idx), {k: [tuple(range(k + 1))]}, check_overlap=False)
    ref = refine_by_halfspace(one, hs)
    sides = side_of_simplices(ref.complex, k, hs)
    return [ref.complex.coords(k, j) for j in ref.carry[k][0] if sides[j] > 0]


# -- barycentric refinement ----------------------------------------------


def barycentric_refine(cx: Complex, levels: int) -> Refinement:
    """Iterated barycentric subdivision with carry maps back to cx."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    ref = Refinement(cx, cx, {k: [[i] for i in range(cx.n_simplices(k))] for k in cx.simplices})
    for _ in range(levels):
        step = _barycentric_once(ref.complex)
        ref = _compose(ref, step)
    return ref


def _compose(first: Refinement, second: Refinement) -> Refinement:
    carry: dict[int, list[list[int]]] = {}
    for k, rows in first.carry.items():
        carry[k] = [[j for mid in row for j in second.carry[k][mid]] for row in rows]
    return Refinement(second.complex, first.source, carry)


def _barycentric_once(cx: Complex) -> Refinement:
    pool = _VertexPool(cx.vertices)
    from itertools import permutations

    def piece_fn(k, idx, vids, p):
        if k == 0:
            return [vids]
        C = cx.coords(k, idx)
        E = (C[1:] - C[0]).T
        pinv = np.linalg.pinv(E)
        scale = _longest_edges(C[None, :, :])[0] ** k
        verts = list(vids)
        out = []
        for perm in permutations(range(k + 1)):
            piece = []
            for j in range(k + 1):
                subset = [verts[perm[i]] for i in range(j + 1)]
                if j == 0:
                    piece.append(subset[0])
                else:
                    b = np.mean([pool.coords[v] for v in subset], axis=0)
                    piece.append(pool.add(b))
            oriented = _orient_like(tuple(piece), pinv, pool, DEGENERACY_TOL * scale)
            if oriented is not None:
                out.append(oriented)
        return out

    return _split_complex_with_pool(cx, piece_fn, pool)


def barycentric_subdivide(cx: Complex, levels: int) -> Complex:
    """Refined complex after `levels` barycentric subdivisions."""
    return barycentric_refine(cx, levels).complex
