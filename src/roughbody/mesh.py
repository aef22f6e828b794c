"""Oriented simplicial complexes in R^n (n <= 3).

A Complex stores, per degree k, an (m_k, k + 1) array of vertex ids (the
order of a row is the orientation of its simplex) and per-degree boundary
arrays: faces[j, i] is the facet of simplex j opposite its vertex i, and
signs[j, i] is that facet's incidence.  Faces are derived automatically
and a shared face is stored once, which makes "boundary of boundary = 0"
structural.  The tuple lists `simplices` and the frozenset-keyed `index`
are views of these arrays, each built on first use (`simplices` per
degree).

Simplex geometry has one home.  `kvectors` holds every determinant: the
k-vectors of the edges of whole degrees of simplices, from which come
volumes, the cached per-degree unit tangents, orientation signs and (as
`row_wedges`, on rows with a zero origin) wedges of covectors and Jacobian
minors.  The
top degree's barycentric gradients, `Complex.barygrads`, are the one
pseudo-inverse, taken for the whole degree in one stacked call.

Refinement addresses every new vertex by the simplex it comes from, so no
coordinate lookup is needed: the half-space splitter appends one crossing
per cut edge, in edge order, and barycentric subdivision one barycenter
per simplex of degree >= 1, in (degree, index) order.  Each degree is
refined in whole-array passes.  The half-space splitter produces an exact
simplicial refinement with the cut hyperplane as an interface.  Uncut
simplices are carried as themselves; each side of a cut one is given its
pulling triangulation (every face coned from its smallest vertex or
crossing id), which makes the piece triangulations of shared faces agree
between neighbouring simplices.  The triangulation depends only on the
sign pattern and the order of the ids, and is computed once per pattern.
A Refinement records, per degree, the source simplex each refined simplex
tiles (its parent array); composing refinements is one gather.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import factorial
from operator import itemgetter

import numpy as np

from .errors import ComplexMismatch, DegenerateSimplex, NonManifoldOverlap
from .multivec import basis_tuples
from .simplex_lp import certainly_disjoint, facet_signs, float_image, simplex_interiors_intersect

DEGENERACY_TOL = 1e-12
VALUE_SNAP = 1e-10
PAIR_BLOCK = 4096  # candidate pairs screened per numpy pass of the overlap sweep
FILTER_BLOCK = 128  # box-meeting pairs per call of the overlap sweep's float filter, about 1 kB each in 2D

@dataclass(frozen=True)
class HalfSpace:
    """Closed half space {x : lam . x >= s} with lam != 0."""

    lam: tuple[float, ...]
    s: float

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if not np.isfinite(lam).all():
            raise ValueError(f"half-space functional lam is not finite: {tuple(lam.tolist())}")
        if not np.isfinite(self.s):
            raise ValueError(f"half-space offset s is not finite: {self.s}")
        if not np.any(lam != 0.0):
            raise ValueError("half-space functional must be nonzero")
        object.__setattr__(self, "lam", tuple(float(v) for v in lam))

    def unit(self) -> tuple[np.ndarray, float]:
        lam = np.asarray(self.lam)
        nrm = float(np.linalg.norm(lam))
        return lam / nrm, self.s / nrm


def sort_parity(rows) -> np.ndarray:
    """Sign of the permutation that sorts each row (last axis) of distinct entries."""
    rows = np.asarray(rows)
    odd = np.zeros(rows.shape[:-1], dtype=bool)
    for i, j in combinations(range(rows.shape[-1]), 2):
        odd ^= rows[..., i] > rows[..., j]
    return np.where(odd, -1, 1)


def kvectors(C: np.ndarray) -> np.ndarray:
    """Components of (v_1 - v_0) ^ ... ^ (v_k - v_0) for each simplex of C.

    C holds the vertex coordinates of m k-simplices in R^n, shape
    (m, k + 1, n); the result is (m, C(n, k)), its columns the k x k minors
    of the edge matrix, indexed like multivec.basis_tuples(n, k).
    """
    m, v, n = C.shape
    E = C[:, 1:, :] - C[:, :1, :]
    if v == 1:
        return np.ones((m, 1))
    if v > n + 1:  # more edges than dimensions: no nonzero k-vector
        return np.zeros((m, 0))
    if v == 2:
        return E[:, 0, :]
    if v == n + 1:
        return np.linalg.det(E)[:, None]
    # a triangle in R^3: the 2 x 2 minors
    return np.stack([E[:, 0, i] * E[:, 1, j] - E[:, 0, j] * E[:, 1, i] for i, j in basis_tuples(n, 2)], axis=1)


def row_wedges(R: np.ndarray) -> np.ndarray:
    """Components of r_1 ^ ... ^ r_k for the rows of each block of R, shape (m, k, n).

    These are the kvectors of the simplices with a zero origin and the rows
    as their other vertices, indexed like multivec.basis_tuples(n, k).
    """
    return kvectors(np.concatenate([np.zeros((len(R), 1, R.shape[2])), R], axis=1))


def simplex_volumes(C: np.ndarray) -> np.ndarray:
    """k-volumes of the simplices with vertex coordinates C, shape (m, k + 1, n).

    |det E| / k! when k is the ambient dimension, and below it the norm of
    the simple k-vector of the edges (the root sum of squared k x k minors)
    over k!.  A Gram determinant would cancel catastrophically on slivers.
    """
    W = kvectors(C)
    norms = np.abs(W[:, 0]) if W.shape[1] == 1 else np.linalg.norm(W, axis=1)
    return norms / factorial(C.shape[1] - 1)


def _row_codes(*blocks: np.ndarray, nv: int) -> list[np.ndarray]:
    """One integer per row of each (r, w) block of vertex ids < nv; equal rows, equal codes."""
    w = blocks[0].shape[1]
    if nv**w < 2**62:
        radix = nv ** np.arange(w - 1, -1, -1, dtype=np.int64)
        return [b.astype(np.int64) @ radix for b in blocks]
    _, inv = np.unique(np.concatenate(blocks), axis=0, return_inverse=True)
    return np.split(inv.ravel(), np.cumsum([len(b) for b in blocks])[:-1])


def _first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each code's number in order of first appearance, and the first positions (ascending)."""
    _, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(first)
    rank[order] = np.arange(len(first))
    return rank[inv], first[order]


class _TupleLists(Mapping):
    """Per degree, the rows of arrays[k] as a list of vertex-id tuples, built on first use of k."""

    def __init__(self, arrays: dict[int, np.ndarray], nv: int):
        self._arrays = arrays
        self._nv = nv
        self._ids: list[int] = []  # one int object per vertex id, shared by all tuples
        self._lists: dict[int, list[tuple[int, ...]]] = {}

    def __getitem__(self, k: int) -> list[tuple[int, ...]]:
        if k not in self._lists:
            a = self._arrays[k]
            if not self._ids:
                self._ids = list(range(self._nv))
            self._lists[k] = list(zip(*(map(self._ids.__getitem__, col) for col in a.T.tolist())))
        return self._lists[k]

    def __contains__(self, k) -> bool:
        return k in self._arrays

    def __iter__(self):
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)


class Complex:
    """Immutable oriented simplicial complex; use build_complex to construct."""

    def __init__(self, dim, vertices, arrays, incidence_arrays, face_parent):
        self.dim = dim
        self.vertices = vertices
        self.arrays = arrays  # k -> (m_k, k + 1) vertex ids
        self.simplices = _TupleLists(arrays, len(vertices))
        self.face_parent = face_parent  # k -> (m_k,) first (k+1)-simplex having the face, or -1
        self.top_degree = max(k for k, a in arrays.items() if len(a))
        self.validation: dict[str, bool] = {}
        self._incidence_arrays = incidence_arrays  # k -> (faces, signs), each (m_k, k + 1)
        self._volumes: dict[int, np.ndarray] = {}
        self._tangents: dict[int, np.ndarray] = {}
        self._face_tables: dict[tuple[int, int], np.ndarray] = {}

    @cached_property
    def index(self) -> dict[int, dict[frozenset, int]]:
        """Per degree, vertex set -> simplex index (built on first use)."""
        return {k: {frozenset(s): i for i, s in enumerate(lst)} for k, lst in self.simplices.items()}

    # -- basic geometry ------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.arrays[k]) if k in self.arrays else 0

    def coords(self, k: int, idx: int) -> np.ndarray:
        return self.vertices[self.arrays[k][idx]]

    def all_coords(self, k: int) -> np.ndarray:
        return self.vertices[self.arrays[k]]

    def volumes(self, k: int) -> np.ndarray:
        if k not in self._volumes:
            self._volumes[k] = simplex_volumes(self.all_coords(k))
        return self._volumes[k]

    def incidence_arrays(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(faces, signs), each (m_k, k + 1): row j lists simplex j's facets and incidences."""
        return self._incidence_arrays[k]

    def face_table(self, k: int, j: int) -> np.ndarray:
        """(m_k, C(k+1, j+1)) indices of the j-faces of every k-simplex, in combinations order."""
        key = (k, j)
        if key not in self._face_tables:
            S = self.arrays[k]
            if j == 0:
                table = S
            elif j == k:
                table = np.arange(len(S))[:, None]
            else:
                sub = np.sort(S[:, list(combinations(range(k + 1), j + 1))], axis=2)
                nv = len(self.vertices)
                own, want = _row_codes(np.sort(self.arrays[j], axis=1), sub.reshape(-1, j + 1), nv=nv)
                order = np.argsort(own)
                table = order[np.searchsorted(own, want, sorter=order)].reshape(len(S), -1)
            self._face_tables[key] = table
        return self._face_tables[key]

    def volume(self, k: int, idx: int) -> float:
        return float(self.volumes(k)[idx])

    def barycenters(self, k: int) -> np.ndarray:
        return self.all_coords(k).mean(axis=1)

    def unit_tangents(self, k: int) -> np.ndarray:
        """(m_k, C(n, k)): the unit k-vector of every k-simplex, oriented by its vertex order."""
        if k not in self._tangents:
            W = kvectors(self.all_coords(k))
            self._tangents[k] = W / np.linalg.norm(W, axis=1)[:, None]
        return self._tangents[k]

    @cached_property
    def barygrads(self) -> np.ndarray:
        """(m_K, K + 1, n + 1) for the top degree K: row i of simplex j is (g_i, h_i)
        with lambda_i(x) = g_i . x + h_i on simplex j.

        Gradients are tangential (minimum-norm) when K is below the ambient
        dimension.  One stacked pseudo-inverse covers the degree; each
        simplex's is taken in the frame of its first vertex scaled by its
        extent, so its conditioning does not depend on where the simplex
        sits or on its size.
        """
        C = self.all_coords(self.top_degree)
        c0 = C[:, :1]
        h = np.abs(C - c0).max(axis=(1, 2))[:, None, None]
        A = np.concatenate([(C - c0) / h, np.ones(C.shape[:2] + (1,))], axis=2)
        P = np.linalg.pinv(A).transpose(0, 2, 1)
        g = P[:, :, :-1] / h
        return np.concatenate([g, (P[:, :, -1] - np.einsum("mij,mj->mi", g, c0[:, 0]))[:, :, None]], axis=2)

    @cached_property
    def _tops(self) -> dict[int, np.ndarray]:
        """Per degree, the face_parent arrays composed up to the top degree (-1: no top coface)."""
        K = self.top_degree
        tops = {K: np.arange(self.n_simplices(K))}
        for k in range(K - 1, -1, -1):
            up = self.face_parent[k]
            tops[k] = np.where(up >= 0, tops[k + 1][up], -1)
        return tops

    def containing_tops(self, k: int, idx) -> np.ndarray:
        """Index of a top-degree simplex having (k, i) as an iterated face, for each i in idx."""
        tops = self._tops[k][idx]
        if (tops < 0).any():
            raise ValueError(f"simplex ({k},{np.extract(tops < 0, idx)[0]}) is not a face of any top simplex")
        return tops

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


def _too_thin(C: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """Which simplices (coordinates C, k-volumes `volumes`) are below DEGENERACY_TOL x (longest edge)^k."""
    return volumes < DEGENERACY_TOL * np.maximum(_longest_edges(C) ** (C.shape[1] - 1), 1e-300)


def _simplex_rows(entries, k: int) -> np.ndarray:
    """Degree-k simplices as an (m, k + 1) array of vertex ids; an id that is not an integer is a ValueError."""
    try:
        ids = np.asarray(entries)
        with np.errstate(invalid="ignore"):  # NaN or a float beyond any index casts to garbage, refused below
            S = ids.astype(np.intp, copy=False)
    except (TypeError, ValueError, OverflowError):
        S = None
    if S is None or S.ndim != 2 or S.shape[1] != k + 1:
        for s in entries:
            if len(s) != k + 1:
                raise ValueError(f"degree-{k} simplex {tuple(s)} has {len(s)} vertices")
        raise ValueError(f"degree-{k} simplices must be rows of {k + 1} vertex indices")
    if ids.dtype.kind not in "iuf" or not (S == ids).all():
        raise ValueError(f"degree-{k} simplices must list integer vertex ids")
    return S


def _distinct_simplices(S: np.ndarray, nv: int) -> np.ndarray:
    """The rows of S in first-occurrence order, each vertex set once."""
    bad = np.flatnonzero(((S < 0) | (S >= nv)).any(axis=1))
    if bad.size:
        raise ValueError(f"simplex {tuple(S[bad[0]].tolist())} references a missing vertex")
    key = np.sort(S, axis=1)
    bad = np.flatnonzero((key[:, 1:] == key[:, :-1]).any(axis=1))
    if bad.size:
        raise DegenerateSimplex(f"simplex {tuple(S[bad[0]].tolist())} repeats a vertex")
    ids, first = _first_seen(_row_codes(key, nv=nv)[0])
    stored = first[ids]
    bad = np.flatnonzero(sort_parity(S) != sort_parity(S[stored]))
    if bad.size:
        s, t = S[bad[0]], S[stored[bad[0]]]
        raise ValueError(f"simplex {tuple(s.tolist())} duplicates {tuple(t.tolist())} with opposite orientation")
    return S[first]


def _derive_facets(F: np.ndarray, known: np.ndarray, nv: int):
    """Indices of the facets F, shape (m, v, v - 1), and the completed face array.

    A facet not among the `known` faces is appended, in the orientation
    and order in which it is first met.
    """
    m, v, _ = F.shape
    if v == 2:
        return F[:, :, 0], known
    flat = F.reshape(-1, v - 1)
    c_known, c_flat = _row_codes(np.sort(known, axis=1), np.sort(flat, axis=1), nv=nv)
    ids, first = _first_seen(np.concatenate([c_known, c_flat]))
    new = first[first >= len(known)] - len(known)
    return ids[len(known) :].reshape(m, v), np.concatenate([known, flat[new]])


def build_complex(vertices, simplices, check_overlap: bool = True) -> Complex:
    """Assemble a complex from vertex coordinates and per-degree simplex lists.

    Faces of the given simplices are derived automatically; a face shared by
    several simplices is stored once.  Raises ValueError for a vertex with a
    non-finite coordinate, DegenerateSimplex for simplices of numerically
    zero volume (below DEGENERACY_TOL times the longest edge to the power k)
    and NonManifoldOverlap when two same-degree simplices have intersecting
    relative interiors (top degree and explicitly given degrees are tested;
    disable with check_overlap=False for trusted input).  The overlap test
    is one exact sweep per tested degree on the vertices and id rows (see
    first_overlapping_pair): for full-dimensional simplices a float filter
    with Shewchuk's forward error bounds proves most pairs disjoint, and the
    integer separating-axis test decides every other pair.  Shared faces
    never count, and no overlap is too shallow to be found.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] not in (1, 2, 3):
        raise ValueError("vertices must be (V, n) with n in {1, 2, 3}")
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if bad.size:
        raise ValueError(f"vertex {bad[0]} has a non-finite coordinate {vertices[bad[0]]}")
    nv = vertices.shape[0]

    arrays: dict[int, np.ndarray] = {0: np.arange(nv, dtype=np.intp)[:, None]}
    explicit_degrees = set()
    for k in sorted(simplices):
        if len(simplices[k]) == 0:
            continue
        S = _simplex_rows(simplices[k], k)
        if k == 0:
            bad = S[(S < 0) | (S >= nv)]
            if bad.size:
                raise ValueError(f"vertex index {bad[0]} out of range")
            continue
        arrays[k] = _distinct_simplices(S, nv)
        explicit_degrees.add(k)

    max_deg = max(arrays)
    incidence: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    face_parent: dict[int, np.ndarray] = {}
    for k in range(max_deg, 0, -1):
        # facet i of a simplex omits its vertex i
        facets = arrays[k][:, [[j for j in range(k + 1) if j != i] for i in range(k + 1)]]
        faces, arrays[k - 1] = _derive_facets(facets, arrays.get(k - 1, np.empty((0, k), dtype=np.intp)), nv)
        alternating = np.where(np.arange(k + 1) % 2 == 0, 1, -1)
        signs = alternating * sort_parity(facets) * sort_parity(arrays[k - 1][faces])
        incidence[k] = (faces, signs)
        parent = np.full(len(arrays[k - 1]), -1, dtype=np.intp)
        met, first = np.unique(faces.ravel(), return_index=True)
        parent[met] = first // (k + 1)
        face_parent[k - 1] = parent

    cx = Complex(vertices.shape[1], vertices, dict(sorted(arrays.items())), incidence, face_parent)

    # degeneracy (scale-aware)
    for k in range(1, max_deg + 1):
        if not len(arrays[k]):
            continue
        bad = np.flatnonzero(_too_thin(cx.all_coords(k), cx.volumes(k)))
        if bad.size:
            raise DegenerateSimplex(f"degree-{k} simplex {int(bad[0])} is degenerate")

    # boundary of boundary vanishes, combinatorially: per k-simplex, the
    # signed count of every (k-2)-face over its facets' facets is zero
    for k in range(2, max_deg + 1):
        faces, signs = incidence[k]
        sub_faces, sub_signs = incidence[k - 1]
        ridge = np.arange(len(faces))[:, None, None] * len(arrays[k - 2]) + sub_faces[faces]
        _, which = np.unique(ridge.ravel(), return_inverse=True)
        if np.bincount(which, weights=(signs[:, :, None] * sub_signs[faces]).ravel()).any():
            raise RuntimeError("incidence construction violated del o del = 0")

    cx.validation = {"degeneracy": True, "boundary_of_boundary": True, "disjoint_interiors": False}
    if check_overlap:
        for k in ({max_deg} | explicit_degrees) - {0}:
            pair = first_overlapping_pair(cx.vertices, cx.arrays[k])
            if pair is not None:
                raise NonManifoldOverlap(f"degree-{k} simplices {pair[0]} and {pair[1]} overlap")
        cx.validation["disjoint_interiors"] = True
    return cx


def first_overlapping_pair(vertices: np.ndarray, S: np.ndarray) -> tuple[int, int] | None:
    """First pair (a, b) of simplices, vertex ids S[a] and S[b], whose interiors meet.

    S holds (m, k + 1) ids of rows of `vertices`.  A sweep over the
    simplices sorted by their lowest x finds the pairs whose bounding boxes
    meet, PAIR_BLOCK pairs per numpy pass, in the order (a, then b) of the
    sorted simplices.  When the simplices are full-dimensional (k = n) the
    float filter `simplex_lp.certainly_disjoint` runs first, FILTER_BLOCK
    pairs per call, on the float image of the vertices and facet signs taken
    once per sweep; it proves most pairs disjoint, neighbours across shared
    faces included.  Every pair it leaves, and every pair when k < n, goes
    in sweep order to the exact predicate
    `simplex_lp.simplex_interiors_intersect`, which scales that pair's
    vertices to ints by one power of two.  The filter is never wrong when
    it calls a pair disjoint, and every power-of-two scaling is exact, so
    the first overlapping pair is the one the integer test alone would
    find.  Boxes that only touch are tested, because both tests are exact
    about contact.
    """
    vertices = np.asarray(vertices, dtype=float)
    S = np.asarray(S, dtype=np.intp)
    m = len(S)
    if m < 2:
        return None
    lo = hi = vertices[S[:, 0]]
    for col in S.T[1:]:
        lo, hi = np.minimum(lo, vertices[col]), np.maximum(hi, vertices[col])
    order = np.argsort(lo[:, 0])
    S, lo, hi = S[order], lo[order].T.copy(), hi[order].T.copy()
    # simplex a meets the boxes of candidates a + 1 .. ends[a] - 1 in x; pair t
    # of the sweep is (a, a + 1 + t - starts[a]) with starts[a] <= t < starts[a + 1]
    ends = np.searchsorted(lo[0], hi[0], side="right")
    starts = np.concatenate([[0], np.cumsum(ends - np.arange(1, m + 1))])
    full = S.shape[1] == vertices.shape[1] + 1
    if full:
        # vertex, coordinate, simplex: every array of the filter runs along the simplices
        C = np.ascontiguousarray(np.moveaxis(float_image(vertices)[S], 0, -1))
        signs = np.concatenate([facet_signs(C[..., c : c + FILTER_BLOCK]) for c in range(0, m, FILTER_BLOCK)], axis=1)
    for t0 in range(0, int(starts[-1]), PAIR_BLOCK):
        t1 = min(t0 + PAIR_BLOCK, int(starts[-1]))
        a = np.searchsorted(starts, np.arange(t0, t1), side="right") - 1
        b = a + np.arange(t0 + 1, t1 + 1) - starts[a]
        # the boxes meet in x by the choice of candidates
        meet = np.ones(len(a), dtype=bool)
        for lo_d, hi_d in zip(lo[1:], hi[1:]):
            meet &= (lo_d.take(b) <= hi_d.take(a)) & (hi_d.take(b) >= lo_d.take(a))
        a, b = a[meet], b[meet]
        if full:
            undecided = np.ones(len(a), dtype=bool)
            for c in range(0, len(a), FILTER_BLOCK):
                x, y = a[c : c + FILTER_BLOCK], b[c : c + FILTER_BLOCK]
                disjoint = certainly_disjoint(C.take(x, -1), signs.take(x, -1), C.take(y, -1), signs.take(y, -1))
                undecided[c : c + FILTER_BLOCK] = ~disjoint
            a, b = a[undecided], b[undecided]
        for x, y in zip(a.tolist(), b.tolist()):
            if simplex_interiors_intersect(vertices[S[x]], vertices[S[y]]):
                return int(order[x]), int(order[y])
    return None


# -- half-space splitting ------------------------------------------------


def _split_ids(vids, vals, crossing):
    """Split simplex `vids` by the signs of its vertex values `vals`, one per vertex.

    Returns (plus_pieces, minus_pieces) as vertex-id tuples (orientation
    unset).  `crossing(u, v)` returns the id of the cut vertex on edge
    (u, v).  Both sides are triangulated by the pulling rule on the vertex
    and crossing ids (see _pulled_pieces).
    """
    signs = tuple(1 if v > 0 else -1 if v < 0 else 0 for v in vals)
    if -1 not in signs:
        return [tuple(vids)], []
    if 1 not in signs:
        return [], [tuple(vids)]
    ids = list(vids) + [crossing(vids[i], vids[j]) for i, j in _cut_edges(signs)]
    plus, minus = _pulled_pieces(signs, tuple(sorted(range(len(ids)), key=ids.__getitem__)))
    return [piece(ids) for piece in plus], [piece(ids) for piece in minus]


@lru_cache(maxsize=None)
def _cut_edges(signs: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The position pairs (i, j), i < j, of opposite signs: the edges the plane cuts."""
    return tuple((i, j) for i, j in combinations(range(len(signs)), 2) if signs[i] * signs[j] < 0)


@lru_cache(maxsize=4096)  # a few hundred patterns in practice, but up to 8! id orders each
def _pulled_pieces(signs: tuple[int, ...], order: tuple[int, ...]):
    """Pulling triangulation of both sides of a cut simplex, each piece as a getter of its labels.

    Vertex i has label i and the crossing on the e-th of _cut_edges(signs)
    label len(signs) + e; `order` lists the labels by ascending id.  A face
    of one side is a pair (F, on_plane) of a face F of the simplex and
    whether it stands for F's part on the side or on the cut plane.  Its
    vertices are F's kept and zero vertices (only the zero ones on the
    plane) and the crossings of F's cut edges.  A face is the cone from its
    smallest label over its facets that miss that label (De Loera, Rambau
    and Santos, Triangulations, 2010), so the pieces of two simplices agree
    on the face they share.  The facets of (F, on_plane) are the pairs of
    F's facets and, off the plane, (F, True) that have one dimension less;
    two pairs with the same vertices stand for one facet, used once.
    """
    rank = {label: r for r, label in enumerate(order)}
    cross = {e: len(signs) + n for n, e in enumerate(_cut_edges(signs))}

    def face(F, on, side):
        """Vertices and dimension of the pair.

        A cut F keeps its dimension on the side and loses one on the plane;
        otherwise the pair is a simplex on its own vertices.
        """
        own = [v for v in F if signs[v] == 0 or (not on and signs[v] == side)]
        cut = [cross[e] for e in combinations(F, 2) if e in cross]
        return frozenset(own + cut), len(F) - 1 - on if cut else len(own) - 1

    def pull(F, on, side):
        verts, d = face(F, on, side)
        if len(verts) == d + 1:  # a simplex: its own pulling triangulation
            return [tuple(sorted(verts, key=rank.__getitem__))]
        apex = min(verts, key=rank.__getitem__)
        pieces, seen = [], set()
        for G, g_on in [(G, on) for G in combinations(F, len(F) - 1)] + ([] if on else [(F, True)]):
            facet, facet_dim = face(G, g_on, side)
            if facet_dim == d - 1 and apex not in facet and facet not in seen:
                seen.add(facet)
                pieces += [(apex,) + t for t in pull(G, g_on, side)]
        return pieces

    everything = tuple(range(len(signs)))
    return tuple(tuple(itemgetter(*p) for p in pull(everything, False, side)) for side in (1, -1))


def _cut_vertices(X: np.ndarray, d: np.ndarray, edges: np.ndarray):
    """Append one crossing per edge whose ends take opposite signs of d, in edge order.

    The crossing on edge {a, b}, a < b, is X[a] + t (X[b] - X[a]) with
    t = d[a] / (d[a] - d[b]).  Returns the extended vertex array and
    crossing(u, v), the id of the crossing on edge {u, v}.
    """
    a, b = np.sort(edges, axis=1).T
    side = np.sign(d)
    cut = side[a] * side[b] < 0
    a, b = a[cut], b[cut]
    t = d[a] / (d[a] - d[b])
    ids = dict(zip(zip(a.tolist(), b.tolist()), range(len(X), len(X) + len(a))))
    return np.concatenate([X, X[a] + t[:, None] * (X[b] - X[a])]), lambda u, v: ids[(u, v) if u < v else (v, u)]


def _orient_pieces(pieces: np.ndarray, parent_coords: np.ndarray, vertices: np.ndarray):
    """The pieces above the volume floor, each in its parent's orientation, and the keep mask.

    Row i of parent_coords holds the vertex coordinates of piece i's parent.
    A piece keeps its orientation when its k-vector has a positive inner
    product with its parent's, and swaps its first two vertices otherwise;
    it is dropped when build_complex would reject it as degenerate, its
    volume below DEGENERACY_TOL times its own longest edge to the power k.
    """
    C = vertices[pieces]
    same = np.einsum("ij,ij->i", kvectors(C), kvectors(parent_coords))
    keep = ~_too_thin(C, simplex_volumes(C)) & (same != 0.0)
    pieces = pieces.copy()
    pieces[same < 0, :2] = pieces[same < 0, 1::-1]
    return pieces[keep], keep


def _splice(S: np.ndarray, cut: np.ndarray, pieces: np.ndarray, parents: np.ndarray):
    """S with each cut row replaced by its pieces, and the row each output row comes from.

    `pieces` lists the pieces of the rows `cut` (ascending) in order;
    parents[i] is the row of piece i.
    """
    in_cut = np.zeros(len(S), dtype=bool)
    in_cut[cut] = True
    rows = np.concatenate([np.flatnonzero(~in_cut), parents])
    order = np.argsort(rows, kind="stable")
    return np.concatenate([S[~in_cut], pieces])[order], rows[order]


@dataclass
class Refinement:
    """A refined complex and, per degree, the source simplex each refined simplex tiles.

    parent[k][j] is the k-simplex of the source that k-simplex j of the
    refined complex tiles (oriented like it), or -1 when it tiles none: a
    new vertex, a face on a cut plane, a face inside a subdivided simplex.
    A carry gathers only the pieces of the chain's own simplices (`pieces`).
    """

    complex: Complex
    source: Complex
    parent: dict[int, np.ndarray]
    _groups: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def pieces(self, k: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The refined k-simplices tiling each source simplex of idx, in that order, and how many tile each.

        The refined simplices are grouped by parent once per degree, on first use.
        """
        if k not in self._groups:  # source simplex i's pieces: order[starts[i]:starts[i + 1]], ascending
            order = np.argsort(self.parent[k], kind="stable")
            ids = np.arange(self.source.n_simplices(k) + 1)
            self._groups[k] = order, np.searchsorted(self.parent[k], ids, sorter=order)
        order, starts = self._groups[k]
        counts = starts[idx + 1] - starts[idx]
        rank = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)  # place within its group
        return order[np.repeat(starts[idx], counts) + rank], counts

    def carry_chain(self, chain):
        from .chains import Chain

        if chain.complex is not self.source:
            raise ComplexMismatch("chain does not live on the refinement source")
        pieces, counts = self.pieces(chain.degree, chain.idx)
        return Chain.from_terms(self.complex, chain.degree, pieces, np.repeat(chain.val, counts))


def _refinement(vertices: np.ndarray, new: dict[int, np.ndarray], source: Complex, parents) -> Refinement:
    """The complex on the rows new[k], each tiling source simplex parents[k][j]; derived faces tile none."""
    cx = build_complex(vertices, new, check_overlap=False)
    pad = {k: cx.n_simplices(k) - len(p) for k, p in parents.items()}
    return Refinement(cx, source, {k: np.pad(p, (0, pad[k]), constant_values=-1) for k, p in parents.items()})


def refine_by_halfspace(cx: Complex, hs: HalfSpace) -> Refinement:
    """Exact refinement of the whole complex by the cut hyperplane of hs.

    A vertex within VALUE_SNAP * diameter of the hyperplane counts as on
    it.  Vertex ids: those of cx, then one crossing per cut edge in edge
    order.  Each simplex is replaced by its pieces in place.
    """
    lam, s = hs.unit()
    d = cx.vertices @ lam - s
    d[np.abs(d) <= VALUE_SNAP * cx.diameter()] = 0.0
    vertices, crossing = _cut_vertices(cx.vertices, d, cx.arrays.get(1, np.empty((0, 2), dtype=np.intp)))
    side = np.sign(d)
    values = d.tolist()
    new: dict[int, np.ndarray] = {0: cx.arrays[0]}
    parent = {0: np.arange(len(cx.arrays[0]))}
    for k in range(1, max(cx.arrays) + 1):
        S = cx.arrays[k]
        cut = np.flatnonzero((side[S] > 0).any(axis=1) & (side[S] < 0).any(axis=1))
        pieces, parents = [], []
        for j, vids in zip(cut.tolist(), S[cut].tolist()):
            plus, minus = _split_ids(tuple(vids), [values[v] for v in vids], crossing)
            pieces += plus + minus
            parents += [j] * (len(plus) + len(minus))
        parents = np.array(parents, dtype=np.intp)
        pieces = np.array(pieces, dtype=np.intp).reshape(-1, k + 1)
        pieces, keep = _orient_pieces(pieces, cx.all_coords(k)[parents], vertices)
        new[k], parent[k] = _splice(S, cut, pieces, parents[keep])
    return _refinement(vertices, new, cx, parent)


def side_of_simplices(cx: Complex, k: int, hs: HalfSpace) -> np.ndarray:
    """+1 / -1 side labels for the k-simplices of cx (within VALUE_SNAP * diameter counts as +1)."""
    lam, s = hs.unit()
    d = cx.barycenters(k) @ lam - s
    return np.where(d >= -VALUE_SNAP * cx.diameter(), 1, -1)


# -- barycentric refinement ----------------------------------------------


def barycentric_refine(cx: Complex, levels: int) -> Refinement:
    """Iterated barycentric subdivision with parent arrays back to cx."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    ref = Refinement(cx, cx, {k: np.arange(cx.n_simplices(k)) for k in cx.arrays})
    for _ in range(levels):
        step = _barycentric_once(ref.complex)
        ref = _compose(ref, step)
    return ref


def _compose(first: Refinement, second: Refinement) -> Refinement:
    parent = {k: np.where(mid >= 0, first.parent[k][mid], -1) for k, mid in second.parent.items()}
    return Refinement(second.complex, first.source, parent)


def _barycentric_once(cx: Complex) -> Refinement:
    """One barycentric subdivision.

    Vertex ids: those of cx, then the barycenter of every simplex of degree
    >= 1 in (degree, index) order.  A k-simplex (v_0, ..., v_k) is replaced
    by its (k+1)! flag simplices, one per permutation p in lexicographic
    order: (v_p0, b(v_p0, v_p1), ..., b(v_p0, ..., v_pk)).  The flag simplex
    of p has orientation sign(p) relative to its parent, so odd ones swap
    their first two vertices.
    """
    top = max(cx.arrays)
    centers, offset = [cx.vertices], {0: 0}
    for k in range(1, top + 1):
        C = cx.all_coords(k)
        total = C[:, 0]
        for j in range(1, k + 1):
            total = total + C[:, j]
        offset[k] = offset[k - 1] + len(centers[-1])
        centers.append(total / (k + 1))
    new: dict[int, np.ndarray] = {0: cx.arrays[0]}
    for k in range(1, top + 1):
        flags = list(permutations(range(k + 1)))
        levels = []
        for j in range(k + 1):
            column = {c: i for i, c in enumerate(combinations(range(k + 1), j + 1))}
            levels.append(offset[j] + cx.face_table(k, j)[:, [column[tuple(sorted(p[: j + 1]))] for p in flags]])
        pieces = np.stack(levels, axis=2)
        odd = sort_parity(np.array(flags)) < 0
        pieces[:, odd, :2] = pieces[:, odd, 1::-1]
        new[k] = pieces.reshape(-1, k + 1)
    parent = {k: np.repeat(np.arange(len(S)), factorial(k + 1)) for k, S in cx.arrays.items()}
    return _refinement(np.concatenate(centers), new, cx, parent)
