"""Piecewise-affine Lipschitz maps determined by vertex images.

A PAMap interpolates vertex images affinely on every simplex of its source
complex, which makes pushforwards of chains exact (image simplices with
orientation signs) instead of mollifier limits.  Degenerate image
simplices are dropped; the area formula's signed multiplicity is realized
by deduplicating coincident image simplices with relative orientation
signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import Chain
from .errors import ComplexMismatch, EmptyRegion, NonSimplexImage
from .forms import Cochain, FormField
from .mesh import (
    Complex,
    _first_seen,
    _longest_edges,
    _row_codes,
    build_complex,
    first_overlapping_pair,
    simplex_volumes,
    sort_parity,
)
from .poly import Poly

DEGEN_TOL = 1e-12


@dataclass
class ImageData:
    complex: Complex
    vertex_map: list[int]
    simplex_map: dict[int, list[tuple[int, int] | None]]  # (image index, sign) or None


class PAMap:
    """Piecewise-affine map from a source complex into R^m (m >= n)."""

    def __init__(self, source: Complex, images):
        images = np.asarray(images, dtype=float)
        if images.ndim != 2 or images.shape[0] != source.vertices.shape[0]:
            raise ValueError("need one image point per source vertex")
        bad = np.flatnonzero(~np.isfinite(images).all(axis=1))
        if bad.size:
            raise ValueError(f"image of vertex {bad[0]} has a non-finite coordinate {images[bad[0]]}")
        if images.shape[1] < source.dim:
            raise NonSimplexImage("target dimension below source dimension")
        if images.shape[1] > 3:
            raise NonSimplexImage("target dimension above 3 is not supported")
        self.source = source
        self.images = images
        self.target_dim = images.shape[1]
        self._jacobians: dict[int, np.ndarray] = {}
        self._image: ImageData | None = None
        self._embedding: EmbeddingVerdict | None = None

    # -- differentials -----------------------------------------------------

    def jacobian(self, top_idx: int) -> np.ndarray:
        """Derivative matrix (m x n) of the affine map on one top simplex."""
        J = self._jacobians.get(top_idx)
        if J is None:
            verts = self.source.simplices[self.source.top_degree][top_idx]
            C = self.source.vertices[list(verts)]
            D = self.images[list(verts)]
            Es = (C[1:] - C[0]).T
            Ei = (D[1:] - D[0]).T
            J = Ei @ np.linalg.pinv(Es)
            self._jacobians[top_idx] = J
        return J

    def affine_on(self, top_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """(M, c) with F(x) = c + M x on the top simplex."""
        verts = self.source.simplices[self.source.top_degree][top_idx]
        v0 = self.source.vertices[verts[0]]
        M = self.jacobian(top_idx)
        return M, self.images[verts[0]] - M @ v0

    def singular_values(self, top_idx: int) -> np.ndarray:
        return np.linalg.svd(self.jacobian(top_idx), compute_uv=False)

    def det(self, top_idx: int) -> float:
        J = self.jacobian(top_idx)
        if J.shape[0] != J.shape[1]:
            raise NonSimplexImage("determinant requires equal dimensions")
        return float(np.linalg.det(J))

    # -- image complex -------------------------------------------------------

    def image(self) -> ImageData:
        if self._image is None:
            self._image = self._build_image()
        return self._image

    def embedding(self) -> "EmbeddingVerdict":
        """is_embedding(self), computed once per map like the image and Jacobians."""
        if self._embedding is None:
            self._embedding = is_embedding(self)
        return self._embedding

    @property
    def image_complex(self) -> Complex:
        return self.image().complex

    def _build_image(self) -> ImageData:
        # coincident images, on a grid of DEGEN_TOL times the image diameter, share one vertex
        extent = float(np.linalg.norm(self.images.max(axis=0) - self.images.min(axis=0)))
        grid = np.round(self.images / (DEGEN_TOL * extent)) if extent > 0.0 else self.images
        vmap, first = _first_seen(np.unique(grid, axis=0, return_inverse=True)[1].ravel())
        points = self.images[first]
        table: dict[int, np.ndarray] = {}
        smap: dict[int, list[tuple[int, int] | None]] = {}
        for k, S in self.source.arrays.items():
            img = vmap[S]
            key = np.sort(img, axis=1)
            ok = (key[:, 1:] != key[:, :-1]).all(axis=1)
            if k > 0:
                C = points[img]
                ok &= simplex_volumes(C) > DEGEN_TOL * np.maximum(_longest_edges(C) ** k, 1e-300)
            rows = np.flatnonzero(ok)
            pos, first = _first_seen(_row_codes(key[rows], nv=len(points))[0])
            table[k] = img[rows][first]
            sign = sort_parity(img[rows]) * sort_parity(table[k][pos])
            smap[k] = [None] * len(S)
            for r, p, sg in zip(rows.tolist(), pos.tolist(), sign.tolist()):
                smap[k][r] = (p, sg)
        cx = build_complex(points, table, check_overlap=False)
        # table positions are preserved by build_complex (explicit first)
        return ImageData(cx, vmap.tolist(), smap)

    def __call__(self, x: np.ndarray, top_idx: int) -> np.ndarray:
        M, c = self.affine_on(top_idx)
        return c + M @ np.asarray(x, dtype=float)


def compose(G: PAMap, F: PAMap) -> PAMap:
    """G after F; G's source must be F's image complex."""
    img = F.image()
    if G.source is not img.complex:
        raise ComplexMismatch("maps do not compose: intermediate complexes differ")
    pts = np.asarray([G.images[img.vertex_map[v]] for v in range(F.source.vertices.shape[0])])
    return PAMap(F.source, pts)


# -- norms ---------------------------------------------------------------


def lipschitz_constant(F: PAMap, region=None) -> float:
    """Max operator norm over region top simplices (exact on convex unions)."""
    region = _region(F.source, region)
    return max(float(F.singular_values(i)[0]) for i in region)


def _region(cx: Complex, region) -> list[int]:
    if region is None:
        region = range(cx.n_simplices(cx.top_degree))
    region = list(region)
    if not region:
        raise EmptyRegion("region contains no simplices")
    return region


def lip_seminorm(obj, region=None) -> float:
    """max{ sup-norm over region vertices, Lipschitz constant over region }.

    Accepts a PAMap or anything with `complex`, `vertex_magnitude(v)` and
    `gradient_norm(top_idx)` (sharp fields).
    """
    if isinstance(obj, PAMap):
        cx = obj.source
        region = _region(cx, region)
        sup = 0.0
        for i in region:
            for v in cx.simplices[cx.top_degree][i]:
                sup = max(sup, float(np.linalg.norm(obj.images[v])))
        return max(sup, lipschitz_constant(obj, region))
    cx = obj.complex
    region = _region(cx, region)
    sup = 0.0
    lip = 0.0
    for i in region:
        for v in cx.simplices[cx.top_degree][i]:
            sup = max(sup, obj.vertex_magnitude(v))
        lip = max(lip, obj.gradient_norm(i))
    return max(sup, lip)


# -- embedding test --------------------------------------------------------


@dataclass
class EmbeddingVerdict:
    ok: bool
    c: float
    d: float
    witness: tuple | None  # ("degenerate", idx) or ("overlap", (i, j))

    def __bool__(self) -> bool:
        return self.ok


def is_embedding(F: PAMap) -> EmbeddingVerdict:
    """Full-rank Jacobians plus pairwise interior-disjointness of image simplices.

    Returns the extreme singular values (c, d); a failure carries a witness
    simplex or pair.  A simplex is degenerate when its Jacobian's smallest
    singular value is at most DEGEN_TOL times its largest, which makes the
    verdict invariant under scaling of the map.  Interior overlap of the
    image simplices is decided exactly, by the same sweep that validates
    meshes (mesh.first_overlapping_pair).
    """
    src = F.source
    K = src.top_degree
    m = src.n_simplices(K)
    c = np.inf
    d = 0.0
    for i in range(m):
        sv = F.singular_values(i)
        d = max(d, float(sv[0]))
        smin = float(sv[-1]) if len(sv) >= src.dim else 0.0
        if smin <= DEGEN_TOL * float(sv[0]):
            return EmbeddingVerdict(False, 0.0, d, ("degenerate", i))
        c = min(c, smin)
    imgs = F.images[np.asarray(src.simplices[K], dtype=int)]
    pair = first_overlapping_pair(imgs)
    if pair is not None:
        return EmbeddingVerdict(False, float(c), float(d), ("overlap", pair))
    return EmbeddingVerdict(True, float(c), float(d), None)


# -- pushforward / pullback -----------------------------------------------


def pushforward(F: PAMap, T: Chain) -> Chain:
    """Image chain on the image complex; orientation-reversing images flip sign."""
    if T.complex is not F.source:
        raise ComplexMismatch("chain does not live on the map's source")
    img = F.image()
    if T.degree > img.complex.top_degree:
        raise NonSimplexImage("every image simplex of the chain degree is degenerate")
    coeffs: dict[int, float] = {}
    for idx, a in T.coeffs.items():
        entry = img.simplex_map[T.degree][idx]
        if entry is None:
            continue
        pos, sign = entry
        v = coeffs.get(pos, 0.0) + sign * a
        if v == 0.0:
            coeffs.pop(pos, None)
        else:
            coeffs[pos] = v
    return Chain(img.complex, T.degree, coeffs)


def pullback_cochain(F: PAMap, X: Cochain) -> Cochain:
    """F^# X with (F^# X)(T) = X(F_# T), assembled simplex by simplex."""
    img = F.image()
    if X.complex is not img.complex:
        raise ComplexMismatch("cochain does not live on the image complex")
    src = F.source
    out: dict[int, float] = {}
    for idx in range(src.n_simplices(X.degree)):
        entry = img.simplex_map[X.degree][idx]
        if entry is None:
            continue
        pos, sign = entry
        c = X.coeffs.get(pos)
        if c:
            out[idx] = sign * c
    return Cochain(src, X.degree, out)


def pullback_form(F: PAMap, omega: FormField) -> FormField:
    """Pointwise pullback (F^# w)(x)(v_1^...^v_r) = w(F x)(DF v_1 ^...^ DF v_r)."""
    img = F.image()
    if omega.complex is not img.complex:
        raise ComplexMismatch("form does not live on the image complex")
    src = F.source
    n = src.dim
    r = omega.degree
    from . import multivec

    K = src.top_degree
    out: dict[int, list[Poly]] = {}
    in_tuples = multivec.basis_tuples(img.complex.dim, r)
    out_tuples = multivec.basis_tuples(n, r)
    for top in range(src.n_simplices(K)):
        entry = img.simplex_map[K][top]
        if entry is None:
            continue
        polys = omega.comps.get(entry[0])
        if polys is None:
            continue
        M, ccst = F.affine_on(top)
        composed = [p.compose_affine(M, ccst) if not p.is_zero() else Poly.zero(n) for p in polys]
        res = [Poly.zero(n) for _ in out_tuples]
        for oi, I in enumerate(out_tuples):
            for ji, Jax in enumerate(in_tuples):
                minor = np.linalg.det(M[np.ix_(list(Jax), list(I))]) if r else 1.0
                if minor != 0.0 and not composed[ji].is_zero():
                    res[oi] = res[oi] + composed[ji].scale(float(minor))
        out[top] = res
    return FormField(src, r, out)
