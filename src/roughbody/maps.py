"""Piecewise-affine Lipschitz maps determined by vertex images.

A PAMap interpolates vertex images affinely on every simplex of its source
complex, which makes pushforwards of chains exact (image simplices with
orientation signs) instead of mollifier limits.  Degenerate image
simplices are dropped; the area formula's signed multiplicity is realized
by deduplicating coincident image simplices with relative orientation
signs.  The image table holds, per degree, two arrays over the source
simplices: the image index (-1 where degenerate) and the sign.  F_#
scatters a chain's coefficients through it (Chain.from_terms) and F^#
gathers a cochain's dense vector through it, so the two are adjoint by
construction.

The derivatives of all affine pieces form one (m, t, n) array, the vertex
images contracted with the source's barycentric gradients; determinants
and the minors that pull forms back are wedges of its columns
(mesh.row_wedges), and the embedding test takes one stacked SVD of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chains import Chain
from .errors import ComplexMismatch, EmptyRegion, NonSimplexImage
from .forms import Cochain, FormField
from .mesh import (
    Complex,
    _first_seen,
    _row_codes,
    _too_thin,
    build_complex,
    first_overlapping_pair,
    row_wedges,
    simplex_volumes,
    sort_parity,
)
from .multivec import basis_tuples
from .poly import FORM_DEGREE, substitution

DEGEN_TOL = 1e-12


@dataclass
class ImageData:
    """The image complex and, per degree, each source simplex's image index and orientation sign.

    simplex_image[k][i] is -1 and simplex_sign[k][i] is 0 where the image
    of source k-simplex i is degenerate.
    """

    complex: Complex
    vertex_map: list[int]
    simplex_image: dict[int, np.ndarray]
    simplex_sign: dict[int, np.ndarray]


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
        self._image: ImageData | None = None
        self._embedding: EmbeddingVerdict | None = None

    # -- differentials -----------------------------------------------------

    @cached_property
    def jacobians(self) -> np.ndarray:
        """(m, t, n) derivatives DF = D^T grad(lambda) of the affine pieces on the m top simplices.

        D holds a top simplex's vertex images and grad(lambda) its
        barycentric gradients, so DF is tangential when the top degree is
        below the source dimension.
        """
        src = self.source
        D = self.images[src.arrays[src.top_degree]]
        return np.matmul(D.transpose(0, 2, 1), src.barygrads[:, :, : src.dim])

    @cached_property
    def dets(self) -> np.ndarray:
        """det DF on every top simplex: the wedge of DF's columns (equal dimensions only)."""
        J = self.jacobians
        if J.shape[1] != J.shape[2]:
            raise NonSimplexImage("determinant requires equal dimensions")
        return row_wedges(J.transpose(0, 2, 1))[:, 0]

    def affine_on(self, top_idx) -> tuple[np.ndarray, np.ndarray]:
        """(M, c) with F(x) = c + M x on the top simplex top_idx, stacked for an index array."""
        v0 = self.source.arrays[self.source.top_degree][top_idx, 0]
        M = self.jacobians[top_idx]
        return M, self.images[v0] - np.einsum("...ij,...j->...i", M, self.source.vertices[v0])

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
        index: dict[int, np.ndarray] = {}
        signs: dict[int, np.ndarray] = {}
        for k, S in self.source.arrays.items():
            img = vmap[S]
            key = np.sort(img, axis=1)
            ok = (key[:, 1:] != key[:, :-1]).all(axis=1)
            if k > 0:
                C = points[img]
                ok &= ~_too_thin(C, simplex_volumes(C))
            rows = np.flatnonzero(ok)
            pos, first = _first_seen(_row_codes(key[rows], nv=len(points))[0])
            table[k] = img[rows][first]
            index[k] = np.full(len(S), -1, dtype=np.intp)
            index[k][rows] = pos
            signs[k] = np.zeros(len(S), dtype=np.intp)
            signs[k][rows] = sort_parity(img[rows]) * sort_parity(table[k][pos])
        cx = build_complex(points, table, check_overlap=False)
        # table positions are preserved by build_complex (explicit first)
        return ImageData(cx, vmap.tolist(), index, signs)

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
    return float(np.linalg.norm(F.jacobians[region], 2, axis=(1, 2)).max())


def _region(cx: Complex, region) -> list[int]:
    if region is None:
        region = range(cx.n_simplices(cx.top_degree))
    region = list(region)
    if not region:
        raise EmptyRegion("region contains no simplices")
    return region


def lip_seminorm(obj, region=None) -> float:
    """max{ sup-norm over region vertices, Lipschitz constant over region }.

    Accepts a PAMap or a sharp field (anything with `complex`, `sup(region)`
    and `lipschitz_constant(region)`).
    """
    if isinstance(obj, PAMap):
        cx = obj.source
        region = _region(cx, region)
        sup = float(np.linalg.norm(obj.images[cx.arrays[cx.top_degree][region]], axis=2).max())
        return max(sup, lipschitz_constant(obj, region))
    region = _region(obj.complex, region)
    return max(obj.sup(region), obj.lipschitz_constant(region))


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
    meshes (mesh.first_overlapping_pair), run on the vertex images and the
    source's top-degree id rows.
    """
    src = F.source
    K = src.top_degree
    sv = np.linalg.svd(F.jacobians, compute_uv=False)
    smax, smin = sv[:, 0], sv[:, -1]
    bad = np.flatnonzero(smin <= DEGEN_TOL * smax)
    if bad.size:
        i = int(bad[0])
        return EmbeddingVerdict(False, 0.0, float(smax[: i + 1].max()), ("degenerate", i))
    c, d = smin.min(), smax.max()
    pair = first_overlapping_pair(F.images, src.arrays[K])
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
    pos, sign = img.simplex_image[T.degree][T.idx], img.simplex_sign[T.degree][T.idx]
    keep = pos >= 0
    return Chain.from_terms(img.complex, T.degree, pos[keep], (sign * T.val)[keep])


def pullback_cochain(F: PAMap, X: Cochain) -> Cochain:
    """F^# X with (F^# X)(T) = X(F_# T): X's dense vector gathered through the image table."""
    img = F.image()
    if X.complex is not img.complex:
        raise ComplexMismatch("cochain does not live on the image complex")
    pos, sign = img.simplex_image[X.degree], img.simplex_sign[X.degree]
    rows = np.flatnonzero(pos >= 0)
    return Cochain.from_terms(F.source, X.degree, rows, sign[rows] * X.vector()[pos[rows]])


def pullback_form(F: PAMap, omega: FormField) -> FormField:
    """Pointwise pullback (F^# w)(x)(v_1^...^v_r) = w(F x)(DF v_1 ^...^ DF v_r).

    On every source top whose image top omega lists, omega's coefficients
    are carried through the affine substitution x = F(y) (poly.substitution)
    and contracted with the Jacobian minors det DF[J, I].
    """
    img = F.image()
    if omega.complex is not img.complex:
        raise ComplexMismatch("form does not live on the image complex")
    src = F.source
    at, found = omega.locate(img.simplex_image[src.top_degree])  # the image top, -1 where degenerate
    tops = np.flatnonzero(found)
    J, shift = F.affine_on(tops)
    S = substitution(np.concatenate([shift[:, :, None], J], axis=2), FORM_DEGREE)
    composed = np.einsum("tja,tab->tjb", omega.coef[at], S)
    # minors det J[J, I]: per source axes I, the r-vector of the columns J[:, I]
    minors = np.stack([row_wedges(J[:, :, list(I)].transpose(0, 2, 1)) for I in basis_tuples(src.dim, omega.degree)], axis=2)
    return FormField(src, omega.degree, tops, np.einsum("tjo,tjb->tob", minors, composed))
