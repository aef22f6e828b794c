"""Flat cochains, lowest-order Whitney forms and lazily evaluated currents.

A cochain stores one coefficient per k-simplex in the sparse coefficient
class chains share (chains._Coefficients); it adds only the pairing with
chains.  The coboundary is the adjoint of the boundary, taken on the dense
vector.  A cochain's Whitney realization is the piecewise-polynomial form
field with those simplex integrals; the realization is tangentially
continuous, so weak exterior derivatives have no face terms and all
pairings reduce to exact polynomial integrals.

Every lazy current is built by one contraction, `interior_product(W, T)`:
the densities W -| T of a form field W on the carriers of a chain T.  The
current of a chain is 1 -| T (chain_as_current), a sharp product phi A is
phi's PL interpolant contracted with A (sharp.multiply), and a cochain X
acts as whitney_realize(X): one batched accumulation over all tops, in the
term order of the per-top Poly loop that survives only as the test
reference tests/reference_whitney.py.  A form field is paired with a
current by EvaluableCurrent.evaluate: a chain T integrates w as
chain_as_current(T).evaluate(w).  The signs of the exterior derivative and
the interior product are the rows of multivec.wedge_table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, hypot

import numpy as np

from . import multivec
from .chains import Chain, _Coefficients, running_sum
from .errors import (
    ComplexMismatch,
    DegreeMismatch,
    DegreeOverflow,
    MassBudgetExceeded,
    TopDegree,
)
from .mesh import Complex, _cut_vertices, _split_ids, barycentric_refine, row_wedges, simplex_volumes
from .poly import Poly, integrate_over_simplex

MASS_PIECE_BUDGET = 1 << 16  # adaptive mass pieces per carrier


class Cochain(_Coefficients):
    """Sparse k-cochain: coefficients on ascending simplex indices (Whitney duality)."""

    __slots__ = ()

    def __call__(self, chain: Chain) -> float:
        return evaluate(self, chain)


def evaluate(X: Cochain, T: Chain) -> float:
    """Simplicial pairing X(T) = sum over simplices of coeff * coefficient."""
    if X.complex is not T.complex:
        raise ComplexMismatch("cochain and chain live on different complexes")
    if X.degree != T.degree:
        raise DegreeMismatch("cochain and chain degrees differ")
    _, i, j = np.intersect1d(T.idx, X.idx, assume_unique=True, return_indices=True)
    return running_sum(T.val[i] * X.val[j])


def coboundary(X: Cochain) -> Cochain:
    """(dX)(A) = X(boundary A); the adjoint of the boundary operator."""
    cx = X.complex
    if X.degree >= cx.top_degree:
        raise TopDegree("coboundary exceeds the top degree of the mesh")
    faces, signs = cx.incidence_arrays(X.degree + 1)
    x = X.vector()
    acc = np.zeros(len(faces))
    for i in range(faces.shape[1]):
        acc = acc + signs[:, i] * x[faces[:, i]]
    return Cochain.from_terms(cx, X.degree + 1, np.arange(len(acc)), acc)


class FormField:
    """Per-top-simplex polynomial k-form (degree <= 2 coefficients)."""

    __slots__ = ("complex", "degree", "comps")

    def __init__(self, cx: Complex, degree: int, comps: dict[int, list[Poly]] | None = None):
        self.complex = cx
        self.degree = degree
        self.comps = comps or {}

    def _dim(self) -> int:
        return multivec.dim(self.complex.dim, self.degree)

    def value(self, top_idx: int, x: np.ndarray) -> np.ndarray:
        polys = self.comps.get(top_idx)
        if polys is None:
            return np.zeros(self._dim())
        return np.array([p(x) for p in polys])

    def __add__(self, other: "FormField") -> "FormField":
        if self.complex is not other.complex or self.degree != other.degree:
            raise ComplexMismatch("form fields are incompatible")
        out = {i: list(p) for i, p in self.comps.items()}
        for i, polys in other.comps.items():
            out[i] = [a + b for a, b in zip(out[i], polys)] if i in out else list(polys)
        return FormField(self.complex, self.degree, out)

    def scale(self, a: float) -> "FormField":
        return FormField(
            self.complex, self.degree, {i: [p.scale(a) for p in polys] for i, polys in self.comps.items()}
        )

    def __sub__(self, other: "FormField") -> "FormField":
        return self + other.scale(-1.0)

    def d(self) -> "FormField":
        """Piecewise exterior derivative (no face terms for Whitney-realized fields)."""
        cx = self.complex
        n = cx.dim
        k = self.degree
        sign = -1 if k % 2 else 1  # dx_a ^ dx_I = (-1)^k dx_I ^ dx_a
        table = multivec.wedge_table(n, k, 1)
        out: dict[int, list[Poly]] = {}
        for top, polys in self.comps.items():
            res = [Poly.zero(n) for _ in range(multivec.dim(n, k + 1))]
            for i, dax, o, s in table:
                dp = polys[i].diff(dax)
                if not dp.is_zero():
                    res[o] = res[o] + dp.scale(sign * s)
            out[top] = res
        return FormField(cx, k + 1, out)

    def wedge(self, other: "FormField") -> "FormField":
        if self.complex is not other.complex:
            raise ComplexMismatch("form fields on different complexes")
        n = self.complex.dim
        if self.degree + other.degree > n:
            raise DegreeOverflow("wedge exceeds ambient dimension")
        table = multivec.wedge_table(n, self.degree, other.degree)
        out: dict[int, list[Poly]] = {}
        for top in set(self.comps) & set(other.comps):
            res = [Poly.zero(n) for _ in multivec.basis_tuples(n, self.degree + other.degree)]
            a, b = self.comps[top], other.comps[top]
            for i, j, o, s in table:
                prod = a[i] * b[j]
                if not prod.is_zero():
                    res[o] = res[o] + prod.scale(s)
            out[top] = res
        return FormField(self.complex, self.degree + other.degree, out)

    def vertex_comass_max(self) -> float:
        """Max Euclidean component norm over supported simplices' vertices."""
        cx = self.complex
        best = 0.0
        for top, polys in self.comps.items():
            for x in cx.coords(cx.top_degree, top):
                v = np.array([p(x) for p in polys])
                best = max(best, float(np.linalg.norm(v)))
        return best


def constant_form(cx: Complex, degree: int, comps) -> FormField:
    """Form field with the same constant covector on every top simplex."""
    comps = np.asarray(comps, dtype=float)
    n = cx.dim
    polys = [Poly.constant(n, c) for c in comps]
    return FormField(cx, degree, {i: list(polys) for i in range(cx.n_simplices(cx.top_degree))})


def whitney_realize(X: Cochain) -> FormField:
    """Lowest-order Whitney form with the cochain's simplex integrals.

    A k-face whose stored vertices sit at positions r_0 .. r_k of a top
    simplex adds k! X(face) sum_i (-1)^i lambda_(r_i) dlambda_(r_0) ^ ...
    (r_i omitted) ... ^ dlambda_(r_k) there.  The wedges of gradient rows
    are taken by mesh.row_wedges for every top at once, and one batched pass
    adds all terms in the order, and to the dict key order, of the per-top
    Poly loop it replaced, now only the test reference_whitney.py.
    """
    cx = X.complex
    n = cx.dim
    k = X.degree
    comps: dict[int, list[Poly]] = {}
    if X.is_zero():
        return FormField(cx, k, comps)
    G = cx.barygrads  # row i of a top: (grad lambda_i, const)
    faces = cx.face_table(cx.top_degree, k)
    m, nf = faces.shape
    # positions in each top of each face's stored vertices, (m, nf, k + 1)
    pos = np.argmax(cx.arrays[k][faces][..., None] == cx.arrays[cx.top_degree][:, None, None, :], axis=-1)
    others = pos[..., [[j for j in range(k + 1) if j != i] for i in range(k + 1)]]
    rows = G[np.arange(m)[:, None, None, None], others, :n]
    W = row_wedges(rows.reshape(m * nf * (k + 1), k, n)).reshape(m, nf, k + 1, -1)
    lam = G[np.arange(m)[:, None, None], pos][..., [n, *range(n)]]  # lambda_(r_i) as (const, lin)
    coeffs = factorial(k) * X.vector()[faces]
    acc = np.zeros((m, W.shape[-1], n + 1))
    born = np.zeros(acc.shape, dtype=np.intp)  # the term that last brought each sum away from 0.0
    for t, (slot, i) in enumerate(np.ndindex(nf, k + 1)):
        term = ((-1) ** i * coeffs[:, slot, None] * W[:, slot, i])[..., None] * lam[:, slot, i, None]
        born[(acc == 0.0) & (term != 0.0)] = t
        acc += term
    # a Poly lists its monomials as the loop's dict did: by that term, then constant, x_0, x_1, ...
    order = np.argsort(born, axis=-1, kind="stable")
    monos = [(0,) * n] + [tuple(int(e == d) for e in range(n)) for d in range(n)]
    live = np.flatnonzero(coeffs.any(axis=1))
    for top, sums, orders in zip(live.tolist(), acc[live].tolist(), order[live].tolist()):
        comps[top] = [Poly(n, {monos[j]: c[j] for j in o}) for c, o in zip(sums, orders)]
    return FormField(cx, k, comps)


@dataclass
class CurrentEntry:
    carrier_degree: int
    carrier_index: int
    density: list[Poly]  # one polynomial per Lambda_q component


class EvaluableCurrent:
    """Lazily represented current: polynomial q-vector densities on carrier simplices.

    Pairing with a form field integrates <omega(x), density(x)> over each
    carrier simplex with exact polynomial quadrature.
    """

    def __init__(self, cx: Complex, degree: int, entries: list[CurrentEntry] | None = None):
        self.complex = cx
        self.degree = degree
        self.entries = entries or []

    def __add__(self, other: "EvaluableCurrent") -> "EvaluableCurrent":
        if self.complex is not other.complex or self.degree != other.degree:
            raise ComplexMismatch("currents are incompatible")
        return EvaluableCurrent(self.complex, self.degree, self.entries + other.entries)

    def scale(self, a: float) -> "EvaluableCurrent":
        out = [
            CurrentEntry(e.carrier_degree, e.carrier_index, [p.scale(a) for p in e.density])
            for e in self.entries
        ]
        return EvaluableCurrent(self.complex, self.degree, out)

    def __sub__(self, other: "EvaluableCurrent") -> "EvaluableCurrent":
        return self + other.scale(-1.0)

    def evaluate(self, omega: FormField) -> float:
        if omega.complex is not self.complex:
            raise ComplexMismatch("form field on a different complex")
        if omega.degree != self.degree:
            raise DegreeMismatch("form degree does not match current degree")
        cx = self.complex
        total = 0.0
        degrees = np.array([e.carrier_degree for e in self.entries], dtype=np.intp)
        tops = np.array([e.carrier_index for e in self.entries], dtype=np.intp)  # then each carrier's top
        for k in np.unique(degrees).tolist():
            tops[degrees == k] = cx.containing_tops(k, tops[degrees == k])
        for e, top in zip(self.entries, tops.tolist()):
            polys = omega.comps.get(top)
            if polys is None:
                continue
            scalar = Poly.zero(cx.dim)
            for p_omega, p_rho in zip(polys, e.density):
                if not p_omega.is_zero() and not p_rho.is_zero():
                    scalar = scalar + p_omega * p_rho
            if scalar.is_zero():
                continue
            coords = cx.coords(e.carrier_degree, e.carrier_index)
            total += integrate_over_simplex(scalar, coords, cx.volume(e.carrier_degree, e.carrier_index))
        return total

    def boundary_evaluate(self, omega: FormField) -> float:
        """Pairing of the boundary current with omega, via (bd T)(w) = T(dw)."""
        return self.evaluate(omega.d())

    # -- mass ------------------------------------------------------------

    def mass(self, tol: float = 1e-9) -> float:
        """Total variation of the densities over the carriers.

        Exact when a density keeps a constant direction (it is then a
        plus/minus-affine scalar and the carrier is split along its zero
        set); otherwise adaptively refined with convexity brackets to tol,
        raising MassBudgetExceeded where a carrier needs more than
        MASS_PIECE_BUDGET pieces.
        """
        cx = self.complex
        total = 0.0
        for e in self.entries:
            coords = cx.coords(e.carrier_degree, e.carrier_index)
            vol = cx.volume(e.carrier_degree, e.carrier_index)
            vals = np.array([[p(x) for p in e.density] for x in coords])
            scale = np.abs(vals).max(initial=0.0)
            if scale == 0.0:
                continue
            _, svals, Vt = np.linalg.svd(vals, full_matrices=False)
            if svals.size == 1 or svals[1] <= 1e-12 * svals[0]:
                total += _integral_abs_affine(coords, vals @ Vt[0], vol)
            else:
                total += _adaptive_norm_integral(coords, vals, vol, tol, (e.carrier_degree, e.carrier_index))
        return total

    def materialize(self, tol: float = 1e-3, size_budget: int = 600):
        """Simplicial chain approximating a same-dimension current.

        Refines the ambient barycentrically until the density oscillation
        per piece is below tol (relative) or the refined mesh would exceed
        size_budget top simplices; returns (chain, refinement, error_bound)
        where error_bound dominates mass(self - chain), so callers can use
        a coarse materialization soundly.
        """
        cx = self.complex
        q = self.degree
        if any(e.carrier_degree != q for e in self.entries):
            raise DegreeMismatch("only same-dimension currents materialize to chains")
        tangents = cx.unit_tangents(q)
        osc0 = 0.0
        scale = 0.0
        for e in self.entries:
            coords = cx.coords(q, e.carrier_index)
            xi = tangents[e.carrier_index]
            s_vals = np.array([np.dot([p(x) for p in e.density], xi) for x in coords])
            osc0 = max(osc0, float(s_vals.max() - s_vals.min()))
            scale = max(scale, float(np.abs(s_vals).max()))
        K = cx.top_degree
        shrink = K / (K + 1.0)
        growth = factorial(K + 1)
        size = cx.n_simplices(K)
        levels = 0
        osc = osc0
        while osc > tol * max(scale, 1e-300) and size * growth <= size_budget:
            osc *= shrink
            size *= growth
            levels += 1
        ref = barycentric_refine(cx, levels)
        pieces, counts = ref.pieces(q, np.array([e.carrier_index for e in self.entries], dtype=np.intp))
        keys, values = [], []
        err = 0.0
        for e, group in zip(self.entries, np.split(pieces, np.cumsum(counts)[:-1])):
            xi = tangents[e.carrier_index]
            for piece in group.tolist():
                pc = ref.complex.coords(q, piece)
                bary = pc.mean(axis=0)
                s = float(np.dot([p(bary) for p in e.density], xi))
                if s != 0.0:
                    keys.append(piece)
                    values.append(s)
                s_verts = [float(np.dot([p(x) for p in e.density], xi)) for x in pc]
                dev = max(abs(v - s) for v in s_verts)
                err += dev * ref.complex.volume(q, piece)
        return Chain.from_terms(ref.complex, q, keys, values), ref, err


def _integral_abs_affine(coords: np.ndarray, vertex_vals: np.ndarray, vol: float) -> float:
    """Exact integral of |affine scalar| by splitting at its zero set."""
    k = coords.shape[0] - 1
    vmax = np.abs(vertex_vals).max()
    if vmax == 0.0:
        return 0.0
    snap = 1e-14 * vmax
    vals = np.where(np.abs(vertex_vals) <= snap, 0.0, vertex_vals)
    if (vals >= 0).all() or (vals <= 0).all():
        return vol * float(np.abs(vals).mean()) if k >= 0 else 0.0
    pieces = _split_coords_by_values(coords, vals)
    vols = simplex_volumes(np.stack([pc for pc, _ in pieces]))
    total = 0.0
    for pvol, (_, pv) in zip(vols, pieces):
        total += pvol * float(np.abs(pv).mean())
    return total


_EDGES = {v: np.array(list(combinations(range(v), 2))) for v in (2, 3, 4)}


def _split_coords_by_values(coords: np.ndarray, vals: np.ndarray):
    """Split a simplex along the zero set of an affine scalar (vertex values)."""
    ids = tuple(range(len(coords)))
    pts, crossing = _cut_vertices(np.asarray(coords, dtype=float), vals, _EDGES[len(ids)])
    vals = np.concatenate([vals, np.zeros(len(pts) - len(ids))])
    plus, minus = _split_ids(ids, vals.tolist(), crossing)
    return [(pts[list(piece)], vals[list(piece)]) for piece in plus + minus]


def _adaptive_norm_integral(
    coords: np.ndarray, vals: np.ndarray, vol: float, tol: float, carrier: tuple[int, int]
) -> float:
    """Integral of |f| for an affine vector field f with vertex values vals, by convexity brackets.

    |f| is convex, so on a piece of volume v, v |f(barycenter)| bounds the
    integral below and v times the mean vertex norm above.  A piece is kept
    once its bracket is at most tol times the larger of its upper bound and
    its share v / vol of the carrier's upper bound U, so the result is within
    tol U of the integral; the share lets pieces where |f| vanishes close.
    Other pieces are bisected along their longest edge (the first in
    combinations order on a tie); f at the midpoint is the mean of its end
    values, as f is affine.  A carrier (degree, index) that needs more than
    MASS_PIECE_BUDGET pieces raises MassBudgetExceeded with the bracket of
    its integral reached so far.
    """
    edges = list(combinations(range(len(coords)), 2))

    def bracket(f, norms, v):
        return v * hypot(*(sum(col) / len(f) for col in zip(*f))), v * sum(norms) / len(norms)

    f = [tuple(row) for row in np.asarray(vals, dtype=float).tolist()]
    c = [tuple(row) for row in np.asarray(coords, dtype=float).tolist()]
    norms = [hypot(*row) for row in f]
    share = sum(norms) / len(norms)  # U / vol
    stack = [(c, f, norms, vol)]
    lower = upper = 0.0
    pieces = 1
    while stack:
        c, f, norms, v = stack.pop()
        lo, hi = bracket(f, norms, v)
        if hi - lo <= tol * max(hi, v * share):
            lower, upper = lower + lo, upper + hi
            continue
        if pieces >= MASS_PIECE_BUDGET:
            for lo_p, hi_p in [(lo, hi)] + [bracket(*piece[1:]) for piece in stack]:
                lower, upper = lower + lo_p, upper + hi_p
            raise MassBudgetExceeded(
                f"carrier {carrier[0]}-simplex {carrier[1]}: mass bracket [{lower!r}, {upper!r}] "
                f"after {pieces} pieces is wider than tol {tol!r}"
            )
        i, j = max(edges, key=lambda e: sum((x - y) ** 2 for x, y in zip(c[e[0]], c[e[1]])))
        fm = tuple(0.5 * (x + y) for x, y in zip(f[i], f[j]))
        cm = tuple(0.5 * (x + y) for x, y in zip(c[i], c[j]))
        nm = hypot(*fm)
        for end in (j, i):
            c2, f2, n2 = list(c), list(f), list(norms)
            c2[end], f2[end], n2[end] = cm, fm, nm
            stack.append((c2, f2, n2, v / 2))
        pieces += 1
    return 0.5 * (lower + upper)


def interior_product(omega: FormField, T: Chain) -> EvaluableCurrent:
    """The (r-k)-current omega -| T with (omega -| T)(w) = (omega ^ w)(T).

    On each simplex of T the density is omega's polynomials on its
    containing top simplex contracted with T's coefficient times the unit
    tangent.  Every current's densities are built here; EvaluableCurrent
    only rescales and concatenates them.
    """
    if omega.complex is not T.complex:
        raise ComplexMismatch("form field and chain live on different complexes")
    k, r = omega.degree, T.degree
    if k > r:
        raise DegreeMismatch("contraction degree exceeds chain degree")
    cx = T.complex
    n = cx.dim
    q = r - k
    tangents = cx.unit_tangents(r)
    table = multivec.wedge_table(n, k, q)  # e_I ^ e_J = s e_o; each J sums over I in order
    entries = []
    for idx, a, top in zip(T.idx.tolist(), T.val.tolist(), cx.containing_tops(r, T.idx).tolist()):
        polys = omega.comps.get(top)
        if polys is None:
            continue
        xi = tangents[idx]
        density = [Poly.zero(n) for _ in range(multivec.dim(n, q))]
        for i, j, o, s in table:
            if polys[i].is_zero():
                continue
            factor = s * xi[o] * a
            if factor != 0.0:
                density[j] = density[j] + polys[i].scale(factor)
        if any(not p.is_zero() for p in density):
            entries.append(CurrentEntry(r, idx, density))
    return EvaluableCurrent(cx, q, entries)


def chain_as_current(T: Chain) -> EvaluableCurrent:
    """The evaluable current of a simplicial chain: the constant 0-form 1 contracted with T.

    The form is built only on the top simplices containing T's simplices,
    the ones the contraction reads, so the cost follows T, not the mesh.
    """
    cx = T.complex
    one = Poly.constant(cx.dim, 1.0)
    tops = set(cx.containing_tops(T.degree, T.idx).tolist())
    return interior_product(FormField(cx, 0, {i: [one] for i in tops}), T)
