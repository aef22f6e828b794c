"""Flat cochains, lowest-order Whitney forms and lazily evaluated currents.

A cochain stores one coefficient per k-simplex in the sparse coefficient
class chains share (chains._Coefficients); it adds only the pairing with
chains.  The coboundary is the adjoint of the boundary, taken on the dense
vector.  A cochain's Whitney realization is the piecewise-polynomial form
field with those simplex integrals; the realization is tangentially
continuous, so weak exterior derivatives have no face terms and all
pairings reduce to exact polynomial integrals.

A form field is one coefficient array, coef[top, component, monomial],
over an ascending array of top simplices, with the monomials of
poly.monomials(n, FORM_DEGREE); a current's densities have the same layout
over its carrier simplices.  Every operation is a gather and a contraction
with a fixed table: d, wedge and interior_product with
multivec.wedge_tensor and poly's derivative and product tables, the
pullback (maps.pullback_form) with poly.substitution.  Every lazy current
is built by one contraction, `interior_product(W, T)`: the densities
W -| T of a form field W on the carriers of a chain T.  The current of a
chain is 1 -| T (chain_as_current), a sharp product phi A is phi's PL
interpolant contracted with A (sharp.multiply), and a cochain X acts as
whitney_realize(X): one batched accumulation over all tops, in the term
order of the per-top loop that survives only as the test reference
tests/reference_whitney.py.  A form field is paired with a current by
EvaluableCurrent.evaluate, one moment contraction per carrier degree
(poly.integrate_over_simplex): a chain T integrates w as
chain_as_current(T).evaluate(w).  EvaluableCurrent.mass integrates every
density of one direction in closed form (_abs_affine_integrals), uncut.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial, hypot

import numpy as np

from . import multivec, poly
from .chains import Chain, _Coefficients, running_sum
from .errors import (
    ComplexMismatch,
    DegreeMismatch,
    DegreeOverflow,
    MassBudgetExceeded,
    TopDegree,
    WrongDegree,
)
from .mesh import Complex, barycentric_refine, row_wedges
from .poly import FORM_DEGREE, integrate_over_simplex

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
    """Polynomial k-form on listed top simplices: coef[t, component, monomial] over ascending tops.

    Monomials are poly.monomials(n, FORM_DEGREE) and components the basis
    of Lambda_k R^n; a top that is not listed carries the zero form.
    """

    __slots__ = ("complex", "degree", "tops", "coef")

    def __init__(self, cx: Complex, degree: int, tops=(), coef=None):
        n = cx.dim
        tops = np.asarray(tops, dtype=np.intp).reshape(-1)
        shape = (len(tops), multivec.dim(n, degree), poly.size(n, FORM_DEGREE))
        coef = np.zeros(shape) if coef is None else np.asarray(coef, dtype=float)
        if coef.shape != shape:
            kind = WrongDegree if coef.ndim != 3 or coef.shape[1] != shape[1] else ValueError
            raise kind(f"a {degree}-form on R^{n} over {len(tops)} tops has coefficients of shape {shape}, not {coef.shape}")
        if (tops[1:] <= tops[:-1]).any():
            raise ValueError("form field tops must be strictly ascending")
        if not np.isfinite(coef).all():
            bad = np.flatnonzero(~np.isfinite(coef).all(axis=(1, 2)))[0]
            raise ValueError(f"form coefficient on top {tops[bad]} is not finite: {coef[bad].tolist()}")
        self.complex = cx
        self.degree = degree
        self.tops = tops
        self.coef = coef

    def locate(self, tops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, found): the rows of the listed ones among `tops`, and which of `tops` are listed."""
        pos = np.searchsorted(self.tops, tops)
        found = pos < len(self.tops)
        found[found] = self.tops[pos[found]] == tops[found]
        return pos[found], found

    def value(self, top_idx: int, x: np.ndarray) -> np.ndarray:
        rows, _ = self.locate(np.array([top_idx]))
        coef = self.coef[rows[0]] if rows.size else np.zeros(self.coef.shape[1:])
        return coef @ poly.powers(np.asarray(x, dtype=float), FORM_DEGREE)

    def __add__(self, other: "FormField") -> "FormField":
        if self.complex is not other.complex or self.degree != other.degree:
            raise ComplexMismatch("form fields are incompatible")
        tops = np.union1d(self.tops, other.tops)
        coef = np.zeros((len(tops),) + self.coef.shape[1:])
        coef[np.searchsorted(tops, self.tops)] += self.coef
        coef[np.searchsorted(tops, other.tops)] += other.coef
        return FormField(self.complex, self.degree, tops, coef)

    def scale(self, a: float) -> "FormField":
        return FormField(self.complex, self.degree, self.tops, a * self.coef)

    def __sub__(self, other: "FormField") -> "FormField":
        return self + other.scale(-1.0)

    def d(self) -> "FormField":
        """Piecewise exterior derivative (no face terms for Whitney-realized fields)."""
        n, k = self.complex.dim, self.degree
        return FormField(self.complex, k + 1, self.tops, np.einsum("tia,ioab->tob", self.coef, _d_tensor(n, k)))

    def wedge(self, other: "FormField") -> "FormField":
        """Pointwise wedge on the tops both fields list; DegreeOverflow past the stored degree."""
        if self.complex is not other.complex:
            raise ComplexMismatch("form fields on different complexes")
        n, k, r = self.complex.dim, self.degree, other.degree
        if k + r > n:
            raise DegreeOverflow("wedge exceeds ambient dimension")
        tops, i, j = np.intersect1d(self.tops, other.tops, assume_unique=True, return_indices=True)
        a, b = poly.trim(self.coef[i], n), poly.trim(other.coef[j], n)
        prod = poly.multiply(a[:, :, None], b[:, None, :], n)  # (t, i, j, monomial)
        coef = np.einsum("tijm,ijo->tom", prod, multivec.wedge_tensor(n, k, r))
        return FormField(self.complex, k + r, tops, poly.fit(coef, n))

    def vertex_comass_max(self) -> float:
        """Max Euclidean component norm over supported simplices' vertices."""
        cx = self.complex
        X = cx.vertices[cx.arrays[cx.top_degree][self.tops]]
        vals = np.einsum("tcm,tvm->tvc", self.coef, poly.powers(X, FORM_DEGREE))
        return float(np.linalg.norm(vals, axis=2).max(initial=0.0))


@lru_cache(maxsize=None)
def _d_tensor(n: int, k: int) -> np.ndarray:
    """(dim(n, k), dim(n, k + 1), size, size): d of component i's monomial a into component o's b."""
    sign = -1.0 if k % 2 else 1.0  # dx_a ^ dx_I = (-1)^k dx_I ^ dx_a
    return np.einsum("ixo,xab->ioab", sign * multivec.wedge_tensor(n, k, 1), poly.derivative_tensor(n, FORM_DEGREE))


def constant_form(cx: Complex, degree: int, comps) -> FormField:
    """Form field with the same constant covector on every top simplex."""
    comps = np.asarray(comps, dtype=float).reshape(-1)
    m = cx.n_simplices(cx.top_degree)
    coef = np.zeros((m, len(comps), poly.size(cx.dim, FORM_DEGREE)))
    coef[:, :, 0] = comps
    return FormField(cx, degree, np.arange(m), coef)


def whitney_realize(X: Cochain) -> FormField:
    """Lowest-order Whitney form with the cochain's simplex integrals.

    A k-face whose stored vertices sit at positions r_0 .. r_k of a top
    simplex adds k! X(face) sum_i (-1)^i lambda_(r_i) dlambda_(r_0) ^ ...
    (r_i omitted) ... ^ dlambda_(r_k) there.  A top is listed when one of
    its faces has a nonzero coefficient, and only listed tops are computed.
    The wedges of gradient rows are taken by mesh.row_wedges for all of
    them at once, and one pass adds their affine terms into the
    coefficient array, face slot by face slot and position by position,
    the order of the per-top loop it replaced (now only the test
    reference_whitney.py), so every coefficient is that loop's sum.
    """
    cx = X.complex
    n = cx.dim
    k = X.degree
    faces = cx.face_table(cx.top_degree, k)
    live = np.flatnonzero(X.vector()[faces].any(axis=1))
    if not live.size:
        return FormField(cx, k)
    faces, G = faces[live], cx.barygrads[live]  # row i of a top: (grad lambda_i, const)
    m, nf = faces.shape
    # positions in each top of each face's stored vertices, (m, nf, k + 1)
    pos = np.argmax(cx.arrays[k][faces][..., None] == cx.arrays[cx.top_degree][live, None, None, :], axis=-1)
    others = pos[..., [[j for j in range(k + 1) if j != i] for i in range(k + 1)]]
    rows = G[np.arange(m)[:, None, None, None], others, :n]
    W = row_wedges(rows.reshape(m * nf * (k + 1), k, n)).reshape(m, nf, k + 1, -1)
    lam = G[np.arange(m)[:, None, None], pos][..., [n, *range(n)]]  # lambda_(r_i) as coefficients of 1, x_0, ...
    coeffs = factorial(k) * X.vector()[faces]
    sign = (-1.0) ** np.arange(k + 1)
    terms = ((sign * coeffs[:, :, None])[..., None] * W)[..., None] * lam[:, :, :, None]
    terms = terms.reshape(m, nf * (k + 1), W.shape[-1], n + 1)  # in (face slot, position) order
    acc = np.zeros((m, W.shape[-1], poly.size(n, FORM_DEGREE)))
    for t in range(terms.shape[1]):
        acc[..., : n + 1] += terms[:, t]
    return FormField(cx, k, live, acc)


class EvaluableCurrent:
    """Lazily represented current: polynomial q-vector densities on carrier simplices.

    Carrier c is the simplex (carrier_degree[c], carrier_index[c]) with the
    density coefficients density[c, component, monomial], laid out as a
    FormField's.  Pairing with a form field integrates <omega(x), density(x)>
    over each carrier simplex exactly (poly.integrate_over_simplex).
    """

    def __init__(self, cx: Complex, degree: int, carrier_degree, carrier_index, density):
        self.complex = cx
        self.degree = degree
        self.carrier_degree = np.asarray(carrier_degree, dtype=np.intp).reshape(-1)
        self.carrier_index = np.asarray(carrier_index, dtype=np.intp).reshape(-1)
        self.density = np.asarray(density, dtype=float)
        shape = (len(self.carrier_index), multivec.dim(cx.dim, degree), poly.size(cx.dim, FORM_DEGREE))
        if self.density.shape != shape or len(self.carrier_degree) != shape[0]:
            raise ValueError(f"need {shape[0]} carrier degrees and densities of shape {shape}")

    def __add__(self, other: "EvaluableCurrent") -> "EvaluableCurrent":
        if self.complex is not other.complex or self.degree != other.degree:
            raise ComplexMismatch("currents are incompatible")
        degrees = np.concatenate([self.carrier_degree, other.carrier_degree])
        index = np.concatenate([self.carrier_index, other.carrier_index])
        return EvaluableCurrent(self.complex, self.degree, degrees, index, np.concatenate([self.density, other.density]))

    def scale(self, a: float) -> "EvaluableCurrent":
        return EvaluableCurrent(self.complex, self.degree, self.carrier_degree, self.carrier_index, a * self.density)

    def __sub__(self, other: "EvaluableCurrent") -> "EvaluableCurrent":
        return self + other.scale(-1.0)

    def _by_degree(self):
        """(carrier degree, carrier rows, their simplex indices), one per degree present."""
        for k in np.unique(self.carrier_degree).tolist():
            rows = np.flatnonzero(self.carrier_degree == k)
            yield k, rows, self.carrier_index[rows]

    def evaluate(self, omega: FormField) -> float:
        """sum over carriers of the integral of <omega, density>, added in carrier order.

        Per carrier degree, omega's coefficients on the containing tops are
        multiplied with the densities and integrated in one contraction;
        carriers whose top omega does not list add nothing.
        """
        if omega.complex is not self.complex:
            raise ComplexMismatch("form field on a different complex")
        if omega.degree != self.degree:
            raise DegreeMismatch("form degree does not match current degree")
        cx = self.complex
        n = cx.dim
        terms = np.zeros(len(self.carrier_index))
        for k, rows, idx in self._by_degree():
            at, found = omega.locate(cx.containing_tops(k, idx))
            rows, idx = rows[found], idx[found]
            w, rho = poly.trim(omega.coef[at], n), poly.trim(self.density[rows], n)
            scalar = poly.multiply(w, rho, n).sum(axis=1)
            terms[rows] = integrate_over_simplex(scalar, cx.vertices[cx.arrays[k][idx]], cx.volumes(k)[idx])
        return running_sum(terms)

    def boundary_evaluate(self, omega: FormField) -> float:
        """Pairing of the boundary current with omega, via (bd T)(w) = T(dw)."""
        return self.evaluate(omega.d())

    # -- mass ------------------------------------------------------------

    def mass(self, tol: float = 1e-9) -> float:
        """Total variation of the densities over the carriers, one pass per carrier degree.

        One contraction gives the vertex values and one stacked SVD the
        ranks.  A density of one direction (second singular value at most
        1e-12 times the first) is a plus/minus-affine scalar, integrated in
        closed form (_abs_affine_integrals).  Rank-2 carriers alone take the
        adaptive convexity brackets to tol, raising MassBudgetExceeded where
        one needs more than MASS_PIECE_BUDGET pieces.  Masses add in carrier order.
        """
        cx = self.complex
        terms = np.zeros(len(self.carrier_index))
        for k, rows, idx in self._by_degree():
            X = cx.vertices[cx.arrays[k][idx]]
            V = np.einsum("cjm,cvm->cvj", self.density[rows], poly.powers(X, FORM_DEGREE))
            vol = cx.volumes(k)[idx]
            _, svals, Vt = np.linalg.svd(V, full_matrices=False)
            exact = (svals[:, 1:2] <= 1e-12 * svals[:, :1]).all(axis=1)
            terms[rows[exact]] = _abs_affine_integrals(np.einsum("cvj,cj->cv", V[exact], Vt[exact, 0]), vol[exact])
            for j in np.flatnonzero(~exact).tolist():  # rank 2
                terms[rows[j]] = _adaptive_norm_integral(X[j], V[j], float(vol[j]), tol, (k, int(idx[j])))
        return running_sum(terms)

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
        if (self.carrier_degree != q).any():
            raise DegreeMismatch("only same-dimension currents materialize to chains")
        xi = cx.unit_tangents(q)[self.carrier_index]
        s_poly = np.einsum("cjm,cj->cm", self.density, xi)  # the scalar density <density, xi> per carrier
        s_vals = np.einsum("cvm,cm->cv", poly.powers(cx.vertices[cx.arrays[q][self.carrier_index]], FORM_DEGREE), s_poly)
        osc0 = float(np.ptp(s_vals, axis=1).max(initial=0.0))
        scale = float(np.abs(s_vals).max(initial=0.0))
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
        pieces, counts = ref.pieces(q, self.carrier_index)
        keys, values = [], []
        err = 0.0
        for s_c, group in zip(s_poly, np.split(pieces, np.cumsum(counts)[:-1])):
            for piece in group.tolist():
                pc = ref.complex.coords(q, piece)
                s_bary, *s_verts = (poly.powers(np.vstack([pc.mean(axis=0), pc]), FORM_DEGREE) @ s_c).tolist()
                if s_bary != 0.0:
                    keys.append(piece)
                    values.append(s_bary)
                dev = max(abs(v - s_bary) for v in s_verts)
                err += dev * ref.complex.volume(q, piece)
        return Chain.from_terms(ref.complex, q, keys, values), ref, err


def _abs_affine_integrals(s: np.ndarray, vol: np.ndarray) -> np.ndarray:
    """Exact integral of |f| over each simplex, f affine with vertex values s (c, k + 1), volumes vol (c,).

    A row is scaled by a power of two (exact) to largest |value| in [1, 2)
    and negated if it has more positive than negative values, so at most two
    are positive, two only if k = 3.  int |f| = 2 I - V sum(s) / (k + 1),
    where I = int f+ is V / (k + 1) times the divided difference of x+^(k+1)
    at the values (Hermite-Genocchi; de Boor, Divided differences, 2005),
    taken as cone volumes from edge fractions in [0, 1].  With one positive
    value a, I = V a prod_j (a / (a - s_j)) / (k + 1).  With a >= b > 0 >= c >= d,
    the prism f > 0 coned from b's vertex gives I = V [x y (a + b) +
    x (1 - y) w b + (1 - x) z w b] / 4, x, y, z, w = a / (a - c), a / (a - d),
    b / (b - c), b / (b - d).  No term is negative, so zeros and ties need
    no case of their own, nothing is snapped and nothing cancels.
    """
    k = s.shape[1] - 1
    scale = np.ldexp(1.0, np.frexp(np.abs(s).max(axis=1))[1] - 1)
    s = s / scale[:, None]
    flip = (s > 0).sum(axis=1) > (s < 0).sum(axis=1)
    s = -np.sort(np.where(flip[:, None], s, -s), axis=1)  # descending: the positive values first
    n_pos = (s > 0).sum(axis=1)
    plus = np.zeros(len(s))
    a = s[n_pos == 1]
    plus[n_pos == 1] = a[:, 0] * np.prod(a[:, :1] / (a[:, :1] - a[:, 1:]), axis=1) / (k + 1)
    if k == 3:
        a, b, c, d = s[n_pos == 2].T
        x, y, z, w = a / (a - c), a / (a - d), b / (b - c), b / (b - d)
        plus[n_pos == 2] = (x * y * (a + b) + x * w * b * d / (d - a) + z * w * b * c / (c - a)) / 4
    return scale * vol * (2 * plus - s.sum(axis=1) / (k + 1))


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

    On each simplex of T the density is omega's coefficients on its
    containing top simplex contracted with T's coefficient times the unit
    tangent, through multivec.wedge_tensor.  Every current's densities are
    built here; EvaluableCurrent only rescales and concatenates them.
    Simplices whose density vanishes carry nothing.
    """
    if omega.complex is not T.complex:
        raise ComplexMismatch("form field and chain live on different complexes")
    k, r = omega.degree, T.degree
    if k > r:
        raise DegreeMismatch("contraction degree exceeds chain degree")
    cx = T.complex
    at, found = omega.locate(cx.containing_tops(r, T.idx))
    idx = T.idx[found]
    xi = cx.unit_tangents(r)[idx] * T.val[found, None]
    factor = np.einsum("co,ijo->cij", xi, multivec.wedge_tensor(cx.dim, k, r - k))  # e_I ^ e_J = s e_o
    density = np.einsum("cij,cia->cja", factor, omega.coef[at])
    keep = density.any(axis=(1, 2))
    return EvaluableCurrent(cx, r - k, np.full(keep.sum(), r), idx[keep], density[keep])


def chain_as_current(T: Chain) -> EvaluableCurrent:
    """The evaluable current of a simplicial chain: the constant 0-form 1 contracted with T.

    The form is built only on the top simplices containing T's simplices,
    the ones the contraction reads, so the cost follows T, not the mesh.
    """
    cx = T.complex
    tops = np.unique(cx.containing_tops(T.degree, T.idx))
    one = np.zeros((len(tops), 1, poly.size(cx.dim, FORM_DEGREE)))
    one[:, :, 0] = 1.0
    return interior_product(FormField(cx, 0, tops, one), T)
