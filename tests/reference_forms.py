"""The dict-Poly path of the forms layer (test-only oracle).

These are the exterior derivative, wedge, interior product, pairing,
mass and pullback the library ran while form fields stored one
`reference_poly.Poly` per top and component: a field is {top: [Poly]} and
a current a list of (carrier degree, carrier index, [Poly]) entries.
`polys` and `entries` read the library's coefficient arrays into these
forms exactly, and `field` writes a {top: [Poly]} dict back as a
FormField, so the two paths can be compared on the same inputs.

With absolute=True an operation runs on the absolute values of every
coefficient, sign, factor and coordinate, which gives per result the sum
of the absolute values of the terms the two paths add in different
orders: the scale their rounding differences are measured against.
"""

from __future__ import annotations

import numpy as np

from reference_poly import Poly, integrate_over_simplex
from roughbody import multivec
from roughbody.forms import FormField, _adaptive_norm_integral, _integral_abs_affine
from roughbody.mesh import row_wedges
from roughbody.poly import FORM_DEGREE, monomials


def _abs(p: Poly) -> Poly:
    return Poly(p.n, {m: abs(c) for m, c in p.terms.items()})


def _poly(n: int, coef) -> Poly:
    exps = [tuple(m.count(d) for d in range(n)) for m in monomials(n, FORM_DEGREE)]
    return Poly(n, dict(zip(exps, np.asarray(coef).tolist())))


def polys(field) -> dict[int, list[Poly]]:
    """A FormField's coefficient array as {top: [Poly per component]}."""
    n = field.complex.dim
    return {top: [_poly(n, c) for c in comps] for top, comps in zip(field.tops.tolist(), field.coef)}


def field(cx, k: int, comps: dict[int, list[Poly]]) -> FormField:
    """{top: [Poly per component]} as a FormField (every monomial of degree <= FORM_DEGREE)."""
    mons = monomials(cx.dim, FORM_DEGREE)
    exps = [tuple(m.count(d) for d in range(cx.dim)) for m in mons]
    tops = sorted(comps)
    coef = np.array([[[p.terms.get(e, 0.0) for e in exps] for p in comps[t]] for t in tops]).reshape(
        len(tops), multivec.dim(cx.dim, k), len(mons)
    )
    return FormField(cx, k, tops, coef)


def entries(cur) -> list[tuple[int, int, list[Poly]]]:
    n = cur.complex.dim
    return [
        (k, i, [_poly(n, c) for c in comps])
        for k, i, comps in zip(cur.carrier_degree.tolist(), cur.carrier_index.tolist(), cur.density)
    ]


def d(cx, k: int, comps: dict[int, list[Poly]], absolute: bool = False) -> dict[int, list[Poly]]:
    n = cx.dim
    sign = -1 if k % 2 else 1
    out = {}
    for top, ps in comps.items():
        res = [Poly.zero(n) for _ in range(multivec.dim(n, k + 1))]
        for i, dax, o, s in multivec.wedge_table(n, k, 1):
            dp = _abs(ps[i]).diff(dax) if absolute else ps[i].diff(dax)
            if not dp.is_zero():
                res[o] = res[o] + dp.scale(1 if absolute else sign * s)
        out[top] = res
    return out


def wedge(cx, ka: int, a: dict, kb: int, b: dict, absolute: bool = False) -> dict[int, list[Poly]]:
    n = cx.dim
    out = {}
    for top in set(a) & set(b):
        res = [Poly.zero(n) for _ in multivec.basis_tuples(n, ka + kb)]
        for i, j, o, s in multivec.wedge_table(n, ka, kb):
            prod = _abs(a[top][i]) * _abs(b[top][j]) if absolute else a[top][i] * b[top][j]
            if not prod.is_zero():
                res[o] = res[o] + prod.scale(1 if absolute else s)
        out[top] = res
    return out


def interior_product(cx, k: int, comps: dict, T) -> list[tuple[int, int, list[Poly]]]:
    n, r = cx.dim, T.degree
    tangents = cx.unit_tangents(r)
    out = []
    for idx, a, top in zip(T.idx.tolist(), T.val.tolist(), cx.containing_tops(r, T.idx).tolist()):
        ps = comps.get(top)
        if ps is None:
            continue
        xi = tangents[idx]
        density = [Poly.zero(n) for _ in range(multivec.dim(n, r - k))]
        for i, j, o, s in multivec.wedge_table(n, k, r - k):
            if ps[i].is_zero():
                continue
            factor = s * xi[o] * a
            if factor != 0.0:
                density[j] = density[j] + ps[i].scale(factor)
        if any(not p.is_zero() for p in density):
            out.append((r, idx, density))
    return out


def evaluate(cx, ents, comps: dict, absolute: bool = False) -> float:
    total = 0.0
    for k, idx, density in ents:
        ps = comps.get(int(cx.containing_tops(k, [idx])[0]))
        if ps is None:
            continue
        scalar = Poly.zero(cx.dim)
        for p_omega, p_rho in zip(ps, density):
            if not p_omega.is_zero() and not p_rho.is_zero():
                scalar = scalar + (_abs(p_omega) * _abs(p_rho) if absolute else p_omega * p_rho)
        if scalar.is_zero():
            continue
        coords = np.abs(cx.coords(k, idx)) if absolute else cx.coords(k, idx)
        term = integrate_over_simplex(scalar, coords, cx.volume(k, idx))
        total += abs(term) if absolute else term
    return total


def mass(cx, ents, tol: float = 1e-9) -> float:
    total = 0.0
    for k, idx, density in ents:
        coords = cx.coords(k, idx)
        vol = cx.volume(k, idx)
        vals = np.array([[p(x) for p in density] for x in coords])
        if np.abs(vals).max(initial=0.0) == 0.0:
            continue
        _, svals, Vt = np.linalg.svd(vals, full_matrices=False)
        if svals.size == 1 or svals[1] <= 1e-12 * svals[0]:
            total += _integral_abs_affine(coords, vals @ Vt[0], vol)
        else:
            total += _adaptive_norm_integral(coords, vals, vol, tol, (k, idx))
    return total


def pullback_form(F, r: int, comps: dict, absolute: bool = False) -> dict[int, list[Poly]]:
    img = F.image()
    src = F.source
    n = src.dim
    out_tuples = multivec.basis_tuples(n, r)
    J = F.jacobians
    minors = np.stack([row_wedges(J[:, :, list(I)].transpose(0, 2, 1)) for I in out_tuples], axis=2).tolist()
    out = {}
    for top, image_top in enumerate(img.simplex_image[src.top_degree].tolist()):
        ps = comps.get(image_top)
        if ps is None:
            continue
        M, ccst = F.affine_on(top)
        if absolute:
            ps, M, ccst = [_abs(p) for p in ps], np.abs(M), np.abs(ccst)
        composed = [p.compose_affine(M, ccst) if not p.is_zero() else Poly.zero(n) for p in ps]
        res = [Poly.zero(n) for _ in out_tuples]
        for ji, row in enumerate(minors[top]):
            for oi, minor in enumerate(row):
                if minor != 0.0 and not composed[ji].is_zero():
                    res[oi] = res[oi] + composed[ji].scale(abs(minor) if absolute else minor)
        out[top] = res
    return out
