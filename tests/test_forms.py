import functools
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_forms
import reference_whitney
from roughbody.bodies import koch_prefractal
from roughbody.chains import elementary
from roughbody import forms
from roughbody.errors import AmbientTooSmall, DegreeMismatch, MassBudgetExceeded, TopDegree, WrongDegree
from roughbody.forms import (
    Cochain,
    FormField,
    _abs_affine_integrals,
    chain_as_current,
    coboundary,
    constant_form,
    evaluate,
    interior_product,
    whitney_realize,
)
from roughbody.generate import cube_mesh, grid_mesh, random_chain, random_cochain, random_pa_map
from roughbody.maps import pullback_form
from roughbody.mesh import build_complex
from roughbody.poly import FORM_DEGREE, monomials, powers
from roughbody.sharp import SharpField, multiply


def dx_cochain(cx):
    """1-cochain whose coefficient on each edge is the integral of dx."""
    return Cochain(
        cx,
        1,
        {
            i: cx.coords(1, i)[1][0] - cx.coords(1, i)[0][0]
            for i in range(cx.n_simplices(1))
        },
    )


class TestEvaluate:
    def test_dx_on_unit_edge(self, square):
        X = dx_cochain(square)
        e = square.index[1][frozenset((0, 1))]  # (0,0) -> (1,0)
        assert evaluate(X, elementary(square, 1, e)) == pytest.approx(1.0)

    def test_closed_form_on_cycle(self, square, square_chain):
        assert evaluate(dx_cochain(square), square_chain.boundary()) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_bilinearity(self, grid44, rng):
        X = random_cochain(grid44, 1, rng)
        A = random_chain(grid44, 1, rng)
        B = random_chain(grid44, 1, rng)
        a, b = rng.normal(), rng.normal()
        lhs = evaluate(X, A.scale(a) + B.scale(b))
        assert lhs == pytest.approx(a * evaluate(X, A) + b * evaluate(X, B), rel=1e-12, abs=1e-12)


class TestCoboundary:
    def test_d_of_dx_vanishes(self, square):
        dX = coboundary(dx_cochain(square))
        assert all(abs(v) < 1e-12 for v in dX.coeffs.values())

    def test_discrete_gradient(self, square):
        f = Cochain(square, 0, {i: float(i * i + 1) for i in range(4)})
        df = coboundary(f)
        for e in range(square.n_simplices(1)):
            u, v = square.simplices[1][e]
            assert df.coeffs.get(e, 0.0) == pytest.approx(f.coeffs[v] - f.coeffs[u])

    def test_adjointness_randomized(self, grid44, rng):
        for _ in range(100):
            X = random_cochain(grid44, 1, rng)
            A = random_chain(grid44, 2, rng)
            assert evaluate(coboundary(X), A) == pytest.approx(
                evaluate(X, A.boundary()), rel=1e-10, abs=1e-10
            )

    def test_dd_zero(self, grid44, rng):
        f = random_cochain(grid44, 0, rng)
        dd = coboundary(coboundary(f))
        assert all(abs(v) < 1e-12 for v in dd.coeffs.values())

    def test_top_degree_raises(self, square, rng):
        with pytest.raises(TopDegree):
            coboundary(random_cochain(square, 2, rng))


class TestWhitneyRealize:
    def test_duality_on_all_degrees(self, square, rng):
        for k in (0, 1, 2):
            X = random_cochain(square, k, rng)
            w = whitney_realize(X)
            for i in range(square.n_simplices(k)):
                got = chain_as_current(elementary(square, k, i)).evaluate(w)
                assert got == pytest.approx(X.coeffs.get(i, 0.0), abs=1e-12)

    def test_duality_3d(self, rng):
        cx = cube_mesh(1, 1, 1)
        for k in (1, 2):
            X = random_cochain(cx, k, rng)
            w = whitney_realize(X)
            for i in range(0, cx.n_simplices(k), 3):
                got = chain_as_current(elementary(cx, k, i)).evaluate(w)
                assert got == pytest.approx(X.coeffs.get(i, 0.0), abs=1e-12)

    def test_grid_dx_field(self):
        # unit coefficients on x-directed edges realize the constant form dx
        cx = grid_mesh(2, 2)
        w = whitney_realize(dx_cochain(cx))
        for top in range(cx.n_simplices(2)):
            bary = cx.coords(2, top).mean(axis=0)
            assert np.allclose(w.value(top, bary), [1.0, 0.0], atol=1e-12)

    def test_zero_cochain_gives_zero_field(self, square):
        w = whitney_realize(Cochain(square, 1, {}))
        assert not w.tops.size

    def test_simplicial_pairing_matches_integration(self, grid44, rng):
        X = random_cochain(grid44, 1, rng)
        T = random_chain(grid44, 1, rng)
        integral = chain_as_current(T).evaluate(whitney_realize(X))
        assert integral == pytest.approx(evaluate(X, T), abs=1e-10)

    def test_exterior_derivative_commutes(self, grid44, rng):
        # dW(X) == W(dX) pointwise
        X = random_cochain(grid44, 1, rng)
        a = whitney_realize(X).d()
        b = whitney_realize(coboundary(X))
        for top in range(grid44.n_simplices(2)):
            x = grid44.coords(2, top).mean(axis=0)
            assert np.allclose(a.value(top, x), b.value(top, x), atol=1e-10)


@functools.cache
def _realization_mesh(name):
    if name == "grid3":
        return grid_mesh(3, 3)
    if name == "grid6-jittered":
        cx = grid_mesh(6, 6)
        V = cx.vertices + np.random.default_rng(6).uniform(-0.1, 0.1, cx.vertices.shape) / 6
        return build_complex(V, {2: cx.arrays[2]})
    if name == "cube2":
        return cube_mesh(2, 2, 2)
    if name == "koch2":
        return koch_prefractal(2).chain.complex
    # two triangles bent out of the plane: a surface in R^3
    return build_complex([[0, 0, 0], [1, 0, 0], [1, 1, 0.5], [0, 1, 0.2]], {2: [(0, 1, 2), (0, 2, 3)]})


def _realization_cases():
    for name, top in [("grid3", 2), ("grid6-jittered", 2), ("cube2", 3), ("koch2", 2), ("surface3d", 2)]:
        for k in range(top + 1):
            for kind in ("dense", "single", "zero"):
                yield pytest.param(name, k, kind, id=f"{name}-k{k}-{kind}")


class TestBatchedRealization:
    """whitney_realize against the per-top Poly loop it replaced (tests/reference_whitney.py).

    Each realized top's coefficient array must hold, per component and
    monomial, the loop's coefficient bit for bit (0.0 where its Poly has no
    term)."""

    @pytest.mark.parametrize("name,k,kind", list(_realization_cases()))
    def test_matches_per_top_loop(self, name, k, kind):
        cx = _realization_mesh(name)
        rng = np.random.default_rng(1000 * k + len(name))
        if kind == "dense":
            X = random_cochain(cx, k, rng)
        elif kind == "single":
            X = Cochain(cx, k, {cx.n_simplices(k) // 2: 1.7})
        else:
            X = Cochain(cx, k, {})
        got, want = whitney_realize(X), reference_whitney.whitney_realize(X)
        assert got.tops.tolist() == sorted(want)
        exps = [tuple(m.count(d) for d in range(cx.dim)) for m in monomials(cx.dim, FORM_DEGREE)]
        for coef, polys in zip(got.coef, (want[top] for top in got.tops.tolist())):
            assert len(coef) == len(polys)
            for row, q in zip(coef.tolist(), polys):
                assert set(q.terms) <= set(exps)
                assert [c.hex() for c in row] == [q.terms.get(e, 0.0).hex() for e in exps]
        T = random_chain(cx, k, rng)
        a = chain_as_current(T).evaluate(got)
        b = chain_as_current(T).evaluate(reference_forms.field(cx, k, want))
        assert abs(a - b) <= 1e-13 * max(abs(a), abs(b))


_MESHES = ["grid3", "grid6-jittered", "cube2", "koch2", "surface3d"]


def _assert_close(got, want, scale, rtol=1e-12):
    """A FormField against a reference {top: [Poly]}, coefficient by coefficient, within rtol of scale."""
    cx = got.complex
    assert got.tops.tolist() == sorted(want)
    want, scale = reference_forms.field(cx, got.degree, want), reference_forms.field(cx, got.degree, scale)
    assert (np.abs(got.coef - want.coef) <= rtol * scale.coef).all()


class TestArrayPathMatchesDictPath:
    """The coefficient-array forms layer against the dict-Poly path it replaced (tests/reference_forms.py).

    The paths add the same terms in different orders, so each result is
    compared within 1e-12 of the sum of the absolute values of its terms
    (the reference path run with absolute=True); the exact-branch masses,
    which add no cancelling terms, within 1e-12 of themselves.
    """

    @settings(max_examples=15, deadline=None)
    @given(name=st.sampled_from(_MESHES), seed=st.integers(0, 2**32 - 1))
    def test_matches_dict_path(self, name, seed):
        cx = _realization_mesh(name)
        rng = np.random.default_rng(seed)
        K, polys = cx.top_degree, reference_forms.polys
        phi, psi = (whitney_realize(random_cochain(cx, j, rng)) for j in (0, 1))
        for k in range(K + 1):
            w = whitney_realize(random_cochain(cx, k, rng))
            if k < cx.dim:
                want = [reference_forms.d(cx, k, polys(w), absolute=a) for a in (False, True)]
                _assert_close(w.d(), *want)
                want = [reference_forms.wedge(cx, 1, polys(psi), k, polys(w), absolute=a) for a in (False, True)]
                _assert_close(psi.wedge(w), *want)
            want = [reference_forms.wedge(cx, 0, polys(phi), k, polys(w), absolute=a) for a in (False, True)]
            _assert_close(phi.wedge(w), *want)
            for r in range(k, K + 1):
                T = random_chain(cx, r, rng)
                omega = whitney_realize(random_cochain(cx, r - k, rng))
                ents = reference_forms.interior_product(cx, k, polys(w), T)
                got = interior_product(w, T).evaluate(omega)
                want, scale = (reference_forms.evaluate(cx, ents, polys(omega), absolute=a) for a in (False, True))
                assert abs(got - want) <= 1e-12 * scale
                # densities of one direction per carrier: the exact branch of mass
                for cur in (chain_as_current(T), multiply(SharpField(cx, rng.normal(size=len(cx.vertices))), T)):
                    want = reference_forms.mass(cx, reference_forms.entries(cur))
                    assert cur.mass() == pytest.approx(want, rel=1e-12, abs=0.0)
        F = random_pa_map(cx, rng, amplitude=0.05)
        icx = F.image_complex
        for r in range(min(icx.top_degree, K) + 1):
            omega = whitney_realize(random_cochain(icx, r, rng))
            if r < icx.dim:  # quadratic coefficients: times a Whitney 0-form
                omega = omega.wedge(whitney_realize(random_cochain(icx, 0, rng)))
            want = [reference_forms.pullback_form(F, r, polys(omega), absolute=a) for a in (False, True)]
            _assert_close(pullback_form(F, omega), *want)


@pytest.mark.parametrize("exponent", range(-20, 21, 5))
@pytest.mark.parametrize("name", _MESHES)
def test_realized_pairing_is_scale_invariant(name, exponent):
    # chain_as_current(T).evaluate(whitney_realize(X)) = X(T) at coordinate scale 2^exponent
    base = _realization_mesh(name)
    K = base.top_degree
    cx = build_complex(base.vertices * 2.0**exponent, {K: base.arrays[K]})
    rng = np.random.default_rng(exponent + 40)
    for k in range(K + 1):
        X, T = random_cochain(cx, k, rng), random_chain(cx, k, rng)
        _, i, j = np.intersect1d(T.idx, X.idx, return_indices=True)
        got = chain_as_current(T).evaluate(whitney_realize(X))
        assert abs(got - evaluate(X, T)) <= 1e-12 * np.abs(T.val[i] * X.val[j]).sum()


class TestMalformedFields:
    def test_wrong_component_count_is_rejected(self):
        cx = grid_mesh(2, 2)
        # a 1-form in the plane has two components
        with pytest.raises(WrongDegree, match=r"has coefficients of shape \(1, 2, 6\), not \(1, 1, 6\)"):
            FormField(cx, 1, [0], np.ones((1, 1, len(monomials(2, FORM_DEGREE)))))
        with pytest.raises(WrongDegree, match=r"has coefficients of shape \(8, 2, 6\), not \(8, 3, 6\)"):
            constant_form(cx, 1, [1.0, 2.0, 3.0])

    def test_product_past_the_stored_degree_raises(self):
        from roughbody.errors import DegreeOverflow

        cx = grid_mesh(2, 2)
        f, g, h = (whitney_realize(random_cochain(cx, 0, np.random.default_rng(s))) for s in range(3))
        quadratic = f.wedge(g)
        assert quadratic.coef[:, :, 3:].any()
        with pytest.raises(DegreeOverflow, match="degree 3 exceeds the stored degree 2"):
            quadratic.wedge(h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_names_its_top(self, bad):
        cx = grid_mesh(2, 2)
        coef = np.zeros((2, 2, len(monomials(2, FORM_DEGREE))))
        coef[1, 0, 3] = bad
        with pytest.raises(ValueError, match="on top 5 is not finite"):
            FormField(cx, 1, [2, 5], coef)
        with pytest.raises(ValueError, match="on top 0 is not finite"):
            constant_form(cx, 1, [0.0, bad])


class TestWedge:
    def test_dx_wedge_dy_on_square(self, square, square_chain):
        dy = constant_form(square, 1, [0.0, 1.0])
        w = whitney_realize(dx_cochain(square)).wedge(dy)
        assert chain_as_current(square_chain).evaluate(w) == pytest.approx(1.0, abs=1e-12)

    def test_wedge_with_zero(self, square):
        dy = constant_form(square, 1, [0.0, 1.0])
        w = whitney_realize(Cochain(square, 1, {})).wedge(dy)
        assert not w.tops.size

    def test_leibniz_rule_pointwise(self, grid44, rng):
        # d(phi ^ w) = dphi ^ w - phi ^ dw for a 1-form phi (sign (-1)^1)
        X = random_cochain(grid44, 1, rng)
        Y = random_cochain(grid44, 0, rng)
        phi = whitney_realize(X)
        w = whitney_realize(Y)
        lhs = phi.wedge(w).d()
        rhs = phi.d().wedge(w) + phi.wedge(w.d()).scale(-1.0)
        for top in range(grid44.n_simplices(2)):
            for x in grid44.coords(2, top):
                assert np.allclose(lhs.value(top, x), rhs.value(top, x), atol=1e-9)

    def test_comass_binomial_bound(self, grid44, rng):
        from math import comb

        for _ in range(10):
            X = random_cochain(grid44, 1, rng)
            Y = random_cochain(grid44, 1, rng)
            wx, wy = whitney_realize(X), whitney_realize(Y)
            prod = wx.wedge(wy)
            # sampled comass of the product (quadratic) versus the bound
            samples = 0.0
            for top in prod.tops.tolist():
                C = grid44.coords(2, top)
                for lam in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1 / 3, 1 / 3, 1 / 3)):
                    x = lam[0] * C[0] + lam[1] * C[1] + lam[2] * C[2]
                    samples = max(samples, float(np.linalg.norm(prod.value(top, x))))
            bound = comb(2, 1) * wx.vertex_comass_max() * wy.vertex_comass_max()
            assert samples <= bound + 1e-9


class TestInteriorProduct:
    def test_dx_contract_square_on_dy(self, square, square_chain):
        ip = interior_product(whitney_realize(dx_cochain(square)), square_chain)
        dy = constant_form(square, 1, [0.0, 1.0])
        assert ip.evaluate(dy) == pytest.approx(1.0, abs=1e-12)

    def test_zero_cochain(self, square, square_chain):
        ip = interior_product(whitney_realize(Cochain(square, 1, {})), square_chain)
        assert ip.evaluate(constant_form(square, 1, [1.0, 0.0])) == 0.0

    def test_defining_identity_randomized(self, grid44, rng):
        for _ in range(100):
            X = random_cochain(grid44, 1, rng)
            T = random_chain(grid44, 2, rng)
            Y = random_cochain(grid44, 1, rng)
            omega = whitney_realize(Y)
            lhs = interior_product(whitney_realize(X), T).evaluate(omega)
            rhs = chain_as_current(T).evaluate(whitney_realize(X).wedge(omega))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_any_form_field_contracts(self, rng):
        # constant fields and pullbacks satisfy (W -| T)(w) = (W ^ w)(T) as realized cochains do
        cx = grid_mesh(2, 2)
        F = random_pa_map(cx, rng, amplitude=0.2)
        fields = [
            constant_form(cx, 0, [rng.normal()]),
            constant_form(cx, 1, rng.normal(size=2)),
            pullback_form(F, whitney_realize(random_cochain(F.image_complex, 0, rng))),
            pullback_form(F, whitney_realize(random_cochain(F.image_complex, 1, rng))),
        ]
        for W in fields:
            for r in range(W.degree, 3):
                T = random_chain(cx, r, rng)
                w = whitney_realize(random_cochain(cx, r - W.degree, rng))
                lhs = interior_product(W, T).evaluate(w)
                rhs = chain_as_current(T).evaluate(W.wedge(w))
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_degree_mismatch(self, square, rng):
        with pytest.raises(DegreeMismatch):
            interior_product(whitney_realize(random_cochain(square, 2, rng)), random_chain(square, 1, rng))

    def test_mass_of_chain_current(self, grid44, rng):
        T = random_chain(grid44, 1, rng)
        assert chain_as_current(T).mass() == pytest.approx(T.mass(), abs=1e-12)

    @pytest.mark.parametrize("make", [lambda: grid_mesh(4, 4), lambda: cube_mesh(2, 2, 2)], ids=["grid4x4", "cube2x2x2"])
    def test_chain_current_equals_constant_form_contraction(self, make, rng):
        # the constant form on only the tops holding T gives the densities
        # of the constant form on every top, bit for bit, in every degree
        cx = make()
        for k in range(cx.top_degree + 1):
            T = random_chain(cx, k, rng)
            got = chain_as_current(T)
            want = interior_product(constant_form(cx, 0, [1.0]), T)
            assert len(got.carrier_index) == len(want.carrier_index) > 0
            assert got.carrier_degree.tolist() == want.carrier_degree.tolist()
            assert got.carrier_index.tolist() == want.carrier_index.tolist()
            assert got.density.tobytes() == want.density.tobytes()

    def test_adaptive_mass_bracket(self, square, square_chain):
        # rotating density (rank 2): adaptive integral against dense sampling
        X = Cochain(
            square,
            1,
            {
                i: square.coords(1, i)[1][1] - square.coords(1, i)[0][1]
                for i in range(square.n_simplices(1))
            },
        )  # dy-like
        cur = interior_product(whitney_realize(X), square_chain)
        got = cur.mass(tol=1e-7)
        # oracle: |density| integrated by brute midpoint grid over both triangles
        total = 0.0
        N = 120
        for carrier, rho in zip(cur.carrier_index.tolist(), cur.density):
            C = square.coords(2, carrier)
            for i in range(N):
                for j in range(N - i):
                    l1, l2 = (i + 1 / 3) / N, (j + 1 / 3) / N
                    x = C[0] + l1 * (C[1] - C[0]) + l2 * (C[2] - C[0])
                    total += np.linalg.norm(rho @ powers(x, FORM_DEGREE)) / (N * N / 2) * 0.5
        assert got == pytest.approx(total, rel=2e-2)

    def test_adaptive_mass_of_rank_two_density(self, square, square_chain, rng, monkeypatch):
        # a random Whitney 1-form turns on each triangle, so X -| T has a
        # rank-2 density and its mass takes the adaptive convexity brackets
        calls = []

        def counted(*args):
            calls.append(args)
            return adaptive(*args)

        adaptive = forms._adaptive_norm_integral
        monkeypatch.setattr(forms, "_adaptive_norm_integral", counted)
        cur = interior_product(whitney_realize(random_cochain(square, 1, rng)), square_chain)
        got = cur.mass(tol=1e-3)
        assert len(calls) == len(cur.carrier_index) == 2
        total = 0.0
        N = 120
        for carrier, rho in zip(cur.carrier_index.tolist(), cur.density):
            C = square.coords(2, carrier)
            for i in range(N):
                for j in range(N - i):
                    l1, l2 = (i + 1 / 3) / N, (j + 1 / 3) / N
                    x = C[0] + l1 * (C[1] - C[0]) + l2 * (C[2] - C[0])
                    total += np.linalg.norm(rho @ powers(x, FORM_DEGREE)) / (N * N / 2) * 0.5
        assert got == pytest.approx(total, rel=2e-2)

    def test_default_tol_mass_stops_at_piece_budget(self):
        # tol 1e-9 would need about 1e9 pieces on a rank-2 carrier
        rng = np.random.default_rng(0)
        cx = grid_mesh(4, 4)
        cur = interior_product(whitney_realize(random_cochain(cx, 1, rng)), random_chain(cx, 2, rng))
        start = time.perf_counter()
        with pytest.raises(MassBudgetExceeded, match=r"carrier 2-simplex \d+: mass bracket \[\S+, \S+\]"):
            cur.mass()
        assert time.perf_counter() - start < 2.0


def _exact_abs_integral(s, vol) -> Fraction:
    """Exact integral of |f| over a simplex of volume vol, f affine with vertex values s.

    The mean of f+ is the divided difference of x+^(k+1) / (k+1) at the
    values (Hermite-Genocchi), taken in rationals by the recurrence, with
    the Taylor coefficient where all nodes coincide; |f| = 2 f+ - f.
    """
    k = len(s) - 1

    def dd(nodes):
        if nodes[0] == nodes[-1]:
            m = len(nodes) - 1
            return comb(k + 1, m) * nodes[0] ** (k + 1 - m) if nodes[0] > 0 else Fraction(0)
        return (dd(nodes[1:]) - dd(nodes[:-1])) / (nodes[-1] - nodes[0])

    s = sorted(Fraction(v) for v in s)
    return Fraction(vol) * (2 * dd(s) - sum(s)) / (k + 1)


def _affine_rows(k: int, kind: str, rng, m: int = 40) -> np.ndarray:
    s = rng.normal(size=(m, k + 1))
    if kind == "zeros":  # one or two exact zeros per row
        s[:, 0] = 0.0
        s[::2, -1] = 0.0
    elif kind == "ties":
        s[:, 1:] = s[:, :1]
        s[::2, -1] = -s[::2, 0]
    elif kind == "near ties":
        s[:, 1:] = s[:, :1] * (1 + 1e-15)
        s[::2, -1] = -s[::2, 0]
    elif kind == "2|2":
        s = np.abs(s) * [1, 1, -1, -1]
        s[::3, 1] = s[::3, 0] * (1 + 1e-15)
        s[1::3, 3] = 0.0
    top = np.abs(s).max(axis=1, keepdims=True)
    return s / np.where(top > 0, top, 1.0)  # largest |value| 1


def _assert_exact(s, vol):
    for row, v, got in zip(s.tolist(), vol.tolist(), _abs_affine_integrals(s, vol).tolist()):
        want = _exact_abs_integral(row, v)
        assert abs(Fraction(got) - want) <= Fraction(1e-14) * want, (row, got, float(want))


_KINDS = ("generic", "zeros", "ties", "near ties", "2|2")


class TestAbsAffineIntegrals:
    """The closed form of the integral of |affine f| against exact rational integrals.

    Rows of largest |value| near the largest float catch a missing
    normalisation: a difference of two values overflows there.
    """

    @pytest.mark.parametrize(
        "scale", [2.0**-500, 1.0, 2.0**500, 1.9375 * 2.0**1023], ids=["2^-500", "1", "2^500", "near-largest"]
    )
    @pytest.mark.parametrize(
        "k, kind", [(0, "generic"), (0, "zeros"), (3, "2|2")] + [(k, kind) for k in (1, 2, 3) for kind in _KINDS[:4]]
    )
    def test_matches_exact_integrals(self, k, kind, scale):
        rng = np.random.default_rng([k, _KINDS.index(kind)])
        s = _affine_rows(k, kind, rng) * scale
        vol = rng.uniform(0.1, 1.0, size=len(s))
        _assert_exact(s, vol)

    def test_rows_spanning_600_binary_orders(self):
        # a quotient of powers, a^(k+1) / prod(a - s_j), underflows to 0 / 0 on these rows
        _assert_exact(np.array([[2.0**-600, 0.0, 0.0, -1.0], [1.0, 2.0**-600, -(2.0**-600), -(2.0**-600)]]), np.ones(2))

    def test_mass_of_a_zero_chain(self, grid44, rng):
        T = random_chain(grid44, 0, rng)
        want = sum(abs(Fraction(a)) for a in T.val.tolist())
        assert abs(Fraction(chain_as_current(T).mass()) - want) <= Fraction(1e-14) * want


class TestMaterialize:
    def test_constant_density_is_exact(self, square, square_chain):
        cur = chain_as_current(square_chain)
        chain, ref, err = cur.materialize()
        assert err == pytest.approx(0.0, abs=1e-12)
        assert chain.mass() == pytest.approx(square_chain.mass(), abs=1e-12)

    def test_error_bound_dominates(self, grid44, rng):
        from roughbody.sharp import SharpField, multiply

        phi = SharpField(grid44, rng.normal(size=grid44.vertices.shape[0]))
        A = random_chain(grid44, 2, rng)
        cur = multiply(phi, A)
        chain, ref, err = cur.materialize(tol=5e-2)
        # mass difference between current and its chain is within the bound
        assert abs(cur.mass() - chain.mass()) <= err + 1e-9


def test_wedge_degree_overflow(square, rng):
    from roughbody.errors import DegreeOverflow

    X = random_cochain(square, 1, rng)
    w2 = whitney_realize(random_cochain(square, 2, rng))
    with pytest.raises(DegreeOverflow):
        whitney_realize(X).wedge(w2)


def test_whitney_tangential_continuity(grid44, rng):
    # the pullback of the realization to a shared face agrees from both sides
    X = random_cochain(grid44, 1, rng)
    w = whitney_realize(X)
    checked = 0
    for edge in range(grid44.n_simplices(1)):
        owners = [
            t
            for t in range(grid44.n_simplices(2))
            if set(grid44.simplices[1][edge]) <= set(grid44.simplices[2][t])
        ]
        if len(owners) != 2:
            continue
        C = grid44.coords(1, edge)
        tangent = C[1] - C[0]
        for t_param in (0.25, 0.5, 0.75):
            x = C[0] + t_param * tangent
            a = float(np.dot(w.value(owners[0], x), tangent))
            b = float(np.dot(w.value(owners[1], x), tangent))
            assert a == pytest.approx(b, abs=1e-10)
        checked += 1
        if checked >= 8:
            break
    assert checked


def test_leibniz_degree_zero(grid44, rng):
    # d(f ^ w) = df ^ w + f ^ dw for a 0-cochain f
    f = whitney_realize(random_cochain(grid44, 0, rng))
    w = whitney_realize(random_cochain(grid44, 1, rng))
    lhs = f.wedge(w).d()
    rhs = f.d().wedge(w) + f.wedge(w.d())
    for top in range(0, grid44.n_simplices(2), 5):
        x = grid44.coords(2, top).mean(axis=0)
        assert np.allclose(lhs.value(top, x), rhs.value(top, x), atol=1e-9)


def test_cochain_rejects_indices_outside_its_complex():
    cx = grid_mesh(2, 2)
    assert cx.n_simplices(1) == 16
    for bad in (-1, 16, 999):
        with pytest.raises(AmbientTooSmall):
            Cochain(cx, 1, {bad: 2.0})
    assert coboundary(Cochain(cx, 1, {15: 2.0})).coeffs
