import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughbody.chains import Chain, elementary
from roughbody.errors import (
    DeclaredConstantViolated,
    ExtensionDependence,
    OrientationReversal,
)
from roughbody.forms import Cochain
from roughbody.generate import (
    grid_mesh,
    random_body,
    random_chain,
    random_embedding_map,
    random_sharp_field,
)
from roughbody.maps import PAMap
from roughbody.mesh import build_complex
from roughbody.mechanics import (
    CauchyFlux,
    Configuration,
    VirtualVelocity,
    cochains_from_flux,
    estimate_balance_constants,
    flux_from_cochains,
    strain,
    stress_report,
    virtual_power_report,
)
from roughbody.sharp import SharpField


@pytest.fixture
def identity_config(split_square):
    return Configuration(PAMap(split_square, split_square.vertices.copy()))


@pytest.fixture
def body_chain(split_square):
    return Chain(split_square, 2, {i: 1.0 for i in range(4)})


def cochain_tuple(cx, rng, n=2):
    return tuple(
        Cochain(cx, cx.dim - 1, {i: rng.normal() for i in range(cx.n_simplices(cx.dim - 1))})
        for _ in range(n)
    )


def max_coeff_diff(X, Y):
    keys = set(X.coeffs) | set(Y.coeffs)
    return max((abs(X.coeffs.get(k, 0.0) - Y.coeffs.get(k, 0.0)) for k in keys), default=0.0)


class TestFluxFromCochains:
    def test_zero_tuple(self, identity_config):
        icx = identity_config.image_complex
        flux = flux_from_cochains((Cochain(icx, 1, {}), Cochain(icx, 1, {})))
        assert flux.s == 0.0 and flux.b == 0.0
        surf = elementary(icx, 1, 0)
        v = VirtualVelocity.constant(icx, [1.0, 1.0])
        assert flux.evaluate(surf, v) == 0.0

    def test_top_edge_pairing(self, identity_config):
        # surface = top edge of the square (tangent +-e1): a dy-like first
        # component gives zero flux; a dx-like one gives +-1
        icx = identity_config.image_complex
        top_edge = icx.index[1][frozenset(
            {i for i, v in enumerate(icx.vertices) if np.allclose(v, [0.0, 1.0])}
            | {i for i, v in enumerate(icx.vertices) if np.allclose(v, [0.5, 1.0])}
        )]
        dy = Cochain(
            icx,
            1,
            {
                i: icx.coords(1, i)[1][1] - icx.coords(1, i)[0][1]
                for i in range(icx.n_simplices(1))
            },
        )
        dx = Cochain(
            icx,
            1,
            {
                i: icx.coords(1, i)[1][0] - icx.coords(1, i)[0][0]
                for i in range(icx.n_simplices(1))
            },
        )
        zero = Cochain(icx, 1, {})
        v = VirtualVelocity.constant(icx, [1.0, 0.0])
        # the full top edge of the square (two facets on the split mesh)
        top_edges = [
            i
            for i in range(icx.n_simplices(1))
            if np.allclose(icx.coords(1, i)[:, 1], 1.0)
        ]
        surf = Chain(icx, 1, {i: 1.0 for i in top_edges})
        flux_dy = flux_from_cochains((dy, zero))
        assert flux_dy.evaluate(surf, v) == pytest.approx(0.0, abs=1e-12)
        flux_dx = flux_from_cochains((dx, zero))
        assert abs(flux_dx.evaluate(surf, v)) == pytest.approx(1.0, abs=1e-12)
        assert abs(flux_dx.evaluate(elementary(icx, 1, top_edge), v)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_linearity_and_additivity(self, identity_config, rng):
        icx = identity_config.image_complex
        flux = flux_from_cochains(cochain_tuple(icx, rng))
        for _ in range(100):
            S1 = random_chain(icx, 1, rng)
            S2 = random_chain(icx, 1, rng)
            v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
            w = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
            a, b = rng.normal(), rng.normal()
            # additivity in the surface argument
            lhs = flux.evaluate(S1 + S2, v)
            assert lhs == pytest.approx(
                flux.evaluate(S1, v) + flux.evaluate(S2, v), rel=1e-9, abs=1e-9
            )
            # linearity in the velocity
            av = VirtualVelocity(
                [SharpField(icx, a * v[i].values + b * w[i].values) for i in range(2)]
            )
            assert flux.evaluate(S1, av) == pytest.approx(
                a * flux.evaluate(S1, v) + b * flux.evaluate(S1, w), rel=1e-9, abs=1e-9
            )


class TestCochainRecovery:
    def test_round_trip(self, identity_config, rng):
        icx = identity_config.image_complex
        Xs = cochain_tuple(icx, rng)
        rec = cochains_from_flux(flux_from_cochains(Xs))
        for X, Y in zip(Xs, rec.cochains):
            assert max_coeff_diff(X, Y) <= 1e-9
        assert rec.bound_ok

    def test_zero_flux(self, identity_config):
        icx = identity_config.image_complex
        flux = flux_from_cochains((Cochain(icx, 1, {}), Cochain(icx, 1, {})))
        rec = cochains_from_flux(flux)
        assert all(not X.coeffs for X in rec.cochains)

    def test_flat_norm_bound(self, identity_config, rng):
        icx = identity_config.image_complex
        flux = flux_from_cochains(cochain_tuple(icx, rng))
        rec = cochains_from_flux(flux)
        assert all(f <= rec.bound + 1e-9 for f in rec.flat_norms)

    def test_adversarial_rejected(self, identity_config):
        icx = identity_config.image_complex

        def facet_count(chain, u):
            # not mass-scaled and depends on u beyond the facet
            return float(len(chain.coeffs)) * float(np.sum(u.values))

        bad = CauchyFlux([facet_count, facet_count], s=0.01, b=0.01, complex=icx)
        with pytest.raises(ExtensionDependence):
            cochains_from_flux(bad)


class TestBalanceConstants:
    def test_zero_flux(self, identity_config, rng):
        icx = identity_config.image_complex
        flux = flux_from_cochains((Cochain(icx, 1, {}), Cochain(icx, 1, {})))
        v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
        est = estimate_balance_constants(flux, [elementary(icx, 1, 0)], [v])
        assert est.s_emp == 0.0 and est.b_emp == 0.0

    def test_within_declared(self, identity_config, rng):
        icx = identity_config.image_complex
        flux = flux_from_cochains(cochain_tuple(icx, rng))
        surfaces = [random_chain(icx, 1, rng) for _ in range(5)]
        bodies = [random_chain(icx, 2, rng, density=0.7) for _ in range(3)]
        bodies = [Chain(icx, 2, {i: 1.0 for i in b.coeffs}) for b in bodies]
        velocities = [
            VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
            for _ in range(3)
        ]
        est = estimate_balance_constants(flux, surfaces, velocities, bodies)
        assert est.s_emp <= flux.s + 1e-9
        assert est.b_emp <= flux.b + 1e-9

    def test_scaling_doubles_constants(self, identity_config, rng):
        icx = identity_config.image_complex
        Xs = cochain_tuple(icx, rng)
        f1 = flux_from_cochains(Xs)
        f2 = flux_from_cochains(tuple(X.scale(2.0) for X in Xs))
        assert f2.s == pytest.approx(2.0 * f1.s)
        assert f2.b == pytest.approx(2.0 * f1.b)

    def test_violation_detected(self, identity_config, rng):
        icx = identity_config.image_complex
        Xs = cochain_tuple(identity_config.image_complex, rng)
        flux = flux_from_cochains(Xs)
        lying = CauchyFlux(flux.components, s=1e-9, b=1e-9, complex=icx)
        surfaces = [random_chain(icx, 1, rng) for _ in range(3)]
        velocities = [VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])]
        with pytest.raises(DeclaredConstantViolated):
            estimate_balance_constants(lying, surfaces, velocities)


class TestAuditScaling:
    """Flux audits are relative to the flux's own scale: a = 2^e changes no verdict."""

    @staticmethod
    def _setup(e):
        verts = [[0, 0], [0.5, 0], [1, 0], [0, 1], [0.5, 1], [1, 1]]
        cx = build_complex(verts, {2: [(0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4)]})
        rng = np.random.default_rng(20240817)
        Xs = tuple(X.scale(2.0**e) for X in cochain_tuple(cx, rng))
        surfaces = [random_chain(cx, 1, rng) for _ in range(3)]
        velocities = [VirtualVelocity([random_sharp_field(cx, rng) for _ in range(2)]) for _ in range(2)]
        bodies = [Chain(cx, 2, {0: 1.0, 1: 1.0})]
        return cx, Xs, surfaces, velocities, bodies

    @settings(max_examples=15, deadline=None)
    @given(e=st.integers(-60, 0))
    def test_balanced_flux_round_trips(self, e):
        cx, Xs, surfaces, velocities, bodies = self._setup(e)
        flux = flux_from_cochains(Xs)
        rec = cochains_from_flux(flux)
        scale = max(abs(a) for X in Xs for a in X.coeffs.values())
        for X, Y in zip(Xs, rec.cochains):
            assert max_coeff_diff(X, Y) <= 1e-9 * scale
        assert rec.bound_ok
        estimate_balance_constants(flux, surfaces, velocities, bodies)

    @settings(max_examples=15, deadline=None)
    @given(e=st.integers(-60, 0))
    def test_adversarial_rejected(self, e):
        cx, *_ = self._setup(e)
        a = 2.0**e

        def facet_count(chain, u):
            return a * float(len(chain.coeffs)) * float(np.sum(u.values))

        bad = CauchyFlux([facet_count, facet_count], s=0.01 * a, b=0.01 * a, complex=cx)
        with pytest.raises(ExtensionDependence):
            cochains_from_flux(bad)

    @settings(max_examples=15, deadline=None)
    @given(e=st.integers(-60, 0))
    def test_understated_constants_rejected(self, e):
        cx, Xs, surfaces, velocities, bodies = self._setup(e)
        flux = flux_from_cochains(Xs)
        lying = CauchyFlux(flux.components, s=flux.s / 1000, b=flux.b / 1000, complex=cx)
        assert not cochains_from_flux(lying).bound_ok
        with pytest.raises(DeclaredConstantViolated, match="empirical s"):
            estimate_balance_constants(lying, surfaces, velocities, bodies)
        honest_s = CauchyFlux(flux.components, s=flux.s, b=flux.b / 1000, complex=cx)
        with pytest.raises(DeclaredConstantViolated, match="empirical b"):
            estimate_balance_constants(honest_s, surfaces, velocities, bodies)


class TestStrainAndPower:
    def test_rigid_translation_zero_strain(self, identity_config, body_chain):
        icx = identity_config.image_complex
        v = VirtualVelocity.constant(icx, [2.0, -1.0])
        eps = strain(identity_config, body_chain, v)
        assert all(not e.carrier_index.size for e in eps)

    def test_linear_velocity_strain_integral(self, identity_config, body_chain):
        # v = (x, 0): strain_1 paired with dy integrates dx ^ dy over the square
        icx = identity_config.image_complex
        v = VirtualVelocity(
            [SharpField(icx, icx.vertices[:, 0]), SharpField(icx, np.zeros(6))]
        )
        eps = strain(identity_config, body_chain, v)
        from roughbody.forms import constant_form

        dy = constant_form(icx, 1, [0.0, 1.0])
        assert eps[0].evaluate(dy) == pytest.approx(1.0, abs=1e-12)
        assert eps[1].evaluate(dy) == pytest.approx(0.0, abs=1e-12)

    def test_linearity_in_velocity(self, identity_config, body_chain, rng):
        icx = identity_config.image_complex
        from roughbody.forms import whitney_realize

        Y = Cochain(icx, 1, {i: rng.normal() for i in range(icx.n_simplices(1))})
        w = whitney_realize(Y)
        v1 = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
        v2 = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
        a, b = rng.normal(), rng.normal()
        combo = VirtualVelocity(
            [SharpField(icx, a * v1[i].values + b * v2[i].values) for i in range(2)]
        )
        for i in range(2):
            lhs = strain(identity_config, body_chain, combo)[i].evaluate(w)
            rhs = a * strain(identity_config, body_chain, v1)[i].evaluate(w) + b * strain(
                identity_config, body_chain, v2
            )[i].evaluate(w)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_virtual_power_identity_documented_case(self, identity_config, body_chain):
        icx = identity_config.image_complex
        dy = Cochain(
            icx,
            1,
            {
                i: icx.coords(1, i)[1][1] - icx.coords(1, i)[0][1]
                for i in range(icx.n_simplices(1))
            },
        )
        zero = Cochain(icx, 1, {})
        v = VirtualVelocity(
            [SharpField(icx, icx.vertices[:, 1]), SharpField(icx, np.zeros(6))]
        )
        vp = virtual_power_report((dy, zero), identity_config, body_chain, v)
        assert vp.residual <= 1e-9

    def test_constant_velocity_closed_stress(self, identity_config, body_chain, rng):
        # rigid motion with closed forms: all three terms consistent
        icx = identity_config.image_complex
        Xs = cochain_tuple(icx, rng)
        v = VirtualVelocity.constant(icx, [1.0, 1.0])
        vp = virtual_power_report(Xs, identity_config, body_chain, v)
        assert vp.internal_power == pytest.approx(0.0, abs=1e-12)
        assert vp.residual <= 1e-10

    def test_randomized_campaign(self, rng):
        cx = grid_mesh(2, 2)
        worst = 0.0
        for _ in range(20):
            config = Configuration(random_embedding_map(cx, rng))
            icx = config.image_complex
            Xs = cochain_tuple(icx, rng)
            body = random_body(cx, rng)
            v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
            vp = virtual_power_report(Xs, config, body.chain, v)
            worst = max(worst, vp.residual)
        assert worst <= 1e-8


class TestConfigurationValidation:
    def _count_embedding_checks(self, monkeypatch):
        import roughbody.maps as maps

        checked = []
        original = maps.is_embedding
        monkeypatch.setattr(maps, "is_embedding", lambda F: checked.append(F) or original(F))
        return checked

    def test_sampled_map_is_checked_once(self, monkeypatch, rng):
        checked = self._count_embedding_checks(monkeypatch)
        F = random_embedding_map(grid_mesh(2, 2), rng)
        Configuration(F)
        assert sum(G is F for G in checked) == 1

    def test_supplied_map_is_checked(self, monkeypatch, split_square):
        checked = self._count_embedding_checks(monkeypatch)
        Configuration(PAMap(split_square, split_square.vertices.copy()))
        assert len(checked) == 1
        folded = split_square.vertices.copy()
        folded[4] = [0.5, -1.0]  # folds triangles (0, 1, 4) and (1, 5, 4) over
        with pytest.raises(ValueError, match="not an embedding"):
            Configuration(PAMap(split_square, folded))


class TestStressReport:
    def test_identity_piola_equals_cauchy(self, identity_config, body_chain, rng):
        icx = identity_config.image_complex
        Xs = cochain_tuple(icx, rng)
        v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
        rep = stress_report(Xs, identity_config, body_chain, v)
        for pk, cauchy in zip(rep.piola_kirchhoff, rep.cauchy):
            for top in range(identity_config.source.n_simplices(2)):
                for x in identity_config.source.coords(2, top):
                    image_top = identity_config.map.image().simplex_image[2][top]
                    assert np.allclose(
                        pk.value(top, x), cauchy.value(image_top, x), atol=1e-12
                    )

    def test_uniform_scaling_frames_agree(self, split_square, body_chain, rng):
        config = Configuration(PAMap(split_square, 2.0 * split_square.vertices))
        icx = config.image_complex
        Xs = cochain_tuple(icx, rng)
        v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
        rep = stress_report(Xs, config, body_chain, v)
        assert rep.max_deviation <= 1e-9

    def test_uniform_scaling_cofactor_pattern(self, split_square, body_chain, rng):
        # for kappa = 2x in 2D the pulled-back 1-form components scale by 2
        config = Configuration(PAMap(split_square, 2.0 * split_square.vertices))
        icx = config.image_complex
        Xs = cochain_tuple(icx, rng)
        v = VirtualVelocity.constant(icx, [0.0, 0.0])
        rep = stress_report(Xs, config, body_chain, v)
        for pk, cauchy in zip(rep.piola_kirchhoff, rep.cauchy):
            for top in range(split_square.n_simplices(2)):
                x = split_square.coords(2, top).mean(axis=0)
                image_top = config.map.image().simplex_image[2][top]
                assert np.allclose(
                    pk.value(top, x), 2.0 * cauchy.value(image_top, 2.0 * x), atol=1e-10
                )

    def test_random_configurations(self, rng):
        cx = grid_mesh(2, 2)
        worst = 0.0
        for _ in range(10):
            config = Configuration(random_embedding_map(cx, rng))
            icx = config.image_complex
            Xs = cochain_tuple(icx, rng)
            body = random_body(cx, rng)
            v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
            rep = stress_report(Xs, config, body.chain, v)
            worst = max(worst, rep.max_deviation)
        assert worst <= 1e-8

    def test_clockwise_body_frames_agree(self, rng):
        # both triangles listed clockwise: T's orientation enters both frames alike
        cx = build_complex([[0, 0], [1, 0], [1, 1], [0, 1]], {2: [(0, 2, 1), (0, 3, 2)]})
        A = np.array([[1.5, 0.3], [-0.2, 0.8]])
        config = Configuration(PAMap(cx, cx.vertices @ A.T + [0.4, -1.0]))
        icx = config.image_complex
        Xs = cochain_tuple(icx, rng)
        v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
        rep = stress_report(Xs, config, Chain(cx, 2, {0: 1.0, 1: 1.0}), v)
        assert rep.max_deviation <= 1e-9

    def test_orientation_reversal_rejected(self, split_square, body_chain, rng):
        flipped = split_square.vertices @ np.array([[-1.0, 0.0], [0.0, 1.0]]).T
        config = Configuration(PAMap(split_square, flipped))
        icx = config.image_complex
        Xs = cochain_tuple(icx, rng)
        v = VirtualVelocity.constant(icx, [0.0, 0.0])
        with pytest.raises(OrientationReversal, match=rf"^simplex {body_chain.idx[0]} has non-positive Jacobian$"):
            stress_report(Xs, config, body_chain, v)


class TestRestrictionSurjectivity:
    def test_velocity_extends_from_subbody(self, grid44, rng):
        # a PL velocity on a sub-body extends to the whole mesh with value 0
        # outside a one-ring collar, keeping a finite Lipschitz seminorm
        from roughbody.maps import lip_seminorm

        sub = random_body(grid44, rng, fill=0.3)
        sub_tops = sorted(sub.chain.coeffs)
        sub_verts = {v for t in sub_tops for v in grid44.simplices[2][t]}
        values = np.zeros(grid44.vertices.shape[0])
        for v in sub_verts:
            values[v] = rng.normal()
        extended = SharpField(grid44, values)
        assert np.isfinite(lip_seminorm(extended))
        inner = lip_seminorm(extended, sub_tops)
        assert inner <= lip_seminorm(extended) + 1e-12


class TestVelocityMassBounds:
    def test_body_and_surface_products_are_mass_bounded(self, rng):
        # M(v_i k# T) <= sup|v_i| Lip^n M(T) and the surface analogue
        from roughbody.maps import lipschitz_constant
        from roughbody.sharp import multiply

        cx = grid_mesh(2, 2)
        for _ in range(10):
            config = Configuration(random_embedding_map(cx, rng))
            icx = config.image_complex
            lip = lipschitz_constant(config.map)
            body = random_body(cx, rng)
            pushed = config.push(body.chain)
            surf = pushed.boundary()
            v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
            for i in range(2):
                sup = v[i].sup()
                assert multiply(v[i], pushed).mass() <= sup * lip**2 * body.mass() + 1e-9
                assert (
                    multiply(v[i], surf).mass()
                    <= sup * lip * body.chain.boundary().mass() + 1e-9
                )


class TestOtherDimensions:
    def test_virtual_power_3d_identity(self, rng):
        from roughbody.generate import cube_mesh

        cx = cube_mesh(1, 1, 1)
        config = Configuration(PAMap(cx, cx.vertices.copy()))
        icx = config.image_complex
        Xs = tuple(
            Cochain(icx, 2, {i: rng.normal() for i in range(icx.n_simplices(2))})
            for _ in range(3)
        )
        body = Chain(cx, 3, {i: 1.0 for i in range(6)})
        v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(3)])
        vp = virtual_power_report(Xs, config, body, v)
        assert vp.residual <= 1e-10
        rep = stress_report(Xs, config, body, v)
        assert rep.max_deviation <= 1e-10

    def test_flux_round_trip_3d(self, rng):
        from roughbody.generate import cube_mesh

        cx = cube_mesh(1, 1, 1)
        Xs = tuple(
            Cochain(cx, 2, {i: rng.normal() for i in range(cx.n_simplices(2))})
            for _ in range(3)
        )
        rec = cochains_from_flux(flux_from_cochains(Xs))
        for X, Y in zip(Xs, rec.cochains):
            assert max_coeff_diff(X, Y) <= 1e-9
