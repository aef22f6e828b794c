"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its criterion holds; run with
`pytest -s tests/test_acceptance.py -v` to see the lines as they pass.
"""

import time

import numpy as np
import pytest

from roughbody.bodies import (
    geometric_boundary_surface,
    koch_generalized_body,
)
from roughbody.chains import Chain, defect_integral
from roughbody.errors import ExtensionDependence
from roughbody.flatnorm import flat_norm
from roughbody.forms import whitney_realize
from roughbody.generate import (
    grid_mesh,
    random_body,
    random_chain,
    random_cochain,
    random_embedding_map,
    random_pa_map,
    random_sharp_field,
)
from roughbody.maps import (
    PAMap,
    lipschitz_constant,
    pullback_cochain,
    pushforward,
)
from roughbody.mechanics import (
    CauchyFlux,
    Configuration,
    VirtualVelocity,
    cochains_from_flux,
    flux_from_cochains,
    strain,
    stress_report,
    virtual_power_report,
)
from roughbody.mesh import barycentric_refine, build_complex
from roughbody.sharp import boundary_product, check_product_bounds, multiply


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} PASS [{name}]: {detail}")


def _square():
    return build_complex([[0, 0], [1, 0], [1, 1], [0, 1]], {2: [(0, 1, 2), (0, 2, 3)]})


def test_criterion_1_stokes_identity():
    """Geometric boundary equals combinatorial boundary on random bodies."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    meshes = [grid_mesh(4, 4), grid_mesh(8, 8), grid_mesh(16, 16), grid_mesh(31, 32)]
    assert meshes[-1].n_simplices(2) <= 2000
    worst = 0.0
    trials = 0
    for mesh in meshes:
        for _ in range(14 if mesh is meshes[0] else 12):
            if trials >= 50:
                break
            body = random_body(mesh, rng)
            surface = geometric_boundary_surface(body)
            worst = max(worst, surface.chain.max_coefficient_diff(body.chain.boundary()))
            trials += 1
    elapsed = time.time() - t0
    assert trials == 50
    assert worst <= 1e-10
    assert elapsed < 10.0
    _report(1, "stokes", f"50 bodies, max coefficient deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_flat_norm_oracle():
    """Square-boundary value, refinement monotonicity and F <= M."""
    square = _square()
    bnd = Chain(square, 2, {0: 1.0, 1: 1.0}).boundary()
    value = flat_norm(bnd).value
    assert value == pytest.approx(1.0, abs=1e-6)  # analytic min{perimeter 4, area 1}

    ref = barycentric_refine(square, 1)
    fine = flat_norm(ref.carry_chain(bnd)).value
    assert fine <= value + 1e-9

    rng = np.random.default_rng(202)
    meshes = [square, grid_mesh(2, 2)]
    violations = 0
    for t in range(500):
        cx = meshes[t % 2]
        k = int(rng.integers(0, 3))
        T = random_chain(cx, k, rng)
        if flat_norm(T).value > T.mass() + 1e-10:
            violations += 1
    assert violations == 0
    _report(2, "flat-norm", f"F(dSquare)={value:.9f}, monotone {fine:.9f}, 0/500 F<=M violations")


def test_criterion_3_koch_rough_body():
    """Perimeter/area recurrences, contracting flat distances, divergent boundary."""
    t0 = time.time()
    gb = koch_generalized_body(5, eps=1e-2)
    a0 = np.sqrt(3.0) / 4.0
    for k, body in enumerate(gb.bodies):
        assert body.chain.boundary().mass() == pytest.approx(3.0 * (4.0 / 3.0) ** k, abs=1e-9)
        area = a0 * (1.0 + 3.0 / 5.0 * (1.0 - (4.0 / 9.0) ** k))
        assert body.mass() == pytest.approx(area, abs=1e-9)
    annexed = [a0 / 3.0 * (4.0 / 9.0) ** k for k in range(5)]
    for d, bound in zip(gb.report.distances, annexed):
        assert d <= bound + 1e-12
    for r in gb.report.ratios:
        assert r <= 4.0 / 9.0 + 1e-3
    bnd_masses = [b.chain.boundary().mass() for b in gb.bodies]
    assert all(b > a for a, b in zip(bnd_masses, bnd_masses[1:]))
    assert gb.report.passed
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(3, "koch", f"levels 0..5 exact, ratios <= 4/9, boundary mass {bnd_masses[-1]:.3f}, {elapsed:.1f}s")


def test_criterion_4_product_rule_and_bounds_ok():
    """Boundary product identity and the sharp-multiplication norm bounds."""
    rng = np.random.default_rng(404)
    meshes = [_square(), grid_mesh(2, 2)]
    worst = 0.0
    for t in range(200):
        cx = meshes[t % 2]
        phi = random_sharp_field(cx, rng)
        k = int(rng.integers(1, 3))
        A = random_chain(cx, k, rng)
        omega = whitney_realize(random_cochain(cx, k - 1, rng))
        lhs = multiply(phi, A).boundary_evaluate(omega)
        rhs = boundary_product(phi, A).evaluate(omega)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9

    violations = 0
    for t in range(500):
        cx = meshes[t % 2]
        phi = random_sharp_field(cx, rng)
        k = int(rng.integers(1, 3))
        A = random_chain(cx, k, rng)
        rep = check_product_bounds(phi, A)
        if not (rep.n_ok and rep.f_ok):
            violations += 1
    assert violations == 0
    _report(4, "product-rule", f"identity residual {worst:.2e}, 0/500 product-bound violations")


def test_criterion_5_pushforward_bounds():
    """Mass/flat bounds, exact naturality, pairing adjointness."""
    rng = np.random.default_rng(505)
    cx = grid_mesh(2, 2)
    worst_adj = 0.0
    for t in range(200):
        F = random_pa_map(cx, rng, amplitude=0.25)
        k = int(rng.integers(1, 3))
        T = random_chain(cx, k, rng)
        lip = lipschitz_constant(F)
        assert pushforward(F, T).mass() <= T.mass() * lip**k + 1e-9
        naturality = (pushforward(F, T).boundary() - pushforward(F, T.boundary())).mass()
        assert naturality <= 1e-12
        if t % 2 == 0:
            lhs = flat_norm(pushforward(F, T)).value
            rhs = flat_norm(T).value * max(lip**k, lip ** (k + 1))
            assert lhs <= rhs + 1e-9
        X = random_cochain(F.image_complex, k, rng)
        from roughbody.forms import evaluate

        adj = abs(evaluate(pullback_cochain(F, X), T) - evaluate(X, pushforward(F, T)))
        worst_adj = max(worst_adj, adj)
    assert worst_adj <= 1e-10
    _report(5, "pushforward", f"200 maps, bounds hold, adjointness residual {worst_adj:.2e}")


def test_criterion_6_flux_cochain_round_trip():
    """cochains_from_flux o flux_from_cochains = identity; bounds; adversarial."""
    rng = np.random.default_rng(606)
    meshes = [_square(), grid_mesh(2, 1), grid_mesh(2, 2)]
    worst = 0.0
    for mesh in meshes:
        for _ in range(7 if mesh is meshes[0] else 7):
            Xs = tuple(random_cochain(mesh, 1, rng) for _ in range(2))
            flux = flux_from_cochains(Xs)
            rec = cochains_from_flux(flux)
            for X, Y in zip(Xs, rec.cochains):
                keys = set(X.coeffs) | set(Y.coeffs)
                for i in keys:
                    worst = max(worst, abs(X.coeffs.get(i, 0.0) - Y.coeffs.get(i, 0.0)))
            assert all(f <= rec.bound + 1e-9 * (1 + rec.bound) for f in rec.flat_norms)
    assert worst <= 1e-9

    cx = meshes[0]

    def adversarial(chain, u):
        return float(len(chain.coeffs)) * float(np.sum(u.values))

    bad = CauchyFlux([adversarial, adversarial], s=0.01, b=0.01, complex=cx)
    with pytest.raises(ExtensionDependence):
        cochains_from_flux(bad)
    _report(6, "flux-roundtrip", f"21 tuples over 3 meshes, max error {worst:.2e}, adversarial rejected")


def test_criterion_7_virtual_power():
    """The virtual-power identity and exactly-zero rigid strain."""
    rng = np.random.default_rng(707)
    cx = grid_mesh(2, 2)
    worst = 0.0
    for _ in range(100):
        config = Configuration(random_embedding_map(cx, rng))
        icx = config.image_complex
        Xs = tuple(random_cochain(icx, 1, rng) for _ in range(2))
        body = random_body(cx, rng)
        v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
        vp = virtual_power_report(Xs, config, body.chain, v)
        worst = max(worst, vp.residual)
    assert worst <= 1e-8

    config = Configuration(PAMap(cx, cx.vertices.copy()))
    body = random_body(cx, rng)
    rigid = VirtualVelocity.constant(config.image_complex, [3.0, -2.0])
    eps = strain(config, body.chain, rigid)
    assert all(not e.carrier_index.size for e in eps)  # exactly zero, no carriers at all
    _report(7, "virtual-power", f"100 samples, max residual {worst:.2e}, rigid strain exactly 0")


def test_criterion_8_stress_frames():
    """Material-frame integrals match spatial cochain evaluations."""
    rng = np.random.default_rng(808)
    cx = grid_mesh(2, 2)
    worst = 0.0
    for _ in range(50):
        config = Configuration(random_embedding_map(cx, rng))
        icx = config.image_complex
        Xs = tuple(random_cochain(icx, 1, rng) for _ in range(2))
        body = random_body(cx, rng)
        v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
        rep = stress_report(Xs, config, body.chain, v)
        worst = max(worst, rep.max_deviation)
    assert worst <= 1e-8

    ident = Configuration(PAMap(cx, cx.vertices.copy()))
    icx = ident.image_complex
    Xs = tuple(random_cochain(icx, 1, rng) for _ in range(2))
    body = random_body(cx, rng)
    v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(2)])
    rep = stress_report(Xs, ident, body.chain, v)
    pk_dev = 0.0
    for pk, cauchy in zip(rep.piola_kirchhoff, rep.cauchy):
        for top in range(cx.n_simplices(2)):
            image_top = ident.map.image().simplex_image[2][top]
            for x in cx.coords(2, top):
                pk_dev = max(
                    pk_dev,
                    float(np.abs(pk.value(top, x) - cauchy.value(image_top, x)).max()),
                )
    assert pk_dev <= 1e-13
    _report(8, "stress-frames", f"50 configs, frame deviation {worst:.2e}, identity PK dev {pk_dev:.1e}")


def test_criterion_9_restriction_pathology():
    """Integrating the restriction defect over thresholds recovers the mass."""
    square = _square()
    body = Chain(square, 2, {0: 1.0, 1: 1.0})
    total = defect_integral(body, np.array([1.0, 0.0]), 0.0, 1.0, 1000)
    assert total == pytest.approx(body.mass(), abs=1e-3)
    _report(9, "restriction-defect", f"midpoint integral {total:.6f} vs mass {body.mass():.6f}")
