import numpy as np
import pytest

from roughbody.chains import Chain
from roughbody.errors import DegreeZero, EmptyRegion
from roughbody.forms import constant_form, whitney_realize
from roughbody.generate import grid_mesh, random_chain, random_cochain, random_sharp_field
from roughbody.sharp import SharpField, boundary_product, check_product_bounds, multiply


class TestSharpField:
    def test_gradient_of_coordinate(self, square):
        phi = SharpField(square, square.vertices[:, 0])
        for top in range(2):
            assert np.allclose(phi.gradients[top], [1.0, 0.0])

    def test_lipschitz_constant(self, square):
        phi = SharpField(square, 3.0 * square.vertices[:, 1])
        assert phi.lipschitz_constant() == pytest.approx(3.0)

    def test_form_interpolates(self, grid44, rng):
        phi = random_sharp_field(grid44, rng)
        for top in range(0, grid44.n_simplices(2), 7):
            for v in grid44.simplices[2][top]:
                assert phi.form.value(top, grid44.vertices[v])[0] == pytest.approx(
                    phi.values[v], abs=1e-10
                )

    def test_empty_region_raises(self, square):
        phi = SharpField(square, square.vertices[:, 0])
        with pytest.raises(EmptyRegion):
            phi.sup([])
        with pytest.raises(EmptyRegion):
            phi.lipschitz_constant([])


class TestMultiply:
    def test_constant_one_acts_as_identity(self, square, square_chain, rng):
        ones = SharpField(square, np.ones(4))
        cur = multiply(ones, square_chain)
        X = random_cochain(square, 2, rng)
        from roughbody.forms import evaluate

        assert cur.evaluate(whitney_realize(X)) == pytest.approx(
            evaluate(X, square_chain), abs=1e-12
        )

    def test_constant_scales_mass(self, square, square_chain):
        c = SharpField(square, np.full(4, -2.5))
        assert multiply(c, square_chain).mass() == pytest.approx(2.5)

    def test_coordinate_weight_mass(self, square, square_chain):
        phi = SharpField(square, square.vertices[:, 0])
        assert multiply(phi, square_chain).mass() == pytest.approx(0.5, abs=1e-12)

    def test_sign_change_splits_exactly(self, square, square_chain):
        # phi = x - 0.5 changes sign across the square: int |x - 0.5| = 1/4
        phi = SharpField(square, square.vertices[:, 0] - 0.5)
        assert multiply(phi, square_chain).mass() == pytest.approx(0.25, abs=1e-12)

    def test_bilinearity(self, grid44, rng):
        phi = random_sharp_field(grid44, rng)
        psi = random_sharp_field(grid44, rng)
        A = random_chain(grid44, 1, rng)
        X = random_cochain(grid44, 1, rng)
        w = whitney_realize(X)
        lhs = multiply(phi + psi, A).evaluate(w)
        rhs = multiply(phi, A).evaluate(w) + multiply(psi, A).evaluate(w)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_support_inclusion(self, grid44):
        values = np.zeros(grid44.vertices.shape[0])
        values[0] = 1.0  # hat at one corner
        phi = SharpField(grid44, values)
        A = Chain(grid44, 2, {i: 1.0 for i in range(grid44.n_simplices(2))})
        cur = multiply(phi, A)
        corner_tops = {
            t
            for t in range(grid44.n_simplices(2))
            if 0 in grid44.simplices[2][t]
        }
        carrying = set(cur.carrier_index[cur.density.any(axis=(1, 2))].tolist())
        # only simplices meeting the support of phi carry density
        for t in carrying:
            verts_vals = [phi.values[v] for v in grid44.simplices[2][t]]
            assert any(v != 0 for v in verts_vals)
        assert carrying <= {t for t in range(grid44.n_simplices(2))}
        assert corner_tops <= carrying


class TestBoundaryProduct:
    def test_constant_one_reduces_to_boundary(self, square, square_chain, rng):
        ones = SharpField(square, np.ones(4))
        cur = boundary_product(ones, square_chain)
        Y = random_cochain(square, 1, rng)
        w = whitney_realize(Y)
        from roughbody.forms import evaluate

        assert cur.evaluate(w) == pytest.approx(
            evaluate(Y, square_chain.boundary()), rel=1e-10, abs=1e-10
        )

    def test_x_times_square_against_dy(self, square, square_chain):
        # both routes of the worked example agree
        phi = SharpField(square, square.vertices[:, 0])
        dy = constant_form(square, 1, [0.0, 1.0])
        adjoint = multiply(phi, square_chain).boundary_evaluate(dy)  # (phi A)(d dy) = 0
        termwise = boundary_product(phi, square_chain).evaluate(dy)
        assert adjoint == pytest.approx(0.0, abs=1e-12)
        assert termwise == pytest.approx(adjoint, abs=1e-9)

    def test_product_rule_randomized(self, rng):
        cx = grid_mesh(2, 2)
        for _ in range(100):
            phi = random_sharp_field(cx, rng)
            k = int(rng.integers(1, 3))
            A = random_chain(cx, k, rng)
            Y = random_cochain(cx, k - 1, rng)
            w = whitney_realize(Y)
            lhs = multiply(phi, A).boundary_evaluate(w)
            rhs = boundary_product(phi, A).evaluate(w)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_degree_zero_raises(self, square, rng):
        with pytest.raises(DegreeZero):
            boundary_product(random_sharp_field(square, rng), random_chain(square, 0, rng))


class TestProductBounds:
    def test_constant_one_is_tight(self, square, square_chain):
        ones = SharpField(square, np.ones(4))
        rep = check_product_bounds(ones, square_chain)
        assert rep.passed
        assert rep.n_lhs == pytest.approx(square_chain.normal_norm(), abs=1e-9)
        assert rep.n_rhs == pytest.approx(square_chain.normal_norm(), abs=1e-9)

    def test_coordinate_on_boundary_chain(self, square, square_chain):
        phi = SharpField(square, square.vertices[:, 0])
        rep = check_product_bounds(phi, square_chain.boundary())
        assert rep.passed
        assert rep.sup_phi == pytest.approx(1.0)
        assert rep.lip_phi == pytest.approx(1.0)

    def test_mass_bound(self, grid44, rng):
        # M(phi A) <= sup|phi| M(A), the first link of the chain of bounds
        for _ in range(20):
            phi = random_sharp_field(grid44, rng)
            A = random_chain(grid44, 1, rng)
            assert multiply(phi, A).mass() <= phi.sup() * A.mass() + 1e-9

    def test_randomized_campaign(self, rng):
        cx = grid_mesh(2, 2)
        for _ in range(60):
            phi = random_sharp_field(cx, rng)
            k = int(rng.integers(1, 3))
            A = random_chain(cx, k, rng)
            assert check_product_bounds(phi, A).passed
