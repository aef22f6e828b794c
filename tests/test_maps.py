import numpy as np
import pytest

from roughbody.errors import EmptyRegion
from roughbody.forms import chain_as_current, constant_form, evaluate, whitney_realize
from roughbody.generate import (
    grid_mesh,
    random_chain,
    random_cochain,
    random_pa_map,
)
from roughbody.maps import (
    PAMap,
    compose,
    is_embedding,
    lip_seminorm,
    lipschitz_constant,
    pullback_cochain,
    pullback_form,
    pushforward,
)
from roughbody.mesh import build_complex


def chain_coords_map(chain):
    """Geometry-keyed coefficients, for comparing chains across complexes."""
    cx = chain.complex
    out = {}
    for i, a in chain.coeffs.items():
        key = frozenset(tuple(round(x, 9) for x in p) for p in cx.coords(chain.degree, i))
        out[key] = out.get(key, 0.0) + a
    return {k: v for k, v in out.items() if abs(v) > 1e-12}


class TestLipschitzConstants:
    def test_doubling(self, square):
        assert lipschitz_constant(PAMap(square, 2 * square.vertices)) == pytest.approx(2.0)

    def test_identity(self, square):
        assert lipschitz_constant(PAMap(square, square.vertices.copy())) == pytest.approx(1.0)

    def test_shear_golden_ratio(self, square):
        shear = PAMap(square, square.vertices @ np.array([[1.0, 1.0], [0.0, 1.0]]).T)
        assert lipschitz_constant(shear) == pytest.approx((1 + np.sqrt(5)) / 2)

    def test_empty_region(self, square):
        with pytest.raises(EmptyRegion):
            lipschitz_constant(PAMap(square, square.vertices.copy()), [])

    def test_seminorm_values(self, square):
        ident = PAMap(square, square.vertices.copy())
        assert lip_seminorm(ident) == pytest.approx(np.sqrt(2.0))
        dbl = PAMap(square, 2 * square.vertices)
        assert lip_seminorm(dbl) == pytest.approx(2 * np.sqrt(2.0))
        const = PAMap(square, np.tile([3.0, 4.0], (4, 1)))
        assert lip_seminorm(const) == pytest.approx(5.0)


class TestEmbedding:
    def test_identity(self, square):
        v = is_embedding(PAMap(square, square.vertices.copy()))
        assert v.ok
        assert v.c == pytest.approx(1.0)
        assert v.d == pytest.approx(1.0)

    def test_rank_deficient(self, square):
        proj = PAMap(square, np.column_stack([square.vertices[:, 0], np.zeros(4)]))
        v = is_embedding(proj)
        assert not v.ok
        assert v.witness[0] == "degenerate"

    def test_fold_witness_pair(self, split_square):
        verts = split_square.vertices
        fold = PAMap(split_square, np.column_stack([np.abs(verts[:, 0] - 0.5), verts[:, 1]]))
        v = is_embedding(fold)
        assert not v.ok
        assert v.witness[0] == "overlap"

    @pytest.mark.parametrize("eps", [1e-7, 1e-9, 1e-12])
    def test_folded_sliver_rejected(self, eps):
        # the image of the lower apex is pushed eps across the shared edge; side 0.25 keeps
        # the eps = 1e-12 image above the 1e-12 singular-value floor
        src = build_complex([[0, 0], [0.25, 0], [0, 0.25], [0, -0.25]], {2: [(0, 1, 2), (0, 1, 3)]})
        v = is_embedding(PAMap(src, [[0, 0], [0.25, 0], [0, 0.25], [0, eps]]))
        assert not v.ok
        assert v.witness == ("overlap", (0, 1))

    def test_non_finite_image_rejected(self, square):
        images = square.vertices.copy()
        images[2, 0] = np.nan
        with pytest.raises(ValueError, match="image of vertex 2 has a non-finite coordinate"):
            PAMap(square, images)

    @pytest.mark.parametrize("scale", [1e-13, 1e13])
    def test_verdict_is_scale_invariant(self, scale):
        # degeneracy is judged per simplex against its own largest singular value
        cx = grid_mesh(2, 2)
        unit = is_embedding(PAMap(cx, cx.vertices.copy()))
        v = is_embedding(PAMap(cx, scale * cx.vertices))
        assert v.ok and v.witness is None
        assert v.c == pytest.approx(scale * unit.c, rel=1e-12)
        assert v.d == pytest.approx(scale * unit.d, rel=1e-12)

    def test_perturbation_keeps_embedding(self, grid44, rng):
        # the embedding set is open: small perturbations stay embeddings
        base = PAMap(grid44, grid44.vertices.copy())
        assert is_embedding(base).ok
        h = 1.0 / 4
        for _ in range(5):
            jitter = rng.normal(size=grid44.vertices.shape) * 0.05 * h
            assert is_embedding(PAMap(grid44, grid44.vertices + jitter)).ok


class TestPushforward:
    def test_identity_preserves(self, square, square_chain):
        ident = PAMap(square, square.vertices.copy())
        image = pushforward(ident, square_chain)
        assert image.mass() == pytest.approx(square_chain.mass())

    def test_doubling_mass(self, square, square_chain):
        dbl = PAMap(square, 2 * square.vertices)
        assert pushforward(dbl, square_chain).mass() == pytest.approx(4.0)

    def test_naturality_randomized(self, rng):
        cx = grid_mesh(2, 2)
        for _ in range(100):
            F = random_pa_map(cx, rng)
            T = random_chain(cx, 2, rng)
            lhs = pushforward(F, T).boundary()
            rhs = pushforward(F, T.boundary())
            assert (lhs - rhs).mass() < 1e-10

    def test_mass_bound(self, rng):
        cx = grid_mesh(2, 2)
        for _ in range(25):
            F = random_pa_map(cx, rng)
            for k in (1, 2):
                T = random_chain(cx, k, rng)
                region = np.unique(cx.containing_tops(k, list(T.coeffs))).tolist()
                lip = lipschitz_constant(F, region)
                assert pushforward(F, T).mass() <= T.mass() * lip**k + 1e-9

    def test_flat_norm_bound(self, rng):
        from roughbody.flatnorm import flat_norm

        cx = grid_mesh(2, 2)
        for _ in range(10):
            F = random_pa_map(cx, rng, amplitude=0.2)
            T = random_chain(cx, 1, rng)
            lip = lipschitz_constant(F)
            lhs = flat_norm(pushforward(F, T)).value
            rhs = flat_norm(T).value * max(lip, lip**2)
            assert lhs <= rhs + 1e-9

    def test_normal_norm_bound(self, rng):
        cx = grid_mesh(2, 2)
        for _ in range(10):
            F = random_pa_map(cx, rng, amplitude=0.2)
            T = random_chain(cx, 2, rng)
            lip = lipschitz_constant(F)
            lhs = pushforward(F, T).normal_norm()
            rhs = T.normal_norm() * max(lip, lip**2)
            assert lhs <= rhs + 1e-9

    def test_orientation_reversal_flips_sign(self, square, square_chain):
        flip = PAMap(square, np.column_stack([-square.vertices[:, 0], square.vertices[:, 1]]))
        image = pushforward(flip, square_chain)
        assert image.mass() == pytest.approx(1.0)
        # image simplices carry the reversed orientation through their tuples
        icx = flip.image_complex
        for i, a in image.coeffs.items():
            C = icx.coords(2, i)
            det = np.linalg.det((C[1:] - C[0]).T)
            assert det * a < 0  # negative orientation times +1, or flipped sign

    def test_functoriality(self, square, square_chain, rng):
        F = PAMap(square, square.vertices * 1.5 + 0.25)
        G = PAMap(F.image_complex, F.image_complex.vertices @ np.array([[1.0, 0.3], [0.0, 1.0]]).T)
        H = compose(G, F)
        a = pushforward(G, pushforward(F, square_chain))
        b = pushforward(H, square_chain)
        assert chain_coords_map(a) == pytest.approx(chain_coords_map(b))


class TestPullbacks:
    def test_identity_cochain(self, square, rng):
        ident = PAMap(square, square.vertices.copy())
        X = random_cochain(ident.image_complex, 1, rng)
        Y = pullback_cochain(ident, X)
        for i in range(square.n_simplices(1)):
            assert Y.coeffs.get(i, 0.0) == pytest.approx(
                _match_coeff(ident, X, 1, i), abs=1e-12
            )

    def test_adjunction_randomized(self, rng):
        cx = grid_mesh(2, 2)
        for _ in range(100):
            F = random_pa_map(cx, rng, amplitude=0.2)
            X = random_cochain(F.image_complex, 1, rng)
            T = random_chain(cx, 1, rng)
            assert evaluate(pullback_cochain(F, X), T) == pytest.approx(
                evaluate(X, pushforward(F, T)), rel=1e-10, abs=1e-10
            )

    def test_pullback_form_determinant(self, square):
        dbl = PAMap(square, 2 * square.vertices)
        area = constant_form(dbl.image_complex, 2, [1.0])
        pb = pullback_form(dbl, area)
        x = np.array([0.3, 0.4])
        assert pb.value(0, x) == pytest.approx([4.0])

    def test_pairing_adjointness_change_of_variables(self, rng):
        # integral of F# w over T equals integral of w over F# T
        cx = grid_mesh(2, 2)
        for _ in range(10):
            F = random_pa_map(cx, rng, amplitude=0.2)
            X = random_cochain(F.image_complex, 1, rng)
            w = whitney_realize(X)
            T = random_chain(cx, 1, rng)
            lhs = chain_as_current(T).evaluate(pullback_form(F, w))
            rhs = chain_as_current(pushforward(F, T)).evaluate(w)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_full_dimensional_body_area_formula(self, square, square_chain):
        # injective F: F# X(T_B) = X(T_{F(B)}) for the full-dimensional body
        F = PAMap(square, square.vertices * np.array([2.0, 1.0]) + np.array([0.5, 0.0]))
        icx = F.image_complex
        X = {i: 1.0 for i in range(icx.n_simplices(2))}
        from roughbody.forms import Cochain

        Xc = Cochain(icx, 2, X)
        lhs = evaluate(pullback_cochain(F, Xc), square_chain)
        rhs = evaluate(Xc, pushforward(F, square_chain))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def _match_coeff(F, X, k, src_idx):
    img = F.image()
    pos, sign = img.simplex_image[k][src_idx], img.simplex_sign[k][src_idx]
    if pos < 0:
        return 0.0
    return sign * X.coeffs.get(pos, 0.0)


class TestErrors:
    def test_target_dimension_too_small(self, square):
        from roughbody.errors import NonSimplexImage

        with pytest.raises(NonSimplexImage):
            PAMap(square, square.vertices[:, :1])

    def test_nonsquare_determinant_rejected(self, square):
        from roughbody.errors import NonSimplexImage

        lift = PAMap(square, np.column_stack([square.vertices, np.zeros(4)]))
        with pytest.raises(NonSimplexImage):
            lift.dets

    def test_lift_to_3d_pushforward_mass(self, square, square_chain):
        # a genuine m > n map: isometric lift into the z = x plane
        lift = PAMap(
            square,
            np.column_stack([square.vertices, square.vertices[:, 0]]),
        )
        image = pushforward(lift, square_chain)
        assert image.mass() == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_pushforward_to_collapsed_image_raises(square, square_chain):
    from roughbody.errors import NonSimplexImage

    # every triangle collapses onto the x-axis segment: no 2-simplices survive
    collapse = PAMap(
        square, np.column_stack([square.vertices[:, 0], np.zeros(4)])
    )
    with pytest.raises(NonSimplexImage):
        pushforward(collapse, square_chain)
