import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughbody.chains import Chain, elementary
from roughbody.errors import LPNumericalFailure
from roughbody.flatnorm import (
    CERT_RTOL,
    certify,
    certify_cauchy,
    cochain_flat_norm,
    flat_distance,
    flat_norm,
)
from roughbody.forms import Cochain, evaluate
from roughbody.generate import cube_mesh, grid_mesh, random_chain, random_cochain
from roughbody.mesh import barycentric_refine, build_complex

from highs_oracle import highs_flat_norm


class TestFlatNorm:
    def test_square_boundary_is_one(self, square, square_chain):
        # analytic: min(perimeter 4, area 1) = 1, achieved by filling the square
        dec = flat_norm(square_chain.boundary())
        assert dec.value == pytest.approx(1.0, abs=1e-9)
        assert dec.R.is_zero()
        assert dec.S.coeffs == {0: pytest.approx(1.0), 1: pytest.approx(1.0)}

    def test_zero_chain(self, square):
        assert flat_norm(Chain(square, 1, {})).value == 0.0

    def test_decomposition_identity(self, grid44, rng):
        for _ in range(10):
            T = random_chain(grid44, 1, rng)
            dec = flat_norm(T)
            recomposed = dec.R + dec.S.boundary()
            assert recomposed.max_coefficient_diff(T) < 1e-8
            assert dec.value == pytest.approx(dec.R.mass() + dec.S.mass(), abs=1e-8)

    def test_single_edge_on_thin_triangles(self):
        # filling the unit edge through thin triangles costs more than its mass
        cx = build_complex(
            [[0, 0], [1, 0], [0.5, 0.05]], {2: [(0, 1, 2)]}
        )
        edge = cx.index[1][frozenset((0, 1))]
        dec = flat_norm(elementary(cx, 1, edge))
        assert dec.value == pytest.approx(1.0, abs=1e-9)
        assert dec.S.is_zero()

    def test_exhaustive_small_fill_enumeration(self):
        # brute-force oracle: objective as a function of the two fill coefficients
        cx = build_complex(
            [[0, 0], [1, 0], [0.5, 0.05], [0.5, -0.05]], {2: [(0, 1, 2), (0, 3, 1)]}
        )
        edge = cx.index[1][frozenset((0, 1))]
        T = elementary(cx, 1, edge)
        vols2 = cx.volumes(2)

        def objective(s):
            S = Chain(cx, 2, {0: s[0], 1: s[1]})
            return (T - S.boundary()).mass() + S.mass()

        best = min(
            objective((a, b))
            for a in np.linspace(-1.5, 1.5, 61)
            for b in np.linspace(-1.5, 1.5, 61)
        )
        dec = flat_norm(T)
        assert dec.value <= best + 1e-9

    def test_top_degree_equals_mass(self, square, square_chain):
        dec = flat_norm(square_chain)
        assert dec.value == pytest.approx(square_chain.mass())
        assert dec.S is None

    def test_against_scipy_oracle(self, grid44, rng):
        for k in (0, 1):
            for _ in range(5):
                T = random_chain(grid44, k, rng)
                assert flat_norm(T).value == pytest.approx(
                    highs_flat_norm(T), abs=1e-7
                )

    def test_f_leq_m_randomized(self, rng):
        cx = grid_mesh(2, 2)
        for _ in range(50):
            k = int(rng.integers(0, 3))
            T = random_chain(cx, k, rng)
            assert flat_norm(T).value <= T.mass() + 1e-10

    def test_fill_bound(self, grid44, rng):
        # F(boundary S) <= M(S), taking R = 0
        for _ in range(10):
            S = random_chain(grid44, 2, rng)
            assert flat_norm(S.boundary()).value <= S.mass() + 1e-9

    def test_refinement_monotone(self, square, square_chain):
        T = square_chain.boundary()
        coarse = flat_norm(T).value
        ref = barycentric_refine(square, 1)
        fine = flat_norm(ref.carry_chain(T)).value
        assert fine <= coarse + 1e-9


class TestFlatDistance:
    def test_identical_chains(self, grid44, rng):
        A = random_chain(grid44, 1, rng)
        assert flat_distance(A, A) == 0.0

    def test_symmetry_and_triangle(self, grid44, rng):
        A, B, C = (random_chain(grid44, 1, rng, density=0.2) for _ in range(3))
        dab = flat_distance(A, B)
        assert dab == pytest.approx(flat_distance(B, A), abs=1e-9)
        assert dab <= flat_distance(A, C) + flat_distance(C, B) + 1e-8

    def test_parallel_edges_vanish_with_gap(self):
        # two parallel unit edges at height gap h: distance <= h + 2h -> 0
        for h in (0.5, 0.25, 0.125):
            verts = [[0, 0], [1, 0], [0, h], [1, h]]
            cx = build_complex(verts, {2: [(0, 1, 3), (0, 3, 2)]})
            bottom = cx.index[1][frozenset((0, 1))]
            top = cx.index[1][frozenset((2, 3))]
            A = elementary(cx, 1, bottom)
            # orient the top edge along +x regardless of the stored tuple
            stored = cx.simplices[1][top]
            sign = 1.0 if cx.vertices[stored[1]][0] > cx.vertices[stored[0]][0] else -1.0
            B = elementary(cx, 1, top, sign)
            d = flat_distance(A, B)
            assert d <= 3 * h + 1e-9

    def test_distance_leq_mass_of_difference(self, grid44, rng):
        A = random_chain(grid44, 1, rng)
        B = random_chain(grid44, 1, rng)
        assert flat_distance(A, B) <= (A - B).mass() + 1e-10


class TestCertifyCauchy:
    def test_constant_sequence(self, grid44, rng):
        A = random_chain(grid44, 1, rng)
        rep = certify_cauchy([A, A, A], eps=1e-9)
        assert rep.passed
        assert all(d == 0.0 for d in rep.distances)

    def test_alternating_fails(self, grid44, rng):
        A = random_chain(grid44, 1, rng)
        rep = certify_cauchy([A, -A, A, -A], eps=1e-9)
        assert not rep.passed

    def test_geometric_sequence_passes(self, grid44, rng):
        A = random_chain(grid44, 1, rng)
        fa = flat_norm(A).value
        chains = [A.scale(1.0 - 2.0 ** (-i)) for i in range(9)]
        rep = certify_cauchy(chains, eps=fa / 200.0, ratio_bound=0.75)
        assert rep.passed
        for r in rep.ratios[:3]:
            assert r == pytest.approx(0.5, abs=1e-6)

    def test_mass_method_upper_bounds_flat(self, grid44, rng):
        A = random_chain(grid44, 1, rng)
        B = random_chain(grid44, 1, rng)
        flat = certify_cauchy([A, B], eps=1e9)
        bound = certify_cauchy([A, B], eps=1e9, method="mass")
        assert flat.distances[0] <= bound.distances[0] + 1e-10

    def test_unknown_method_raises_before_any_solve(self, grid44, rng, monkeypatch):
        from roughbody import flatnorm

        def no_solve(T):
            raise AssertionError("solved an LP")

        monkeypatch.setattr(flatnorm, "flat_norm", no_solve)
        A = random_chain(grid44, 1, rng)
        with pytest.raises(ValueError, match="'flat' or 'mass'"):
            certify_cauchy([A, -A], method="flatt")


class TestCochainFlatNorm:
    def test_dx_cochain(self, square):
        coeffs = {
            i: square.coords(1, i)[1][0] - square.coords(1, i)[0][0]
            for i in range(square.n_simplices(1))
        }
        X = Cochain(square, 1, coeffs)
        assert cochain_flat_norm(X) == pytest.approx(1.0, abs=1e-9)

    def test_zero_cochain(self, square):
        assert cochain_flat_norm(Cochain(square, 1, {})) == 0.0

    def test_duality_bound(self, rng):
        # |X(T)| <= F(X) * F(T) on random pairs
        cx = grid_mesh(2, 2)
        for _ in range(100):
            X = random_cochain(cx, 1, rng)
            T = random_chain(cx, 1, rng)
            fx = cochain_flat_norm(X)
            ft = flat_norm(T).value
            assert abs(evaluate(X, T)) <= fx * ft + 1e-8 * (1.0 + fx * ft)


class TestOneDimension:
    def test_point_pair_distance(self):
        from roughbody.chains import elementary
        from roughbody.generate import segment_mesh

        cx = segment_mesh(4)
        # 0-chain of endpoints of the first edge: fill by the edge itself
        a = elementary(cx, 0, 0)
        b = elementary(cx, 0, 1)
        d = flat_distance(b, a)
        assert d == pytest.approx(0.25, abs=1e-9)  # edge length beats two points

    def test_segment_chain_flat_norm(self):
        from roughbody.generate import segment_mesh

        cx = segment_mesh(4)
        T = Chain(cx, 1, {i: 1.0 for i in range(4)})
        assert flat_norm(T).value == pytest.approx(T.mass())


class TestAnalyticOracles:
    def test_thin_rectangle_boundary_fills(self):
        # 4 x 0.1 rectangle: area 0.4 beats perimeter 8.2
        cx = build_complex(
            [[0, 0], [4, 0], [4, 0.1], [0, 0.1]], {2: [(0, 1, 2), (0, 2, 3)]}
        )
        T = Chain(cx, 2, {0: 1.0, 1: 1.0}).boundary()
        dec = flat_norm(T)
        assert dec.value == pytest.approx(0.4, abs=1e-9)
        assert dec.R.is_zero()

    def test_fat_square_boundary_keeps_loop(self):
        # 0.2 x 0.2 square: perimeter 0.8 beats area 0.04
        cx = build_complex(
            [[0, 0], [0.2, 0], [0.2, 0.2], [0, 0.2]], {2: [(0, 1, 2), (0, 2, 3)]}
        )
        loop = Chain(cx, 2, {0: 1.0, 1: 1.0}).boundary()
        dec = flat_norm(loop)
        assert dec.value == pytest.approx(0.04, abs=1e-9)  # area still wins here
        # with a genuinely small region the loop survives
        cx2 = build_complex(
            [[0, 0], [0.01, 0], [0.01, 0.01], [0, 0.01]], {2: [(0, 1, 2), (0, 2, 3)]}
        )
        loop2 = Chain(cx2, 2, {0: 1.0, 1: 1.0}).boundary()
        assert flat_norm(loop2).value == pytest.approx(1e-4, abs=1e-12)

    def test_cube_surface_fills_in_3d(self):
        from roughbody.generate import cube_mesh

        cx = cube_mesh(1, 1, 1)
        shell = Chain(cx, 3, {i: 1.0 for i in range(6)}).boundary()
        dec = flat_norm(shell)
        assert dec.value == pytest.approx(1.0, abs=1e-9)  # volume 1 beats area 6
        assert dec.R.is_zero()


# -- solver dispatch, certificates and scaling ------------------------------

GRID = grid_mesh(4, 4)
CUBE = cube_mesh(2, 2, 2)
# (complex, degree, solver the dispatch must pick)
CASES = {
    "grid-1": (GRID, 1, "network-simplex"),
    "cube-2": (CUBE, 2, "network-simplex"),
    "grid-0": (GRID, 0, "interior-point"),
    "cube-1": (CUBE, 1, "interior-point"),
}


def _rescaled(cx, a):
    """The same complex with coordinates multiplied by a (same numbering)."""
    top = cx.top_degree
    out = build_complex(cx.vertices * a, {top: cx.simplices[top]}, check_overlap=False)
    assert all(out.simplices[k] == cx.simplices[k] for k in cx.simplices)
    return out


def _assert_certified(T, dec):
    """phi is feasible and proves value within CERT_RTOL M(T)."""
    cx, k = T.complex, T.degree
    assert np.all(np.abs(dec.phi) <= cx.volumes(k))
    faces, signs = cx.incidence_arrays(k + 1)
    dphi = (signs * dec.phi[faces]).sum(axis=1)
    assert np.all(np.abs(dphi) <= cx.volumes(k + 1))
    t = np.zeros(cx.n_simplices(k))
    for i, a in T.coeffs.items():
        t[i] = a
    assert dec.value - t @ dec.phi == pytest.approx(dec.gap, abs=1e-15 * (1 + dec.value))
    assert dec.gap <= CERT_RTOL * T.mass()


class TestSolverDispatch:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dispatch_and_certificate(self, case, rng):
        cx, k, solver = CASES[case]
        for _ in range(3):
            T = random_chain(cx, k, rng)
            dec = flat_norm(T)
            assert dec.solver == solver
            _assert_certified(T, dec)

    def test_segment_points_take_the_flow_path(self):
        from roughbody.generate import segment_mesh

        cx = segment_mesh(4)
        dec = flat_distance(elementary(cx, 0, 1), elementary(cx, 0, 0))
        assert dec == pytest.approx(0.25, abs=1e-12)
        assert flat_norm(elementary(cx, 0, 1)).solver == "network-simplex"

    def test_folded_mesh_leaves_the_flow_path(self):
        # two triangles folded onto the same side of their shared edge:
        # oriented by sign(det), both give that edge the same incidence
        cx = build_complex(
            [[0, 0], [1, 0], [0.5, 1.0], [0.4, 0.5]], {2: [(0, 1, 2), (0, 1, 3)]}, check_overlap=False
        )
        edge = cx.index[1][frozenset((0, 1))]
        for T in (
            elementary(cx, 1, edge),
            Chain(cx, 2, {0: 1.0}).boundary() - Chain(cx, 2, {1: 0.5}).boundary(),
        ):
            dec = flat_norm(T)
            assert dec.solver == "interior-point"
            assert dec.value == pytest.approx(highs_flat_norm(T), rel=1e-7)
            _assert_certified(T, dec)

    def test_uncertified_interior_point_raises(self, monkeypatch):
        # a result the certificate rejects is an error, never solved a second way
        from roughbody import flatnorm

        solve = flatnorm._solve_interior

        def halved(*lp):
            s, phi, iterations = solve(*lp)
            return s, 0.5 * phi, iterations

        monkeypatch.setattr(flatnorm, "_solve_interior", halved)
        T = random_chain(CUBE, 1, np.random.default_rng(0))
        with pytest.raises(LPNumericalFailure, match=r"^interior-point: duality gap "):
            flat_norm(T)


class TestAgainstHighs:
    @pytest.mark.parametrize(
        "cx, k, solver",
        [
            (grid_mesh(6, 6), 1, "network-simplex"),
            (cube_mesh(2, 2, 1), 2, "network-simplex"),
            (cube_mesh(2, 2, 1), 1, "interior-point"),
        ],
        ids=["grid-1-chains", "cube-2-chains", "cube-1-chains"],
    )
    def test_seeded_chains(self, cx, k, solver):
        for seed in range(4):
            T = random_chain(cx, k, np.random.default_rng(seed))
            dec = flat_norm(T)
            assert dec.solver == solver
            assert dec.value == pytest.approx(highs_flat_norm(T), rel=1e-7)


class TestCertificateCheck:
    @pytest.mark.parametrize("case", ["grid-1", "cube-1"])
    def test_perturbed_fill_is_rejected(self, case, rng):
        cx, k, _ = CASES[case]
        T = random_chain(cx, k, rng)
        dec = flat_norm(T)
        assert certify(T, dec.S, dec.phi, dec.solver).value == pytest.approx(dec.value, rel=1e-15)
        bump = Chain(cx, k + 1, {0: 1e-3 * max(abs(a) for a in T.coeffs.values())})
        with pytest.raises(LPNumericalFailure, match=dec.solver):
            certify(T, dec.S + bump, dec.phi, dec.solver)

    def test_weakened_certificate_is_rejected(self, rng):
        T = random_chain(GRID, 1, rng)
        dec = flat_norm(T)
        with pytest.raises(LPNumericalFailure, match="duality gap"):
            certify(T, dec.S, 0.99 * dec.phi, dec.solver)

    def test_small_coefficients_stay_optimal(self):
        # an absolute pivot tolerance once made F(1e-8 T) 0.65 % too high
        # and F(1e-12 T) 90 % too high on this chain
        T = random_chain(grid_mesh(4, 4), 1, np.random.default_rng(1))
        unit = flat_norm(T).value
        assert unit == pytest.approx(2.677827, abs=1e-6)
        for a in (1e-8, 1e-12):
            assert flat_norm(T.scale(a)).value == pytest.approx(a * unit, rel=1e-12)


class TestScaling:
    @settings(max_examples=24, deadline=None)
    @given(
        case=st.sampled_from(sorted(CASES)),
        seed=st.integers(0, 2**32 - 1),
        a=st.sampled_from([1e-12, 1e-8, 1e6]),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_homogeneity(self, case, seed, a, sign):
        cx, k, _ = CASES[case]
        T = random_chain(cx, k, np.random.default_rng(seed))
        scaled = flat_norm(T.scale(sign * a))
        assert scaled.value == pytest.approx(a * flat_norm(T).value, rel=1e-9)
        _assert_certified(T.scale(sign * a), scaled)

    @settings(max_examples=16, deadline=None)
    @given(
        case=st.sampled_from(sorted(CASES)),
        seed=st.integers(0, 2**32 - 1),
        a=st.sampled_from([1e-3, 1e3]),
    )
    def test_coordinate_scaling_matches_highs(self, case, seed, a):
        cx, k, solver = CASES[case]
        T = random_chain(cx, k, np.random.default_rng(seed))
        Ts = Chain(_rescaled(cx, a), k, T.coeffs)
        dec = flat_norm(Ts)
        assert dec.solver == solver
        assert dec.value == pytest.approx(highs_flat_norm(Ts), rel=1e-7)
        _assert_certified(Ts, dec)


def _folded(cx, ratio=0.8):
    """cx with the half x > 0.5 folded back over x < 0.5 (built without the overlap check)."""
    V = cx.vertices.copy()
    right = V[:, 0] > 0.5
    V[right, 0] = 0.5 - ratio * (V[right, 0] - 0.5)
    top = cx.top_degree
    return build_complex(V, {top: cx.simplices[top]}, check_overlap=False)


SWEEP = {
    "grid-0": (GRID, 0),
    "cube-0": (CUBE, 0),
    "cube-1": (CUBE, 1),
    "folded-grid-0": (_folded(GRID), 0),
    "folded-grid-1": (_folded(GRID), 1),
    "folded-cube-1": (_folded(CUBE), 1),
    "folded-cube-2": (_folded(CUBE), 2),
}


class TestInteriorPointSweep:
    """Every degree the flow path leaves, on flat and folded meshes, at coefficient scales 1e-12 to 1e6."""

    @pytest.mark.parametrize("case", sorted(SWEEP))
    def test_no_fallback(self, case):
        cx, k = SWEEP[case]
        for seed in range(6):
            T = random_chain(cx, k, np.random.default_rng(seed))
            for a in (1e-12, 1e-6, 1.0, 1e6):
                Ta = T.scale(a)
                dec = flat_norm(Ta)
                assert dec.solver == "interior-point"
                assert dec.value == pytest.approx(highs_flat_norm(Ta), rel=1e-7)
                again = flat_norm(Ta)
                assert again.value == dec.value
                assert np.array_equal(again.phi, dec.phi)
