import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_overlay import common_refinement, shared_facet

from roughbody.bodies import (
    Body,
    _shared_facet,
    body_from_simplices,
    geometric_boundary_surface,
    koch_generalized_body,
    koch_prefractal,
    surface_from_facets,
    trace,
)
from roughbody.chains import Chain
from roughbody.errors import GeneratorOverlap, OverlayFailure, TooFewChains, WrongDegree
from roughbody.generate import grid_mesh, random_body
from roughbody.mesh import build_complex

A0 = np.sqrt(3.0) / 4.0


def koch_area(k):
    return A0 * (1.0 + 3.0 / 5.0 * (1.0 - (4.0 / 9.0) ** k))


class TestBody:
    def test_square_body(self, square):
        b = body_from_simplices(square, [0, 1])
        assert b.mass() == pytest.approx(1.0)

    def test_empty_body(self, square):
        b = body_from_simplices(square, [])
        assert b.chain.is_zero()

    def test_duplicate_index_idempotent(self, square):
        b = body_from_simplices(square, [0, 0, 1])
        assert b.mass() == pytest.approx(1.0)

    def test_negatively_oriented_rejected(self):
        cx = build_complex([[0, 0], [1, 0], [0, 1]], {2: [(0, 2, 1)]})
        with pytest.raises(ValueError):
            body_from_simplices(cx, [0])

    def test_wrong_degree_mesh(self):
        cx = build_complex([[0.0, 0.0], [1.0, 0.0]], {1: [(0, 1)]})
        with pytest.raises(WrongDegree):
            body_from_simplices(cx, [0])


class TestGeometricBoundary:
    def test_square_outward_orientation(self, square):
        b = body_from_simplices(square, [0, 1])
        s = geometric_boundary_surface(b)
        assert s.mass() == pytest.approx(4.0)
        assert s.chain.max_coefficient_diff(b.chain.boundary()) == 0.0

    def test_l_shape_perimeter(self):
        # three unit squares in an L: perimeter 8
        cx = grid_mesh(2, 2, hi=(2.0, 2.0))
        body = body_from_simplices(cx, [0, 1, 2, 3, 4, 5])
        s = geometric_boundary_surface(body)
        assert s.mass() == pytest.approx(8.0, abs=1e-12)
        assert s.chain.max_coefficient_diff(body.chain.boundary()) == 0.0

    def test_disjoint_union_additivity(self, grid44):
        # two far-apart cells: boundary of the union is the union of boundaries
        b1 = body_from_simplices(grid44, [0, 1])
        b2 = body_from_simplices(grid44, [30, 31])
        both = body_from_simplices(grid44, [0, 1, 30, 31])
        s = geometric_boundary_surface(both)
        expected = b1.chain.boundary() + b2.chain.boundary()
        assert s.chain.max_coefficient_diff(expected) == 0.0

    def test_random_bodies_match_boundary(self, grid44, rng):
        for _ in range(20):
            body = random_body(grid44, rng)
            s = geometric_boundary_surface(body)
            assert s.chain.max_coefficient_diff(body.chain.boundary()) <= 1e-10

    def test_facet_subset_surface(self, square):
        b = body_from_simplices(square, [0, 1])
        bnd = b.chain.boundary()
        some = list(bnd.coeffs)[:2]
        s = surface_from_facets(b, some)
        assert set(s.chain.coeffs) == set(some)


class TestKoch:
    def test_generalized_body_needs_two_levels(self):
        with pytest.raises(TooFewChains, match="at least two chains"):
            koch_generalized_body(0)
        assert issubclass(TooFewChains, ValueError)

    def test_level0(self):
        b = koch_prefractal(0)
        assert b.boundary_mass() == pytest.approx(3.0, abs=1e-9)
        assert b.mass() == pytest.approx(A0, abs=1e-9)

    def test_level1(self):
        b = koch_prefractal(1)
        assert b.boundary_mass() == pytest.approx(4.0, abs=1e-9)
        assert b.mass() == pytest.approx(koch_area(1), abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_recurrences(self, k):
        b = koch_prefractal(k)
        assert b.boundary_mass() == pytest.approx(3.0 * (4.0 / 3.0) ** k, abs=1e-9)
        assert b.mass() == pytest.approx(koch_area(k), abs=1e-9)

    def test_generalized_body_certificate(self):
        gb = koch_generalized_body(4, eps=0.05)
        rep = gb.report
        assert rep.passed
        # annexed areas and the 4/9 contraction, exactly
        for k, d in enumerate(rep.distances):
            assert d == pytest.approx(A0 / 3.0 * (4.0 / 9.0) ** k, abs=1e-9)
        for r in rep.ratios:
            assert r <= 4.0 / 9.0 + 1e-3

    def test_boundary_mass_diverges_while_cauchy(self):
        gb = koch_generalized_body(4, eps=0.05)
        masses = [b.chain.boundary().mass() for b in gb.bodies]
        for a, b in zip(masses, masses[1:]):
            assert b > a  # strictly increasing: the rough-body signature
        assert gb.report.passed

    def test_level6_areas_and_perimeters(self):
        gb = koch_generalized_body(6)
        assert gb.bodies[-1].complex.n_simplices(2) == 18426
        for k, b in enumerate(gb.bodies):
            assert b.complex is gb.bodies[-1].complex
            assert b.mass() == pytest.approx(koch_area(k), abs=1e-9)
            assert b.boundary_mass() == pytest.approx(3.0 * (4.0 / 3.0) ** k, abs=1e-9)

    def test_birth_levels_match_reference_carry(self):
        # T_k = triangles born at level <= k is what point location of the
        # level-k snowflake's own triangulation finds on the finest mesh
        from reference_locator import carry_onto

        gb = koch_generalized_body(4)
        finest = gb.bodies[-1].complex
        for k in range(5):
            carried = carry_onto(koch_prefractal(k), finest)
            assert gb.bodies[k].chain.coeffs == carried.chain.coeffs

    def test_exact_flat_distances_small_levels(self):
        # LP distances on the common mesh are below the annexed-area bounds
        gb = koch_generalized_body(2, eps=0.2, method="flat")
        for k, d in enumerate(gb.report.distances):
            assert d <= A0 / 3.0 * (4.0 / 9.0) ** k + 1e-9

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValueError, match="'flat' or 'mass', got 'flatt'"):
            koch_generalized_body(2, eps=0.2, method="flatt")


class TestOverlayAndTrace:
    def test_identical_squares(self, square):
        a = body_from_simplices(square, [0, 1])
        b = body_from_simplices(square, [0, 1])
        cx, a2, b2 = common_refinement(a, b)
        assert a2.mass() == pytest.approx(1.0, abs=1e-10)
        assert set(a2.chain.coeffs) == set(b2.chain.coeffs)

    def test_offset_squares_strip(self):
        cx1 = build_complex([[0, 0], [1, 0], [1, 1], [0, 1]], {2: [(0, 1, 2), (0, 2, 3)]})
        cx2 = build_complex(
            [[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]], {2: [(0, 1, 2), (0, 2, 3)]}
        )
        A = body_from_simplices(cx1, [0, 1])
        B = body_from_simplices(cx2, [0, 1])
        cx, a2, b2 = common_refinement(A, B)
        inter = Chain(cx, 2, {i: 1.0 for i in set(a2.chain.coeffs) & set(b2.chain.coeffs)})
        assert inter.mass() == pytest.approx(0.5, abs=1e-10)

    def test_disjoint_squares(self):
        cx1 = build_complex([[0, 0], [1, 0], [1, 1], [0, 1]], {2: [(0, 1, 2), (0, 2, 3)]})
        cx2 = build_complex([[3, 0], [4, 0], [4, 1], [3, 1]], {2: [(0, 1, 2), (0, 2, 3)]})
        A = body_from_simplices(cx1, [0, 1])
        B = body_from_simplices(cx2, [0, 1])
        cx, a2, b2 = common_refinement(A, B)
        assert not (set(a2.chain.coeffs) & set(b2.chain.coeffs))

    def test_trace_slab(self, square):
        body = body_from_simplices(square, [0, 1])
        cxM = build_complex(
            [[0.5, -1], [2, -1], [2, 2], [0.5, 2]], {2: [(0, 1, 2), (0, 2, 3)]}
        )
        M = body_from_simplices(cxM, [0, 1])
        tr, ocx = trace(body, M)
        # right-of-cut portion of the square: right edge plus two half edges
        assert tr.mass() == pytest.approx(2.0, abs=1e-10)

    def test_trace_contained_generator(self, square):
        body = body_from_simplices(square, [0, 1])
        cxM = build_complex(
            [[-1, -1], [2, -1], [2, 2], [-1, 2]], {2: [(0, 1, 2), (0, 2, 3)]}
        )
        M = body_from_simplices(cxM, [0, 1])
        tr, ocx = trace(body, M)
        assert tr.mass() == pytest.approx(4.0, abs=1e-10)

    def test_trace_disjoint_generator(self, square):
        body = body_from_simplices(square, [0, 1])
        cxM = build_complex([[5, 5], [6, 5], [6, 6], [5, 6]], {2: [(0, 1, 2), (0, 2, 3)]})
        M = body_from_simplices(cxM, [0, 1])
        tr, ocx = trace(body, M)
        assert tr.mass() == pytest.approx(0.0, abs=1e-10)

    def test_facet_coincidence_rejected(self, square):
        body = body_from_simplices(square, [0, 1])
        # generator sharing the right edge of the square
        cxM = build_complex([[1, -1], [3, -1], [3, 2], [1, 2]], {2: [(0, 1, 2), (0, 2, 3)]})
        M = body_from_simplices(cxM, [0, 1])
        with pytest.raises(GeneratorOverlap):
            trace(body, M)

    def test_trace_independent_of_generator(self, square):
        # two generators with the same intersection with the body boundary
        # produce geometrically identical traces (on different overlays)
        body = body_from_simplices(square, [0, 1])
        cxM1 = build_complex(
            [[0.5, -1], [2, -1], [2, 2], [0.5, 2]], {2: [(0, 1, 2), (0, 2, 3)]}
        )
        cxM2 = build_complex(
            [[0.5, -2], [3, -2], [3, 3], [0.5, 3]], {2: [(0, 1, 2), (0, 2, 3)]}
        )
        t1, _ = trace(body, body_from_simplices(cxM1, [0, 1]))
        t2, _ = trace(body, body_from_simplices(cxM2, [0, 1]))
        assert t1.mass() == pytest.approx(t2.mass(), abs=1e-9)

        def signed_measure(tr):
            out = {}
            cx = tr.complex
            for i, a in tr.coeffs.items():
                C = cx.coords(1, i)
                key = tuple(np.round(C.mean(axis=0), 6))
                direction = (C[1] - C[0]) * a
                out[key] = out.get(key, np.zeros(2)) + direction
            return out

        m1, m2 = signed_measure(t1), signed_measure(t2)
        # piece barycenters may differ; compare total signed length per edge line
        tot1 = sum((np.linalg.norm(v) for v in m1.values()))
        tot2 = sum((np.linalg.norm(v) for v in m2.values()))
        assert tot1 == pytest.approx(tot2, abs=1e-9)
        assert sum(m1.values()).sum() == pytest.approx(sum(m2.values()).sum(), abs=1e-9)

    def test_trace_consistency_with_restriction(self, square):
        # for polytopal bodies the trace equals bd(T_P) restricted to M
        from reference_locator import RegionLocator as _RegionLocator, carry_onto as _carry_onto

        body = body_from_simplices(square, [0, 1])
        cxM = build_complex(
            [[0.5, -1], [2, -1], [2, 2], [0.5, 2]], {2: [(0, 1, 2), (0, 2, 3)]}
        )
        M = body_from_simplices(cxM, [0, 1])
        tr, ocx = trace(body, M)
        carried = _carry_onto(body, ocx)
        loc = _RegionLocator(M)
        barys = ocx.barycenters(1)
        expected = Chain(
            ocx,
            1,
            {
                i: a
                for i, a in carried.chain.boundary().coeffs.items()
                if loc.contains(barys[i])
            },
        )
        assert (tr - expected).mass() <= 1e-10


# trace masses against the generator [0.3, 2] x [-1, 1] as the two-body overlay gave them
_KOCH_TRACE_MASSES = [2.1, 2.7333333333333334, 3.6222222222222213, 4.807407407407407, 6.412345679012368]


@pytest.mark.parametrize("level", range(5))
def test_koch_trace_restricts_the_boundary(level):
    # the trace refines only the part's complex, and only by the generator's planes
    part = koch_prefractal(level)
    tr, cx = trace(part, _square(1.0, (0.3, -1.0), (1.7, 2.0)))
    assert tr.mass() == pytest.approx(_KOCH_TRACE_MASSES[level], rel=1e-12)
    assert cx.n_simplices(2) <= 10 * part.complex.n_simplices(2)


def test_trace_builds_no_overlay(monkeypatch):
    # the trace never refines a box by both bodies' planes nor locates points in the part
    import roughbody.bodies as bodies

    part, generator = _square(1.0), _square(1.0, (0.5, -1.0), (1.5, 3.0))
    located = []
    inside = bodies._inside
    monkeypatch.setattr(bodies, "_inside", lambda body, X: located.append(body) or inside(body, X))
    tr, _ = trace(part, generator)
    assert located == [generator]
    assert tr.mass() == pytest.approx(2.0, rel=1e-12)


def test_trace_rejects_mixed_dimensions():
    with pytest.raises(OverlayFailure):
        trace(_square(1.0), _offset_box(0.0))
    with pytest.raises(OverlayFailure):
        trace(_offset_box(0.0), _square(1.0))


class TestKochBoundarySequence:
    def test_boundary_chains_certify_in_flat_norm(self):
        # the (n-1)-chain sequence is Cauchy: F(bd T_{k+1} - bd T_k) is at
        # most the annexed area (fill by the annexed region itself)
        from roughbody.flatnorm import certify_cauchy

        gb = koch_generalized_body(2)
        boundaries = [b.chain.boundary() for b in gb.bodies]
        rep = certify_cauchy(boundaries, eps=0.2, method="flat")
        for k, d in enumerate(rep.distances):
            assert d <= A0 / 3.0 * (4.0 / 9.0) ** k + 1e-9

    def test_level5_flat_distances_match_highs(self):
        # F(bd T_{k+1} - bd T_k) for k = 2, 3, 4 on the 8439-edge level-5 mesh
        from highs_oracle import highs_flat_norm

        from roughbody.flatnorm import certify_cauchy

        gb = koch_generalized_body(5)
        boundaries = [b.chain.boundary() for b in gb.bodies[2:]]
        assert boundaries[0].complex.n_simplices(1) == 8439
        bound = 4.0 / 9.0 + 1e-3
        rep = certify_cauchy(boundaries, eps=0.01, ratio_bound=bound, method="flat")
        assert rep.passed
        assert all(r <= bound for r in rep.ratios)
        for d, expected, (a, b) in zip(rep.distances, (0.02851, 0.01267, 0.005632), zip(boundaries, boundaries[1:])):
            assert d == pytest.approx(highs_flat_norm(b - a), rel=1e-7)
            assert d == pytest.approx(expected, rel=1e-3)

    def test_level6_flat_distance_matches_highs_within_a_second(self):
        # F(bd T_6 - bd T_5) on the 18426-triangle level-6 mesh: the network
        # simplex certifies it, HiGHS agrees and the 4/9 contraction holds
        import time

        from highs_oracle import highs_flat_norm

        from roughbody.flatnorm import flat_norm

        gb = koch_generalized_body(6)
        b4, b5, b6 = (b.chain.boundary() for b in gb.bodies[4:])
        previous = flat_norm(b5 - b4).value
        t0 = time.perf_counter()
        dec = flat_norm(b6 - b5)
        elapsed = time.perf_counter() - t0
        assert dec.solver == "network-simplex"
        assert dec.value == pytest.approx(highs_flat_norm(b6 - b5), rel=1e-7)
        assert dec.value / previous <= 4.0 / 9.0 + 1e-3
        assert elapsed < 1.0


class TestBodies3D:
    def test_cube_stokes(self):
        from roughbody.generate import cube_mesh

        cx = cube_mesh(2, 1, 1)
        body = body_from_simplices(cx, range(cx.n_simplices(3)))
        assert body.mass() == pytest.approx(1.0, abs=1e-12)
        s = geometric_boundary_surface(body)
        assert s.mass() == pytest.approx(6.0, abs=1e-10)  # unit cube surface
        assert s.chain.max_coefficient_diff(body.chain.boundary()) == 0.0


def test_stokes_1d_segment():
    cx = build_complex([[0.0], [0.5], [1.0]], {1: [(0, 1), (1, 2)]})
    body = body_from_simplices(cx, [0, 1])
    s = geometric_boundary_surface(body)
    assert s.chain.max_coefficient_diff(body.chain.boundary()) == 0.0
    assert s.mass() == pytest.approx(2.0)  # two endpoint atoms


def _square(a, offset=(0.0, 0.0), size=(1.0, 1.0)):
    """Body of the axis-aligned rectangle offset + [0, size], all scaled by a."""
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]]) * size + offset
    return body_from_simplices(build_complex(corners * a, {2: [(0, 1, 2), (0, 2, 3)]}), [0, 1])


class TestTraceScaling:
    """Traces are invariant under scaling every coordinate by 2^e."""

    @settings(max_examples=20, deadline=None)
    @given(e=st.integers(-40, 20))
    def test_trace_slab(self, e):
        a = 2.0**e
        tr, _ = trace(_square(a), _square(a, (0.5, -1.0), (1.5, 3.0)))
        assert tr.mass() / a == pytest.approx(2.0, rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(e=st.integers(-40, 20))
    def test_facet_coincidence_rejected(self, e):
        a = 2.0**e
        with pytest.raises(GeneratorOverlap):
            trace(_square(a), _square(a, (1.0, -1.0), (2.0, 3.0)))

    def test_trace_slab_3d_small_scale(self):
        # at 2^-34 an absolute 1e-9 tolerance once put every facet in every plane
        from roughbody.generate import cube_mesh

        a = 2.0**-34
        c = cube_mesh(1, 1, 1)

        def box(offset, size):
            return body_from_simplices(build_complex((c.vertices * size + offset) * a, {3: c.simplices[3]}), range(6))

        tr, _ = trace(box(0.0, 1.0), box([0.5, -1, -1], [1.5, 3, 3]))
        assert tr.mass() / a**2 == pytest.approx(3.0, rel=1e-10)
        with pytest.raises(GeneratorOverlap):
            trace(box(0.0, 1.0), box([1, 0, 0], 1.0))


def _offset_box(offset, size=1.0, a=1.0):
    """Body of the axis-aligned box (offset + [0, size]^3) * a, six tetrahedra."""
    from roughbody.generate import cube_mesh

    c = cube_mesh(1, 1, 1)
    return body_from_simplices(build_complex((c.vertices * size + offset) * a, {3: c.simplices[3]}), range(6))


def _overlay_and_trace(part, generator):
    """The bodies, their overlay and their trace (None when they share a boundary facet)."""
    try:
        traced = trace(part, generator)
    except GeneratorOverlap:
        traced = None
    return part, generator, common_refinement(part, generator), traced


@pytest.fixture(scope="module")
def offset_cubes():
    """Two unit cubes offset by (0.37, 0.21, 0.13), their overlay and trace."""
    return _overlay_and_trace(_offset_box(0.0), _offset_box(np.array([0.37, 0.21, 0.13])))


def test_offset_cube_trace_is_exact(offset_cubes):
    # bd(P cap M) - bd(M) restricted to P: the faces x = 1, y = 1 and z = 1 of
    # the overlap box [0.37, 1] x [0.21, 1] x [0.13, 1], of total area
    # 0.79 * 0.87 + 0.63 * 0.87 + 0.63 * 0.79 = 1.7331
    _, _, (_, bp, bm), (tr, _) = offset_cubes
    assert bp.mass() == pytest.approx(1.0, rel=1e-12)
    assert bm.mass() == pytest.approx(1.0, rel=1e-12)
    assert tr.mass() == pytest.approx(1.7331, rel=1e-9)


def _assert_classified_like_reference(part, generator, overlay, traced):
    """Overlay bodies and trace as the point-at-a-time locator classifies them.

    The trace is the part's boundary, carried onto the trace complex,
    restricted to the generator; its mass is that of the overlay's
    boundary(P cap M) - boundary(M) restricted to P.
    """
    from reference_locator import RegionLocator, carry_onto

    cx, bp, bm = overlay
    barys = cx.barycenters(cx.dim)
    for orig, new in ((part, bp), (generator, bm)):
        loc = RegionLocator(orig)
        assert list(new.chain.coeffs) == [i for i, x in enumerate(barys) if loc.contains(x)]
    if traced is None:
        return
    tr, tcx = traced
    loc = RegionLocator(generator)
    pieces = tcx.barycenters(tcx.dim - 1)
    bnd = carry_onto(part, tcx).chain.boundary()
    assert {i: a for i, a in bnd.coeffs.items() if loc.contains(pieces[i])} == tr.coeffs
    loc = RegionLocator(part)
    facets = cx.barycenters(cx.dim - 1)
    bm_bnd = bm.chain.boundary()
    inter = Chain(cx, cx.dim, {i: 1.0 for i in set(bp.chain.coeffs) & set(bm.chain.coeffs)})
    second = Chain(cx, cx.dim - 1, {i: a for i, a in bm_bnd.coeffs.items() if loc.contains(facets[i])})
    overlay_mass = (inter.boundary() - second).mass()
    assert abs(tr.mass() - overlay_mass) <= 1e-12 * overlay_mass


# (offset, size) of the second rectangle against the unit square; the
# first two share boundary facets, so they have an overlay but no trace
_PAIRS_2D = {
    "identical": ((0.0, 0.0), (1.0, 1.0)),
    "strip": ((0.5, 0.0), (1.0, 1.0)),
    "disjoint": ((3.0, 0.0), (1.0, 1.0)),
    "slab": ((0.5, -1.0), (1.5, 3.0)),
    "wide-slab": ((0.5, -2.0), (2.5, 5.0)),
    "contained": ((-1.0, -1.0), (3.0, 3.0)),
    "far": ((5.0, 5.0), (1.0, 1.0)),
}


@pytest.mark.parametrize("e", [-40, -20, 0, 20])
@pytest.mark.parametrize("pair", sorted(_PAIRS_2D))
def test_overlay_classified_like_reference_2d(pair, e):
    # every 2-D overlay and trace of this file, at scales 2^e
    a = 2.0**e
    _assert_classified_like_reference(*_overlay_and_trace(_square(a), _square(a, *_PAIRS_2D[pair])))


def test_overlay_classified_like_reference_3d(offset_cubes):
    _assert_classified_like_reference(*offset_cubes)
    a = 2.0**-34
    slab = _overlay_and_trace(_offset_box(0.0, a=a), _offset_box(np.array([0.5, -1, -1]), np.array([1.5, 3, 3]), a))
    _assert_classified_like_reference(*slab)


def _same_shared_facet(part, generator):
    """The one-pass precondition finds the double loop's first shared facet pair, or its None."""
    got = _shared_facet(part, generator)
    assert got == shared_facet(part, generator)
    return got


@pytest.mark.parametrize("e", [-40, -20, 0, 20])
@pytest.mark.parametrize("pair", sorted(_PAIRS_2D))
def test_shared_facet_like_reference_2d(pair, e):
    a = 2.0**e
    got = _same_shared_facet(_square(a), _square(a, *_PAIRS_2D[pair]))
    assert (got is None) == (pair not in ("identical", "strip"))


def test_shared_facet_meets_part_facets_first():
    # the unit square cut along its other diagonal shares every facet with
    # the square, under other facet numbers; the pair found is at the part's
    # lowest facet, not at the generator's
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
    generator = body_from_simplices(build_complex(corners, {2: [(0, 1, 3), (1, 2, 3)]}), [0, 1])
    part = _square(1.0)
    first = _same_shared_facet(part, generator)
    assert first[0] == part.chain.boundary().idx[0]
    assert first[1] != generator.chain.boundary().idx[0]


def test_shared_facet_like_reference_3d(offset_cubes):
    part, generator, _, _ = offset_cubes
    assert _same_shared_facet(part, generator) is None
    a = 2.0**-34
    slab = _offset_box(np.array([0.5, -1, -1]), np.array([1.5, 3, 3]), a)
    assert _same_shared_facet(_offset_box(0.0, a=a), slab) is None
    assert _same_shared_facet(_offset_box(0.0, a=a), _offset_box(np.array([1.0, 0, 0]), a=a)) is not None


@pytest.mark.parametrize("level", range(6))
def test_shared_facet_like_reference_koch(level):
    # the square of the trace tests meets no facet; the one below shares the base line y = 0
    part = koch_prefractal(level)
    assert _same_shared_facet(part, _square(1.0, (0.3, -1.0), (1.7, 2.0))) is None
    assert _same_shared_facet(part, _square(1.0, (-1.0, -1.0), (3.0, 1.0))) is not None


@pytest.mark.parametrize("e", [-40, -20, 0, 20])
@pytest.mark.parametrize("gap", [2.0**-40, 2.0**-33, 3e-10])
def test_near_coincident_generator_refused(gap, e):
    # a generator edge this close to the square's right edge is within the
    # cut's vertex snapping and _inside's slack: traced, the right edge would
    # count as inside the generator, where the true trace is empty
    a = 2.0**e
    part, generator = _square(a), _square(a, (1.0 + gap, -1.0), (2.0, 3.0))
    assert _same_shared_facet(part, generator) is not None
    with pytest.raises(GeneratorOverlap):
        trace(part, generator)
