import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughbody.bodies import _koch_build, koch_prefractal
from roughbody.chains import Chain
from roughbody.errors import DegenerateSimplex, NonManifoldOverlap
from roughbody.forms import EvaluableCurrent, chain_as_current, constant_form
from roughbody.generate import cube_mesh, grid_mesh, segment_mesh
from roughbody.mesh import (
    HalfSpace,
    barycentric_refine,
    build_complex,
    refine_by_halfspace,
    side_of_simplices,
)


class TestBuildComplex:
    def test_square_has_five_edges(self, square):
        assert square.n_simplices(0) == 4
        assert square.n_simplices(1) == 5
        assert square.n_simplices(2) == 2

    def test_single_segment(self):
        cx = build_complex([[0.0], [1.0]], {1: [(0, 1)]})
        assert cx.n_simplices(0) == 2
        assert cx.n_simplices(1) == 1

    def test_repeated_vertex_is_degenerate(self):
        with pytest.raises(DegenerateSimplex):
            build_complex([[0, 0], [1, 0], [0, 1]], {2: [(0, 0, 1)]})

    def test_zero_area_triangle_is_degenerate(self):
        with pytest.raises(DegenerateSimplex):
            build_complex([[0, 0], [1, 0], [2, 0]], {2: [(0, 1, 2)]})

    def test_tetrahedron_in_the_plane_is_degenerate(self):
        with pytest.raises(DegenerateSimplex):
            build_complex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], {3: [(0, 1, 2, 3)]})

    @pytest.mark.parametrize(
        "simplices", [{-1: [()], 2: [(0, 1, 2)]}, {3: [(0, 1, 2, 3)]}, {2: [(0, 1, 2)], 3: []}]
    )
    def test_degree_outside_the_ambient_range(self, simplices):
        with pytest.raises(ValueError, match=r"simplex degree -?\d is outside 0\.\.2"):
            build_complex([[0, 0], [1, 0], [0, 1], [1, 1]], simplices)

    def test_overlapping_triangles_rejected(self):
        verts = [[0, 0], [1, 0], [0, 1], [0.2, 0.2], [1.2, 0.2], [0.2, 1.2]]
        with pytest.raises(NonManifoldOverlap):
            build_complex(verts, {2: [(0, 1, 2), (3, 4, 5)]})

    def test_crossing_edges_rejected(self):
        verts = [[0, 0], [1, 1], [0, 1], [1, 0]]
        with pytest.raises(NonManifoldOverlap):
            build_complex(verts, {1: [(0, 1), (2, 3)]})

    @pytest.mark.parametrize("eps", [1e-7, 1e-9, 1e-12])
    def test_folded_sliver_rejected(self, eps):
        # the apex of the second triangle is pushed eps across the edge it shares with the first;
        # side 0.25 keeps the eps = 1e-12 sliver above the 1e-12 (longest edge)^2 degeneracy floor
        with pytest.raises(NonManifoldOverlap):
            build_complex([[0, 0], [0.25, 0], [0, 0.25], [0, eps]], {2: [(0, 1, 2), (0, 1, 3)]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_vertex_rejected(self, bad):
        with pytest.raises(ValueError, match="vertex 1 has a non-finite coordinate"):
            build_complex([[0, 0], [1, bad], [0, 1]], {2: [(0, 1, 2)]})

    @pytest.mark.parametrize("bad", [2.7, float("nan"), 1e30, "2"])
    def test_non_integer_vertex_id_rejected(self, bad):
        with pytest.raises(ValueError, match="integer vertex ids"):
            build_complex([[0, 0], [1, 0], [0, 1]], {2: [(0, 1, bad)]})

    @pytest.mark.parametrize("ids", [[(0, 1, 2)], [(0, 1, 2.0)], np.array([[0, 1, 2]], dtype=np.uint8)])
    def test_integer_vertex_ids_accepted(self, ids):
        assert build_complex([[0, 0], [1, 0], [0, 1]], {2: ids}).simplices[2] == [(0, 1, 2)]

    def test_shared_diagonal_sign_consistent(self, square):
        # the diagonal appears once and receives opposite signs from the two triangles
        diag = square.index[1][frozenset((0, 2))]
        faces, incidences = square.incidence_arrays(2)
        signs = []
        for tri in range(2):
            for fidx, sgn in zip(faces[tri].tolist(), incidences[tri].tolist()):
                if fidx == diag:
                    signs.append(sgn)
        assert sorted(signs) == [-1, 1]


class TestVolumesAndTangents:
    def test_documented_volumes(self):
        tri = build_complex([[0, 0], [1, 0], [0, 1]], {2: [(0, 1, 2)]})
        assert tri.volume(2, 0) == pytest.approx(0.5)
        seg = build_complex([[0, 0], [3, 4]], {1: [(0, 1)]})
        assert seg.volume(1, 0) == pytest.approx(5.0)
        tet = build_complex(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], {3: [(0, 1, 2, 3)]}
        )
        assert tet.volume(3, 0) == pytest.approx(1.0 / 6.0)

    def test_unit_tangents(self):
        seg = build_complex([[0, 0], [1, 0], [0, 2]], {1: [(0, 1), (0, 2)]})
        assert np.allclose(seg.unit_tangents(1)[0], [1.0, 0.0])
        assert np.allclose(seg.unit_tangents(1)[1], [0.0, 1.0])
        tri = build_complex(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]], {2: [(0, 1, 2)]}
        )
        assert np.allclose(tri.unit_tangents(2)[0], [1.0, 0.0, 0.0])

    def test_tangent_norm_is_one(self, grid44):
        for k in (1, 2):
            for i in range(grid44.n_simplices(k)):
                assert np.linalg.norm(grid44.unit_tangents(k)[i]) == pytest.approx(1.0)


def _clip(cx, k, hs):
    """Vertex coordinates of the k-simplices on the + side of cx refined by hs."""
    ref = refine_by_halfspace(cx, hs)
    return [ref.complex.coords(k, j) for j in np.flatnonzero(side_of_simplices(ref.complex, k, hs) > 0)]


class TestClipping:
    def test_empty_clip(self):
        tri = build_complex([[0, 0], [1, 0], [0, 1]], {2: [(0, 1, 2)]})
        assert _clip(tri, 2, HalfSpace((1, 0), 2.0)) == []

    def test_full_clip_returns_whole(self):
        tri = build_complex([[0, 0], [1, 0], [0, 1]], {2: [(0, 1, 2)]})
        pieces = _clip(tri, 2, HalfSpace((1, 0), 0.0))
        assert len(pieces) == 1
        assert np.allclose(pieces[0], tri.coords(2, 0))

    def test_corner_area(self):
        # analytic: the corner beyond x = 0.5 is a similar triangle of area 1/8
        tri = build_complex([[0, 0], [1, 0], [0, 1]], {2: [(0, 1, 2)]})
        pieces = _clip(tri, 2, HalfSpace((1, 0), 0.5))
        area = sum(abs(np.linalg.det((p[1:] - p[0]).T)) / 2 for p in pieces)
        assert area == pytest.approx(0.125, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_volume_additivity_random_planes(self, seed):
        rng = np.random.default_rng(seed)
        tri = build_complex([[0, 0], [1, 0], [0, 1]], {2: [(0, 1, 2)]})
        lam = rng.normal(size=2)
        if np.linalg.norm(lam) < 1e-3:
            return
        s = float(lam @ rng.uniform(0, 1, size=2))
        hs = HalfSpace(tuple(lam), s)
        hs_c = HalfSpace(tuple(-lam), -s)
        area = lambda ps: sum(abs(np.linalg.det((p[1:] - p[0]).T)) / 2 for p in ps)
        total = area(_clip(tri, 2, hs)) + area(_clip(tri, 2, hs_c))
        assert total == pytest.approx(0.5, abs=1e-10)

    def test_tet_clip_additivity(self, rng):
        tet = cube_mesh(1, 1, 1)
        for _ in range(10):
            lam = rng.normal(size=3)
            s = float(lam @ rng.uniform(0.2, 0.8, size=3))
            hs = HalfSpace(tuple(lam), s)
            hs_c = HalfSpace(tuple(-lam), -s)
            total = 0.0
            for pieces in (_clip(tet, 3, hs), _clip(tet, 3, hs_c)):
                total += sum(abs(np.linalg.det((p[1:] - p[0]).T)) / 6 for p in pieces)
            assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "lam, s, name",
    [((1.0, float("nan")), 0.5, "lam"), ((1.0, 0.0), float("nan"), "s"), ((float("inf"), 0.0), 0.5, "lam")],
)
def test_non_finite_halfspace_is_rejected(lam, s, name):
    with pytest.raises(ValueError, match=rf"half-space \w+ {name} is not finite"):
        HalfSpace(lam, s)


def test_edge_off_every_triangle_has_no_containing_top():
    cx = build_complex([[0, 0], [1, 0], [0, 1], [2, 2], [3, 2]], {1: [(3, 4)], 2: [(0, 1, 2)]})
    assert cx.simplices[1][0] == (3, 4)  # explicit edges come first
    assert cx.containing_tops(1, [1, 2, 3]).tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match=r"simplex \(1,0\) is not a face of any top simplex"):
        cx.containing_tops(1, [2, 0])
    with pytest.raises(ValueError, match=r"simplex \(0,3\) is not a face of any top simplex"):
        cx.containing_tops(0, 3)
    with pytest.raises(ValueError, match="not a face of any top simplex"):
        chain_as_current(Chain(cx, 1, {0: 1.0}))
    one = constant_form(cx, 1, [1.0, 1.0]).coef[0]
    loose = EvaluableCurrent(cx, 1, [1, 1], [1, 0], [one, one])
    with pytest.raises(ValueError, match=r"simplex \(1,0\) is not a face of any top simplex"):
        loose.evaluate(constant_form(cx, 1, [1.0, 0.0]))


class TestHalfspaceRefinement:
    def test_carry_commutes_with_boundary(self, grid44, rng):
        for _ in range(5):
            lam = rng.normal(size=2)
            s = float(lam @ rng.uniform(0.2, 0.8, size=2))
            ref = refine_by_halfspace(grid44, HalfSpace(tuple(lam), s))
            A = Chain(grid44, 2, {i: rng.normal() for i in range(grid44.n_simplices(2))})
            carried = ref.carry_chain(A)
            assert (carried.boundary() - ref.carry_chain(A.boundary())).mass() < 1e-10
            assert carried.mass() == pytest.approx(A.mass(), abs=1e-10)

    def test_3d_carry_commutes(self, rng):
        cx = cube_mesh(1, 1, 1)
        for _ in range(5):
            lam = rng.normal(size=3)
            s = float(lam @ rng.uniform(0.2, 0.8, size=3))
            ref = refine_by_halfspace(cx, HalfSpace(tuple(lam), s))
            A = Chain(cx, 3, {i: rng.normal() for i in range(6)})
            carried = ref.carry_chain(A)
            assert (carried.boundary() - ref.carry_chain(A.boundary())).mass() < 1e-10
            assert carried.mass() == pytest.approx(A.mass(), abs=1e-12)


class TestBarycentric:
    def test_triangle_becomes_six(self):
        tri = build_complex([[0, 0], [1, 0], [0, 1]], {2: [(0, 1, 2)]})
        fine = barycentric_refine(tri, 1).complex
        assert fine.n_simplices(2) == 6
        total = Chain(fine, 2, {i: 1.0 for i in range(6)}).mass()
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_zero_levels_identity(self, square):
        same = barycentric_refine(square, 0).complex
        assert same.n_simplices(2) == square.n_simplices(2)

    def test_volume_preserved_per_skeleton(self, square):
        ref = barycentric_refine(square, 1)
        for k in (1, 2):
            for idx in range(square.n_simplices(k)):
                pieces = np.flatnonzero(ref.parent[k] == idx)
                got = sum(ref.complex.volume(k, j) for j in pieces)
                assert got == pytest.approx(square.volume(k, idx), abs=1e-10)

    def test_diameter_shrink_factor(self, square):
        ref = barycentric_refine(square, 1)

        def diam(cx, k, i):
            C = cx.coords(k, i)
            return max(
                np.linalg.norm(C[a] - C[b])
                for a in range(k + 1)
                for b in range(a + 1, k + 1)
            )

        bound = 2.0 / 3.0 * max(diam(square, 2, i) for i in range(2))
        worst = max(diam(ref.complex, 2, i) for i in range(ref.complex.n_simplices(2)))
        assert worst <= bound + 1e-12

    def test_boundary_commutes(self, square, rng):
        ref = barycentric_refine(square, 2)
        A = Chain(square, 2, {0: rng.normal(), 1: rng.normal()})
        carried = ref.carry_chain(A)
        assert (carried.boundary() - ref.carry_chain(A.boundary())).mass() < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_dd_zero_on_random_meshes(seed):
    # float regrouping leaves ulp-size residue, so assert mass below tolerance
    rng = np.random.default_rng(seed)
    nx, ny = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    cx = grid_mesh(nx, ny)
    A = Chain(cx, 2, {i: rng.normal() for i in range(cx.n_simplices(2))})
    assert A.boundary().boundary().mass() < 1e-12
    B = Chain(cx, 2, {i: float(rng.integers(-3, 4)) for i in range(cx.n_simplices(2))})
    assert B.boundary().boundary().is_zero()


def test_segment_mesh_boundary():
    cx = segment_mesh(4)
    A = Chain(cx, 1, {i: 1.0 for i in range(4)})
    b = A.boundary()
    assert len(b.coeffs) == 2
    assert b.mass() == pytest.approx(2.0)


@pytest.mark.parametrize("make", [lambda: grid_mesh(4, 3), lambda: cube_mesh(2, 2, 2), lambda: koch_prefractal(2).complex])
def test_tuple_lists_equal_array_rows(make):
    cx = make()
    assert sorted(cx.simplices) == sorted(cx.arrays) == list(range(cx.top_degree + 1))
    assert all(k in cx.simplices for k in cx.arrays) and cx.top_degree + 1 not in cx.simplices
    assert cx.n_simplices(cx.top_degree + 1) == 0
    for k in reversed(sorted(cx.simplices)):
        assert cx.n_simplices(k) == len(cx.arrays[k])
        assert cx.simplices[k] == [tuple(row) for row in cx.arrays[k].tolist()]
        assert all(type(v) is int for s in cx.simplices[k] for v in s)
    assert cx.simplices == {k: [tuple(row) for row in a.tolist()] for k, a in cx.arrays.items()}


def test_koch_level5_complex_keeps_no_tuple_lists():
    points, tris, _ = _koch_build(5)
    gc.collect()
    tracemalloc.start()
    try:
        cx = build_complex(points, {2: tris}, check_overlap=False)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        for k in cx.simplices:
            cx.simplices[k]
        listed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert listed - kept >= 0.6e6, (kept, listed)
