"""Array-pass refinement against the per-simplex reference, the splitter's pieces, and sliver and scale robustness."""

from itertools import combinations, permutations, product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_refinement import (
    perm_parity,
    reference_barycentric_once,
    reference_build,
    reference_refine_by_halfspace,
)

from roughbody.bodies import koch_prefractal
from roughbody.chains import Chain, restrict
from roughbody.forms import _integral_abs_affine, coboundary
from roughbody.generate import cube_mesh, grid_mesh, random_chain, random_cochain, random_halfspace
from roughbody.mesh import (
    HalfSpace,
    _row_codes,
    _split_ids,
    barycentric_refine,
    build_complex,
    first_overlapping_pair,
    kvectors,
    refine_by_halfspace,
    simplex_volumes,
    sort_parity,
)
from roughbody.multivec import simple_from_columns
from roughbody.simplex_lp import simplex_interiors_intersect

MESHES = {
    "grid12": lambda: grid_mesh(12, 12),
    "cube3": lambda: cube_mesh(3, 3, 3),
    "koch4": lambda: koch_prefractal(4).complex,
}


def assert_same_tables(cx, ref):
    """Bitwise vertices; identical simplex tuples (order included), index, incidence, face parents."""
    assert cx.vertices.shape == ref.vertices.shape
    assert cx.vertices.tobytes() == ref.vertices.tobytes()
    assert cx.simplices == ref.simplices
    assert cx.index == ref.index
    assert cx.incidence == ref.incidence
    assert {k: p.tolist() for k, p in cx.face_parent.items()} == ref.face_parent


@pytest.mark.parametrize("name", sorted(MESHES))
def test_halfspace_refinement_matches_reference(name):
    cx = MESHES[name]()
    rng = np.random.default_rng(5)
    lo, hi = cx.vertices.min(axis=0), cx.vertices.max(axis=0)
    for _ in range(20):
        lam = rng.normal(size=cx.dim)
        hs = HalfSpace(tuple(lam), float(lam @ rng.uniform(lo, hi)))
        got = refine_by_halfspace(cx, hs)
        want = reference_refine_by_halfspace(cx, hs)
        assert_same_tables(got.complex, want)
        assert got.carry == want.carry


@pytest.mark.parametrize("make", [lambda: grid_mesh(3, 3), lambda: cube_mesh(1, 1, 1)])
def test_barycentric_refinement_matches_reference(make):
    cx = make()
    carry = {k: [[i] for i in range(cx.n_simplices(k))] for k in cx.simplices}
    level = cx
    for levels in (1, 2):
        step = reference_barycentric_once(level)
        carry = {k: [[j for mid in row for j in step.carry[k][mid]] for row in rows] for k, rows in carry.items()}
        got = barycentric_refine(cx, levels)
        assert_same_tables(got.complex, step)
        assert got.carry == carry
        level = got.complex


@pytest.mark.parametrize("name", ["grid24", "cube3", "koch5"])
def test_build_complex_matches_reference(name):
    cx = {
        "grid24": lambda: grid_mesh(24, 24),
        "cube3": lambda: cube_mesh(3, 3, 3),
        "koch5": lambda: koch_prefractal(5).complex,
    }[name]()
    top = {cx.top_degree: cx.simplices[cx.top_degree]}
    assert_same_tables(build_complex(cx.vertices, top, check_overlap=False), reference_build(cx.vertices, top))


def test_explicit_degrees_keep_their_order_and_orientation():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    edges = [(2, 0), (1, 0), (1, 0)]  # the diagonal first, then one edge given twice
    cx = build_complex(verts, {1: edges, 2: [(0, 1, 2), (0, 2, 3)]})
    assert cx.simplices[1][:2] == [(2, 0), (1, 0)]
    assert_same_tables(cx, reference_build(verts, {1: edges, 2: [(0, 1, 2), (0, 2, 3)]}))
    with pytest.raises(ValueError, match="opposite orientation"):
        build_complex(verts, {2: [(0, 1, 2), (1, 0, 2)]})


def test_sort_parity_matches_inversion_count():
    for n in range(1, 5):
        perms = list(permutations(range(n)))
        got = sort_parity(np.array(perms))
        assert got.tolist() == [perm_parity(p, tuple(range(n))) for p in perms]


# -- the half-space splitter --------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_split_pieces_tile_each_side(k):
    # every sign pattern with both signs, every vertex order, random interleavings of the
    # vertex and crossing ids, each on a random full-dimensional simplex in R^k (a jittered
    # unit simplex: on a sliver the two volume sums would differ by its conditioning)
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(k)
    for signs in product((-1, 0, 1), repeat=k + 1):
        if 1 not in signs or -1 not in signs:
            continue
        n_cut = sum(signs[a] * signs[b] < 0 for a, b in combinations(range(k + 1), 2))
        for perm in permutations(range(k + 1)):
            for _ in range(3):
                ids = rng.permutation(k + 1 + n_cut).tolist()
                vids = [sorted(ids[: k + 1])[p] for p in perm]
                fresh = iter(ids[k + 1 :])
                X = dict(zip(vids, np.vstack([np.zeros(k), np.eye(k)]) + rng.uniform(-0.2, 0.2, (k + 1, k))))
                f = dict(zip(vids, np.array(signs) * rng.uniform(0.5, 2.0, size=k + 1)))
                cut = {}

                def crossing(u, v):
                    key = (min(u, v), max(u, v))
                    if key not in cut:
                        cut[key] = next(fresh)
                        X[cut[key]] = X[u] + f[u] / (f[u] - f[v]) * (X[v] - X[u])
                    return cut[key]

                for side, pieces in zip((1, -1), _split_ids(tuple(vids), [f[v] for v in vids], crossing)):
                    allowed = {v for v in vids if f[v] * side >= 0} | set(cut.values())
                    assert all(len(set(p)) == k + 1 and set(p) <= allowed for p in pieces)
                    C = np.array([[X[v] for v in p] for p in pieces])
                    for a in range(len(C)):
                        for b in range(a + 1, len(C)):
                            assert not simplex_interiors_intersect(C[a], C[b])
                    pts = np.array([X[v] for v in sorted(allowed)])
                    want = float(np.ptp(pts)) if k == 1 else ConvexHull(pts).volume
                    assert abs(simplex_volumes(C).sum() - want) <= 1e-12 * want


def test_cut_cube_mesh_stays_conforming():
    cx = cube_mesh(2, 2, 2)
    rng = np.random.default_rng(11)
    for _ in range(3):
        cx = refine_by_halfspace(cx, random_halfspace(rng, cx)).complex
    assert first_overlapping_pair(cx.vertices, cx.arrays[3]) is None
    cofaces = np.bincount(cx.incidence_arrays(3)[0].ravel(), minlength=cx.n_simplices(2))
    C = cx.all_coords(2)  # a crossing on the cube's boundary keeps that coordinate exactly
    on_boundary = ((C == 0.0).all(axis=1) | (C == 1.0).all(axis=1)).any(axis=1)
    assert (cofaces[on_boundary] == 1).all()
    assert (cofaces[~on_boundary] == 2).all()


@given(st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_small_cap_keeps_its_mass(e):
    # the cap x >= 1 - delta at vertex e_1 of the unit triangle and tetrahedron; a piece is
    # floored by its own longest edge, and the plane stays off the VALUE_SNAP band for e <= 30
    delta = 2.0**-e
    for n, want in ((2, delta**2 / 2), (3, delta**3 / 6)):
        cx = build_complex(np.vstack([np.zeros(n), np.eye(n)]), {n: [tuple(range(n + 1))]})
        hs = HalfSpace((1.0,) + (0.0,) * (n - 1), 1.0 - delta)
        got = restrict(Chain(cx, n, {0: 1.0}), hs).mass()
        assert abs(got - want) <= 1e-12 * want


# -- slivers ---------------------------------------------------------------


def test_sliver_area_is_half_the_determinant():
    C = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 3e-8]])
    tri = build_complex(C, {2: [(0, 1, 2)]})
    want = abs(np.linalg.det(C[1:] - C[0])) / 2
    assert abs(tri.volume(2, 0) - want) <= 1e-12 * want


def test_sliver_integral_of_abs_affine():
    # |x - a| over the triangle (0,0), (1,0), (a,h) integrates to h (a^2 + (1-a)^2) / 6
    a, h = 0.3, 3e-8
    C = np.array([[0.0, 0.0], [1.0, 0.0], [a, h]])
    vol = build_complex(C, {2: [(0, 1, 2)]}).volume(2, 0)
    got = _integral_abs_affine(C, C[:, 0] - a, vol)
    want = h * (a**2 + (1 - a) ** 2) / 6
    assert abs(got - want) <= 1e-12 * want


def test_thin_triangle_above_the_floor_is_built_and_subdivided_whole():
    # area / (longest edge)^2 = 3e-12, above DEGENERACY_TOL = 1e-12
    tri = build_complex([[0.0, 0.0], [1.0, 0.0], [0.5, 6e-12]], {2: [(0, 1, 2)]})
    ref = barycentric_refine(tri, 1)
    assert len(ref.carry[2][0]) == 6
    area = Chain(ref.complex, 2, {j: 1.0 for j in ref.carry[2][0]}).mass()
    assert abs(area - 3e-12) <= 1e-12 * 3e-12


def test_mass_is_conserved_through_a_near_vertex_cut():
    cx = cube_mesh(2, 2, 2)
    body = Chain(cx, 3, {i: 1.0 for i in range(cx.n_simplices(3))})
    ref = refine_by_halfspace(cx, HalfSpace((1.0, 0.0, 0.0), 0.5 + 3e-9))
    assert abs(ref.carry_chain(body).mass() - 1.0) <= 1e-12


@given(st.integers(-40, 40))
@settings(max_examples=30, deadline=None)
def test_restricted_mass_is_scale_invariant(e):
    a = 2.0**e
    cube = cube_mesh(2, 2, 2)
    cx = build_complex(a * cube.vertices, {3: cube.simplices[3]}, check_overlap=False)
    body = Chain(cx, 3, {i: 1.0 for i in range(cx.n_simplices(3))})
    got = restrict(body, HalfSpace((1.0, 0.0, 0.0), a * (0.5 + 3e-6))).mass() / a**3
    assert abs(got - (0.5 - 3e-6)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kvectors_match_simple_from_columns(n):
    rng = np.random.default_rng(n)
    for k in range(n + 1):
        C = rng.normal(size=(5, k + 1, n))
        want = [simple_from_columns((c[1:] - c[0]).T) for c in C]
        assert np.allclose(kvectors(C), want, rtol=1e-12, atol=1e-14)
        assert np.allclose(simplex_volumes(C), np.linalg.norm(want, axis=1) / factorial(k), rtol=1e-12)


def test_row_codes_without_integer_room():
    # with nv ** w past int64 the codes come from a joint lexicographic ranking instead
    rows = np.array([[3, 1], [1, 3], [3, 1], [2, 0]])
    same = (rows[:, None] == rows[None, :]).all(axis=2)
    for nv in (4, 2**40):
        codes = np.concatenate(_row_codes(rows[:2], rows[2:], nv=nv))
        assert np.array_equal(codes[:, None] == codes[None, :], same)


@pytest.mark.parametrize("make", [lambda: grid_mesh(4, 4), lambda: cube_mesh(2, 1, 1)])
def test_boundary_and_coboundary_match_the_incidence_lists(make):
    # the array forms must sum in the order of the list-form loops, so results agree bitwise
    cx = make()
    rng = np.random.default_rng(3)
    for k in range(1, cx.top_degree + 1):
        # unit coefficients cancel exactly on shared faces, which drops and re-inserts keys
        for T in (random_chain(cx, k, rng), Chain(cx, k, {i: 1.0 for i in range(cx.n_simplices(k))})):
            want: dict[int, float] = {}
            for idx, a in T.coeffs.items():
                for fidx, sgn in cx.incidence[k][idx]:
                    v = want.get(fidx, 0.0) + sgn * a
                    if v == 0.0:
                        want.pop(fidx, None)
                    else:
                        want[fidx] = v
            assert list(T.boundary().coeffs.items()) == list(want.items())
        X = random_cochain(cx, k - 1, rng)
        want = {}
        for idx, row in enumerate(cx.incidence[k]):
            acc = 0.0
            for fidx, sgn in row:
                if X.coeffs.get(fidx):
                    acc += sgn * X.coeffs[fidx]
            if acc != 0.0:
                want[idx] = acc
        assert list(coboundary(X).coeffs.items()) == list(want.items())
