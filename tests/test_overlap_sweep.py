"""The one-image overlap sweep against the pair-at-a-time reference, and its memory."""

import tracemalloc

import numpy as np
import pytest
from reference_overlap import reference_first_overlapping_pair

from roughbody.bodies import _koch_build
from roughbody.generate import cube_mesh, grid_mesh
from roughbody.mesh import PAIR_BLOCK, first_overlapping_pair

SCALES = [-40, 0, 40]


def _same_first_pair(V, S, e):
    V = np.asarray(V, dtype=float) * 2.0**e
    S = np.asarray(S)
    got = first_overlapping_pair(V, S)
    assert got == reference_first_overlapping_pair(V[S])
    return got


def _jittered(kind, seed):
    """Vertices of a jittered Kuhn grid or cube and its top simplices, plus one planted defect.

    seed % 3 picks the defect: none, an extra simplex on random vertices,
    or one vertex moved by a whole cell (folding the simplices around it).
    """
    rng = np.random.default_rng(seed)
    cx, h = (grid_mesh(7, 7), 1 / 7) if kind == "grid" else (cube_mesh(2, 2, 2), 1 / 2)
    V = cx.vertices + rng.uniform(-0.1, 0.1, cx.vertices.shape) * h
    S = cx.arrays[cx.top_degree]
    if seed % 3 == 1:
        S = np.insert(S, rng.integers(len(S)), rng.choice(len(V), S.shape[1], replace=False), axis=0)
    elif seed % 3 == 2:
        V[rng.integers(len(V))] += rng.choice([-1.0, 1.0], V.shape[1]) * h
    return V, S


@pytest.mark.parametrize("e", SCALES)
@pytest.mark.parametrize("kind", ["grid", "cube"])
def test_jittered_meshes_with_planted_overlaps(kind, e):
    found = [_same_first_pair(*_jittered(kind, seed), e) for seed in range(9)]
    assert found[0::3] == [None] * 3  # a jitter of a tenth of a cell keeps the mesh valid
    assert all(pair is not None for pair in found[1::3])


def _folded_pair(n, eps):
    """The unit n-simplex and a neighbour on its facet opposite the origin, with apex (1 - eps) c.

    c is the facet's barycentre: eps > 0 folds the neighbour over the unit
    simplex, eps < 0 puts its apex on the far side of the facet.  Two more
    unit simplices far away give the sweep other pairs.
    """
    c = np.full(n, 1.0 / n)  # barycentre of the shared facet
    unit = np.vstack([np.zeros(n), np.eye(n)])
    V = np.vstack([unit, c * (1.0 - eps), unit + 5.0, unit - 5.0])
    S = [list(range(n + 1)), list(range(1, n + 2)), list(range(n + 2, 2 * n + 3)), list(range(2 * n + 3, 3 * n + 4))]
    return V, S


@pytest.mark.parametrize("e", SCALES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_facet_neighbour_folded_by_1e_12(n, e):
    rng = np.random.default_rng(n)
    for eps, overlaps in ((1e-12, True), (-1e-12, False), (-1.0, False)):
        V, S = _folded_pair(n, eps)
        for _ in range(4):  # vertex orders within the rows decide the facet orders
            S = [list(rng.permutation(row)) for row in S]
            assert (_same_first_pair(V, S, e) is not None) == overlaps


@pytest.mark.parametrize("e", SCALES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_apex_on_the_shared_facet_plane(n, e):
    # the neighbour's apex is the facet's barycentre: a flat simplex inside the facet
    V, S = _folded_pair(n, 0.0)
    _same_first_pair(V, S, e)
    # its apex beyond the facet's boundary, in its hyperplane
    V[n + 1] = np.eye(n)[0] * 2.0 - (n > 1) * np.eye(n)[-1]
    _same_first_pair(V, S, e)
    # both apexes in that hyperplane: two flat simplices
    V[0], V[n + 1] = V[n + 1], np.full(n, 1.0 / n)
    found = _same_first_pair(V, S, e)
    if n == 2:
        assert found is not None  # one flat triangle's segment inside the other's


@pytest.mark.parametrize("e", SCALES)
@pytest.mark.parametrize("flat", [True, False])
def test_triangles_in_r3(flat, e):
    # k < n; flat surfaces make every pair coplanar
    found = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        cx = grid_mesh(6, 6)
        z = np.zeros(len(cx.vertices)) if flat else rng.uniform(-0.05, 0.05, len(cx.vertices))
        V = np.column_stack([cx.vertices + rng.uniform(-0.02, 0.02, cx.vertices.shape), z])
        S = cx.arrays[2]
        if seed % 2:
            extra = rng.choice(len(V), 3, replace=False)
            if not flat:
                V = np.vstack([V, V[extra].mean(axis=0) + [0, 0, 0.3], V[extra].mean(axis=0) - [0, 0, 0.3]])
                extra = [extra[0], len(V) - 2, len(V) - 1]  # a triangle standing through the surface
            S = np.vstack([S, extra])
        found.append(_same_first_pair(V, S, e))
    assert found[0::2] == [None] * 3
    assert all(pair is not None for pair in found[1::2])


@pytest.mark.parametrize("e", SCALES)
def test_edges_of_a_grid(e):
    # segments in R^2, k < n, with a planted crossing edge
    cx = grid_mesh(5, 5)
    assert _same_first_pair(cx.vertices, cx.arrays[1], e) is None
    assert _same_first_pair(cx.vertices, np.vstack([cx.arrays[1], [[0, len(cx.vertices) - 1]]]), e) is not None


def test_more_pairs_than_one_block():
    # a roof above a floor of spaced segments is a candidate of every one of them by x, so the
    # sweep's pairs span several blocks; a last segment crosses the floor's final segment
    m = PAIR_BLOCK + 7
    x = np.arange(2 * m, dtype=float)
    V = np.vstack([np.column_stack([x, np.zeros(2 * m)]), [[0, 1.0], [2 * m, 1.0], [2 * m - 1.5, -0.5], [2 * m - 1.5, 0.5]]])
    floor = np.arange(2 * m).reshape(m, 2)
    S = np.vstack([[2 * m, 2 * m + 1], floor, [2 * m + 2, 2 * m + 3]])
    for rows in (S, S[::-1]):
        assert _same_first_pair(V, rows, 0) is not None
        assert _same_first_pair(V, rows[rows[:, 0] != 2 * m + 2], 0) is None


def test_peak_memory_per_simplex():
    # a fixed allowance for one block's numpy arrays plus 300 bytes per simplex, which on
    # Koch level 5 (4602 triangles) is 1.64 MB; Koch level 4 keeps the check under a second
    points, tris, _ = _koch_build(4)
    V, S = np.asarray(points, dtype=float), np.asarray(tris)
    tracemalloc.start()
    try:
        assert first_overlapping_pair(V, S) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * PAIR_BLOCK + 300 * len(S), (peak, len(S))
