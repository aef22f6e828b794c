"""The float filter in front of the exact overlap test: soundness on near-degenerate pairs, and its share."""

import numpy as np
import pytest
from test_overlap_sweep import _folded_pair, _same_first_pair

from roughbody import mesh
from roughbody.bodies import _koch_build
from roughbody.generate import cube_mesh, grid_mesh
from roughbody.simplex_lp import (
    FLOAT_GAP,
    certainly_disjoint,
    facet_signs,
    float_image,
    simplex_interiors_intersect,
)


def _filter(V, W):
    """The filter's verdict on the pair of simplices with vertex rows V and W."""
    Y = float_image(np.vstack([V, W]))
    C = np.moveaxis(np.stack([Y[: len(V)], Y[len(V) :]]), 0, -1)  # (vertex, coordinate, simplex)
    s = facet_signs(C)
    return bool(certainly_disjoint(C[..., :1], s[:, :1], C[..., 1:], s[:, 1:])[0])


def _nudged(p, ulps, toward):
    """p moved by `ulps` units in the last place per coordinate, up where `toward` is positive, else down."""
    for _ in range(ulps):
        p = np.nextafter(p, np.where(toward > 0, np.inf, -np.inf))
    return p


def _near_degenerate_pairs(n, rng):
    """A random n-simplex and a neighbour across its facet 0 whose apex lies near that facet's hyperplane.

    The apex is a random point of the facet, then moved by 0, +-1 or +-4
    ulps per coordinate, or by +-1e-12 of the simplex's size along the
    facet normal; a last apex lies far beyond the facet.
    """
    A = rng.normal(size=(n + 1, n))
    facet = A[1:]
    normal = np.linalg.svd(facet[1:] - facet[0])[2][-1] if n > 1 else np.ones(1)
    normal *= np.sign(normal @ (facet[0] - A[0]))  # pointing away from A
    on = rng.dirichlet(np.ones(n)) @ facet
    apexes = [_nudged(on, u, rng.choice([-1.0, 1.0], n)) for u in (0, 1, 4)]
    apexes += [_nudged(on, u, s * normal) for u in (1, 4) for s in (-1.0, 1.0)]
    apexes += [on + s * 1e-12 * np.abs(A).max() * normal for s in (-1.0, 1.0)]
    apexes.append(on + normal)
    return [(A, np.vstack([facet, apex])) for apex in apexes]


@pytest.mark.parametrize("e", [-40, 0, 40])
@pytest.mark.parametrize("n", [2, 3])
def test_filter_never_calls_an_overlapping_pair_disjoint(n, e):
    rng = np.random.default_rng(100 * n + e)
    decided = 0
    for _ in range(40):
        for A, B in _near_degenerate_pairs(n, rng):
            for V, W in ((A, B), (A[::-1], B[::-1])):  # both vertex orders
                V, W = V * 2.0**e, W * 2.0**e
                if _filter(V, W):
                    decided += 1
                    assert not simplex_interiors_intersect(V, W), (V, W)
    # at least the far apexes, neighbours across a shared facet, are decided in floats
    assert decided >= 2 * 40


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_facet_neighbours_are_decided_in_floats(n):
    # the shared vertices give exact zeros with a zero bound, in either orientation of each simplex
    V, S = _folded_pair(n, -1.0)
    V = np.asarray(V)
    for rows in (S[:2], [S[0][::-1], S[1]], [S[0], S[1][::-1]]):
        assert _filter(V[rows[0]], V[rows[1]])


@pytest.mark.parametrize("e", [-500, 500])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_facet_neighbour_folded_by_1e_12_at_extreme_scales(n, e):
    # without its power-of-two scaling the filter would overflow at 2^500 and underflow at 2^-500
    rng = np.random.default_rng(n)
    for eps, overlaps in ((1e-12, True), (-1e-12, False), (-1.0, False)):
        V, S = _folded_pair(n, eps)
        for _ in range(4):
            S = [list(rng.permutation(row)) for row in S]
            assert (_same_first_pair(V, S, e) is not None) == overlaps


def test_float_image_drops_rows_it_cannot_bound():
    X = np.array([[1.0, 1.0], [0.0, 0.5], [FLOAT_GAP / 4, 0.5], [2.0**-1074, 0.25]]) * 2.0**100
    Y = float_image(X)
    # rows 1 and 2 differ by less than the gap in x; row 3 falls below the normal range when scaled
    assert np.isnan(Y).any(axis=1).tolist() == [False, True, True, True]
    assert Y[0].tolist() == [0.5, 0.5]


def _box_meeting_pairs(C):
    """Every pair a < b of simplices, vertex coordinates C[a] and C[b], whose bounding boxes meet."""
    lo, hi = C.min(axis=1), C.max(axis=1)
    a, b = [], []
    for i in range(len(C) - 1):
        meet = 1 + i + np.flatnonzero(((lo[i + 1 :] <= hi[i]) & (hi[i + 1 :] >= lo[i])).all(axis=1))
        a += [i] * len(meet)
        b += meet.tolist()
    return np.array(a), np.array(b)


def _mesh(name):
    """Vertices and top simplices of the Koch level-5 body, a jittered 24 x 24 grid or a 3^3 cube."""
    if name == "koch5":
        points, tris, _ = _koch_build(5)
        return np.asarray(points, dtype=float), np.asarray(tris)
    if name == "grid24-jittered":
        grid = grid_mesh(24, 24)
        return grid.vertices + np.random.default_rng(24).uniform(-0.1, 0.1, grid.vertices.shape) / 24, grid.arrays[2]
    cube = cube_mesh(3, 3, 3)
    return cube.vertices, cube.arrays[3]


@pytest.mark.parametrize("name", ["koch5", "grid24-jittered", "cube3"])
def test_at_most_two_percent_of_box_meeting_pairs_reach_the_exact_test(name, monkeypatch):
    V, S = _mesh(name)
    a, b = _box_meeting_pairs(V[S])
    C = np.ascontiguousarray(np.moveaxis(float_image(V)[S], 0, -1))
    signs = facet_signs(C)
    undecided = ~certainly_disjoint(C.take(a, -1), signs.take(a, -1), C.take(b, -1), signs.take(b, -1))
    assert undecided.sum() <= 0.02 * len(a), (int(undecided.sum()), len(a))
    # the sweep sends exactly those pairs on: none of them overlaps, so it tests every one
    calls = []
    monkeypatch.setattr(mesh, "simplex_interiors_intersect", lambda A, B: calls.append(1) or False)
    assert mesh.first_overlapping_pair(V, S) is None
    assert len(calls) == undecided.sum()
