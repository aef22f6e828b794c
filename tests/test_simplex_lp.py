import numpy as np
import pytest
from highs_oracle import overlap_depth
from hypothesis import given, settings
from hypothesis import strategies as st

from roughbody.simplex_lp import simplex_interiors_intersect, solve_lp


def test_textbook_lp():
    # min -x - y  s.t. x + y <= 1 (slack form), x, y >= 0
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([-1.0, -1.0, 0.0])
    res = solve_lp(c, A, b, basis=[2])
    assert res.status == "optimal"
    assert res.value == pytest.approx(-1.0)


def test_degenerate_problem_terminates():
    # classic cycling-prone example; Bland's rule must terminate
    A = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    res = solve_lp(c, A, b, basis=[4, 5, 6])
    assert res.status == "optimal"
    assert res.value == pytest.approx(-0.05)


def test_infeasible_detected():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = solve_lp(np.zeros(2), A, b)
    assert res.status == "infeasible"


def test_phase1_feasible():
    A = np.array([[1.0, 2.0, 1.0], [1.0, -1.0, 0.0]])
    b = np.array([4.0, 1.0])
    res = solve_lp(np.zeros(3), A, b)
    assert res.status == "optimal"
    x = res.x
    assert np.allclose(A @ x, b, atol=1e-8)
    assert (x >= -1e-10).all()


def test_random_lps_against_scipy(rng):
    from scipy.optimize import linprog

    from roughbody.errors import LPNumericalFailure

    for _ in range(25):
        m, n = int(rng.integers(2, 5)), int(rng.integers(5, 9))
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.1, 1.0, size=n)
        b = A @ x0  # feasible by construction
        c = rng.normal(size=n)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        try:
            ours = solve_lp(c, A, b)
        except LPNumericalFailure:
            assert ref.status == 3  # unbounded
            continue
        assert ref.success
        assert ours.value == pytest.approx(ref.fun, abs=1e-7)


def test_interior_intersection_cases():
    A = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    B = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert not simplex_interiors_intersect(A, B)  # shared edge only
    C = np.array([[0.1, 0.4], [0.9, 0.4], [0.5, 1.5]])
    assert simplex_interiors_intersect(A, C)
    D = np.array([[5.0, 5.0], [6.0, 5.0], [5.0, 6.0]])
    assert not simplex_interiors_intersect(A, D)
    # crossing segments meet in an interior point
    S1 = np.array([[0.0, 0.0], [1.0, 1.0]])
    S2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert simplex_interiors_intersect(S1, S2)
    S3 = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert not simplex_interiors_intersect(S1, S3)  # touch at a vertex


def test_unbounded_raises():
    from roughbody.errors import LPNumericalFailure

    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    c = np.array([-1.0, 0.0])
    with pytest.raises(LPNumericalFailure):
        solve_lp(c, A, b)


DEGREES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]


def _random_pair(rng, n, k, trial):
    """Two k-simplices in R^n; grid coordinates make touching and coplanar cases common."""
    if trial % 2:
        V, W = rng.normal(size=(k + 1, n)), rng.normal(size=(k + 1, n))
    else:
        V, W = rng.integers(-2, 3, size=(2, k + 1, n)) / 2.0
    if trial % 3 == 0:
        W[0] = V[0]  # shared vertex
    if trial % 5 == 0:
        W[:k] = V[:k]  # shared facet
    if trial % 4 == 1:
        # W centred on an interior point of V: the interiors meet
        d = rng.normal(size=(k + 1, n))
        W = rng.dirichlet(np.ones(k + 1)) @ V + d - d.mean(axis=0)
        if 2 * k < n:
            V[:, -1] = W[:, -1] = 0.0  # segments in R^3 meet only when coplanar
    if trial % 7 == 0 and k < n:
        V[:, -1] = W[:, -1] = 0.0  # coplanar or collinear
    return V, W


@pytest.mark.parametrize("n,k", DEGREES)
def test_overlap_matches_lp_depth_oracle(n, k):
    rng = np.random.default_rng(100 * n + k)
    clear = {True: 0, False: 0}
    for trial in range(120):
        V, W = _random_pair(rng, n, k, trial)
        depth = overlap_depth(V, W)
        if abs(depth) <= 1e-9:
            continue
        assert simplex_interiors_intersect(V, W) == (depth > 0), (V.tolist(), W.tolist(), depth)
        assert simplex_interiors_intersect(W, V) == (depth > 0)
        clear[depth > 0] += 1
    assert min(clear.values()) >= 10  # both answers were exercised


def test_touching_is_not_overlap():
    # depth exactly 0: a shared facet, a shared vertex, and a vertex on a facet
    tet = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for other in (
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -1]],
        [[0.0, 0, 0], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [[0.25, 0.25, 0], [1, 1, -1], [0, 1, -1], [1, 0, -1]],
    ):
        assert not simplex_interiors_intersect(tet, np.array(other))
    # collinear segments end to end in R^3, and overlapping along the same line
    S = np.array([[0.0, 0, 0], [1, 1, 1]])
    assert not simplex_interiors_intersect(S, S + 1.0)
    assert simplex_interiors_intersect(S, S + 0.5)


@pytest.mark.parametrize("eps", [1e-7, 1e-9, 1e-12])
def test_shallow_overlap_detected(eps):
    # a triangle folded eps across the edge it shares with its neighbour
    T1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    T2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, eps]])
    assert simplex_interiors_intersect(T1, T2)
    assert not simplex_interiors_intersect(T1, T2 * [1.0, -1.0])


_coord = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) > 1e-100),
)


@settings(max_examples=200, deadline=None)
@given(
    nk=st.sampled_from(DEGREES),
    data=st.data(),
    exponent=st.integers(-60, 60),
)
def test_power_of_two_scaling_invariance(nk, data, exponent):
    n, k = nk
    rows = st.lists(st.lists(_coord, min_size=n, max_size=n), min_size=k + 1, max_size=k + 1)
    V, W = np.array(data.draw(rows)), np.array(data.draw(rows))
    if data.draw(st.booleans()):
        W[:k] = V[:k]
    s = 2.0**exponent
    assert simplex_interiors_intersect(V * s, W * s) == simplex_interiors_intersect(V, W)
