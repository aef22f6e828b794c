import numpy as np
import pytest

from roughbody.netsimplex import min_cost_circulation


def _random_graph(rng, integral):
    """Random arcs plus a star to the root (the last node), bounds and costs."""
    n = int(rng.integers(2, 25))
    root = n - 1
    ends = rng.integers(0, n, size=(int(rng.integers(0, 50)), 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    tail, head = list(ends[:, 0]), list(ends[:, 1])
    star = []
    for j in range(n - 1):
        star.append(len(tail))
        pair = (j, root) if rng.random() < 0.5 else (root, j)
        tail.append(pair[0])
        head.append(pair[1])
    a = len(tail)
    if integral:  # many ties: degenerate pivots
        cap = rng.integers(1, 3, a).astype(float)
        cost = rng.integers(-2, 3, a).astype(float)
    else:
        cap = rng.uniform(0.1, 2.0, a)
        cost = rng.normal(size=a)
    return np.array(tail), np.array(head), cap, cost, star


@pytest.mark.parametrize("integral", [False, True])
def test_random_circulations_against_highs(integral):
    from scipy.optimize import linprog

    rng = np.random.default_rng(11)
    for _ in range(60):
        tail, head, cap, cost, star = _random_graph(rng, integral)
        n, a = len(star) + 1, tail.size
        res = min_cost_circulation(tail, head, cap, cost, star)
        x, pi = res.flow, res.potential
        N = np.zeros((n, a))
        N[tail, np.arange(a)] += 1.0
        N[head, np.arange(a)] -= 1.0
        assert np.abs(N @ x).max() <= 1e-12
        assert np.all(np.abs(x) <= cap + 1e-12)
        # complementary slackness: a positive reduced cost holds the arc at
        # its lower bound, a negative one at its upper bound
        rc = cost - pi[tail] + pi[head]
        assert np.all(x[rc > 1e-9] <= -cap[rc > 1e-9] + 1e-12)
        assert np.all(x[rc < -1e-9] >= cap[rc < -1e-9] - 1e-12)
        ref = linprog(cost, A_eq=N, b_eq=np.zeros(n), bounds=np.c_[-cap, cap], method="highs")
        assert cost @ x == pytest.approx(ref.fun, abs=1e-9)


def test_negative_cycle_saturates_its_tightest_arc():
    # cycle 0 -> 1 -> root -> 0 with unit costs -1, 0, 0 and capacities 3, 1, 2
    res = min_cost_circulation([0, 1, 2], [1, 2, 0], [3.0, 1.0, 2.0], [-1.0, 0.0, 0.0], star=[2, 1])
    assert res.flow.tolist() == [1.0, 1.0, 1.0]
    assert res.pivots == 1


def test_zero_costs_need_no_pivot():
    res = min_cost_circulation([0, 1], [1, 0], [1.0, 1.0], [0.0, 0.0], star=[0])
    assert res.pivots == 0
    assert not res.flow.any()

