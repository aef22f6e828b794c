import numpy as np
import pytest

from roughbody import netsimplex
from roughbody.errors import LPNumericalFailure
from roughbody.netsimplex import min_cost_circulation


def _random_graph(rng, integral, nodes=(2, 25), arcs=(0, 50)):
    """Random arcs plus a star to the root (the last node), bounds and costs."""
    n = int(rng.integers(*nodes))
    root = n - 1
    ends = rng.integers(0, n, size=(int(rng.integers(*arcs)), 2))
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


@pytest.mark.parametrize("integral", [False, True])
def test_candidate_list_overflow_against_highs(integral):
    # more arcs are violated at the start than one pricing pass keeps, so the
    # candidate list is refilled many times before the optimum
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    K = netsimplex.CANDIDATES
    rng = np.random.default_rng(19)
    for _ in range(6):
        tail, head, cap, cost, star = _random_graph(rng, integral, nodes=(50, 100), arcs=(3 * K, 4 * K))
        n, a = len(star) + 1, tail.size
        pi0 = np.zeros(n)
        pi0[:-1] = np.where(tail[star] == np.arange(n - 1), cost[star], -cost[star])
        assert np.count_nonzero(np.abs(cost - pi0[tail] + pi0[head]) > netsimplex.PRICE_TOL) > 2 * K
        res = min_cost_circulation(tail, head, cap, cost, star)
        x, pi = res.flow, res.potential
        N = csr_matrix((np.r_[np.ones(a), -np.ones(a)], (np.r_[tail, head], np.r_[np.arange(a), np.arange(a)])), (n, a))
        assert np.abs(N @ x).max() <= 1e-12
        assert np.all(np.abs(x) <= cap + 1e-12)
        rc = cost - pi[tail] + pi[head]
        assert np.all(x[rc > 1e-9] <= -cap[rc > 1e-9] + 1e-12)
        assert np.all(x[rc < -1e-9] >= cap[rc < -1e-9] - 1e-12)
        ref = linprog(cost, A_eq=N, b_eq=np.zeros(n), bounds=np.c_[-cap, cap], method="highs")
        assert cost @ x == pytest.approx(ref.fun, abs=1e-9)


def test_stall_guard_raises_when_the_pivot_budget_runs_out(monkeypatch):
    # with no allowance per arc the budget is 1000 pivots, fewer than this graph needs
    rng = np.random.default_rng(3)
    graph = _random_graph(rng, False, nodes=(300, 301), arcs=(3000, 3001))
    assert min_cost_circulation(*graph).pivots > 1000
    monkeypatch.setattr(netsimplex, "PIVOTS_PER_ARC", 0)
    with pytest.raises(LPNumericalFailure, match="exceeded 1000 pivots"):
        min_cost_circulation(*graph)


def _assert_threaded_tree(tail, head, parent, parent_arc, size, nxt, prv, last):
    """The thread is a preorder of the spanning tree, with each subtree's size and last node."""
    n = len(parent)
    root = n - 1
    order = [root]
    while nxt[order[-1]] != root:
        order.append(nxt[order[-1]])
        assert len(order) <= n
    assert sorted(order) == list(range(n))
    assert all(prv[nxt[v]] == v for v in range(n))
    pos = {v: i for i, v in enumerate(order)}
    for v in range(n):
        if v != root:
            assert {tail[parent_arc[v]], head[parent_arc[v]]} == {v, parent[v]}
        run = order[pos[v] : pos[last[v]] + 1]
        assert len(run) == size[v]
        subtree = set()
        for w in range(n):
            u = w
            while u != -1 and u != v:
                u = parent[u]
            if u == v:
                subtree.add(w)
        assert set(run) == subtree


@pytest.mark.parametrize("integral", [False, True])
def test_every_rehang_keeps_a_threaded_spanning_tree(integral, monkeypatch):
    rehang = netsimplex._rehang
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(30):
        tail, head, cap, cost, star = _random_graph(rng, integral, nodes=(2, 40), arcs=(0, 150))

        def rehang_and_check(e, u_in, v_in, u_out, apex, parent, parent_arc, size, nxt, prv, last):
            nonlocal checked
            rehang(e, u_in, v_in, u_out, apex, parent, parent_arc, size, nxt, prv, last)
            _assert_threaded_tree(tail, head, parent, parent_arc, size, nxt, prv, last)
            checked += 1

        monkeypatch.setattr(netsimplex, "_rehang", rehang_and_check)
        min_cost_circulation(tail, head, cap, cost, star)
    assert checked > 500
