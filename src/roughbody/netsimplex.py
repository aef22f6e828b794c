"""Primal network simplex for min-cost circulations with symmetric arc bounds.

Solves   min c.x   over circulations x on a directed graph,  -u <= x <= u.

Arc a runs from tail[a] to head[a].  The last node is the root, and every
other node j is joined to it by the arc star[j].  Because the bounds are
symmetric, the zero circulation is feasible: the search starts there, with
the star as its spanning tree and every other arc nonbasic at the interior
value 0 ("free").  A free arc may enter in either direction; once it has
reached a bound or the tree it is never free again, so this is the
bounded-variable primal simplex with finitely many interior starts and
needs neither a phase 1 nor artificial arcs.

Pricing is Dantzig's rule, evaluated with numpy over all arcs.  The leaving
arc is the last blocking arc of the pivot cycle counted from its apex
(Cunningham's strongly feasible tree rule), which rules out cycling on the
degenerate pivots that chain geometry produces.  The tree is stored as
parent pointers, subtree sizes and a depth-first thread (the layout of
networkx's `network_simplex`), so memory is O(arcs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPNumericalFailure

PRICE_TOL = 1e-12  # reduced-cost tolerance; callers normalise costs to at most 1
PIVOTS_PER_ARC = 50  # a run past 50 pivots per arc (plus 1000) is taken as stalled


@dataclass
class Circulation:
    flow: np.ndarray  # per arc
    potential: np.ndarray  # per node; reduced cost of arc a is c_a - pi[tail] + pi[head]
    pivots: int


def min_cost_circulation(tail, head, cap, cost, star) -> Circulation:
    """Minimum-cost circulation with -cap <= flow <= cap on every arc."""
    tail = np.asarray(tail, dtype=np.intp)
    head = np.asarray(head, dtype=np.intp)
    cost = np.asarray(cost, dtype=float)
    n_arcs = tail.size
    n = len(star) + 1
    root = n - 1
    max_pivots = PIVOTS_PER_ARC * n_arcs + 1000
    tl, hd, cp, cs = tail.tolist(), head.tolist(), np.asarray(cap, dtype=float).tolist(), cost.tolist()

    # spanning tree: the root star, threaded root -> 0 -> 1 -> ... -> n-2 -> root
    parent = [root] * (n - 1) + [-1]
    parent_arc = [int(a) for a in star] + [-1]
    size = [1] * (n - 1) + [n]
    nxt = list(range(1, n)) + [0]
    prv = [root] + list(range(n - 2)) + [n - 2]
    last = list(range(n - 1)) + [n - 2]
    x = [0.0] * n_arcs
    up = np.ones(n_arcs)  # 1 where the arc may increase, 0 on tree arcs and at the upper bound
    dn = np.ones(n_arcs)  # 1 where the arc may decrease
    up[parent_arc[:-1]] = 0.0
    dn[parent_arc[:-1]] = 0.0
    pi = np.zeros(n)
    for j in range(n - 1):
        a = parent_arc[j]
        pi[j] = cs[a] if tl[a] == j else -cs[a]

    rc = np.empty(n_arcs)
    buf = np.empty(n_arcs)
    viol = np.empty(n_arcs)
    pivots = 0
    while True:
        # Dantzig pricing over every arc
        np.take(pi, tail, out=rc)
        np.subtract(cost, rc, out=rc)
        np.take(pi, head, out=buf)
        rc += buf
        np.multiply(rc, dn, out=viol)
        np.multiply(rc, up, out=buf)
        np.negative(buf, out=buf)
        np.maximum(viol, buf, out=viol)
        e = int(viol.argmax())
        if not viol[e] > PRICE_TOL:
            if _refresh_potentials(pi, parent, parent_arc, nxt, tl, cs, root):
                continue  # drift removed; price again with exact potentials
            break
        if pivots >= max_pivots:
            raise LPNumericalFailure(f"network simplex exceeded {max_pivots} pivots")
        pivots += 1
        # push flow along e from p to q, then back to p through the tree
        if rc[e] < 0.0:
            p, q = tl[e], hd[e]
        else:
            p, q = hd[e], tl[e]

        # apex of the cycle: climb from the smaller subtree
        a_, b_ = p, q
        while a_ != b_:
            if size[a_] < size[b_]:
                a_ = parent[a_]
            elif size[a_] > size[b_]:
                b_ = parent[b_]
            else:
                a_ = parent[a_]
                b_ = parent[b_]
        apex = a_

        # cycle arcs (arc, node it is entered from, tree child) in order from
        # the apex: down to p, then e, then up from q to the apex
        cycle = []
        v = p
        while v != apex:
            cycle.append((parent_arc[v], parent[v], v))
            v = parent[v]
        cycle.reverse()
        n_down = len(cycle)
        cycle.append((e, p, -1))
        v = q
        while v != apex:
            cycle.append((parent_arc[v], v, v))
            v = parent[v]
        resid = [cp[a] - x[a] if tl[a] == s else x[a] + cp[a] for a, s, _ in cycle]
        theta = min(resid)
        leave_pos = len(resid) - 1 - resid[::-1].index(theta)  # last blocking arc
        for a, s, _ in cycle:
            if tl[a] == s:
                x[a] += theta
            else:
                x[a] -= theta
        f, fs, fchild = cycle[leave_pos]
        forward = tl[f] == fs  # f stopped at its upper bound
        up[f] = 0.0 if forward else 1.0
        dn[f] = 1.0 if forward else 0.0
        if f == e:
            continue

        # f leaves the tree; the side it cuts off is re-hung from e
        up[e] = dn[e] = 0.0
        inner, outer = (p, q) if leave_pos < n_down else (q, p)
        _remove_edge(parent[fchild], fchild, parent, parent_arc, size, nxt, prv, last)
        _make_root(inner, parent, parent_arc, size, nxt, prv, last)
        _add_edge(e, outer, inner, parent, parent_arc, size, nxt, prv, last)
        # potentials of the moved subtree so that e has zero reduced cost
        if hd[e] == inner:
            d = pi[outer] - cs[e] - pi[inner]
        else:
            d = pi[outer] + cs[e] - pi[inner]
        nodes = [inner]
        v, stop = inner, last[inner]
        while v != stop:
            v = nxt[v]
            nodes.append(v)
        pi[nodes] += d

    return Circulation(np.asarray(x), pi, pivots)


def _refresh_potentials(pi, parent, parent_arc, nxt, tl, cs, root) -> bool:
    """Recompute potentials along the thread; True if they had drifted."""
    fresh = np.empty_like(pi)
    fresh[root] = 0.0
    v = nxt[root]
    while v != root:
        a = parent_arc[v]
        u = parent[v]
        fresh[v] = fresh[u] + cs[a] if tl[a] == v else fresh[u] - cs[a]
        v = nxt[v]
    drifted = bool(np.any(fresh != pi))
    pi[:] = fresh
    return drifted


def _remove_edge(s, t, parent, parent_arc, size, nxt, prv, last) -> None:
    """Cut the tree arc joining t to its parent s; t's subtree becomes its own thread."""
    size_t = size[t]
    prev_t = prv[t]
    last_t = last[t]
    next_last_t = nxt[last_t]
    parent[t] = -1
    parent_arc[t] = -1
    nxt[prev_t] = next_last_t
    prv[next_last_t] = prev_t
    nxt[last_t] = t
    prv[t] = last_t
    while s != -1:
        size[s] -= size_t
        if last[s] == last_t:
            last[s] = prev_t
        s = parent[s]


def _make_root(q, parent, parent_arc, size, nxt, prv, last) -> None:
    """Re-root the detached tree holding q at q, reversing the path to its old root."""
    path = []
    while q != -1:
        path.append(q)
        q = parent[q]
    path.reverse()
    for p, q in zip(path, path[1:]):
        size_p = size[p]
        last_p = last[p]
        prev_q = prv[q]
        last_q = last[q]
        next_last_q = nxt[last_q]
        parent[p] = q
        parent[q] = -1
        parent_arc[p] = parent_arc[q]
        parent_arc[q] = -1
        size[p] = size_p - size[q]
        size[q] = size_p
        nxt[prev_q] = next_last_q
        prv[next_last_q] = prev_q
        nxt[last_q] = q
        prv[q] = last_q
        if last_p == last_q:
            last[p] = prev_q
            last_p = prev_q
        prv[p] = last_q
        nxt[last_q] = p
        nxt[last_p] = q
        prv[q] = last_p
        last[q] = last_p


def _add_edge(a, p, q, parent, parent_arc, size, nxt, prv, last) -> None:
    """Hang the detached tree rooted at q below p through arc a."""
    last_p = last[p]
    next_last_p = nxt[last_p]
    size_q = size[q]
    last_q = last[q]
    parent[q] = p
    parent_arc[q] = a
    nxt[last_p] = q
    prv[q] = last_p
    prv[next_last_p] = last_q
    nxt[last_q] = next_last_p
    while p != -1:
        size[p] += size_q
        if last[p] == last_p:
            last[p] = last_q
        p = parent[p]
