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

Pricing works from a candidate list.  One numpy pass over all arcs keeps
the CANDIDATES most violated arcs, ordered by violation (ties by arc
index).  The pivots that follow take the list's arcs in that order, each
priced again in plain Python against the current potentials and skipped
if no longer violated; the next full pass comes when the list is empty.
Optimality is declared only when a full pass finds no violated arc and
the potentials, recomputed along the tree, have not drifted.  The leaving
arc is the last blocking arc of the pivot cycle counted from its apex
(Cunningham's strongly feasible tree rule), which rules out cycling on the
degenerate pivots that chain geometry produces.

The tree is stored as parent pointers, subtree sizes and a depth-first
thread with its last descendants, so memory is O(arcs).  A pivot walks the
cycle once to find the apex and the blocking arc, and re-hangs the cut-off
subtree as the first child of the entering arc's other end; sizes change
only below the apex, and the potentials only on the moved subtree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPNumericalFailure

PRICE_TOL = 1e-12  # reduced-cost tolerance; callers normalise costs to at most 1
PIVOTS_PER_ARC = 50  # a run past 50 pivots per arc (plus 1000) is taken as stalled
CANDIDATES = 1024  # arcs one full pricing pass hands to the pivots that follow


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
    pi = [0.0] * n
    for j in range(n - 1):
        a = parent_arc[j]
        pi[j] = cs[a] if tl[a] == j else -cs[a]

    rc = np.empty(n_arcs)
    buf = np.empty(n_arcs)
    viol = np.empty(n_arcs)
    cand = []  # (arc, tail, head, cost, up, dn), most violated last
    pivots = 0
    while True:
        e = -1
        while cand:
            a, t, h, c, u, d = cand.pop()
            r = c - pi[t] + pi[h]
            if (r * d if r > 0.0 else -r * u) > PRICE_TOL:
                e, rc_e = a, r
                break
        if e < 0:
            # full pass: reduced costs of every arc against exact potentials
            pot = np.array(pi)
            np.take(pot, tail, out=rc)
            np.subtract(cost, rc, out=rc)
            np.take(pot, head, out=buf)
            rc += buf
            np.multiply(rc, dn, out=viol)
            np.multiply(rc, up, out=buf)
            np.negative(buf, out=buf)
            np.maximum(viol, buf, out=viol)
            hot = np.flatnonzero(viol > PRICE_TOL)
            if hot.size == 0:
                if _refresh_potentials(pi, parent, parent_arc, nxt, tl, cs, root):
                    continue  # drift removed; price again with exact potentials
                break
            v = viol[hot]
            if hot.size > CANDIDATES:
                cut = np.partition(v, hot.size - CANDIDATES)[hot.size - CANDIDATES]
                hot, v = hot[v >= cut], v[v >= cut]
            hot = hot[np.argsort(-v, kind="stable")[:CANDIDATES][::-1]]
            cand = list(zip(hot.tolist(), *(arr[hot].tolist() for arr in (tail, head, cost, up, dn))))
            continue
        if pivots >= max_pivots:
            raise LPNumericalFailure(f"network simplex exceeded {max_pivots} pivots")
        pivots += 1
        # push flow along e from p to q, then back to p through the tree
        if rc_e < 0.0:
            p, q = tl[e], hd[e]
        else:
            p, q = hd[e], tl[e]

        # climb to the apex from the smaller subtree, keeping each side's
        # tightest arc: on p's side the one nearest p, on q's side the one
        # nearest the apex, so that ties go to the last arc from the apex
        theta = cp[e] - x[e] if tl[e] == p else x[e] + cp[e]
        dmin = umin = theta + 1.0
        u, w = p, q
        while u != w:
            if size[u] < size[w]:
                a = parent_arc[u]
                r = x[a] + cp[a] if tl[a] == u else cp[a] - x[a]
                if r < dmin:
                    dmin, dnode = r, u
                u = parent[u]
            else:
                a = parent_arc[w]
                r = cp[a] - x[a] if tl[a] == w else x[a] + cp[a]
                if r <= umin:
                    umin, unode = r, w
                w = parent[w]
        apex = u
        # the cycle runs apex -> p, e, q -> apex; the last blocking arc leaves
        if umin <= theta and umin <= dmin:
            theta, u_out, u_in, v_in = umin, unode, q, p
        elif dmin < theta:
            theta, u_out, u_in, v_in = dmin, dnode, p, q
        else:
            u_out = -1
        if theta > 0.0:
            x[e] += theta if tl[e] == p else -theta
            for v, step in ((p, -theta), (q, theta)):  # flow runs down to p, up from q
                while v != apex:
                    a = parent_arc[v]
                    x[a] += step if tl[a] == v else -step
                    v = parent[v]
        if u_out < 0:
            f = e
            forward = tl[e] == p
        else:
            f = parent_arc[u_out]
            forward = (tl[f] == u_out) == (u_in == q)
        x[f] = cp[f] if forward else -cp[f]  # f stopped at this bound
        up[f] = 0.0 if forward else 1.0
        dn[f] = 1.0 if forward else 0.0
        if f == e:
            continue

        # f leaves the tree; the side it cuts off is re-hung from e
        up[e] = dn[e] = 0.0
        _rehang(e, u_in, v_in, u_out, apex, parent, parent_arc, size, nxt, prv, last)
        # potentials of the moved subtree so that e has zero reduced cost
        d = pi[v_in] - pi[u_in] + (cs[e] if tl[e] == u_in else -cs[e])
        v, stop = u_in, last[u_in]
        pi[v] += d
        while v != stop:
            v = nxt[v]
            pi[v] += d

    return Circulation(np.asarray(x), np.array(pi), pivots)


def _refresh_potentials(pi, parent, parent_arc, nxt, tl, cs, root) -> bool:
    """Recompute potentials along the thread; True if they had drifted."""
    fresh = [0.0] * len(pi)
    v = nxt[root]
    while v != root:
        a = parent_arc[v]
        u = parent[v]
        fresh[v] = fresh[u] + cs[a] if tl[a] == v else fresh[u] - cs[a]
        v = nxt[v]
    drifted = fresh != pi
    pi[:] = fresh
    return drifted


def _rehang(e, u_in, v_in, u_out, apex, parent, parent_arc, size, nxt, prv, last) -> None:
    """Cut u_out from its parent and hang its subtree, re-rooted at u_in, below v_in by arc e.

    u_in lies in u_out's subtree and v_in outside it; apex is the nearest
    common ancestor of u_in and v_in before the cut.  The moved thread goes
    in right after v_in, so it becomes v_in's first child: last descendants
    change only along the stem from u_out down to u_in and on the two
    ancestor chains that ended at v_in or at the moved thread, and sizes
    only on the stem and between v_in, u_out's old parent and the apex.
    """
    v_out = parent[u_out]
    old_prev = prv[u_out]
    old_size = size[u_out]
    old_last = last[u_out]
    # the stem u_in -> parent -> ... -> u_out reverses: each stem node's
    # thread, minus the stem node below it, follows that node's thread
    cont = nxt[old_last] if old_prev == v_in else nxt[v_in]
    stem, below = u_in, v_in
    end = last[u_in]
    after = nxt[end]
    nxt[v_in] = u_in
    relinked = [v_in]
    while stem != u_out:
        above = parent[stem]
        nxt[end] = above
        relinked.append(end)
        before = prv[stem]
        nxt[before] = after
        prv[after] = before
        parent[stem] = below
        below, stem = stem, above
        end = prv[below] if last[stem] == last[below] else last[stem]
        after = nxt[end]
    parent[u_out] = below
    nxt[end] = cont
    prv[cont] = end
    last[u_out] = end
    if old_prev != v_in:
        nxt[old_prev] = after
        prv[after] = old_prev
    for v in relinked:
        prv[nxt[v]] = v
    # stem arcs, sizes and last descendants, from u_out down to u_in
    acc = 0
    v = u_out
    while v != u_in:
        w = parent[v]
        parent_arc[v] = parent_arc[w]
        acc += size[v] - size[w]
        size[v] = acc
        last[w] = end
        v = w
    size[u_in] = old_size
    parent_arc[u_in] = e

    # last descendants of the ancestors: v_in's chain gains the moved thread
    # at its end, u_out's old chain loses it
    stop = apex if last[apex] == v_in else -1
    new_last = last[u_out]
    v = v_in
    while v != -1 and last[v] == v_in:
        last[v] = new_last
        v = parent[v]
    # where the moved thread ended a chain, old_prev now ends it, unless
    # the thread already followed v_in and so stayed in place
    gone = new_last if old_prev == v_in else old_prev
    v = v_out
    while v != stop and last[v] == old_last:
        last[v] = gone
        v = parent[v]
    for v, change in ((v_in, old_size), (v_out, -old_size)):
        while v != apex:
            size[v] += change
            v = parent[v]
