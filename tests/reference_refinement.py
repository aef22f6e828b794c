"""Per-simplex reference for half-space and barycentric refinement (test-only).

This is the simplex-at-a-time formulation that `roughbody.mesh` replaced with
whole-degree array passes: new vertices are registered in a pool that
deduplicates coordinates on a 1e-12 grid, every piece is oriented against
its parent through a pseudo-inverse and floored by its own longest edge and
Gram-determinant volume, and faces are derived through frozenset-keyed
dictionaries with incidence signs from pairwise inversion counts.  The
splitter that triangulates each side of a cut simplex (`mesh._split_ids`)
is shared.  The tests require the array code to
reproduce these vertex arrays bitwise, and the simplex tables, refinement
parents, incidence and face parents exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

import numpy as np

from roughbody.mesh import _split_ids

COORD_SNAP = 1e-12
DEGENERACY_TOL = 1e-12
VALUE_SNAP = 1e-10


@dataclass
class RefTables:
    vertices: np.ndarray
    simplices: dict[int, list[tuple[int, ...]]]
    index: dict[int, dict[frozenset, int]]
    incidence: dict[int, list[list[tuple[int, int]]]]
    face_parent: dict[int, list[int]]
    parent: dict[int, list[int]] | None = None  # per degree, the source simplex each simplex tiles, or -1


def perm_parity(a, b) -> int:
    perm = [b.index(x) for x in a]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def longest_edge(C: np.ndarray) -> float:
    return max(
        (float(np.linalg.norm(C[i] - C[j])) for i in range(len(C)) for j in range(i + 1, len(C))),
        default=0.0,
    )


def reference_build(vertices, simplices) -> RefTables:
    """Face tables of the seed's build_complex (no validation)."""
    vertices = np.asarray(vertices, dtype=float)
    nv = vertices.shape[0]
    table = {0: [(i,) for i in range(nv)]}
    index = {0: {frozenset((i,)): i for i in range(nv)}}
    for k in sorted(simplices):
        entries = [tuple(int(v) for v in s) for s in simplices[k]]
        if not entries or k == 0:
            continue
        table.setdefault(k, [])
        index.setdefault(k, {})
        for s in entries:
            key = frozenset(s)
            if key in index[k]:
                continue
            index[k][key] = len(table[k])
            table[k].append(s)
    max_deg = max(table)
    incidence, face_parent = {}, {}
    for k in range(max_deg, 0, -1):
        table.setdefault(k - 1, [])
        index.setdefault(k - 1, {})
        incidence[k] = []
        face_parent.setdefault(k - 1, [-1] * len(table[k - 1]))
        for idx, s in enumerate(table[k]):
            row = []
            for i in range(k + 1):
                face = s[:i] + s[i + 1 :]
                key = frozenset(face)
                fidx = index[k - 1].get(key)
                if fidx is None:
                    fidx = len(table[k - 1])
                    index[k - 1][key] = fidx
                    table[k - 1].append(face)
                    face_parent[k - 1].append(idx)
                elif face_parent[k - 1][fidx] < 0:
                    face_parent[k - 1][fidx] = idx
                row.append((fidx, (1 if i % 2 == 0 else -1) * perm_parity(face, table[k - 1][fidx])))
            incidence[k].append(row)
    return RefTables(vertices, table, index, incidence, face_parent)


class _Pool:
    def __init__(self, coords):
        self.coords = [np.asarray(c, dtype=float) for c in coords]
        self._lookup = {self._key(c): i for i, c in enumerate(self.coords)}

    @staticmethod
    def _key(c):
        return tuple(int(round(x / COORD_SNAP)) for x in c)

    def add(self, c) -> int:
        key = self._key(c)
        idx = self._lookup.get(key)
        if idx is None:
            idx = len(self.coords)
            self.coords.append(np.asarray(c, dtype=float))
            self._lookup[key] = idx
        return idx


def _orient_like(piece, parent_pinv, pool):
    k = len(piece) - 1
    C = np.asarray([pool.coords[v] for v in piece])
    F = (C[1:] - C[0]).T
    det = np.linalg.det(parent_pinv @ F)
    vol = np.sqrt(max(np.linalg.det(F.T @ F), 0.0)) / factorial(k)
    if vol <= DEGENERACY_TOL * longest_edge(C) ** k or det == 0.0:
        return None
    return (piece[1], piece[0]) + piece[2:] if det < 0 else piece


def _split_complex(cx, piece_fn, pool) -> RefTables:
    new_simplices, parent = {}, {}
    for k in sorted(cx.simplices):
        new_simplices[k], parent[k], seen = [], [], set()
        for idx, vids in enumerate(cx.simplices[k]):
            for piece in piece_fn(k, vids, pool) if k else [vids]:
                if piece not in seen:
                    seen.add(piece)
                    new_simplices[k].append(piece)
                    parent[k].append(idx)
    out = reference_build(np.asarray(pool.coords), new_simplices)
    out.parent = {k: p + [-1] * (len(out.simplices[k]) - len(p)) for k, p in parent.items()}
    return out


def reference_refine_by_halfspace(cx, hs) -> RefTables:
    lam, s = hs.unit()
    d = cx.vertices @ lam - s
    snap = VALUE_SNAP * max(cx.diameter(), 1.0)
    dvals = list(np.where(np.abs(d) <= snap, 0.0, d))
    pool = _Pool(cx.vertices)
    cache = {}

    def crossing(u, v):
        a, b = (u, v) if u < v else (v, u)
        if (a, b) not in cache:
            t = dvals[a] / (dvals[a] - dvals[b])
            vid = pool.add(pool.coords[a] + t * (pool.coords[b] - pool.coords[a]))
            if vid == len(dvals):
                dvals.append(0.0)
            cache[(a, b)] = vid
        return cache[(a, b)]

    def piece_fn(k, vids, p):
        plus, minus = _split_ids(vids, [dvals[v] for v in vids], crossing)
        C = np.asarray([p.coords[v] for v in vids])
        pinv = np.linalg.pinv((C[1:] - C[0]).T)
        return [q for q in (_orient_like(piece, pinv, p) for piece in plus + minus) if q]

    return _split_complex(cx, piece_fn, pool)


def reference_barycentric_once(cx) -> RefTables:
    pool = _Pool(cx.vertices)

    def piece_fn(k, vids, p):
        C = np.asarray([p.coords[v] for v in vids])
        pinv = np.linalg.pinv((C[1:] - C[0]).T)
        out = []
        for perm in permutations(range(k + 1)):
            piece = [vids[perm[0]]]
            for j in range(1, k + 1):
                piece.append(p.add(np.mean([p.coords[vids[perm[i]]] for i in range(j + 1)], axis=0)))
            oriented = _orient_like(tuple(piece), pinv, p)
            if oriented is not None:
                out.append(oriented)
        return out

    return _split_complex(cx, piece_fn, pool)
