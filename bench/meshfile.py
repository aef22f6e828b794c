"""Mesh-file geometry computed apart from roughbody (numpy only).

A mesh file lists vertex coordinates and its top-degree simplices.  The
lower-degree simplices that chain files index are implicit: walking the
degrees from the top down and the simplices of each degree in order, face i
of a simplex drops vertex i, a face is numbered when first met and keeps the
vertex order it was first met with, and its incidence sign is (-1)^i times
the parity between the two vertex orders.  This module rebuilds that
numbering, the signed incidence and the simplex volumes from the file alone,
so the benchmark can check the program's chains against it.
"""

from __future__ import annotations

import json
from math import factorial

import numpy as np


def parity(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Sign of the permutation taking vertex order a to vertex order b."""
    pos = {v: i for i, v in enumerate(b)}
    perm = [pos[v] for v in a]
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class MeshFile:
    """Simplices of every degree, signed incidence and volumes of one mesh file."""

    def __init__(self, vertices, top: list[tuple[int, ...]]):
        self.vertices = np.asarray(vertices, dtype=float)
        self.top_degree = len(top[0]) - 1
        self.simplices: dict[int, list[tuple[int, ...]]] = {self.top_degree: [tuple(s) for s in top]}
        # incidence[k] = (face index, simplex index, sign) arrays of the k -> k-1 boundary
        self.incidence: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for k in range(self.top_degree, 0, -1):
            faces: list[tuple[int, ...]] = []
            index: dict[frozenset, int] = {}
            rows, cols, signs = [], [], []
            for j, s in enumerate(self.simplices[k]):
                for i in range(k + 1):
                    face = s[:i] + s[i + 1 :]
                    key = frozenset(face)
                    f = index.get(key)
                    if f is None:
                        f = index[key] = len(faces)
                        faces.append(face)
                    rows.append(f)
                    cols.append(j)
                    signs.append((1 if i % 2 == 0 else -1) * parity(face, faces[f]))
            self.simplices[k - 1] = faces
            self.incidence[k] = (np.array(rows), np.array(cols), np.array(signs, dtype=float))
        self._volumes: dict[int, np.ndarray] = {}

    @classmethod
    def read(cls, path) -> "MeshFile":
        with open(path) as fh:
            data = json.load(fh)
        top = max(data["simplices"], key=int)
        return cls(data["vertices"], [tuple(s) for s in data["simplices"][top]])

    def count(self, k: int) -> int:
        return len(self.simplices[k])

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.count(k) for k in range(self.top_degree + 1))

    def volumes(self, k: int) -> np.ndarray:
        if k not in self._volumes:
            if k == 0:
                self._volumes[k] = np.ones(self.count(0))
            else:
                C = self.vertices[np.asarray(self.simplices[k])]
                E = C[:, 1:, :] - C[:, :1, :]
                gram = np.einsum("mid,mjd->mij", E, E)
                self._volumes[k] = np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / factorial(k)
        return self._volumes[k]

    def dense(self, k: int, coeffs) -> np.ndarray:
        """Coefficient vector of a degree-k chain given as [[index, value], ...] pairs or a dict."""
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        out = np.zeros(self.count(k))
        for i, a in items:
            out[int(i)] += float(a)
        return out

    def boundary(self, k: int, x: np.ndarray) -> np.ndarray:
        """Coefficients of the boundary of the degree-k chain x."""
        rows, cols, signs = self.incidence[k]
        out = np.zeros(self.count(k - 1))
        np.add.at(out, rows, signs * x[cols])
        return out

    def mass(self, k: int, x: np.ndarray) -> float:
        return float(np.abs(x) @ self.volumes(k))
