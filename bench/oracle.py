"""Reference values from scipy, computed in a child process apart from roughbody.

Reads a JSON list of tasks on stdin and writes a JSON list of numbers on
stdout.  It runs as its own process so that scipy's memory never shows in the
benchmark's peak RSS, and it never imports roughbody.

Tasks:
  {"kind": "flat_norm", "mesh": path, "degree": k, "coefficients": [[i, a], ...]}
      simplicial flat norm of the chain, by HiGHS on the sign-split LP
      min vol_k.(r+ + r-) + vol_k1.(s+ + s-)  s.t.  r+ - r- + B (s+ - s-) = t.
  {"kind": "clipped_volume", "mesh": path, "coefficients": [[i, a], ...],
   "normal": [...], "offset": s}
      sum over top simplices of |a| * volume(simplex cut by {normal.x >= offset}),
      each piece the convex hull of the kept vertices and the edge crossings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

sys.path.insert(0, str(Path(__file__).resolve().parent))
from meshfile import MeshFile  # noqa: E402


def flat_norm_highs(mf: MeshFile, k: int, t: np.ndarray) -> float:
    rows, cols, signs = mf.incidence[k + 1]
    m, p = mf.count(k), mf.count(k + 1)
    B = sparse.csr_matrix((signs, (rows, cols)), shape=(m, p))
    eye = sparse.identity(m, format="csr")
    A = sparse.hstack([eye, -eye, B, -B], format="csr")
    vk, vk1 = mf.volumes(k), mf.volumes(k + 1)
    c = np.concatenate([vk, vk, vk1, vk1])
    res = linprog(
        c,
        A_eq=A,
        b_eq=t,
        bounds=(0, None),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def clipped_volume(mf: MeshFile, coeffs, normal, offset: float) -> float:
    n = np.asarray(normal, dtype=float)
    top = mf.top_degree
    total = 0.0
    for i, a in coeffs:
        C = mf.vertices[list(mf.simplices[top][int(i)])]
        d = C @ n - offset
        pts = [C[j] for j in range(len(C)) if d[j] >= 0.0]
        for u in range(len(C)):
            for v in range(u + 1, len(C)):
                if d[u] * d[v] < 0.0:
                    pts.append(C[u] + d[u] / (d[u] - d[v]) * (C[v] - C[u]))
        if len(pts) <= top:
            continue
        try:
            vol = ConvexHull(np.asarray(pts)).volume
        except QhullError:  # flat piece: the cut passes through a face
            vol = 0.0
        total += abs(float(a)) * vol
    return total


def main() -> int:
    tasks = json.load(sys.stdin)
    meshes: dict[str, MeshFile] = {}
    out = []
    for task in tasks:
        mf = meshes.get(task["mesh"])
        if mf is None:
            mf = meshes[task["mesh"]] = MeshFile.read(task["mesh"])
        if task["kind"] == "flat_norm":
            k = task["degree"]
            out.append(flat_norm_highs(mf, k, mf.dense(k, task["coefficients"])))
        elif task["kind"] == "clipped_volume":
            out.append(clipped_volume(mf, task["coefficients"], task["normal"], task["offset"]))
        else:
            raise ValueError(f"unknown task kind {task['kind']!r}")
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
