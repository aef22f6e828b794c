"""Seeded mesh and sample generators for tests and verification campaigns."""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .bodies import Body, body_from_simplices
from .chains import Chain
from .forms import Cochain
from .maps import PAMap
from .mesh import Complex, HalfSpace, build_complex, kvectors
from .sharp import SharpField


def segment_mesh(m: int, lo: float = 0.0, hi: float = 1.0) -> Complex:
    xs = np.linspace(lo, hi, m + 1).reshape(-1, 1)
    return build_complex(xs, {1: [(i, i + 1) for i in range(m)]}, check_overlap=False)


def grid_mesh(nx: int, ny: int, lo=(0.0, 0.0), hi=(1.0, 1.0)) -> Complex:
    """Structured triangulation of a rectangle, positively oriented."""
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    verts = np.array([[x, y] for y in ys for x in xs])

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return build_complex(verts, {2: tris}, check_overlap=False)


def cube_mesh(nx: int, ny: int, nz: int, lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)) -> Complex:
    """Kuhn triangulation (6 tets per cube), positively oriented."""
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    zs = np.linspace(lo[2], hi[2], nz + 1)
    verts = np.array([[x, y, z] for z in zs for y in ys for x in xs])

    def vid(i, j, k):
        return (k * (ny + 1) + j) * (nx + 1) + i

    tets = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                for perm in permutations(range(3)):
                    path = [np.array([i, j, k])]
                    for ax in perm:
                        nxt = path[-1].copy()
                        nxt[ax] += 1
                        path.append(nxt)
                    tets.append([vid(*p) for p in path])
    tets = np.array(tets, dtype=np.intp).reshape(-1, 4)
    flip = kvectors(verts[tets])[:, 0] < 0
    tets[flip, :2] = tets[flip, 1::-1]
    return build_complex(verts, {3: tets}, check_overlap=False)


def random_chain(cx: Complex, k: int, rng: np.random.Generator, density: float = 0.4, scale: float = 1.0) -> Chain:
    m = cx.n_simplices(k)
    coeffs = {}
    for i in range(m):
        if rng.uniform() < density:
            coeffs[i] = float(rng.normal() * scale)
    if not coeffs and m:
        coeffs[int(rng.integers(m))] = float(rng.normal() * scale)
    return Chain(cx, k, coeffs)


def random_body(cx: Complex, rng: np.random.Generator, fill: float = 0.5) -> Body:
    m = cx.n_simplices(cx.top_degree)
    idx = [i for i in range(m) if rng.uniform() < fill]
    if not idx:
        idx = [int(rng.integers(m))]
    return body_from_simplices(cx, idx)


def random_cochain(cx: Complex, k: int, rng: np.random.Generator, scale: float = 1.0) -> Cochain:
    return Cochain.from_terms(cx, k, np.arange(cx.n_simplices(k)), rng.normal(size=cx.n_simplices(k)) * scale)


def random_sharp_field(cx: Complex, rng: np.random.Generator, scale: float = 1.0) -> SharpField:
    return SharpField(cx, rng.normal(size=cx.vertices.shape[0]) * scale)


def random_pa_map(cx: Complex, rng: np.random.Generator, amplitude: float = 0.3) -> PAMap:
    jitter = rng.normal(size=cx.vertices.shape) * amplitude
    return PAMap(cx, cx.vertices + jitter)


def random_embedding_map(cx: Complex, rng: np.random.Generator, amplitude: float = 0.1, tries: int = 50) -> PAMap:
    """Random orientation-preserving embedding (perturbed identity, retried)."""
    h = cx.diameter() / max(cx.n_simplices(cx.top_degree), 1) ** (1.0 / cx.dim)
    for _ in range(tries):
        jitter = rng.normal(size=cx.vertices.shape) * amplitude * h
        A = np.eye(cx.dim) + rng.normal(size=(cx.dim, cx.dim)) * amplitude
        F = PAMap(cx, cx.vertices @ A.T + jitter)
        if not F.embedding().ok:
            continue
        if (F.dets > 0).all():
            return F
    raise RuntimeError("failed to sample an embedding; lower the amplitude")


def random_halfspace(rng: np.random.Generator, cx: Complex) -> HalfSpace:
    lam = rng.normal(size=cx.dim)
    while np.linalg.norm(lam) < 1e-6:
        lam = rng.normal(size=cx.dim)
    lo = cx.vertices.min(axis=0)
    hi = cx.vertices.max(axis=0)
    point = lo + rng.uniform(0.1, 0.9, size=cx.dim) * (hi - lo)
    return HalfSpace(tuple(lam), float(lam @ point))
