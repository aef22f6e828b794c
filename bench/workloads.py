"""The benchmark's workloads: inputs made from a seed, timed operations, checks.

Each workload's `setup` writes its input files into a directory and returns
a `Workload`: the operations one round runs, in order, and the scipy tasks
(run by oracle.py in a child process) whose results the checks compare
against.  An operation's `run` is the only timed part.  Its `check` gets the
output and a dict shared by the round's operations and returns None, or a
message saying what is wrong.  The checks use meshfile.py's own numbering,
incidence and volumes, the oracle's values, or properties the method must
have, never a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from functools import lru_cache
from math import factorial
from typing import Any, Callable

import numpy as np

from meshfile import MeshFile

# Checks read mesh files on first use, so set-up time holds only the program's work.
mesh_file = lru_cache(maxsize=None)(MeshFile.read)

VALUE_RTOL = 1e-9  # recomputed mass and decomposition residuals
ORACLE_RTOL = 1e-7  # agreement with HiGHS, and homogeneity of the flat norm
KOCH_RATIO = 4.0 / 9.0 + 1e-3
RESTRICTS = 6  # seeded (body, half-space) pairs, each cut on both sides
TRIALS = (32, 12, 20)  # product-rule on grid3 and cube1, virtual-power on grid3


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], str | None]
    known_fault: bool = False  # a fault the program has today; counted in `failed`


@dataclass
class Workload:
    ops: list[Op]
    oracle_tasks: list[dict] = field(default_factory=list)
    expect: list[float] = field(default_factory=list)  # oracle results, in task order

    def ask(self, task: dict) -> int:
        """Queue a scipy task; its result will be self.expect[returned index]."""
        self.oracle_tasks.append(task)
        return len(self.oracle_tasks) - 1


def run_cli(rb, argv: list[str]) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = rb.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _rel_close(a: float, b: float, rtol: float, scale: float | None = None) -> bool:
    return abs(a - b) <= rtol * (abs(b) if scale is None else scale)


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data))


def _jittered_grid(rb, rng, n: int, amount: float = 0.15):
    """grid_mesh(n, n) with interior vertices moved by up to `amount` of the spacing."""
    cx = rb.generate.grid_mesh(n, n)
    verts = cx.vertices.copy()
    interior = np.all((verts > 1e-12) & (verts < 1 - 1e-12), axis=1)
    verts[interior] += rng.uniform(-amount, amount, size=(int(interior.sum()), 2)) / n
    return verts, [tuple(s) for s in cx.simplices[2]]


# -- flat norms -------------------------------------------------------------


def _check_decomposition(mesh_path: Path, k: int, T, value: float, R, S, highs: float) -> str | None:
    """value = mass(R) + mass(S), R + bd S = T, value = HiGHS optimum, F <= M."""
    mf = mesh_file(mesh_path)
    t = mf.dense(k, T)
    r = mf.dense(k, R)
    s = mf.dense(k + 1, S)
    recomputed = mf.mass(k, r) + mf.mass(k + 1, s)
    if not _rel_close(value, recomputed, VALUE_RTOL):
        return f"value {value!r} but mass(R) + mass(S) = {recomputed!r}"
    resid = np.abs(r + mf.boundary(k + 1, s) - t).max()
    if resid > VALUE_RTOL * np.abs(t).max():
        return f"R + bd S differs from T by {resid:.3e}"
    if not _rel_close(value, highs, ORACLE_RTOL):
        return f"value {value!r} but HiGHS gives {highs!r}"
    mass_t = mf.mass(k, t)
    if value > mass_t * (1 + VALUE_RTOL):
        return f"flat norm {value!r} exceeds mass {mass_t!r}"
    return None


def _decomposition_pairs(dec) -> tuple[float, dict, dict]:
    return dec.value, dec.R.coeffs, dec.S.coeffs if dec.S is not None else {}


def setup_flatnorm_lp(rb, seed: int, work: Path) -> Workload:
    """Flat norms through the dense-tableau LP: CLI on grids, library on Koch and cube chains."""
    rng = np.random.default_rng(seed)
    wl = Workload([])

    def load(path):
        return rb.io.load_mesh(path, check_overlap=False)

    # CLI flatnorm on random 1-chains: two on 10x10, three on 12x12
    for n, copies in ((10, 2), (12, 3)):
        mesh_path = work / f"grid{n}.json"
        rb.io.save_mesh(rb.generate.grid_mesh(n, n), mesh_path)
        cx = load(mesh_path)
        for c in range(copies):
            chain = rb.generate.random_chain(cx, 1, rng)
            chain_path = work / f"grid{n}-chain{c}.json"
            rb.io.save_chain(chain, chain_path, mesh_path.name)
            coeffs = [[i, a] for i, a in sorted(chain.coeffs.items())]
            task = wl.ask({"kind": "flat_norm", "mesh": str(mesh_path), "degree": 1, "coefficients": coeffs})
            argv = ["flatnorm", "--mesh", str(mesh_path), "--chain", str(chain_path)]

            def check(out, state, mesh_path=mesh_path, coeffs=coeffs, task=task):
                code, stdout, stderr = out
                if code != 0:
                    return f"exit {code}: {stderr.strip()}"
                rep = json.loads(stdout)
                return _check_decomposition(mesh_path, 1, coeffs, rep["value"], rep["R"], rep["S"], wl.expect[task])

            wl.ops.append(Op(f"cli-flatnorm-grid{n}-{c}", lambda argv=argv: run_cli(rb, argv), check))

    # Koch boundary flat distances F(bd T_{k+1} - bd T_k) on the level-3 mesh
    gb = rb.bodies.koch_generalized_body(3)
    koch_path = work / "koch3.json"
    rb.io.save_mesh(gb.bodies[-1].complex, koch_path)
    kcx = load(koch_path)
    bounds = [rb.chains.Chain(kcx, 1, b.chain.boundary().coeffs) for b in gb.bodies]
    for k in range(3):
        diff = bounds[k + 1] - bounds[k]
        coeffs = sorted(diff.coeffs.items())
        task = wl.ask({"kind": "flat_norm", "mesh": str(koch_path), "degree": 1, "coefficients": coeffs})

        def check(dec, state, k=k, coeffs=coeffs, task=task):
            value, R, S = _decomposition_pairs(dec)
            state[f"koch{k}"] = value
            bad = _check_decomposition(koch_path, 1, coeffs, value, R, S, wl.expect[task])
            if bad is None and k > 0 and value > KOCH_RATIO * state[f"koch{k - 1}"]:
                return f"Koch ratio F{k + 1}/F{k} = {value / state[f'koch{k - 1}']:.6f} exceeds 4/9 + 1e-3"
            return bad

        wl.ops.append(Op(f"flatnorm-koch3-F{k}", lambda diff=diff: rb.flatnorm.flat_norm(diff), check))

    # a 1-chain and a 2-chain on cube_mesh(3, 3, 3)
    cube_path = work / "cube3.json"
    rb.io.save_mesh(rb.generate.cube_mesh(3, 3, 3), cube_path)
    ccx = load(cube_path)
    for k in (1, 2):
        chain = rb.generate.random_chain(ccx, k, rng)
        coeffs = sorted(chain.coeffs.items())
        task = wl.ask({"kind": "flat_norm", "mesh": str(cube_path), "degree": k, "coefficients": coeffs})

        def check(dec, state, k=k, coeffs=coeffs, task=task):
            return _check_decomposition(cube_path, k, coeffs, *_decomposition_pairs(dec), wl.expect[task])

        wl.ops.append(Op(f"flatnorm-cube3-deg{k}", lambda chain=chain: rb.flatnorm.flat_norm(chain), check))

    # Known fault: absolute LP tolerances make F(1e-8 T) come back too high,
    # so homogeneity F(aT) = |a| F(T) fails against the unit-scale solve.
    # The chain is fixed (default_rng(1)), not drawn from the seed.
    scale = 1e-8
    tiny_path = work / "grid4.json"
    rb.io.save_mesh(rb.generate.grid_mesh(4, 4), tiny_path)
    tcx = load(tiny_path)
    unit = rb.generate.random_chain(tcx, 1, np.random.default_rng(1))
    tiny = unit.scale(scale)
    coeffs = sorted(unit.coeffs.items())
    task = wl.ask({"kind": "flat_norm", "mesh": str(tiny_path), "degree": 1, "coefficients": coeffs})
    unit_value: list[float] = []

    def check_tiny(dec, state):
        if not unit_value:  # the unit-scale solve, itself checked against HiGHS
            ref = rb.flatnorm.flat_norm(unit)
            bad = _check_decomposition(tiny_path, 1, coeffs, *_decomposition_pairs(ref), wl.expect[task])
            if bad:
                return f"unit-scale solve: {bad}"
            unit_value.append(ref.value)
        if not _rel_close(dec.value / scale, unit_value[0], ORACLE_RTOL):
            return f"F(1e-8 T) / 1e-8 = {dec.value / scale!r} but F(T) = {unit_value[0]!r}"
        return None

    wl.ops.append(Op("flatnorm-grid4-scaled-1e-8", lambda: rb.flatnorm.flat_norm(tiny), check_tiny, known_fault=True))
    return wl


# -- mesh build and validate ---------------------------------------------------


def _check_validate(mesh_path: Path):
    def check(out, state):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        rep = json.loads(stdout)
        mf = mesh_file(mesh_path)
        want = {str(k): mf.count(k) for k in range(mf.top_degree + 1)}
        if rep["simplices"] != want or rep["vertices"] != len(mf.vertices) or not rep["valid"]:
            return f"report {rep} but the mesh file has simplex counts {want}"
        chi = mf.euler_characteristic()
        if chi != 1:
            return f"Euler characteristic {chi}, a disk or ball has 1"
        return None

    return check


def _chain_mass(chain) -> float:
    """Mass of a top-degree chain from its complex's coordinates (Gram determinants)."""
    idx = sorted(chain.coeffs)
    top = chain.complex.top_degree
    C = chain.complex.vertices[np.asarray([chain.complex.simplices[top][i] for i in idx])]
    E = C[:, 1:, :] - C[:, :1, :]
    vols = np.sqrt(np.maximum(np.linalg.det(np.einsum("mid,mjd->mij", E, E)), 0.0)) / factorial(top)
    return float(np.abs([chain.coeffs[i] for i in idx]) @ vols)


def add_mesh_build(rb, rng, work: Path, wl: Workload) -> None:
    """Mesh reads (validate) and writes (Koch level 5, half-space restriction)."""

    def save(name, verts, tris):
        path = work / name
        rb.io.save_mesh(rb.mesh.build_complex(verts, {len(tris[0]) - 1: tris}, check_overlap=False), path)
        return path

    meshes = [save("grid24.json", *_jittered_grid(rb, rng, 24))]
    koch4 = rb.bodies.koch_prefractal(4).complex
    meshes.append(save("koch4.json", koch4.vertices, koch4.simplices[2]))
    cube = rb.generate.cube_mesh(3, 3, 3)
    meshes.append(save("cube3.json", cube.vertices, cube.simplices[3]))
    for path in meshes:
        argv = ["mesh", "validate", "--mesh", str(path)]
        wl.ops.append(Op(f"cli-validate-{path.stem}", lambda argv=argv: run_cli(rb, argv), _check_validate(path)))

    # a deep overlap planted mid-mesh: a half-size copy of a middle triangle
    verts, tris = _jittered_grid(rb, rng, 12)
    host = np.asarray(verts)[list(tris[2 * (6 * 12 + 6)])]
    centroid = host.mean(axis=0)
    n0 = len(verts)
    verts = np.vstack([verts, centroid + 0.5 * (host - centroid)])
    planted = save("overlap12.json", verts, tris + [(n0, n0 + 1, n0 + 2)])
    argv = ["mesh", "validate", "--mesh", str(planted)]

    def check_overlap(out, state):
        code, stdout, stderr = out
        kind = json.loads(stderr).get("kind") if stderr.strip() else None
        if code != 1 or kind != "NonManifoldOverlap":
            return f"planted overlap: exit {code}, kind {kind}; want exit 1 with NonManifoldOverlap"
        return None

    wl.ops.append(Op("cli-validate-planted-overlap", lambda: run_cli(rb, argv), check_overlap))

    level = 5
    out_path = work / "koch5.json"
    argv_fractal = ["fractal", "--level", str(level), "--out", str(out_path)]

    def check_fractal(out, state):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        rep = json.loads(stdout)
        area = np.sqrt(3.0) / 4.0 * (1.0 + 0.6 * (1.0 - (4.0 / 9.0) ** level))
        perimeter = 3.0 * (4.0 / 3.0) ** level
        mf = MeshFile.read(out_path.with_suffix(".mesh.json"))
        body = mf.dense(2, json.loads(out_path.read_text())["coefficients"])
        file_area, file_perimeter = mf.mass(2, body), mf.mass(1, mf.boundary(2, body))
        for what, got in (("reported area", rep["area"]), ("area from the files", file_area)):
            if not _rel_close(got, area, VALUE_RTOL):
                return f"{what} {got!r}, closed form {area!r}"
        for what, got in (("reported perimeter", rep["perimeter"]), ("perimeter from the files", file_perimeter)):
            if not _rel_close(got, perimeter, VALUE_RTOL):
                return f"{what} {got!r}, closed form {perimeter!r}"
        if rep["triangles"] != mf.count(2):
            return f"reported {rep['triangles']} triangles, mesh file has {mf.count(2)}"
        return None

    wl.ops.append(Op(f"cli-fractal-level{level}", lambda: run_cli(rb, argv_fractal), check_fractal))

    # restriction of seeded bodies on cube_mesh(3,3,3) by seeded half-spaces
    cube_path = meshes[2]
    ccx = rb.io.load_mesh(cube_path, check_overlap=False)
    for j in range(RESTRICTS):
        body = rb.generate.random_body(ccx, rng).chain
        hs = rb.generate.random_halfspace(rng, ccx)
        coeffs = sorted(body.coeffs.items())
        lam, off = list(hs.lam), float(hs.s)
        keep = wl.ask({"kind": "clipped_volume", "mesh": str(cube_path), "coefficients": coeffs, "normal": lam, "offset": off})
        drop = wl.ask({"kind": "clipped_volume", "mesh": str(cube_path), "coefficients": coeffs,
                       "normal": [-x for x in lam], "offset": -off})

        def check_keep(chain, state, j=j, keep=keep):
            got = _chain_mass(chain)
            state[f"restrict{j}"] = got
            if not _rel_close(got, wl.expect[keep], VALUE_RTOL, scale=1.0):
                return f"restricted mass {got!r}, clipped tetrahedra give {wl.expect[keep]!r}"
            return None

        def check_drop(chain, state, j=j, drop=drop, keep=keep):
            got = _chain_mass(chain)
            if not _rel_close(got, wl.expect[drop], VALUE_RTOL, scale=1.0):
                return f"complement mass {got!r}, clipped tetrahedra give {wl.expect[drop]!r}"
            whole = wl.expect[keep] + wl.expect[drop]
            if not _rel_close(state[f"restrict{j}"] + got, whole, VALUE_RTOL, scale=1.0):
                return f"mass(B|H) + mass(B|~H) = {state[f'restrict{j}'] + got!r}, mass(B) = {whole!r}"
            return None

        wl.ops.append(Op(f"restrict-{j}", lambda b=body, h=hs: rb.chains.restrict(b, h), check_keep))
        wl.ops.append(Op(f"restrict-{j}-complement",
                         lambda b=body, h=hs: rb.chains.restrict(b, h, complement=True), check_drop))


# -- verification campaigns ----------------------------------------------------------


def _check_campaign(out_path: Path, trials: int, column: str, report_key: str):
    def check(out, state):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip() or stdout.strip()}"
        rep = json.loads(stdout)
        with open(out_path.with_suffix(".csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rep["passed"] or rep["trials"] != trials:
            return f"report {rep}"
        if [int(r["trial"]) for r in rows] != list(range(trials)):
            return f"CSV has trials {[r['trial'] for r in rows]}, want 0..{trials - 1}"
        worst = max(float(r[column]) for r in rows)
        if worst != rep[report_key] or worst > rep["tolerance"]:
            return f"CSV worst {column} {worst!r}, report {report_key} {rep[report_key]!r}"
        if "bounds_ok" in rows[0] and any(r["bounds_ok"] != "True" for r in rows):
            return "a trial failed the product norm bounds"
        return None

    return check


def add_campaigns(rb, rng, work: Path, wl: Workload) -> None:
    """verify product-rule (2-D and 3-D), verify virtual-power and stress report."""
    grid_path = work / "grid3.json"
    rb.io.save_mesh(rb.generate.grid_mesh(3, 3), grid_path)
    cube_path = work / "cube1.json"
    rb.io.save_mesh(rb.generate.cube_mesh(1, 1, 1), cube_path)

    campaigns = [
        ("product-rule", grid_path, TRIALS[0], "identity_residual", "max_identity_residual"),
        ("product-rule", cube_path, TRIALS[1], "identity_residual", "max_identity_residual"),
        ("virtual-power", grid_path, TRIALS[2], "residual", "max_residual"),
    ]
    for check_name, mesh_path, n, column, key in campaigns:
        out_path = work / f"{check_name}-{mesh_path.stem}.json"
        argv = ["verify", check_name, "--mesh", str(mesh_path), "--trials", str(n),
                "--seed", str(int(rng.integers(2**31))), "--out", str(out_path)]
        wl.ops.append(Op(f"cli-verify-{check_name}-{mesh_path.stem}", lambda argv=argv: run_cli(rb, argv),
                         _check_campaign(out_path, n, column, key)))

    # stress report: a seeded embedding of grid3, cochains and velocity on its image
    gcx = rb.io.load_mesh(grid_path, check_overlap=False)
    images = rb.generate.random_embedding_map(gcx, rng).images
    tris = [tuple(s) for s in gcx.simplices[2]]
    _write_json(work / "map.json", {"mesh": grid_path.name, "images": images.tolist()})
    image_path = work / "image.json"
    rb.io.save_mesh(rb.mesh.build_complex(images, {2: tris}, check_overlap=False), image_path)
    icx = rb.io.load_mesh(image_path, check_overlap=False)
    cochain_args = []
    for i in range(2):
        X = rb.forms.Cochain(icx, 1, {e: float(rng.normal()) for e in range(icx.n_simplices(1))})
        path = work / f"cochain{i}.json"
        rb.io.save_cochain(X, path, image_path.name)
        cochain_args += ["--cochain", str(path)]
    flux_path = work / "flux.json"
    code, _, err = run_cli(rb, ["flux", "build", *cochain_args, "--out", str(flux_path)])
    if code != 0:
        raise RuntimeError(f"flux build failed in set-up: {err}")
    body = rb.generate.random_body(gcx, rng).chain
    rb.io.save_chain(body, work / "body.json", grid_path.name)
    velocity = rng.normal(size=(2, len(images)))
    _write_json(work / "velocity.json", {"mesh": image_path.name, "components": velocity.tolist()})

    # Surface power, recomputed: the image mesh numbers its edges like grid3
    # (same triangles, vertex i -> image i), the push-forward is orientation
    # preserving, and a Whitney 1-form's tangential part is constant on each
    # edge, so X_i(v_i bd B) = sum_e (bd B)_e X_i(e) (v_i(a) + v_i(b)) / 2.
    def surface_power() -> float:
        mf = mesh_file(grid_path)
        bnd = mf.boundary(2, mf.dense(2, json.loads((work / "body.json").read_text())["coefficients"]))
        edges = np.asarray(mf.simplices[1])
        total = 0.0
        for i in range(2):
            X = mf.dense(1, json.loads((work / f"cochain{i}.json").read_text())["coefficients"])
            v = velocity[i]
            total += float(np.sum(bnd * X * (v[edges[:, 0]] + v[edges[:, 1]]) / 2.0))
        return total

    argv = ["stress", "report", "--flux", str(flux_path), "--map", str(work / "map.json"),
            "--body", str(work / "body.json"), "--velocity", str(work / "velocity.json")]

    def check_stress(out, state):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip() or stdout.strip()}"
        rep = json.loads(stdout)
        if not rep["passed"]:
            return f"report {rep}"
        got, surface = rep["spatial"]["surface"], surface_power()
        if not _rel_close(got, surface, VALUE_RTOL, scale=max(1.0, abs(surface))):
            return f"spatial surface power {got!r}, recomputed {surface!r}"
        return None

    wl.ops.append(Op("cli-stress-report-grid3", lambda: run_cli(rb, argv), check_stress))


def setup_mesh_forms(rb, seed: int, work: Path) -> Workload:
    """Mesh building and refinement, then the verification campaigns, on one seed."""
    rng = np.random.default_rng(seed)
    wl = Workload([])
    add_mesh_build(rb, rng, work, wl)
    add_campaigns(rb, rng, work, wl)
    return wl


WORKLOADS = {
    "flatnorm-lp": setup_flatnorm_lp,
    "mesh-forms": setup_mesh_forms,
}
