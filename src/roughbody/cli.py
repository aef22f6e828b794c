"""Command-line front end.

Exit codes: 0 all checks passed, 1 a verification failed (report carries a
witness), 2 input or schema error.  Randomized campaigns are seeded; the
environment variable ROUGHBODY_SEED overrides the --seed flag so acceptance
runs are reproducible.  Reports are JSON (sorted keys); campaign tables are
mirrored to a .csv next to the JSON output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .bodies import geometric_boundary_surface, koch_prefractal
from .errors import RoughBodyError, SchemaViolation
from .flatnorm import flat_norm
from .forms import Cochain, whitney_realize
from .generate import (
    random_body,
    random_chain,
    random_embedding_map,
    random_sharp_field,
)
from .maps import DEGEN_TOL
from .mechanics import (
    Configuration,
    VirtualVelocity,
    cochains_from_flux,
    estimate_balance_constants,
    flux_from_cochains,
    stress_report,
    virtual_power_report,
)
from .mesh import _row_codes, barycentric_refine, sort_parity
from .sharp import SharpField, boundary_product, check_product_bounds, multiply


def _seed(args) -> int:
    env = os.environ.get("ROUGHBODY_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _emit(report: dict, out: str | None, table: list[dict] | None = None) -> None:
    text = io.dumps_report(report)
    if out:
        Path(out).write_text(text)
        if table:
            csv_path = Path(out).with_suffix(".csv")
            with open(csv_path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(table[0].keys()))
                writer.writeheader()
                writer.writerows(table)
    sys.stdout.write(text)


def cmd_mesh_validate(args) -> int:
    cx = io.load_mesh(args.mesh, check_overlap=True)
    report = {
        "dim": cx.dim,
        "vertices": int(cx.vertices.shape[0]),
        "simplices": {str(k): len(a) for k, a in sorted(cx.arrays.items())},
        "valid": True,
    }
    _emit(report, args.out)
    return 0


def cmd_flatnorm(args) -> int:
    cx = io.load_mesh(args.mesh)
    chain = io.load_chain(args.chain, mesh=cx)
    if args.subdivide:
        ref = barycentric_refine(cx, args.subdivide)
        chain = ref.carry_chain(chain)
    dec = flat_norm(chain)
    report = {
        "value": dec.value,
        "solver": dec.solver,
        "iterations": dec.iterations,
        "subdivide": args.subdivide,
        "R": io.coefficient_list(dec.R),
        "S": io.coefficient_list(dec.S) if dec.S is not None else [],
    }
    _emit(report, args.out)
    return 0


def cmd_fractal(args) -> int:
    if args.type != "koch":
        raise SchemaViolation(f"unknown fractal type '{args.type}'")
    body = koch_prefractal(args.level)
    out = Path(args.out)
    mesh_path = out.with_suffix(".mesh.json")
    io.save_mesh(body.complex, mesh_path)
    io.save_chain(body.chain, out, mesh_path.name, role="body")
    report = {
        "level": args.level,
        "area": body.mass(),
        "perimeter": body.boundary_mass(),
        "triangles": body.complex.n_simplices(2),
        "body": str(out),
        "mesh": str(mesh_path),
    }
    sys.stdout.write(io.dumps_report(report))
    return 0


def cmd_flux_build(args) -> int:
    cache: dict = {}
    cochains = tuple(io.load_cochain(p, cache=cache) for p in args.cochain)
    flux = flux_from_cochains(cochains)
    mesh_ref = args.mesh_ref or io.mesh_reference(args.cochain[0])
    io.save_flux(cochains, args.out, mesh_ref, s=flux.s, b=flux.b)
    sys.stdout.write(io.dumps_report({"s": flux.s, "b": flux.b, "out": args.out}))
    return 0


def cmd_flux_eval(args) -> int:
    flux = flux_from_cochains(io.load_flux(args.flux))
    surface = io.load_chain(args.surface, mesh=flux.complex)
    fields = io.load_sharp_field(args.velocity, mesh=flux.complex)
    if isinstance(fields, SharpField):
        raise SchemaViolation(f"{args.velocity}: velocity file needs 'components'")
    value = flux.evaluate(surface, VirtualVelocity(fields))
    _emit({"value": value, "s": flux.s, "b": flux.b}, args.out)
    return 0


def cmd_flux_roundtrip(args) -> int:
    original = io.load_flux(args.flux)
    rec = cochains_from_flux(flux_from_cochains(original))
    max_err = max((X.max_coefficient_diff(Y) for X, Y in zip(original, rec.cochains)), default=0.0)
    scale = max((float(np.abs(X.val).max(initial=0.0)) for X in original), default=0.0)
    ok = max_err <= 1e-9 * scale and rec.bound_ok
    report = {
        "max_coefficient_error": max_err,
        "flat_norms": rec.flat_norms,
        "bound": rec.bound,
        "bound_ok": rec.bound_ok,
        "max_extension_deviation": rec.max_extension_deviation,
        "passed": ok,
    }
    _emit(report, args.out)
    return 0 if ok else 1


def _campaign(args, check: str, trial, verdict) -> int:
    """Run a seeded verification campaign and emit its report and CSV table.

    trial(rng) gives one CSV row's values after "trial"; verdict(rows) gives
    the report fields that follow "check", "trials" and "seed", among them
    "passed".
    """
    if args.trials < 0:
        raise ValueError(f"--trials must be a count >= 0, got {args.trials}")
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    rows = [{"trial": t, **trial(rng)} for t in range(args.trials)]
    fields = verdict(rows)
    _emit({"check": check, "trials": args.trials, "seed": seed, **fields}, args.out, rows)
    return 0 if fields["passed"] else 1


def _worst(rows, column: str) -> float:
    """The largest value of a campaign's column, 0.0 for no trials."""
    return max([0.0] + [row[column] for row in rows])


def _within_tolerance(args, key: str, column: str):
    """The verdict of a campaign that passes when its worst `column` value is at most --tolerance."""

    def verdict(rows):
        worst = _worst(rows, column)
        return {key: worst, "tolerance": args.tolerance, "passed": worst <= args.tolerance}

    return verdict


def cmd_verify_stokes(args) -> int:
    cx = io.load_mesh(args.mesh)

    def trial(rng):
        body = random_body(cx, rng)
        surface = geometric_boundary_surface(body)
        dev = surface.chain.max_coefficient_diff(body.chain.boundary())
        return {"simplices": len(body.chain.idx), "deviation": dev}

    return _campaign(args, "stokes", trial, _within_tolerance(args, "max_deviation", "deviation"))


def cmd_verify_product_rule(args) -> int:
    cx = io.load_mesh(args.mesh)
    k = cx.top_degree

    def trial(rng):
        phi = random_sharp_field(cx, rng)
        A = random_chain(cx, k, rng)
        T = random_chain(cx, k - 1, rng)
        omega = whitney_realize(Cochain.from_terms(cx, k - 1, T.idx, T.val))
        dev = abs(multiply(phi, A).boundary_evaluate(omega) - boundary_product(phi, A).evaluate(omega))
        return {"identity_residual": dev, "bounds_ok": check_product_bounds(phi, A).passed}

    def verdict(rows):
        worst = _worst(rows, "identity_residual")
        fails = sum(not row["bounds_ok"] for row in rows)
        passed = worst <= args.tolerance and fails == 0
        return {
            "max_identity_residual": worst,
            "bound_failures": fails,
            "tolerance": args.tolerance,
            "passed": passed,
        }

    return _campaign(args, "product-rule", trial, verdict)


def cmd_verify_virtual_power(args) -> int:
    cx = io.load_mesh(args.mesh)

    def trial(rng):
        config = Configuration(random_embedding_map(cx, rng))
        icx = config.image_complex
        chains = [random_chain(icx, cx.dim - 1, rng) for _ in range(cx.dim)]
        cochains = tuple(Cochain.from_terms(icx, cx.dim - 1, T.idx, T.val) for T in chains)
        body = random_body(cx, rng)
        v = VirtualVelocity([random_sharp_field(icx, rng) for _ in range(cx.dim)])
        return {"residual": virtual_power_report(cochains, config, body.chain, v).residual}

    return _campaign(args, "virtual-power", trial, _within_tolerance(args, "max_residual", "residual"))


def cmd_verify_balance(args) -> int:
    flux = flux_from_cochains(io.load_flux(args.flux))
    cx = flux.complex
    surfaces, velocities, bodies = [], [], []

    def trial(rng):
        body = random_body(cx, rng).chain
        v = VirtualVelocity([random_sharp_field(cx, rng) for _ in range(cx.dim)])
        bodies.append(body)
        surfaces.append(body.boundary())
        velocities.append(v)
        est = estimate_balance_constants(flux, surfaces[-1:], [v], [body], enforce=False)
        return {"s_ratio": est.s_emp, "b_ratio": est.b_emp}

    def verdict(_rows):
        # the constants bound every surface-velocity pair, not only each trial's own
        est = estimate_balance_constants(flux, surfaces, velocities, bodies, enforce=False)
        return {
            "s_declared": flux.s,
            "b_declared": flux.b,
            "s_empirical": est.s_emp,
            "b_empirical": est.b_emp,
            "witness_s": list(est.s_witness) if est.s_witness else None,
            "witness_b": list(est.b_witness) if est.b_witness else None,
            "passed": est.s_emp <= flux.s * (1.0 + 1e-9) and est.b_emp <= flux.b * (1.0 + 1e-9),
        }

    return _campaign(args, "balance", trial, verdict)


def _rekey_cochain(X: Cochain, target) -> Cochain:
    """Re-express a cochain on a geometrically identical complex.

    A vertex matches the target vertex on the same point of a grid of
    DEGEN_TOL times the target's diameter, the grid on which a PA map's image
    complex merges vertices; a simplex matches the target simplex on the
    matched vertices, and its coefficient changes sign with the vertex order.
    """
    k, src = X.degree, X.complex
    nt = len(target.vertices)
    h = DEGEN_TOL * target.diameter() or 1.0
    grid = np.round(np.vstack([target.vertices, src.vertices]) / h)
    cls = np.unique(grid, axis=0, return_inverse=True)[1].ravel()  # grid point of each vertex, target's first
    owner = np.full(len(cls), -1)  # per grid point, the target vertex on it
    owner[cls[:nt]] = np.arange(nt)
    img = owner[cls[nt:]][src.arrays[k][X.idx]]
    stored = target.arrays[k]
    want, have = _row_codes(np.sort(img, axis=1), np.sort(stored, axis=1), nv=nt)
    order = np.argsort(have)
    j = order[np.minimum(np.searchsorted(have, want, sorter=order), len(order) - 1)]
    if (img < 0).any() or (have[j] != want).any() or len(np.unique(j)) < len(j):
        raise SchemaViolation("flux mesh does not match the configuration's image mesh")
    return Cochain.from_terms(target, k, j, sort_parity(img) * sort_parity(stored[j]) * X.val)


def cmd_stress_report(args) -> int:
    cochains = io.load_flux(args.flux)
    pamap = io.load_pamap(args.map)
    config = Configuration(pamap)
    body = io.load_chain(args.body, mesh=pamap.source)
    fields = io.load_sharp_field(args.velocity, mesh=config.image_complex)
    if isinstance(fields, SharpField):
        raise SchemaViolation(f"{args.velocity}: velocity file needs 'components'")
    cochains = tuple(_rekey_cochain(X, config.image_complex) for X in cochains)
    rep = stress_report(cochains, config, body, VirtualVelocity(fields))
    ok = rep.max_deviation <= args.tolerance
    report = {
        "check": "stress-frames",
        "spatial": {"surface": rep.spatial[0], "body": rep.spatial[1], "internal": rep.spatial[2]},
        "material": {
            "surface": rep.material[0],
            "body": rep.material[1],
            "internal": rep.material[2],
        },
        "max_deviation": rep.max_deviation,
        "tolerance": args.tolerance,
        "passed": ok,
    }
    _emit(report, args.out)
    return 0 if ok else 1


# (subcommand, handler, default --trials, default --tolerance) of the campaigns on a --mesh
_MESH_CAMPAIGNS = (
    ("stokes", cmd_verify_stokes, 50, 1e-10),
    ("product-rule", cmd_verify_product_rule, 50, 1e-9),
    ("virtual-power", cmd_verify_virtual_power, 20, 1e-8),
)


@functools.cache  # parse_args leaves the parser unchanged, so one tree serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roughbody")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="mesh utilities")
    msub = p.add_subparsers(dest="subcommand", required=True)
    v = msub.add_parser("validate", help="schema and invariant checks")
    v.add_argument("--mesh", required=True)
    v.add_argument("--out")
    v.set_defaults(func=cmd_mesh_validate)

    p = sub.add_parser("flatnorm", help="flat norm of a chain with decomposition")
    p.add_argument("--mesh", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--subdivide", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_flatnorm)

    p = sub.add_parser("fractal", help="generate a prefractal body")
    p.add_argument("--type", default="koch")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fractal)

    p = sub.add_parser("flux", help="Cauchy flux operations")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    b = fsub.add_parser("build", help="flux from a cochain tuple")
    b.add_argument("--cochain", action="append", required=True)
    b.add_argument("--mesh-ref", help="mesh path to record in the flux file")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_flux_build)
    e = fsub.add_parser("eval", help="evaluate a flux on a surface and velocity")
    e.add_argument("--flux", required=True)
    e.add_argument("--surface", required=True)
    e.add_argument("--velocity", required=True)
    e.add_argument("--out")
    e.set_defaults(func=cmd_flux_eval)
    r = fsub.add_parser("roundtrip", help="recover cochains and compare")
    r.add_argument("--flux", required=True)
    r.add_argument("--out")
    r.set_defaults(func=cmd_flux_roundtrip)

    p = sub.add_parser("verify", help="randomized verification campaigns")
    vsub = p.add_subparsers(dest="subcommand", required=True)
    for name, func, trials, tolerance in _MESH_CAMPAIGNS:
        c = vsub.add_parser(name)
        c.add_argument("--mesh", required=True)
        c.add_argument("--trials", type=int, default=trials)
        c.add_argument("--seed", type=int, default=0)
        c.add_argument("--tolerance", type=float, default=tolerance)
        c.add_argument("--out")
        c.set_defaults(func=func)
    ba = vsub.add_parser("balance")
    ba.add_argument("--flux", required=True)
    ba.add_argument("--trials", type=int, default=20)
    ba.add_argument("--seed", type=int, default=0)
    ba.add_argument("--out")
    ba.set_defaults(func=cmd_verify_balance)

    p = sub.add_parser("stress", help="stress representations")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    sr = ssub.add_parser("report")
    sr.add_argument("--flux", required=True)
    sr.add_argument("--map", required=True)
    sr.add_argument("--body", required=True)
    sr.add_argument("--velocity", required=True)
    sr.add_argument("--tolerance", type=float, default=1e-8)
    sr.add_argument("--out")
    sr.set_defaults(func=cmd_stress_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaViolation, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(io.dumps_report({"error": str(exc), "kind": type(exc).__name__}))
        return 2
    except RoughBodyError as exc:
        sys.stderr.write(io.dumps_report({"error": str(exc), "kind": type(exc).__name__}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
