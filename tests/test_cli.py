import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughbody import io
from roughbody.cli import main
from roughbody.errors import SchemaViolation
from roughbody.generate import cube_mesh, grid_mesh


@pytest.fixture
def square_files(tmp_path):
    mesh = {
        "dim": 2,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "simplices": {"2": [[0, 1, 2], [0, 2, 3]]},
    }
    mesh_path = tmp_path / "square.json"
    mesh_path.write_text(json.dumps(mesh))
    cx = io.load_mesh(mesh_path)
    body = {"mesh": "square.json", "degree": 2, "coefficients": [[0, 1.0], [1, 1.0]]}
    body_path = tmp_path / "body.json"
    body_path.write_text(json.dumps(body))
    return tmp_path, mesh_path, body_path, cx


_REPORT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=5),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_),
    st.floats().map(np.array),  # 0-d: json.dumps(_plain(...)) raises TypeError
    st.lists(st.floats(), max_size=4).map(np.array),  # 1-D, empty included
    st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda s: st.lists(st.floats(), min_size=s[0] * s[1], max_size=s[0] * s[1]).map(
            lambda v: np.array(v, dtype=float).reshape(s)
        )
    ),
)
_REPORTS = st.recursive(
    _REPORT_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4) | st.integers(-3, 3), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_REPORTS)
def test_dumps_report_writes_the_bytes_of_json_dumps(data):
    try:
        want = json.dumps(io._plain(data), sort_keys=True, indent=1) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            io.dumps_report(data)
        return
    assert io.dumps_report(data) == want


class TestIO:
    def test_mesh_round_trip(self, tmp_path):
        cx = grid_mesh(2, 2)
        io.save_mesh(cx, tmp_path / "m.json")
        back = io.load_mesh(tmp_path / "m.json")
        assert back.n_simplices(2) == cx.n_simplices(2)
        assert np.allclose(back.vertices, cx.vertices)

    def test_malformed_mesh_points_at_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "vertices": [[0, 0]]}))
        with pytest.raises(SchemaViolation, match="simplices"):
            io.load_mesh(bad)

    def test_bad_coefficient_index(self, square_files):
        tmp_path, mesh_path, _, _ = square_files
        chain = {"mesh": "square.json", "degree": 1, "coefficients": [[99, 1.0]]}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(chain))
        with pytest.raises(SchemaViolation, match="out of range"):
            io.load_chain(p)

    def test_chain_round_trip(self, square_files):
        tmp_path, mesh_path, body_path, cx = square_files
        chain = io.load_chain(body_path, mesh=cx)
        io.save_chain(chain, tmp_path / "c2.json", "square.json")
        again = io.load_chain(tmp_path / "c2.json", mesh=cx)
        assert again.coeffs == chain.coeffs


class TestCLI:
    def test_mesh_validate(self, square_files, capsys):
        _, mesh_path, _, _ = square_files
        assert main(["mesh", "validate", "--mesh", str(mesh_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] and out["simplices"]["1"] == 5

    def test_malformed_mesh_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "vertices": "nope"}))
        assert main(["mesh", "validate", "--mesh", str(bad)]) == 2

    def test_non_finite_vertex_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        verts = [[0, 0], [1, 0], [0, float("nan")]]
        bad.write_text(json.dumps({"dim": 2, "vertices": verts, "simplices": {"2": [[0, 1, 2]]}}))
        assert main(["mesh", "validate", "--mesh", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValueError" and "vertex 2" in err["error"]

    def test_koch_level5_mesh_validates(self, tmp_path, capsys):
        out_path = tmp_path / "k5.json"
        assert main(["fractal", "--type", "koch", "--level", "5", "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["mesh", "validate", "--mesh", str(tmp_path / "k5.mesh.json")]) == 0
        assert json.loads(capsys.readouterr().out)["valid"]

    def test_flatnorm_square_boundary(self, square_files, tmp_path, capsys):
        _, mesh_path, _, cx = square_files
        bnd = io.load_chain(square_files[2], mesh=cx).boundary()
        io.save_chain(bnd, tmp_path / "bnd.json", "square.json")
        code = main(
            ["flatnorm", "--mesh", str(mesh_path), "--chain", str(tmp_path / "bnd.json")]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(1.0, abs=1e-9)

    def test_fractal_koch(self, tmp_path, capsys):
        out_path = tmp_path / "koch.json"
        assert main(["fractal", "--type", "koch", "--level", "3", "--out", str(out_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["perimeter"] == pytest.approx(3 * (4 / 3) ** 3, abs=1e-9)
        body = io.load_chain(out_path)
        assert body.mass() == pytest.approx(report["area"], abs=1e-12)

    def test_verify_stokes(self, square_files, tmp_path, capsys):
        _, mesh_path, _, _ = square_files
        out = tmp_path / "stokes.json"
        code = main(
            [
                "verify",
                "stokes",
                "--mesh",
                str(mesh_path),
                "--trials",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists() and out.with_suffix(".csv").exists()

    def test_verify_product_rule(self, square_files, capsys):
        _, mesh_path, _, _ = square_files
        assert (
            main(["verify", "product-rule", "--mesh", str(mesh_path), "--trials", "5"]) == 0
        )

    def test_verify_virtual_power(self, square_files, capsys):
        _, mesh_path, _, _ = square_files
        assert (
            main(["verify", "virtual-power", "--mesh", str(mesh_path), "--trials", "3"]) == 0
        )

    def test_flux_build_eval_roundtrip(self, square_files, tmp_path, capsys):
        tmp, mesh_path, body_path, cx = square_files
        rng = np.random.default_rng(0)
        from roughbody.forms import Cochain

        for i in range(2):
            X = Cochain(cx, 1, {j: float(rng.normal()) for j in range(cx.n_simplices(1))})
            io.save_cochain(X, tmp / f"x{i}.json", "square.json")
        flux_path = tmp / "flux.json"
        assert (
            main(
                [
                    "flux",
                    "build",
                    "--cochain",
                    str(tmp / "x0.json"),
                    "--cochain",
                    str(tmp / "x1.json"),
                    "--out",
                    str(flux_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # evaluate on the body boundary with a constant velocity
        surf = io.load_chain(body_path, mesh=cx).boundary()
        io.save_chain(surf, tmp / "surf.json", "square.json")
        vel = {"mesh": "square.json", "components": [[1.0] * 4, [0.0] * 4]}
        (tmp / "vel.json").write_text(json.dumps(vel))
        assert (
            main(
                [
                    "flux",
                    "eval",
                    "--flux",
                    str(flux_path),
                    "--surface",
                    str(tmp / "surf.json"),
                    "--velocity",
                    str(tmp / "vel.json"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["flux", "roundtrip", "--flux", str(flux_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"]
        assert out["max_coefficient_error"] <= 1e-9

    def test_verify_balance(self, square_files, tmp_path, capsys):
        tmp, mesh_path, _, cx = square_files
        rng = np.random.default_rng(1)
        from roughbody.forms import Cochain

        for i in range(2):
            X = Cochain(cx, 1, {j: float(rng.normal()) for j in range(cx.n_simplices(1))})
            io.save_cochain(X, tmp / f"bx{i}.json", "square.json")
        flux_path = tmp / "bflux.json"
        main(
            [
                "flux",
                "build",
                "--cochain",
                str(tmp / "bx0.json"),
                "--cochain",
                str(tmp / "bx1.json"),
                "--out",
                str(flux_path),
            ]
        )
        capsys.readouterr()
        assert main(["verify", "balance", "--flux", str(flux_path), "--trials", "5"]) == 0

    def test_seed_env_override(self, square_files, tmp_path, capsys, monkeypatch):
        _, mesh_path, _, _ = square_files
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        monkeypatch.setenv("ROUGHBODY_SEED", "7")
        main(["verify", "stokes", "--mesh", str(mesh_path), "--trials", "3", "--seed", "1", "--out", str(out1)])
        main(["verify", "stokes", "--mesh", str(mesh_path), "--trials", "3", "--seed", "2", "--out", str(out2)])
        # env var wins over the flag, so both runs are byte-identical
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "check,mesh", [("product-rule", "grid3"), ("product-rule", "cube1"), ("virtual-power", "grid3")]
    )
    def test_campaign_output_is_deterministic(self, check, mesh, tmp_path):
        # the campaigns whose values go through Whitney realization and sharp products
        mesh_path = tmp_path / f"{mesh}.json"
        io.save_mesh(grid_mesh(3, 3) if mesh == "grid3" else cube_mesh(1, 1, 1), mesh_path)
        runs = []
        for run in ("a", "b"):
            out = tmp_path / f"{check}-{run}.json"
            main(["verify", check, "--mesh", str(mesh_path), "--trials", "3", "--seed", "5", "--out", str(out)])
            runs.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][0])["trials"] == 3 and runs[0][1].count(b"\n") == 4

    def test_stress_report_is_deterministic(self, tmp_path, capsys):
        # the material powers pair pulled-back Whitney forms with the body, one contraction per carrier degree
        from roughbody.generate import random_body, random_cochain, random_embedding_map
        from roughbody.mesh import build_complex

        rng = np.random.default_rng(23)
        cx = grid_mesh(3, 3)
        io.save_mesh(cx, tmp_path / "grid3.json")
        images = random_embedding_map(cx, rng).images
        (tmp_path / "map.json").write_text(json.dumps({"mesh": "grid3.json", "images": images.tolist()}))
        io.save_mesh(build_complex(images, {2: cx.arrays[2]}, check_overlap=False), tmp_path / "image.json")
        icx = io.load_mesh(tmp_path / "image.json", check_overlap=False)
        cochains = []
        for i in range(2):
            io.save_cochain(random_cochain(icx, 1, rng), tmp_path / f"x{i}.json", "image.json")
            cochains += ["--cochain", str(tmp_path / f"x{i}.json")]
        assert main(["flux", "build", *cochains, "--out", str(tmp_path / "flux.json")]) == 0
        io.save_chain(random_body(cx, rng).chain, tmp_path / "body.json", "grid3.json")
        velocity = {"mesh": "image.json", "components": rng.normal(size=(2, len(images))).tolist()}
        (tmp_path / "velocity.json").write_text(json.dumps(velocity))
        argv = ["stress", "report", "--flux", str(tmp_path / "flux.json"), "--map", str(tmp_path / "map.json"),
                "--body", str(tmp_path / "body.json"), "--velocity", str(tmp_path / "velocity.json")]
        capsys.readouterr()
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append(capsys.readouterr().out.encode())
        assert runs[0] == runs[1]
        assert json.loads(runs[0])["passed"]

    def test_stress_report_cli(self, square_files, tmp_path, capsys):
        tmp, mesh_path, body_path, cx = square_files
        rng = np.random.default_rng(3)
        from roughbody.forms import Cochain
        from roughbody.maps import PAMap

        # identity map: image mesh coincides with the source mesh file
        images = {"mesh": "square.json", "images": [[float(x), float(y)] for x, y in cx.vertices]}
        (tmp / "map.json").write_text(json.dumps(images))
        pm = PAMap(cx, cx.vertices.copy())
        icx = pm.image_complex
        io.save_mesh(icx, tmp / "image.json")
        for i in range(2):
            X = Cochain(icx, 1, {j: float(rng.normal()) for j in range(icx.n_simplices(1))})
            io.save_cochain(X, tmp / f"sx{i}.json", "image.json")
        flux_path = tmp / "sflux.json"
        main(
            [
                "flux",
                "build",
                "--cochain",
                str(tmp / "sx0.json"),
                "--cochain",
                str(tmp / "sx1.json"),
                "--out",
                str(flux_path),
            ]
        )
        capsys.readouterr()
        vel = {"mesh": "image.json", "components": [[0.5] * 4, [0.0] * 4]}
        (tmp / "svel.json").write_text(json.dumps(vel))
        code = main(
            [
                "stress",
                "report",
                "--flux",
                str(flux_path),
                "--map",
                str(tmp / "map.json"),
                "--body",
                str(body_path),
                "--velocity",
                str(tmp / "svel.json"),
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0, out
        assert out["passed"]


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e6])
def test_rekey_cochain_is_scale_invariant(scale):
    # a 9-decimal absolute grid once sent all 33 edges of this mesh at scale
    # 1e-10 to one edge
    from roughbody.cli import _rekey_cochain
    from roughbody.forms import Cochain
    from roughbody.mesh import build_complex

    base = grid_mesh(3, 3)
    src = build_complex(base.vertices * scale, {2: base.simplices[2]}, check_overlap=False)
    tgt = build_complex(src.vertices, {2: base.simplices[2][::-1]}, check_overlap=False)
    X = Cochain(src, 1, {i: float(i + 1) for i in range(src.n_simplices(1))})
    Y = _rekey_cochain(X, tgt)
    assert len(Y.coeffs) == src.n_simplices(1) == 33
    for i, a in X.coeffs.items():
        u, v = src.simplices[1][i]
        j = tgt.index[1][frozenset((u, v))]
        assert Y.coeffs[j] == (a if tgt.simplices[1][j] == (u, v) else -a)


def _scaled_flux_file(tmp, cx, e):
    """A flux file built from two seeded 1-cochains scaled by 2^e."""
    from roughbody.forms import Cochain

    rng = np.random.default_rng(3)
    for i in range(2):
        X = Cochain(cx, 1, {j: 2.0**e * float(rng.normal()) for j in range(cx.n_simplices(1))})
        io.save_cochain(X, tmp / f"sx{i}.json", "square.json")
    flux_path = tmp / "sflux.json"
    args = ["flux", "build", "--cochain", str(tmp / "sx0.json"), "--cochain", str(tmp / "sx1.json")]
    assert main(args + ["--out", str(flux_path)]) == 0
    return flux_path


@pytest.mark.parametrize("e", [-60, -30, 0])
def test_flux_checks_are_scale_relative(e, square_files, capsys, monkeypatch):
    # a balanced flux passes both checks at every scale, and one whose
    # declared constants are 1000 times too small fails both
    tmp, _, _, cx = square_files
    flux_path = _scaled_flux_file(tmp, cx, e)
    capsys.readouterr()
    assert main(["flux", "roundtrip", "--flux", str(flux_path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert main(["verify", "balance", "--flux", str(flux_path), "--trials", "5"]) == 0
    capsys.readouterr()

    import roughbody.cli as cli
    from roughbody.mechanics import CauchyFlux

    honest = cli.flux_from_cochains

    def understated(cochains):
        flux = honest(cochains)
        return CauchyFlux(flux.components, s=flux.s / 1000, b=flux.b / 1000, complex=flux.complex)

    monkeypatch.setattr(cli, "flux_from_cochains", understated)
    assert main(["flux", "roundtrip", "--flux", str(flux_path)]) == 1
    assert not json.loads(capsys.readouterr().out)["bound_ok"]
    assert main(["verify", "balance", "--flux", str(flux_path), "--trials", "5"]) == 1


class TestNonFiniteInput:
    """A NaN or infinite value in an input file is an input error: exit 2 naming where it is."""

    def _expect_input_error(self, argv, capsys, where):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValueError" and where in err["error"]

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_flatnorm_chain(self, bad, square_files, capsys):
        tmp, mesh_path, _, _ = square_files
        (tmp / "c.json").write_text(f'{{"mesh": "square.json", "degree": 1, "coefficients": [[0, {bad}]]}}')
        argv = ["flatnorm", "--mesh", str(mesh_path), "--chain", str(tmp / "c.json")]
        self._expect_input_error(argv, capsys, "simplex 0")

    def test_flux_build_cochain(self, square_files, capsys):
        tmp, _, _, _ = square_files
        (tmp / "x.json").write_text('{"mesh": "square.json", "degree": 1, "coefficients": [[0, 1.0], [2, NaN]]}')
        argv = ["flux", "build", "--cochain", str(tmp / "x.json"), "--cochain", str(tmp / "x.json")]
        self._expect_input_error(argv + ["--out", str(tmp / "flux.json")], capsys, "simplex 2")
        assert not (tmp / "flux.json").exists()

    def test_flux_eval_velocity(self, square_files, capsys):
        tmp, _, body_path, cx = square_files
        flux_path = _scaled_flux_file(tmp, cx, 0)
        surf = io.load_chain(body_path, mesh=cx).boundary()
        io.save_chain(surf, tmp / "surf.json", "square.json")
        (tmp / "vel.json").write_text('{"mesh": "square.json", "components": [[NaN, 1, 1, 1], [0, 0, 0, 0]]}')
        capsys.readouterr()
        argv = ["flux", "eval", "--flux", str(flux_path), "--surface", str(tmp / "surf.json")]
        self._expect_input_error(argv + ["--velocity", str(tmp / "vel.json")], capsys, "vertex 0")


def _write_flux(tmp, components, degree=1):
    """A flux file on the square with the given raw component lists."""
    flux = {"mesh": "square.json", "degree": degree, "components": components, "s": 1.0, "b": 3.0}
    (tmp / "flux.json").write_text(json.dumps(flux))
    return tmp / "flux.json"


def _flux_commands(flux_path, tmp):
    """Every subcommand that reads a flux file; it is read before any other input."""
    return {
        "flux roundtrip": ["flux", "roundtrip", "--flux", str(flux_path)],
        "flux eval": ["flux", "eval", "--flux", str(flux_path), "--surface", str(tmp / "s.json"),
                      "--velocity", str(tmp / "v.json")],
        "verify balance": ["verify", "balance", "--flux", str(flux_path), "--trials", "2"],
        "stress report": ["stress", "report", "--flux", str(flux_path), "--map", str(tmp / "m.json"),
                          "--body", str(tmp / "b.json"), "--velocity", str(tmp / "v.json")],
    }


class TestCoefficientSchema:
    """Chain, cochain and flux files share one coefficient reader; its errors exit 2."""

    def _expect_schema_error(self, argv, capsys, where):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "SchemaViolation" and where in err["error"], err

    def test_flatnorm_repeated_index(self, square_files, capsys):
        tmp, mesh_path, _, _ = square_files
        chain = {"mesh": "square.json", "degree": 2, "coefficients": [[0, 1.0], [0, 5.0], [1, 1.0]]}
        (tmp / "c.json").write_text(json.dumps(chain))
        argv = ["flatnorm", "--mesh", str(mesh_path), "--chain", str(tmp / "c.json")]
        self._expect_schema_error(argv, capsys, f"{tmp / 'c.json'}: coefficient index 0 is listed twice")

    def test_cochain_repeated_index(self, square_files):
        tmp, _, _, _ = square_files
        cochain = {"mesh": "square.json", "degree": 1, "coefficients": [[3, 1.0], [3, 1.0]]}
        (tmp / "x.json").write_text(json.dumps(cochain))
        with pytest.raises(SchemaViolation, match="index 3 is listed twice"):
            io.load_cochain(tmp / "x.json")

    def test_flux_roundtrip_repeated_index(self, square_files, capsys):
        tmp, _, _, _ = square_files
        flux_path = _write_flux(tmp, [[[0, 1.0], [2, 1.0]], [[4, 1.0], [2, 0.5], [4, 2.0]]])
        argv = ["flux", "roundtrip", "--flux", str(flux_path)]
        self._expect_schema_error(argv, capsys, f"{flux_path} component 1: coefficient index 4 is listed twice")

    @pytest.mark.parametrize("command", ["flux roundtrip", "flux eval", "verify balance", "stress report"])
    @pytest.mark.parametrize("bad", [-1, 5])
    def test_flux_index_out_of_range(self, command, bad, square_files, capsys):
        tmp, _, _, cx = square_files
        assert cx.n_simplices(1) == 5
        flux_path = _write_flux(tmp, [[[0, 1.0]], [[bad, 1.0]]])
        argv = _flux_commands(flux_path, tmp)[command]
        self._expect_schema_error(argv, capsys, f"coefficient index {bad} out of range for degree 1")

    @pytest.mark.parametrize("command", ["flux roundtrip", "flux eval", "verify balance", "stress report"])
    @pytest.mark.parametrize("entry", [[0], [0, 1.0, 2.0], 0, [None, 1.0], ["1", 1.0], [1.5, 1.0], [True, 1.0]])
    def test_flux_entry_not_a_pair(self, command, entry, square_files, capsys):
        tmp, _, _, _ = square_files
        flux_path = _write_flux(tmp, [[[1, 1.0]], [entry]])
        argv = _flux_commands(flux_path, tmp)[command]
        self._expect_schema_error(argv, capsys, "is not [index, value]")

    @pytest.mark.parametrize("entry", [[0, "5"], [0, None], [0, [1.0]], [0, True]])
    def test_value_not_a_number(self, entry, square_files, capsys):
        tmp, mesh_path, _, _ = square_files
        chain = {"mesh": "square.json", "degree": 2, "coefficients": [entry]}
        (tmp / "c.json").write_text(json.dumps(chain))
        argv = ["flatnorm", "--mesh", str(mesh_path), "--chain", str(tmp / "c.json")]
        self._expect_schema_error(argv, capsys, "is not [index, value]")

    @pytest.mark.parametrize("degree", [1.5, "x", "1", None, True])
    def test_degree_not_an_integer(self, degree, square_files, capsys):
        tmp, mesh_path, _, _ = square_files
        chain = {"mesh": "square.json", "degree": degree, "coefficients": [[0, 1.0]]}
        (tmp / "c.json").write_text(json.dumps(chain))
        argv = ["flatnorm", "--mesh", str(mesh_path), "--chain", str(tmp / "c.json")]
        self._expect_schema_error(argv, capsys, "field 'degree' must be an integer")
        argv = ["flux", "roundtrip", "--flux", str(_write_flux(tmp, [[[0, 1.0]], [[1, 1.0]]], degree=degree))]
        self._expect_schema_error(argv, capsys, "field 'degree' must be an integer")

    def test_mesh_dim_not_an_integer(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"dim": True, "vertices": [[0.0], [1.0]], "simplices": {"1": [[0, 1]]}}))
        self._expect_schema_error(["mesh", "validate", "--mesh", str(bad)], capsys, "field 'dim' must be 1, 2 or 3")

    def test_flux_components_must_be_facet_cochains(self, square_files):
        tmp, _, _, _ = square_files
        with pytest.raises(SchemaViolation, match="a flux lists 2 components of degree 1"):
            io.load_flux(_write_flux(tmp, [[[0, 1.0]], [[1, 1.0]]], degree=0))

    @pytest.mark.parametrize("command", ["flux roundtrip", "flux eval", "verify balance", "stress report"])
    @pytest.mark.parametrize("components", [[], [[[0, 1.0]]], [[[0, 1.0]], [[1, 1.0]], [[2, 1.0]]]])
    def test_flux_component_count(self, command, components, square_files, capsys):
        tmp, _, _, _ = square_files
        argv = _flux_commands(_write_flux(tmp, components), tmp)[command]
        self._expect_schema_error(argv, capsys, "a flux lists 2 components of degree 1")

    def test_flux_build_needs_facet_cochains(self, square_files, capsys):
        tmp, _, _, _ = square_files
        (tmp / "x.json").write_text(json.dumps({"mesh": "square.json", "degree": 0, "coefficients": [[0, 1.0]]}))
        argv = ["flux", "build", "--cochain", str(tmp / "x.json"), "--cochain", str(tmp / "x.json")]
        assert main(argv + ["--out", str(tmp / "flux.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValueError" and "need 2 1-cochain components" in err["error"]
        assert not (tmp / "flux.json").exists()

    def test_flux_round_trip(self, square_files):
        tmp, _, _, cx = square_files
        from roughbody.forms import Cochain

        Xs = (Cochain(cx, 1, {0: 1.5, 3: -2.0}), Cochain(cx, 1, {4: 0.25}))
        io.save_flux(Xs, tmp / "f.json", "square.json", s=2.0, b=6.0)
        back = io.load_flux(tmp / "f.json")
        assert [X.coeffs for X in back] == [X.coeffs for X in Xs]
        assert back[0].complex is back[1].complex
        data = json.loads((tmp / "f.json").read_text())
        assert (data["mesh"], data["degree"], data["s"], data["b"]) == ("square.json", 1, 2.0, 6.0)


class TestFileSchema:
    """A malformed mesh, chain, flux or velocity file exits 2 as a SchemaViolation, never a traceback."""

    def _expect_schema_error(self, argv, capsys, where):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "SchemaViolation" and where in err["error"], err

    @pytest.mark.parametrize("command", ["mesh validate", "flatnorm", "flux roundtrip"])
    def test_top_level_not_an_object(self, command, square_files, capsys):
        tmp, mesh_path, _, _ = square_files
        (tmp / "five.json").write_text("5")
        argv = {
            "mesh validate": ["mesh", "validate", "--mesh", str(tmp / "five.json")],
            "flatnorm": ["flatnorm", "--mesh", str(mesh_path), "--chain", str(tmp / "five.json")],
            "flux roundtrip": ["flux", "roundtrip", "--flux", str(tmp / "five.json")],
        }[command]
        self._expect_schema_error(argv, capsys, "top-level JSON must be an object")

    def test_velocity_components_not_a_list(self, square_files, capsys):
        tmp, _, body_path, cx = square_files
        flux_path = _scaled_flux_file(tmp, cx, 0)
        io.save_chain(io.load_chain(body_path, mesh=cx).boundary(), tmp / "surf.json", "square.json")
        (tmp / "vel.json").write_text('{"mesh": "square.json", "components": 5}')
        capsys.readouterr()
        argv = ["flux", "eval", "--flux", str(flux_path), "--surface", str(tmp / "surf.json")]
        self._expect_schema_error(argv + ["--velocity", str(tmp / "vel.json")], capsys, "field 'components'")

    @pytest.mark.parametrize(
        "rows", [[5], 5, [[0, 1, 2.5]], [["0", 1, 2]], [[0, 1, True]], [[0, 1, 2], "012"], {"0": [0, 1, 2]}]
    )
    def test_simplex_rows_of_integer_ids(self, rows, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "simplices": {"2": rows}}))
        self._expect_schema_error(["mesh", "validate", "--mesh", str(bad)], capsys, "vertex id")

    @pytest.mark.parametrize(
        "vertices",
        [5, [["0.5", 0], [1, 0], [0, 1]], [[{}, 0], [1, 0], [0, 1]], [[True, 0], [1, 0], [0, 1]],
         [[0, 0], [1], [0, 1]], [[0, 0], [1, 0], [0, 10**400]]],
    )
    def test_vertex_coordinates_are_numbers(self, vertices, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"dim": 2, "vertices": vertices, "simplices": {"2": [[0, 1, 2]]}}))
        self._expect_schema_error(["mesh", "validate", "--mesh", str(bad)], capsys, "field 'vertices'")

    @pytest.mark.parametrize("entry", ['"0.5"', "{}", "true"])
    def test_images_and_velocities_are_numbers(self, entry, square_files, capsys):
        tmp, _, body_path, cx = square_files
        flux_path = _scaled_flux_file(tmp, cx, 0)
        io.save_chain(io.load_chain(body_path, mesh=cx).boundary(), tmp / "surf.json", "square.json")
        (tmp / "vel.json").write_text(f'{{"mesh": "square.json", "components": [[{entry}, 0, 0, 0], [0, 0, 0, 0]]}}')
        (tmp / "map.json").write_text(f'{{"mesh": "square.json", "images": [[{entry}, 0], [1, 0], [1, 1], [0, 1]]}}')
        capsys.readouterr()
        argv = ["flux", "eval", "--flux", str(flux_path), "--surface", str(tmp / "surf.json")]
        self._expect_schema_error(argv + ["--velocity", str(tmp / "vel.json")], capsys, "field 'components'")
        argv = ["stress", "report", "--flux", str(flux_path), "--map", str(tmp / "map.json"),
                "--body", str(body_path), "--velocity", str(tmp / "vel.json")]
        self._expect_schema_error(argv, capsys, "field 'images'")

    def test_vertex_id_beyond_any_index(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        rows = [[0, 1, 10**30]]
        bad.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "simplices": {"2": rows}}))
        assert main(["mesh", "validate", "--mesh", str(bad)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValueError"


# the CSV columns README documents for each campaign, and each report's keys
CAMPAIGN_TABLES = {
    "stokes": (["trial", "simplices", "deviation"], {"max_deviation", "tolerance"}),
    "product-rule": (
        ["trial", "identity_residual", "bounds_ok"],
        {"max_identity_residual", "bound_failures", "tolerance"},
    ),
    "virtual-power": (["trial", "residual"], {"max_residual", "tolerance"}),
    "balance": (
        ["trial", "s_ratio", "b_ratio"],
        {"s_declared", "b_declared", "s_empirical", "b_empirical", "witness_s", "witness_b"},
    ),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGN_TABLES))
def test_campaign_tables_match_readme(name, square_files, capsys):
    tmp, mesh_path, _, cx = square_files
    columns, fields = CAMPAIGN_TABLES[name]
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    assert f"`verify {name}` emits `{', '.join(columns)}`" in readme
    source = ["--flux", str(_scaled_flux_file(tmp, cx, 0))] if name == "balance" else ["--mesh", str(mesh_path)]
    out = tmp / f"{name}.json"
    assert main(["verify", name, *source, "--trials", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"check", "trials", "seed", "passed"} | fields
    assert report["check"] == name and report["trials"] == 2
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == ",".join(columns) and len(lines) == 3
