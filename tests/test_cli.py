"""End-to-end command-line interface tests."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decfem import abstr, cup_product, diagonal_hodge, load_mesh, matrix_to_coordinate_text, meshes
from decfem import cli, hodge, poisson, whitney
from decfem.cli import main
from decfem.whitney import Cochain, cochain_from_json, cochain_to_json

from conftest import sliver_square_json
from test_hodge import old_galerkin_scatter

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(meshes.mesh_to_json(meshes.split_square()))
    return path


@pytest.fixture()
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(meshes.mesh_to_json(meshes.torus_minimal()))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(capsys, square_file):
    code, out, _ = run(capsys, "info", square_file)
    assert code == 0
    assert "Euler characteristic: 1" in out


def test_betti_torus(capsys, torus_file):
    code, out, _ = run(capsys, "betti", torus_file)
    assert code == 0
    assert "beta = 1 2 1" in out
    assert "torsion: none" in out


def test_betti_projective_plane(capsys, tmp_path):
    path = tmp_path / "rp2.json"
    path.write_text(meshes.mesh_to_json(meshes.projective_plane_minimal()))
    code, out, _ = run(capsys, "betti", path)
    assert code == 0
    assert "beta = 1 0 0" in out
    assert "H_1: [2]" in out


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "betti", "does-not-exist.json")
    assert code == 1
    assert "does-not-exist.json" in err


def test_usage_error_exits_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["betti"]) == 2
    capsys.readouterr()
    assert main(["solve", "x.json", "--hodge", "bogus"]) == 2
    capsys.readouterr()


def test_generators_json(capsys, torus_file):
    code, out, _ = run(capsys, "generators", torus_file, "--degree", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["1"]) == 2


# `decfem generators` text; a vertex prints as a one-tuple, `(0,)`.  The
# chains come from the coreduced complex, lifted back through its pairs.
GENERATORS_TEXT = {
    ("annulus.json",): (
        "degree 0: 1 generator(s)\n"
        "  1 (0,)\n"
        "degree 1: 1 generator(s)\n"
        "  1 (0, 1)  -1 (0, 9)  1 (1, 2)  1 (2, 3)  1 (3, 4)  1 (4, 15)  1 (7, 8)"
        "  -1 (7, 17)  1 (8, 9)  1 (15, 26)  -1 (17, 27)  1 (26, 27)\n"
        "degree 2: 0 generator(s)\n"
    ),
    ("torus.json", "--degree", "1"): (
        "degree 1: 2 generator(s)\n"
        "  1 (0, 7)  -1 (0, 35)  1 (7, 14)  1 (14, 21)  1 (21, 28)  1 (28, 35)\n"
        "  1 (0, 1)  -1 (0, 5)  1 (1, 2)  1 (2, 32)  1 (4, 5)  -1 (4, 33)"
        "  1 (32, 33)\n"
    ),
}


@pytest.mark.parametrize("argv", GENERATORS_TEXT, ids=lambda argv: " ".join(argv))
def test_generators_text(capsys, argv):
    code, out, _ = run(capsys, "generators", FIXTURES / argv[0], *argv[1:])
    assert code == 0
    assert out == GENERATORS_TEXT[argv]


def test_harmonic_export(capsys, tmp_path, torus_file):
    out_path = tmp_path / "basis.json"
    code, out, _ = run(
        capsys, "harmonic", torus_file, "--degree", "1", "--out", out_path
    )
    assert code == 0
    assert "harmonic dimension 2" in out
    payload = json.loads(out_path.read_text())
    assert payload["1"]["dimension"] == 2
    ac = abstr(meshes.torus_minimal())
    restored = cochain_from_json(ac, payload["1"]["vectors"][0])
    assert restored.degree == 1


def uncached_fingerprint(ac):
    """The complex hash as computed before it was cached on the complex."""
    payload = json.dumps([level.tolist() for level in ac.simplex_arrays], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_harmonic_json_is_unchanged_by_the_cached_fingerprint(capsys, monkeypatch):
    argv = ("harmonic", FIXTURES / "torus.json", "--json")
    code, cached, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(whitney, "complex_fingerprint", uncached_fingerprint)
    code, uncached, _ = run(capsys, *argv)
    assert code == 0
    assert cached == uncached
    assert sum(len(degree["vectors"]) for degree in json.loads(cached).values()) == 4


def test_harmonic_hashes_the_complex_once(capsys, monkeypatch):
    calls = []
    sha256 = hashlib.sha256

    def counted(*args, **kwargs):
        calls.append(1)
        return sha256(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counted)
    code, _, _ = run(capsys, "harmonic", FIXTURES / "torus.json", "--json")
    assert code == 0
    assert len(calls) == 1


def test_harmonic_help_says_degree_selects_the_output_only(capsys):
    code, out, _ = run(capsys, "harmonic", "--help")
    assert code == 0
    assert "output degree p only (every degree is computed" in " ".join(out.split())


def test_hodge_export_round_trip(capsys, tmp_path, square_file):
    out_path = tmp_path / "m1.txt"
    code, _, _ = run(
        capsys, "hodge", square_file, "--degree", "1", "--out", out_path
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    rows, cols, nnz = (int(tok) for tok in lines[0].split())
    assert rows == cols == 5
    assert len(lines) - 1 == nnz


def test_hodge_diagonal_on_stdout(capsys):
    path = FIXTURES / "square.json"
    code, out, _ = run(capsys, "hodge", path, "--degree", "1", "--hodge", "diagonal")
    assert code == 0
    gc = load_mesh(path.read_text())
    assert out == matrix_to_coordinate_text(diagonal_hodge(gc, abstr(gc), 1))


@pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
@pytest.mark.parametrize("degree", ["-1", "3"])
def test_hodge_rejects_a_degree_outside_the_complex(capsys, kind, degree):
    code, out, err = run(capsys, "hodge", FIXTURES / "square.json", "--degree", degree, "--hodge", kind)
    assert code == 1
    assert out == ""
    assert "outside 0..2" in err


def test_hodge_rejects_json_as_a_usage_error(capsys):
    code, out, err = run(capsys, "hodge", FIXTURES / "triangle.json", "--degree", "1", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: decfem")
    assert "unrecognized arguments: --json" in err


@pytest.mark.parametrize(
    "argv, options",
    [
        (["hodge", "square.json", "--json"], ["--degree", "--hodge", "--out"]),
        (["solve", "square.json", "--levels", "3"], ["--hodge", "--tol", "--manufactured"]),
    ],
)
def test_usage_errors_come_from_the_command_parser(capsys, argv, options):
    code, out, err = run(capsys, argv[0], FIXTURES / argv[1], *argv[2:])
    assert code == 2
    assert out == ""
    usage = err.split(": error:")[0]
    assert err.startswith(f"usage: decfem {argv[0]} ")
    assert all(option in usage for option in options)
    assert f"unrecognized arguments: {' '.join(argv[2:])}" in err


@pytest.mark.parametrize(
    "argv, usage, unknown",
    [
        (["--bogus", "info", "square.json"], "usage: decfem [-h] [--version]", "--bogus"),
        (["info", "square.json", "--bogus"], "usage: decfem info [-h]", "--bogus"),
        (["--bogus", "info", "square.json", "--late"], "usage: decfem [-h] [--version]", "--bogus"),
    ],
)
def test_usage_errors_come_from_the_parser_that_read_the_option(capsys, argv, usage, unknown):
    # An option before the command is the top-level parser's; after it, the command's.
    code, out, err = run(capsys, *(FIXTURES / a if a.endswith(".json") else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(usage)
    assert err.endswith(f"error: unrecognized arguments: {unknown}\n")


@pytest.mark.parametrize(
    "name, header, zeros, stored",
    [("square", "5 5 17", 8, "5 5 9"), ("triangle", "3 3 9", 4, "3 3 5"), ("tetrahedron_boundary", "6 6 30", 12, "6 6 18")],
)
def test_hodge_writes_no_stored_zeros(capsys, monkeypatch, name, header, zeros, stored):
    code, out, _ = run(capsys, "hodge", FIXTURES / f"{name}.json", "--degree", "1")
    assert code == 0
    gc = load_mesh((FIXTURES / f"{name}.json").read_text())
    monkeypatch.setattr(hodge, "_scatter", old_galerkin_scatter)  # the former one, zeros kept
    old = matrix_to_coordinate_text(hodge.galerkin_mass_matrix(gc, abstr(gc), 1)).splitlines()
    nonzero = [line for line in old[1:] if float(line.split()[2]) != 0]
    assert (old[0], len(old) - 1 - len(nonzero)) == (header, zeros)
    assert out.splitlines() == [stored, *nonzero]


@pytest.mark.parametrize("command", sorted(set(cli._HANDLERS) - {"hodge"}))
def test_every_other_command_accepts_json(command):
    cochains = ["a.json", "b.json"] if command == "cup" else []
    assert cli._build_parser().parse_args([command, "mesh.json", *cochains, "--json"]).json is True


@pytest.mark.parametrize("degree", ["-1", "3"])
def test_harmonic_rejects_a_degree_outside_the_complex(capsys, degree):
    code, out, err = run(capsys, "harmonic", FIXTURES / "square.json", "--degree", degree)
    assert code == 1
    assert out == ""
    assert "outside 0..2" in err


def test_usage_error_between_calls_leaves_the_parser_unchanged(capsys):
    # main builds its parser once per process: the second valid call, which
    # relies on the --hodge default, must print what a fresh process prints
    # even after a usage error and an explicit --hodge value.
    square = str(FIXTURES / "square.json")
    first = ["hodge", square, "--degree", "1", "--hodge", "diagonal"]
    second = ["hodge", square, "--degree", "1"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "decfem.cli", *argv], capture_output=True, text=True, env=env, check=True
        ).stdout
        for argv in (first, second)
    ]
    assert cli._build_parser() is cli._build_parser()
    assert run(capsys, *first)[:2] == (0, fresh[0])
    assert run(capsys, "hodge", square, "--hodge", "voronoi")[0] == 2
    assert run(capsys, *second)[:2] == (0, fresh[1])
    assert fresh[0] != fresh[1]


@pytest.mark.parametrize("command", ["hodge", "harmonic", "cup"])
def test_unwritable_out_exits_one(capsys, tmp_path, square_file, command):
    out_path = tmp_path / "missing" / "out.txt"
    inputs = []
    if command == "cup":
        a_path = tmp_path / "a.json"
        a_path.write_text(json.dumps(cochain_to_json(Cochain(abstr(meshes.split_square()), 0, np.ones(4)))))
        inputs = [a_path, a_path]
    code, _, err = run(capsys, command, square_file, *inputs, "--out", out_path)
    assert code == 1
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_solve_reports_errors(capsys, square_file):
    code, out, _ = run(capsys, "solve", square_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dofs"] == 4
    assert "l2_error" in payload


def test_solve_rejects_negative_tolerance(capsys, square_file):
    code, out, err = run(capsys, "solve", square_file, "--tol", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "tolerance" in err
    assert "Traceback" not in err


def test_solve_sinsin_rejects_a_polyline(capsys, tmp_path):
    path = tmp_path / "polyline.json"
    path.write_text(
        json.dumps({"dimension": 1, "vertices": [[0, 0], [1, 0], [2, 1]], "simplices": [[0, 1], [1, 2]]})
    )
    code, out, err = run(capsys, "solve", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "complex dimension 1" in err


@pytest.mark.parametrize(
    "mesh, where",
    [
        (
            {"dimension": 1, "vertices": [[0], [1], [2]], "simplices": [[0, 1], [1, 2]]},
            "complex dimension 1 in R^1",
        ),
        (
            {
                "dimension": 2,
                "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 1]],
                "simplices": [[0, 1, 2], [0, 2, 3]],
            },
            "complex dimension 2 in R^3",
        ),
    ],
    ids=["segments-in-R1", "triangles-in-R3"],
)
def test_solve_affine_rejects_a_non_planar_mesh(capsys, tmp_path, mesh, where):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(mesh))
    code, out, err = run(capsys, "solve", path, "--manufactured", "affine")
    assert code == 1
    assert out == ""
    assert err == f"error: manufactured affine problem needs a planar 2-d mesh, not {where}\n"


def test_converge_gate_passes(capsys, square_file):
    code, out, _ = run(capsys, "converge", square_file, "--levels", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["levels"]) == 3


def test_cup_round_trip(capsys, tmp_path, square_file):
    gc = meshes.split_square()
    ac = abstr(gc)
    rng = np.random.default_rng(23)
    a = Cochain(ac, 0, rng.standard_normal(4))
    b = Cochain(ac, 1, rng.standard_normal(5))
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    out_path = tmp_path / "ab.json"
    a_path.write_text(json.dumps(cochain_to_json(a)))
    b_path.write_text(json.dumps(cochain_to_json(b)))
    code, _, _ = run(capsys, "cup", square_file, a_path, b_path, "--out", out_path)
    assert code == 0
    restored = cochain_from_json(ac, json.loads(out_path.read_text()))
    expected = cup_product(gc, a, b)
    np.testing.assert_allclose(restored.values, expected.values, atol=1e-14)


def test_cup_rejects_foreign_cochain(capsys, tmp_path, square_file):
    gc = meshes.disk()
    ac = abstr(gc)
    a = Cochain(ac, 0, np.zeros(ac.num_simplices(0)))
    a_path = tmp_path / "foreign.json"
    a_path.write_text(json.dumps(cochain_to_json(a)))
    code, _, err = run(capsys, "cup", square_file, a_path, a_path)
    assert code == 1
    assert "fingerprint" in err


def test_verify_passes_on_square(capsys, square_file):
    code, out, _ = run(capsys, "verify", square_file)
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda path: path.stem)
def test_verify_passes_every_check_on_each_fixture(capsys, path):
    code, out, _ = run(capsys, "verify", path, "--json")
    assert code == 0
    checks = json.loads(out)
    assert checks and all(check["pass"] for check in checks)


def test_verify_identity_check_bites_at_zero_tolerance(capsys):
    torus = FIXTURES / "torus.json"
    code, out, _ = run(capsys, "verify", torus, "--tol", "0")
    assert code == 1
    [line] = [ln for ln in out.splitlines() if "interpolate-then-integrate" in ln]
    assert line.startswith("FAIL")
    assert float(line.split("max dev ")[1].rstrip("]")) > 0.0
    assert "8/9 checks passed" in out


def sliver_file(tmp_path, eps):
    path = tmp_path / "sliver.json"
    path.write_text(sliver_square_json(eps))
    return path


def test_info_rejects_a_sliver_beyond_gradient_precision(capsys, tmp_path):
    code, out, err = run(capsys, "info", sliver_file(tmp_path, 1e-9))
    assert (code, out, err) == (1, "", "error: degenerate simplex 3\n")


def test_harmonic_reports_a_violated_gap(capsys, tmp_path):
    code, out, err = run(capsys, "harmonic", sliver_file(tmp_path, 1e-4), "--hodge", "diagonal")
    assert (code, out) == (1, "")
    assert err.startswith("error: harmonic gap violated at degree 1")
    assert len(err.splitlines()) == 1


def test_verify_lists_every_check_past_a_violated_gap(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", FIXTURES / "square.json", "--json")
    assert code == 0
    names = [check["check"] for check in json.loads(out)]
    code, out, _ = run(capsys, "verify", sliver_file(tmp_path, 1e-4), "--json")
    assert code == 1
    checks = {check["check"]: check for check in json.loads(out)}
    assert list(checks) == names
    assert checks["harmonic dimensions = Betti numbers (galerkin)"]["pass"]
    diagonal = checks["harmonic dimensions = Betti numbers (diagonal)"]
    assert not diagonal["pass"]
    assert diagonal["detail"].startswith("harmonic gap violated at degree 1")


# Quarter-decade scan of the sliver square from eps = 1e-2 down to 1.8e-7,
# just above the validation threshold (relative volume 1e-7).
SLIVER_EPS = [10 ** (-j / 4) for j in range(8, 28)]


@pytest.mark.parametrize("eps", SLIVER_EPS, ids=lambda eps: f"{eps:.1e}")
def test_verify_float_checks_on_slivers(capsys, tmp_path, eps):
    """Interpolate-then-integrate and cup Leibniz hold at every eps that
    validation accepts: the geometry of a planar triangle is read off its edge
    matrix E, never its Gram matrix, so it loses digits as cond(E), not
    cond(E)^2.  The stiffness entries grow as 1/eps, and the two routes agree
    within a few ulps of the largest one, which is below the absolute 1e-12
    tolerance down to eps = 1e-3."""
    path = sliver_file(tmp_path, eps)
    _, out, _ = run(capsys, "verify", path, "--json")
    checks = {check["check"]: check for check in json.loads(out)}
    assert checks["interpolate-then-integrate = identity (<= 1e-12)"]["pass"]
    assert checks["cup Leibniz rule (<= 1e-10)"]["pass"]
    stiffness = checks["stiffness coincidence (<= 1e-12)"]
    largest = np.abs(poisson.cotangent_stiffness(load_mesh(path.read_text())).toarray()).max()
    assert float(stiffness["detail"].split()[-1]) <= 8 * np.finfo(float).eps * largest
    if eps >= 1e-3:
        assert stiffness["pass"]


@pytest.mark.parametrize("eps", [None] + SLIVER_EPS[::4], ids=lambda eps: f"{eps:.1e}" if eps else "torus")
def test_stiffness_row_reads_the_deviation_of_the_dense_routes(capsys, tmp_path, eps):
    """The stiffness row compares the two sparse routes on the union of their
    patterns; its deviation is bitwise that of the dense m0 x m0 arrays."""
    gc = meshes.torus_grid(8, 8) if eps is None else load_mesh(sliver_square_json(eps))
    path = tmp_path / "mesh.json"
    path.write_text(meshes.mesh_to_json(gc))
    ac = abstr(gc)
    d0 = cli.matrices_for(ac).coboundary_csr(0)
    whitney_route, cotan_route = d0.T @ cli.galerkin_mass_matrix(gc, ac, 1) @ d0, poisson.cotangent_stiffness(gc)
    dense = float(np.abs(whitney_route.toarray() - cotan_route.toarray()).max())
    assert float(abs(whitney_route - cotan_route).max()).hex() == dense.hex()
    _, out, _ = run(capsys, "verify", path, "--json")
    (row,) = [c for c in json.loads(out) if c["check"] == "stiffness coincidence (<= 1e-12)"]
    assert row["detail"] == f"max dev {dense:.2e}" and row["pass"] == (dense <= 1e-12)


def test_verify_text_format_mesh(capsys, tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("2 2 3 1\n0 0\n1 0\n0 1\n0 1 2\n")
    code, out, _ = run(capsys, "info", path)
    assert code == 0
    assert "2-simplices: 1" in out


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda good: [1.0, 2.0], "must be a JSON object with keys degree, values and"),
        (lambda good: {"degree": 0, "fingerprint": "x"}, "must be a JSON object with keys"),
        (lambda good: dict(good, degree="zero"), "degree must be an integer"),
        (lambda good: dict(good, values=[None] * 4), "values a list of numbers"),
        (lambda good: dict(good, values=[0, float("nan"), 0, 0]), "value 1 is not a finite number"),
        (lambda good: dict(good, values=[float("inf"), 0, 0, 0]), "value 0 is not a finite number"),
        (lambda good: dict(good, values=[0, 0, -float("inf"), 0]), "value 2 is not a finite number"),
        (lambda good: dict(good, values=[0, 0, 0, 10**400]), "value 3 is not a finite number"),
    ],
    ids=[
        "list", "missing-key", "bad-degree", "null-values",
        "nan", "infinity", "minus-infinity", "int-beyond-float",
    ],
)
def test_cup_rejects_a_malformed_cochain_file(capsys, tmp_path, square_file, edit, message):
    good = cochain_to_json(Cochain(abstr(meshes.split_square()), 0, np.zeros(4)))
    bad_path, good_path = tmp_path / "bad.json", tmp_path / "good.json"
    bad_path.write_text(json.dumps(edit(good)))
    good_path.write_text(json.dumps(good))
    code, out, err = run(capsys, "cup", square_file, bad_path, good_path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def field_by_field_json_dict(report):
    """ConvergenceReport.to_json_dict written out one field at a time."""
    return {
        "levels": [
            {"h": lv.h, "dofs": lv.dofs, "l2_error": lv.l2_error, "energy_error": lv.energy_error}
            for lv in report.levels
        ],
        "l2_rates": report.l2_rates,
        "energy_rates": report.energy_rates,
    }


def test_converge_json_is_the_field_by_field_dict(capsys, monkeypatch):
    argv = ("converge", FIXTURES / "square.json", "--levels", "4", "--json")
    first = run(capsys, *argv)
    monkeypatch.setattr(poisson.ConvergenceReport, "to_json_dict", field_by_field_json_dict)
    assert run(capsys, *argv) == first
    assert first[0] == 0 and len(json.loads(first[1])["levels"]) == 4
