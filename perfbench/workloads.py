"""The benchmark's three workloads: task lists plus the checks on their outputs.

A workload is built once per setup from the seed and then run as passes.
Each task names the input it works on; ``run`` does the timed work and
``check`` (untimed) returns a list of failure messages.  Every pass starts
from fresh ``GeometricComplex`` objects (the CLI tasks re-read their mesh
files), so the library's per-complex caches never carry over from one pass
to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from decfem import chains, cli, homology, meshes
from decfem import mesh as dmesh

from . import inputs

# Finest-level L2 error of the Galerkin sin*sin study on split_square at
# this commit, keyed by the number of levels.  The tolerance admits any
# solver stopped at the same 1e-10 residual: on the 6-level study an exact
# sparse solve moves the value by 1.5e-11 relative.
REFERENCE_L2 = {
    4: 0.008373510428620895,
    5: 0.002110026349006843,
}
L2_REL_TOL = 1e-6

TORUS = {"betti": [1, 2, 1], "torsion": [[], [], []]}
PROJECTIVE_PLANE = {"betti": [1, 0, 0], "torsion": [[], [2], []]}
CUBE_BETTI = [1, 0, 0, 0]

# Input sizes per workload: the measured ones and the tiny warm-up ones.
SIZES = {
    "poisson_converge": ({"levels": 5}, {"levels": 4}),
    "homology_surfaces": ({"torus": 16, "rp2": 2}, {"torus": 3, "rp2": 0}),
    "verify_harmonic": ({"torus": 8, "cube": 2}, {"torus": 3, "cube": 1}),
}


@dataclass
class Task:
    name: str
    largest: bool
    run: Callable[[], object]
    check: Callable[[object], list]


def run_cli(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_json(result, failures: list):
    code, text = result
    if code != 0:
        failures.append(f"exit code {code}")
        return None
    return json.loads(text)


def _write(workdir: Path, label: str, gc) -> str:
    path = workdir / f"{label}.json"
    path.write_text(meshes.mesh_to_json(gc))
    return str(path)


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= L2_REL_TOL * abs(reference)


def _poisson(rng, workdir: Path, size: dict) -> list:
    levels = size["levels"]
    reference = REFERENCE_L2[levels]
    base = _write(workdir, "square", inputs.square(0, rng))
    finest_gc = inputs.square(levels, rng)
    finest = _write(workdir, "square_finest", finest_gc)
    dofs = finest_gc.num_vertices

    def check_converge(result):
        failures = []
        payload = _cli_json(result, failures)
        if payload is None:
            return failures
        lo, hi = cli.GALERKIN_RATE_WINDOW
        rate = payload["final_l2_rate"]
        if not payload["pass"] or rate is None or not lo <= rate <= hi:
            failures.append(f"final L2 rate {rate} outside [{lo}, {hi}]")
        l2 = payload["levels"][-1]["l2_error"]
        if not _close(l2, reference):
            failures.append(f"finest L2 error {l2!r} vs recorded {reference!r}")
        return failures

    def check_solve(result):
        failures = []
        payload = _cli_json(result, failures)
        if payload is None:
            return failures
        if payload["dofs"] != dofs:
            failures.append(f"{payload['dofs']} dofs, expected {dofs}")
        if not _close(payload["l2_error"], reference):
            failures.append(f"L2 error {payload['l2_error']!r} vs recorded {reference!r}")
        return failures

    return [
        Task(
            "converge square",
            False,
            lambda: run_cli(["converge", base, "--levels", str(levels), "--json"]),
            check_converge,
        ),
        Task("solve finest", True, lambda: run_cli(["solve", finest, "--json"]), check_solve),
    ]


def _homology_task(name: str, gc, expected: dict, largest: bool) -> Task:
    def run():
        fresh = dmesh.GeometricComplex(gc.vertices, gc.top_simplices)
        cm = chains.matrices_for(dmesh.abstr(fresh))
        betti = homology.betti_numbers(cm)
        torsion = [homology.torsion_coefficients(cm, p) for p in range(cm.complex_dim + 1)]
        return cm, betti, torsion, homology.homology_generators(cm, 1)

    def check(result):
        cm, betti, torsion, gens = result
        failures = []
        if betti != expected["betti"]:
            failures.append(f"betti {betti}, expected {expected['betti']}")
        if torsion != expected["torsion"]:
            failures.append(f"torsion {torsion}, expected {expected['torsion']}")
        if len(gens) != expected["betti"][1]:
            failures.append(f"{len(gens)} degree-1 generators, expected {expected['betti'][1]}")
        for g in gens:
            if not all(type(c) is int for c in g) or not any(g):
                failures.append("generator is not a nonzero integer chain")
            elif any(cm.boundary[1].matvec(g)):
                failures.append("generator is not a cycle")
        return failures

    return Task(name, largest, run, check)


def _homology(rng, workdir: Path, size: dict) -> list:
    return [
        _homology_task("homology torus", inputs.torus(size["torus"], rng), TORUS, True),
        _homology_task(
            "homology RP2", inputs.projective_plane(size["rp2"], rng), PROJECTIVE_PLANE, False
        ),
    ]


def _verify_tasks(label: str, path: str, betti: list, largest: bool) -> list:
    def check_verify(result):
        failures = []
        checks = _cli_json(result, failures)
        if checks is None:
            return failures
        if not checks:
            failures.append("verify ran no checks")
        failures += [f"verify FAIL: {c['check']} {c['detail']}" for c in checks if not c["pass"]]
        return failures

    def check_harmonic(result):
        failures = []
        payload = _cli_json(result, failures)
        if payload is None:
            return failures
        dims = [payload[str(p)]["dimension"] for p in range(len(betti))]
        if dims != betti:
            failures.append(f"harmonic dimensions {dims}, expected {betti}")
        return failures

    tasks = [Task(f"verify {label}", largest, lambda: run_cli(["verify", path, "--json"]), check_verify)]
    for kind in ("galerkin", "diagonal"):
        argv = ["harmonic", path, "--hodge", kind, "--json"]
        tasks.append(
            Task(f"harmonic {kind} {label}", largest, lambda argv=argv: run_cli(argv), check_harmonic)
        )
    return tasks


def _verify_harmonic(rng, workdir: Path, size: dict) -> list:
    torus = _write(workdir, "torus", inputs.torus(size["torus"], rng))
    cube = _write(workdir, "cube", inputs.cube(size["cube"], rng))
    return _verify_tasks("torus", torus, TORUS["betti"], True) + _verify_tasks(
        "cube", cube, CUBE_BETTI, False
    )


BUILDERS = {
    "poisson_converge": _poisson,
    "homology_surfaces": _homology,
    "verify_harmonic": _verify_harmonic,
}


def build(name: str, rng, workdir: Path, tiny: bool = False) -> list:
    """Generate, check and write the inputs of one workload; return its task list."""
    size = SIZES[name][1 if tiny else 0]
    return BUILDERS[name](rng, workdir, size)
