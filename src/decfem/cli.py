"""Command-line interface.

Subcommands cover the pipeline end to end: mesh inspection, homology
reports, harmonic bases, Hodge matrix export, Poisson solves, convergence
studies, cup products of cochain files, and ``verify``, which runs the
whole structure-preservation checklist on one mesh.  Exit codes: 0 success,
1 data or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chains import matrices_for
from .homology import betti_numbers, homology_generators, torsion_coefficients
from .hodge import _hodge_matrix, galerkin_mass_matrix, harmonic_bases, matrix_to_coordinate_text
from .mesh import MeshError, abstr, load_mesh
from .quadrature import simplex_rule
from .poisson import (
    SolverError,
    assemble_poisson,
    cg_solve,
    convergence_study,
    cotangent_stiffness,
    l2_and_energy_error,
    sin_sin_solution,
    affine_solution,
)
from .whitney import (
    Cochain,
    cochain_from_json,
    cochain_to_json,
    coboundary_apply,
    cup_product,
    de_rham_map,
    standard_test_forms,
    _de_rham_whitney_entries,
)

USAGE_ERROR = 2
DATA_ERROR = 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="decfem",
        description="Simplicial cochain toolkit: homology, Whitney forms, Hodge operators, Poisson.",
    )
    parser.add_argument("--version", action="version", version=f"decfem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, degree=None, hodge=False, tol=None, levels=False, out=False, emits_json=True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(command_parser=cmd, handler=handler)
        cmd.add_argument("mesh", help="mesh file (.json or .txt)")
        if degree:
            cmd.add_argument("--degree", type=int, default=None, help=degree)
        if hodge:
            cmd.add_argument(
                "--hodge", choices=("galerkin", "diagonal"), default="galerkin"
            )
        if tol is not None:
            cmd.add_argument("--tol", type=float, default=tol)
        if levels:
            cmd.add_argument("--levels", type=int, default=4)
        if out:
            cmd.add_argument("--out", type=Path, default=None, help="write output here")
        if emits_json:
            cmd.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return cmd

    add("info", _cmd_info, "face counts and Euler characteristic")
    add("betti", _cmd_betti, "Betti numbers and torsion coefficients")
    add("generators", _cmd_generators, "integer homology generator chains", degree="cochain degree p")
    degree = "output degree p only (every degree is computed, from one factorisation)"
    add("harmonic", _cmd_harmonic, "harmonic cochain basis", degree=degree, hodge=True, out=True)
    # A Hodge matrix has one output format, the coordinate text: no --json.
    hodge_help = "export a discrete Hodge matrix"
    add("hodge", _cmd_hodge, hodge_help, degree="cochain degree p", hodge=True, out=True, emits_json=False)
    add("solve", _cmd_solve, "Dirichlet Poisson solve", hodge=True, tol=1e-10).add_argument(
        "--manufactured", choices=("sinsin", "affine", "none"), default="sinsin"
    )
    add("converge", _cmd_converge, "uniform-refinement convergence study", hodge=True, tol=1e-10, levels=True)
    cup = add("cup", _cmd_cup, "cup product of two cochain files", out=True)
    cup.add_argument("first", help="cochain JSON file")
    cup.add_argument("second", help="cochain JSON file")
    add("verify", _cmd_verify, "run the full invariant checklist", tol=1e-12)
    return parser


def _read_mesh(path_str: str):
    path = Path(path_str)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    fmt = "text" if path.suffix in (".txt", ".text") else "json"
    return load_mesh(text, fmt=fmt)


def _write_out(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:
        raise MeshError(f"cannot write {path}: {exc}") from exc


def _emit(args, payload: dict, text: str):
    print(json.dumps(payload, indent=2) if args.json else text)


def _cmd_info(args, gc) -> int:
    ac = abstr(gc)
    counts = ac.face_counts()
    payload = {
        "complex_dim": ac.complex_dim,
        "embed_dim": gc.embed_dim,
        "face_counts": counts,
        "euler_characteristic": ac.euler_characteristic(),
        "closed": ac.is_closed(),
        "total_volume": float(np.abs(gc.top_volumes).sum()),
    }
    text = (
        f"complex dimension: {ac.complex_dim} (embedded in R^{gc.embed_dim})\n"
        + "\n".join(f"  {p}-simplices: {c}" for p, c in enumerate(counts))
        + f"\nEuler characteristic: {payload['euler_characteristic']}"
        + f"\nclosed: {payload['closed']}"
        + f"\ntotal volume: {payload['total_volume']:.12g}"
    )
    _emit(args, payload, text)
    return 0


def _cmd_betti(args, gc) -> int:
    cm = matrices_for(abstr(gc))
    betti = betti_numbers(cm)
    torsion = {p: torsion_coefficients(cm, p) for p in range(cm.complex_dim + 1)}
    torsion_flat = [t for p in torsion for t in torsion[p]]
    payload = {"betti": betti, "torsion": {str(p): torsion[p] for p in torsion}}
    text = "beta = " + " ".join(str(b) for b in betti) + ", torsion: "
    text += ", ".join(
        f"H_{p}: {v}" for p, v in torsion.items() if v
    ) if torsion_flat else "none"
    _emit(args, payload, text)
    return 0


def _cmd_generators(args, gc) -> int:
    ac = abstr(gc)
    cm = matrices_for(ac)
    degrees = [args.degree] if args.degree is not None else range(cm.complex_dim + 1)
    payload = {}
    lines = []
    for p in degrees:
        gens = homology_generators(cm, p)
        payload[str(p)] = gens
        lines.append(f"degree {p}: {len(gens)} generator(s)")
        for g in gens:
            terms = [
                f"{coef} {tuple(ac.simplex_arrays[p][i].tolist())}"
                for i, coef in enumerate(g)
                if coef
            ]
            lines.append("  " + "  ".join(terms))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_harmonic(args, gc) -> int:
    ac = abstr(gc)
    if args.degree is not None and not 0 <= args.degree <= ac.complex_dim:
        raise ValueError(f"degree {args.degree} outside 0..{ac.complex_dim}")
    bases = harmonic_bases(gc, ac, args.hodge)
    degrees = [args.degree] if args.degree is not None else list(bases)
    payload = {}
    lines = []
    for p in degrees:
        basis = bases[p]
        payload[str(p)] = {
            "dimension": basis.dimension,
            "vectors": [cochain_to_json(v) for v in basis.vectors],
        }
        lines.append(f"degree {p}: harmonic dimension {basis.dimension}")
    if args.out is not None:
        _write_out(args.out, json.dumps(payload, indent=2))
        lines.append(f"basis written to {args.out}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_hodge(args, gc) -> int:
    ac = abstr(gc)
    p = args.degree if args.degree is not None else 0
    text = matrix_to_coordinate_text(_hodge_matrix(gc, ac, p, args.hodge))
    if args.out is not None:
        _write_out(args.out, text)
        print(f"degree-{p} {args.hodge} Hodge written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_solve(args, gc) -> int:
    ac = abstr(gc)
    solution, source, boundary = None, (lambda x: 1.0 + 0 * x[0]), (lambda x: 0 * x[0])
    if args.manufactured != "none":
        if (gc.embed_dim, gc.complex_dim) != (2, 2):
            raise MeshError(
                f"manufactured {args.manufactured} problem needs a planar 2-d mesh, not "
                f"complex dimension {gc.complex_dim} in R^{gc.embed_dim}"
            )
        solution = sin_sin_solution() if args.manufactured == "sinsin" else affine_solution()
        source, boundary = solution.source, solution.u
    system = assemble_poisson(gc, ac, args.hodge, source, boundary)
    values = cg_solve(system, tol=args.tol)
    payload = {
        "dofs": len(values),
        "hodge": args.hodge,
        "min": float(values.min()),
        "max": float(values.max()),
    }
    lines = [f"solved {len(values)} dofs ({args.hodge} Hodge)"]
    if solution is not None:
        l2, energy = l2_and_energy_error(gc, ac, values, solution)
        payload.update({"l2_error": l2, "energy_error": energy})
        lines.append(f"L2 error {l2:.6e}, energy error {energy:.6e}")
    lines.append(f"value range [{payload['min']:.6g}, {payload['max']:.6g}]")
    _emit(args, payload, "\n".join(lines))
    return 0


# Frozen from recorded runs on the two-triangle square: the mass-matrix
# route hits the optimal final-pair rate; the barycentric diagonal operator
# only improves monotonically with a first-pair rate near 1.6 before
# stalling, so that is what its gate checks.
GALERKIN_RATE_WINDOW = (1.8, 2.2)
DIAGONAL_FIRST_RATE_MIN = 1.4


def _cmd_converge(args, gc) -> int:
    if gc.embed_dim != 2 or gc.complex_dim != 2:
        raise MeshError("convergence study needs a planar 2-d mesh")
    report = convergence_study(gc, args.levels, sin_sin_solution(), args.hodge, tol=args.tol)
    payload = report.to_json_dict()
    errors = [lv.l2_error for lv in report.levels]
    if args.hodge == "galerkin":
        final_rate = report.l2_rates[-1]
        lo, hi = GALERKIN_RATE_WINDOW
        ok = final_rate is not None and lo <= final_rate <= hi
        gate_text = f"final L2 rate {final_rate:.3f} vs window [{lo}, {hi}]"
        payload.update({"final_l2_rate": final_rate, "rate_window": [lo, hi]})
    else:
        first_rate = report.l2_rates[0]
        monotone = all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))
        ok = monotone and first_rate is not None and first_rate >= DIAGONAL_FIRST_RATE_MIN
        gate_text = (
            f"monotone decrease {monotone}, first L2 rate {first_rate:.3f} "
            f"vs minimum {DIAGONAL_FIRST_RATE_MIN}"
        )
        payload.update({"first_l2_rate": first_rate, "monotone": monotone})
    payload["pass"] = ok
    text = report.format_table() + f"\n{gate_text}: " + ("PASS" if ok else "FAIL")
    _emit(args, payload, text)
    return 0 if ok else DATA_ERROR


def _cmd_cup(args, gc) -> int:
    ac = abstr(gc)
    try:
        a = cochain_from_json(ac, json.loads(Path(args.first).read_text()))
        b = cochain_from_json(ac, json.loads(Path(args.second).read_text()))
    except OSError as exc:
        raise MeshError(f"cannot read cochain file: {exc}") from exc
    result = cup_product(gc, a, b)
    payload = cochain_to_json(result)
    if args.out is not None:
        _write_out(args.out, json.dumps(payload, indent=2))
        print(f"degree-{result.degree} cup product written to {args.out}")
    else:
        _emit(args, payload, json.dumps(payload))
    return 0


def _exact_checks(cm) -> list:
    """``verify``'s (name, pass, detail) rows of the complex property and of
    the operator transposes, exact in int64: an entry of either product
    sums at most p + 2 products of +-1."""
    b, n = cm.boundary_csr, cm.complex_dim
    dd = (b(p) @ b(p + 1) for p in range(1, n))
    transposes = (cm.coboundary_csr(p) - b(p + 1).T for p in range(n))
    return [
        ("boundary.boundary = 0 (exact)", not any(m.count_nonzero() for m in dd), ""),
        ("coboundary = boundary transpose (exact)", not any(m.count_nonzero() for m in transposes), ""),
    ]


def _cmd_verify(args, gc) -> int:
    if not 0 <= args.tol < np.inf:
        raise ValueError(f"verify tolerance must be finite and non-negative, got {args.tol}")
    ac = abstr(gc)
    cm = matrices_for(ac)
    n = ac.complex_dim
    checks = _exact_checks(cm)

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # Interpolation followed by integration is the identity: the entries of
    # the de Rham-Whitney operator of each degree are those of the identity.
    tol = args.tol
    worst = 0.0
    for p in range(n + 1):
        values, faces = _de_rham_whitney_entries(gc, ac, p)
        worst = max(worst, float(np.abs(values - (faces == np.arange(len(faces))[:, None])).max()))
    check(f"interpolate-then-integrate = identity (<= {tol:g})", worst <= tol, f"max dev {worst:.2e}")

    # Integration commutes with the exterior derivative on polynomial forms.
    if gc.embed_dim in (2, 3):
        worst = 0.0
        tested = 0
        for _name, form, dform in standard_test_forms(gc.embed_dim):
            if dform.degree > n:
                continue
            lhs = de_rham_map(gc, ac, dform, dform.degree, simplex_rule(dform.degree, 5))
            rhs = coboundary_apply(
                de_rham_map(gc, ac, form, form.degree, simplex_rule(form.degree, 5))
            )
            worst = max(worst, float(np.abs(lhs.values - rhs.values).max()))
            tested += 1
        if tested:
            check("derivative commutes with integration (<= 1e-10)", worst <= 1e-10, f"max dev {worst:.2e}")

    # Harmonic dimensions match Betti numbers under both Hodge kinds.
    betti = betti_numbers(cm)
    for kind in ("galerkin", "diagonal"):
        try:
            dims = [basis.dimension for basis in harmonic_bases(gc, ac, kind).values()]
            ok, detail = dims == betti, f"{dims} vs {betti}"
        except ValueError as exc:  # a violated harmonic gap
            ok, detail = False, str(exc)
        check(f"harmonic dimensions = Betti numbers ({kind})", ok, detail)

    # Whitney stiffness equals the cotangent-formula stiffness, compared
    # entry by entry on the union of the two sparsity patterns.
    if n == 2:
        d0 = cm.coboundary_csr(0)
        whitney_route = d0.T @ galerkin_mass_matrix(gc, ac, 1) @ d0
        dev = float(abs(whitney_route - cotangent_stiffness(gc)).max())
        check("stiffness coincidence (<= 1e-12)", dev <= 1e-12, f"max dev {dev:.2e}")

    # Cup product: graded commutativity and the derivative (Leibniz) rule.
    if n >= 2:
        rng = np.random.default_rng(7)
        a = Cochain(ac, 0, rng.standard_normal(ac.num_simplices(0)))
        b = Cochain(ac, 1, rng.standard_normal(ac.num_simplices(1)))
        ab = cup_product(gc, a, b)
        ba = cup_product(gc, b, a)
        comm = float(np.abs(ab.values - ba.values).max())
        check("cup graded commutativity (exact)", comm == 0.0, f"dev {comm:.2e}")
        # Leibniz at degrees (0, 1): d(a cup b) = da cup b + a cup db.
        lhs = coboundary_apply(ab)
        rhs = cup_product(gc, coboundary_apply(a), b).values + cup_product(
            gc, a, coboundary_apply(b)
        ).values
        leib = float(np.abs(lhs.values - rhs).max())
        check("cup Leibniz rule (<= 1e-10)", leib <= 1e-10, f"max dev {leib:.2e}")

    failures = [c for c in checks if not c[1]]
    if args.json:
        print(json.dumps([{"check": c[0], "pass": c[1], "detail": c[2]} for c in checks], indent=2))
    else:
        for name, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            print(f"{status}  {name}" + (f"  [{detail}]" if detail else ""))
        print(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    return 0 if not failures else DATA_ERROR


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # reported with the usage of the parser that read them
            argv = sys.argv[1:] if argv is None else argv
            before = argv[: argv.index(args.command)]  # what the top-level parser read
            (parser if before else args.command_parser).error(f"unrecognized arguments: {' '.join(before or unknown)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.handler(args, _read_mesh(args.mesh))
    except (MeshError, SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
