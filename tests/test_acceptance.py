"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from decfem import (
    abstr,
    betti_numbers,
    build_hodges,
    codifferential,
    coboundary_apply,
    convergence_study,
    cotangent_stiffness,
    cup_product,
    de_rham_map,
    galerkin_mass_matrix,
    harmonic_bases,
    matrices_for,
    meshes,
    sin_sin_solution,
    standard_test_forms,
    torsion_coefficients,
    uniform_refine,
    whitney_interpolate,
)
from decfem.quadrature import simplex_rule
from decfem.whitney import Cochain

from conftest import ACCEPTANCE_NAMES, random_delaunay_mesh


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status}: {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def acceptance_meshes(fixture_set):
    return {name: fixture_set[name] for name in ACCEPTANCE_NAMES}


def test_criterion_01_exact_complex_property(acceptance_meshes):
    start = time.perf_counter()
    worst_nnz = 0
    for name, gc in acceptance_meshes.items():
        cm = matrices_for(abstr(gc))
        for p in range(1, cm.complex_dim):
            product = cm.boundary[p] @ cm.boundary[p + 1]
            worst_nnz = max(worst_nnz, product.nnz)
    for seed in range(20):
        cm = matrices_for(abstr(random_delaunay_mesh(seed)))
        product = cm.boundary[1] @ cm.boundary[2]
        worst_nnz = max(worst_nnz, product.nnz)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: boundary of boundary vanishes exactly on fixtures + 20 random meshes",
        worst_nnz == 0 and elapsed < 5.0,
        f"nonzeros {worst_nnz}, {elapsed:.2f}s",
    )


def test_criterion_02_homology_suite(fixture_set):
    start = time.perf_counter()
    expected = {
        "disk": [1, 0, 0],
        "hollow_triangle": [1, 1],
        "tetrahedron_boundary": [1, 0, 1],
        "torus": [1, 2, 1],
        "torus_minimal": [1, 2, 1],
        "projective_plane": [1, 0, 0],
    }
    ok = True
    details = []
    for name, want in expected.items():
        ac = abstr(fixture_set[name])
        cm = matrices_for(ac)
        betti = betti_numbers(cm)
        euler = sum((-1) ** p * b for p, b in enumerate(betti))
        good = betti == want and euler == ac.euler_characteristic()
        ok = ok and good
        if not good:
            details.append(f"{name}: {betti} != {want}")
    rp2 = matrices_for(abstr(fixture_set["projective_plane"]))
    torsion_ok = torsion_coefficients(rp2, 1) == [2]
    ok = ok and torsion_ok
    if not torsion_ok:
        details.append("projective plane torsion missing")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(
        "criterion 2: Betti/torsion suite with Euler cross-checks",
        ok,
        "; ".join(details) or f"{elapsed:.2f}s",
    )


def test_criterion_03_interpolate_integrate_identity(fixture_set):
    start = time.perf_counter()
    worst = 0.0
    for name, gc in fixture_set.items():
        ac = abstr(gc)
        for p in range(ac.complex_dim + 1):
            count = ac.num_simplices(p)
            eye = np.eye(count)
            for j in range(count):
                c = Cochain(ac, p, eye[j])
                back = de_rham_map(gc, ac, whitney_interpolate(gc, c), p)
                worst = max(worst, float(np.abs(back.values - c.values).max()))
    elapsed = time.perf_counter() - start
    report(
        "criterion 3: interpolation followed by integration is the identity (1e-12)",
        worst <= 1e-12 and elapsed < 30.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_derivative_commutation(fixture_set):
    worst = 0.0
    planar = ["triangle", "square", "disk", "annulus"]
    spatial = ["tetrahedron_boundary", "torus"]
    for name in planar + spatial:
        gc = fixture_set[name]
        ac = abstr(gc)
        for _label, form, dform in standard_test_forms(gc.embed_dim):
            if dform.degree > ac.complex_dim:
                continue
            lhs = de_rham_map(gc, ac, dform, dform.degree, simplex_rule(dform.degree, 5))
            rhs = coboundary_apply(
                de_rham_map(gc, ac, form, form.degree, simplex_rule(form.degree, 5))
            )
            worst = max(worst, float(np.abs(lhs.values - rhs.values).max()))
    report(
        "criterion 4: integration commutes with d for polynomials through degree 3 (1e-10)",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def test_criterion_05_harmonic_equals_betti(fixture_set):
    start = time.perf_counter()
    ok = True
    details = []
    cases = {name: fixture_set[name] for name in ("disk", "annulus", "torus")}
    # exercise the stated size envelope (<= 2000 simplices) as well
    cases["torus_refined"] = uniform_refine(fixture_set["torus"])
    for name, gc in cases.items():
        ac = abstr(gc)
        assert sum(ac.face_counts()) <= 2000
        betti = betti_numbers(matrices_for(ac))
        for kind in ("galerkin", "diagonal"):
            bases = harmonic_bases(gc, ac, kind)
            dims = [basis.dimension for basis in bases.values()]
            if dims != betti:
                ok = False
                details.append(f"{name}/{kind}: {dims} != {betti}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(
        "criterion 5: harmonic dimensions equal Betti numbers (both Hodge kinds)",
        ok,
        "; ".join(details) or f"{elapsed:.2f}s",
    )


def test_criterion_06_stiffness_coincidence(fixture_set):
    worst = 0.0
    for name, gc in fixture_set.items():
        if gc.complex_dim != 2:
            continue
        ac = abstr(gc)
        cm = matrices_for(ac)
        d0 = cm.coboundary_csr(0)
        whitney = (d0.T @ galerkin_mass_matrix(gc, ac, 1) @ d0).toarray()
        cotan = cotangent_stiffness(gc).toarray()
        worst = max(worst, float(np.abs(whitney - cotan).max()))
    report(
        "criterion 6: Whitney and cotangent stiffness coincide entrywise (1e-12)",
        worst <= 1e-12,
        f"max deviation {worst:.2e}",
    )


def test_criterion_07_mass_matrix_exactness():
    gc = meshes.reference_triangle()
    ac = abstr(gc)
    mass = galerkin_mass_matrix(gc, ac, 0).toarray()
    expected = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    dev = float(np.abs(mass - expected).max())
    report(
        "criterion 7: degree-0 mass matrix on the reference triangle (1e-15)",
        dev <= 1e-15,
        f"max deviation {dev:.2e}",
    )


def test_criterion_08_poisson_convergence():
    start = time.perf_counter()
    report_data = convergence_study(meshes.split_square(), 4, sin_sin_solution())
    final_rate = report_data.l2_rates[-1]
    elapsed = time.perf_counter() - start
    report(
        "criterion 8: manufactured-solution L2 rate in [1.8, 2.2] on the final pair",
        final_rate is not None and 1.8 <= final_rate <= 2.2 and elapsed < 60.0,
        f"rate {final_rate:.3f}, {elapsed:.2f}s",
    )


def test_criterion_09_cup_product_laws():
    gc = meshes.split_square()
    ac = abstr(gc)
    rng = np.random.default_rng(29)
    zero_a = Cochain(ac, 0, rng.standard_normal(4))
    one_a = Cochain(ac, 1, rng.standard_normal(5))
    one_b = Cochain(ac, 1, rng.standard_normal(5))
    anti = float(
        np.abs(cup_product(gc, one_a, one_b).values + cup_product(gc, one_b, one_a).values).max()
    )
    mixed = float(
        np.abs(cup_product(gc, zero_a, one_a).values - cup_product(gc, one_a, zero_a).values).max()
    )
    lhs = coboundary_apply(cup_product(gc, zero_a, one_a))
    rhs = (
        cup_product(gc, coboundary_apply(zero_a), one_a).values
        + cup_product(gc, zero_a, coboundary_apply(one_a)).values
    )
    leibniz = float(np.abs(lhs.values - rhs).max())
    wa = Cochain(ac, 0, np.array([0.3, -1.2, 0.7, 2.1]))
    wb = Cochain(ac, 0, np.array([1.5, 0.4, -0.8, 0.6]))
    wc = Cochain(ac, 1, np.array([1.0, -0.5, 2.0, 0.25, -1.25]))
    left = cup_product(gc, cup_product(gc, wa, wb), wc).values
    right = cup_product(gc, wa, cup_product(gc, wb, wc)).values
    defect = float(np.abs(left - right).max())
    report(
        "criterion 9: cup laws (commutativity exact, Leibniz 1e-10, witness > 1e-6)",
        anti == 0.0 and mixed == 0.0 and leibniz <= 1e-10 and defect > 1e-6,
        f"anti {anti:.1e}, mixed {mixed:.1e}, Leibniz {leibniz:.1e}, witness {defect:.2f}",
    )


def test_criterion_10_codifferential_adjointness(acceptance_meshes):
    worst = 0.0
    rng = np.random.default_rng(31)
    for name, gc in acceptance_meshes.items():
        ac = abstr(gc)
        for kind in ("galerkin", "diagonal"):
            hodges = build_hodges(gc, ac, kind)
            for p in range(1, ac.complex_dim + 1):
                for _ in range(10):
                    c = Cochain(ac, p, rng.standard_normal(ac.num_simplices(p)))
                    w = Cochain(ac, p - 1, rng.standard_normal(ac.num_simplices(p - 1)))
                    lhs = float(
                        codifferential(c, hodges).values
                        @ (hodges[p - 1] @ w.values)
                    )
                    rhs = float(
                        c.values @ (hodges[p] @ coboundary_apply(w).values)
                    )
                    worst = max(worst, abs(lhs - rhs))
    report(
        "criterion 10: weak codifferential adjoint to the coboundary (1e-10)",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )
