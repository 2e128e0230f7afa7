"""Poisson assembly, conjugate gradients, refinement and convergence."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from decfem import (
    abstr,
    affine_solution,
    assemble_poisson,
    betti_numbers,
    boundary_vertex_ids,
    cg_solve,
    convergence_study,
    cotangent_stiffness,
    galerkin_mass_matrix,
    l2_and_energy_error,
    load_mesh,
    matrices_for,
    meshes,
    sin_sin_solution,
    uniform_refine,
)
from decfem import hodge, poisson
from decfem.mesh import MeshValidationError
from decfem.poisson import LinearSystem, SolverError
from decfem.whitney import analytic_form, de_rham_map

from conftest import FIXTURE_NAMES, random_delaunay_mesh, sliver_square_json


def whitney_stiffness(gc, ac):
    cm = matrices_for(ac)
    d0 = cm.coboundary_csr(0)
    m1 = galerkin_mass_matrix(gc, ac, 1)
    return (d0.T @ m1 @ d0).tocsr()


class TestStiffness:
    def test_reference_triangle_values(self):
        gc = meshes.reference_triangle()
        ac = abstr(gc)
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        np.testing.assert_allclose(
            whitney_stiffness(gc, ac).toarray(), expected, atol=1e-14
        )
        np.testing.assert_allclose(
            cotangent_stiffness(gc).toarray(), expected, atol=1e-14
        )

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_whitney_equals_cotangent(self, fixture_set, name):
        gc = fixture_set[name]
        if gc.complex_dim != 2:
            pytest.skip("stiffness coincidence is a 2-d statement")
        ac = abstr(gc)
        dev = np.abs(
            whitney_stiffness(gc, ac).toarray() - cotangent_stiffness(gc).toarray()
        ).max()
        assert dev <= 1e-12

    def test_coincidence_on_random_meshes(self):
        # Random meshes carry slivers with large cotangents, so the bound
        # scales with the stiffness magnitude instead of being absolute.
        for seed in range(3):
            gc = random_delaunay_mesh(seed)
            ac = abstr(gc)
            whitney = whitney_stiffness(gc, ac).toarray()
            cotan = cotangent_stiffness(gc).toarray()
            assert np.abs(whitney - cotan).max() <= 1e-12 * np.abs(cotan).max()

    def test_cotangent_matches_the_difference_of_squares_route(self, fixture_set):
        surfaces = [gc for gc in fixture_set.values() if gc.complex_dim == 2]
        assert len(surfaces) == 8
        for gc in surfaces:
            new, old = cotangent_stiffness(gc).toarray(), old_cotangent_stiffness(gc)
            assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1.8e-7])
    def test_cotangent_exact_on_the_sliver_square(self, eps):
        """The squared minors do not cancel on the needle: a few ulps of the
        largest entry, where |a|^2 |b|^2 - (a.b)^2 loses 5e-14 of it already
        at eps = 1e-2."""
        gc = load_mesh(sliver_square_json(eps))
        exact = exact_planar_cotangent_stiffness(gc)

        def error(values):
            return float(max(abs(Fraction(v) - e) for v, e in zip(values.ravel().tolist(), exact.ravel())))

        new = cotangent_stiffness(gc).toarray()
        largest = np.abs(new).max()
        assert error(new) <= 4 * np.finfo(float).eps * largest
        assert error(old_cotangent_stiffness(gc)) > 100 * np.finfo(float).eps * largest


def old_cotangent_stiffness(gc):
    """The cotangent route as it was, with sin^2 = |a|^2 |b|^2 - (a.b)^2."""
    m0 = gc.num_vertices
    rows, cols, data = [], [], []
    for tri in gc.top_simplices:
        vids = [int(v) for v in tri]
        for k in range(3):
            c = vids[k]
            a, b = vids[(k + 1) % 3], vids[(k + 2) % 3]
            ea = gc.vertices[a] - gc.vertices[c]
            eb = gc.vertices[b] - gc.vertices[c]
            cross_sq = float(ea @ ea) * float(eb @ eb) - float(ea @ eb) ** 2
            w = 0.5 * float(ea @ eb) / math.sqrt(max(cross_sq, 0.0))
            rows += [a, b, a, b]
            cols += [b, a, a, b]
            data += [-w, -w, w, w]
    full = sp.coo_matrix((data, (rows, cols)), shape=(m0, m0)).tocsr()
    order = abstr(gc).simplex_arrays[0][:, 0]
    return full[np.ix_(order, order)].toarray()


def exact_planar_cotangent_stiffness(gc):
    """Over Fractions: in the plane the cotangent (a.b) / |a x b| is rational."""
    m0 = gc.num_vertices
    stiffness = np.full((m0, m0), Fraction(0), dtype=object)
    points = [[Fraction(x) for x in row] for row in gc.vertices.tolist()]
    for vids in gc.top_simplices.tolist():
        for k in range(3):
            c, a, b = vids[k], vids[(k + 1) % 3], vids[(k + 2) % 3]
            (ax, ay), (bx, by) = ([p - q for p, q in zip(points[v], points[c])] for v in (a, b))
            w = (ax * bx + ay * by) / abs(ax * by - ay * bx) / 2
            stiffness[[a, b, a, b], [b, a, a, b]] += [-w, -w, w, w]
    order = abstr(gc).simplex_arrays[0][:, 0]
    return stiffness[np.ix_(order, order)]


class TestAssembly:
    def test_affine_solution_reproduced(self):
        gc = meshes.split_square()
        for _ in range(2):
            gc = uniform_refine(gc)
        ac = abstr(gc)
        solution = affine_solution(1.0, 0.0, 0.0)
        system = assemble_poisson(gc, ac, "galerkin", solution.source, solution.u)
        values = cg_solve(system, tol=1e-13)
        exact = np.array([solution.u(gc.vertices[s[0]]) for s in ac.simplex_arrays[0].tolist()])
        assert np.abs(values - exact).max() <= 1e-12

    def test_closed_mesh_rejected(self, fixture_set):
        gc = fixture_set["torus"]
        ac = abstr(gc)
        with pytest.raises(MeshValidationError, match="no boundary"):
            assemble_poisson(gc, ac, "galerkin", lambda x: 0.0, lambda x: 0.0)

    def test_boundary_vertices_of_square(self):
        ac = abstr(meshes.split_square())
        assert boundary_vertex_ids(ac) == [0, 1, 2, 3]

    def test_system_matrix_is_symmetric(self):
        gc = uniform_refine(meshes.split_square())
        ac = abstr(gc)
        system = assemble_poisson(gc, ac, "galerkin", lambda x: 1.0 + 0 * x[0], lambda x: 0 * x[0])
        dense = system.matrix.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-14)
        np.linalg.cholesky(dense)

    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    def test_builds_only_the_hodges_it_reads(self, monkeypatch, kind):
        """Only local Hodge blocks: no global Hodge matrix, no boundary
        matrices, and one scatter of blocks per system."""
        gc = uniform_refine(meshes.split_square())
        source, dirichlet = lambda x: 1.0 + 0 * x[0], lambda x: 0 * x[0]
        assemble_poisson(gc, abstr(gc), kind, source, dirichlet)  # fills the constant tables
        calls = []
        for name in ("galerkin_mass_matrix", "diagonal_hodge", "build_hodges"):
            monkeypatch.setattr(hodge, name, lambda *args, name=name: calls.append(name))
        scatter = poisson._scatter

        def counted(*args):
            calls.append("_scatter")
            return scatter(*args)

        monkeypatch.setattr(poisson, "_scatter", counted)
        ac = abstr(gc)
        assemble_poisson(gc, ac, kind, source, dirichlet)
        assert calls == ["_scatter"]
        assert ac._matrices is None

    def test_dirichlet_dict_accepted(self):
        gc = meshes.split_square()
        ac = abstr(gc)
        # Vertex v of the square gets the value v, as the former dict form
        # {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0} prescribed.
        values = lambda x: x[0] + 3 * x[1] - 2 * x[0] * x[1]  # noqa: E731
        system = assemble_poisson(gc, ac, "galerkin", lambda x: 0 * x[0], values)
        out = cg_solve(system, tol=1e-13)
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0, 3.0], atol=1e-12)

    def test_galerkin_orthogonality(self):
        gc = meshes.split_square()
        for _ in range(2):
            gc = uniform_refine(gc)
        ac = abstr(gc)
        solution = sin_sin_solution()
        system = assemble_poisson(gc, ac, "galerkin", solution.source, solution.u)
        values = cg_solve(system, tol=1e-12)
        # Residual against the unconstrained assembly, interior rows only.
        stiffness = whitney_stiffness(gc, ac)
        source = de_rham_map(
            gc, ac, analytic_form(0, lambda x: np.array([solution.source(x)])), 0
        )
        rhs = galerkin_mass_matrix(gc, ac, 0) @ source.values
        residual = rhs - stiffness @ values
        fixed = {i for i, _ in system.constrained}
        interior = [i for i in range(len(values)) if i not in fixed]
        assert np.abs(residual[interior]).max() <= 1e-10

    def test_discrete_maximum_principle(self, fixture_set):
        gc = fixture_set["disk"]
        ac = abstr(gc)
        g = lambda x: x[0] - 0.25 * x[1]  # noqa: E731
        system = assemble_poisson(gc, ac, "galerkin", lambda x: 0 * x[0], g)
        values = cg_solve(system, tol=1e-12)
        boundary_values = [g(gc.vertices[v]) for v in boundary_vertex_ids(ac)]
        assert values.max() <= max(boundary_values) + 1e-10
        assert values.min() >= min(boundary_values) - 1e-10


class TestConjugateGradients:
    def test_identity(self):
        system = LinearSystem(sp.identity(4, format="csr"), np.arange(4.0), [])
        np.testing.assert_allclose(cg_solve(system), np.arange(4.0), atol=1e-12)

    def test_two_by_two(self):
        system = LinearSystem(
            sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]])), np.array([1.0, 2.0]), []
        )
        np.testing.assert_allclose(
            cg_solve(system, tol=1e-14), [1 / 11, 7 / 11], atol=1e-12
        )

    def test_iteration_budget_on_refined_square(self):
        gc = meshes.split_square()
        for _ in range(3):
            gc = uniform_refine(gc)
        ac = abstr(gc)
        solution = sin_sin_solution()
        system = assemble_poisson(gc, ac, "galerkin", solution.source, solution.u)
        cg_solve(system, tol=1e-10, max_iter=200)  # raises if exceeded

    def test_max_iter_reports_residual(self):
        system = LinearSystem(
            sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]])), np.array([1.0, 2.0]), []
        )
        with pytest.raises(SolverError) as info:
            cg_solve(system, tol=1e-16, max_iter=1)
        assert info.value.residual > 0

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_rejects_negative_or_non_finite_tolerance(self, tol):
        system = LinearSystem(sp.identity(2, format="csr"), np.ones(2), [])
        with pytest.raises(ValueError, match="tolerance"):
            cg_solve(system, tol=tol)

    def test_zero_tolerance_accepted(self):
        system = LinearSystem(sp.identity(2, format="csr"), np.ones(2), [])
        np.testing.assert_array_equal(cg_solve(system, tol=0.0), np.ones(2))

    def test_deterministic(self):
        gc = uniform_refine(meshes.split_square())
        ac = abstr(gc)
        solution = sin_sin_solution()
        system = assemble_poisson(gc, ac, "galerkin", solution.source, solution.u)
        first = cg_solve(system, tol=1e-10)
        second = cg_solve(system, tol=1e-10)
        np.testing.assert_array_equal(first, second)


class TestUniformRefine:
    def test_triangle_counts(self):
        refined = uniform_refine(meshes.reference_triangle())
        assert refined.num_vertices == 6
        assert refined.num_top == 4

    def test_square_counts(self):
        refined = uniform_refine(meshes.split_square())
        assert refined.num_vertices == 9
        assert refined.num_top == 8

    def test_area_preserved(self):
        gc = meshes.disk()
        refined = uniform_refine(gc)
        assert float(np.abs(refined.top_volumes).sum()) == pytest.approx(
            float(np.abs(gc.top_volumes).sum()), rel=1e-12
        )

    @pytest.mark.parametrize(
        "name",
        ["triangle", "square", "disk", "annulus", "tetrahedron_boundary", "torus",
         "torus_minimal", "projective_plane"],
    )
    def test_betti_invariant_under_refinement(self, fixture_set, name):
        gc = fixture_set[name]
        before = betti_numbers(matrices_for(abstr(gc)))
        after = betti_numbers(matrices_for(abstr(uniform_refine(gc))))
        assert before == after

    def test_rejects_other_dimensions(self):
        with pytest.raises(MeshValidationError):
            uniform_refine(meshes.solid_tetrahedron())


class TestConvergence:
    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            convergence_study(meshes.split_square(), 2, sin_sin_solution())

    def test_galerkin_second_order(self):
        report = convergence_study(meshes.split_square(), 4, sin_sin_solution())
        assert 1.8 <= report.l2_rates[-1] <= 2.2
        energies = [lv.energy_error for lv in report.levels]
        assert all(a > b for a, b in zip(energies, energies[1:]))
        hs = [lv.h for lv in report.levels]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_affine_errors_flagged(self):
        report = convergence_study(
            meshes.split_square(), 3, affine_solution(2.0, -1.0, 0.5)
        )
        for lv in report.levels:
            assert lv.l2_error <= 1e-12
        assert all(rate is None for rate in report.l2_rates)

    def test_diagonal_variant_recorded_behavior(self):
        # Recorded run: the barycentric diagonal operator improves
        # monotonically with a first-pair rate near 1.6, then stalls; it is
        # not a convergent discretization on this mesh family.
        report = convergence_study(
            meshes.split_square(), 4, sin_sin_solution(), hodge_kind="diagonal"
        )
        errors = [lv.l2_error for lv in report.levels]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert report.l2_rates[0] >= 1.4

    def test_each_mesh_reduced_once_with_unchanged_report(self, monkeypatch):
        # Reference: refine through the public uniform_refine, which reduces
        # the mesh it refines a second time.
        solution = sin_sin_solution()
        mesh, expected = meshes.split_square(), []
        for _ in range(4):
            mesh = uniform_refine(mesh)
            ac = abstr(mesh)
            system = assemble_poisson(mesh, ac, "galerkin", solution.source, solution.u)
            values = cg_solve(system, tol=1e-10)
            l2, energy = l2_and_energy_error(mesh, ac, values, solution)
            expected.append((poisson._max_edge_length(mesh, ac), len(values), l2, energy))
        calls = []
        monkeypatch.setattr(poisson, "abstr", lambda gc: calls.append(gc) or abstr(gc))
        report = convergence_study(meshes.split_square(), 4, solution)
        assert [(lv.h, lv.dofs, lv.l2_error, lv.energy_error) for lv in report.levels] == expected
        assert len(calls) == 5 and len({id(gc) for gc in calls}) == 5

    def test_report_serialization(self):
        report = convergence_study(meshes.split_square(), 3, sin_sin_solution())
        payload = report.to_json_dict()
        assert len(payload["levels"]) == 3
        table = report.format_table()
        assert "L2 error" in table and len(table.splitlines()) == 4


def test_l2_error_of_exact_interpolant_is_small():
    gc = meshes.split_square()
    ac = abstr(gc)
    solution = affine_solution(1.0, 2.0, 3.0)
    vertex_values = np.array([solution.u(gc.vertices[s[0]]) for s in ac.simplex_arrays[0].tolist()])
    l2, energy = l2_and_energy_error(gc, ac, vertex_values, solution)
    assert l2 <= 1e-13
    assert energy <= 1e-13


@pytest.mark.parametrize("count", [3, 5])
def test_l2_error_rejects_vertex_values_of_wrong_length(count):
    # split_square has 4 vertices.
    gc = meshes.split_square()
    ac = abstr(gc)
    with pytest.raises(ValueError, match="expected 4 vertex values"):
        l2_and_energy_error(gc, ac, np.zeros(count), affine_solution())
