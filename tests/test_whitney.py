"""Whitney interpolation, integration, and their structural identities."""

import gc as garbage_collector
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decfem import (
    abstr,
    analytic_form,
    cochain_from_json,
    cochain_to_json,
    coboundary_apply,
    complex_fingerprint,
    de_rham_map,
    de_rham_whitney_matrix,
    matrices_for,
    meshes,
    standard_test_forms,
    whitney_interpolate,
)
from decfem.exterior import index_combinations, wedge
from decfem.mesh import GeometricComplex
from decfem.quadrature import simplex_rule
from decfem.whitney import Cochain, mesh_geometry

from conftest import FIXTURE_NAMES, kuhn_cube, two_tets


def random_barycentric(rng, n):
    raw = rng.exponential(size=n + 1)
    return raw / raw.sum()


class TestWhitneyBasis:
    """Local Whitney forms of the one top of the reference triangle, faces in
    ``itertools.combinations`` order: edges (0, 1), (0, 2), (1, 2)."""

    def test_edge_form_at_barycenter(self):
        gc = meshes.reference_triangle()
        value = mesh_geometry(gc, abstr(gc)).whitney_values(1, 0, np.array([1 / 3, 1 / 3, 1 / 3]))[0]
        np.testing.assert_allclose(value, [2 / 3, 1 / 3], atol=1e-14)

    def test_edge_form_at_vertex(self):
        gc = meshes.reference_triangle()
        value = mesh_geometry(gc, abstr(gc)).whitney_values(1, 0, np.array([1.0, 0.0, 0.0]))[0]
        np.testing.assert_allclose(value, [1.0, 0.0], atol=1e-14)

    def test_vertex_form_is_barycentric(self):
        gc = meshes.reference_triangle()
        geo = mesh_geometry(gc, abstr(gc))
        assert geo.whitney_values(0, 0, np.array([0.0, 0.0, 1.0]))[2][0] == pytest.approx(1.0)
        assert geo.whitney_values(0, 0, np.array([1.0, 0.0, 0.0]))[2][0] == pytest.approx(0.0)


class TestInterpolateIntegrateIdentity:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_round_trip_is_identity(self, fixture_set, name):
        gc = fixture_set[name]
        ac = abstr(gc)
        for p in range(ac.complex_dim + 1):
            count = ac.num_simplices(p)
            eye = np.eye(count)
            for j in range(count):
                c = Cochain(ac, p, eye[j])
                back = de_rham_map(gc, ac, whitney_interpolate(gc, c), p)
                np.testing.assert_allclose(back.values, c.values, atol=1e-12)

    def test_round_trip_three_dimensional(self):
        gc = two_tets()
        ac = abstr(gc)
        rng = np.random.default_rng(5)
        for p in range(4):
            c = Cochain(ac, p, rng.standard_normal(ac.num_simplices(p)))
            back = de_rham_map(gc, ac, whitney_interpolate(gc, c), p)
            np.testing.assert_allclose(back.values, c.values, atol=1e-12)

    def test_linearity(self):
        gc = meshes.disk()
        ac = abstr(gc)
        rng = np.random.default_rng(9)
        a = rng.standard_normal(ac.num_simplices(1))
        b = rng.standard_normal(ac.num_simplices(1))
        combo = whitney_interpolate(gc, Cochain(ac, 1, 2.0 * a - 3.0 * b))
        fa = whitney_interpolate(gc, Cochain(ac, 1, a))
        fb = whitney_interpolate(gc, Cochain(ac, 1, b))
        x = gc.vertices[ac.simplex_arrays[2][4]].mean(axis=0)
        np.testing.assert_allclose(
            combo.evaluate(4, x),
            2.0 * fa.evaluate(4, x) - 3.0 * fb.evaluate(4, x),
            atol=1e-13,
        )

    def test_zero_cochain_zero_field(self):
        gc = meshes.split_square()
        ac = abstr(gc)
        field = whitney_interpolate(gc, Cochain(ac, 1, np.zeros(5)))
        x = np.array([0.4, 0.3])
        np.testing.assert_allclose(field.evaluate(0, x), 0.0)


def per_cochain_columns(gc, ac, p):
    """Interpolate and integrate every basis cochain separately."""
    count = ac.num_simplices(p)
    eye = np.eye(count)
    return np.column_stack(
        [
            de_rham_map(gc, ac, whitney_interpolate(gc, Cochain(ac, p, eye[j])), p).values
            for j in range(count)
        ]
    )


class TestDeRhamWhitneyMatrix:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_columns_match_per_cochain_route(self, fixture_set, name):
        gc = fixture_set[name]
        ac = abstr(gc)
        for p in range(ac.complex_dim + 1):
            matrix = de_rham_whitney_matrix(gc, ac, p).toarray()
            np.testing.assert_allclose(matrix, per_cochain_columns(gc, ac, p), rtol=0, atol=1e-14)

    def test_columns_match_in_three_dimensions(self):
        gc = two_tets()
        ac = abstr(gc)
        for p in range(4):
            matrix = de_rham_whitney_matrix(gc, ac, p).toarray()
            np.testing.assert_allclose(matrix, per_cochain_columns(gc, ac, p), rtol=0, atol=1e-14)

    def test_rows_hold_one_entry_per_local_face(self):
        gc = meshes.disk()
        ac = abstr(gc)
        matrix = de_rham_whitney_matrix(gc, ac, 1)
        assert matrix.shape == (ac.num_simplices(1),) * 2
        assert np.all(np.diff(matrix.indptr) <= 3)

    def test_rejects_degree_out_of_range(self):
        gc = meshes.split_square()
        ac = abstr(gc)
        with pytest.raises(ValueError, match="degree"):
            de_rham_whitney_matrix(gc, ac, 3)


class TestMeshGeometryLifetime:
    def test_complex_is_freed_after_geometry_use(self):
        gc = meshes.split_square()
        ac = abstr(gc)
        mesh_geometry(gc, ac).signed_wedge_tables(1)
        matrices_for(ac)
        ref = weakref.ref(ac)
        del ac
        garbage_collector.collect()
        assert ref() is None

    def test_geometry_is_cached_per_embedding(self):
        gc = meshes.split_square()
        ac = abstr(gc)
        geo = mesh_geometry(gc, ac)
        assert mesh_geometry(gc, ac) is geo
        twin = GeometricComplex(gc.vertices, gc.top_simplices)
        assert mesh_geometry(twin, ac) is not geo
        assert mesh_geometry(twin, ac).gc is twin


class TestPartitionOfUnity:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_all_ones_interpolates_to_one(self, fixture_set, name):
        gc = fixture_set[name]
        ac = abstr(gc)
        ones = Cochain(ac, 0, np.ones(ac.num_simplices(0)))
        field = whitney_interpolate(gc, ones)
        rng = np.random.default_rng(31)
        n = ac.complex_dim
        for _ in range(100):
            t = int(rng.integers(0, ac.num_simplices(n)))
            lam = random_barycentric(rng, n)
            x = lam @ gc.vertices[ac.simplex_arrays[n][t]]
            assert field.evaluate(t, x)[0] == pytest.approx(1.0, abs=1e-12)


class TestTangentialContinuity:
    @pytest.mark.parametrize("name", ["square", "disk", "torus", "tetrahedron_boundary"])
    def test_edge_traces_agree_between_triangles(self, fixture_set, name):
        gc = fixture_set[name]
        ac = abstr(gc)
        n = ac.complex_dim
        rng = np.random.default_rng(12)
        c = Cochain(ac, 1, rng.standard_normal(ac.num_simplices(1)))
        field = whitney_interpolate(gc, c)
        counts = ac.facet_coface_counts()
        tops = ac.simplex_arrays[n].tolist()
        for f_idx, facet in enumerate(ac.simplex_arrays[n - 1].tolist()):
            if counts[f_idx] != 2:
                continue
            owners = [t for t, top in enumerate(tops) if set(facet) <= set(top)]
            edge_vec = gc.vertices[facet[1]] - gc.vertices[facet[0]]
            for _ in range(3):
                lam = random_barycentric(rng, n - 1)
                x = lam @ gc.vertices[list(facet)]
                traces = [float(field.evaluate(t, x) @ edge_vec) for t in owners]
                assert traces[0] == pytest.approx(traces[1], abs=1e-12)

    def test_face_traces_in_three_dimensions(self):
        gc = two_tets()
        ac = abstr(gc)
        rng = np.random.default_rng(21)
        shared = (1, 2, 3)
        frame = np.column_stack(
            [gc.vertices[shared[1]] - gc.vertices[shared[0]],
             gc.vertices[shared[2]] - gc.vertices[shared[0]]]
        )
        # A 2-covector's value on the frame pairs its components with the
        # frame's 2 x 2 minors, one per ambient index pair.
        minors = np.array([np.linalg.det(frame[list(c), :]) for c in index_combinations(3, 2)])
        for p in (1, 2):
            c = Cochain(ac, p, rng.standard_normal(ac.num_simplices(p)))
            field = whitney_interpolate(gc, c)
            for _ in range(4):
                lam = random_barycentric(rng, 2)
                x = lam @ gc.vertices[list(shared)]
                vals = []
                for t in (0, 1):
                    comps = field.evaluate(t, x)
                    if p == 1:
                        vals.append([float(comps @ frame[:, 0]), float(comps @ frame[:, 1])])
                    else:
                        vals.append([float(comps @ minors)])
                np.testing.assert_allclose(vals[0], vals[1], atol=1e-12)


class TestDeRhamMap:
    def test_dx_on_reference_triangle(self):
        gc = meshes.reference_triangle()
        ac = abstr(gc)
        dx = analytic_form(1, lambda x: np.array([1.0 + 0 * x[0], 0 * x[0]]))
        values = de_rham_map(gc, ac, dx, 1).values
        np.testing.assert_allclose(values, [1.0, 0.0, -1.0], atol=1e-14)

    def test_zero_form_samples_vertices(self):
        gc = meshes.disk()
        ac = abstr(gc)
        f = analytic_form(0, lambda x: np.array([x[0]]))
        values = de_rham_map(gc, ac, f, 0).values
        expected = [gc.vertices[s[0]][0] for s in ac.simplex_arrays[0].tolist()]
        np.testing.assert_allclose(values, expected, atol=1e-14)

    def test_degree_mismatch(self):
        gc = meshes.reference_triangle()
        ac = abstr(gc)
        f = analytic_form(1, lambda x: np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            de_rham_map(gc, ac, f, 2)
        with pytest.raises(ValueError):
            de_rham_map(gc, ac, f, 1, rule=simplex_rule(2, 2))

    @pytest.mark.parametrize("p", [-1, 3])
    def test_degree_outside_complex_rejected(self, p):
        gc = meshes.reference_triangle()
        ac = abstr(gc)
        f = analytic_form(p, lambda x: np.array([1.0]))
        with pytest.raises(ValueError, match="outside 0..2"):
            de_rham_map(gc, ac, f, p)

    @pytest.mark.parametrize("comps", [[1.0], [1.0, 2.0, 3.0], 1.0])
    def test_wrong_component_count_rejected(self, comps):
        gc = meshes.reference_triangle()
        ac = abstr(gc)
        f = analytic_form(1, lambda x: np.array(comps)[..., None] + 0 * x[0])
        with pytest.raises(ValueError, match=r"expected \(2, 3\)"):
            de_rham_map(gc, ac, f, 1)


class TestCoboundary:
    def test_constant_has_zero_derivative(self):
        gc = meshes.disk()
        ac = abstr(gc)
        const = Cochain(ac, 0, np.full(ac.num_simplices(0), 3.5))
        np.testing.assert_allclose(coboundary_apply(const).values, 0.0)

    def test_dd_is_zero(self):
        ac = abstr(meshes.disk())
        rng = np.random.default_rng(2)
        c = Cochain(ac, 0, rng.standard_normal(ac.num_simplices(0)))
        np.testing.assert_allclose(
            coboundary_apply(coboundary_apply(c)).values, 0.0, atol=1e-14
        )

    def test_top_degree_rejected(self):
        ac = abstr(meshes.reference_triangle())
        c = Cochain(ac, 2, np.ones(1))
        with pytest.raises(ValueError):
            coboundary_apply(c)

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ["two_tets", "kuhn_cube"])
    def test_transposed_view_matches_the_converted_coboundary(self, fixture_set, name):
        # coboundary_apply multiplies by the transposed view of the boundary;
        # the product must be bitwise that of the CSR copy it replaced.
        gc = {"two_tets": two_tets, "kuhn_cube": lambda: kuhn_cube(2)}.get(
            name, lambda: fixture_set[name]
        )()
        ac = abstr(gc)
        cm = matrices_for(ac)
        rng = np.random.default_rng(11)
        for p in range(ac.complex_dim):
            values = rng.standard_normal(ac.num_simplices(p))
            old = cm.coboundary_csr(p) @ values
            assert coboundary_apply(Cochain(ac, p, values)).values.tobytes() == old.tobytes()


class TestDerivativeCommutation:
    @pytest.mark.parametrize(
        "name", ["triangle", "square", "disk", "annulus", "tetrahedron_boundary", "torus"]
    )
    def test_polynomial_forms_commute(self, fixture_set, name):
        gc = fixture_set[name]
        ac = abstr(gc)
        n = ac.complex_dim
        for label, form, dform in standard_test_forms(gc.embed_dim):
            if dform.degree > n:
                continue
            integrated = de_rham_map(gc, ac, form, form.degree, simplex_rule(form.degree, 5))
            lhs = de_rham_map(gc, ac, dform, dform.degree, simplex_rule(dform.degree, 5))
            rhs = coboundary_apply(integrated)
            np.testing.assert_allclose(
                lhs.values, rhs.values, atol=1e-10, err_msg=f"{name}: {label}"
            )

    def test_three_dimensional_forms_commute(self):
        gc = two_tets()
        ac = abstr(gc)
        for label, form, dform in standard_test_forms(3):
            integrated = de_rham_map(gc, ac, form, form.degree, simplex_rule(form.degree, 5))
            lhs = de_rham_map(gc, ac, dform, dform.degree, simplex_rule(dform.degree, 5))
            rhs = coboundary_apply(integrated)
            np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10, err_msg=label)

    def test_explicit_square_mesh_case(self):
        gc = meshes.split_square()
        ac = abstr(gc)
        f = analytic_form(0, lambda x: np.array([x[0] ** 2 * x[1]]))
        df = analytic_form(1, lambda x: np.array([2 * x[0] * x[1], x[0] ** 2]))
        lhs = de_rham_map(gc, ac, df, 1, simplex_rule(1, 5))
        rhs = coboundary_apply(de_rham_map(gc, ac, f, 0))
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)


class TestWedgeAlgebra:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_graded_commutativity(self, d, p, q, seed):
        if p + q > d:
            return
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(math.comb(d, p))
        b = rng.standard_normal(math.comb(d, q))
        ab = wedge(a, p, b, q, d)
        ba = wedge(b, q, a, p, d)
        sign = (-1) ** (p * q)
        if p != q:
            # mixed degrees share one evaluation path: bitwise equality
            np.testing.assert_array_equal(ab, sign * ba)
        else:
            np.testing.assert_allclose(ab, sign * ba, atol=1e-14)

    def test_self_wedge_of_odd_degree_vanishes(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(3)
        np.testing.assert_array_equal(wedge(a, 1, a, 1, 3), 0.0)


class TestCochainSerialization:
    def test_round_trip(self):
        ac = abstr(meshes.split_square())
        c = Cochain(ac, 1, np.array([1.0, -2.0, 0.5, 0.25, 3.0]))
        obj = cochain_to_json(c)
        back = cochain_from_json(ac, obj)
        assert back.degree == 1
        np.testing.assert_array_equal(back.values, c.values)

    def test_fingerprint_mismatch_rejected(self):
        ac = abstr(meshes.split_square())
        other = abstr(meshes.disk())
        c = Cochain(ac, 0, np.zeros(4))
        obj = cochain_to_json(c)
        with pytest.raises(ValueError, match="fingerprint"):
            cochain_from_json(other, obj)

    def test_fingerprint_is_stable(self):
        ac1 = abstr(meshes.split_square())
        ac2 = abstr(meshes.split_square())
        assert complex_fingerprint(ac1) == complex_fingerprint(ac2)

    def test_length_mismatch_rejected(self):
        ac = abstr(meshes.split_square())
        with pytest.raises(ValueError):
            Cochain(ac, 1, np.zeros(4))
