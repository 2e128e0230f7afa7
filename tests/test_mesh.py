"""Mesh loading, validation, geometry and the abstract complex."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decfem import abstr, barycentric_dual_volumes, load_mesh, relabel_vertices
from decfem.batched import _signed_volumes, _simplex_gradients, _simplex_volumes
from decfem.mesh import (
    GeometricComplex,
    MeshError,
    MeshParseError,
    MeshValidationError,
)
from decfem import meshes

from conftest import FIXTURE_NAMES, sliver_square_json


TRIANGLE_JSON = '{"dimension": 2, "vertices": [[0,0],[1,0],[0,1]], "simplices": [[0,1,2]]}'


class TestLoadMesh:
    def test_single_triangle(self):
        gc = load_mesh(TRIANGLE_JSON)
        assert gc.num_vertices == 3
        assert gc.num_top == 1
        assert gc.complex_dim == 2
        assert gc.embed_dim == 2

    def test_repeated_vertex_is_degenerate(self):
        bad = '{"dimension": 2, "vertices": [[0,0],[1,0],[0,1]], "simplices": [[0,1,1]]}'
        with pytest.raises(MeshValidationError, match="degenerate simplex 0"):
            load_mesh(bad)

    def test_two_triangle_square(self):
        gc = load_mesh(
            '{"dimension": 2, "vertices": [[0,0],[1,0],[1,1],[0,1]],'
            ' "simplices": [[0,1,2],[0,2,3]]}'
        )
        assert gc.num_vertices == 4
        assert gc.num_top == 2

    def test_unknown_keys_ignored(self):
        gc = load_mesh(TRIANGLE_JSON[:-1] + ', "color": "blue"}')
        assert gc.num_top == 1

    def test_rejects_a_source_that_is_not_text(self):
        with pytest.raises(MeshParseError, match="unsupported mesh source type bytes"):
            load_mesh(TRIANGLE_JSON.encode())

    def test_text_format(self):
        text = "2 2 4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"
        gc = load_mesh(text, fmt="text")
        assert gc.num_vertices == 4
        assert gc.num_top == 2

    def test_parse_errors(self):
        with pytest.raises(MeshParseError):
            load_mesh("not json at all")
        with pytest.raises(MeshParseError):
            load_mesh('{"vertices": []}')
        with pytest.raises(MeshParseError):
            load_mesh("1 2 3", fmt="text")
        with pytest.raises(MeshParseError):
            load_mesh(TRIANGLE_JSON, fmt="hdf5")

    @pytest.mark.parametrize(
        "header, field", [("2 2 -2 6", "m0 = -2"), ("2 2 3 -1", "mn = -1"), ("-1 2 3 1", "n = -1"), ("2 -2 3 1", "d = -2")]
    )
    def test_text_header_rejects_negative_counts(self, header, field):
        with pytest.raises(MeshParseError, match=f"negative header field {field}$"):
            load_mesh(f"{header}\n0 0\n1 0\n0 1\n0 1 2\n", fmt="text")

    def test_out_of_range_index(self):
        bad = '{"dimension": 2, "vertices": [[0,0],[1,0],[0,1]], "simplices": [[0,1,7]]}'
        with pytest.raises(MeshValidationError, match="out of range in simplex 0"):
            load_mesh(bad)

    def test_duplicate_simplex(self):
        bad = (
            '{"dimension": 2, "vertices": [[0,0],[1,0],[0,1],[1,1]],'
            ' "simplices": [[0,1,2],[2,1,0]]}'
        )
        with pytest.raises(MeshValidationError, match="duplicate simplex 1"):
            load_mesh(bad)

    def test_near_degenerate_rejected(self):
        with pytest.raises(MeshValidationError, match="degenerate"):
            GeometricComplex(
                [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-15]], [[0, 1, 2]]
            )

    @pytest.mark.parametrize("eps", [1e-9, 1e-8])
    def test_sliver_beyond_gradient_precision_rejected(self, eps):
        # Relative volume at most 1e-7: in codimension the gradients of such
        # a sliver would need a singular E E^T, and the one bound also holds
        # in the plane, where they come from E alone.
        with pytest.raises(MeshValidationError, match="degenerate simplex 3"):
            load_mesh(sliver_square_json(eps))

    def test_thin_sliver_loads(self):
        assert load_mesh(sliver_square_json(1e-6)).num_top == 4

    def test_declared_dimension_mismatch(self):
        bad = '{"dimension": 3, "vertices": [[0,0],[1,0],[0,1]], "simplices": [[0,1,2]]}'
        with pytest.raises(MeshValidationError, match="declared dimension"):
            load_mesh(bad)


def triangle_json(vertices=None, simplices=None, dimension=2) -> str:
    obj = {
        "dimension": dimension,
        "vertices": [[0, 0], [1, 0], [0, 1]] if vertices is None else vertices,
        "simplices": [[0, 1, 2]] if simplices is None else simplices,
    }
    return json.dumps(obj)


class TestRejectedInput:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinate(self, bad):
        with pytest.raises(MeshValidationError, match="non-finite coordinate in vertex 1"):
            load_mesh(triangle_json(vertices=[[0, 0], [1, bad], [0, 1]]))

    def test_non_finite_coordinate_in_text_format(self):
        with pytest.raises(MeshValidationError, match="non-finite coordinate in vertex 2"):
            load_mesh("2 2 3 1\n0 0\n1 0\nnan 1\n0 1 2\n", fmt="text")

    def test_non_integral_index(self):
        with pytest.raises(MeshValidationError, match="non-integer vertex index in simplex 0"):
            load_mesh(triangle_json(simplices=[[0, 1.7, 2]]))

    def test_string_index(self):
        with pytest.raises(MeshValidationError, match="vertex indices must be integers"):
            load_mesh(triangle_json(simplices=[["0", 1, 2]]))

    def test_string_coordinate(self):
        with pytest.raises(MeshValidationError, match="coordinates must be real numbers"):
            load_mesh(triangle_json(vertices=[[0, "0"], [1, 0], [0, 1]]))

    def test_boolean_dimension(self):
        with pytest.raises(MeshParseError, match="dimension must be an integer"):
            load_mesh(triangle_json(dimension=True))

    def test_boolean_index_in_list(self):
        with pytest.raises(MeshValidationError, match="boolean vertex index in simplex 1"):
            GeometricComplex([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, 2], [1, True, 3]])
        with pytest.raises(MeshValidationError, match="boolean vertex index in simplex 0"):
            load_mesh(triangle_json(simplices=[[0, True, 2]]))

    def test_boolean_coordinate_in_list(self):
        with pytest.raises(MeshValidationError, match="boolean coordinate in vertex 2"):
            GeometricComplex([[0, 0], [1, 0], [np.True_, 1]], [[0, 1, 2]])
        with pytest.raises(MeshValidationError, match="boolean coordinate in vertex 1"):
            load_mesh(triangle_json(vertices=[[0, 0], [1, False], [0, 1]]))
        with pytest.raises(MeshValidationError, match="boolean coordinate in vertex 0"):
            load_mesh(triangle_json(vertices=[[0.5, True], [1, 0], [0, 1]]))

    def test_relabel_reads_an_integral_float_as_an_integer(self):
        gc = meshes.split_square()
        relabeled = relabel_vertices(gc, [0, 1.0, 3, np.float64(2)])
        assert np.array_equal(relabeled.top_simplices, relabel_vertices(gc, [0, 1, 3, 2]).top_simplices)

    @pytest.mark.parametrize(
        "permutation, message",
        [
            ([0, 1.7, 2, 3], "non-integer vertex index in permutation entry 1"),
            ([0, 1, 2, float("nan")], "non-integer vertex index in permutation entry 3"),
            ([True, False, 2, 3], "boolean vertex index in permutation entry 0"),
            ([1, 0, np.True_, 3], "boolean vertex index in permutation entry 2"),
        ],
    )
    def test_relabel_rejects_what_a_simplex_rejects(self, permutation, message):
        with pytest.raises(MeshValidationError, match=message):
            relabel_vertices(meshes.split_square(), permutation)

    def test_index_beyond_int64(self):
        with pytest.raises(MeshValidationError, match="vertex indices must be integers"):
            load_mesh(triangle_json(simplices=[[0, 1, 10**30]]))

    def test_overflowing_volume(self):
        with pytest.raises(MeshValidationError, match="non-finite volume of simplex 0"):
            with np.errstate(all="ignore"):
                GeometricComplex([[-1e308, 0], [1e308, 0], [0, 1e308]], [[0, 1, 2]])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16, np.float64])
    def test_numeric_index_arrays_load(self, dtype):
        gc = GeometricComplex([[0, 0], [1, 0], [0, 1]], np.array([[0, 1, 2]], dtype=dtype))
        assert gc.top_simplices.tolist() == [[0, 1, 2]]
        assert gc.top_simplices.dtype == np.dtype(int)

    def test_python_int_lists_load(self):
        gc = load_mesh(triangle_json(simplices=[[2, 0, 1]]))
        assert gc.top_simplices.tolist() == [[2, 0, 1]]

    def test_caller_arrays_stay_writable(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tops = np.array([[0, 1, 2]])
        GeometricComplex(verts, tops)
        assert verts.flags.writeable and tops.flags.writeable


_json_scalars = st.one_of(
    st.integers(min_value=-1, max_value=4),
    st.integers(min_value=2**62, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 1.0, 1.7, 1e308, -1e308]),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
)
_edits = st.lists(
    st.tuples(
        st.sampled_from(["dimension", "vertices", "simplices"]),
        st.integers(0, 3),
        st.integers(0, 2),
        st.one_of(st.floats(-2, 2), _json_scalars),
    ),
    max_size=2,
)


@given(edits=_edits)
@settings(max_examples=300, deadline=None)
def test_load_mesh_fuzz_returns_valid_complex_or_mesh_error(edits):
    """A valid square mesh with its dimension or random entries overwritten or appended.

    A boolean anywhere in the result must be rejected.
    """
    obj = {
        "dimension": 2,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "simplices": [[0, 1, 2], [0, 2, 3]],
    }
    for key, i, j, value in edits:
        if key == "dimension":
            obj[key] = value
            continue
        row = obj[key][i % len(obj[key])]
        if j < len(row):
            row[j] = value
        else:
            row.append(value)
    has_boolean = isinstance(obj["dimension"], bool) or any(
        isinstance(v, bool) for key in ("vertices", "simplices") for row in obj[key] for v in row
    )
    try:
        with np.errstate(all="ignore"):
            gc = load_mesh(json.dumps(obj))
    except MeshError:
        return
    assert not has_boolean
    assert isinstance(gc, GeometricComplex)
    assert np.isfinite(gc.vertices).all()
    assert gc.top_simplices.dtype == np.dtype(int)
    assert gc.top_simplices.min() >= 0 and gc.top_simplices.max() < gc.num_vertices
    assert np.isfinite(gc.top_volumes).all() and (gc.top_volumes != 0).all()
    assert gc.complex_dim == obj["dimension"] == gc.top_simplices.shape[1] - 1


def signed_volume(gc, simplex):
    """The batched kernel's signed volume of one simplex, in the given vertex order."""
    return _signed_volumes(gc.vertices[[list(simplex)]])[0][0]


def top_gradients(gc, t):
    """The batched kernel's barycentric gradients of top simplex t, as given."""
    return _simplex_gradients(gc.vertices[gc.top_simplices])[t]


class TestSignedVolume:
    def test_reference_triangle(self):
        gc = meshes.reference_triangle()
        assert signed_volume(gc, (0, 1, 2)) == pytest.approx(0.5, abs=1e-15)

    def test_transposition_flips_sign(self):
        gc = meshes.reference_triangle()
        assert signed_volume(gc, (0, 2, 1)) == pytest.approx(-0.5, abs=1e-15)

    def test_reference_tetrahedron(self):
        gc = meshes.solid_tetrahedron()
        assert signed_volume(gc, (0, 1, 2, 3)) == pytest.approx(1 / 6, abs=1e-15)

    def test_gram_route_when_embedded(self):
        gc = meshes.tetrahedron_boundary()
        # area of the equilateral face opposite the origin: sqrt(3)/2
        assert signed_volume(gc, (1, 2, 3)) == pytest.approx(math.sqrt(3) / 2)

    @given(st.permutations(range(3)))
    @settings(max_examples=12, deadline=None)
    def test_alternating_under_permutations(self, perm):
        gc = meshes.reference_triangle()
        base = signed_volume(gc, (0, 1, 2))
        sign = 1
        perm_list = list(perm)
        for i in range(3):
            while perm_list[i] != i:
                j = perm_list[i]
                perm_list[i], perm_list[j] = perm_list[j], perm_list[i]
                sign = -sign
        assert signed_volume(gc, tuple(perm)) == pytest.approx(sign * base, abs=1e-15)

    def test_scaling_multiplies_volume(self):
        gc = GeometricComplex([[0, 0], [2, 0], [0, 2]], [[0, 1, 2]])
        assert signed_volume(gc, (0, 1, 2)) == pytest.approx(2.0)

    def test_unsigned_volume_of_edge(self):
        gc = meshes.split_square()
        assert _simplex_volumes(gc.vertices[[[0, 2]]])[0] == pytest.approx(math.sqrt(2))


class TestAbstr:
    def test_single_triangle_faces_and_sign(self):
        ac = abstr(meshes.reference_triangle())
        assert ac.simplex_arrays[1].tolist() == [[0, 1], [0, 2], [1, 2]]
        assert ac.orientation_signs.tolist() == [1]

    def test_reversed_triangle_sign(self):
        gc = GeometricComplex([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
        ac = abstr(gc)
        assert ac.orientation_signs.tolist() == [-1]
        assert ac.simplex_arrays[1].tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_square_edge_enumeration(self):
        ac = abstr(meshes.split_square())
        assert ac.simplex_arrays[1].tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [2, 3]]

    def test_idempotent_on_face_structure(self):
        gc = meshes.disk()
        ac = abstr(gc)
        sorted_tops = GeometricComplex(
            gc.vertices, np.sort(gc.top_simplices, axis=1)
        )
        ac2 = abstr(sorted_tops)
        for level, level2 in zip(ac.simplex_arrays, ac2.simplex_arrays, strict=True):
            assert np.array_equal(level, level2)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_relabeling_commutes(self, fixture_set, name):
        gc = fixture_set[name]
        rng = np.random.default_rng(11)
        perm = rng.permutation(gc.num_vertices)
        relabeled = abstr(relabel_vertices(gc, perm))
        direct = abstr(gc)
        for p in range(direct.complex_dim + 1):
            mapped = np.sort(perm[direct.simplex_arrays[p]], axis=1)
            assert sorted(mapped.tolist()) == relabeled.simplex_arrays[p].tolist()
        if gc.complex_dim == gc.embed_dim:
            assert np.array_equal(direct.orientation_signs, relabeled.orientation_signs)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_closure_and_ordering_invariants(self, abstract_set, name):
        ac = abstract_set[name]
        levels = [list(map(tuple, level.tolist())) for level in ac.simplex_arrays]
        for p, level in enumerate(levels):
            assert level == sorted(level)
            assert all(list(s) == sorted(set(s)) for s in level)
        for p in range(1, ac.complex_dim + 1):
            lower = set(levels[p - 1])
            for s in levels[p]:
                for k in range(p + 1):
                    assert s[:k] + s[k + 1 :] in lower


class TestBarycentricGradients:
    def test_reference_triangle_values(self):
        gc = meshes.reference_triangle()
        grads = top_gradients(gc, 0)
        np.testing.assert_allclose(grads, [[-1, -1], [1, 0], [0, 1]], atol=1e-15)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_gradients_sum_to_zero(self, fixture_set, name):
        gc = fixture_set[name]
        for t in range(gc.num_top):
            grads = top_gradients(gc, t)
            np.testing.assert_allclose(grads.sum(axis=0), 0.0, atol=1e-12)

    def test_kronecker_property(self):
        gc = meshes.disk()
        for t in range(gc.num_top):
            simplex = gc.top_simplices[t]
            coords = gc.vertices[simplex]
            grads = top_gradients(gc, t)
            origin = coords[0]
            for i in range(len(simplex)):
                for j in range(len(simplex)):
                    lam = (1.0 if i == 0 else 0.0) + grads[i] @ (coords[j] - origin)
                    assert lam == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_scaled_triangle_halves_gradients(self):
        gc = GeometricComplex([[0, 0], [2, 0], [0, 2]], [[0, 1, 2]])
        grads = top_gradients(gc, 0)
        np.testing.assert_allclose(grads[1], [0.5, 0.0], atol=1e-15)


class TestDualVolumes:
    def test_single_triangle_vertex_duals(self):
        gc = meshes.reference_triangle()
        dv = barycentric_dual_volumes(gc, abstr(gc))
        np.testing.assert_allclose(dv[0], 1 / 6, atol=1e-14)

    def test_top_degree_stores_primal_volume(self):
        gc = meshes.reference_triangle()
        dv = barycentric_dual_volumes(gc, abstr(gc))
        assert dv[2][0] == pytest.approx(0.5)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_vertex_duals_partition_total_volume(self, fixture_set, name):
        gc = fixture_set[name]
        ac = abstr(gc)
        dv = barycentric_dual_volumes(gc, ac)
        total = float(np.abs(gc.top_volumes).sum())
        assert dv[0].sum() == pytest.approx(total, rel=1e-12)
        for p in range(ac.complex_dim + 1):
            assert np.all(dv[p] > 0)

    def test_tetrahedron_edge_duals(self):
        gc = meshes.solid_tetrahedron()
        ac = abstr(gc)
        dv = barycentric_dual_volumes(gc, ac)
        assert all(v > 0 for v in dv[1])
        assert dv[3][0] == pytest.approx(1 / 6)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_euler_characteristic_matches_homology(fixture_set, name):
    from decfem import betti_numbers, matrices_for

    ac = abstr(fixture_set[name])
    betti = betti_numbers(matrices_for(ac))
    assert ac.euler_characteristic() == sum(
        (-1) ** p * b for p, b in enumerate(betti)
    )
