"""Boundary/coboundary operators and induced chain maps, exact integers."""

import numpy as np
import pytest

from decfem import (
    abstr,
    apply_chain_map_check,
    complex_matrices,
    matrices_for,
    meshes,
)
from decfem.chains import ChainMapError, IntSparseMatrix, _exact

from conftest import (
    FIXTURE_NAMES,
    int_dense,
    int_key,
    int_matrix,
    int_transpose,
    random_delaunay_mesh,
    rips_complex,
    two_tets,
)


class TestIntSparseMatrix:
    def test_drops_stored_zero(self):
        m = IntSparseMatrix(2, 2, {(0, 0): 1, (1, 1): 0})
        assert m.nnz == 1

    def test_matmul_exact(self):
        a = int_matrix([[1, 2], [3, 4]])
        b = int_matrix([[5, 6], [7, 8]])
        assert int_dense(a @ b) == [[19, 22], [43, 50]]

    def test_big_integers_survive(self):
        big = 10**30
        a = int_matrix([[big]])
        assert int_dense(a @ a) == [[big * big]]

    def test_transpose(self):
        a = int_matrix([[1, 0, 2]])
        assert int_dense(int_transpose(a)) == [[1], [0], [2]]

    def test_empty_matrix_operations(self):
        z = IntSparseMatrix(3, 2)
        assert z.nnz == 0
        assert int_dense(int_transpose(z) @ z) == [[0, 0], [0, 0]]


class TestBoundaryMatrix:
    def test_triangle_edge_boundary(self):
        ac = abstr(meshes.reference_triangle())
        b1 = matrices_for(ac).boundary[1]
        # column of edge (0,1) over vertices (0,1,2)
        col = [row[0] for row in int_dense(b1)]
        assert col == [-1, 1, 0]

    def test_triangle_face_boundary(self):
        ac = abstr(meshes.reference_triangle())
        b2 = matrices_for(ac).boundary[2]
        # edges ordered (0,1),(0,2),(1,2): d(0,1,2) = (1,2) - (0,2) + (0,1)
        col = [row[0] for row in int_dense(b2)]
        assert col == [1, -1, 1]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_column_structure(self, abstract_set, name):
        ac = abstract_set[name]
        for p in range(1, ac.complex_dim + 1):
            bp = matrices_for(ac).boundary[p]
            per_col = {}
            for (r, c), v in bp.entries.items():
                per_col.setdefault(c, []).append(v)
                assert v in (-1, 1)
            for c in range(bp.cols):
                assert len(per_col[c]) == p + 1

    def test_edge_columns_sum_to_zero(self, abstract_set):
        for ac in abstract_set.values():
            b1 = matrices_for(ac).boundary[1]
            sums = [0] * b1.cols
            for (r, c), v in b1.entries.items():
                sums[c] += v
            assert all(s == 0 for s in sums)


class TestComplexProperty:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_boundary_squares_to_zero(self, abstract_set, name):
        cm = matrices_for(abstract_set[name])
        for p in range(1, cm.complex_dim):
            assert (cm.boundary[p] @ cm.boundary[p + 1]).nnz == 0

    def test_two_tets(self):
        cm = complex_matrices(abstr(two_tets()))
        assert (cm.boundary[1] @ cm.boundary[2]).nnz == 0
        assert (cm.boundary[2] @ cm.boundary[3]).nnz == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_delaunay(self, seed):
        cm = complex_matrices(abstr(random_delaunay_mesh(seed)))
        assert (cm.boundary[1] @ cm.boundary[2]).nnz == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rips(self, seed):
        cm = complex_matrices(rips_complex(seed))
        assert (cm.boundary[1] @ cm.boundary[2]).nnz == 0

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_coboundary_is_transpose(self, abstract_set, name):
        ac = abstract_set[name]
        cm = matrices_for(ac)
        for p in range(ac.complex_dim):
            assert int_key(_exact(cm.coboundary_csr(p))) == int_key(int_transpose(cm.boundary[p + 1]))
            assert _exact(cm.coboundary_csr(p)).entries == {
                (c, r): v for (r, c), v in cm.boundary[p + 1].entries.items()
            }

    def test_coboundary_composition_vanishes(self):
        ac = abstr(meshes.split_square())
        cm = matrices_for(ac)
        d0 = int_transpose(cm.boundary[1])
        d1 = int_transpose(cm.boundary[2])
        assert (d1 @ d0).nnz == 0

    def test_circle_coboundary_rank(self):
        ac = abstr(meshes.hollow_triangle())
        d0 = matrices_for(ac).coboundary_csr(0).toarray()
        assert np.linalg.matrix_rank(d0) == 2


class TestChainMaps:
    def test_identity_map(self, abstract_set):
        for ac in abstract_set.values():
            vertex_ids = [s[0] for s in ac.simplex_arrays[0].tolist()]
            fmap = {v: v for v in vertex_ids}
            assert apply_chain_map_check(ac, ac, fmap)

    def test_subcomplex_inclusion(self):
        tri = abstr(meshes.reference_triangle())
        square = abstr(meshes.split_square())
        assert apply_chain_map_check(tri, square, [0, 1, 2])

    def test_edge_collapse_commutes(self):
        tri = abstr(meshes.reference_triangle())
        assert apply_chain_map_check(tri, tri, [0, 0, 2])

    def test_non_simplicial_image_raises(self):
        square = abstr(meshes.split_square())
        tri = abstr(meshes.reference_triangle())
        # (1, 2) -> (1, 3): no such edge in the triangle complex target
        with pytest.raises(ChainMapError):
            apply_chain_map_check(square, square, [0, 1, 3, 2])
        del tri

    def test_map_into_larger_complex(self):
        tri = abstr(meshes.reference_triangle())
        disk = abstr(meshes.disk())
        # the disk's first fan triangle is (0, 1, 2)
        assert apply_chain_map_check(tri, disk, [0, 1, 2])

    @pytest.mark.parametrize(
        "vertex_map, vertex",
        [
            ([0, 1], 2),
            ({0: 0, 2: 2}, 1),
            ([True, 1, 2], 0),
            ([0, np.True_, 2], 1),
            ([0, 1.0, 2], 1),
            ([0, 1, np.float64(2.0)], 2),
            ([0, 1, "2"], 2),
            ({0: 0, 1: None, 2: 2}, 1),
            ([0, 2**70, 2], 1),
            ([0, 1, -(2**70)], 2),
            ([2**63, 1, 2], 0),
            ([0, np.uint64(2**64 - 1), 2], 1),
        ],
    )
    def test_bad_vertex_map_raises(self, vertex_map, vertex):
        tri = abstr(meshes.reference_triangle())
        with pytest.raises(ChainMapError, match=rf"\bvertex {vertex}\b") as err:
            apply_chain_map_check(tri, tri, vertex_map)
        assert isinstance(err.value, ValueError)
