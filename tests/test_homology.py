"""Smith normal form and the integer homology pipeline."""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decfem import (
    abstr,
    betti_numbers,
    complex_matrices,
    homology_generators,
    matrices_for,
    meshes,
    smith_normal_form,
    torsion_coefficients,
    uniform_refine,
)
from decfem import homology
from decfem.chains import IntSparseMatrix, _exact
from decfem.mesh import AbstractComplex, GeometricComplex

from conftest import (
    FIXTURE_NAMES,
    exact_determinant,
    kuhn_cube,
    random_delaunay_mesh,
    rips_complex,
    two_tets,
)


def snf_of(dense, **kw):
    return smith_normal_form(IntSparseMatrix.from_dense(dense), **kw)


class TestSmithNormalForm:
    def test_one_by_one(self):
        assert snf_of([[2]]).diag == [2]

    def test_two_by_two(self):
        res = snf_of([[1, 2], [3, 4]])
        assert res.diag == [1, 2]

    def test_zero_matrix(self):
        res = snf_of([[0] * 4 for _ in range(3)])
        assert res.diag == []
        assert res.rank == 0
        assert res.left == IntSparseMatrix.identity(3)
        assert res.right == IntSparseMatrix.identity(4)

    def test_divisibility_chain_example(self):
        res = snf_of([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert res.diag == [2, 2, 156]
        for a, b in zip(res.diag, res.diag[1:]):
            assert b % a == 0

    def test_transform_identity(self):
        mats = [
            [[1, 2], [3, 4]],
            [[6, 4], [2, 8]],
            [[2, 0, 0], [0, 3, 0]],
            [[0, 1], [1, 0], [5, 5]],
        ]
        for dense in mats:
            a = IntSparseMatrix.from_dense(dense)
            res = smith_normal_form(a)
            d = res.left @ a @ res.right
            expected = {
                (i, i): v for i, v in enumerate(res.diag)
            }
            assert d.entries == expected
            assert (res.left @ res.left_inv) == IntSparseMatrix.identity(a.rows)
            assert (res.right @ res.right_inv) == IntSparseMatrix.identity(a.cols)

    @pytest.mark.parametrize("name", ["annulus", "projective_plane", "tetrahedron_boundary"])
    def test_transforms_are_valid_matrices(self, abstract_set, name):
        cm = matrices_for(abstract_set[name])
        for mat in cm.boundary.values():
            res = smith_normal_form(mat)
            for transform in snf_fields(res)[2:]:
                assert all(type(v) is int and v for v in transform.entries.values())
                assert transform == IntSparseMatrix(transform.rows, transform.cols, transform.entries)

    def test_determinism(self):
        dense = [[3, 1, -4], [2, -7, 0], [5, 5, 5]]
        first = snf_of(dense)
        second = snf_of(dense)
        assert first.diag == second.diag
        assert first.left == second.left
        assert first.right == second.right

    def test_unimodular_transforms_small(self):
        dense = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        res = snf_of(dense)
        assert abs(exact_determinant(res.left.to_dense())) == 1
        assert abs(exact_determinant(res.right.to_dense())) == 1

    def test_unimodular_transforms_on_boundary_matrices(self, abstract_set):
        cm = matrices_for(abstract_set["tetrahedron_boundary"])
        for p in (1, 2):
            res = smith_normal_form(cm.boundary[p])
            assert abs(exact_determinant(res.left.to_dense())) == 1
            assert abs(exact_determinant(res.right.to_dense())) == 1
            d = res.left @ cm.boundary[p] @ res.right
            assert d.entries == {(i, i): v for i, v in enumerate(res.diag)}

    @pytest.mark.parametrize("name", ["torus_minimal", "projective_plane", "annulus"])
    def test_invariant_factors_match_sympy(self, abstract_set, name):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as reference_snf

        cm = matrices_for(abstract_set[name])
        for p in (1, 2):
            mine = smith_normal_form(cm.boundary[p]).diag
            ref = reference_snf(sympy.Matrix(cm.boundary[p].to_dense()), domain=sympy.ZZ)
            theirs = sorted(
                abs(ref[i, i]) for i in range(min(ref.shape)) if ref[i, i] != 0
            )
            assert sorted(mine) == theirs

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=3,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_snf_properties_random(self, dense):
        a = IntSparseMatrix.from_dense(dense)
        res = smith_normal_form(a)
        # U A V is the stated diagonal
        d = res.left @ a @ res.right
        assert d.entries == {(i, i): v for i, v in enumerate(res.diag)}
        # positive, divisibility chain
        assert all(v > 0 for v in res.diag)
        for x, y in zip(res.diag, res.diag[1:]):
            assert y % x == 0
        # transforms invert exactly and are unimodular
        assert (res.left @ res.left_inv) == IntSparseMatrix.identity(a.rows)
        assert (res.right @ res.right_inv) == IntSparseMatrix.identity(a.cols)
        assert abs(exact_determinant(res.left.to_dense())) == 1
        assert abs(exact_determinant(res.right.to_dense())) == 1


EXPECTED_BETTI = {
    "triangle": [1, 0, 0],
    "square": [1, 0, 0],
    "hollow_triangle": [1, 1],
    "disk": [1, 0, 0],
    "annulus": [1, 1, 0],
    "tetrahedron_boundary": [1, 0, 1],
    "torus": [1, 2, 1],
    "torus_minimal": [1, 2, 1],
    "projective_plane": [1, 0, 0],
}


class TestBetti:
    @pytest.mark.parametrize("name,expected", sorted(EXPECTED_BETTI.items()))
    def test_fixture_betti(self, abstract_set, name, expected):
        assert betti_numbers(matrices_for(abstract_set[name])) == expected

    @pytest.mark.parametrize("name", sorted(EXPECTED_BETTI))
    def test_euler_cross_check(self, abstract_set, name):
        ac = abstract_set[name]
        betti = betti_numbers(matrices_for(ac))
        assert sum((-1) ** p * b for p, b in enumerate(betti)) == ac.euler_characteristic()

    @pytest.mark.parametrize("name", sorted(EXPECTED_BETTI))
    def test_rank_nullity_against_float_rank(self, abstract_set, name):
        ac = abstract_set[name]
        cm = matrices_for(ac)
        for p in range(1, ac.complex_dim + 1):
            exact_rank = smith_normal_form(cm.boundary[p]).rank
            assert exact_rank == np.linalg.matrix_rank(cm.boundary_csr(p).toarray())
            assert exact_rank + (cm.counts[p] - exact_rank) == cm.counts[p]


class TestTorsion:
    def test_contractible_fixtures_torsion_free(self, abstract_set):
        for name in ("triangle", "square", "disk"):
            cm = matrices_for(abstract_set[name])
            for p in range(cm.complex_dim + 1):
                assert torsion_coefficients(cm, p) == []

    def test_projective_plane_h1(self, abstract_set):
        cm = matrices_for(abstract_set["projective_plane"])
        assert torsion_coefficients(cm, 1) == [2]
        assert torsion_coefficients(cm, 0) == []
        assert torsion_coefficients(cm, 2) == []

    def test_torus_torsion_free(self, abstract_set):
        for name in ("torus", "torus_minimal"):
            cm = matrices_for(abstract_set[name])
            for p in range(3):
                assert torsion_coefficients(cm, p) == []


def cohomology_betti(cm, p):
    """Real Betti number from the ranks of the coboundaries (torsion is invisible here)."""

    def d_rank(q):
        if q < 0 or q > cm.complex_dim - 1:
            return 0
        return smith_normal_form(_exact(cm.coboundary_csr(q))).rank

    return cm.counts[p] - d_rank(p) - d_rank(p - 1)


class TestCohomology:
    @pytest.mark.parametrize("name", sorted(EXPECTED_BETTI))
    def test_real_cohomology_matches_betti(self, abstract_set, name):
        cm = matrices_for(abstract_set[name])
        betti = betti_numbers(cm)
        for p in range(cm.complex_dim + 1):
            assert cohomology_betti(cm, p) == betti[p]

    def test_projective_plane_degree_one_vanishes(self, abstract_set):
        cm = matrices_for(abstract_set["projective_plane"])
        assert cohomology_betti(cm, 1) == 0


def _is_cycle(cm, p, chain):
    if p == 0:
        return True
    return all(v == 0 for v in cm.boundary[p].matvec(chain))


def _boundary_above(cm, p):
    """The degree-(p+1) boundary, empty in the top degree."""
    return cm.boundary[p + 1] if p < cm.complex_dim else IntSparseMatrix(cm.counts[p], 0)


def _augmented(cm, p, chains):
    """The matrix [degree-(p+1) boundary | chains]."""
    bmat = _boundary_above(cm, p)
    ent = dict(bmat.entries)
    for k, chain in enumerate(chains):
        for i, v in enumerate(chain):
            if v:
                ent[(i, bmat.cols + k)] = v
    return IntSparseMatrix(cm.counts[p], bmat.cols + len(chains), ent)


def _augmented_snf(cm, p, chains):
    """Rank of the degree-(p+1) boundary, and the SNF of [boundary | chains]."""
    base_rank = smith_normal_form(_boundary_above(cm, p)).rank
    return base_rank, smith_normal_form(_augmented(cm, p, chains))


def _augmented_rank_gain(cm, p, chains):
    """Rank increase of the boundary image after appending the chains."""
    base_rank, augmented = _augmented_snf(cm, p, chains)
    return augmented.rank - base_rank


def assert_homology_basis(cm, p, chains):
    """The chains are exact integer cycles whose classes form a basis of H_p / T_p.

    Let L be the span of the degree-(p+1) boundaries and the chains, inside
    the cycles Z_p.  The rank gain makes the classes independent and
    beta_p in number, so Z_p / L is the torsion of Z^n / L, whose order is
    |T_p| times the index of the classes' span in H_p / T_p.  Invariant
    factors > 1 equal to the torsion coefficients force index 1.
    """
    assert len(chains) == betti_numbers(cm)[p]
    for chain in chains:
        assert len(chain) == cm.counts[p]
        assert all(type(v) is int for v in chain)
        assert _is_cycle(cm, p, chain)
    base_rank, augmented = _augmented_snf(cm, p, chains)
    assert augmented.rank - base_rank == len(chains)
    assert [d for d in augmented.diag if d > 1] == torsion_coefficients(cm, p)


class TestGenerators:
    def test_hollow_triangle_loop(self, abstract_set):
        cm = matrices_for(abstract_set["hollow_triangle"])
        gens = homology_generators(cm, 1)
        assert len(gens) == 1
        # edges (0,1),(0,2),(1,2): the loop is +-(1, -1, 1)
        assert gens[0] in ([1, -1, 1], [-1, 1, -1])

    def test_disk_has_no_loops(self, abstract_set):
        cm = matrices_for(abstract_set["disk"])
        assert homology_generators(cm, 1) == []

    def test_annulus_loop_is_cycle_and_not_boundary(self, abstract_set):
        cm = matrices_for(abstract_set["annulus"])
        gens = homology_generators(cm, 1)
        assert len(gens) == 1
        assert _is_cycle(cm, 1, gens[0])
        assert _augmented_rank_gain(cm, 1, gens) == 1

    @pytest.mark.parametrize("name", ["torus_minimal", "projective_plane", "annulus"])
    def test_generators_posted_conditions(self, abstract_set, name):
        cm = matrices_for(abstract_set[name])
        betti = betti_numbers(cm)
        for p in range(cm.complex_dim + 1):
            gens = homology_generators(cm, p)
            assert len(gens) == betti[p]
            for g in gens:
                assert _is_cycle(cm, p, g)
                assert any(v != 0 for v in g)
            if gens:
                assert _augmented_rank_gain(cm, p, gens) == len(gens)


def full_scan_pivot(elim, t):
    """Reference pivot rule: scan every live cell for the least (|v|, fill, r, c)."""
    best = None
    best_key = None
    for r in elim.rows:
        if r < t:
            continue
        row = elim.rows[r]
        rlen = len(row)
        for c, v in row.items():
            if c < t:
                continue
            fill = (rlen - 1) * (len(elim.colrows[c]) - 1)
            key = (abs(v), fill, r, c)
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
    return best


def snf_fields(res):
    return (res.diag, res.rank, res.left, res.right, res.left_inv, res.right_inv)


def assert_same_as_full_scan(mat):
    heap_result = snf_fields(smith_normal_form(mat))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_select_pivot", full_scan_pivot)
        scan_result = snf_fields(smith_normal_form(mat))
    assert heap_result == scan_result


def assert_generators_same_as_full_scan(cm):
    degrees = range(cm.complex_dim + 1)
    heap_gens = [homology_generators(cm, p) for p in degrees]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_select_pivot", full_scan_pivot)
        scan_gens = [homology_generators(cm, p) for p in degrees]
    assert heap_gens == scan_gens


DIFFERENTIAL_COMPLEXES = {
    **{f"rips_{seed}": (lambda seed=seed: rips_complex(seed)) for seed in range(6)},
    **{
        f"delaunay_{seed}": (lambda seed=seed: abstr(random_delaunay_mesh(seed)))
        for seed in range(6)
    },
    "two_tets": lambda: abstr(two_tets()),
}


def packed_key(elim, r, c):
    """The heap key of cell (r, c): ((|v| m n + fill) m + r) n + c."""
    m, n = elim.m, elim.n
    fill = (len(elim.rows[r]) - 1) * (len(elim.colrows[c]) - 1)
    return ((abs(elim.rows[r][c]) * m * n + fill) * m + r) * n + c


def assert_heap_invariant(mat):
    """After every pivot search, each live cell's current key is in the heap."""
    searches = []
    heap_search = homology._select_pivot

    def checked(elim, t):
        expected = full_scan_pivot(elim, t)
        pivot = heap_search(elim, t)
        assert pivot == expected
        live = {
            (r, c): packed_key(elim, r, c)
            for r, row in elim.rows.items()
            if r >= t
            for c in row
        }
        live.pop(pivot, None)  # popped from the heap as the accepted minimum
        assert set(live.values()) <= set(elim.heap)
        searches.append(t)
        return pivot

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_select_pivot", checked)
        smith_normal_form(mat)
    assert searches or mat.is_zero()


class TestAgainstFullScanPivot:
    """The heap pivot search picks exactly the pivots of a full-matrix scan."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(DIFFERENTIAL_COMPLEXES))
    def test_complexes(self, abstract_set, name):
        build = DIFFERENTIAL_COMPLEXES.get(name)
        cm = matrices_for(abstract_set[name] if build is None else build())
        coboundaries = [_exact(cm.coboundary_csr(p)) for p in range(cm.complex_dim)]
        for mat in list(cm.boundary.values()) + coboundaries:
            assert_same_as_full_scan(mat)
            assert_heap_invariant(mat)
        assert_generators_same_as_full_scan(cm)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda cols: st.lists(
                st.lists(
                    st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 9, 10]),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    @example([[2, 0], [0, 3]])
    @example([[4, 6, 0], [6, 4, 2], [0, 2, 9]])
    @settings(max_examples=150, deadline=None)
    def test_random_integer_matrices(self, dense):
        mat = IntSparseMatrix.from_dense(dense)
        assert_same_as_full_scan(mat)
        assert_heap_invariant(mat)


def pivot_without_compaction(elim, t):
    """The heap pivot search before heap compaction: stale keys leave the
    heap only when they reach its top."""
    m, n = elim.m, elim.n
    mn = m * n
    rows, colrows, heap = elim.rows, elim.colrows, elim.heap
    for r in elim.dirty_rows:
        row = rows.get(r)
        if r < t or not row:
            continue
        rfill = len(row) - 1
        for c, v in row.items():
            heapq.heappush(heap, ((abs(v) * mn + rfill * (len(colrows[c]) - 1)) * m + r) * n + c)
    for c in elim.dirty_cols:
        members = colrows.get(c)
        if c < t or not members:
            continue
        cfill = len(members) - 1
        for r in members - elim.dirty_rows:
            row = rows[r]
            heapq.heappush(heap, ((abs(row[c]) * mn + (len(row) - 1) * cfill) * m + r) * n + c)
    elim.dirty_rows.clear()
    elim.dirty_cols.clear()
    while heap:
        key = heapq.heappop(heap)
        rest, c = divmod(key, n)
        rest, r = divmod(rest, m)
        absv, fill = divmod(rest, mn)
        if r < t or c < t:
            continue
        row = rows.get(r)
        v = row.get(c) if row else None
        if (
            v is not None
            and abs(v) == absv
            and (len(row) - 1) * (len(colrows[c]) - 1) == fill
        ):
            return r, c
    return None


def refined_projective_plane(times: int):
    gc = meshes.projective_plane_minimal()
    for _ in range(times):
        gc = uniform_refine(gc)
    return gc


class TestHeapCompaction:
    """Rebuilding the pivot heap from live keys keeps every pivot."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ["torus_16", "rp2_refined_2"])
    def test_same_snf_as_without_compaction(self, abstract_set, name):
        if name == "torus_16":
            ac = abstr(meshes.torus_grid(16, 16))
        elif name == "rp2_refined_2":
            ac = abstr(refined_projective_plane(2))
        else:
            ac = abstract_set[name]
        compacting = homology._select_pivot
        peaks = []

        def bounded(elim, t):
            pivot = compacting(elim, t)
            live = sum(len(row) for r, row in elim.rows.items() if r >= t)
            assert len(elim.heap) <= 2 * live
            peaks.append(len(elim.heap))
            return pivot

        for mat in matrices_for(ac).boundary.values():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(homology, "_select_pivot", bounded)
                compacted = snf_fields(smith_normal_form(mat))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(homology, "_select_pivot", pivot_without_compaction)
                reference = snf_fields(smith_normal_form(mat))
            assert compacted == reference
        assert peaks


def full_operator_homology(cm):
    """Betti numbers and torsion from Smith normal forms of the full boundaries."""
    n = cm.complex_dim
    diags = [[]] * (n + 2)
    for p, mat in cm.boundary.items():
        diags[p] = smith_normal_form(mat).diag
    betti = [cm.counts[p] - len(diags[p]) - len(diags[p + 1]) for p in range(n + 1)]
    return betti, [[d for d in diags[p + 1] if d > 1] for p in range(n + 1)]


def columns(mat, first):
    """Columns first..cols-1 of mat as sparse {row: value} dicts."""
    cols = [{} for _ in range(first, mat.cols)]
    for (r, c), v in mat.entries.items():
        if c >= first:
            cols[c - first][r] = v
    return cols


def full_snf_generators(cm, p):
    """Generators from Smith normal forms, with transforms, of the full boundaries.

    Columns of V beyond the rank of the degree-p boundary span its cycle
    lattice; the boundary lattice of degree p+1, rewritten in those
    coordinates, is diagonalized once more to separate free generators from
    torsion and boundaries.
    """
    n_p = cm.counts[p]
    if p >= 1:
        snf_a = smith_normal_form(cm.boundary[p])
        r = snf_a.rank
        vmat, vinv = snf_a.right, snf_a.right_inv
    else:
        r = 0
        vmat = vinv = IntSparseMatrix.identity(n_p)
    z = n_p - r
    if z == 0:
        return []
    kernel_cols = columns(vmat, r)
    if p == cm.complex_dim:
        coords_gens = [{j: 1} for j in range(z)]
    else:
        bmat = cm.boundary[p + 1]
        coeff = vinv @ bmat
        assert all(rr >= r for (rr, _cc) in coeff.entries)
        ymat = IntSparseMatrix(
            z,
            bmat.cols,
            {(rr - r, cc): v for (rr, cc), v in coeff.entries.items()},
        )
        snf_y = smith_normal_form(ymat)
        coords_gens = columns(snf_y.left_inv, snf_y.rank)
    gens = []
    for coord in coords_gens:
        chain = [0] * n_p
        for j, c in coord.items():
            for i, v in kernel_cols[j].items():
                chain[i] += c * v
        gens.append(chain)
    return gens


def disconnected_complex() -> AbstractComplex:
    """RP², the minimal torus, an isolated vertex and an isolated edge."""
    levels, offset = [[], [], []], 0
    for gc in (meshes.projective_plane_minimal(), meshes.torus_minimal()):
        ac = abstr(gc)
        for p in range(3):
            levels[p] += [tuple(offset + v for v in s) for s in ac.simplex_arrays[p].tolist()]
        offset += ac.num_simplices(0)
    levels[0] += [(offset,), (offset + 1,), (offset + 2,)]
    levels[1].append((offset + 1, offset + 2))
    return AbstractComplex(2, levels, [1] * len(levels[2]))


def kuhn_cube_with_tunnel_and_cavity() -> GeometricComplex:
    """kuhn_cube(5) without the cells (1, 1, 0..4), a tunnel through the
    cube, and (3, 3, 2), a cavity inside it: beta = [1, 1, 1, 0]."""
    cube = kuhn_cube(5)
    removed = {(1, 1, l) for l in range(5)} | {(3, 3, 2)}
    corners = list(itertools.product(range(5), repeat=3))  # 6 tetrahedra each, in order
    kept = [tet for k, tet in enumerate(cube.top_simplices) if corners[k // 6] not in removed]
    return GeometricComplex(cube.vertices, kept)


REDUCTION_INPUTS = {
    **{f"rp2_refined_{k}": (lambda k=k: abstr(refined_projective_plane(k))) for k in range(3)},
    **{f"rips_{seed}": (lambda seed=seed: rips_complex(seed)) for seed in range(12)},
    **{
        f"delaunay_{seed}": (lambda seed=seed: abstr(random_delaunay_mesh(seed)))
        for seed in range(12)
    },
    "two_tets": lambda: abstr(two_tets()),
    "kuhn_1": lambda: abstr(kuhn_cube(1)),
    "kuhn_2": lambda: abstr(kuhn_cube(2)),
    "disconnected": disconnected_complex,
    "three_points": lambda: AbstractComplex(0, [[(0,), (1,), (2,)]], [1, 1, 1]),
    "kuhn_5_tunnel_cavity": lambda: abstr(kuhn_cube_with_tunnel_and_cavity()),
    "torus_16": lambda: abstr(meshes.torus_grid(16, 16)),
}


# Too large for sympy's dense elimination.
TOO_LARGE_FOR_SYMPY = {"kuhn_5_tunnel_cavity", "torus_16"}


def reduction_input(abstract_set, name):
    build = REDUCTION_INPUTS.get(name)
    return abstract_set[name] if build is None else build()


class TestCoreduction:
    """Betti numbers and torsion of the coreduced complex equal the full ones."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(REDUCTION_INPUTS))
    def test_matches_full_operator_snf(self, abstract_set, name):
        ac = reduction_input(abstract_set, name)
        cm = matrices_for(ac)
        torsion = [torsion_coefficients(cm, p) for p in range(cm.complex_dim + 1)]
        assert (betti_numbers(cm), torsion) == full_operator_homology(cm)
        red = cm._reduction
        euler = sum((-1) ** p * len(cells) for p, cells in enumerate(red.live)) + len(red.starts)
        assert euler == ac.euler_characteristic()

    @pytest.mark.parametrize(
        "name", FIXTURE_NAMES + [name for name in REDUCTION_INPUTS if name not in TOO_LARGE_FOR_SYMPY]
    )
    def test_matches_sympy(self, abstract_set, name):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        cm = matrices_for(reduction_input(abstract_set, name))
        n = cm.complex_dim
        diags = [[]] * (n + 2)
        for p, mat in cm.boundary.items():
            factors = invariant_factors(sympy.Matrix(mat.to_dense()), domain=sympy.ZZ)
            diags[p] = [abs(int(d)) for d in factors if d != 0]
        assert betti_numbers(cm) == [
            cm.counts[p] - len(diags[p]) - len(diags[p + 1]) for p in range(n + 1)
        ]
        for p in range(n + 1):
            assert torsion_coefficients(cm, p) == sorted(d for d in diags[p + 1] if d > 1)

    def test_disconnected_complex(self):
        cm = matrices_for(disconnected_complex())
        assert betti_numbers(cm) == [4, 2, 1]
        assert [torsion_coefficients(cm, p) for p in range(3)] == [[], [2], []]
        assert len(cm._reduction.starts) == 4

    def test_deterministic_and_cached(self, monkeypatch):
        first = homology._reduction(matrices_for(abstr(refined_projective_plane(1))))
        cm = matrices_for(abstr(refined_projective_plane(1)))
        assert homology._reduction(cm) == first
        calls = []
        snf = homology.smith_normal_form
        monkeypatch.setattr(
            homology, "smith_normal_form", lambda *a, **kw: calls.append(1) or snf(*a, **kw)
        )
        betti_numbers(cm)
        torsion_coefficients(cm, 1)
        assert calls == []
        assert homology._reduction(cm) is cm._reduction

    def test_residual_of_large_torus_is_small(self):
        cm = matrices_for(abstr(meshes.torus_grid(32, 32)))
        assert betti_numbers(cm) == [1, 2, 1]
        assert sum(len(cells) for cells in cm._reduction.live) < 0.05 * sum(cm.counts)


class TestGeneratorBasis:
    """Generators through the coreduction and the full-boundary oracle both
    give a basis of H_p modulo torsion, in every degree."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(REDUCTION_INPUTS))
    def test_basis_in_every_degree(self, abstract_set, name):
        ac = reduction_input(abstract_set, name)
        cm = matrices_for(ac)
        degrees = range(cm.complex_dim + 1)
        gens = [homology_generators(cm, p) for p in degrees]
        for p in degrees:
            assert_homology_basis(cm, p, gens[p])
            assert_homology_basis(cm, p, full_snf_generators(cm, p))
        fresh = complex_matrices(ac)
        assert [homology_generators(fresh, p) for p in degrees] == gens


def two_snf_generators(cm, p):
    """The residual generator path before one Smith normal form per degree
    was shared: the columns of V beyond the rank of residual[p] span the
    residual cycle lattice, residual[p+1] is rewritten in those
    coordinates with V^-1 and diagonalized once more, and each residual
    cycle is lifted through the removed pairs, last removed first."""
    red = homology._reduction(cm)
    if p == 0:
        return homology_generators(cm, 0)
    live = red.live[p]
    snf_a = smith_normal_form(red.residual[p])
    r = snf_a.rank
    z = len(live) - r
    if z == 0:
        return []
    kernel_cols = columns(snf_a.right, r)
    bmat = red.residual[p + 1]
    coeff = snf_a.right_inv @ bmat
    assert all(rr >= r for (rr, _cc) in coeff.entries), "boundary chain escaped the cycle lattice"
    ymat = IntSparseMatrix(
        z,
        bmat.cols,
        {(rr - r, cc): v for (rr, cc), v in coeff.entries.items()},
    )
    snf_y = smith_normal_form(ymat)
    coords_gens = columns(snf_y.left_inv, snf_y.rank)
    csr = cm.boundary_csr(p)
    ptr, cells, coeffs = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
    pairs = red.pairs[p]
    gens = []
    for coord in coords_gens:
        chain = [0] * cm.counts[p]
        for j, c in coord.items():
            for i, v in kernel_cols[j].items():
                chain[live[i]] += c * v
        for k in range(len(pairs) - 2, -1, -2):
            a, b = pairs[k], pairs[k + 1]
            row = range(ptr[b], ptr[b + 1])
            dc = sum(coeffs[t] * chain[cells[t]] for t in row)  # <dc, b>
            if dc:
                chain[a] -= dc * next(coeffs[t] for t in row if cells[t] == a)
        gens.append(chain)
    return gens


class TestAgainstTwoSnfGenerators:
    """One Smith normal form per residual degree gives the generator
    lattice of the two-SNF path it replaced, in every degree."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(REDUCTION_INPUTS))
    def test_same_lattice_in_every_degree(self, abstract_set, name):
        cm = matrices_for(reduction_input(abstract_set, name))
        red = homology._reduction(cm)
        for p in range(cm.complex_dim + 1):
            new = homology_generators(cm, p)
            old = two_snf_generators(cm, p)
            assert len(new) == len(old)
            # [d_{p+1} | old] and [d_{p+1} | new] lie in [d_{p+1} | old | new]
            # with the same rank; equal invariant factors make them equal.
            factors = [smith_normal_form(_augmented(cm, p, chains)).diag for chains in (old, new, old + new)]
            assert factors[0] == factors[1] == factors[2]
            if p:
                # The first s columns of U^-1 of residual[p+1] are cycles.
                snf = smith_normal_form(red.residual[p + 1])
                head = IntSparseMatrix(
                    snf.left_inv.rows,
                    snf.rank,
                    {(r, c): v for (r, c), v in snf.left_inv.entries.items() if c < snf.rank},
                )
                assert (red.residual[p] @ head).is_zero()

    def test_tunnel_and_cavity(self):
        cm = matrices_for(abstr(kuhn_cube_with_tunnel_and_cavity()))
        assert betti_numbers(cm) == [1, 1, 1, 0]
        assert smith_normal_form(cm._reduction.residual[2]).rank == 76
        # The two paths pick different generators here, so the lattice
        # comparison above is not vacuous.
        degrees = range(cm.complex_dim + 1)
        assert [homology_generators(cm, p) for p in degrees] != [
            two_snf_generators(cm, p) for p in degrees
        ]
