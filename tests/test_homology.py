"""Smith normal form and the integer homology pipeline."""

import hashlib
import heapq
import itertools
from collections import Counter, deque
from fractions import Fraction

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
from decfem import coreduction, homology
from decfem.chains import IntSparseMatrix, _exact
from decfem.coreduction import coreduce
from decfem.homology import SnfResult
from decfem.mesh import AbstractComplex, GeometricComplex

from conftest import (
    FIXTURE_NAMES,
    exact_determinant,
    int_dense,
    int_identity,
    int_key,
    int_matrix,
    kuhn_cube,
    perforated_grid,
    random_delaunay_mesh,
    rips_complex,
    tunnel_cube,
    two_tets,
)


def snf_of(dense, **kw):
    return smith_normal_form(int_matrix(dense), **kw)


def assert_valid_snf(a, res):
    """A V = U^-1 D with |det U^-1| = |det V| = 1."""
    d = IntSparseMatrix(a.rows, a.cols, {(i, i): v for i, v in enumerate(res.diag)})
    assert int_key(a @ res.right) == int_key(res.left_inv @ d)
    assert abs(exact_determinant(int_dense(res.left_inv))) == 1
    assert abs(exact_determinant(int_dense(res.right))) == 1


def exact_inverse(v: IntSparseMatrix) -> IntSparseMatrix:
    """V^-1 of a square integer matrix V, by sparse Gauss-Jordan elimination
    over the rationals; every entry of the inverse must be an integer.

    The inverse is unique, so the pivot order (shortest live row first)
    only bounds the fill-in.
    """
    n = v.rows
    assert v.cols == n
    rows = [{} for _ in range(n)]  # V, reduced in place to a permutation
    colrows = [set() for _ in range(n)]
    for (r, c), x in v.entries.items():
        rows[r][c] = Fraction(x)
        colrows[c].add(r)
    inv = [{r: Fraction(1)} for r in range(n)]  # the identity, transformed alike
    pivot_rows, free = [], set(range(n))
    for col in range(n):
        p = min(colrows[col] & free, key=lambda r: (len(rows[r]), r))
        free.discard(p)
        pivot_rows.append(p)
        scale = rows[p][col]
        rows[p] = {c: x / scale for c, x in rows[p].items()}
        inv[p] = {c: x / scale for c, x in inv[p].items()}
        for r in colrows[col] - {p}:
            f = rows[r][col]
            for table, index in ((rows, colrows), (inv, None)):
                row = table[r]
                for c, x in table[p].items():
                    y = row.get(c, 0) - f * x
                    if y:
                        row[c] = y
                        if index is not None:
                            index[c].add(r)
                    else:
                        del row[c]
                        if index is not None:
                            index[c].discard(r)
    entries = {}
    for col, p in enumerate(pivot_rows):
        for c, x in inv[p].items():
            assert x.denominator == 1, f"V^-1[{col}, {c}] = {x} is not an integer"
            entries[(col, c)] = int(x)
    return IntSparseMatrix(n, n, entries)


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
        assert int_key(res.left_inv) == int_key(int_identity(3))
        assert int_key(res.right) == int_key(int_identity(4))

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
            a = int_matrix(dense)
            assert_valid_snf(a, smith_normal_form(a))

    @pytest.mark.parametrize("name", ["annulus", "projective_plane", "tetrahedron_boundary"])
    def test_transforms_are_valid_matrices(self, abstract_set, name):
        cm = matrices_for(abstract_set[name])
        for mat in cm.boundary.values():
            res = smith_normal_form(mat)
            for transform in (res.right, res.left_inv):
                assert all(type(v) is int and v for v in transform.entries.values())
                assert int_key(transform) == int_key(IntSparseMatrix(transform.rows, transform.cols, transform.entries))

    def test_determinism(self):
        dense = [[3, 1, -4], [2, -7, 0], [5, 5, 5]]
        first = snf_of(dense)
        second = snf_of(dense)
        assert first.diag == second.diag
        assert int_key(first.left_inv) == int_key(second.left_inv)
        assert int_key(first.right) == int_key(second.right)

    def test_unimodular_transforms_small(self):
        a = int_matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert_valid_snf(a, smith_normal_form(a))

    def test_unimodular_transforms_on_boundary_matrices(self, abstract_set):
        cm = matrices_for(abstract_set["tetrahedron_boundary"])
        for p in (1, 2):
            assert_valid_snf(cm.boundary[p], smith_normal_form(cm.boundary[p]))

    @pytest.mark.parametrize("name", ["torus_minimal", "projective_plane", "annulus"])
    def test_invariant_factors_match_sympy(self, abstract_set, name):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as reference_snf

        cm = matrices_for(abstract_set[name])
        for p in (1, 2):
            mine = smith_normal_form(cm.boundary[p]).diag
            ref = reference_snf(sympy.Matrix(int_dense(cm.boundary[p])), domain=sympy.ZZ)
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
        a = int_matrix(dense)
        res = smith_normal_form(a)
        # A V = U^-1 D with unimodular U^-1 and V
        assert_valid_snf(a, res)
        # positive, divisibility chain
        assert all(v > 0 for v in res.diag)
        for x, y in zip(res.diag, res.diag[1:]):
            assert y % x == 0


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
            fill = (rlen - 1) * (len(elim.cols[c]) - 1)
            key = (abs(v), fill, r, c)
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
    return best


def reduction_key(red):
    """The fields of a ``homology._Reduction``, each matrix as its ``int_key``."""
    return (
        red.starts,
        red.pairs,
        red.live,
        {p: int_key(mat) for p, mat in red.residual.items()},
        [int_key(mat) for mat in red.complement],
        None if red.top_cycles is None else int_key(red.top_cycles),
        red.betti,
        red.torsion,
    )


def snf_fields(res):
    return (res.diag, res.rank, int_key(res.right), int_key(res.left_inv))


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


def differential_inputs(abstract_set, name):
    """The complex matrices of a fixture or differential complex, and its
    boundaries and coboundaries as integer matrices."""
    build = DIFFERENTIAL_COMPLEXES.get(name)
    cm = matrices_for(abstract_set[name] if build is None else build())
    coboundaries = [_exact(cm.coboundary_csr(p)) for p in range(cm.complex_dim)]
    return cm, list(cm.boundary.values()) + coboundaries


def packed_key(elim, r, c):
    """The heap key of cell (r, c): ((|v| m n + fill) m + r) n + c."""
    m, n = elim.m, elim.n
    fill = (len(elim.rows[r]) - 1) * (len(elim.cols[c]) - 1)
    return ((abs(elim.rows[r][c]) * m * n + fill) * m + r) * n + c


def assert_heap_invariant(mat):
    """On entry to every pivot search, each live cell whose current key is
    not in the heap lies in a dirty row or column, which the search
    re-keys; after it, each live cell's current key is in the heap."""
    searches = []
    heap_search = homology._select_pivot

    def checked(elim, t):
        heap = set(elim.heap)
        dirty_rows, dirty_cols = elim.dirty
        stale = [
            (r, c)
            for r, row in elim.rows.items()
            if r >= t
            for c in row
            if packed_key(elim, r, c) not in heap and r not in dirty_rows and c not in dirty_cols
        ]
        assert stale == []
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
    assert searches or mat.nnz == 0


def integer_matrix_cases(test):
    """Run ``test(dense)`` on small integer matrices with non-unit entries.

    The examples force each non-unit branch of ``_process_pivot``:
    [[2, 3]] a column leftover swap, [[2], [3]] a row leftover swap and
    [[2, 0], [0, 3]] the divisibility violator.
    """
    matrices = st.integers(min_value=1, max_value=6).flatmap(
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
    for dense in ([[2, 3]], [[2], [3]], [[2, 0], [0, 3]], [[4, 6, 0], [6, 4, 2], [0, 2, 9]]):
        test = example(dense)(test)
    return settings(max_examples=150, deadline=None)(given(matrices)(test))


class TestAgainstFullScanPivot:
    """The heap pivot search picks exactly the pivots of a full-matrix scan."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(DIFFERENTIAL_COMPLEXES))
    def test_complexes(self, abstract_set, name):
        cm, mats = differential_inputs(abstract_set, name)
        for mat in mats:
            assert_same_as_full_scan(mat)
            assert_heap_invariant(mat)
        assert_generators_same_as_full_scan(cm)

    @integer_matrix_cases
    def test_random_integer_matrices(self, dense):
        mat = int_matrix(dense)
        assert_same_as_full_scan(mat)
        assert_heap_invariant(mat)


# The engine that ``_Eliminator`` replaced, kept verbatim as an oracle: rows
# as dicts, columns only as row-membership sets, and every elementary
# operation written once per axis.  Identical inputs must give identical
# invariant factors, U^-1 and V.
class RowSetEliminator:
    """Sparse integer elimination with transform tracking.

    The working matrix lives in dict-of-dict rows plus a column index.
    U^-T and V^T are stored row-major so that every elementary matrix
    operation reduces to a row operation on the bookkeeping tables.

    Every operation records the rows and columns in which an entry value, a
    row length or a column count changed; ``rowset_select_pivot`` re-keys only the
    cells of those rows and columns into ``heap``.
    """

    def __init__(self, mat: IntSparseMatrix):
        self.m, self.n = mat.rows, mat.cols
        self.rows: dict = {}
        self.colrows: dict = {}
        for (r, c), v in mat.entries.items():
            self.rows.setdefault(r, {})[c] = v
            self.colrows.setdefault(c, set()).add(r)
        self.heap: list = []
        self.dirty_rows: set = set(self.rows)
        self.dirty_cols: set = set()
        self.UinvT = {i: {i: 1} for i in range(self.m)}
        self.VT = {j: {j: 1} for j in range(self.n)}

    @staticmethod
    def _axpy(table: dict, dst: int, src: int, q: int):
        """table row_dst -= q * row_src."""
        drow = table.setdefault(dst, {})
        for c, v in list(table.get(src, {}).items()):
            nv = drow.get(c, 0) - q * v
            if nv:
                drow[c] = nv
            else:
                drow.pop(c, None)

    @staticmethod
    def _swap_rows(table: dict, i: int, j: int):
        table[i], table[j] = table.get(j, {}), table.get(i, {})

    @staticmethod
    def _negate_row(table: dict, i: int):
        row = table.get(i, {})
        for c in row:
            row[c] = -row[c]

    def entry(self, r: int, c: int) -> int:
        return self.rows.get(r, {}).get(c, 0)

    def row_sub(self, i: int, t: int, q: int):
        """A row_i -= q * row_t, mirrored on U^-T."""
        drow = self.rows.setdefault(i, {})
        self.dirty_rows.add(i)
        for c, v in list(self.rows.get(t, {}).items()):
            nv = drow.get(c, 0) - q * v
            if nv:
                if c not in drow:
                    self.colrows.setdefault(c, set()).add(i)
                    self.dirty_cols.add(c)
                drow[c] = nv
            else:
                drow.pop(c, None)
                self.colrows.get(c, set()).discard(i)
                self.dirty_cols.add(c)
        if not drow:
            self.rows.pop(i, None)
        self._axpy(self.UinvT, t, i, -q)

    def col_sub(self, j: int, t: int, q: int):
        """A col_j -= q * col_t, mirrored on V^T."""
        self.dirty_cols.add(j)
        for r in list(self.colrows.get(t, ())):
            v = self.rows[r][t]
            row = self.rows[r]
            nv = row.get(j, 0) - q * v
            if nv:
                if j not in row:
                    self.colrows.setdefault(j, set()).add(r)
                    self.dirty_rows.add(r)
                row[j] = nv
            else:
                row.pop(j, None)
                self.colrows.get(j, set()).discard(r)
                self.dirty_rows.add(r)
        self._axpy(self.VT, j, t, q)

    def row_swap(self, i: int, t: int):
        if i == t:
            return
        self.dirty_rows.update((i, t))
        ri = self.rows.pop(i, {})
        rt = self.rows.pop(t, {})
        if rt:
            self.rows[i] = rt
        if ri:
            self.rows[t] = ri
        for c in set(ri) | set(rt):
            members = self.colrows.setdefault(c, set())
            members.discard(i)
            members.discard(t)
            if c in rt:
                members.add(i)
            if c in ri:
                members.add(t)
        self._swap_rows(self.UinvT, i, t)

    def col_swap(self, j: int, t: int):
        if j == t:
            return
        self.dirty_cols.update((j, t))
        cj = self.colrows.pop(j, set())
        ct = self.colrows.pop(t, set())
        for r in cj | ct:
            row = self.rows[r]
            vj, vt = row.pop(j, None), row.pop(t, None)
            if vj is not None:
                row[t] = vj
            if vt is not None:
                row[j] = vt
        if ct:
            self.colrows[j] = ct
        if cj:
            self.colrows[t] = cj
        self._swap_rows(self.VT, j, t)

    def row_negate(self, i: int):
        self._negate_row(self.rows, i)
        self._negate_row(self.UinvT, i)


def rowset_select_pivot(elim: RowSetEliminator, t: int):
    """Smallest |value|, then least fill-in estimate, then lowest (row, col).

    Each cell's key (|v|, fill, r, c) is packed into one int,
    ((|v| m n + fill) m + r) n + c, which orders like the tuple because
    fill = (row length - 1)(column count - 1) < m n.  The cells of rows and
    columns changed since the last call are pushed with their current keys,
    so every live cell's current key is in the heap; popping until the top
    key matches its cell's current key therefore yields the exact minimum.
    Rows and columns below t hold only finished pivots and are skipped.
    """
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


def rowset_process_pivot(elim: RowSetEliminator, t: int):
    while True:
        # Euclidean sweeps until the pivot divides its whole row and column.
        while True:
            if elim.entry(t, t) < 0:
                elim.row_negate(t)
            p = elim.entry(t, t)
            for i in sorted(elim.colrows.get(t, set()) - {t}):
                q = elim.rows[i][t] // p
                if q:
                    elim.row_sub(i, t, q)
            for j in sorted(c for c in elim.rows.get(t, {}) if c != t):
                q = elim.rows[t][j] // p
                if q:
                    elim.col_sub(j, t, q)
            leftovers = [
                (abs(elim.rows[i][t]), 0, i)
                for i in elim.colrows.get(t, set())
                if i != t
            ]
            leftovers += [
                (abs(elim.rows[t][j]), 1, j) for j in elim.rows.get(t, {}) if j != t
            ]
            if not leftovers:
                break
            _, kind, idx = min(leftovers)
            if kind == 0:
                elim.row_swap(idx, t)
            else:
                elim.col_swap(idx, t)
        # Invariant-factor condition: pivot divides the remaining submatrix.
        p = elim.entry(t, t)
        if p == 1:
            return
        violator = None
        for r in sorted(elim.rows):
            if r <= t:
                continue
            if any(c > t and v % p for c, v in elim.rows[r].items()):
                violator = r
                break
        if violator is None:
            return
        elim.row_sub(t, violator, -1)


def rowset_smith_normal_form(mat: IntSparseMatrix) -> SnfResult:
    """Smith normal form over the integers.

    Returns positive invariant factors d1 | d2 | ..., the rank, and U^-1
    and V of unimodular U, V with U A V = diag(d1, ..., dr, 0, ...).
    The pivot rule is total-ordered, so identical inputs give identical
    outputs.
    """
    elim = RowSetEliminator(mat)
    diag: list = []
    t = 0
    limit = min(elim.m, elim.n)
    while t < limit:
        pivot = rowset_select_pivot(elim, t)
        if pivot is None:
            break
        elim.row_swap(pivot[0], t)
        elim.col_swap(pivot[1], t)
        rowset_process_pivot(elim, t)
        diag.append(elim.entry(t, t))
        t += 1
    rank = len(diag)

    def build(table: dict, size: int) -> IntSparseMatrix:
        # The transpose of a row-major table.  Rows leave the table as they
        # are copied, and the entries (nonzero, in range, unique) bypass the
        # constructor's checking copy, so no transform is held twice.
        out = IntSparseMatrix(size, size)
        for r in list(table):
            for c, v in table.pop(r).items():
                out.entries[(c, r)] = v
        return out

    return SnfResult(diag, rank, right=build(elim.VT, elim.n), left_inv=build(elim.UinvT, elim.m))


def assert_same_as_row_set_engine(mat):
    assert snf_fields(smith_normal_form(mat)) == snf_fields(rowset_smith_normal_form(mat))


def non_unit_branches(mat) -> Counter:
    """Count the leftover swaps per axis and the divisibility-violator steps
    of ``_process_pivot`` in the Smith normal form of mat."""
    counts = Counter()
    inside = []
    process, swap, row_sub = homology._process_pivot, homology._Eliminator.swap, homology._Eliminator.row_sub

    def counted_process(elim, t):
        inside.append(t)
        try:
            process(elim, t)
        finally:
            inside.pop()

    def counted_swap(elim, axis, i, t):
        if inside:  # outside ``_process_pivot`` a swap places the new pivot
            counts[("row", "column")[axis] + " leftover swap"] += 1
        swap(elim, axis, i, t)

    def counted_row_sub(elim, i, t, q):
        if i < t:  # the sweeps subtract the pivot row t from a later row i
            counts["violator step"] += 1
        row_sub(elim, i, t, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_process_pivot", counted_process)
        patch.setattr(homology._Eliminator, "swap", counted_swap)
        patch.setattr(homology._Eliminator, "row_sub", counted_row_sub)
        smith_normal_form(mat)
    return counts


class TestAgainstRowSetEngine:
    """The two-store engine gives the row-set engine's output entry for entry."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(DIFFERENTIAL_COMPLEXES))
    def test_complexes(self, abstract_set, name):
        for mat in differential_inputs(abstract_set, name)[1]:
            assert_same_as_row_set_engine(mat)

    @integer_matrix_cases
    def test_random_integer_matrices(self, dense):
        assert_same_as_row_set_engine(int_matrix(dense))

    def test_random_integer_matrices_reach_every_non_unit_branch(self):
        counts = Counter()

        @integer_matrix_cases
        def run(dense):
            counts.update(non_unit_branches(int_matrix(dense)))

        run()
        for branch in ("row leftover swap", "column leftover swap", "violator step"):
            assert counts[branch] >= 1, branch


def refined_projective_plane(times: int):
    gc = meshes.projective_plane_minimal()
    for _ in range(times):
        gc = uniform_refine(gc)
    return gc


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
        vmat = snf_a.right
        vinv = exact_inverse(vmat)
    else:
        r = 0
        vmat = vinv = int_identity(n_p)
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
            factors = invariant_factors(sympy.Matrix(int_dense(mat)), domain=sympy.ZZ)
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
        assert reduction_key(homology._reduction(cm)) == reduction_key(first)
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

    def test_each_residual_reduced_once(self, abstract_set, monkeypatch):
        # Every degree of the torus fixture: one Smith normal form per
        # residual boundary in _reduction, one more in degree 1, and the
        # top degree reuses the reduction of residual[2].
        inputs = []
        snf = homology.smith_normal_form
        monkeypatch.setattr(homology, "smith_normal_form", lambda mat: inputs.append(mat) or snf(mat))
        cm = complex_matrices(abstract_set["torus"])
        assert [len(homology_generators(cm, p)) for p in range(3)] == [1, 2, 1]
        assert len(inputs) == 3
        assert all(a != b for a, b in itertools.combinations(inputs, 2))


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
    coeff = exact_inverse(snf_a.right) @ bmat
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
                assert (red.residual[p] @ head).nnz == 0

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


# The coreduction and generator lift that live-face counters and the
# zero-skipping lift replaced, kept verbatim as oracles: the same pairs in
# the same order, so the same residual and the same generators.
def rescan_coreduce(cm):
    """Return (starts, pairs, live, residual) for the coreduced complex of cm."""
    n = cm.complex_dim
    # cols[p]: the CSC columns of the degree-p boundary (each a cell's p + 1
    # faces, rows ascending); rows[p]: its CSR rows (each a face's cofaces).
    # Flat lists leave the garbage collector no per-cell lists to scan.
    cols, rows = [None], [None]
    for p in range(1, n + 1):
        b = cm.boundary_csr(p)
        csc = b.tocsc()
        cols.append((csc.indptr.tolist(), csc.indices.tolist(), csc.data.tolist()))
        rows.append((b.indptr.tolist(), b.indices.tolist()))

    def cofaces(p: int, cell: int) -> list:
        ptr, ids = rows[p + 1]
        return ids[ptr[cell] : ptr[cell + 1]]

    alive = [[True] * cm.counts[p] for p in range(n + 1)]
    queue = deque()  # (p, list of degree-p cells), in removal order
    starts = []
    pairs = [[] for _ in range(n + 1)]
    for vertex in range(cm.counts[0]):
        if not alive[0][vertex]:
            continue
        starts.append(vertex)
        alive[0][vertex] = False
        if n:
            queue.append((1, cofaces(0, vertex)))
        while queue:
            p, cells = queue.popleft()
            here, below = alive[p], alive[p - 1]
            ptr, faces, coeffs = cols[p]
            for cell in cells:
                if not here[cell]:
                    continue
                live_faces = [k for k in range(ptr[cell], ptr[cell + 1]) if below[faces[k]]]
                if len(live_faces) == 1 and abs(coeffs[live_faces[0]]) == 1:
                    face = faces[live_faces[0]]
                    here[cell] = below[face] = False
                    pairs[p] += (cell, face)
                    if p < n:
                        queue.append((p + 1, cofaces(p, cell)))
                    queue.append((p, cofaces(p - 1, face)))
    live = [[i for i, a in enumerate(alive[p]) if a] for p in range(n + 1)]
    # Read off the lists above: scipy fancy indexing would load code that no
    # other homology path runs, which costs more memory than it saves time.
    residual = {}
    for p in range(1, n + 1):
        row_of = {f: i for i, f in enumerate(live[p - 1])}
        ptr, faces, coeffs = cols[p]
        entries = {
            (row_of[faces[k]], j): coeffs[k]
            for j, cell in enumerate(live[p])
            for k in range(ptr[cell], ptr[cell + 1])
            if alive[p - 1][faces[k]]
        }
        residual[p] = IntSparseMatrix(len(live[p - 1]), len(live[p]), entries)
    return starts, pairs, live, residual


def generator_expression_generators(cm, p):
    """Integer cycles whose classes form a basis of degree-p homology modulo torsion."""
    _reduction, _tail, smith_normal_form = homology._reduction, homology._tail, homology.smith_normal_form
    if not 0 <= p <= cm.complex_dim:
        raise ValueError(f"degree {p} outside 0..{cm.complex_dim}")
    red = _reduction(cm)
    if p == 0:
        gens = []
        for vertex in red.starts:
            chain = [0] * cm.counts[0]
            chain[vertex] = 1
            gens.append(chain)
        return gens
    if p == cm.complex_dim:
        cycles = red.top_cycles
    else:
        complement = red.complement[p]
        snf = smith_normal_form(red.residual[p] @ complement)
        cycles = complement @ _tail(snf.right, snf.rank)
    live = red.live[p]
    gens = [[0] * cm.counts[p] for _ in range(cycles.cols)]
    for (i, j), v in cycles.entries.items():
        gens[j][live[i]] = v
    csr = cm.boundary_csr(p)
    ptr, cells, coeffs = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
    pairs = red.pairs[p]
    for chain in gens:
        for k in range(len(pairs) - 2, -1, -2):
            a, b = pairs[k], pairs[k + 1]
            row = range(ptr[b], ptr[b + 1])
            dc = sum(coeffs[t] * chain[cells[t]] for t in row)  # <dc, b>
            if dc:
                chain[a] -= dc * next(coeffs[t] for t in row if cells[t] == a)
    return gens


# Beyond REDUCTION_INPUTS: a beta_1 that grows with the mesh and a 3-d
# tunnel whose residual keeps cells in degrees 1 to 3.
COREDUCTION_DIFFERENTIAL = {
    "perforated_grid_3": lambda: abstr(perforated_grid(3)),
    "perforated_grid_9": lambda: abstr(perforated_grid(9)),
    "tunnel_cube_6": lambda: abstr(tunnel_cube(6)),
}
COREDUCTION_NAMES = FIXTURE_NAMES + list(REDUCTION_INPUTS) + list(COREDUCTION_DIFFERENTIAL)


def coreduction_input(abstract_set, name):
    build = COREDUCTION_DIFFERENTIAL.get(name)
    return reduction_input(abstract_set, name) if build is None else build()


def coreduction_key(result):
    starts, pairs, live, residual = result
    return starts, pairs, live, {p: int_key(mat) for p, mat in residual.items()}


class TestAgainstRescanCoreduction:
    """Live-face counters and the zero-skipping lift give the rescanning
    code's starts, pairs (in removal order), live cells, residual
    boundaries and generators."""

    @pytest.mark.parametrize("name", COREDUCTION_NAMES)
    def test_same_reduction(self, abstract_set, name):
        cm = matrices_for(coreduction_input(abstract_set, name))
        assert coreduction_key(coreduce(cm)) == coreduction_key(rescan_coreduce(cm))

    @pytest.mark.parametrize("name", COREDUCTION_NAMES)
    def test_same_generators_in_every_degree(self, abstract_set, name, monkeypatch):
        ac = coreduction_input(abstract_set, name)
        degrees = range(ac.complex_dim + 1)
        cm = complex_matrices(ac)
        gens = [homology_generators(cm, p) for p in degrees]
        monkeypatch.setattr(coreduction, "coreduce", rescan_coreduce)
        old = complex_matrices(ac)
        assert [generator_expression_generators(old, p) for p in degrees] == gens


@pytest.mark.parametrize("k", [3, 6])
def test_tunnel_cube_betti_numbers(k):
    assert betti_numbers(matrices_for(abstr(tunnel_cube(k)))) == [1, 1, 0, 0]


def snf_digest(mats):
    """sha256 of diag, rank and the sorted entries of U^-1, V and V^-1 of
    each matrix, with V^-1 from ``exact_inverse``."""
    digest = hashlib.sha256()
    for mat in mats:
        res = smith_normal_form(mat)
        transforms = [
            sorted(t.entries.items()) for t in (res.left_inv, res.right, exact_inverse(res.right))
        ]
        digest.update(repr((res.diag, res.rank, transforms)).encode())
    return digest.hexdigest()


def complex_snf_inputs(cm):
    """Every boundary, coboundary and coreduced residual boundary of cm."""
    coboundaries = [_exact(cm.coboundary_csr(p)) for p in range(cm.complex_dim)]
    residual = homology._reduction(cm).residual
    return [*cm.boundary.values(), *coboundaries, *(residual[q] for q in sorted(residual))]


# Non-unit pivots whose Euclidean sweeps leave remainders, which no
# complex above produces.
NON_UNIT_MATRICES = [
    [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    [[4, 6, 0], [6, 4, 2], [0, 2, 9]],
    [[-1, 10, -1, -1], [10, 0, 9, 3], [-1, 3, 9, -2]],
    [[-1, 1, 2], [2, -1, 2], [9, 9, 4], [0, 0, 4], [9, 9, -1], [0, 0, 9]],
    [[-6, 2, 0], [0, -1, 1], [-2, -2, -6]],
    [[9, 9, 0], [-6, -6, 9], [9, 2, 0], [0, 10, 3], [4, 9, 1], [-1, 3, -6]],
    [[-1, 4, -1, 0, 0, 0], [-1, -1, 0, 0, 0, 10], [-2, 0, 9, 4, -6, 0], [-2, 3, 9, 0, 4, -2]],
    [
        [3, 3, -2, -2, -6],
        [0, -1, 3, -2, 1],
        [3, -6, 3, 0, -6],
        [0, 3, 10, -1, -6],
        [3, 0, 10, -2, -2],
        [0, 2, 10, -6, 2],
    ],
]


SNF_DIGESTS = {
    "triangle": "5c56ec5d99f5dee7dbb1aa51c43817436cb36b6d532f8c749dc757db9dce748c",
    "square": "ee904a0e3c5a2aa4cd4744a813aa2710bde7d19f161a1360397ba47d2254a04c",
    "hollow_triangle": "a15a5ee99b7832accbdf468f77bcbbdc570c62a20a5748177e756fb80b2b92e1",
    "disk": "a3d4d32e95aeda3ea7beff31cd41f8a99aed3225d632ec7d745c28bd26ae9082",
    "annulus": "9725e079a6f35607f09982b1f20fba19287fd6eb645d433b60d24878137714dc",
    "tetrahedron_boundary": "cdaa0bd993f71725e4dfba273b44614d954387cb24a5ce5cc5e6839c26543760",
    "torus": "491e74157fda3cee376cf7083c471c0649138d88dd1b58da9829936c6e213ad2",
    "torus_minimal": "c9d7302dbeda3143b9178383709899487a3f4080814d1fe324a21472d29d0dd5",
    "projective_plane": "7f6074aa5974cbb534e6f995d10766c87645792ac08fdbbc19ebdc56f8a3fd66",
    "rp2_refined_0": "7f6074aa5974cbb534e6f995d10766c87645792ac08fdbbc19ebdc56f8a3fd66",
    "rp2_refined_1": "243a42a88eee58cd2d4fc8eda2b76ca03eda48ac7eff9551c406b23925ac0566",
    "rp2_refined_2": "57be2be045b0e08c4a69a25686f88e77790dd24353878726a3c4d90f75d91091",
    "rips_0": "4af0c375e3d2b9d07cede428387cda9896360cd07789c9bfb9f77a7fb61818b3",
    "rips_1": "713c920acb047be950d08918aea134c17842e51e39740fd26ee33cdcf8029de5",
    "rips_2": "05e03067d35ebc52b42bc911364b7376d050e668a715bee127e59442b116c980",
    "rips_3": "af4753fe40c3d654494031c864a40d4bc2dea26cbc3967faf18ce59340f57e03",
    "rips_4": "82c91e1b7f447af8d9f1a765831034c4e12a619c276e41d8284a4f692d3296dd",
    "rips_5": "4cf352ac00c705d7178e451099a1004ba134cf4c9c061d4859b52624a52eecd0",
    "rips_6": "b05a20ddfc6fa698450a1ec16f9f92e76d217f3e46b395c2f364bd21ad791909",
    "rips_7": "1ce7b2294cf8a388d38a3c57314c7f3a17055bf8003ca01ee23088aa83f14299",
    "rips_8": "baebf126daccc18bad5e7681a07b022a077b39fb7605dc6911595891a7dcb758",
    "rips_9": "e4c774ad362bba5db4d1331caa004664aae42a008fd092cb25fdbf5082490e61",
    "rips_10": "23a16a2ac4fe42ee8413e7fb7fc379379992c9649530e06399bd223079e6a502",
    "rips_11": "b76996a571feb326dfca80b7836594eb76c14753afd5c720149aa6812182bfca",
    "delaunay_0": "3702bea997656442e9ac038263d73779112e00e32b6237828a5e5333718a3120",
    "delaunay_1": "6d447dc9070c90d1c70ddfe7cf84084b8106fc176eb1b0336e3871839bf5dce3",
    "delaunay_2": "f66968c531ae694e93d303a79a6fe3d99c9ecb69511c341c4f4d5a7c76a896e0",
    "delaunay_3": "4de713d09d41f2b27b75e48570fb73cf6978c7dd61333060a72029776cf5e7d9",
    "delaunay_4": "b6d974cb309d342056b8da1bd4b058e3014cc0c457598b30206d3549a1729187",
    "delaunay_5": "6d55642cd543e9bb63fb509e31201006a0642cbc2d84cedf9e50eefb74b5ca53",
    "delaunay_6": "7241bf5e1a5a4c04b95dc6e0264c750e0380dd7213c2dd2a049a06cd59edc144",
    "delaunay_7": "287d2ea9a66dc9c3b4bcdebf1e0988bfcf747144783b1147227e674e3500b489",
    "delaunay_8": "3f395a2f509f8fa5f60f0760ce61c7c5a70088cf96e818ae90a27d254bad2d6c",
    "delaunay_9": "f356855413d7600250524b28c2b1336ea926381cc69931301be85541371db8d9",
    "delaunay_10": "1ca6ac9ff88f91220d4a2b07c52a0e64508772212e75b5ef68e0d7c30929d08b",
    "delaunay_11": "22b1916413ef910598b8bd6885d8e339c6fefe5b3edc4a17b0e8ad63f265ce67",
    "two_tets": "1aa947048419163b22d40f0fc536bf5a22bacb27f10a0dceb7c0a60a9cc29706",
    "kuhn_1": "87aba13ca4720ef9965e951a581560ea23b0f2261c13a443115c1ed6bc472750",
    "kuhn_2": "985c58c625cb941f549b0e8f6d899240bbac48338b4cd5172c76d9cd794706a4",
    "disconnected": "9fa156c0e339eeedf6f77e30e069d7bb5e17594cca617d5c9a5c30516f39ca0f",
    "three_points": "e83f5c2ae6df628c8768adc90f7eb32547de410f03c809eb16c42750fb5da571",
    "kuhn_5_tunnel_cavity": "5ab62d8a7276318dfa6fb594bd2d8c8db2089dcf9fe067188ea00802607f1b9e",
    "torus_16": "920bd89f0b3f20be5f77ef24772cf7f4836494c9c00a455b52e3be01a7ecf1ff",
    "non_unit": "7f7af02d62504cf4a310b5671596ea1b71e6a9a8fc92e58d1e517c2a87e36d82",
}


class TestFrozenSnfDigests:
    """Pivots, invariant factors, U^-1, V and V^-1 are those of the Smith
    normal form that also tracked U, V^-1 and compacted its pivot heap."""

    @pytest.mark.parametrize("name", [f"non_unit_{k}" for k in range(len(NON_UNIT_MATRICES))] + ["torus_16"])
    def test_exact_inverse_inverts_v(self, name):
        if name == "torus_16":
            mat = matrices_for(REDUCTION_INPUTS[name]()).boundary[1]
        else:
            mat = int_matrix(NON_UNIT_MATRICES[int(name.rsplit("_", 1)[1])])
        v = smith_normal_form(mat).right
        assert int_key(v @ exact_inverse(v)) == int_key(int_identity(v.cols))

    def test_exact_inverse_rejects_a_non_integral_inverse(self):
        with pytest.raises(AssertionError, match="not an integer"):
            exact_inverse(int_matrix([[1, 0], [0, 2]]))

    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(REDUCTION_INPUTS))
    def test_same_snf_as_recorded(self, abstract_set, name):
        cm = matrices_for(reduction_input(abstract_set, name))
        assert snf_digest(complex_snf_inputs(cm)) == SNF_DIGESTS[name]

    def test_non_unit_pivots(self):
        mats = [int_matrix(dense) for dense in NON_UNIT_MATRICES]
        assert snf_digest(mats) == SNF_DIGESTS["non_unit"]
