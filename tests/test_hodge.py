"""Discrete Hodge operators, codifferential, Laplacian and harmonic cochains."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from decfem import (
    abstr,
    betti_numbers,
    build_hodges,
    codifferential,
    coboundary_apply,
    diagonal_hodge,
    galerkin_mass_matrix,
    harmonic_basis,
    harmonic_bases,
    homology_generators,
    matrices_for,
    matrix_to_coordinate_text,
    meshes,
)
from decfem import elements, hodge, poisson
from decfem.batched import _local_coboundary
from decfem.elements import _diagonal_blocks, _local_operators
from decfem.mesh import AbstractComplex, GeometricComplex
from decfem.whitney import Cochain

from conftest import FIXTURE_NAMES, kuhn_cube, two_tets


class TestGalerkinMass:
    def test_degree_zero_reference_triangle(self):
        gc = meshes.reference_triangle()
        ac = abstr(gc)
        mass = galerkin_mass_matrix(gc, ac, 0).toarray()
        expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
        np.testing.assert_allclose(mass, expected, atol=1e-15)

    def test_top_degree_reference_triangle(self):
        gc = meshes.reference_triangle()
        ac = abstr(gc)
        mass = galerkin_mass_matrix(gc, ac, 2).toarray()
        np.testing.assert_allclose(mass, [[2.0]], atol=1e-14)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_all_ones_quadratic_form_is_total_volume(self, fixture_set, name):
        gc = fixture_set[name]
        ac = abstr(gc)
        mass = galerkin_mass_matrix(gc, ac, 0)
        ones = np.ones(ac.num_simplices(0))
        total = float(np.abs(gc.top_volumes).sum())
        assert float(ones @ (mass @ ones)) == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_symmetric_positive_definite(self, fixture_set, name):
        gc = fixture_set[name]
        ac = abstr(gc)
        rng = np.random.default_rng(17)
        for p in range(ac.complex_dim + 1):
            mass = galerkin_mass_matrix(gc, ac, p)
            dense = mass.toarray()
            np.testing.assert_allclose(dense, dense.T, atol=1e-13)
            np.linalg.cholesky(dense)  # raises if not positive definite
            for _ in range(100):
                x = rng.standard_normal(dense.shape[0])
                assert float(x @ (mass @ x)) > 0.0

    def test_unknown_hodge_kind_rejected(self):
        gc = meshes.split_square()
        ac = abstr(gc)
        with pytest.raises(ValueError, match="hodge kind"):
            build_hodges(gc, ac, "voronoi")

    def test_inverse_is_dense(self):
        # Unlike the operator it discretizes, the mass matrix has a
        # non-local inverse: sparsifying it keeps more entries than the
        # matrix itself has.  (The structured split square is excluded on
        # purpose: its right-isoceles geometry makes the degree-1 mass
        # matrix exactly block diagonal.)
        from conftest import random_delaunay_mesh

        gc = random_delaunay_mesh(0, npts=24)
        ac = abstr(gc)
        mass = galerkin_mass_matrix(gc, ac, 1)
        inv = np.linalg.inv(mass.toarray())
        kept = np.sum(np.abs(inv) > 1e-12 * np.abs(inv).max())
        assert kept > mass.nnz


class TestDiagonalHodge:
    def test_degree_zero_triangle(self):
        gc = meshes.reference_triangle()
        ac = abstr(gc)
        diag = diagonal_hodge(gc, ac, 0).diagonal()
        np.testing.assert_allclose(diag, 1 / 6, atol=1e-14)

    def test_top_degree_triangle(self):
        gc = meshes.reference_triangle()
        ac = abstr(gc)
        diag = diagonal_hodge(gc, ac, 2).diagonal()
        np.testing.assert_allclose(diag, 2.0, atol=1e-14)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_strictly_positive(self, fixture_set, name):
        gc = fixture_set[name]
        ac = abstr(gc)
        for p in range(ac.complex_dim + 1):
            diag = diagonal_hodge(gc, ac, p).diagonal()
            assert np.all(diag > 0)


HARMONIC_CASES = [
    ("disk", [1, 0, 0]),
    ("annulus", [1, 1, 0]),
    ("torus", [1, 2, 1]),
    ("tetrahedron_boundary", [1, 0, 1]),
    ("projective_plane", [1, 0, 0]),
    ("hollow_triangle", [1, 1]),
]


class TestHarmonicBasis:
    @pytest.mark.parametrize("name,expected", HARMONIC_CASES)
    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    def test_dimensions_equal_betti(self, fixture_set, name, expected, kind):
        gc = fixture_set[name]
        ac = abstr(gc)
        assert betti_numbers(matrices_for(ac)) == expected
        bases = harmonic_bases(gc, ac, kind)
        assert [basis.dimension for basis in bases.values()] == expected

    def test_vectors_are_closed_and_coclosed(self, fixture_set):
        gc = fixture_set["torus"]
        ac = abstr(gc)
        cm = matrices_for(ac)
        hodges = build_hodges(gc, ac, "galerkin")
        basis = harmonic_basis(gc, ac, 1, "galerkin")
        for v in basis.vectors:
            np.testing.assert_allclose(coboundary_apply(v).values, 0.0, atol=1e-9)
            coclosed = cm.boundary_csr(1) @ (hodges[1] @ v.values)
            np.testing.assert_allclose(coclosed, 0.0, atol=1e-9)

    def test_gram_matrix_nonsingular(self, fixture_set):
        gc = fixture_set["torus"]
        ac = abstr(gc)
        basis = harmonic_basis(gc, ac, 1)
        gram = m_gram(basis, build_hodges(gc, ac)[1])
        assert gram.shape == (2, 2)
        assert abs(np.linalg.det(gram)) > 1e-12

    def test_annulus_harmonic_has_nonzero_period(self, fixture_set):
        gc = fixture_set["annulus"]
        ac = abstr(gc)
        cm = matrices_for(ac)
        generator = homology_generators(cm, 1)[0]
        basis = harmonic_basis(gc, ac, 1)
        period = float(np.array(generator, dtype=float) @ basis.vectors[0].values)
        assert abs(period) > 1e-8


def m_gram(basis, hodge):
    """V^T M V of the basis vectors V, with M from ``build_hodges``."""
    vectors = np.reshape([v.values for v in basis.vectors], (-1, hodge.shape[0])).T
    return vectors.T @ (hodge @ vectors)


def svd_harmonic_basis(ac, p, hodges):
    """The dense-SVD harmonic basis that ``harmonic_bases`` replaced, kept as
    the oracle: the null space of the stacked closedness and (max-scaled)
    co-closedness conditions, with a relative rank cutoff of 1e-10.  Rows
    are Euclidean-orthonormal."""
    cm = matrices_for(ac)
    blocks = []
    if p < ac.complex_dim:
        blocks.append(cm.coboundary_csr(p).toarray())
    if p > 0:
        co_block = (cm.boundary_csr(p) @ hodges[p]).toarray()
        blocks.append(co_block / (np.abs(co_block).max() or 1.0))
    if not blocks:
        return np.eye(ac.num_simplices(p))
    _, svals, vt = np.linalg.svd(np.vstack(blocks))
    rank = int(np.sum(svals > 1e-10 * (svals[0] if svals.size else 1.0)))
    return vt[rank:]


def span_projector(rows, size):
    """Euclidean orthogonal projector onto the span of the given rows."""
    q, _ = np.linalg.qr(np.asarray(rows, dtype=float).reshape(-1, size).T)
    return q @ q.T


def perforated_grid(k: int) -> GeometricComplex:
    """A (2k+1) x (2k+1) grid of split unit squares with the k^2 squares at
    odd (row, column) removed: beta = [1, k^2, 0]."""
    m = 2 * k + 1
    tris = []
    for i in range(m):
        for j in range(m):
            if i % 2 and j % 2:
                continue
            a, b, c, d = (np.array([i, i + 1, i + 1, i]) * (m + 1) + [j, j, j + 1, j + 1]).tolist()
            tris += [[a, b, c], [a, c, d]]
    return GeometricComplex([[i, j] for i in range(m + 1) for j in range(m + 1)], tris)


ORACLE_MESHES = {
    "two_tets": two_tets,
    "torus_grid_16": lambda: meshes.torus_grid(16, 16),
    "kuhn_cube_2": lambda: kuhn_cube(2),
    # beta_1 = 9 exceeds the starting width, so the column count doubles twice
    "perforated_grid_3": lambda: perforated_grid(3),
    # beta_1 = 81: the column count doubles five times, from 4 to 128
    "perforated_grid_9": lambda: perforated_grid(9),
}


class TestHarmonicBases:
    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(ORACLE_MESHES))
    def test_spans_the_svd_null_space(self, fixture_set, name, kind):
        gc = ORACLE_MESHES[name]() if name in ORACLE_MESHES else fixture_set[name]
        ac = abstr(gc)
        hodges = build_hodges(gc, ac, kind)
        bases = harmonic_bases(gc, ac, kind)
        assert list(bases) == list(range(ac.complex_dim + 1))
        assert [basis.dimension for basis in bases.values()] == betti_numbers(matrices_for(ac))
        for p, basis in bases.items():
            size = ac.num_simplices(p)
            old = svd_harmonic_basis(ac, p, hodges)
            new = [v.values for v in basis.vectors]
            assert basis.dimension == len(old)
            gap = np.abs(span_projector(new, size) - span_projector(old, size)).max()
            assert gap <= 1e-10
            np.testing.assert_allclose(m_gram(basis, hodges[p]), np.eye(basis.dimension), atol=1e-10)

    @pytest.mark.parametrize("k", [3, 9])
    def test_perforated_grid_has_k_squared_holes(self, k):
        assert betti_numbers(matrices_for(abstr(perforated_grid(k)))) == [1, k * k, 0]

    def test_two_calls_give_bitwise_equal_vectors(self, fixture_set):
        gc = fixture_set["torus"]
        ac = abstr(gc)
        for kind in ("galerkin", "diagonal"):
            first = harmonic_bases(gc, ac, kind)
            second = harmonic_bases(gc, ac, kind)
            for p in first:
                assert [v.values.tobytes() for v in first[p].vectors] == [
                    v.values.tobytes() for v in second[p].vectors
                ]

    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    def test_torus_with_6144_cells(self, kind):
        gc = meshes.torus_grid(32, 32)
        ac = abstr(gc)
        assert sum(ac.face_counts()) == 6144
        bases = harmonic_bases(gc, ac, kind)
        assert [b.dimension for b in bases.values()] == [1, 2, 1]


class TestCodifferential:
    def test_rejects_degree_zero(self, fixture_set):
        gc = fixture_set["square"]
        ac = abstr(gc)
        hodges = build_hodges(gc, ac, "galerkin")
        with pytest.raises(ValueError):
            codifferential(Cochain(ac, 0, np.zeros(4)), hodges)

    def test_codifferential_of_exact_constant(self, fixture_set):
        gc = fixture_set["disk"]
        ac = abstr(gc)
        hodges = build_hodges(gc, ac, "galerkin")
        const = Cochain(ac, 0, np.full(ac.num_simplices(0), 2.0))
        dc = coboundary_apply(const)
        np.testing.assert_allclose(codifferential(dc, hodges).values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    def test_double_codifferential_vanishes(self, fixture_set, kind):
        gc = fixture_set["square"]
        ac = abstr(gc)
        hodges = build_hodges(gc, ac, kind)
        rng = np.random.default_rng(3)
        c = Cochain(ac, 2, rng.standard_normal(2))
        result = codifferential(codifferential(c, hodges), hodges)
        np.testing.assert_allclose(result.values, 0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "name", ["square", "disk", "annulus", "tetrahedron_boundary", "torus"]
    )
    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    def test_adjoint_to_coboundary(self, fixture_set, name, kind):
        gc = fixture_set[name]
        ac = abstr(gc)
        hodges = build_hodges(gc, ac, kind)
        rng = np.random.default_rng(41)
        for p in range(1, ac.complex_dim + 1):
            for _ in range(10):
                c = Cochain(ac, p, rng.standard_normal(ac.num_simplices(p)))
                w = Cochain(ac, p - 1, rng.standard_normal(ac.num_simplices(p - 1)))
                lhs = float(
                    codifferential(c, hodges).values @ (hodges[p - 1] @ w.values)
                )
                rhs = float(c.values @ (hodges[p] @ coboundary_apply(w).values))
                assert lhs == pytest.approx(rhs, abs=1e-10)


def hodge_laplacian_apply(c, hodges, codifferential=codifferential):
    """Hodge Laplacian: codifferential of the coboundary plus coboundary of
    the codifferential, with the absent term dropped at boundary degrees."""
    ac = c.complex
    p = c.degree
    total = np.zeros_like(c.values)
    if p < ac.complex_dim:
        total += codifferential(coboundary_apply(c), hodges).values
    if p > 0:
        total += coboundary_apply(codifferential(c, hodges)).values
    return Cochain(ac, p, total)


class TestHodgeLaplacian:
    def test_kills_constants_at_degree_zero(self, fixture_set):
        gc = fixture_set["disk"]
        ac = abstr(gc)
        hodges = build_hodges(gc, ac, "galerkin")
        const = Cochain(ac, 0, np.ones(ac.num_simplices(0)))
        lap = hodge_laplacian_apply(const, hodges)
        # closed term only: constants are in the kernel of the coboundary
        np.testing.assert_allclose(lap.values, 0.0, atol=1e-11)

    def test_kills_harmonics(self, fixture_set):
        gc = fixture_set["annulus"]
        ac = abstr(gc)
        hodges = build_hodges(gc, ac, "galerkin")
        basis = harmonic_basis(gc, ac, 1, "galerkin")
        for v in basis.vectors:
            lap = hodge_laplacian_apply(v, hodges)
            m_norm = float(np.sqrt(lap.values @ (hodges[1] @ lap.values)))
            assert m_norm <= 1e-9

    def test_induced_form_is_symmetric(self, fixture_set):
        gc = fixture_set["disk"]
        ac = abstr(gc)
        hodges = build_hodges(gc, ac, "galerkin")
        rng = np.random.default_rng(19)
        for p in (0, 1, 2):
            count = ac.num_simplices(p)
            for _ in range(5):
                a = Cochain(ac, p, rng.standard_normal(count))
                b = Cochain(ac, p, rng.standard_normal(count))
                lhs = float(
                    hodge_laplacian_apply(a, hodges).values @ (hodges[p] @ b.values)
                )
                rhs = float(
                    a.values @ (hodges[p] @ hodge_laplacian_apply(b, hodges).values)
                )
                assert lhs == pytest.approx(rhs, abs=1e-9)


def old_codifferential(c, hodges, kind):
    """The codifferential before both Hodge kinds shared one sparse solve:
    the diagonal kind divided by the diagonal instead."""
    p = c.degree
    rhs = matrices_for(c.complex).boundary_csr(p) @ (hodges[p] @ c.values)
    if kind == "diagonal":
        values = rhs / hodges[p - 1].diagonal()
    else:
        values = spla.spsolve(hodges[p - 1].tocsc(), rhs)
    return Cochain(c.complex, p - 1, values)


@pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
@pytest.mark.parametrize("name", FIXTURE_NAMES + ["two_tets", "kuhn_cube"])
def test_codifferential_solve_matches_the_per_kind_solve(fixture_set, name, kind):
    if name == "two_tets":
        gc = two_tets()
    elif name == "kuhn_cube":
        gc = kuhn_cube(1)
    else:
        gc = fixture_set[name]
    ac = abstr(gc)
    hodges = build_hodges(gc, ac, kind)
    rng = np.random.default_rng(5)
    for p in range(ac.complex_dim + 1):
        c = Cochain(ac, p, rng.standard_normal(ac.num_simplices(p)))
        if p >= 1:
            new = codifferential(c, hodges).values
            assert new.tobytes() == old_codifferential(c, hodges, kind).values.tobytes()
        lap = hodge_laplacian_apply(c, hodges).values
        old = hodge_laplacian_apply(c, hodges, lambda c, h: old_codifferential(c, h, kind)).values
        assert lap.tobytes() == old.tobytes()


def test_matrix_coordinate_text_round_trip():
    mat = sp.csr_matrix(np.array([[0.0, 1.5], [-2.25, 0.0]]))
    text = matrix_to_coordinate_text(mat)
    lines = text.strip().splitlines()
    assert lines[0] == "2 2 2"
    entries = {}
    for line in lines[1:]:
        r, c, v = line.split()
        entries[(int(r), int(c))] = float(v)
    assert entries == {(0, 1): 1.5, (1, 0): -2.25}


def oracle_or_fixture(fixture_set, name):
    return ORACLE_MESHES[name]() if name in ORACLE_MESHES else fixture_set[name]


def scattered(blocks, shape):
    """The matrix of one (row ids, column ids, blocks) set, dense: full
    blocks (m, a, b) or diagonal ones (m, a), entry [t, i] at
    (rows[t, i], cols[t, i])."""
    rows, cols, vals = blocks
    if vals.ndim == 2:
        entries = (rows.ravel(), cols.ravel())
    else:
        a, b = vals.shape[1:]
        entries = (np.repeat(rows, b, axis=1).ravel(), np.tile(cols, a).ravel())
    return sp.coo_matrix((vals.ravel(), entries), shape=shape).toarray()


def dense(diagonals):
    """Diagonal Hodge blocks (num_top, k) as the full (num_top, k, k) blocks
    they were stored as before."""
    return diagonals[:, :, None] * np.eye(diagonals.shape[1])


def dense_diagonal_operators(gc, ac):
    """``_local_operators(gc, ac, "diagonal")`` as built from full diagonal
    blocks, by matrix products with the local coboundaries."""
    n = ac.complex_dim
    mass = [dense(_diagonal_blocks(gc, ac, p)) for p in range(n + 1)]
    ids = [ac.top_faces(p) for p in range(n + 1)]
    cob_mass = [_local_coboundary(n, p).T @ mass[p + 1] for p in range(n)]
    lap = [c @ _local_coboundary(n, p) for p, c in enumerate(cob_mass)]
    return [
        [(ids[p], ids[p + shift], blocks) for p, blocks in enumerate(part)]
        for part, shift in ((mass, 0), (lap, 0), (cob_mass, 1))
    ]


def _product_operators(ac: AbstractComplex, hodges: dict):
    """The blocks of ``elements._local_operators`` from supplied Hodge
    matrices, by sparse products with the boundary matrices, each entry a
    1 x 1 block."""
    mass = [hodges[p] for p in range(ac.complex_dim + 1)]
    bounds = [matrices_for(ac).boundary_csr(p) for p in range(1, len(mass))]
    cob_mass = [b @ m for b, m in zip(bounds, mass[1:])]
    lap = [c @ b.T for c, b in zip(cob_mass, bounds)]
    return [
        [(a.row[:, None], a.col[:, None], a.data[:, None, None]) for a in map(sp.coo_matrix, part)]
        for part in (mass, lap, cob_mass)
    ]


def old_local_stiffness_map(n):
    """The map of the local Galerkin stiffness D^T M D that Poisson
    assembly used before ``elements._product_maps``."""
    cob = _local_coboundary(n, 0)
    return sp.csr_matrix(np.kron(cob, cob).T)


def old_hodge_product(left, blocks):
    """left @ M_T for every top, as computed before ``elements._product_maps``:
    a matrix product with full blocks, a column scaling by diagonal ones."""
    return left * blocks[:, None] if blocks.ndim == 2 else left @ blocks


def old_entries(parts):
    """The coordinates of block parts as the former scatters laid them out,
    a diagonal entry as a 1 x 1 block."""
    rows, cols, vals = [], [], []
    for r, c, v in parts:
        if v.ndim == 2:
            r, c, v = r.reshape(-1, 1), c.reshape(-1, 1), v.reshape(-1, 1, 1)
        rows.append(np.repeat(r, v.shape[2], axis=1).ravel())
        cols.append(np.tile(c, v.shape[1]).ravel())
        vals.append(v.ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def old_galerkin_scatter(parts, shape):
    """``galerkin_mass_matrix``'s former scatter: zeros kept."""
    rows, cols, vals = old_entries(parts)
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def old_diagonal_scatter(parts, shape):
    """``diagonal_hodge``'s former scatter: a bincount of the diagonal."""
    ((ids, _, diag),) = parts
    return sp.diags(np.bincount(ids.ravel(), diag.ravel(), shape[0])).tocsr()


def old_masked_scatter(parts, shape):
    """``_shifted_system``'s former scatter: zeros dropped before the sum."""
    rows, cols, vals = old_entries(parts)
    keep = vals != 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


def old_eliminating_scatter(parts, shape):
    """``assemble_poisson``'s former scatter: zeros eliminated after the sum."""
    rows, cols, vals = old_entries(parts)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    matrix.eliminate_zeros()
    return matrix


def assert_same_but_dropped_zeros(new, old, ulps=1):
    """Values within ``ulps`` ulp of the largest entry, the same nonzeros,
    and stored entries only where the old matrix stores one."""
    new, old = sp.csr_matrix(new), sp.csr_matrix(old)
    assert new.shape == old.shape
    assert abs(new - old).max() <= ulps * np.spacing(abs(old).max())
    stored = lambda m: set(zip(*sp.coo_matrix(m).coords))  # noqa: E731
    nonzero = lambda m: set(zip(*m.nonzero()))  # noqa: E731
    assert nonzero(new) == nonzero(old)
    assert stored(new) <= stored(old)


POISSON_MESHES = ["triangle", "square", "disk", "annulus", "two_tets", "kuhn_cube_2", "perforated_grid_3"]


class TestOneRoute:
    """``elements._product_maps`` and ``elements._scatter`` against the
    routes they replaced: ``_hodge_product(D^T, M) @ D``, the CSR stiffness
    map of Poisson assembly and the four former scatters."""

    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(ORACLE_MESHES))
    def test_products_match_the_former_routes(self, fixture_set, name, kind):
        gc = oracle_or_fixture(fixture_set, name)
        ac = abstr(gc)
        n = ac.complex_dim
        for p in range(n):
            blocks = elements._local_hodges(gc, ac, kind, p + 1)
            lap, cob = elements._local_products(blocks, n, p)
            old_cob = old_hodge_product(_local_coboundary(n, p).T, blocks)
            old_lap = old_cob @ _local_coboundary(n, p)
            if p == 0 and kind == "galerkin":
                mapped = (old_local_stiffness_map(n) @ blocks.reshape(len(blocks), -1).T).T
                assert lap.reshape(len(blocks), -1).tobytes() == mapped.tobytes()
            for new, old in ((lap, old_lap), (cob, old_cob)):
                assert new.shape == old.shape
                assert np.abs(new - old).max() <= np.spacing(np.abs(old).max())

    def test_the_meshes_cover_every_dimension(self, fixture_set):
        dims = {oracle_or_fixture(fixture_set, name).complex_dim for name in FIXTURE_NAMES + list(ORACLE_MESHES)}
        assert dims == {1, 2, 3}

    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(ORACLE_MESHES))
    def test_hodge_matrices_match_the_former_scatters(self, monkeypatch, fixture_set, name):
        gc = oracle_or_fixture(fixture_set, name)
        ac = abstr(gc)
        for p in range(ac.complex_dim + 1):
            new = galerkin_mass_matrix(gc, ac, p), diagonal_hodge(gc, ac, p)
            with monkeypatch.context() as patch:
                patch.setattr(hodge, "_scatter", old_galerkin_scatter)
                old_galerkin = galerkin_mass_matrix(gc, ac, p)
                patch.setattr(hodge, "_scatter", old_diagonal_scatter)
                old_diagonal = diagonal_hodge(gc, ac, p)
            assert_same_but_dropped_zeros(new[0], old_galerkin)
            assert_same_but_dropped_zeros(new[1], old_diagonal)

    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(ORACLE_MESHES))
    def test_harmonic_system_matches_the_former_scatter(self, monkeypatch, fixture_set, name, kind):
        gc = oracle_or_fixture(fixture_set, name)
        ac = abstr(gc)
        new = hodge._shifted_system(gc, ac, kind)
        monkeypatch.setattr(hodge, "_scatter", old_masked_scatter)
        old = hodge._shifted_system(gc, ac, kind)
        # The former scatter dropped zeros before the sum too: bit for bit.
        for a, b in ((new[0], old[0]), (new[2], old[2])):
            for field in ("indptr", "indices", "data"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert new[1].tobytes() == old[1].tobytes()

    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    @pytest.mark.parametrize("name", POISSON_MESHES)
    def test_poisson_matches_the_former_scatter(self, monkeypatch, fixture_set, name, kind):
        gc = oracle_or_fixture(fixture_set, name)
        ac = abstr(gc)
        source, boundary = (lambda x: np.sin(x[0]) + x[1]), (lambda x: x[0] * x[1])
        new = poisson.assemble_poisson(gc, ac, kind, source, boundary)
        monkeypatch.setattr(poisson, "_scatter", old_eliminating_scatter)
        old = poisson.assemble_poisson(gc, ac, kind, source, boundary)
        # Dropping the masked zeros before the sum reorders the sums of
        # scipy's unstable per-row sort: one ulp per summand at most.
        summands = np.bincount(ac.top_faces(0).ravel()).max()
        assert_same_but_dropped_zeros(new.matrix, old.matrix, ulps=summands)
        assert new.rhs.tobytes() == old.rhs.tobytes()


class TestLocalAssembly:
    """The route of ``harmonic_bases`` (local Hodge blocks and local
    coboundaries) against global Hodge matrices and sparse products with
    the boundary matrices."""

    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(ORACLE_MESHES))
    def test_operators_match_the_product_route(self, fixture_set, name, kind):
        gc = oracle_or_fixture(fixture_set, name)
        ac = abstr(gc)
        counts = ac.face_counts()
        local = _local_operators(gc, ac, kind)
        product = _product_operators(ac, build_hodges(gc, ac, kind))
        for op, (new, old) in enumerate(zip(local, product)):
            assert len(new) == len(old) == ac.complex_dim + (op == 0)
            for p, (a, b) in enumerate(zip(new, old)):
                shape = (counts[p], counts[p + (op == 2)])
                a, b = scattered(a, shape), scattered(b, shape)
                assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    @pytest.mark.parametrize("name", FIXTURE_NAMES + list(ORACLE_MESHES))
    def test_diagonal_operators_match_the_dense_route(self, fixture_set, name):
        gc = oracle_or_fixture(fixture_set, name)
        ac = abstr(gc)
        counts = ac.face_counts()
        for op, (new, old) in enumerate(zip(_local_operators(gc, ac, "diagonal"), dense_diagonal_operators(gc, ac))):
            for p, (a, b) in enumerate(zip(new, old, strict=True)):
                shape = (counts[p], counts[p + (op == 2)])
                a, b = scattered(a, shape), scattered(b, shape)
                assert np.abs(a - b).max() <= np.spacing(np.abs(b).max())

    @pytest.mark.parametrize("name", ["triangle", "square", "disk", "annulus", "two_tets", "kuhn_cube_2", "perforated_grid_3"])
    def test_diagonal_poisson_matches_the_dense_route(self, monkeypatch, fixture_set, name):
        gc = oracle_or_fixture(fixture_set, name)
        ac = abstr(gc)
        source, boundary = (lambda x: np.sin(x[0]) + x[1]), (lambda x: x[0] * x[1])
        new = poisson.assemble_poisson(gc, ac, "diagonal", source, boundary)
        diagonal = elements._local_hodges
        monkeypatch.setattr(poisson, "_local_hodges", lambda *args: dense(diagonal(*args)))
        old = poisson.assemble_poisson(gc, ac, "diagonal", source, boundary)
        for a, b in ((new.matrix.toarray(), old.matrix.toarray()), (new.rhs, old.rhs)):
            assert np.abs(a - b).max() <= np.spacing(np.abs(b).max())
        assert new.constrained == old.constrained

    @pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
    def test_default_call_builds_no_global_hodge(self, monkeypatch, fixture_set, kind):
        gc = fixture_set["torus"]
        calls = []
        for name in ("galerkin_mass_matrix", "diagonal_hodge", "build_hodges"):
            monkeypatch.setattr(hodge, name, lambda *args, name=name: calls.append(name))
        bases = harmonic_bases(gc, abstr(gc), kind)
        assert [b.dimension for b in bases.values()] == [1, 2, 1]
        assert calls == []

    @pytest.mark.parametrize("name", ["hollow_triangle", "torus", "two_tets", "kuhn_cube_2"])
    def test_local_coboundary_is_the_global_one_on_every_top(self, fixture_set, name):
        ac = abstr(oracle_or_fixture(fixture_set, name))
        n = ac.complex_dim
        # The face tables handed over by ``abstr`` and derived by the constructor.
        for complex_ in (ac, AbstractComplex(n, ac.simplex_arrays, ac.orientation_signs)):
            cm = matrices_for(complex_)
            for p in range(n):
                rows, cols = complex_.top_faces(p + 1), complex_.top_faces(p)
                restricted = cm.coboundary_csr(p).toarray()[rows[:, :, None], cols[:, None, :]]
                local = _local_coboundary(n, p)
                np.testing.assert_array_equal(restricted, np.broadcast_to(local, restricted.shape))
