"""The array-backed complex against the tuple, set and dict code it replaced.

Each ``old_*`` oracle below is the code the library ran before
``AbstractComplex`` stored its simplices as sorted int64 arrays and
``chains`` built its boundaries as int64 CSR matrices: the set closure of
``abstr``, the ``(row, col)``-dict boundary builder, the per-triangle
``uniform_refine`` loop, ``boundary_vertex_ids``, ``_max_edge_length``, the
tuple-level ``AbstractComplex`` validation and the Poisson assembly on float
CSR copies of the dict boundaries.  Face lists, signs, face tables,
boundaries, refined meshes, boundary vertices and error messages must be
identical; the Poisson system must agree to 1e-15 relative.

The later ``old_*`` oracles are the code that read the tuple lists, the
index dicts and the ``IntSparseMatrix`` boundary and coboundary views
before the int64 CSR boundaries became the only form outside the Smith
normal form: the dict-entry coreduction, the tuple/dict chain-map check
and the exact dd = 0 and transpose checks of ``verify``.  Their results
must be identical.
"""

import itertools
import math
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp

from decfem import abstr, assemble_poisson, matrices_for, meshes, sin_sin_solution
from decfem import apply_chain_map_check
from decfem.chains import ChainMapError, ComplexMatrices, IntSparseMatrix, _exact, complex_matrices
from decfem.cli import _exact_checks
from decfem.coreduction import coreduce
from decfem.hodge import build_hodges
from decfem.batched import _permutation_sign
from decfem import batched, mesh as mesh_module
from decfem.mesh import AbstractComplex, GeometricComplex, MeshValidationError, relabel_vertices
from decfem.poisson import _max_edge_length, boundary_vertex_ids, uniform_refine
from decfem.whitney import analytic_form, de_rham_map

from conftest import FIXTURE_NAMES, kuhn_cube, random_delaunay_mesh, rips_complex, two_tets


def old_abstr(gc):
    """(face lists as sorted tuple lists, orientation signs)."""
    n = gc.complex_dim
    simplices = [None] * (n + 1)
    simplices[n] = sorted(tuple(sorted(s.tolist())) for s in gc.top_simplices)
    for p in range(n, 0, -1):
        faces = set()
        for s in simplices[p]:
            for k in range(p + 1):
                faces.add(s[:k] + s[k + 1:])
        simplices[p - 1] = sorted(faces)
    if n == gc.embed_dim:
        signs = np.where(gc.top_volumes > 0, 1, -1)
    else:
        signs = _permutation_sign(gc.top_simplices)
    return simplices, signs


def old_boundary_matrix(simplices, p):
    ent = {}
    lower = {s: i for i, s in enumerate(simplices[p - 1])}
    for j, s in enumerate(simplices[p]):
        for k in range(p + 1):
            ent[(lower[s[:k] + s[k + 1:]], j)] = (-1) ** k
    return IntSparseMatrix(len(simplices[p - 1]), len(simplices[p]), ent)


def old_complex_matrices(simplices):
    """(boundary, coboundary) dicts, with dd = 0 checked exactly."""
    n = len(simplices) - 1
    boundary = {p: old_boundary_matrix(simplices, p) for p in range(1, n + 1)}
    coboundary = {p: boundary[p + 1].transpose() for p in range(0, n)}
    for p in range(1, n):
        assert (boundary[p] @ boundary[p + 1]).is_zero()
    return boundary, coboundary


def old_top_faces(simplices, p):
    n = len(simplices) - 1
    index = {s: i for i, s in enumerate(simplices[p])}
    positions = list(itertools.combinations(range(n + 1), p + 1))
    return np.array(
        [[index[tuple(top[k] for k in pos)] for pos in positions] for top in simplices[n]], dtype=int
    ).reshape(len(simplices[n]), len(positions))


def old_uniform_refine(gc):
    simplices, _ = old_abstr(gc)
    edges = simplices[1]
    edge_index = {s: i for i, s in enumerate(edges)}
    m0 = gc.num_vertices
    midpoints = np.array([(gc.vertices[a] + gc.vertices[b]) / 2.0 for a, b in edges])
    new_vertices = np.vstack([gc.vertices, midpoints])
    new_tris = []
    for tri in gc.top_simplices:
        a, b, c = (int(v) for v in tri)

        def mid(u, v):
            return m0 + edge_index[(u, v) if u < v else (v, u)]

        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        new_tris += [[a, mab, mca], [mab, b, mbc], [mca, mbc, c], [mab, mbc, mca]]
    return GeometricComplex(new_vertices, new_tris)


def old_boundary_vertex_ids(simplices):
    n = len(simplices) - 1
    counts = {}
    for top in simplices[n]:
        for k in range(n + 1):
            facet = top[:k] + top[k + 1:]
            counts[facet] = counts.get(facet, 0) + 1
    on_boundary = set()
    for facet in simplices[n - 1]:
        if counts[facet] == 1:
            on_boundary.update(facet)
    return sorted(on_boundary)


def old_max_edge_length(gc, simplices):
    return max(float(np.linalg.norm(gc.vertices[b] - gc.vertices[a])) for a, b in simplices[1])


def old_validate_complex(complex_dim, simplices, orientation_signs):
    """The message the tuple-level constructor raised, or None."""
    if len(simplices) != complex_dim + 1:
        return "need one simplex list per dimension 0..n"
    levels = [list(map(tuple, level)) for level in simplices]
    for p, level in enumerate(levels):
        if any(len(s) != p + 1 or list(s) != sorted(set(s)) for s in level):
            return f"{p}-simplices must be strictly ascending tuples"
        if level != sorted(level) or len(set(level)) != len(level):
            return f"{p}-simplex list must be sorted and duplicate-free"
    for p in range(1, complex_dim + 1):
        lower = set(levels[p - 1])
        for s in levels[p]:
            for k in range(p + 1):
                if s[:k] + s[k + 1:] not in lower:
                    return f"complex not closed under faces at {s}"
    signs = np.array(orientation_signs, dtype=int)
    if signs.shape != (len(levels[-1]),) or not np.all(np.abs(signs) == 1):
        return "orientation signs must be one +-1 per top simplex"
    return None


def old_assemble_poisson(gc, ac, hodge_kind, source, dirichlet):
    """Poisson assembly on float CSR copies of the dict boundaries (matrix, rhs)."""
    simplices, _ = old_abstr(gc)
    boundary_ids = old_boundary_vertex_ids(simplices)
    d0 = sp.csr_matrix(np.array(old_boundary_matrix(simplices, 1).transpose().to_dense(), dtype=float))
    hodges = build_hodges(gc, ac, hodge_kind)
    stiffness = (d0.T @ hodges[1] @ d0).tocsr()
    src = de_rham_map(gc, ac, analytic_form(0, lambda x: np.array([source(x)])), 0)
    rhs = hodges[0] @ src.values
    vert_index = {s[0]: i for i, s in enumerate(simplices[0])}
    fixed = np.array([vert_index[v] for v in boundary_ids], dtype=int)
    values = np.array([float(dirichlet(gc.vertices[v])) for v in boundary_ids])
    lifted = np.zeros(stiffness.shape[0])
    lifted[fixed] = values
    rhs = rhs - stiffness @ lifted
    rhs[fixed] = values
    free = np.ones(stiffness.shape[0])
    free[fixed] = 0.0
    proj = sp.diags(free)
    return (proj @ stiffness @ proj + sp.diags(1.0 - free)).tocsr(), rhs


MESHES = (
    [("fixture", name) for name in FIXTURE_NAMES]
    + [("two_tets", None)]
    + [("kuhn", k) for k in (1, 2)]
    + [("delaunay", seed) for seed in range(6)]
)


def build(kind, arg, fixture_set):
    if kind == "fixture":
        return fixture_set[arg]
    if kind == "two_tets":
        return two_tets()
    if kind == "kuhn":
        return kuhn_cube(arg)
    if kind == "rips":
        return rips_complex(arg)
    return random_delaunay_mesh(arg)


@pytest.fixture(params=MESHES, ids=lambda m: f"{m[0]}-{m[1]}")
def mesh(request, fixture_set):
    return build(*request.param, fixture_set)


def test_face_lists_signs_and_face_tables_match(mesh):
    ac = abstr(mesh)
    simplices, signs = old_abstr(mesh)
    assert [list(map(tuple, level.tolist())) for level in ac.simplex_arrays] == simplices
    for p, level in enumerate(simplices):
        arr = ac.simplex_arrays[p]
        assert arr.dtype == np.int64 and arr.shape == (len(level), p + 1)
        assert arr.tolist() == [list(s) for s in level]
        assert np.array_equal(ac.top_faces(p), old_top_faces(simplices, p))
    assert np.array_equal(ac.orientation_signs, signs)


def assert_boundaries_match(ac, simplices):
    boundary, coboundary = old_complex_matrices(simplices)
    cm = matrices_for(ac)
    for p, old in boundary.items():
        assert cm.boundary[p] == old
        csr = cm.boundary_csr(p)
        assert csr.dtype == np.int64 and csr.has_sorted_indices
        assert np.array_equal(csr.toarray(), old.to_dense())
        faces = ac.boundary_faces(p)
        for j, s in enumerate(simplices[p]):
            assert [simplices[p - 1][i] for i in faces[j]] == [s[:k] + s[k + 1:] for k in range(p + 1)]
    for p, old in coboundary.items():
        assert _exact(cm.coboundary_csr(p)) == old
        assert np.array_equal(cm.coboundary_csr(p).toarray(), old.to_dense())


def test_boundaries_match(mesh):
    assert_boundaries_match(abstr(mesh), old_abstr(mesh)[0])


@pytest.mark.parametrize("seed", range(4))
def test_boundaries_match_on_directly_built_complexes(seed):
    ac = rips_complex(seed)
    assert_boundaries_match(ac, [list(map(tuple, level)) for level in ac.simplex_arrays])


def test_uniform_refine_boundary_vertices_and_edge_length_match(mesh):
    ac = abstr(mesh)
    simplices, _ = old_abstr(mesh)
    assert boundary_vertex_ids(ac) == old_boundary_vertex_ids(simplices)
    assert _max_edge_length(mesh, ac) == old_max_edge_length(mesh, simplices)
    if mesh.complex_dim != 2:
        return
    new, old = uniform_refine(mesh), old_uniform_refine(mesh)
    assert new.vertices.dtype == old.vertices.dtype
    assert new.vertices.tobytes() == old.vertices.tobytes()
    assert np.array_equal(new.top_simplices, old.top_simplices)


@pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
@pytest.mark.parametrize("name", ["square", "disk", "annulus"])
def test_poisson_system_matches(fixture_set, name, kind):
    gc = uniform_refine(fixture_set[name])
    ac = abstr(gc)
    solution = sin_sin_solution()
    system = assemble_poisson(gc, ac, kind, solution.source, solution.u)
    old_matrix, old_rhs = old_assemble_poisson(gc, ac, kind, solution.source, solution.u)
    scale = abs(old_matrix).max()
    assert abs(system.matrix - old_matrix).max() <= 1e-15 * scale
    assert np.abs(system.rhs - old_rhs).max() <= 1e-15 * np.abs(old_rhs).max()


def test_large_vertex_ids_match_the_small_complex():
    """``two_tets`` on ids 60,000..60,004 of 70,000 vertices: packing a
    tetrahedron's four ids into one int64 key would overflow here."""
    small = two_tets()
    shift = 60_000
    vertices = np.zeros((70_000, 3))
    vertices[shift : shift + small.num_vertices] = small.vertices
    big = GeometricComplex(vertices, small.top_simplices + shift)
    assert 70_000**4 > 2**63
    ac_small, ac_big = abstr(small), abstr(big)
    for p in range(4):
        assert np.array_equal(ac_big.simplex_arrays[p], ac_small.simplex_arrays[p] + shift)
        assert np.array_equal(ac_big.top_faces(p), ac_small.top_faces(p))
    assert np.array_equal(ac_big.orientation_signs, ac_small.orientation_signs)
    cm_small, cm_big = matrices_for(ac_small), matrices_for(ac_big)
    for p in range(1, 4):
        assert np.array_equal(ac_big.boundary_faces(p), ac_small.boundary_faces(p))
        assert (cm_big.boundary_csr(p) != cm_small.boundary_csr(p)).nnz == 0
        assert cm_big.boundary[p] == cm_small.boundary[p]
    assert_boundaries_match(ac_big, old_abstr(big)[0])


def refined_relabelled_square(times, seed):
    gc = meshes.split_square()
    for _ in range(times):
        gc = uniform_refine(gc)
    return relabel_vertices(gc, np.random.default_rng(seed).permutation(gc.num_vertices))


def square_with_an_unused_vertex():
    gc = meshes.split_square()
    return GeometricComplex(np.vstack([gc.vertices, [[5.0, 5.0]]]), gc.top_simplices)


HANDOVER_MESHES = {
    **{name: lambda fixtures, name=name: fixtures[name] for name in FIXTURE_NAMES},
    "torus_grid": lambda fixtures: meshes.torus_grid(),
    "kuhn_cube-3": lambda fixtures: kuhn_cube(3),
    "refined_square-2": lambda fixtures: refined_relabelled_square(2, 5),
    "refined_square-3": lambda fixtures: refined_relabelled_square(3, 6),
    "unused_vertex": lambda fixtures: square_with_an_unused_vertex(),
}


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", HANDOVER_MESHES)
def test_abstr_hands_over_the_tables_the_constructor_derives(fixture_set, name, seed):
    """``abstr`` passes its face keys, boundary faces and top-face tables
    to the complex; the public constructor derives them by sorted lookups
    from the simplex arrays alone."""
    gc = HANDOVER_MESHES[name](fixture_set)
    if seed is not None:
        gc = relabel_vertices(gc, np.random.default_rng(seed).permutation(gc.num_vertices))
    ac = abstr(gc)
    n = ac.complex_dim
    ref = AbstractComplex(n, ac.simplex_arrays, ac.orientation_signs)
    assert np.array_equal(ac.orientation_signs, ref.orientation_signs)
    assert len(ac._keys) == len(ref._keys) == n + 1
    for p in range(n + 1):
        assert np.array_equal(ac.simplex_arrays[p], ref.simplex_arrays[p])
        assert np.array_equal(ac._keys[p], ref._keys[p])
        handed, derived = ac.top_faces(p), ref.top_faces(p)
        assert handed.dtype == derived.dtype == np.int64 and not handed.flags.writeable
        assert np.array_equal(handed, derived)
        if p:
            handed, derived = ac.boundary_faces(p), ref.boundary_faces(p)
            assert handed.dtype == derived.dtype == np.int64 and not handed.flags.writeable
            assert np.array_equal(handed, derived)


def test_abstr_makes_no_sorted_lookup_and_fills_every_top_face_table(fixture_set, monkeypatch):
    built = [build_mesh(fixture_set) for build_mesh in HANDOVER_MESHES.values()]
    calls = []
    for module in (mesh_module, batched):
        for name in ("_sorted_ids", "_chain_ids"):
            original = getattr(module, name)

            def counted(*args, original=original, name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, counted)
    for gc in built:
        ac = abstr(gc)
        assert sorted(ac._top_faces) == list(range(ac.complex_dim + 1))
    assert calls == []


def test_simplex_ids_finds_present_rows_and_flags_absent_ones():
    ac = abstr(two_tets())
    for p, level in enumerate(ac.simplex_arrays):
        assert np.array_equal(ac.simplex_ids(level[::-1]), np.arange(len(level))[::-1])
    assert ac.simplex_ids([[0, 4], [1, 4], [5, 6], [-1, 0]]).tolist() == [-1, 5, -1, -1]
    assert ac.simplex_ids([[0, 1, 4], [1, 2, 3]]).tolist() == [-1, 3]
    for bad in ([0, 1], [[0, 1, 2, 3, 4]], np.empty((2, 0))):
        with pytest.raises(ValueError, match="vertex ids"):
            ac.simplex_ids(bad)


TRIANGLE = [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
BAD_COMPLEXES = [
    (1, [[(0,), (1,)]], [1]),
    (1, [[(0,), (1,)], [(1, 0)]], [1]),
    (1, [[(0,), (1,)], [(0, 1, 2)]], [1]),
    (1, [[(0,), (1,)], [(0, 0)]], [1]),
    (1, [[(0,), (1,), (2,)], [(0, 1), (2,)]], [1, 1]),
    (1, [[(0,), (1,), (2,)], [(0, 2), (0, 1)]], [1, 1]),
    (1, [[(0,), (1,), (2,)], [(0, 1), (0, 1)]], [1, 1]),
    (1, [[(1,), (0,)], [(0, 1)]], [1]),
    (1, [[(0,), (1,)], [(0, 1), (0, 3)]], [1, 1]),
    (1, [[(0,), (1,), (3,)], [(0, 1), (0, 2), (0, 3)]], [1, 1, 1]),
    (2, [TRIANGLE[0], [(0, 1), (1, 2)], TRIANGLE[2]], [1]),
    (2, [TRIANGLE[0], [(0, 1), (0, 2), (1, 2), (1, 5)], TRIANGLE[2]], [1]),
    (2, [TRIANGLE[0], TRIANGLE[1], [(0, 1, 2), (0, 1, 3)]], [1, 1]),
    (2, TRIANGLE, [1, 1]),
    (2, TRIANGLE, [2]),
    (2, TRIANGLE, [[1]]),
    (2, [[(0.5,), (1,), (2,)], TRIANGLE[1], TRIANGLE[2]], [1]),
]


@pytest.mark.parametrize("case", BAD_COMPLEXES, ids=range(len(BAD_COMPLEXES)))
def test_constructor_rejects_what_the_tuple_validation_rejected(case):
    expected = old_validate_complex(*case)
    if case[1][0][0] == (0.5,):
        expected = "0-simplices must be strictly ascending tuples"  # the tuple code let floats pass
    assert expected is not None
    with pytest.raises(MeshValidationError) as err:
        AbstractComplex(*case)
    assert str(err.value) == expected


@pytest.mark.parametrize("seed", range(4))
def test_constructor_accepts_what_the_tuple_validation_accepted(seed):
    ac = rips_complex(seed)
    levels = [list(map(tuple, level)) for level in ac.simplex_arrays]
    assert old_validate_complex(2, levels, [1] * len(levels[2])) is None
    ac = AbstractComplex(2, [np.array(level) for level in levels], [1] * len(levels[2]))
    assert [list(map(tuple, level.tolist())) for level in ac.simplex_arrays] == levels


def test_complex_matrices_reject_a_nonzero_composition():
    ac = AbstractComplex(2, TRIANGLE, [1])
    ac._boundary_faces = dict(ac._boundary_faces)
    ac._boundary_faces[2] = np.array([[2, 0, 0]])  # face (0, 1) twice, (1, 2) missing
    with pytest.raises(AssertionError, match="degree 1"):
        complex_matrices(ac)


def test_max_edge_length_is_the_longest_edge():
    gc = GeometricComplex([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], [[0, 1, 2]])
    assert _max_edge_length(gc, abstr(gc)) == 5.0
    assert math.isclose(old_max_edge_length(gc, old_abstr(gc)[0]), 5.0)


def old_views(ac):
    """(tuple lists, tuple-to-index dicts): the complex's former compatibility views."""
    simplices = [list(map(tuple, level.tolist())) for level in ac.simplex_arrays]
    return simplices, [{s: i for i, s in enumerate(level)} for level in simplices]


def old_coreduce(cm):
    """Coreduction over the (row, col) entries of the IntSparseMatrix boundaries."""
    n = cm.complex_dim
    coeffs = [None] + [cm.boundary[p].entries for p in range(1, n + 1)]
    faces = [None] + [[[] for _ in range(cm.counts[p])] for p in range(1, n + 1)]
    cofaces = [[[] for _ in range(cm.counts[p])] for p in range(n)] + [None]
    for p in range(1, n + 1):
        fp, cp = faces[p], cofaces[p - 1]
        for r, c in coeffs[p]:
            fp[c].append(r)
            cp[r].append(c)
    alive = [[True] * cm.counts[p] for p in range(n + 1)]
    queue = deque()
    starts = 0
    for vertex in range(cm.counts[0]):
        if not alive[0][vertex]:
            continue
        starts += 1
        alive[0][vertex] = False
        if n:
            queue.append((1, cofaces[0][vertex]))
        while queue:
            p, cells = queue.popleft()
            here, below, up, down = alive[p], alive[p - 1], cofaces[p], cofaces[p - 1]
            for cell in cells:
                if not here[cell]:
                    continue
                live_faces = [f for f in faces[p][cell] if below[f]]
                if len(live_faces) == 1 and abs(coeffs[p][live_faces[0], cell]) == 1:
                    face = live_faces[0]
                    here[cell] = below[face] = False
                    if up:
                        queue.append((p + 1, up[cell]))
                    queue.append((p, down[face]))
    live = [[i for i, a in enumerate(alive[p]) if a] for p in range(n + 1)]
    residual = {}
    for p in range(1, n + 1):
        row_of = {f: i for i, f in enumerate(live[p - 1])}
        entries = {
            (row_of[f], j): coeffs[p][f, cell]
            for j, cell in enumerate(live[p])
            for f in faces[p][cell]
            if alive[p - 1][f]
        }
        residual[p] = IntSparseMatrix(len(live[p - 1]), len(live[p]), entries)
    return starts, live, residual


def old_induced_map(source, target, fmap, p):
    simplices, _ = old_views(source)
    _, index_of = old_views(target)
    rows = target.num_simplices(p) if p <= target.complex_dim else 0
    ent = {}
    for j, s in enumerate(simplices[p]):
        image = [fmap[v] for v in s]
        if len(set(image)) != p + 1:
            continue
        key = tuple(sorted(image))
        if p > target.complex_dim or key not in index_of[p]:
            raise ChainMapError(f"image of simplex {s} is not a simplex of the target")
        ent[(index_of[p][key], j)] = int(_permutation_sign(image))
    return IntSparseMatrix(rows, source.num_simplices(p), ent)


def old_apply_chain_map_check(source, target, vertex_map):
    fmap = dict(enumerate(vertex_map)) if not isinstance(vertex_map, dict) else vertex_map
    n = source.complex_dim
    induced = [old_induced_map(source, target, fmap, p) for p in range(n + 1)]
    src, tgt = matrices_for(source), matrices_for(target)
    for p in range(1, n + 1):
        lhs = induced[p - 1] @ src.boundary[p]
        if p <= target.complex_dim:
            rhs = tgt.boundary[p] @ induced[p]
        else:
            rhs = IntSparseMatrix(induced[p - 1].rows, induced[p].cols)
        if lhs != rhs:
            return False
    return True


def old_exact_checks(cm):
    """``verify``'s dd = 0 and transpose checks on the IntSparseMatrix views."""
    n = cm.complex_dim
    coboundary = {p - 1: b.transpose() for p, b in cm.boundary.items()}
    return [
        (
            "boundary.boundary = 0 (exact)",
            all((cm.boundary[p] @ cm.boundary[p + 1]).is_zero() for p in range(1, n)),
            "",
        ),
        (
            "coboundary = boundary transpose (exact)",
            all(coboundary[p] == cm.boundary[p + 1].transpose() for p in range(n)),
            "",
        ),
    ]


COMPLEXES = MESHES + [("rips", seed) for seed in range(6)]


@pytest.fixture(params=COMPLEXES, ids=lambda m: f"{m[0]}-{m[1]}")
def complex_(request, fixture_set):
    built = build(*request.param, fixture_set)
    return built if isinstance(built, AbstractComplex) else abstr(built)


def test_coreduction_matches(complex_):
    cm = matrices_for(complex_)
    starts, _pairs, live, residual = coreduce(cm)
    old_starts, old_live, old_residual = old_coreduce(cm)
    assert (len(starts), live) == (old_starts, old_live)
    assert residual.keys() == old_residual.keys()
    for p, mat in residual.items():
        assert mat == old_residual[p]


def test_exact_checks_match(complex_):
    cm = matrices_for(complex_)
    assert _exact_checks(cm) == old_exact_checks(cm)
    assert all(ok for _name, ok, _detail in _exact_checks(cm))
    if cm.complex_dim >= 2:
        broken = cm.boundary_csr(2).copy()
        broken.data[0] *= -1  # one flipped sign breaks dd = 0
        bad = ComplexMatrices(cm.complex_dim, cm.counts, {**cm._boundary, 2: broken})
        assert _exact_checks(bad) == old_exact_checks(bad)
        assert not _exact_checks(bad)[0][1]


def chain_map_outcome(check, source, target, vertex_map):
    """True / False, or the ChainMapError message."""
    try:
        return check(source, target, vertex_map)
    except ChainMapError as err:
        return str(err)


def assert_chain_map_checks_match(source, target, vertex_map):
    new = chain_map_outcome(apply_chain_map_check, source, target, vertex_map)
    assert new == chain_map_outcome(old_apply_chain_map_check, source, target, vertex_map)
    return new


def test_chain_map_check_matches_on_the_chain_map_tests(fixture_set):
    tri = abstr(meshes.reference_triangle())
    square = abstr(meshes.split_square())
    disk = abstr(meshes.disk())
    tets = abstr(two_tets())
    sphere = abstr(fixture_set["tetrahedron_boundary"])
    assert assert_chain_map_checks_match(tri, square, [0, 1, 2]) is True
    assert assert_chain_map_checks_match(tri, tri, [0, 0, 2]) is True
    assert "(1, 2)" in assert_chain_map_checks_match(square, square, [0, 1, 3, 2])
    assert assert_chain_map_checks_match(tri, disk, [0, 1, 2]) is True
    # Above the target's dimension: degenerate images vanish, others raise.
    assert assert_chain_map_checks_match(tets, tri, [0, 1, 2, 0, 1]) is True
    assert "(0, 1, 2, 3)" in assert_chain_map_checks_match(tets, sphere, [0, 1, 2, 3, 0])
    for gc in fixture_set.values():
        ac = abstr(gc)
        vertices = ac.simplex_arrays[0][:, 0].tolist()
        assert assert_chain_map_checks_match(ac, ac, {v: v for v in vertices}) is True


def test_chain_map_check_matches_on_random_maps(complex_, fixture_set):
    """Maps onto any target vertices (mostly not simplicial) and onto the
    vertices of one target simplex (always simplicial)."""
    rng = np.random.default_rng(5)
    vertices = complex_.simplex_arrays[0][:, 0]
    targets = [abstr(gc) for gc in fixture_set.values()] + [abstr(two_tets()), complex_]
    seen = set()
    for target in targets:
        levels = target.simplex_arrays
        for choices in (levels[0][:, 0], levels[-1][0], levels[1][-1]):
            images = rng.choice(choices, size=len(vertices))
            vertex_map = dict(zip(vertices.tolist(), images))
            outcome = assert_chain_map_checks_match(complex_, target, vertex_map)
            seen.add(outcome if isinstance(outcome, bool) else "error")
    assert seen == {True, "error"}
