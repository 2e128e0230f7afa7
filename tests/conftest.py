"""Shared fixtures and independent oracles for the test-suite."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial

from decfem import abstr, meshes
from decfem.chains import IntSparseMatrix
from decfem.mesh import AbstractComplex, GeometricComplex

FIXTURE_NAMES = [
    "triangle",
    "square",
    "hollow_triangle",
    "disk",
    "annulus",
    "tetrahedron_boundary",
    "torus",
    "torus_minimal",
    "projective_plane",
]

# The seven meshes named by the acceptance criteria.
ACCEPTANCE_NAMES = [
    "triangle",
    "square",
    "disk",
    "annulus",
    "tetrahedron_boundary",
    "torus",
    "projective_plane",
]


@pytest.fixture(scope="session")
def fixture_set():
    return meshes.fixture_meshes()


@pytest.fixture(scope="session")
def abstract_set(fixture_set):
    return {name: abstr(gc) for name, gc in fixture_set.items()}


def two_tets() -> GeometricComplex:
    """Two tetrahedra sharing the face (1, 2, 3)."""
    return GeometricComplex(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
        ],
        [[0, 1, 2, 3], [1, 2, 3, 4]],
    )


def sliver_square_json(eps: float) -> str:
    """Mesh JSON of the unit square cut into four triangles around vertex 4
    at (0.5, eps); triangle 3, (0, 1, 4), has relative volume eps."""
    return json.dumps({
        "dimension": 2,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, eps]],
        "simplices": [[0, 4, 3], [4, 1, 2], [4, 2, 3], [0, 1, 4]],
    })


def kuhn_cube(k: int) -> GeometricComplex:
    """Unit cube cut into k^3 cells of 6 Kuhn tetrahedra each."""

    def vid(i, j, l):
        return (i * (k + 1) + j) * (k + 1) + l

    verts = [[i / k, j / k, l / k] for i, j, l in itertools.product(range(k + 1), repeat=3)]
    tets = []
    for corner in itertools.product(range(k), repeat=3):
        for order in itertools.permutations(range(3)):
            walk = list(corner)
            tet = [vid(*walk)]
            for axis in order:
                walk[axis] += 1
                tet.append(vid(*walk))
            tets.append(tet)
    return GeometricComplex(verts, tets)


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


def tunnel_cube(k: int) -> GeometricComplex:
    """kuhn_cube(k) without the tetrahedra whose centroid has x and y in
    (1/3, 2/3): a square tunnel along z, beta = [1, 1, 0, 0].

    A centroid coordinate is s / 4k with s = 4i + 1, 2 or 3, never 1/3 or
    2/3 (s = 4k/3 or 8k/3, a multiple of 4), and 4k < 3s < 8k tests it
    in integers.
    """
    cube = kuhn_cube(k)
    grid = np.rint(cube.vertices * k).astype(np.int64)
    sums = grid[cube.top_simplices].sum(axis=1)  # 4k x centroid
    inside = ((4 * k < 3 * sums) & (3 * sums < 8 * k))[:, :2].all(axis=1)
    return GeometricComplex(cube.vertices, cube.top_simplices[~inside])


def random_delaunay_mesh(seed: int, npts: int = 30) -> GeometricComplex:
    rng = np.random.default_rng(seed)
    pts = rng.random((npts, 2))
    tri = scipy.spatial.Delaunay(pts)
    return GeometricComplex(pts, tri.simplices)


def rips_complex(seed: int, npts: int = 25, radius: float = 0.35) -> AbstractComplex:
    """Clique complex of a random proximity graph, built combinatorially."""
    rng = np.random.default_rng(seed)
    pts = rng.random((npts, 2))
    close = lambda i, j: np.linalg.norm(pts[i] - pts[j]) < radius  # noqa: E731
    edges = [(i, j) for i in range(npts) for j in range(i + 1, npts) if close(i, j)]
    edge_set = set(edges)
    triangles = [
        (i, j, k)
        for (i, j) in edges
        for k in range(j + 1, npts)
        if (i, k) in edge_set and (j, k) in edge_set
    ]
    vertices = sorted({v for e in edges for v in e})
    simplices = [[(v,) for v in vertices], sorted(edges), sorted(triangles)]
    return AbstractComplex(2, simplices, [1] * len(triangles))


def int_matrix(dense) -> IntSparseMatrix:
    """The IntSparseMatrix of a table of integers given row by row."""
    cols = len(dense[0]) if len(dense) else 0
    return IntSparseMatrix(len(dense), cols, {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row)})


def int_identity(size: int) -> IntSparseMatrix:
    return IntSparseMatrix(size, size, {(i, i): 1 for i in range(size)})


def int_transpose(mat: IntSparseMatrix) -> IntSparseMatrix:
    return IntSparseMatrix(mat.cols, mat.rows, {(c, r): v for (r, c), v in mat.entries.items()})


def int_dense(mat: IntSparseMatrix) -> list:
    """The entries of mat as a list of rows, zeros included."""
    out = [[0] * mat.cols for _ in range(mat.rows)]
    for (r, c), v in mat.entries.items():
        out[r][c] = v
    return out


def int_key(mat: IntSparseMatrix) -> tuple:
    """What two equal IntSparseMatrix objects share: the shape and the entries."""
    return mat.rows, mat.cols, mat.entries


def exact_determinant(dense) -> int:
    """Cofactor-expansion determinant over exact integers (small matrices)."""
    size = len(dense)
    if size == 0:
        return 1
    cache = {}

    def minor_det(rows: tuple, col_mask: int) -> int:
        if not rows:
            return 1
        key = (rows, col_mask)
        if key in cache:
            return cache[key]
        cols = [c for c in range(size) if col_mask & (1 << c)]
        r = rows[0]
        total = 0
        for pos, c in enumerate(cols):
            v = dense[r][c]
            if v:
                total += (-1) ** pos * v * minor_det(rows[1:], col_mask & ~(1 << c))
        cache[key] = total
        return total

    return minor_det(tuple(range(size)), (1 << size) - 1)


def exact_monomial_integral(exponents) -> Fraction:
    """Integral of a barycentric monomial over the unit-content simplex.

    For the simplex of dimension n = len(exponents) - 1, normalized to unit
    content, the integral of prod(lambda_i^a_i) is
    n! * prod(a_i!) / (n + sum(a_i))!.
    """
    import math

    n = len(exponents) - 1
    num = Fraction(math.factorial(n))
    for a in exponents:
        num *= math.factorial(a)
    return num / math.factorial(n + sum(exponents))


def monomials_up_to(dim: int, degree: int):
    """All exponent tuples over dim+1 barycentric coordinates, total <= degree."""
    for total in range(degree + 1):
        for cuts in itertools.combinations_with_replacement(range(total + 1), dim):
            bounds = (0,) + cuts + (total,)
            yield tuple(bounds[i + 1] - bounds[i] for i in range(dim + 1))
