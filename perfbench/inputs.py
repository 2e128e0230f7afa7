"""Seeded benchmark inputs and their structural checks.

Every input is a built-in or benchmark-made mesh whose vertices are
relabelled by a seeded permutation (so no optimisation can tune itself to
one numbering), round-tripped through ``mesh_to_json`` -> ``load_mesh``
(parse plus validation, as a user's file would be), and checked for its
Euler characteristic, closedness and face counts before anything is timed.
"""

from __future__ import annotations

import itertools

import numpy as np

from decfem import mesh, meshes, poisson


class InputError(RuntimeError):
    """A generated input does not have the structure the workload relies on."""


def kuhn_cube(k: int) -> mesh.GeometricComplex:
    """Unit cube cut into k^3 cells, each split into 6 Kuhn (Freudenthal) tetrahedra.

    ``decfem.meshes`` has no 3-d generator; this one gives the 3-d rung of
    the mesh ladder.  Each tetrahedron walks from a cell's lowest corner to
    its highest along the three axes in one of the 3! orders, so
    neighbouring cells share their face diagonals and the result is a
    simplicial complex.
    """

    def vid(i, j, l):
        return (i * (k + 1) + j) * (k + 1) + l

    verts = [
        [i / k, j / k, l / k]
        for i in range(k + 1)
        for j in range(k + 1)
        for l in range(k + 1)
    ]
    tets = []
    for corner in itertools.product(range(k), repeat=3):
        for order in itertools.permutations(range(3)):
            walk = list(corner)
            tet = [vid(*walk)]
            for axis in order:
                walk[axis] += 1
                tet.append(vid(*walk))
            tets.append(tet)
    return mesh.GeometricComplex(verts, tets)


def kuhn_cube_counts(k: int) -> list:
    edges = 3 * k * (k + 1) ** 2 + 3 * k * k * (k + 1) + k**3
    return [(k + 1) ** 3, edges, 12 * k**3 + 6 * k * k, 6 * k**3]


def refined_counts(counts: list, times: int) -> list:
    """Face counts of a triangulated surface after ``uniform_refine`` ``times`` times."""
    v, e, f = counts
    for _ in range(times):
        v, e, f = v + e, 2 * e + 3 * f, 4 * f
    return [v, e, f]


def refine(gc: mesh.GeometricComplex, times: int) -> mesh.GeometricComplex:
    for _ in range(times):
        gc = poisson.uniform_refine(gc)
    return gc


def prepare(
    gc: mesh.GeometricComplex,
    rng: np.random.Generator,
    name: str,
    euler: int,
    closed: bool,
    counts: list,
) -> mesh.GeometricComplex:
    """Relabel, round-trip through the JSON loader and check the structure."""
    relabelled = mesh.relabel_vertices(gc, rng.permutation(gc.num_vertices))
    loaded = mesh.load_mesh(meshes.mesh_to_json(relabelled))
    ac = mesh.abstr(loaded)
    found = (ac.euler_characteristic(), ac.is_closed(), ac.face_counts())
    if found != (euler, closed, counts):
        raise InputError(
            f"{name}: (euler, closed, face counts) = {found}, "
            f"expected {(euler, closed, counts)}"
        )
    return loaded


def torus(n: int, rng) -> mesh.GeometricComplex:
    return prepare(meshes.torus_grid(n, n), rng, f"torus {n}x{n}", 0, True, [n * n, 3 * n * n, 2 * n * n])


def projective_plane(refinements: int, rng) -> mesh.GeometricComplex:
    base = meshes.projective_plane_minimal()
    return prepare(
        refine(base, refinements),
        rng,
        f"RP2 refined {refinements}x",
        1,
        True,
        refined_counts([6, 15, 10], refinements),
    )


def cube(k: int, rng) -> mesh.GeometricComplex:
    return prepare(kuhn_cube(k), rng, f"Kuhn cube {k}^3", 1, False, kuhn_cube_counts(k))


def square(refinements: int, rng) -> mesh.GeometricComplex:
    return prepare(
        refine(meshes.split_square(), refinements),
        rng,
        f"split square refined {refinements}x",
        1,
        False,
        refined_counts([4, 5, 2], refinements),
    )
