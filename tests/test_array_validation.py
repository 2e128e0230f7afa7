"""Column-wise mesh validation and search-free refinement against the code
they replace.

``old_validate`` is ``GeometricComplex._validate`` as it was before the
checks ran column by column: per-row range and repeat reductions, a
multi-key ``np.lexsort`` of the sorted rows with ``np.unique`` for the
first occurrence, and longest edges from ``np.linalg.norm``
(``old_signed_volumes``).  ``old_refine`` found each triangle's row of the
edge table with ``simplex_ids`` and each vertex's sorted position with a
sum over an (m, 3, 3) comparison.  Messages, reported indices, volumes,
refined meshes and CLI output must be identical, bit for bit.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decfem import abstr, cli, meshes, poisson
from decfem.batched import _determinants, _signed_volumes, _simplex_volumes
from decfem.mesh import AbstractComplex, GeometricComplex, MeshValidationError, relabel_vertices
from decfem.poisson import _refine, boundary_vertex_ids

from conftest import kuhn_cube

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DEGENERATE_RTOL = 1e-7  # mesh._DEGENERATE_RTOL


def old_signed_volumes(coords):
    edges = coords[:, 1:] - coords[:, :1]
    k, d = edges.shape[1:]
    signed = _determinants(edges) / math.factorial(k) if k == d else _simplex_volumes(coords)
    return signed, np.linalg.norm(edges, axis=2).max(axis=1, initial=0.0)


def old_validate(vertices, tops):
    """Top volumes, or the message of the lowest faulty simplex."""
    n = tops.shape[1] - 1
    in_range = (tops.min(axis=1) >= 0) & (tops.max(axis=1) < len(vertices))
    ordered = np.sort(tops, axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    order = np.lexsort(ordered.T[::-1])
    starts = np.concatenate([[True], (ordered[order][1:] != ordered[order][:-1]).any(axis=1)])
    ranks = np.empty(len(tops), dtype=np.int64)
    ranks[order] = np.cumsum(starts) - 1
    first = np.unique(ranks, return_index=True)[1][ranks]
    vols, scales = old_signed_volumes(vertices[np.where(in_range[:, None], tops, 0)])
    finite = np.isfinite(vols)
    flat = np.abs(vols) * math.factorial(n) <= DEGENERATE_RTOL * scales**n
    faulty = ~in_range | repeated | (first < np.arange(len(tops))) | ~finite | flat
    if faulty.any():
        i = int(np.argmax(faulty))
        if not in_range[i]:
            return f"vertex index out of range in simplex {i}"
        if repeated[i]:
            return f"degenerate simplex {i}"
        if first[i] < i:
            return f"duplicate simplex {i} (same vertex set as simplex {first[i]})"
        if not finite[i]:
            return f"non-finite volume of simplex {i}"
        return f"degenerate simplex {i}"
    return vols


def old_refine(gc, ac):
    edges = ac.simplex_arrays[1]
    tris = gc.top_simplices
    midpoints = (gc.vertices[edges[:, 0]] + gc.vertices[edges[:, 1]]) / 2.0
    mid_ids = gc.num_vertices + ac.top_faces(1)[ac.simplex_ids(np.sort(tris, axis=1))]
    pos = (tris[:, None, :] < tris[:, :, None]).sum(axis=2)
    rows = np.arange(len(tris))

    def mid(i, j):
        return mid_ids[rows, pos[:, i] + pos[:, j] - 1]

    a, b, c = tris.T
    mab, mbc, mca = mid(0, 1), mid(1, 2), mid(2, 0)
    new_tris = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], axis=1)
    return GeometricComplex(np.vstack([gc.vertices, midpoints]), new_tris.reshape(-1, 3))


def assert_validates_as_before(vertices, tops):
    with np.errstate(all="ignore"):
        expected = old_validate(vertices, tops)
        if isinstance(expected, str):
            with pytest.raises(MeshValidationError) as info:
                GeometricComplex(vertices, tops)
            assert type(info.value) is MeshValidationError
            assert str(info.value) == expected
        else:
            vols = GeometricComplex(vertices, tops).top_volumes
            assert vols.dtype == expected.dtype and vols.tobytes() == expected.tobytes()
    return expected


# -- validation ----------------------------------------------------------------

FAULTS = ["negative", "too_large", "repeated", "duplicate", "duplicates", "flat", "non_finite"]


@st.composite
def damaged_meshes(draw):
    """(vertices, tops) of a random mesh, n = 1..3 in R^n..R^3, with faults."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(n, 3))
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m0 = int(rng.integers(n + 1, 12))
    vertices = rng.standard_normal((m0, d)) * 10.0 ** int(rng.integers(-40, 40))
    tops = np.array([rng.choice(m0, n + 1, replace=False) for _ in range(rng.integers(1, 16))])
    for fault in faults:
        i, j = int(rng.integers(len(tops))), int(rng.integers(n + 1))
        if fault == "negative":
            tops[i, j] = -int(rng.integers(1, 4))
        elif fault == "too_large":
            tops[i, j] = m0 + int(rng.integers(0, 4))
        elif fault == "repeated":
            tops[i, j] = tops[i, (j + 1) % (n + 1)]
        elif fault in ("duplicate", "duplicates"):
            for _ in range(1 if fault == "duplicate" else int(rng.integers(2, 5))):
                source = tops[rng.integers(len(tops))]
                at = int(rng.integers(len(tops) + 1))
                tops = np.insert(tops, at, rng.permutation(source), axis=0)
        else:
            # A new vertex on the first edge of row i (at its first end when
            # n = 1) makes the simplex flat; two far-apart ones overflow it.
            a, b = vertices[tops[i, 0] % m0], vertices[tops[i, 1] % m0]
            if fault == "flat":
                extra = [a if n == 1 else (a + b) / 2]
            else:
                extra = [np.full(d, 1e308), np.full(d, -1e308)]
            vertices = np.vstack([vertices, extra])
            tops[i, -len(extra):] = len(vertices) - np.arange(len(extra), 0, -1)
    return vertices, tops


@settings(max_examples=400, deadline=None)
@given(damaged_meshes())
def test_validation_reports_what_the_row_wise_checks_reported(mesh):
    assert_validates_as_before(*mesh)


@pytest.mark.parametrize(
    "tops, message",
    [
        ([[0, 1, 2], [0, 1, -3], [5, 1, 2]], "vertex index out of range in simplex 1"),
        ([[0, 1, 2], [4, 9, 0], [2, 2, 1]], "vertex index out of range in simplex 1"),
        ([[-1, 0, 0], [0, 1, 2], [0, 0, 1]], "vertex index out of range in simplex 0"),
        ([[0, 1, 2], [0, 0, 1], [0, 0, 1]], "degenerate simplex 1"),
        ([[2, 0, 3], [1, 2, 0], [9, 0, 0], [3, 2, 0]], "vertex index out of range in simplex 2"),
        ([[2, 0, 3], [1, 2, 0], [3, 2, 0], [9, 0, 0]], "duplicate simplex 2 (same vertex set as simplex 0)"),
        ([[0, 1, 2], [1, 2, 3], [2, 1, 0], [3, 1, 2]], "duplicate simplex 2 (same vertex set as simplex 0)"),
    ],
)
def test_out_of_range_rows_never_change_the_reported_simplex(tops, message):
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert assert_validates_as_before(vertices, np.array(tops)) == message


@pytest.mark.parametrize("k, d", [(k, d) for d in (1, 2, 3) for k in range(d + 1)])
def test_longest_edges_match_the_norm_bitwise(k, d):
    rng = np.random.default_rng(10 * k + d)
    scale = 10.0 ** rng.uniform(-150, 150, (2000, 1, 1))
    coords = rng.standard_normal((2000, k + 1, d)) * scale
    with np.errstate(all="ignore"):  # volumes of the largest overflow
        signed, scales = _signed_volumes(coords)
        old_signed, old_scales = old_signed_volumes(coords)
    assert scales.tobytes() == old_scales.tobytes()
    assert signed.tobytes() == old_signed.tobytes()


def test_construction_calls_no_unique_and_only_one_key_sorts(fixture_set, monkeypatch):
    built = [*fixture_set.values(), kuhn_cube(2), poisson.uniform_refine(fixture_set["torus"])]
    sort_keys, unique_calls = [], []
    lexsort, unique = np.lexsort, np.unique

    def counted_lexsort(keys, *args, **kwargs):
        sort_keys.append(len(keys))
        return lexsort(keys, *args, **kwargs)

    def counted_unique(*args, **kwargs):
        unique_calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted_lexsort)
    monkeypatch.setattr(np, "unique", counted_unique)
    for gc in built:
        GeometricComplex(gc.vertices, gc.top_simplices)
    assert unique_calls == []
    assert set(sort_keys) == {1}


# -- refinement ----------------------------------------------------------------


def variants(gc, seed):
    """The mesh, relabelled, reflected, and with shuffled rows and row entries."""
    rng = np.random.default_rng(seed)
    reflected = gc.vertices * np.where(np.arange(gc.embed_dim) == 0, -1.0, 1.0)
    within = rng.permuted(np.tile([0, 1, 2], (gc.num_top, 1)), axis=1)
    tops = np.take_along_axis(gc.top_simplices, within, axis=1)
    return {
        "given": gc,
        "relabelled": relabel_vertices(gc, rng.permutation(gc.num_vertices)),
        "reflected": GeometricComplex(reflected, gc.top_simplices),
        "shuffled": GeometricComplex(gc.vertices, tops[rng.permutation(gc.num_top)]),
    }


TWO_D = [
    "triangle",
    "square",
    "disk",
    "annulus",
    "tetrahedron_boundary",
    "torus",
    "torus_minimal",
    "projective_plane",
]


@pytest.mark.parametrize("name", TWO_D)
def test_refinement_reads_what_the_search_found(fixture_set, name):
    for label, gc in variants(fixture_set[name], TWO_D.index(name)).items():
        new = old = gc
        for level in range(4):
            new, old = _refine(new, abstr(new)), old_refine(old, abstr(old))
            where = f"{name} {label} level {level + 1}"
            assert new.vertices.tobytes() == old.vertices.tobytes(), where
            assert new.top_simplices.tobytes() == old.top_simplices.tobytes(), where
            assert new.top_volumes.tobytes() == old.top_volumes.tobytes(), where
            assert old_validate(old.vertices, old.top_simplices).tobytes() == new.top_volumes.tobytes()


def test_public_constructor_lists_its_tops_in_sorted_order(abstract_set):
    for ac in abstract_set.values():
        n = ac.complex_dim
        ref = AbstractComplex(n, ac.simplex_arrays, ac.orientation_signs)
        assert np.array_equal(ref._top_ids, np.arange(ac.num_simplices(n)))
        assert not ac._top_ids.flags.writeable and not ref._top_ids.flags.writeable


def test_abstr_hands_over_the_sorted_row_of_each_given_top(fixture_set):
    for gc in [*fixture_set.values(), kuhn_cube(2)]:
        for variant in variants(gc, 5).values() if gc.complex_dim == 2 else [gc]:
            ac = abstr(variant)
            found = ac.simplex_ids(np.sort(variant.top_simplices, axis=1))
            assert ac._top_ids.dtype == np.int64 and np.array_equal(ac._top_ids, found)


def run_cli(capsys, argv):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", ["square", "disk", "annulus", "triangle"])
def test_converge_and_solve_print_what_the_search_route_printed(capsys, monkeypatch, name):
    path = FIXTURES / f"{name}.json"
    runs = [
        argv
        for kind in ("galerkin", "diagonal")
        for argv in (
            ["converge", path, "--levels", "4", "--hodge", kind, "--json"],
            ["solve", path, "--hodge", kind, "--json"],
        )
    ]
    new = [run_cli(capsys, argv) for argv in runs]
    assemble = poisson.assemble_poisson

    def searched_dirichlet(gc, ac, *args):
        system = assemble(gc, ac, *args)
        found = ac.simplex_ids(np.array(boundary_vertex_ids(ac))[:, None])
        assert [i for i, _ in system.constrained] == found.tolist()
        return system

    monkeypatch.setattr(poisson, "_refine", old_refine)
    monkeypatch.setattr(poisson, "assemble_poisson", searched_dirichlet)
    monkeypatch.setattr(cli, "assemble_poisson", searched_dirichlet)
    old = [run_cli(capsys, argv) for argv in runs]
    assert new == old


def test_converge_makes_no_simplex_ids_call(capsys, monkeypatch):
    calls = []
    simplex_ids = AbstractComplex.simplex_ids

    def counted(self, rows):
        calls.append(1)
        return simplex_ids(self, rows)

    monkeypatch.setattr(AbstractComplex, "simplex_ids", counted)
    argv = ["converge", FIXTURES / "square.json", "--levels", "5"]
    assert run_cli(capsys, argv)[0] == 0
    assert calls == []
    monkeypatch.setattr(poisson, "_refine", old_refine)  # the counter sees the search
    assert run_cli(capsys, argv)[0] == 0
    assert len(calls) == 5


# -- relabelling ---------------------------------------------------------------


@pytest.mark.parametrize(
    "permutation",
    [
        [0, 0, 2, 3],  # repeated entry, so id 1 is missing
        [3, 2, 1, 1],
        [0, 1, 3],  # too short: id 2 missing
        [0, 1, 2, 3, 0],  # too long
        [0, 1, 2, 3, 4],
        [0, 1, 2, 4],  # out of range
        [-1, 1, 2, 3],  # negative (a valid numpy index)
        [-4, 1, 2, 3],
        [],
    ],
)
def test_relabel_rejects_what_is_not_a_bijection(permutation):
    column = np.array(permutation, dtype=np.int64)
    with pytest.raises(MeshValidationError, match="permutation must be a bijection on vertex indices"):
        relabel_vertices(meshes.split_square(), column)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 8), min_size=1, max_size=9))
def test_relabel_accepts_exactly_the_sorted_range(entries):
    gc = meshes.split_square()
    old_accepts = sorted(entries) == list(range(gc.num_vertices))
    try:
        relabeled = relabel_vertices(gc, np.array(entries))
    except MeshValidationError as err:
        assert not old_accepts and str(err) == "permutation must be a bijection on vertex indices"
    else:
        assert old_accepts
        assert np.array_equal(relabeled.vertices[entries], gc.vertices)
