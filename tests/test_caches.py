"""Per-complex caches: quadrature tables, owners, Whitney values and coboundaries.

Each table is built once per complex (and per degree and quadrature rule)
and shared read-only.  The oracles below are the uncached builds the
library ran before: a cache hit must return them bit for bit, and every
result computed from a warm cache must equal the one from a fresh complex.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from decfem import abstr, cli, matrices_for, meshes, quadrature
from decfem.chains import ComplexMatrices
from decfem.exterior import index_combinations
from decfem.mesh import AbstractComplex
from decfem.batched import _minors
from decfem.quadrature import QuadratureRule, simplex_rule
from decfem.whitney import (
    Cochain,
    FormField,
    _de_rham_whitney_entries,
    _MeshGeometry,
    _quadrature_whitney,
    _simplex_quadrature,
    cup_product,
    de_rham_map,
    de_rham_whitney_matrix,
    mesh_geometry,
    standard_test_forms,
)

from conftest import FIXTURE_NAMES, kuhn_cube
from test_hodge import ORACLE_MESHES

MESH_NAMES = FIXTURE_NAMES + list(ORACLE_MESHES)
# The rule of the Whitney-form integrals and the rule of verify's
# derivative check.
RULE_DEGREES = [2, 5]


def build_mesh(fixture_set, name):
    return ORACLE_MESHES[name]() if name in ORACLE_MESHES else fixture_set[name]


def uncached_owners(ac, p):
    table = ac.top_faces(p)
    owner = np.full(ac.num_simplices(p), -1, dtype=int)
    faces, first = np.unique(table, return_index=True)
    owner[faces] = first // table.shape[1]
    return owner


def uncached_quadrature(gc, ac, p, rule):
    """The quadrature tables as built on every call before they were cached."""
    geo = mesh_geometry(gc, ac)
    owners = uncached_owners(ac, p)
    coords = gc.vertices[ac.simplex_arrays[p]]
    points = (rule.points[:, None, :] @ coords[:, None])[:, :, 0]
    lam = geo.barycentric(owners[:, None], points)
    frame = (coords[:, 1:] - coords[:, :1]).transpose(0, 2, 1)
    combos = np.array(index_combinations(gc.embed_dim, p), dtype=int)
    minors = _minors(frame, combos, np.arange(p)) / math.factorial(p)
    return owners, points, lam, minors


def assert_bitwise(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


def cached_arrays(gc, ac):
    """Every table a verify-like run caches on the complex, after building them."""
    n = ac.complex_dim
    arrays = []
    for p in range(n + 1):
        for degree in RULE_DEGREES:
            rule = simplex_rule(p, degree)
            arrays += _simplex_quadrature(gc, ac, p, rule)
            arrays += [_quadrature_whitney(gc, ac, k, p, rule) for k in range(p + 1)]
        arrays.append(ac.top_containing(p))
        arrays.append(mesh_geometry(gc, ac).signed_wedge_tables(p))
    cm = matrices_for(ac)
    for p in range(n):
        cob = cm.coboundary_csr(p)
        arrays += [cob.data, cob.indices, cob.indptr]
    return arrays


@pytest.mark.parametrize("degree", RULE_DEGREES)
@pytest.mark.parametrize("name", MESH_NAMES)
def test_cached_tables_are_the_uncached_builds(fixture_set, name, degree):
    gc = build_mesh(fixture_set, name)
    ac = abstr(gc)
    for p in range(ac.complex_dim + 1):
        rule = simplex_rule(p, degree)
        first = _simplex_quadrature(gc, ac, p, rule)
        hit = _simplex_quadrature(gc, ac, p, rule)
        for a, b, old in zip(first, hit, uncached_quadrature(gc, ac, p, rule), strict=True):
            assert a is b
            assert_bitwise(a, old)
        assert ac.top_containing(p) is ac.top_containing(p)
        assert_bitwise(ac.top_containing(p), uncached_owners(ac, p))
        owners, _, lam, _ = first
        for k in range(p + 1):
            values = _quadrature_whitney(gc, ac, k, p, rule)
            assert _quadrature_whitney(gc, ac, k, p, rule) is values
            assert_bitwise(values, mesh_geometry(gc, ac).whitney_values(k, owners[:, None], lam))
    cm = matrices_for(ac)
    for p in range(ac.complex_dim):
        assert cm.coboundary_csr(p) is cm.coboundary_csr(p)
        old = cm.boundary_csr(p + 1).T.tocsr()
        for a, b in zip(
            (cm.coboundary_csr(p).data, cm.coboundary_csr(p).indices, cm.coboundary_csr(p).indptr),
            (old.data, old.indices, old.indptr),
        ):
            assert_bitwise(a, b)


def warm_results(gc, ac, degree):
    """Every cached-table consumer on one complex, called twice: the second
    call of each reads only cache hits."""
    n, rng = ac.complex_dim, np.random.default_rng(5)
    if n >= 2:
        a = Cochain(ac, 0, rng.standard_normal(ac.num_simplices(0)))
        b = Cochain(ac, 1, rng.standard_normal(ac.num_simplices(1)))
    out = []
    for _ in range(2):
        out.append([de_rham_whitney_matrix(gc, ac, p).toarray() for p in range(n + 1)])
        if gc.embed_dim in (2, 3):
            out[-1] += [
                de_rham_map(gc, ac, f, f.degree, simplex_rule(f.degree, degree)).values
                for _, form, dform in standard_test_forms(gc.embed_dim)
                for f in (form, dform)
                if dform.degree <= n
            ]
        if n >= 2:
            out[-1] += [cup_product(gc, a, b).values, cup_product(gc, b, b).values]
    return out


@pytest.mark.parametrize("degree", RULE_DEGREES)
@pytest.mark.parametrize("name", MESH_NAMES)
def test_results_from_a_warm_cache_equal_those_of_a_fresh_complex(fixture_set, name, degree):
    gc = build_mesh(fixture_set, name)
    cold, warm = warm_results(gc, abstr(gc), degree)
    fresh, _ = warm_results(gc, abstr(gc), degree)
    for a, b, c in zip(cold, warm, fresh, strict=True):
        assert_bitwise(b, a)
        assert_bitwise(b, c)


def test_another_rule_of_the_same_dimension_never_hits():
    gc = meshes.disk()
    ac = abstr(gc)
    first = QuadratureRule(1, np.array([[0.5, 0.5]]), np.array([1.0]), 1)
    other = QuadratureRule(1, np.array([[0.25, 0.75], [0.75, 0.25]]), np.array([0.5, 0.5]), 1)
    _simplex_quadrature(gc, ac, 1, first)
    for a, b in zip(_simplex_quadrature(gc, ac, 1, other), uncached_quadrature(gc, ac, 1, other), strict=True):
        assert_bitwise(a, b)
    _quadrature_whitney(gc, ac, 1, 1, first)
    owners, _, lam, _ = uncached_quadrature(gc, ac, 1, other)
    geo = mesh_geometry(gc, ac)
    assert_bitwise(_quadrature_whitney(gc, ac, 1, 1, other), geo.whitney_values(1, owners[:, None], lam))


def test_rules_compare_and_hash_by_identity():
    # Field-wise comparison would ask arrays for one truth value and raise.
    rule = simplex_rule(2, 2)
    copy = QuadratureRule(rule.dim, rule.points, rule.weights, rule.exactness_degree)
    assert rule == rule and rule != copy and rule != quadrature._triangle_midpoint()
    assert hash(rule) == object.__hash__(rule)
    assert len({rule, copy, simplex_rule(2, 2)}) == 2


@pytest.mark.parametrize("name", ["square", "tetrahedron_boundary", "torus", "kuhn_cube_2"])
def test_cached_arrays_are_read_only(fixture_set, name):
    gc = build_mesh(fixture_set, name)
    ac = abstr(gc)
    for array in cached_arrays(gc, ac):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0


def test_de_rham_map_hands_evaluate_read_only_points(fixture_set):
    gc = fixture_set["square"]
    ac = abstr(gc)
    seen = []

    def evaluate(top_ids, x):
        seen.append((top_ids.flags.writeable, x.flags.writeable))
        return np.ones((2, x.shape[1]))

    de_rham_map(gc, ac, FormField(1, evaluate), 1)
    assert seen and all(flags == (False, False) for flags in seen)


@pytest.fixture
def build_counter(monkeypatch):
    """Counts of the builds (cache misses) of quadrature tables, owners and coboundaries."""
    counts = {"quadrature": 0, "owners": [], "coboundaries": []}
    cached, owners, coboundary = (
        _MeshGeometry.cached, AbstractComplex.top_containing, ComplexMatrices.coboundary_csr
    )

    def counted_cached(self, key, build):
        if key[0] == "quadrature" and key not in self._tables:
            counts["quadrature"] += 1
        return cached(self, key, build)

    def counted_owners(self, p):
        if p not in self._owners:
            counts["owners"].append(p)
        return owners(self, p)

    def counted_coboundary(self, p):
        if p not in self._coboundaries:
            counts["coboundaries"].append(p)
        return coboundary(self, p)

    monkeypatch.setattr(_MeshGeometry, "cached", counted_cached)
    monkeypatch.setattr(AbstractComplex, "top_containing", counted_owners)
    monkeypatch.setattr(ComplexMatrices, "coboundary_csr", counted_coboundary)
    return counts


@pytest.mark.parametrize("name, builds", [("torus", 6), ("kuhn_cube_2", 8)])
def test_verify_builds_each_table_once(capsys, tmp_path, build_counter, fixture_set, name, builds):
    gc = build_mesh(fixture_set, name)
    path = tmp_path / "mesh.json"
    path.write_text(meshes.mesh_to_json(gc))
    assert cli.main(["verify", str(path), "--json"]) == 0
    capsys.readouterr()
    n = gc.complex_dim
    assert build_counter["quadrature"] <= builds
    assert sorted(build_counter["owners"]) == list(range(n + 1))
    assert sorted(build_counter["coboundaries"]) == list(range(n))


@pytest.mark.parametrize("name", MESH_NAMES + ["kuhn_cube_3"])
def test_identity_row_reads_the_deviation_of_the_assembled_matrix(fixture_set, name):
    gc = kuhn_cube(3) if name == "kuhn_cube_3" else build_mesh(fixture_set, name)
    ac = abstr(gc)
    for p in range(ac.complex_dim + 1):
        values, faces = _de_rham_whitney_entries(gc, ac, p)
        row = float(np.abs(values - (faces == np.arange(len(faces))[:, None])).max())
        matrix = float(abs(de_rham_whitney_matrix(gc, ac, p) - sp.identity(ac.num_simplices(p))).max())
        assert row.hex() == matrix.hex()
