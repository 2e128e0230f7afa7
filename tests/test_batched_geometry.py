"""The batched simplex kernel and face tables against the per-simplex loops they replaced.

Each oracle below is the loop the library ran before its geometry was
computed for all simplices at once (``batched._simplex_volumes`` and
``batched._simplex_gradients``) and read through the per-degree face tables
(``AbstractComplex.top_faces``), before its integrals were batched over
simplices and quadrature points (``de_rham_map``, ``cup_product``,
``l2_and_energy_error`` and the batched ``wedge``), or before fields took
all their points at once (the ``whitney_interpolate`` closure, the source
and boundary values of ``assemble_poisson``).  Geometry results must
agree to 1e-14 relative to the largest oracle entry, integrals to 1e-14
times max(1, largest oracle entry); integer tables, owners, counts, signs
and error messages must be identical.

The Hodge stars are now assembled in closed form; ``old_galerkin`` (degree-2
quadrature of the wedge tables) and ``old_dual_volumes`` (one Gram volume
per permutation fragment) are the routes they replaced.  Where a closed form
departs from them by more than 1e-14 on a planar triangle mesh, an exact
rational oracle must find it no farther from the exact values than the old
route.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from decfem import (
    abstr,
    assemble_poisson,
    barycentric_dual_volumes,
    barycentric_gradients,
    boundary_vertex_ids,
    build_hodges,
    cup_product,
    de_rham_map,
    diagonal_hodge,
    galerkin_mass_matrix,
    l2_and_energy_error,
    signed_volume,
    standard_test_forms,
    unsigned_volume,
    whitney_basis,
    whitney_interpolate,
)
from decfem.batched import _local_faces
from decfem.chains import matrices_for
from decfem.exterior import _shuffle_table, index_combinations, num_components, wedge
from decfem.mesh import GeometricComplex, MeshValidationError
from decfem.meshes import split_square
from decfem.poisson import ManufacturedSolution, uniform_refine
from decfem.quadrature import simplex_rule
from decfem.whitney import Cochain, FormField, analytic_form, mesh_geometry

from conftest import FIXTURE_NAMES, kuhn_cube, random_delaunay_mesh, two_tets

REL_TOL = 1e-14
DEGENERATE_RTOL = 1e-12


# -- the per-simplex oracles --------------------------------------------------


def old_validate(vertices, tops):
    """Top volumes, or the message of the first faulty simplex, one simplex at a time."""
    m0, n, d = len(vertices), tops.shape[1] - 1, vertices.shape[1]
    seen: dict = {}
    vols = np.empty(len(tops))
    for i, simplex in enumerate(tops):
        if simplex.min() < 0 or simplex.max() >= m0:
            return f"vertex index out of range in simplex {i}"
        if len(set(simplex.tolist())) != n + 1:
            return f"degenerate simplex {i}"
        key = tuple(sorted(simplex.tolist()))
        if key in seen:
            return f"duplicate simplex {i} (same vertex set as simplex {seen[key]})"
        seen[key] = i
        coords = vertices[simplex]
        edges = coords[1:] - coords[0]
        scale = float(np.max(np.linalg.norm(edges, axis=1)))
        if n == d:
            vol = float(np.linalg.det(edges)) / math.factorial(n)
        else:
            gram = edges @ edges.T
            vol = math.sqrt(max(float(np.linalg.det(gram)), 0.0)) / math.factorial(n)
        if not math.isfinite(vol):
            return f"non-finite volume of simplex {i}"
        if abs(vol) * math.factorial(n) <= DEGENERATE_RTOL * scale**n:
            return f"degenerate simplex {i}"
        vols[i] = vol
    return vols


def old_signed_volume(gc, simplex):
    coords = gc.vertices[list(simplex)]
    edges = coords[1:] - coords[0]
    n = len(simplex) - 1
    if n == gc.embed_dim:
        return float(np.linalg.det(edges)) / math.factorial(n)
    return math.sqrt(max(float(np.linalg.det(edges @ edges.T)), 0.0)) / math.factorial(n)


def old_unsigned_volume(gc, simplex):
    p = len(simplex) - 1
    if p == 0:
        return 1.0
    coords = gc.vertices[list(simplex)]
    edges = coords[1:] - coords[0]
    return math.sqrt(max(float(np.linalg.det(edges @ edges.T)), 0.0)) / math.factorial(p)


def old_affine_gradients(coords):
    edges = (coords[1:] - coords[0]).T
    rest = np.linalg.solve(edges.T @ edges, edges.T)
    return np.vstack([-rest.sum(axis=0), rest])


def old_sort_parity(simplex):
    perm = sorted(range(len(simplex)), key=lambda k: simplex[k])
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def old_top_geometry(gc, ac):
    """Gradients, volumes and origins of the canonical top simplices."""
    n = ac.complex_dim
    grads, vols, origin = [], [], []
    for top in ac.simplex_arrays[n].tolist():
        coords = gc.vertices[list(top)]
        grads.append(old_affine_gradients(coords))
        vols.append(old_unsigned_volume(gc, top))
        origin.append(coords[0])
    return np.array(grads), np.array(vols), np.array(origin)


def old_wedge_tables(gc, ac, grads, p):
    """(global face ids, sign-folded gradient wedges) by iterated wedge products."""
    n, d = ac.complex_dim, gc.embed_dim
    faces = tuple(itertools.combinations(range(n + 1), p + 1))
    tops = ac.simplex_arrays[n].tolist()
    globals_ = np.empty((len(tops), len(faces)), dtype=int)
    wedges = np.zeros((len(tops), len(faces), p + 1, num_components(d, p)))
    for t, top in enumerate(tops):
        for f, pos in enumerate(faces):
            globals_[t, f] = ac.simplex_ids([[top[k] for k in pos]])[0]
            for k in range(p + 1):
                if p == 0:
                    w = np.ones(1)
                else:
                    rest = [pos[j] for j in range(p + 1) if j != k]
                    w = grads[t, rest[0]].copy()
                    for deg, idx in enumerate(rest[1:], start=1):
                        w = wedge(w, deg, grads[t, idx], 1, d)
                wedges[t, f, k] = ((-1) ** k) * math.factorial(p) * w
    return globals_, wedges


def old_whitney_basis(grads, ac, sigma, top_id, lam, d):
    top = ac.simplex_arrays[ac.complex_dim][top_id].tolist()
    pos = [top.index(v) for v in sigma]
    p = len(sigma) - 1
    if p == 0:
        return np.array([lam[pos[0]]])
    out = np.zeros(num_components(d, p))
    for k in range(p + 1):
        rest = [pos[j] for j in range(p + 1) if j != k]
        w = grads[top_id, rest[0]].copy()
        for deg, idx in enumerate(rest[1:], start=1):
            w = wedge(w, deg, grads[top_id, idx], 1, d)
        out += ((-1) ** k) * math.factorial(p) * lam[pos[k]] * w
    return out


def old_induced_metric(g, d, p):
    combos = index_combinations(d, p)
    out = np.empty((len(combos), len(combos)))
    for i, ci in enumerate(combos):
        for j, cj in enumerate(combos):
            out[i, j] = np.linalg.det(g[np.ix_(ci, cj)]) if p else 1.0
    return out


def old_galerkin(gc, ac, p, material=None):
    n, d = ac.complex_dim, gc.embed_dim
    grads, vols, _ = old_top_geometry(gc, ac)
    globals_, wedges = old_wedge_tables(gc, ac, grads, p)
    faces = list(itertools.combinations(range(n + 1), p + 1))
    rule = simplex_rule(n, 2)
    lam_local = rule.points[:, np.array(faces)]
    rows, cols, data = [], [], []
    for t in range(len(vols)):
        basis = np.einsum("qfk,fkc->qfc", lam_local, wedges[t])
        if material is None:
            local = np.einsum("qic,qjc,q->ij", basis, basis, rule.weights)
        else:
            gp = old_induced_metric(np.asarray(material[t], dtype=float), d, p)
            local = np.einsum("qic,cd,qjd,q->ij", basis, gp, basis, rule.weights)
        local *= vols[t]
        for a in range(len(faces)):
            for b in range(len(faces)):
                rows.append(globals_[t, a])
                cols.append(globals_[t, b])
                data.append(local[a, b])
    size = ac.num_simplices(p)
    return sp.coo_matrix((data, (rows, cols)), shape=(size, size)).toarray()


def old_dual_volumes(gc, ac):
    n = gc.complex_dim
    vols = [np.zeros(ac.num_simplices(p)) for p in range(n + 1)]
    for top in ac.simplex_arrays[n].tolist():
        coords = gc.vertices[list(top)]
        for p in range(n):
            for face_pos in itertools.combinations(range(n + 1), p + 1):
                rest = [k for k in range(n + 1) if k not in face_pos]
                base = coords[list(face_pos)].mean(axis=0)
                idx = ac.simplex_ids([[top[k] for k in face_pos]])[0]
                for order in itertools.permutations(rest):
                    pts = [base]
                    members = list(face_pos)
                    for k in order:
                        members.append(k)
                        pts.append(coords[members].mean(axis=0))
                    edges = np.array(pts[1:]) - pts[0]
                    frag = math.sqrt(max(float(np.linalg.det(edges @ edges.T)), 0.0))
                    vols[p][idx] += frag / math.factorial(n - p)
    for i, top in enumerate(ac.simplex_arrays[n].tolist()):
        vols[n][i] = old_unsigned_volume(gc, top)
    return vols


def old_diagonal_hodge(gc, ac, p):
    n = ac.complex_dim
    dual_vols = old_dual_volumes(gc, ac)
    diag = np.empty(ac.num_simplices(p))
    for i, sigma in enumerate(ac.simplex_arrays[p].tolist()):
        dual = 1.0 if p == n else dual_vols[p][i]
        primal = 1.0 if p == 0 else old_unsigned_volume(gc, sigma)
        diag[i] = dual / primal
    return diag


def old_top_containing(ac, p):
    n = ac.complex_dim
    owner = np.full(ac.num_simplices(p), -1, dtype=int)
    for t, top in enumerate(ac.simplex_arrays[n].tolist()):
        for face in itertools.combinations(top, p + 1):
            j = ac.simplex_ids([face])[0]
            if owner[j] < 0:
                owner[j] = t
    return owner


def old_facet_coface_counts(ac):
    n = ac.complex_dim
    counts = np.zeros(ac.num_simplices(n - 1), dtype=int)
    for top in ac.simplex_arrays[n].tolist():
        for face in itertools.combinations(top, n):
            counts[ac.simplex_ids([face])[0]] += 1
    return counts


def old_wedge(a, p, b, q, d):
    """One pair of component vectors at a time."""
    if p == 0:
        return a[0] * np.asarray(b, dtype=float)
    if q == 0:
        return b[0] * np.asarray(a, dtype=float)
    if p > q:
        out = old_wedge(b, q, a, p, d)
        return out if (p * q) % 2 == 0 else -out
    out = np.zeros(num_components(d, p + q))
    for out_idx, ia, ib, sign in _shuffle_table(d, p, q):
        out[out_idx] += sign * (a[ia] * b[ib])
    return out


def old_eval_on_frame(comps, p, frame):
    """Value of a p-covector on the p columns of a d x p frame."""
    if p == 0:
        return float(comps[0])
    total = 0.0
    for idx, combo in enumerate(index_combinations(frame.shape[0], p)):
        c = comps[idx]
        if c != 0.0:
            total += c * float(np.linalg.det(frame[list(combo), :]))
    return total


def old_de_rham_map(gc, ac, f, p, rule):
    """One simplex and one quadrature point at a time."""
    owners = ac.top_containing(p)
    values = np.empty(ac.num_simplices(p))
    for idx, sigma in enumerate(ac.simplex_arrays[p].tolist()):
        top_id = int(owners[idx])
        coords = gc.vertices[list(sigma)]
        if p == 0:
            values[idx] = f.evaluate(top_id, coords[0])[0]
            continue
        frame = (coords[1:] - coords[0]).T
        acc = 0.0
        for w, bary in zip(rule.weights, rule.points):
            acc += w * old_eval_on_frame(f.evaluate(top_id, bary @ coords), p, frame)
        values[idx] = acc / math.factorial(p)
    return values


def old_cup_product(gc, a, b):
    """Both interpolants as per-point closures, wedged and integrated point by point."""
    p, q, d = a.degree, b.degree, gc.embed_dim
    wa = whitney_interpolate(gc, a)
    wb = whitney_interpolate(gc, b)
    field = FormField(
        degree=p + q,
        evaluate=lambda t, x: old_wedge(wa.evaluate(t, x), p, wb.evaluate(t, x), q, d),
    )
    return old_de_rham_map(gc, a.complex, field, p + q, simplex_rule(p + q, 2))


def old_whitney_evaluate(gc, c, top_id, x):
    """The per-point closure body of ``whitney_interpolate``."""
    ac, p = c.complex, c.degree
    geo = mesh_geometry(gc, ac)
    lam = geo.grads[top_id] @ (np.asarray(x, dtype=float) - geo.origin[top_id])
    lam[0] += 1.0
    lam_local = lam[_local_faces(ac.complex_dim, p)]
    basis = np.einsum("fk,fkc->fc", lam_local, geo.signed_wedge_tables(p)[top_id])
    return c.values[ac.top_faces(p)[top_id]] @ basis


def old_assemble_poisson(gc, ac, hodge_kind, source, dirichlet):
    """The source through the per-point de Rham map, boundary values one vertex at a time."""
    boundary_ids = boundary_vertex_ids(ac)
    if not boundary_ids:
        raise MeshValidationError("mesh has no boundary; Dirichlet problem is not posed")
    d0 = matrices_for(ac).coboundary_csr(0)
    hodges = build_hodges(gc, ac, hodge_kind)
    stiffness = (d0.T @ hodges[1] @ d0).tocsr()
    field = analytic_form(0, lambda x: np.array([source(x)]))
    rhs = hodges[0] @ old_de_rham_map(gc, ac, field, 0, simplex_rule(0, 2))
    fixed = ac.simplex_ids(np.array(boundary_ids)[:, None])
    values = np.array([float(dirichlet(gc.vertices[v])) for v in boundary_ids])
    size = stiffness.shape[0]
    lifted = np.zeros(size)
    lifted[fixed] = values
    rhs = rhs - stiffness @ lifted
    rhs[fixed] = values
    free = np.ones(size)
    free[fixed] = 0.0
    proj = sp.diags(free)
    matrix = (proj @ stiffness @ proj + sp.diags(1.0 - free)).tocsr()
    return matrix, rhs, list(zip(fixed.tolist(), values.tolist()))


def old_l2_and_energy_error(gc, ac, vertex_values, solution):
    """One top simplex and one quadrature point at a time."""
    geo = mesh_geometry(gc, ac)
    rule = simplex_rule(ac.complex_dim, 5)
    top_values = np.asarray(vertex_values, dtype=float)[ac.top_faces(0)]
    l2 = energy = 0.0
    for t, top in enumerate(ac.simplex_arrays[ac.complex_dim].tolist()):
        coords = gc.vertices[list(top)]
        local = top_values[t]
        grad_h = local @ geo.grads[t]
        for w, bary in zip(rule.weights, rule.points):
            x = bary @ coords
            diff = float(bary @ local) - solution.u(x)
            l2 += geo.vols[t] * w * diff * diff
            gdiff = grad_h - solution.gradient(x)
            energy += geo.vols[t] * w * float(gdiff @ gdiff)
    return math.sqrt(max(l2, 0.0)), math.sqrt(max(energy, 0.0))


# -- the exact oracle ---------------------------------------------------------
# The float coordinates of a triangle mesh in the plane are exact rationals,
# and so are its areas, the barycentric dual volume of a vertex (a third of
# the area of every triangle around it) and the top-degree Whitney mass: the
# Whitney 2-form of a triangle is the constant dx ^ dy / (+-|T|), whose
# square norm under a material tensor A is det(A) / |T|^2.


def exact_areas(gc, ac):
    """Areas of the canonical triangles of a planar triangle mesh as
    Fractions, or None for any other mesh."""
    if (gc.complex_dim, gc.embed_dim) != (2, 2):
        return None
    areas = []
    for top in ac.simplex_arrays[2].tolist():
        (x0, y0), (x1, y1), (x2, y2) = ([Fraction(c) for c in gc.vertices[v].tolist()] for v in top)
        areas.append(abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2)
    return areas


def exact_vertex_dual_volumes(gc, ac):
    areas = exact_areas(gc, ac)
    if areas is None:
        return None
    vols = [Fraction(0)] * ac.num_simplices(0)
    for area, top in zip(areas, ac.simplex_arrays[2].tolist()):
        for i in ac.simplex_ids([[v] for v in top]).tolist():
            vols[i] += area / 3
    return vols


def exact_top_mass(gc, ac, material=None):
    """The top-degree Whitney mass matrix as a dense array of Fractions."""
    areas = exact_areas(gc, ac)
    if areas is None:
        return None
    diagonal = []
    for t, area in enumerate(areas):
        det = Fraction(1)
        if material is not None:
            (a, b), (c, d) = ([Fraction(v) for v in row] for row in material[t].tolist())
            det = a * d - b * c
        diagonal.append(det / area)
    exact = np.full((len(areas), len(areas)), Fraction(0), dtype=object)
    np.fill_diagonal(exact, diagonal)
    return exact


# -- the comparisons ----------------------------------------------------------


def assert_close(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    scale = np.abs(old).max() if old.size else 0.0
    assert np.abs(new - old).max(initial=0.0) <= REL_TOL * scale


def assert_close_or_nearer_exact(new, old, exact):
    """``assert_close``, or, where new departs from old by more than that,
    new no farther than old from the exact values (None: none known)."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    if np.abs(new - old).max(initial=0.0) <= REL_TOL * np.abs(old).max(initial=0.0):
        return
    assert exact is not None, "departure beyond REL_TOL and no exact oracle"
    exact = np.asarray(exact, dtype=object).ravel()

    def distance(values):
        return max(abs(Fraction(v) - e) for v, e in zip(values.ravel().tolist(), exact))

    assert distance(new) <= distance(old)


def assert_integrals_close(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    scale = max(1.0, np.abs(old).max(initial=0.0))
    assert np.abs(new - old).max(initial=0.0) <= REL_TOL * scale


MESHES = (
    [("fixture", name) for name in FIXTURE_NAMES]
    + [("two_tets", None)]
    + [("delaunay", seed) for seed in range(6)]
)


@pytest.fixture(params=MESHES, ids=lambda m: f"{m[0]}-{m[1]}")
def mesh(request, fixture_set):
    kind, arg = request.param
    if kind == "fixture":
        gc = fixture_set[arg]
    elif kind == "two_tets":
        gc = two_tets()
    else:
        gc = random_delaunay_mesh(arg)
    return gc, abstr(gc)


def test_top_volumes_match_validation_loop(mesh):
    gc, _ = mesh
    assert_close(gc.top_volumes, old_validate(gc.vertices, gc.top_simplices))


def test_volume_functions_match(mesh):
    gc, ac = mesh
    assert_close(
        [signed_volume(gc, s) for s in gc.top_simplices],
        [old_signed_volume(gc, s) for s in gc.top_simplices],
    )
    for p in range(ac.complex_dim + 1):
        assert_close(
            [unsigned_volume(gc, s) for s in ac.simplex_arrays[p].tolist()],
            [old_unsigned_volume(gc, s) for s in ac.simplex_arrays[p].tolist()],
        )


def test_gradients_match(mesh):
    gc, ac = mesh
    assert_close(
        [barycentric_gradients(gc, t) for t in range(gc.num_top)],
        [old_affine_gradients(gc.vertices[s]) for s in gc.top_simplices],
    )
    geo = mesh_geometry(gc, ac)
    grads, vols, origin = old_top_geometry(gc, ac)
    assert_close(geo.grads, grads)
    assert_close(geo.vols, vols)
    assert_close(geo.origin, origin)


def test_orientation_signs_match(mesh):
    gc, ac = mesh
    if gc.complex_dim == gc.embed_dim:
        old = [1 if v > 0 else -1 for v in old_validate(gc.vertices, gc.top_simplices)]
    else:
        old = [old_sort_parity(s.tolist()) for s in gc.top_simplices]
    assert ac.orientation_signs.tolist() == old


def test_face_tables_and_wedges_match(mesh):
    gc, ac = mesh
    geo = mesh_geometry(gc, ac)
    grads, _, _ = old_top_geometry(gc, ac)
    for p in range(ac.complex_dim + 1):
        globals_, wedges = old_wedge_tables(gc, ac, grads, p)
        assert ac.top_faces(p).tolist() == globals_.tolist()
        assert_close(geo.signed_wedge_tables(p), wedges)


def test_whitney_basis_matches(mesh):
    gc, ac = mesh
    n = ac.complex_dim
    rng = np.random.default_rng(3)
    grads, _, _ = old_top_geometry(gc, ac)
    for top_id in range(0, ac.num_simplices(n), 3):
        top = ac.simplex_arrays[n][top_id].tolist()
        lam = rng.exponential(size=n + 1)
        lam /= lam.sum()
        for p in range(n + 1):
            for sigma in itertools.combinations(top, p + 1):
                for ordered in (sigma, sigma[::-1]):
                    assert_close(
                        whitney_basis(gc, ac, ordered, top_id, lam),
                        old_whitney_basis(grads, ac, ordered, top_id, lam, gc.embed_dim),
                    )


def test_galerkin_matches(mesh):
    gc, ac = mesh
    n = ac.complex_dim
    for p in range(n + 1):
        exact = exact_top_mass(gc, ac) if p == n else None
        assert_close_or_nearer_exact(
            galerkin_mass_matrix(gc, ac, p).toarray(), old_galerkin(gc, ac, p), exact
        )


def test_galerkin_with_material_matches(mesh):
    gc, ac = mesh
    n, d = ac.complex_dim, gc.embed_dim
    rng = np.random.default_rng(11)
    factors = rng.standard_normal((ac.num_simplices(n), d, d))
    material = factors @ factors.transpose(0, 2, 1) + np.eye(d)
    for p in range(n + 1):
        old = old_galerkin(gc, ac, p, material)
        exact = exact_top_mass(gc, ac, material) if p == n else None
        new = galerkin_mass_matrix(gc, ac, p, material=material).toarray()
        assert_close_or_nearer_exact(new, old, exact)
        callable_route = galerkin_mass_matrix(gc, ac, p, material=lambda t: material[t])
        assert_close_or_nearer_exact(callable_route.toarray(), old, exact)


def test_dual_volumes_and_diagonal_hodge_match(mesh):
    gc, ac = mesh
    dual = barycentric_dual_volumes(gc, ac)
    exact = [exact_vertex_dual_volumes(gc, ac)] + [None] * ac.complex_dim
    for new, old, ex in zip(dual, old_dual_volumes(gc, ac), exact):
        assert_close_or_nearer_exact(new, old, ex)
    for p in range(ac.complex_dim + 1):
        new = diagonal_hodge(gc, ac, p).diagonal()
        assert_close_or_nearer_exact(new, old_diagonal_hodge(gc, ac, p), exact[p])


def test_exact_oracle_on_the_unit_square():
    gc = split_square()
    ac = abstr(gc)
    assert exact_areas(gc, ac) == [Fraction(1, 2)] * 2
    assert sum(exact_vertex_dual_volumes(gc, ac)) == 1
    material = np.array([[[2.0, 0.5], [0.5, 1.0]]] * 2)
    assert np.diag(exact_top_mass(gc, ac, material)).tolist() == [Fraction(7, 2)] * 2
    assert exact_areas(two_tets(), abstr(two_tets())) is None


def test_degree_one_wedge_table_is_the_signed_gradients_bitwise(mesh):
    gc, ac = mesh
    geo = mesh_geometry(gc, ac)
    ends = _local_faces(ac.complex_dim, 1)
    signed = np.stack([geo.grads[:, ends[:, 1]], -geo.grads[:, ends[:, 0]]], axis=2)
    assert geo.signed_wedge_tables(1).shape == signed.shape
    assert geo.signed_wedge_tables(1).tobytes() == signed.tobytes()
    assert (geo.signed_wedge_tables(0) == 1.0).all()


def test_owners_and_coface_counts_match(mesh):
    _, ac = mesh
    for p in range(ac.complex_dim + 1):
        assert ac.top_containing(p).tolist() == old_top_containing(ac, p).tolist()
    assert ac.facet_coface_counts().tolist() == old_facet_coface_counts(ac).tolist()


def polynomial_forms(d, n):
    """A cubic p-form in R^d for every p <= n, with distinct components."""
    forms = []
    for p in range(n + 1):
        width = num_components(d, p)
        forms.append(
            FormField(
                degree=p,
                evaluate=lambda t, x, width=width: np.array(
                    [(1.0 + x[i % len(x)]) ** 2 * (x[0] - 0.5 * i) for i in range(width)]
                ),
            )
        )
    return forms


def test_de_rham_map_matches(mesh):
    gc, ac = mesh
    n, d = ac.complex_dim, gc.embed_dim
    rng = np.random.default_rng(17)
    forms = polynomial_forms(d, n)
    if d in (2, 3):
        forms += [f for _name, form, dform in standard_test_forms(d) for f in (form, dform)]
    for p in range(n + 1):
        c = Cochain(ac, p, rng.standard_normal(ac.num_simplices(p)))
        forms.append(whitney_interpolate(gc, c))
    for form in forms:
        p = form.degree
        if p > n:
            continue
        rule = simplex_rule(p, 5)
        assert_integrals_close(
            de_rham_map(gc, ac, form, p, rule).values, old_de_rham_map(gc, ac, form, p, rule)
        )


def test_cup_product_matches(mesh):
    gc, ac = mesh
    n = ac.complex_dim
    rng = np.random.default_rng(19)
    for p in range(n + 1):
        for q in range(n + 1 - p):
            a = Cochain(ac, p, rng.standard_normal(ac.num_simplices(p)))
            b = Cochain(ac, q, rng.standard_normal(ac.num_simplices(q)))
            assert_integrals_close(cup_product(gc, a, b).values, old_cup_product(gc, a, b))


# Callables that read the same on one point (d,) and on a batch (d, m).
CUBIC = ManufacturedSolution(
    u=lambda x: np.sum(x, axis=0) ** 3,
    source=lambda x: np.sin(x[0]) * np.cos(x[-1]) + 2.0,
    gradient=lambda x: 3.0 * np.sum(x, axis=0) ** 2 * np.ones_like(x),
)


def test_l2_and_energy_error_matches(mesh):
    gc, ac = mesh
    values = np.random.default_rng(23).standard_normal(ac.num_simplices(0))
    assert_integrals_close(
        l2_and_energy_error(gc, ac, values, CUBIC),
        old_l2_and_energy_error(gc, ac, values, CUBIC),
    )


def test_whitney_interpolate_matches_per_point_closure(mesh):
    gc, ac = mesh
    n = ac.complex_dim
    rng = np.random.default_rng(31)
    coords = gc.vertices[ac.simplex_arrays[n]]
    for p in range(n + 1):
        c = Cochain(ac, p, rng.standard_normal(ac.num_simplices(p)))
        field = whitney_interpolate(gc, c)
        tops = rng.integers(0, len(coords), size=200)
        lam = rng.exponential(size=(200, n + 1))
        lam /= lam.sum(axis=1, keepdims=True)
        points = np.einsum("mk,mkd->md", lam, coords[tops])
        old = np.array([old_whitney_evaluate(gc, c, t, x) for t, x in zip(tops.tolist(), points)])
        assert_integrals_close(field.evaluate(tops, points.T), old.T)
        for t, x, value in list(zip(tops.tolist(), points, old))[:5]:
            assert_integrals_close(field.evaluate(t, x), value)


@pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
def test_assemble_poisson_matches(mesh, kind):
    gc, ac = mesh
    try:
        old = old_assemble_poisson(gc, ac, kind, CUBIC.source, CUBIC.u)
    except MeshValidationError as exc:
        with pytest.raises(MeshValidationError, match=str(exc)):
            assemble_poisson(gc, ac, kind, CUBIC.source, CUBIC.u)
        return
    system = assemble_poisson(gc, ac, kind, CUBIC.source, CUBIC.u)
    assert_integrals_close(system.matrix.toarray(), old[0].toarray())
    assert_integrals_close(system.rhs, old[1])
    assert [i for i, _ in system.constrained] == [i for i, _ in old[2]]
    assert_integrals_close([v for _, v in system.constrained], [v for _, v in old[2]])


# Poisson is assembled top by top, D^T M1_T D with the constant local
# coboundary D; ``old_assemble_poisson`` is the global route d0^T M1 d0
# through ``matrices_for`` with the projected elimination.
@pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
@pytest.mark.parametrize("name", ["triangle", "square", "disk", "annulus", "kuhn_cube"])
def test_top_by_top_poisson_matches_the_global_route(fixture_set, name, kind):
    gc = kuhn_cube(2) if name == "kuhn_cube" else fixture_set[name]
    ac = abstr(gc)
    system = assemble_poisson(gc, ac, kind, CUBIC.source, CUBIC.u)
    matrix, rhs, _ = old_assemble_poisson(gc, ac, kind, CUBIC.source, CUBIC.u)
    assert abs(system.matrix - matrix).max() <= 1e-15 * abs(matrix).max()
    assert np.abs(system.rhs - rhs).max() <= 1e-15 * np.abs(rhs).max()
    assert (system.matrix.data != 0).all()


@pytest.mark.parametrize("kind", ["galerkin", "diagonal"])
def test_top_by_top_poisson_keeps_the_sparsity_pattern(kind):
    """The Galerkin stiffness of the right-angled split_square levels has
    exact zeros, which both routes drop."""
    gc = split_square()
    for _ in range(4):
        gc = uniform_refine(gc)
        ac = abstr(gc)
        new = assemble_poisson(gc, ac, kind, CUBIC.source, CUBIC.u).matrix
        old = old_assemble_poisson(gc, ac, kind, CUBIC.source, CUBIC.u)[0]
        assert np.array_equal(new.indptr, old.indptr)
        assert np.array_equal(new.indices, old.indices)


@pytest.mark.parametrize("name", ["disk", "annulus", "torus", "delaunay", "two_tets", "kuhn_cube"])
def test_summed_diagonal_blocks_are_dual_over_primal(fixture_set, name):
    builders = {"delaunay": lambda: random_delaunay_mesh(3), "two_tets": two_tets}
    builders["kuhn_cube"] = lambda: kuhn_cube(2)
    gc = builders[name]() if name in builders else fixture_set[name]
    ac = abstr(gc)
    n = ac.complex_dim
    dual = barycentric_dual_volumes(gc, ac)
    for p in range(n + 1):
        primal = np.array([old_unsigned_volume(gc, s) for s in ac.simplex_arrays[p].tolist()])
        expected = (1.0 if p == n else dual[p]) / primal
        new = diagonal_hodge(gc, ac, p).diagonal()
        assert (np.abs(new - expected) <= 1e-15 * expected).all()


# Written for one point: on a batch they give a scalar or a constant vector,
# which broadcasting would spread silently over every point.
PER_POINT_ONLY = {
    "sum": lambda x: float(np.sum(x)),
    "constant": lambda x: 1.0,
    "covector": lambda x: np.array([1.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(PER_POINT_ONLY))
def test_per_point_callables_rejected(name):
    # 8 triangles, 9 vertices, 8 boundary vertices and 16 edges: no batch
    # has the length of the covector, so its shape cannot pass by accident.
    gc = uniform_refine(split_square())
    ac = abstr(gc)
    fn = PER_POINT_ONLY[name]
    for p in (0, 1):
        with pytest.raises(ValueError, match="on a batch of points"):
            de_rham_map(gc, ac, analytic_form(p, fn), p)
    values = np.zeros(ac.num_simplices(0))
    for solution in (
        ManufacturedSolution(u=fn, source=CUBIC.source, gradient=CUBIC.gradient),
        ManufacturedSolution(u=CUBIC.u, source=CUBIC.source, gradient=fn),
    ):
        with pytest.raises(ValueError, match="on a batch of points"):
            l2_and_energy_error(gc, ac, values, solution)
    for source, dirichlet in ((fn, CUBIC.u), (CUBIC.source, fn)):
        with pytest.raises(ValueError, match="on a batch of points"):
            assemble_poisson(gc, ac, "galerkin", source, dirichlet)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_wedge_equals_row_by_row_bitwise(d):
    rng = np.random.default_rng(29)
    for p in range(d + 1):
        for q in range(d + 1 - p):
            a = rng.standard_normal((5, 3, num_components(d, p)))
            b = rng.standard_normal((5, 3, num_components(d, q)))
            rows = np.array(
                [[old_wedge(a[i, k], p, b[i, k], q, d) for k in range(3)] for i in range(5)]
            )
            np.testing.assert_array_equal(wedge(a, p, b, q, d), rows)
            np.testing.assert_array_equal(wedge(a[2, 1], p, b[2, 1], q, d), rows[2, 1])
            # Leading axes broadcast: (5, 1) against (3,) gives (5, 3).
            pairs = [[old_wedge(a[i, 0], p, b[0, k], q, d) for k in range(3)] for i in range(5)]
            np.testing.assert_array_equal(wedge(a[:, :1], p, b[0], q, d), np.array(pairs))


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.0]]


@pytest.mark.parametrize(
    "tops",
    [
        # Two faults in two simplices: the lower simplex's fault is reported.
        [[0, 1, 2], [0, 1, 4], [0, 2, 9]],  # degenerate volume before out of range
        [[0, 1, 2], [0, 9, 3], [0, 2, 2]],  # out of range before repeated vertex
        [[0, 1, 2], [2, 1, 0], [0, 1, 4]],  # duplicate before degenerate volume
        [[0, 1, 4], [0, 1, 2], [1, 2, 0]],  # degenerate volume before duplicate
        [[0, 2, 3], [0, 3, 3], [3, 0, 2]],  # repeated vertex before duplicate
        # Within one simplex the checks keep their order.
        [[0, 1, 2], [0, 0, 9]],  # out of range before repeated vertex
        [[1, 2, 3], [0, 1, 2], [3, 2, 1], [2, 1, 3]],  # first duplicate named
        [[0, 1, 2], [0, 2, 3]],  # valid
    ],
)
def test_validation_reports_the_lowest_faulty_simplex(tops):
    vertices = np.array(SQUARE)
    expected = old_validate(vertices, np.array(tops))
    if isinstance(expected, str):
        with pytest.raises(MeshValidationError) as info:
            GeometricComplex(vertices, tops)
        assert str(info.value) == expected
    else:
        np.testing.assert_array_equal(GeometricComplex(vertices, tops).top_volumes, expected)


def test_validation_names_non_finite_volume_before_later_faults():
    vertices = np.array(
        [[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308], [0.0, 1.0], [1.0, 1.0], [0.0, 2.0]]
    )
    tops = np.array([[3, 4, 5], [0, 1, 2], [3, 4, 4]])
    with np.errstate(all="ignore"):
        expected = old_validate(vertices, tops)
        with pytest.raises(MeshValidationError) as info:
            GeometricComplex(vertices, tops)
    assert str(info.value) == expected == "non-finite volume of simplex 1"
