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
per permutation fragment) are the routes they replaced.  Volumes and
gradients of planar and solid simplices now come from the edge matrix E
(cofactors over det E) where the oracles solve with E E^T, whose condition
number is squared.  Where the library departs from an oracle by more than
its bound, an exact rational oracle must find it no farther from the exact
values than the oracle.
"""

import decimal
import functools
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
    boundary_vertex_ids,
    build_hodges,
    cup_product,
    de_rham_map,
    diagonal_hodge,
    galerkin_mass_matrix,
    l2_and_energy_error,
    standard_test_forms,
    whitney_interpolate,
)
from decfem.batched import (
    _determinants,
    _local_faces,
    _signed_volumes,
    _simplex_gradients,
    _simplex_volumes,
)
from decfem.chains import matrices_for
from decfem.exterior import _shuffle_table, index_combinations, wedge
from decfem.mesh import GeometricComplex, MeshValidationError
from decfem.meshes import split_square
from decfem.poisson import ManufacturedSolution, uniform_refine
from decfem.quadrature import simplex_rule
from decfem.whitney import Cochain, FormField, analytic_form, mesh_geometry

from conftest import FIXTURE_NAMES, exact_determinant, kuhn_cube, random_delaunay_mesh, two_tets

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
    wedges = np.zeros((len(tops), len(faces), p + 1, math.comb(d, p)))
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
    out = np.zeros(math.comb(d, p))
    for k in range(p + 1):
        rest = [pos[j] for j in range(p + 1) if j != k]
        w = grads[top_id, rest[0]].copy()
        for deg, idx in enumerate(rest[1:], start=1):
            w = wedge(w, deg, grads[top_id, idx], 1, d)
        out += ((-1) ** k) * math.factorial(p) * lam[pos[k]] * w
    return out


def old_galerkin(gc, ac, p):
    n = ac.complex_dim
    grads, vols, _ = old_top_geometry(gc, ac)
    globals_, wedges = old_wedge_tables(gc, ac, grads, p)
    faces = list(itertools.combinations(range(n + 1), p + 1))
    rule = simplex_rule(n, 2)
    lam_local = rule.points[:, np.array(faces)]
    rows, cols, data = [], [], []
    for t in range(len(vols)):
        basis = np.einsum("qfk,fkc->qfc", lam_local, wedges[t])
        local = np.einsum("qic,qjc,q->ij", basis, basis, rule.weights) * vols[t]
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
    out = np.zeros(math.comb(d, p + q))
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
# Float coordinates are exact rationals, and so are determinants, barycentric
# gradients (G^-1 E with G = E E^T), their wedges (minors of gradient rows)
# and every Whitney mass built from them: the Whitney p-form of face f is
# p! sum_k (-1)^k lambda_{f_k} dlambda_{f - f_k}, and lambda_i lambda_j
# averages (1 + delta_ij) / ((n+1)(n+2)) over the simplex.  Only the volume
# of a simplex in codimension (a dual fragment, an edge in the plane) needs
# a square root, taken to 50 digits, far below the rounding of a double.


def exact_sqrt(value):
    with decimal.localcontext() as context:
        context.prec = 50
        return Fraction((decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)).sqrt())


def exact_points(rows):
    return [[Fraction(v) for v in row] for row in np.asarray(rows, dtype=object).tolist()]


def exact_inverse(matrix):
    det = exact_determinant(matrix)
    k = len(matrix)

    def minor(i, j):
        return [row[:j] + row[j + 1:] for r, row in enumerate(matrix) if r != i]

    return [[(-1) ** (i + j) * exact_determinant(minor(j, i)) / det for j in range(k)] for i in range(k)]


def exact_simplex(points):
    """Unsigned volume and barycentric gradients (k+1 rows) of one k-simplex."""
    pts = exact_points(points)
    edges = [[a - b for a, b in zip(row, pts[0])] for row in pts[1:]]
    k, d = len(edges), len(pts[0])
    gram = [[sum(a * b for a, b in zip(u, v)) for v in edges] for u in edges]
    vol = abs(exact_determinant(edges)) if k == d else exact_sqrt(exact_determinant(gram))
    inverse = exact_inverse(gram)
    rest = [[sum(inverse[i][j] * edges[j][c] for j in range(k)) for c in range(d)] for i in range(k)]
    first = [-sum((row[c] for row in rest), Fraction(0)) for c in range(d)]
    return vol / math.factorial(k), [first] + rest


def exact_signed_volume(gc, simplex):
    pts = exact_points(gc.vertices[list(simplex)])
    n = len(pts) - 1
    if n != gc.embed_dim:
        return exact_simplex(pts)[0]
    return exact_determinant([[a - b for a, b in zip(row, pts[0])] for row in pts[1:]]) / math.factorial(n)


def exact_top_geometry(gc, ac):
    """(volume, gradients) of every canonical top simplex."""
    return [exact_simplex(gc.vertices[top]) for top in ac.simplex_arrays[ac.complex_dim].tolist()]


def exact_wedge(rows, d):
    """Components of the wedge of the covector rows: their minors, one per index combination."""
    return [exact_determinant([[row[c] for c in combo] for row in rows]) for combo in index_combinations(d, len(rows))]


def exact_signed_wedges(grads, face, d):
    """(-1)^k p! times the wedge of the gradients of ``face`` without its k-th vertex, per k."""
    p = len(face) - 1
    return [
        [(-1) ** k * math.factorial(p) * c for c in exact_wedge([grads[j] for j in face if j != face[k]], d)]
        for k in range(p + 1)
    ]


def exact_wedge_tables(gc, ac, p):
    n = ac.complex_dim
    faces = list(itertools.combinations(range(n + 1), p + 1))
    return [[exact_signed_wedges(grads, face, gc.embed_dim) for face in faces] for _, grads in exact_top_geometry(gc, ac)]


def exact_whitney_basis(grads, ac, sigma, top_id, lam, d):
    top = ac.simplex_arrays[ac.complex_dim][top_id].tolist()
    pos = [top.index(v) for v in sigma]
    wedges = exact_signed_wedges(grads, pos, d)
    lam = [Fraction(v) for v in np.asarray(lam, dtype=float).tolist()]
    return [sum(lam[pos[k]] * wedges[k][c] for k in range(len(pos))) for c in range(len(wedges[0]))]


def exact_galerkin(gc, ac, p):
    """The Whitney p-form mass matrix as a dense array of Fractions."""
    n, d = ac.complex_dim, gc.embed_dim
    faces = list(itertools.combinations(range(n + 1), p + 1))
    size = ac.num_simplices(p)
    out = np.full((size, size), Fraction(0), dtype=object)
    for t, (vol, grads) in enumerate(exact_top_geometry(gc, ac)):
        top = ac.simplex_arrays[n][t].tolist()
        ids = ac.simplex_ids([[top[k] for k in face] for face in faces]).tolist()
        wedges = [np.array(exact_signed_wedges(grads, face, d), dtype=object) for face in faces]
        for a, fa in enumerate(faces):
            for b, fb in enumerate(faces):
                inner = wedges[a] @ wedges[b].T  # (p+1, p+1)
                total = sum(
                    inner[k, l] * (1 + (fa[k] == fb[l]))
                    for k in range(p + 1)
                    for l in range(p + 1)
                )
                out[ids[a], ids[b]] += vol * total / ((n + 1) * (n + 2))
    return out


def exact_dual_volumes(gc, ac):
    """``old_dual_volumes`` over Fractions: one fragment per face and vertex order."""
    n = gc.complex_dim
    vols = [[Fraction(0)] * ac.num_simplices(p) for p in range(n + 1)]
    for t, top in enumerate(ac.simplex_arrays[n].tolist()):
        coords = exact_points(gc.vertices[top])

        def barycentre(members):
            return [sum(col) / len(members) for col in zip(*(coords[k] for k in members))]

        for p in range(n):
            for face_pos in itertools.combinations(range(n + 1), p + 1):
                rest = [k for k in range(n + 1) if k not in face_pos]
                idx = ac.simplex_ids([[top[k] for k in face_pos]])[0]
                for order in itertools.permutations(rest):
                    members = list(face_pos)
                    pts = [barycentre(members)]
                    for k in order:
                        members.append(k)
                        pts.append(barycentre(members))
                    vols[p][idx] += exact_simplex(pts)[0]
        vols[n][t] = exact_simplex(coords)[0]
    return vols


def exact_diagonal_hodge(gc, ac, p):
    n = ac.complex_dim
    dual = [Fraction(1)] * ac.num_simplices(p) if p == n else exact_dual_volumes(gc, ac)[p]
    return [
        share / (exact_simplex(gc.vertices[sigma])[0] if p else 1)
        for share, sigma in zip(dual, ac.simplex_arrays[p].tolist())
    ]


# -- the comparisons ----------------------------------------------------------


def assert_close(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    scale = np.abs(old).max() if old.size else 0.0
    assert np.abs(new - old).max(initial=0.0) <= REL_TOL * scale


def assert_nearer_exact(new, old, exact):
    """new no farther than old from the exact values ``exact()``, in the largest
    absolute difference."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    exact = np.asarray(exact(), dtype=object).ravel()
    assert exact.shape == new.ravel().shape

    def distance(values):
        return max(abs(Fraction(v) - e) for v, e in zip(values.ravel().tolist(), exact))

    assert distance(new) <= distance(old)


def assert_close_or_nearer_exact(new, old, exact):
    """``assert_close``, or, where new departs from old by more than that,
    ``assert_nearer_exact`` (``exact`` is called only then)."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    if np.abs(new - old).max(initial=0.0) > REL_TOL * np.abs(old).max(initial=0.0):
        assert_nearer_exact(new, old, exact)


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
    assert_close_or_nearer_exact(
        _signed_volumes(gc.vertices[gc.top_simplices])[0],
        [old_signed_volume(gc, s) for s in gc.top_simplices],
        lambda: [exact_signed_volume(gc, s) for s in gc.top_simplices],
    )
    for p in range(ac.complex_dim + 1):
        simplices = ac.simplex_arrays[p].tolist()
        assert_close_or_nearer_exact(
            _simplex_volumes(gc.vertices[ac.simplex_arrays[p]]),
            [old_unsigned_volume(gc, s) for s in simplices],
            lambda: [exact_simplex(gc.vertices[s])[0] for s in simplices],
        )


def test_gradients_match(mesh):
    gc, ac = mesh
    assert_close_or_nearer_exact(
        _simplex_gradients(gc.vertices[gc.top_simplices]),
        [old_affine_gradients(gc.vertices[s]) for s in gc.top_simplices],
        lambda: [exact_simplex(gc.vertices[s])[1] for s in gc.top_simplices],
    )
    geo = mesh_geometry(gc, ac)
    grads, vols, origin = old_top_geometry(gc, ac)
    exact = functools.cache(lambda: exact_top_geometry(gc, ac))
    assert_close_or_nearer_exact(geo.grads, grads, lambda: [g for _, g in exact()])
    assert_close_or_nearer_exact(geo.vols, vols, lambda: [v for v, _ in exact()])
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
        assert_close_or_nearer_exact(
            geo.signed_wedge_tables(p), wedges, lambda: exact_wedge_tables(gc, ac, p)
        )


def test_whitney_basis_matches(mesh):
    gc, ac = mesh
    n = ac.complex_dim
    rng = np.random.default_rng(3)
    grads, _, _ = old_top_geometry(gc, ac)
    exact = functools.cache(lambda: exact_top_geometry(gc, ac))
    geo = mesh_geometry(gc, ac)
    for top_id in range(0, ac.num_simplices(n), 3):
        top = ac.simplex_arrays[n][top_id].tolist()
        lam = rng.exponential(size=n + 1)
        lam /= lam.sum()
        for p in range(n + 1):
            # One value per local p-face, in ``itertools.combinations`` order.
            values = geo.whitney_values(p, top_id, lam)
            for sigma, value in zip(itertools.combinations(top, p + 1), values, strict=True):
                assert_close_or_nearer_exact(
                    value,
                    old_whitney_basis(grads, ac, sigma, top_id, lam, gc.embed_dim),
                    lambda: exact_whitney_basis(exact()[top_id][1], ac, sigma, top_id, lam, gc.embed_dim),
                )


def test_galerkin_matches(mesh):
    gc, ac = mesh
    n = ac.complex_dim
    for p in range(n + 1):
        assert_close_or_nearer_exact(
            galerkin_mass_matrix(gc, ac, p).toarray(),
            old_galerkin(gc, ac, p),
            lambda: exact_galerkin(gc, ac, p),
        )


def test_dual_volumes_and_diagonal_hodge_match(mesh):
    gc, ac = mesh
    dual = barycentric_dual_volumes(gc, ac)
    exact = functools.cache(lambda: exact_dual_volumes(gc, ac))
    for p, (new, old) in enumerate(zip(dual, old_dual_volumes(gc, ac))):
        assert_close_or_nearer_exact(new, old, lambda: exact()[p])
    for p in range(ac.complex_dim + 1):
        new = diagonal_hodge(gc, ac, p).diagonal()
        assert_close_or_nearer_exact(
            new, old_diagonal_hodge(gc, ac, p), lambda: exact_diagonal_hodge(gc, ac, p)
        )


def test_exact_oracle_on_the_unit_square():
    gc = split_square()
    ac = abstr(gc)
    assert [v for v, _ in exact_top_geometry(gc, ac)] == [Fraction(1, 2)] * 2
    assert exact_simplex([[0, 0], [1, 0], [0, 1]])[1] == [[-1, -1], [1, 0], [0, 1]]
    assert exact_simplex([[0, 0, 0], [3, 4, 0]]) == (5, [[Fraction(-3, 25), Fraction(-4, 25), 0], [Fraction(3, 25), Fraction(4, 25), 0]])
    assert sum(exact_dual_volumes(gc, ac)[0]) == 1
    # Every entry of the degree-0 mass of a triangle of area A is A (1 + delta) / 12.
    assert exact_galerkin(gc, ac, 0).sum() == 1
    # The two tets have volumes 1/6 and 1/3.
    assert exact_diagonal_hodge(two_tets(), abstr(two_tets()), 3) == [6, 3]


@pytest.mark.parametrize("k", range(5))
def test_simplex_kernels_against_exact_values_on_small_integers(k):
    """Small-integer simplices have exact edge, Gram and cofactor matrices in
    floating point.  Up to k = 3 every determinant is then exact, and where
    the simplex spans its space (k = d) its signed volume and gradient rows
    1..k are single divisions, so correctly rounded.  The 4-simplex in R^4
    takes LAPACK for its determinant and volume, and 3 x 3 cofactors over
    their first-row expansion for its gradients."""
    rng = np.random.default_rng(41 + k)
    ulp = np.finfo(float).eps
    closed = k <= 3
    for d in range(max(k, 1), max(k, 3) + 1):
        coords = rng.integers(-4, 5, size=(60, k + 1, d)).astype(float)
        edges = coords[:, 1:] - coords[:, :1]
        square = edges if k == d else edges @ edges.transpose(0, 2, 1)
        dets = np.array([float(exact_determinant(exact_points(m))) for m in square])
        if closed:
            np.testing.assert_array_equal(_determinants(square), dets)
        else:
            assert np.abs(_determinants(square) - dets).max() <= 1e-9
        coords, dets = coords[dets != 0], dets[dets != 0]
        exact = [exact_simplex(c) for c in coords]
        vols = np.array([float(v) for v, _ in exact])
        assert np.all(np.abs(_simplex_volumes(coords) - vols) <= (ulp * vols if closed else 1e-9))
        if k == d and closed:
            np.testing.assert_array_equal(_signed_volumes(coords)[0], dets / math.factorial(k))
        if k == 0:
            continue
        grads = _simplex_gradients(coords)
        expected = np.array([[[float(v) for v in row] for row in g] for _, g in exact])
        scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(grads - expected) <= 8 * ulp * scale)
        if k == d and closed:
            np.testing.assert_array_equal(grads[:, 1:], expected[:, 1:])


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
        width = math.comb(d, p)
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
        if not (np.abs(new - expected) <= 1e-15 * expected).all():
            assert_nearer_exact(new, expected, lambda: exact_diagonal_hodge(gc, ac, p))


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
            a = rng.standard_normal((5, 3, math.comb(d, p)))
            b = rng.standard_normal((5, 3, math.comb(d, q)))
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
