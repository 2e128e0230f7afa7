"""Model Poisson solves, uniform refinement and convergence studies.

The 0-form Dirichlet problem is coboundary^T * (degree-1 Hodge) *
coboundary, with the load vector equal to the degree-0 Hodge applied to
the integrated source.  It is assembled top by top, by naturality:
restricting to the closure of a top simplex T commutes with d, and in the
canonical vertex order the coboundary restricted there is one constant
+-1 table D.  So the stiffness is the sum of the local blocks
D^T M1_T D of the local Hodge blocks M1_T (``elements._local_products``),
scattered once (``elements._scatter``), and no global Hodge matrix or
boundary matrix is built.  With the Whitney mass this is exactly the
piecewise-linear Galerkin stiffness system; an independent
cotangent-formula assembly of the same stiffness is provided for
cross-checking (``verify`` compares it with the global route d0^T M1 d0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import AbstractComplex, GeometricComplex, MeshValidationError, abstr
from .quadrature import simplex_rule
from .whitney import _batch_values, mesh_geometry
from .elements import _block_apply, _local_hodges, _local_products, _scatter

__all__ = [
    "LinearSystem",
    "SolverError",
    "ManufacturedSolution",
    "ConvergenceLevel",
    "ConvergenceReport",
    "sin_sin_solution",
    "affine_solution",
    "boundary_vertex_ids",
    "assemble_poisson",
    "cg_solve",
    "uniform_refine",
    "cotangent_stiffness",
    "l2_and_energy_error",
    "convergence_study",
]


class SolverError(RuntimeError):
    """Iterative solve did not reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Symmetric system with Dirichlet rows already eliminated symmetrically."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    constrained: list


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution with matching source and gradient.

    Each takes points coordinate-first, one (d,) or a batch (d, m), and
    returns shape (...) (``u``, ``source``) or (d, ...) (``gradient``).
    """

    u: object
    source: object
    gradient: object


def sin_sin_solution() -> ManufacturedSolution:
    pi = math.pi
    return ManufacturedSolution(
        u=lambda x: np.sin(pi * x[0]) * np.sin(pi * x[1]),
        source=lambda x: 2 * pi**2 * np.sin(pi * x[0]) * np.sin(pi * x[1]),
        gradient=lambda x: np.array(
            [
                pi * np.cos(pi * x[0]) * np.sin(pi * x[1]),
                pi * np.sin(pi * x[0]) * np.cos(pi * x[1]),
            ]
        ),
    )


def affine_solution(a: float = 1.0, b: float = 0.0, c: float = 0.0) -> ManufacturedSolution:
    return ManufacturedSolution(
        u=lambda x: a * x[0] + b * x[1] + c,
        source=lambda x: 0 * x[0],
        gradient=lambda x: np.array([a + 0 * x[0], b + 0 * x[0]]),
    )


def boundary_vertex_ids(ac: AbstractComplex) -> list:
    """Vertices lying on some facet with exactly one top coface."""
    facets = ac.simplex_arrays[ac.complex_dim - 1][ac.facet_coface_counts() == 1]
    return np.unique(facets).tolist()


def assemble_poisson(
    gc: GeometricComplex,
    ac: AbstractComplex,
    hodge_kind: str,
    source,
    dirichlet,
) -> LinearSystem:
    """Dirichlet Poisson system on 0-cochains.

    ``source`` (integrated to its vertex values) and ``dirichlet`` are
    coordinate functions called once on all vertices they need; the boundary
    data is imposed at every boundary vertex by symmetric row/column
    elimination, which keeps the reduced matrix symmetric positive definite.
    Each top simplex T contributes the stiffness block D^T M1_T D and the
    load M0_T f_T - D^T M1_T D g_T from its local Hodge blocks, with g the
    boundary data; the blocks lose the rows and columns of boundary
    vertices and are scattered once, with a unit diagonal on those vertices.
    """
    boundary_ids = boundary_vertex_ids(ac)
    if not boundary_ids:
        raise MeshValidationError("mesh has no boundary; Dirichlet problem is not posed")
    mass0, mass1 = (_local_hodges(gc, ac, hodge_kind, p) for p in (0, 1))
    stiffness = next(_local_products(mass1, ac.complex_dim, 0))  # D^T M1_T D alone
    size = ac.num_simplices(0)
    x = gc.vertices[ac.simplex_arrays[0][:, 0]].T  # canonical vertices, coordinate-first
    f = _batch_values(source(x), (size,), "source")
    rank = np.zeros(gc.num_vertices, dtype=np.int64)  # canonical index of each used vertex id
    rank[ac.simplex_arrays[0][:, 0]] = np.arange(size)
    fixed = rank[boundary_ids]
    values = _batch_values(dirichlet(x[:, fixed]), fixed.shape, "dirichlet")
    constrained = list(zip(fixed.tolist(), values.tolist()))
    lifted = np.zeros(size)
    lifted[fixed] = values
    verts = ac.top_faces(0)
    load = _block_apply(mass0, f[verts]) - _block_apply(stiffness, lifted[verts])
    rhs = np.bincount(verts.ravel(), load.ravel(), size)
    rhs[fixed] = values
    free = np.ones(size)
    free[fixed] = 0.0
    free = free[verts]
    stiffness *= free[:, :, None] * free[:, None, :]
    unit = (fixed[:, None], fixed[:, None], np.ones((len(fixed), 1)))  # a diagonal part
    matrix = _scatter([(verts, verts, stiffness), unit], (size, size))
    return LinearSystem(matrix=matrix, rhs=rhs, constrained=constrained)


def cg_solve(system: LinearSystem, tol: float = 1e-10, max_iter: int | None = None) -> np.ndarray:
    """Plain conjugate gradients with a fixed iteration order.

    Returns the solution vector (constrained entries included).  Raises
    SolverError, reporting the achieved relative residual, when max_iter is
    exhausted, and ValueError for a negative or non-finite tolerance.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"CG tolerance must be finite and non-negative, got {tol}")
    a = system.matrix
    b = system.rhs
    n = b.shape[0]
    if max_iter is None:
        max_iter = 20 * n + 100
    x = np.zeros(n)
    r = b - a @ x
    target = tol * float(np.linalg.norm(b))
    if float(np.linalg.norm(r)) <= target:
        return x
    d = r.copy()
    rr = float(r @ r)
    for _ in range(max_iter):
        ad = a @ d
        alpha = rr / float(d @ ad)
        x = x + alpha * d
        r = r - alpha * ad
        rr_next = float(r @ r)
        if math.sqrt(rr_next) <= target:
            return x
        d = r + (rr_next / rr) * d
        rr = rr_next
    achieved = math.sqrt(rr) / (float(np.linalg.norm(b)) or 1.0)
    raise SolverError(
        f"conjugate gradients reached {max_iter} iterations, relative residual {achieved:.3e}",
        residual=achieved,
    )


def uniform_refine(gc: GeometricComplex) -> GeometricComplex:
    """Split every triangle into four via edge midpoints (2-d complexes only)."""
    return _refine(gc, abstr(gc))


def _refine(gc: GeometricComplex, ac: AbstractComplex) -> GeometricComplex:
    """uniform_refine of gc, reading edges and faces from ac = abstr(gc):
    each given triangle's edges are its row ``ac._top_ids`` of the face table."""
    if gc.complex_dim != 2:
        raise MeshValidationError("uniform refinement implemented for 2-d complexes only")
    edges = ac.simplex_arrays[1]
    tris = gc.top_simplices
    midpoints = (gc.vertices[edges[:, 0]] + gc.vertices[edges[:, 1]]) / 2.0
    # New vertex m0 + e is the midpoint of edge e.  The face table lists the
    # edges of a triangle by the sorted position k of the vertex they omit,
    # in column 2 - k: the number of the edge's ends above that vertex.
    mid_ids = gc.num_vertices + ac.top_faces(1)[ac._top_ids]
    rows = np.arange(len(tris))

    def mid(u, v, w):  # midpoint of edge uv of the triangle with third vertex w
        return mid_ids[rows, (w < u).astype(np.int64) + (w < v)]

    a, b, c = tris.T
    mab, mbc, mca = mid(a, b, c), mid(b, c, a), mid(c, a, b)
    new_tris = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], axis=1)
    return GeometricComplex(np.vstack([gc.vertices, midpoints]), new_tris.reshape(-1, 3))


def cotangent_stiffness(gc: GeometricComplex) -> sp.csr_matrix:
    """Classical piecewise-linear stiffness via the cotangent formula.

    Independent of the Whitney assembly route: per triangle, the entry for
    an edge pair is minus half the cotangent of the opposite angle, in plain
    Python floats.  Works in any embedding dimension: |a x b|^2 is the sum
    of the squared 2 x 2 minors of the edge pair (a, b), which does not
    cancel on a needle the way |a|^2 |b|^2 - (a.b)^2 does (Kahan).
    """
    if gc.complex_dim != 2:
        raise MeshValidationError("cotangent stiffness requires a 2-d complex")
    m0 = gc.num_vertices
    vertices = gc.vertices.tolist()
    pairs = list(itertools.combinations(range(gc.embed_dim), 2))
    rows, cols, data = [], [], []
    for vids in gc.top_simplices.tolist():
        for k in range(3):
            c = vids[k]
            a, b = vids[(k + 1) % 3], vids[(k + 2) % 3]
            ea = [x - y for x, y in zip(vertices[a], vertices[c])]
            eb = [x - y for x, y in zip(vertices[b], vertices[c])]
            cross_sq = sum((ea[i] * eb[j] - ea[j] * eb[i]) ** 2 for i, j in pairs)
            w = 0.5 * sum(x * y for x, y in zip(ea, eb)) / math.sqrt(cross_sq)
            rows += [a, b, a, b]
            cols += [b, a, a, b]
            data += [-w, -w, w, w]
    full = sp.coo_matrix((data, (rows, cols)), shape=(m0, m0)).tocsr()
    order = np.unique(gc.top_simplices)  # the vertices in use: those of abstr(gc)
    return full[np.ix_(order, order)].tocsr()


def l2_and_energy_error(
    gc: GeometricComplex,
    ac: AbstractComplex,
    vertex_values: np.ndarray,
    solution: ManufacturedSolution,
) -> tuple:
    """L2 and gradient-seminorm errors of a vertex field (one value per
    canonical vertex) against a closed form, summed over all tops at once."""
    values = np.asarray(vertex_values, dtype=float)
    if values.shape != (ac.num_simplices(0),):
        raise ValueError(f"expected {ac.num_simplices(0)} vertex values, got shape {values.shape}")
    geo = mesh_geometry(gc, ac)
    rule = simplex_rule(ac.complex_dim, 5)
    top_values = values[ac.top_faces(0)]  # (m, n+1)
    coords = np.take(gc.vertices, ac.simplex_arrays[ac.complex_dim], axis=0)  # (m, n+1, d)
    grad_h = np.einsum("mk,mkd->md", top_values, geo.grads)
    l2 = 0.0
    energy = 0.0
    m, d = grad_h.shape
    # One call per quadrature point, each covering every top simplex.
    for w, bary in zip(rule.weights, rule.points):
        x = np.einsum("k,mkd->md", bary, coords).T
        diff = top_values @ bary - _batch_values(solution.u(x), (m,), "u")
        l2 += w * float(geo.vols @ (diff * diff))
        gdiff = grad_h - _batch_values(solution.gradient(x), (d, m), "gradient").T
        energy += w * float(geo.vols @ np.einsum("md,md->m", gdiff, gdiff))
    return math.sqrt(max(l2, 0.0)), math.sqrt(max(energy, 0.0))


@dataclass(frozen=True)
class ConvergenceLevel:
    h: float
    dofs: int
    l2_error: float
    energy_error: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level mesh size, dof count and errors, plus fitted rates.

    Rates are log ratios between consecutive levels; entries are None where
    an error sits at machine precision and the ratio is meaningless.
    """

    levels: list
    l2_rates: list
    energy_rates: list

    def format_table(self) -> str:
        header = f"{'h':>12} {'dofs':>8} {'L2 error':>14} {'energy error':>14} {'L2 rate':>8}"
        lines = [header]
        for i, lv in enumerate(self.levels):
            rate = self.l2_rates[i - 1] if i > 0 else None
            rate_s = f"{rate:8.3f}" if rate is not None else f"{'-':>8}"
            lines.append(
                f"{lv.h:12.6f} {lv.dofs:8d} {lv.l2_error:14.6e} {lv.energy_error:14.6e} {rate_s}"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _max_edge_length(gc: GeometricComplex, ac: AbstractComplex) -> float:
    edges = ac.simplex_arrays[1]
    diff = gc.vertices[edges[:, 1]] - gc.vertices[edges[:, 0]]
    # One dot product per edge, rounded as the 1-d np.linalg.norm rounds it.
    return math.sqrt(float((diff[:, None, :] @ diff[:, :, None]).max()))


def _rates(errors: list, hs: list) -> list:
    out = []
    for k in range(1, len(errors)):
        if errors[k - 1] < 1e-13 or errors[k] < 1e-13:
            out.append(None)
        else:
            out.append(math.log(errors[k - 1] / errors[k]) / math.log(hs[k - 1] / hs[k]))
    return out


def convergence_study(
    gc: GeometricComplex,
    levels: int,
    solution: ManufacturedSolution,
    hodge_kind: str = "galerkin",
    tol: float = 1e-10,
) -> ConvergenceReport:
    """Solve the manufactured Dirichlet problem on successive uniform
    refinements and report L2/energy errors with fitted rates."""
    if levels < 3:
        raise ValueError("a convergence study needs at least 3 levels")
    report_levels = []
    mesh, ac = gc, abstr(gc)
    for _ in range(levels):
        mesh = _refine(mesh, ac)
        ac = abstr(mesh)
        system = assemble_poisson(mesh, ac, hodge_kind, solution.source, solution.u)
        values = cg_solve(system, tol=tol)
        l2, energy = l2_and_energy_error(mesh, ac, values, solution)
        report_levels.append(
            ConvergenceLevel(
                h=_max_edge_length(mesh, ac),
                dofs=len(values),
                l2_error=l2,
                energy_error=energy,
            )
        )
    hs = [lv.h for lv in report_levels]
    return ConvergenceReport(
        levels=report_levels,
        l2_rates=_rates([lv.l2_error for lv in report_levels], hs),
        energy_rates=_rates([lv.energy_error for lv in report_levels], hs),
    )
