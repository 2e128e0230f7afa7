"""Discrete Hodge operators and the machinery built on them.

Two realizations are provided: the mass matrix of the Whitney-form inner
product (symmetric positive definite, non-local inverse) and the diagonal
dual-volume operator of cochain methods (cheap, low accuracy on barycentric
duals).  Both feed the weak codifferential, the Hodge Laplacian and the
harmonic-cochain solver, whose dimensions reproduce the Betti numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .batched import _local_faces, _simplex_volumes
from .chains import matrices_for
from .exterior import index_combinations
from .mesh import AbstractComplex, GeometricComplex, barycentric_dual_volumes
from .quadrature import simplex_rule
from .whitney import Cochain, coboundary_apply, mesh_geometry

__all__ = [
    "HarmonicBasis",
    "galerkin_mass_matrix",
    "diagonal_hodge",
    "build_hodges",
    "codifferential",
    "harmonic_basis",
    "hodge_laplacian_apply",
    "matrix_to_coordinate_text",
]

HARMONIC_RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class HarmonicBasis:
    """Cochains spanning ker(d) meet ker(weak codifferential) at one degree."""

    degree: int
    vectors: list
    gram: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _material_tensors(material, count: int, d: int) -> np.ndarray:
    """The d x d material tensor of every top simplex, shape (count, d, d)."""
    get = material if callable(material) else material.__getitem__
    tensors = [np.asarray(get(t), dtype=float) for t in range(count)]
    if any(g.shape != (d, d) for g in tensors):
        raise ValueError(f"material tensor must be {d}x{d}")
    return np.array(tensors)


def _induced_metric(g: np.ndarray, p: int) -> np.ndarray:
    """Gram-determinant extension of 1-covector metrics (m, d, d) to p-covectors."""
    combos = np.array(index_combinations(g.shape[-1], p), dtype=int)
    return np.linalg.det(g[:, combos[:, None, :, None], combos[None, :, None, :]])


def galerkin_mass_matrix(
    gc: GeometricComplex,
    ac: AbstractComplex,
    p: int,
    material=None,
) -> sp.csr_matrix:
    """Mass matrix of Whitney p-forms under the pointwise Euclidean product.

    Entry (sigma, tau) sums exact integrals of the product of the two basis
    forms over the top simplices containing both.  ``material`` optionally
    supplies a symmetric positive d x d tensor per top simplex replacing the
    Euclidean product on 1-covectors (extended to degree p by Gram
    determinants).
    """
    if not 0 <= p <= ac.complex_dim:
        raise ValueError(f"degree {p} outside 0..{ac.complex_dim}")
    n, d = ac.complex_dim, gc.embed_dim
    geo = mesh_geometry(gc, ac)
    wedges = geo.signed_wedge_tables(p)  # (m, nloc, p+1, ncomp)
    rule = simplex_rule(n, 2)
    lam = rule.points[:, _local_faces(n, p)]  # (nq, nloc, p+1)
    basis = np.einsum("qfk,tfkc->tqfc", lam, wedges)  # basis forms at the quadrature points
    if material is None:
        metric_basis = basis
    else:
        metric = _induced_metric(_material_tensors(material, len(wedges), d), p)
        metric_basis = np.einsum("tce,tqje->tqjc", metric, basis)
    local = np.einsum("tqic,tqjc,q->tij", basis, metric_basis, rule.weights)
    local *= geo.vols[:, None, None]
    ids = ac.top_faces(p)
    nloc = ids.shape[1]
    rows = np.repeat(ids, nloc, axis=1).ravel()
    cols = np.tile(ids, nloc).ravel()
    size = ac.num_simplices(p)
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(size, size)).tocsr()


def diagonal_hodge(gc: GeometricComplex, ac: AbstractComplex, p: int) -> sp.csr_matrix:
    """Dual-volume over primal-volume diagonal operator.

    Barycentric dual cells supply the dual measures; the dual cell of a top
    simplex is a point with unit measure, and primal 0-simplices likewise
    count as unit measure.
    """
    if not 0 <= p <= ac.complex_dim:
        raise ValueError(f"degree {p} outside 0..{ac.complex_dim}")
    return _diagonal_hodge(gc, ac, p, barycentric_dual_volumes(gc, ac))


def _diagonal_hodge(
    gc: GeometricComplex, ac: AbstractComplex, p: int, dv: tuple
) -> sp.csr_matrix:
    # A vertex has unit primal measure and a top simplex unit dual measure.
    primal = _simplex_volumes(gc.vertices[ac.simplex_arrays[p]])
    dual = 1.0 if p == ac.complex_dim else dv[p]
    return sp.diags(dual / primal).tocsr()


def build_hodges(gc: GeometricComplex, ac: AbstractComplex, kind: str = "galerkin") -> dict:
    """One Hodge CSR matrix per degree 0..n, keyed by degree."""
    return _hodges(gc, ac, kind, range(ac.complex_dim + 1))


def _hodges(gc: GeometricComplex, ac: AbstractComplex, kind: str, degrees) -> dict:
    """One Hodge CSR matrix of the given kind per listed degree."""
    if kind == "galerkin":
        return {p: galerkin_mass_matrix(gc, ac, p) for p in degrees}
    if kind == "diagonal":
        dv = barycentric_dual_volumes(gc, ac)
        return {p: _diagonal_hodge(gc, ac, p, dv) for p in degrees}
    raise ValueError(f"unknown hodge kind {kind!r}")


def codifferential(c: Cochain, hodges: dict) -> Cochain:
    """Weak codifferential: the adjoint of the coboundary in the Hodge inner
    products, realized by one symmetric solve per application."""
    p = c.degree
    if p < 1:
        raise ValueError("codifferential undefined on 0-cochains")
    cm = matrices_for(c.complex)
    boundary = cm.boundary_csr(p)  # transpose of the degree p-1 coboundary
    rhs = boundary @ (hodges[p] @ c.values)
    return Cochain(c.complex, p - 1, spla.spsolve(hodges[p - 1].tocsc(), rhs))


def hodge_laplacian_apply(c: Cochain, hodges: dict) -> Cochain:
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


def harmonic_basis(
    gc: GeometricComplex,
    ac: AbstractComplex,
    p: int,
    kind: str = "galerkin",
    hodges: dict | None = None,
) -> HarmonicBasis:
    """Orthonormal basis of the harmonic p-cochains.

    Harmonic means simultaneously closed (coboundary vanishes) and weakly
    coclosed (orthogonal to every coboundary in the degree-p inner product).
    The space is the nullspace of the two stacked conditions, revealed by a
    singular value decomposition with a relative rank cutoff; its dimension
    equals the degree-p Betti number.
    """
    if not 0 <= p <= ac.complex_dim:
        raise ValueError(f"degree {p} outside 0..{ac.complex_dim}")
    if hodges is None:
        hodges = build_hodges(gc, ac, kind)
    cm = matrices_for(ac)
    blocks = []
    if p < ac.complex_dim:
        blocks.append(cm.coboundary_csr(p).toarray())  # entries +-1: already unit scale
    if p > 0:
        co_block = (cm.boundary_csr(p) @ hodges[p]).toarray()
        scale = np.abs(co_block).max() or 1.0
        blocks.append(co_block / scale)
    size = ac.num_simplices(p)
    if not blocks:
        basis = np.eye(size)
    else:
        stacked = np.vstack(blocks)
        _, svals, vt = np.linalg.svd(stacked)
        cutoff = HARMONIC_RANK_TOL * (svals[0] if svals.size else 1.0)
        rank = int(np.sum(svals > cutoff))
        basis = vt[rank:]
    gram = basis @ (hodges[p] @ basis.T)
    if len(basis) and abs(np.linalg.det(gram)) < 1e-300:
        raise AssertionError("harmonic Gram matrix is singular")
    return HarmonicBasis(degree=p, vectors=[Cochain(ac, p, v) for v in basis], gram=gram)


def matrix_to_coordinate_text(matrix) -> str:
    """Serialize a sparse/dense real matrix as 'rows cols nnz' plus entry lines."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    for k in order:
        lines.append(f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}")
    return "\n".join(lines) + "\n"
