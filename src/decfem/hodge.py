"""Discrete Hodge operators and the machinery built on them.

Two realizations are provided: the mass matrix of the Whitney-form inner
product (symmetric positive definite, non-local inverse) and the diagonal
dual-volume operator of cochain methods (cheap, low accuracy on barycentric
duals).  Both feed the weak codifferential, the Hodge Laplacian and the
harmonic-cochain solver, whose dimensions reproduce the Betti numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .batched import _determinants, _facet_rows, _local_faces, _minors, _simplex_volumes
from .chains import matrices_for
from .mesh import AbstractComplex, GeometricComplex, _dual_shares
from .whitney import Cochain, coboundary_apply, mesh_geometry

__all__ = [
    "HarmonicBasis",
    "galerkin_mass_matrix",
    "diagonal_hodge",
    "build_hodges",
    "codifferential",
    "harmonic_basis",
    "harmonic_bases",
    "hodge_laplacian_apply",
    "matrix_to_coordinate_text",
]

# Shift of each degree's mixed Laplacian relative to its Gershgorin bound,
# the seed and starting width of the random cochains, the relative M-Gram
# eigenvalue below which a first-step direction is dropped as roundoff, and
# the two sides of the harmonic gap (see ``harmonic_bases``).
HARMONIC_SHIFT = 1e-10
HARMONIC_SEED = 0
HARMONIC_COLUMNS = 4
HARMONIC_KEEP = 1e-10
HARMONIC_MIN = 0.5
NONHARMONIC_MAX = 1e-4
HODGE_PIVOT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HarmonicBasis:
    """Cochains spanning ker(d) meet ker(weak codifferential) at one degree.

    The vectors are orthonormal in the Hodge inner product M of their
    degree, and ``gram`` is their M-Gram matrix (the identity up to
    roundoff).  Any such basis spans the same space; the one returned
    depends on the seeded start of ``harmonic_bases``.
    """

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


@lru_cache(maxsize=None)
def _moment_table(n: int, p: int) -> sp.csr_matrix:
    """Sparse linear map from the p x p minors [a, b], a <= b (``np.triu_indices``
    order), of an n-simplex's gradient Gram matrix G to its local Whitney
    p-form mass [f, g] per unit volume.  Its CSR product runs on one thread:
    a dense BLAS product went multithreaded from about 32k tops and then ran
    up to 40x slower on a busy 2-core machine.

    The form of face f is p! sum_k (-1)^k lambda_{f_k} dlambda_{f - f_k};
    the product of dlambda_a and dlambda_b is G[a, b] (Cauchy-Binet), and
    lambda_i lambda_j averages (1 + delta_ij) / ((n+1)(n+2)) over the simplex.
    G is symmetric, so the [b, a] moment folds onto the [a, b] minor.
    """
    faces, omit = _local_faces(n, p), _facet_rows(n, p)
    f, k, g, l = np.ix_(*map(range, omit.shape * 2))
    table = np.zeros((math.comb(n + 1, p),) * 2 + (len(faces),) * 2)
    table[omit[f, k], omit[g, l], f, g] = (-1.0) ** (k + l) * (1 + (faces[f, k] == faces[g, l]))
    table *= math.factorial(p) ** 2 / ((n + 1) * (n + 2))
    a, b = np.triu_indices(len(table))
    folded = table[a, b] + table[b, a] * (a != b)[:, None, None]
    return sp.csr_matrix(folded.reshape(len(a), -1).T)


def _galerkin_blocks(gc: GeometricComplex, ac: AbstractComplex, p: int, material=None):
    """Local Whitney p-form mass of every top simplex, shape (num_top, k, k)
    with k = C(n+1, p+1), rows and columns in ``top_faces(p)`` order.

    The local mass is |T| times the p x p minors of the Gram matrix
    G = grad(lambda) A grad(lambda)^T through ``_moment_table``; the
    top-degree form is constant, so its mass is 1 / |T|, or det(A) / |T|
    when n = d.
    """
    n, d = ac.complex_dim, gc.embed_dim
    geo = mesh_geometry(gc, ac)
    m, k = len(geo.vols), math.comb(n + 1, p + 1)
    metric = None if material is None else _material_tensors(material, m, d)
    if p == 0:
        local = geo.vols[:, None] * (_moment_table(n, 0) @ np.ones(1))
    elif p == n and (metric is None or n == d):
        local = (1.0 if metric is None else _determinants(metric)) / geo.vols
    else:
        lifted = geo.grads if metric is None else geo.grads @ metric
        # A contiguous right operand makes the stacked product 3x faster.
        gram = lifted @ np.ascontiguousarray(geo.grads.transpose(0, 2, 1))
        faces = _local_faces(n, p - 1)
        a, b = np.triu_indices(len(faces))
        local = (_moment_table(n, p) @ _minors(gram, faces[a], faces[b]).T).T * geo.vols[:, None]
    return local.reshape(m, k, k)


def _diagonal_blocks(gc: GeometricComplex, ac: AbstractComplex, p: int) -> np.ndarray:
    """Local dual-volume over primal-volume Hodge of every top simplex, shape
    (num_top, k, k) like ``_galerkin_blocks``: diagonal, with the share of
    each local p-face's barycentric dual cell inside the top (``_dual_shares``)
    over the face's primal volume.

    The dual cell of a top simplex is a point with unit measure, and a
    primal 0-simplex likewise counts as unit measure.
    """
    n = ac.complex_dim
    primal = _simplex_volumes(gc.vertices[ac.simplex_arrays[p]])
    if p == n:
        diag = 1.0 / primal[:, None]
    else:
        diag = _dual_shares(gc, ac, p) / primal[ac.top_faces(p)]
    return diag[:, :, None] * np.eye(diag.shape[1])


def _local_hodges(gc: GeometricComplex, ac: AbstractComplex, kind: str, p: int) -> np.ndarray:
    """The local degree-p Hodge blocks of the given kind, shape (num_top, k, k)."""
    if kind == "galerkin":
        return _galerkin_blocks(gc, ac, p)
    if kind == "diagonal":
        return _diagonal_blocks(gc, ac, p)
    raise ValueError(f"unknown hodge kind {kind!r}")


def galerkin_mass_matrix(
    gc: GeometricComplex,
    ac: AbstractComplex,
    p: int,
    material=None,
) -> sp.csr_matrix:
    """Mass matrix of Whitney p-forms under the pointwise Euclidean product.

    Entry (sigma, tau) sums exact integrals of the product of the two basis
    forms over the top simplices containing both: the local blocks of
    ``_galerkin_blocks``, scattered.  ``material`` optionally supplies a
    symmetric positive d x d tensor per top simplex replacing the Euclidean
    product on 1-covectors (extended to degree p by Gram determinants).
    """
    if not 0 <= p <= ac.complex_dim:
        raise ValueError(f"degree {p} outside 0..{ac.complex_dim}")
    ids = ac.top_faces(p)
    nloc = ids.shape[1]
    rows = np.repeat(ids, nloc, axis=1).ravel()
    cols = np.tile(ids, nloc).ravel()
    size = ac.num_simplices(p)
    local = _galerkin_blocks(gc, ac, p, material)
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(size, size)).tocsr()


def diagonal_hodge(gc: GeometricComplex, ac: AbstractComplex, p: int) -> sp.csr_matrix:
    """Dual-volume over primal-volume diagonal operator.

    Barycentric dual cells supply the dual measures; the diagonal sums the
    local blocks of ``_diagonal_blocks`` over the top simplices.
    """
    if not 0 <= p <= ac.complex_dim:
        raise ValueError(f"degree {p} outside 0..{ac.complex_dim}")
    diag = np.diagonal(_diagonal_blocks(gc, ac, p), axis1=1, axis2=2)
    return sp.diags(np.bincount(ac.top_faces(p).ravel(), diag.ravel(), ac.num_simplices(p))).tocsr()


def build_hodges(gc: GeometricComplex, ac: AbstractComplex, kind: str = "galerkin") -> dict:
    """One Hodge CSR matrix per degree 0..n, keyed by degree."""
    builders = {"galerkin": galerkin_mass_matrix, "diagonal": diagonal_hodge}
    if kind not in builders:
        raise ValueError(f"unknown hodge kind {kind!r}")
    return {p: builders[kind](gc, ac, p) for p in range(ac.complex_dim + 1)}


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


def _stack_csr(blocks, col_offsets, cells: int) -> sp.csr_matrix:
    """cells x cells CSR matrix whose leading rows are the blocks' rows in
    order, block i's columns shifted by ``col_offsets[i]``; rows past the
    last block are empty."""
    nnz = np.cumsum([0] + [b.nnz for b in blocks])
    indptr = np.full(cells + 1, nnz[-1])
    indptr[0] = 0
    stacked = np.concatenate([b.indptr[1:] + k for b, k in zip(blocks, nnz)])
    indptr[1 : len(stacked) + 1] = stacked
    indices = np.concatenate([b.indices + c for b, c in zip(blocks, col_offsets)])
    data = np.concatenate([b.data for b in blocks])
    return sp.csr_matrix((data, indices, indptr), shape=(cells, cells))


def _symmetric_lu(matrix):
    """SuperLU of a symmetric matrix in a symmetric fill-reducing order,
    taking every nonzero diagonal pivot: with no zero pivot there is no row
    interchange (``perm_r == perm_c``) and U's diagonal holds the D of an
    LDL^T factorisation."""
    return spla.splu(
        sp.csc_matrix(matrix),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _require_positive_definite(hodge, p: int):
    """Raise AssertionError unless the degree-p Hodge matrix M factors as
    LDL^T with every pivot above HODGE_PIVOT_TOL times the largest diagonal
    entry of M.

    A symmetric positive definite matrix factors so in any order, with
    pivots no smaller than its least eigenvalue; a singular or indefinite
    one cannot, up to roundoff.
    """
    try:
        lu = _symmetric_lu(hodge)
        floor = HODGE_PIVOT_TOL * hodge.diagonal().max()
        ok = np.array_equal(lu.perm_r, lu.perm_c) and bool((lu.U.diagonal() > floor).all())
    except RuntimeError:  # an exactly zero pivot
        ok = False
    if not ok:
        raise AssertionError(f"degree-{p} Hodge matrix is not positive definite")


def harmonic_bases(
    gc: GeometricComplex,
    ac: AbstractComplex,
    kind: str = "galerkin",
    hodges: dict | None = None,
) -> dict:
    """M-orthonormal bases of the harmonic cochains of every degree, keyed by degree.

    Harmonic means closed (d h = 0) and weakly coclosed (orthogonal to
    every coboundary in the Hodge inner product M), that is, in the kernel
    of the Hodge Laplacian L = d^T M d + M d M^-1 d^T M.  With M, d and the
    shift S block diagonal over the degrees and C the rows of degree < n of
    d^T M, one sparse LU factors [[-M_<n, C], [C^T, d^T M d + S M]].  It is
    a symmetric permutation of the block-diagonal matrix of every degree's

        [[-M_{p-1}, (M_p d_{p-1})^T], [M_p d_{p-1}, d_p^T M_{p+1} d_p + s_p M_p]],

    which is symmetric quasi-definite, so it factors stably in a symmetric
    fill-reducing order without pivoting.  Its solve with right side
    (0, M x) applies T = s_p (L + s_p M_p)^-1 M_p at every degree p, whose
    eigenvalue is exactly 1 on harmonic cochains and at most
    s_p / (lambda_min + s_p) on every other M-orthogonal direction.  The
    shift is HARMONIC_SHIFT times a Gershgorin bound of the degree's
    spectrum (with M replaced by its diagonal).  Seeded Gaussian cochains
    take one step of T; an M-orthonormal basis of the result takes a
    second; the eigenvalues of the M-Gram matrix of the second step are
    then at least HARMONIC_MIN on harmonic directions and at most
    NONHARMONIC_MAX on the rest.  The dimension is read from that two-sided
    gap, independently of integer homology, and an eigenvalue inside the
    gap raises ValueError naming the degree.  When every column comes
    out harmonic the column count doubles.
    """
    n = ac.complex_dim
    if hodges is None:
        hodges = build_hodges(gc, ac, kind)
    else:
        for p in range(n + 1):
            _require_positive_definite(hodges[p].tocsr(), p)
    counts = ac.face_counts()
    off = np.cumsum([0] + counts)  # off[p]: global index of the first p-cell
    cells, inner = int(off[-1]), int(off[n])  # inner: the cells of degree < n
    cm = matrices_for(ac)
    mass = _stack_csr([hodges[p].tocsr() for p in range(n + 1)], off[:-1], cells)
    bound = _stack_csr([cm.boundary_csr(p) for p in range(1, n + 1)], off[1:], cells)
    cob_mass = bound @ mass  # block (p, p+1): (M_{p+1} d_p)^T
    lap = cob_mass @ bound.T  # block (p, p): d_p^T M_{p+1} d_p

    # Gershgorin bound of diag(M)^-1 (d^T M d + M d diag(M)^-1 d^T M) per degree.
    diag = mass.diagonal()
    m, lp, c = mass.tocoo(), lap.tocoo(), cob_mass.tocoo()  # rows of c: degree < n
    c_abs = np.abs(c.data)
    c_sums = np.bincount(c.row, c_abs, cells) / diag
    row_bound = np.bincount(lp.row, np.abs(lp.data), cells)
    row_bound += np.bincount(c.col, c_abs * c_sums[c.row], cells)
    cell_shift = HARMONIC_SHIFT * np.repeat(np.maximum.reduceat(row_bound / diag, off[:-1]), counts)

    # Unknowns: a sign-flipped copy of every cell of degree < n, then every cell.
    low = m.row < inner
    rows = [m.row[low], c.row, inner + c.col, inner + lp.row, inner + m.row]
    cols = [m.col[low], inner + c.col, c.row, inner + lp.col, inner + m.col]
    vals = [-m.data[low], c.data, c.data, lp.data, cell_shift[m.row] * m.data]
    size = inner + cells
    system = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    )
    lu = _symmetric_lu(system)
    blocks = [slice(off[p], off[p + 1]) for p in range(n + 1)]

    def step(x):
        """T x for every degree at once, with the M-Gram matrix of each degree's block."""
        rhs = np.zeros((size, x.shape[1]))
        rhs[inner:] = mass @ x
        y = cell_shift[:, None] * lu.solve(rhs)[inner:]
        my = mass @ y
        return y, [y[b].T @ my[b] for b in blocks]

    rng = np.random.default_rng(HARMONIC_SEED)
    width = HARMONIC_COLUMNS
    while True:
        first, grams = step(rng.standard_normal((cells, width)))
        ortho = np.zeros_like(first)
        for b, gram in zip(blocks, grams):
            g, v = np.linalg.eigh(gram)
            keep = g > HARMONIC_KEEP * g[-1]
            ortho[b, : keep.sum()] = first[b] @ (v[:, keep] / np.sqrt(g[keep]))
        second, grams = step(ortho)
        bases = {}
        for p, (b, gram) in enumerate(zip(blocks, grams)):
            ritz, v = np.linalg.eigh(gram)
            if not ((ritz <= NONHARMONIC_MAX) | (ritz >= HARMONIC_MIN)).all():
                raise ValueError(
                    f"harmonic gap violated at degree {p}: M-Gram eigenvalues {ritz.tolist()}"
                )
            harmonic = ritz >= HARMONIC_MIN
            vectors = second[b] @ (v[:, harmonic] / np.sqrt(ritz[harmonic]))
            gram = vectors.T @ (hodges[p] @ vectors)
            bases[p] = HarmonicBasis(p, [Cochain(ac, p, h) for h in vectors.T], gram)
        if all(b.dimension < width for b in bases.values()):
            return bases
        width *= 2


def harmonic_basis(
    gc: GeometricComplex,
    ac: AbstractComplex,
    p: int,
    kind: str = "galerkin",
    hodges: dict | None = None,
) -> HarmonicBasis:
    """The degree-p entry of ``harmonic_bases``."""
    if not 0 <= p <= ac.complex_dim:
        raise ValueError(f"degree {p} outside 0..{ac.complex_dim}")
    return harmonic_bases(gc, ac, kind, hodges)[p]


def matrix_to_coordinate_text(matrix) -> str:
    """Serialize a sparse/dense real matrix as 'rows cols nnz' plus entry lines."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    for k in order:
        lines.append(f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}")
    return "\n".join(lines) + "\n"
