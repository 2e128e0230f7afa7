"""Discrete Hodge operators and the machinery built on them.

Two realizations are provided: the mass matrix of the Whitney-form inner
product (symmetric positive definite, non-local inverse) and the diagonal
dual-volume operator of cochain methods (cheap, low accuracy on barycentric
duals).  Both feed the weak codifferential and the harmonic-cochain
solver, whose dimensions reproduce the Betti numbers.
Their local blocks, one per top simplex, come from ``elements``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chains import matrices_for
from .elements import _local_hodges, _local_operators, _scatter
from .mesh import AbstractComplex, GeometricComplex
from .whitney import Cochain

__all__ = [
    "HarmonicBasis",
    "galerkin_mass_matrix",
    "diagonal_hodge",
    "build_hodges",
    "codifferential",
    "harmonic_basis",
    "harmonic_bases",
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


@dataclass(frozen=True, eq=False)
class HarmonicBasis:
    """Cochains spanning ker(d) meet ker(weak codifferential) at one degree.

    The vectors are orthonormal in the Hodge inner product M of their
    degree.  Any such basis spans the same space; the one returned depends
    on the seeded start of ``harmonic_bases``.
    """

    degree: int
    vectors: list

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _hodge_matrix(gc: GeometricComplex, ac: AbstractComplex, p: int, kind: str) -> sp.csr_matrix:
    """The degree-p Hodge matrix of ``kind``: the local blocks of
    ``elements._local_hodges`` summed over the top simplices."""
    if not 0 <= p <= ac.complex_dim:
        raise ValueError(f"degree {p} outside 0..{ac.complex_dim}")
    blocks = _local_hodges(gc, ac, kind, p)
    ids = ac.top_faces(p)
    return _scatter([(ids, ids, blocks)], (ac.num_simplices(p),) * 2)


def galerkin_mass_matrix(gc: GeometricComplex, ac: AbstractComplex, p: int) -> sp.csr_matrix:
    """Mass matrix of Whitney p-forms under the pointwise Euclidean product.

    Entry (sigma, tau) sums exact integrals of the product of the two basis
    forms over the top simplices containing both.
    """
    return _hodge_matrix(gc, ac, p, "galerkin")


def diagonal_hodge(gc: GeometricComplex, ac: AbstractComplex, p: int) -> sp.csr_matrix:
    """Dual-volume over primal-volume diagonal operator; barycentric dual
    cells supply the dual measures."""
    return _hodge_matrix(gc, ac, p, "diagonal")


def build_hodges(gc: GeometricComplex, ac: AbstractComplex, kind: str = "galerkin") -> dict:
    """One Hodge CSR matrix per degree 0..n, keyed by degree."""
    return {p: _hodge_matrix(gc, ac, p, kind) for p in range(ac.complex_dim + 1)}


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


def _shifted_system(gc: GeometricComplex, ac: AbstractComplex, kind: str):
    """The Hodge matrix M of every degree, the shift S of every cell and the
    system matrix [[-M_<n, C], [C^T, d^T M d + S M]] of ``harmonic_bases``.

    The entries of M, d^T M d and C per degree come from the local Hodge
    blocks of ``kind`` (``elements._local_operators``) and are scattered
    at once (``elements._scatter``); the shift and the system are read off
    the result.
    """
    n, counts = ac.complex_dim, ac.face_counts()
    off = np.cumsum([0] + counts)  # off[p]: global index of the first p-cell
    cells, inner = int(off[-1]), int(off[n])  # inner: the cells of degree < n

    # One tall matrix: the rows of M, then of d^T M d, then of C (degree < n).
    # The parts are a generator that alone holds the blocks, so they are
    # freed as soon as the scatter has read them.
    ops = _scatter(
        (
            (row_ids + base + off[p], col_ids + off[p + shift], blocks)
            for part, base, shift in zip(_local_operators(gc, ac, kind), (0, cells, 2 * cells), (0, 0, 1))
            for p, (row_ids, col_ids, blocks) in enumerate(part)
        ),
        (2 * cells + inner, cells),
    )
    row = np.repeat(np.arange(ops.shape[0], dtype=ops.indices.dtype), np.diff(ops.indptr))
    ends = ops.indptr[[0, cells, 2 * cells, -1]]
    (m_row, m_col, m_val), (l_row, l_col, l_val), (c_row, c_col, c_val) = (
        (row[a:b] - base, ops.indices[a:b], ops.data[a:b])
        for a, b, base in zip(ends[:-1], ends[1:], (0, cells, 2 * cells))
    )

    # Gershgorin bound of diag(M)^-1 (d^T M d + M d diag(M)^-1 d^T M) per degree.
    mass = sp.csr_matrix((m_val, m_col, ops.indptr[: cells + 1]), shape=(cells, cells))
    diag = mass.diagonal()
    c_abs = np.abs(c_val)
    c_sums = np.bincount(c_row, c_abs, cells) / diag
    row_bound = np.bincount(l_row, np.abs(l_val), cells)
    row_bound += np.bincount(c_col, c_abs * c_sums[c_row], cells)
    cell_shift = HARMONIC_SHIFT * np.repeat(np.maximum.reduceat(row_bound / diag, off[:-1]), counts)

    # Unknowns: a sign-flipped copy of every cell of degree < n, then every cell.
    low = m_row < inner
    rows = [m_row[low], c_row, inner + c_col, inner + l_row, inner + m_row]
    cols = [m_col[low], inner + c_col, c_row, inner + l_col, inner + m_col]
    vals = [-m_val[low], c_val, c_val, l_val, cell_shift[m_row] * m_val]
    size = inner + cells
    system = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    )
    return mass, cell_shift, system


def harmonic_bases(gc: GeometricComplex, ac: AbstractComplex, kind: str = "galerkin") -> dict:
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

    M, C and d^T M d are scattered at once from the local Hodge blocks of
    ``kind`` and the constant local coboundaries, with no global Hodge
    matrix or sparse product.
    """
    mass, cell_shift, system = _shifted_system(gc, ac, kind)
    (cells, _), (size, _) = mass.shape, system.shape
    inner = size - cells  # the cells of degree < n
    lu = _symmetric_lu(system)
    off = np.cumsum([0] + ac.face_counts())  # off[p]: global index of the first p-cell
    blocks = [slice(a, b) for a, b in zip(off[:-1], off[1:])]

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
            bases[p] = HarmonicBasis(p, [Cochain(ac, p, h) for h in vectors.T])
        if all(b.dimension < width for b in bases.values()):
            return bases
        width *= 2


def harmonic_basis(
    gc: GeometricComplex, ac: AbstractComplex, p: int, kind: str = "galerkin"
) -> HarmonicBasis:
    """The degree-p entry of ``harmonic_bases``."""
    if not 0 <= p <= ac.complex_dim:
        raise ValueError(f"degree {p} outside 0..{ac.complex_dim}")
    return harmonic_bases(gc, ac, kind)[p]


def matrix_to_coordinate_text(matrix) -> str:
    """Serialize a sparse/dense real matrix as 'rows cols nnz' plus entry lines."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    for k in order:
        lines.append(f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}")
    return "\n".join(lines) + "\n"
