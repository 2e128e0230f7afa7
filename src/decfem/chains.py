"""Exact-integer boundary and coboundary operators of a simplicial complex.

Boundary columns follow the canonical ascending-vertex convention: the
column of a p-simplex (i0 < ... < ip) carries (-1)^k in the row of the face
omitting i_k.  Coboundaries are boundary transposes.  Operators are built
as int64 CSR matrices, exact for the checks since every entry is +-1;
``IntSparseMatrix`` (arbitrary-precision entries) serves Smith normal
forms and their transforms.  The complex property (boundary of boundary
vanishes) is machine-checked in integer arithmetic whenever a full
operator family is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .batched import _permutation_sign
from .mesh import AbstractComplex

__all__ = [
    "IntSparseMatrix",
    "ComplexMatrices",
    "ChainMapError",
    "complex_matrices",
    "matrices_for",
    "apply_chain_map_check",
]


class ChainMapError(ValueError):
    """A vertex map fails to send simplices to simplices."""


class IntSparseMatrix:
    """Sparse matrix over the integers with arbitrary-precision entries.

    Entries are stored as a dict (row, col) -> nonzero Python int, so
    products and reductions never overflow.  Two matrices compare by
    identity; equal matrices share ``rows``, ``cols`` and ``entries``.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.entries = {}
        for (r, c), v in (entries or {}).items():
            v = int(v)
            if v == 0:
                continue
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r}, {c}) outside {self.rows}x{self.cols}")
            self.entries[(r, c)] = v

    @property
    def nnz(self) -> int:
        """The count of stored nonzeros (``perfbench``'s tracer counts them)."""
        return len(self.entries)

    def __matmul__(self, other: "IntSparseMatrix") -> "IntSparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in integer matrix product")
        by_row: dict = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict = {}
        for (i, k), va in self.entries.items():
            for j, vb in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + va * vb
        return IntSparseMatrix(self.rows, other.cols, {k: v for k, v in acc.items() if v})

    def matvec(self, vec) -> list:
        """Exact integer matrix-vector product (int entries); ``perfbench`` checks cycles with it."""
        out = [0] * self.rows
        for (r, c), v in self.entries.items():
            out[r] += v * int(vec[c])
        return out

    def __repr__(self):
        return f"IntSparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _exact(mat: sp.csr_matrix) -> IntSparseMatrix:
    """An integer CSR matrix without explicit zeros as an IntSparseMatrix."""
    indptr = mat.indptr.tolist()
    rows = [r for r in range(mat.shape[0]) for _ in range(indptr[r], indptr[r + 1])]
    out = IntSparseMatrix(*mat.shape)
    out.entries = dict(zip(zip(rows, mat.indices.tolist()), mat.data.tolist()))
    return out


def _boundary_csr(ac: AbstractComplex, p: int) -> sp.csr_matrix:
    """The degree-p boundary as an int64 CSR matrix, read off ``ac.boundary_faces(p)``."""
    faces = ac.boundary_faces(p).ravel()  # entry j * (p+1) + k: face of simplex j omitting vertex k
    rows = ac.num_simplices(p - 1)
    order = np.argsort(faces, kind="stable")  # row by row, columns ascending
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(faces, minlength=rows), out=indptr[1:])
    signs = 1 - 2 * (order % (p + 1) % 2)  # (-1)^k
    return sp.csr_matrix((signs, order // (p + 1), indptr), shape=(rows, ac.num_simplices(p)))


@dataclass(eq=False)
class ComplexMatrices:
    """All boundary operators of one complex, with dd = 0 verified.

    ``boundary_csr(p)`` is the degree-p boundary as an int64 CSR matrix,
    the primary form; ``coboundary_csr(p)`` is the transpose of
    ``boundary_csr(p + 1)``, built once and shared, with read-only arrays.
    Integer data mixes with float vectors and matrices exactly, since every
    entry is +-1.  ``boundary`` holds the same boundaries as IntSparseMatrix
    objects keyed by degree, built from the CSR matrices on first access
    for the Smith normal form and ``perfbench``.  ``homology`` fills
    ``_reduction`` with the coreduced complex and the Betti numbers and
    torsion of every degree read off it.
    """

    complex_dim: int
    counts: list
    _boundary: dict = field(repr=False)
    _exact_views: dict = field(default=None, repr=False)
    _coboundaries: dict = field(default_factory=dict, repr=False)
    _reduction: object = field(default=None, repr=False)

    def boundary_csr(self, p: int) -> sp.csr_matrix:
        return self._boundary[p]

    def coboundary_csr(self, p: int) -> sp.csr_matrix:
        if p not in self._coboundaries:
            cob = self._boundary[p + 1].T.tocsr()
            for array in (cob.data, cob.indices, cob.indptr):
                array.setflags(write=False)
            self._coboundaries[p] = cob
        return self._coboundaries[p]

    @property
    def boundary(self) -> dict:
        if self._exact_views is None:
            self._exact_views = {p: _exact(b) for p, b in self._boundary.items()}
        return self._exact_views


def complex_matrices(ac: AbstractComplex) -> ComplexMatrices:
    """Build every boundary matrix and verify dd = 0 exactly."""
    n = ac.complex_dim
    boundary = {p: _boundary_csr(ac, p) for p in range(1, n + 1)}
    for p in range(1, n):
        # Exact in int64: each entry sums at most p + 2 products of +-1.
        if (boundary[p] @ boundary[p + 1]).data.any():
            raise AssertionError(f"boundary composition nonzero at degree {p}")
    return ComplexMatrices(n, ac.face_counts(), boundary)


def matrices_for(ac: AbstractComplex) -> ComplexMatrices:
    """complex_matrices, cached on the complex (``ac._matrices``)."""
    if ac._matrices is None:
        ac._matrices = complex_matrices(ac)
    return ac._matrices


def _induced_map(source: AbstractComplex, target: AbstractComplex, images, p: int) -> sp.csr_matrix:
    """The degree-p chain map of a vertex image table, as an int64 CSR matrix."""
    mapped = images[source.simplex_arrays[p]]
    ordered = np.sort(mapped, axis=1)
    # Simplices with a repeated image vertex map to zero.
    cols = np.flatnonzero((ordered[:, 1:] != ordered[:, :-1]).all(axis=1))
    rows = target.num_simplices(p) if p <= target.complex_dim else 0
    ids = target.simplex_ids(ordered[cols]) if rows else np.full(len(cols), -1)
    if (ids < 0).any():
        s = tuple(source.simplex_arrays[p][cols[np.argmax(ids < 0)]].tolist())
        raise ChainMapError(f"image of simplex {s} is not a simplex of the target")
    signs = np.broadcast_to(_permutation_sign(mapped[cols]), cols.shape)  # a scalar at p = 0
    return sp.csr_matrix((signs, (ids, cols)), shape=(rows, source.num_simplices(p)), dtype=np.int64)


def apply_chain_map_check(source: AbstractComplex, target: AbstractComplex, vertex_map) -> bool:
    """Check that the chain maps induced by a vertex map commute with boundaries.

    ``vertex_map`` (a sequence or a dict) maps vertex ids of the source
    complex to integer vertex ids of the target; simplices with repeated
    image vertices are sent to zero.  Returns True iff the induced maps
    satisfy f(boundary(c)) = boundary(f(c)) for every degree, in exact
    integer arithmetic.  Raises ChainMapError when a source vertex has no
    integer image or a non-degenerate image is not a target simplex.
    """
    fmap = vertex_map if isinstance(vertex_map, dict) else dict(enumerate(vertex_map))
    vertices = source.simplex_arrays[0][:, 0].tolist()
    images = np.zeros(max(vertices, default=-1) + 1, dtype=np.int64)  # images[v]: image of vertex v
    for v in vertices:
        if v not in fmap:
            raise ChainMapError(f"vertex {v} has no image")
        if isinstance(fmap[v], (bool, np.bool_)) or not isinstance(fmap[v], (int, np.integer)):
            raise ChainMapError(f"image {fmap[v]!r} of vertex {v} is not an integer")
        try:
            images[v] = fmap[v]
        except OverflowError:  # outside int64, so no vertex id of the target
            raise ChainMapError(f"image {fmap[v]} of vertex {v} is not a vertex of the target") from None
    n = source.complex_dim
    induced = [_induced_map(source, target, images, p) for p in range(n + 1)]
    src = matrices_for(source)
    tgt = matrices_for(target)
    for p in range(1, n + 1):
        # Exact in int64: each entry sums at most p + 1 products of +-1.
        diff = induced[p - 1] @ src.boundary_csr(p)
        if p <= target.complex_dim:
            diff = diff - tgt.boundary_csr(p) @ induced[p]
        if diff.count_nonzero():
            return False
    return True
