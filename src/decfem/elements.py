"""Element matrices: the local blocks, one per top simplex, whose sums
are the global operators of ``hodge`` and ``poisson``.

A global operator of finite element exterior calculus is the sum of its
local element matrices over the top simplices (Arnold, Falk & Winther).
Here they are the local Hodge blocks of both kinds, full or diagonal, rows
and columns in ``top_faces`` order, and the blocks D^T M and D^T M D that
the constant local coboundary D of each degree makes of them, by one
cached CSR map per degree and block format (``_product_maps``).  Every
global matrix is one ``_scatter`` of such blocks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .batched import (
    _facet_rows, _local_coboundary, _local_faces, _minors, _simplex_volumes
)
from .mesh import AbstractComplex, GeometricComplex, _dual_shares
from .whitney import mesh_geometry


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


def _galerkin_blocks(gc: GeometricComplex, ac: AbstractComplex, p: int) -> np.ndarray:
    """Local Whitney p-form mass of every top simplex, shape (num_top, k, k)
    with k = C(n+1, p+1), rows and columns in ``top_faces(p)`` order.

    The local mass is |T| times the p x p minors of the Gram matrix
    G = grad(lambda) grad(lambda)^T through ``_moment_table``; the
    top-degree form is constant, so its mass is 1 / |T|.
    """
    n = ac.complex_dim
    geo = mesh_geometry(gc, ac)
    m, k = len(geo.vols), math.comb(n + 1, p + 1)
    if p == 0:
        local = geo.vols[:, None] * (_moment_table(n, 0) @ np.ones(1))
    elif p == n:
        local = 1.0 / geo.vols
    else:
        # A contiguous right operand makes the stacked product 3x faster.
        gram = geo.grads @ np.ascontiguousarray(geo.grads.transpose(0, 2, 1))
        faces = _local_faces(n, p - 1)
        a, b = np.triu_indices(len(faces))
        local = (_moment_table(n, p) @ _minors(gram, faces[a], faces[b]).T).T * geo.vols[:, None]
    return local.reshape(m, k, k)


def _diagonal_blocks(gc: GeometricComplex, ac: AbstractComplex, p: int) -> np.ndarray:
    """Local dual-volume over primal-volume Hodge of every top simplex as its
    diagonal, shape (num_top, k) with k = C(n+1, p+1) in ``top_faces(p)``
    order: the share of each local p-face's barycentric dual cell inside the
    top (``_dual_shares``) over the face's primal volume.

    The dual cell of a top simplex is a point with unit measure, and a
    primal 0-simplex likewise counts as unit measure.
    """
    n = ac.complex_dim
    primal = _simplex_volumes(np.take(gc.vertices, ac.simplex_arrays[p], axis=0))
    if p == n:
        return 1.0 / primal[:, None]
    return _dual_shares(gc, ac, p) / primal[ac.top_faces(p)]


def _local_hodges(gc: GeometricComplex, ac: AbstractComplex, kind: str, p: int) -> np.ndarray:
    """The local degree-p Hodge blocks of the given kind: full (num_top, k, k)
    Galerkin blocks or (num_top, k) diagonals."""
    if kind == "galerkin":
        return _galerkin_blocks(gc, ac, p)
    if kind == "diagonal":
        return _diagonal_blocks(gc, ac, p)
    raise ValueError(f"unknown hodge kind {kind!r}")


@lru_cache(maxsize=None)
def _product_maps(n: int, p: int, diagonal: bool) -> tuple:
    """Sparse maps from a local degree-(p+1) Hodge block M of an n-simplex
    (flattened) or its diagonal, one per column, to D^T M D and D^T M with
    D = ``batched._local_coboundary(n, p)``; single-threaded CSR products."""
    cob = _local_coboundary(n, p)
    maps = np.kron(cob, cob).T, np.kron(cob.T, np.eye(len(cob)))
    return tuple(sp.csr_matrix(m[:, :: len(cob) + 1] if diagonal else m) for m in maps)


def _local_products(blocks: np.ndarray, n: int, p: int):
    """D^T M D (num_top, a, a), then D^T M (num_top, a, k), each made when read,
    of local degree-(p+1) Hodge blocks M, full (num_top, k, k) or diagonal (num_top, k)."""
    m, a = len(blocks), math.comb(n + 1, p + 1)
    flat = np.ascontiguousarray(blocks.reshape(m, -1).T)
    return ((table @ flat).T.reshape(m, a, -1) for table in _product_maps(n, p, blocks.ndim == 2))


def _block_apply(blocks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """M_T x_T for every top T, by full blocks (num_top, k, k) or diagonal ones (num_top, k)."""
    return blocks * values if blocks.ndim == 2 else np.einsum("mij,mj->mi", blocks, values)


def _local_operators(gc: GeometricComplex, ac: AbstractComplex, kind: str):
    """M_p, d_p^T M_{p+1} d_p and C_p = d_p^T M_{p+1} per degree as parts of
    ``_scatter``, in degree-local ids.  Restricted to a top's closure, d_p
    is the constant local coboundary D_p, so the blocks of C_p and of
    d_p^T M_{p+1} d_p are the ``_local_products`` of the local Hodge blocks.
    """
    n = ac.complex_dim
    mass = [_local_hodges(gc, ac, kind, p) for p in range(n + 1)]
    ids = [ac.top_faces(p) for p in range(n + 1)]
    lap, cob_mass = zip(*(_local_products(mass[p + 1], n, p) for p in range(n)))
    return [
        [(ids[p], ids[p + shift], blocks) for p, blocks in enumerate(part)]
        for part, shift in ((mass, 0), (lap, 0), (cob_mass, 1))
    ]


def _scatter(parts, shape: tuple) -> sp.csr_matrix:
    """The sum of parts (row ids (m, a), column ids (m, b), blocks) as one
    CSR matrix.  Full blocks (m, a, b) put entry [t, i, j] at (rows[t, i],
    cols[t, j]), diagonal ones (m, a) entry [t, i] at (rows[t, i], cols[t, i]).
    Exact zeros (a masked Dirichlet row) are dropped before the sum: a
    factorisation would treat them as nonzeros and fill in around them."""
    placed = []
    for rows, cols, blocks in parts:
        ids = (rows[:, :, None], cols[:, None, :]) if blocks.ndim == 3 else (rows, cols)
        placed.append([np.broadcast_to(i, blocks.shape) for i in ids] + [blocks, blocks != 0])
    del rows, cols, blocks
    rows, cols, vals = (np.concatenate([part[k][part[3]] for part in placed]) for k in range(3))
    del placed  # freed before the conversion, with the blocks if the caller holds none
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)
