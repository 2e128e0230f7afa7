"""Element matrices: the local blocks, one per top simplex, whose sums
are the global operators of ``hodge`` and ``poisson``.

A global operator of finite element exterior calculus is the sum of its
local element matrices over the top simplices (Arnold, Falk & Winther).
Here they are the local Hodge blocks of both kinds, rows and columns in
``top_faces`` order, and the blocks D^T M and D^T M D that the constant
local coboundary D of each degree (``batched._local_coboundary``) makes of
them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .batched import (
    _determinants, _facet_rows, _local_coboundary, _local_faces, _minors, _simplex_volumes
)
from .mesh import AbstractComplex, GeometricComplex, _dual_shares
from .whitney import mesh_geometry


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
    """Local dual-volume over primal-volume Hodge of every top simplex as its
    diagonal, shape (num_top, k) with k = C(n+1, p+1) in ``top_faces(p)``
    order: the share of each local p-face's barycentric dual cell inside the
    top (``_dual_shares``) over the face's primal volume.

    The dual cell of a top simplex is a point with unit measure, and a
    primal 0-simplex likewise counts as unit measure.
    """
    n = ac.complex_dim
    primal = _simplex_volumes(gc.vertices[ac.simplex_arrays[p]])
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


def _local_operators(gc: GeometricComplex, ac: AbstractComplex, kind: str):
    """M_p, d_p^T M_{p+1} d_p and C_p = d_p^T M_{p+1} per degree as one
    block per top: (row ids, column ids, blocks) of shapes (num_top, a),
    (num_top, b) and (num_top, a, b), in degree-local ids.  Restricted to a
    top's closure, d_p is the constant local coboundary D_p, so the blocks
    of C_p are D_p^T M_{p+1},T and those of d_p^T M_{p+1} d_p are
    D_p^T M_{p+1},T D_p, from the local Hodge blocks M_{p+1},T.  A diagonal
    M_T with entries w gives k 1 x 1 blocks per top, and D_p^T M_{p+1},T is
    the broadcast product D_p^T w.
    """
    n = ac.complex_dim
    mass = [_local_hodges(gc, ac, kind, p) for p in range(n + 1)]
    ids = [ac.top_faces(p) for p in range(n + 1)]
    cob_mass = [_hodge_product(_local_coboundary(n, p).T, mass[p + 1]) for p in range(n)]
    lap = [c @ _local_coboundary(n, p) for p, c in enumerate(cob_mass)]
    parts = [
        [(ids[p], ids[p + shift], blocks) for p, blocks in enumerate(part)]
        for part, shift in ((mass, 0), (lap, 0), (cob_mass, 1))
    ]
    if kind == "diagonal":
        parts[0] = [(i.reshape(-1, 1), i.reshape(-1, 1), w.reshape(-1, 1, 1)) for i, w in zip(ids, mass)]
    return parts


def _hodge_product(left: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """left @ M_T for every top: a matrix product with full Hodge blocks
    (num_top, k, k), a column scaling by diagonal ones (num_top, k)."""
    return left * blocks[:, None] if blocks.ndim == 2 else left @ blocks
