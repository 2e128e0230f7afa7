"""Batched array kernels on stacks of simplices.

Every function here works on all simplices of a level at once, as numpy
arrays: local face tables and permutation parities, volumes and barycentric
gradients of (m, k+1, d) coordinate stacks, and lexicographic sorting and
lookup of simplex rows.  Sorts are stable; a face is packed into one int64
key (``_face_keys``) only as its prefix face's id and its last vertex's
rank, never as all its vertex ids.  ``mesh``, ``whitney`` and ``hodge``
build on them.

Determinants, volumes and gradients of simplices with k <= 3 are closed
forms in the entries of the edge matrix E (through ``_minors``).  When
k = d they are read off E itself, so their error follows the condition
number of E; only in codimension (k < d) do they go through the Gram
matrix E E^T, whose condition number is that of E squared.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce

import numpy as np


def _local_faces(n: int, p: int) -> np.ndarray:
    """Local vertex positions of the p-faces of an n-simplex, in combinations order."""
    return np.array(list(itertools.combinations(range(n + 1), p + 1)), dtype=int)


def _permutation_sign(rows):
    """Parity (+-1) of the permutation sorting each row of distinct values.

    Takes one sequence or an (m, k) array of rows; the sign is (-1) to the
    number of inversions.
    """
    rows = np.asarray(rows)
    k = rows.shape[-1]
    inversions = sum(rows[..., i] > rows[..., j] for i, j in itertools.combinations(range(k), 2))
    return 1 - 2 * (inversions % 2)


def _determinants(matrices: np.ndarray) -> np.ndarray:
    """Determinant of each k x k matrix of an (m, k, k) stack (``_minors``)."""
    full = np.arange(matrices.shape[1])
    return _minors(matrices, full, full)


def _simplex_volumes(coords: np.ndarray) -> np.ndarray:
    """Unsigned volumes of m k-simplices, ``coords`` of shape (m, k+1, d).

    The volume is |det E|/k! of the edge rows E = [v1-v0, ..., vk-v0] when
    k = d, and the Gram volume sqrt(det(E E^T))/k! when k < d (1 for a
    vertex).
    """
    edges = coords[:, 1:] - coords[:, :1]  # (m, k, d)
    k, d = edges.shape[1:]
    if k == d:
        vols = np.abs(_determinants(edges))
    else:
        vols = np.sqrt(np.maximum(_determinants(edges @ edges.transpose(0, 2, 1)), 0.0))
    return vols / math.factorial(k)


def _signed_volumes(coords: np.ndarray):
    """Signed volumes and longest-edge lengths of m k-simplices.

    The signed volume is det(E)/k! when k = d and the unsigned volume of
    ``_simplex_volumes`` otherwise.  Squared lengths are summed column by
    column, in ``np.linalg.norm``'s order, and the root taken of the largest.
    """
    edges = coords[:, 1:] - coords[:, :1]  # (m, k, d)
    k, d = edges.shape[1:]
    signed = _determinants(edges) / math.factorial(k) if k == d else _simplex_volumes(coords)
    squares = sum(edges[:, :, j] ** 2 for j in range(d))
    return signed, np.sqrt(reduce(np.maximum, squares.T, np.zeros(len(edges))))


def _simplex_gradients(coords: np.ndarray) -> np.ndarray:
    """Barycentric gradients of m non-degenerate k-simplices, k >= 1, shape
    (m, k+1, d).

    Row i of a simplex is grad(lambda_i) for its i-th vertex, tangential to
    the simplex plane when k < d.  Rows 1..k are E^-T when k = d and G^-1 E
    with G = E E^T when k < d; the inverse is the cofactor matrix (the
    (k-1) x (k-1) minors of ``_minors``) over the determinant (its first-row
    expansion), so LAPACK enters only through minors larger than 3 x 3.
    """
    edges = coords[:, 1:] - coords[:, :1]
    k, d = edges.shape[1:]
    square = edges if k == d else edges @ edges.transpose(0, 2, 1)
    full = np.arange(k)
    omit = np.array([np.delete(full, i) for i in full])
    cofactors = _minors(square, omit[:, None], omit[None]) * (-1.0) ** np.add.outer(full, full)
    det = np.einsum("mj,mj->m", square[:, 0], cofactors[:, 0])
    inverse_t = cofactors / det[:, None, None]
    rest = inverse_t if k == d else inverse_t @ edges  # G is symmetric
    return np.concatenate([-rest.sum(axis=1, keepdims=True), rest], axis=1)


def _minors(matrices: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """k x k minors [t, ...] of rows ``rows[..., :]`` and columns
    ``cols[..., :]`` (index arrays of width k, leading axes broadcast) of
    each matrix t.

    Up to k = 3 they are closed forms, as a view of a minors-first array: 0 x 0
    minors are ones, 1 x 1 ones are read off, 2 x 2 ones written out and
    3 x 3 ones expanded along their first row into 2 x 2 ones.  LAPACK's
    determinant is slow on tiny matrices and rounds even a 1 x 1 one; it
    takes only k > 3.
    """
    k = rows.shape[-1]
    if k == 0:
        return np.ones((len(matrices),) + np.broadcast_shapes(rows.shape[:-1], cols.shape[:-1]))
    if k > 3:
        return np.linalg.det(matrices[:, rows[..., :, None], cols[..., None, :]])
    # Stored matrix-last, each entry is a contiguous row of the copy, and one
    # minor at a time keeps its rows in cache.
    flat, width = matrices.reshape(len(matrices), -1).T.copy(), matrices.shape[2]
    at = rows[..., :, None] * width + cols[..., None, :]  # (..., k, k) entry rows
    out = np.empty(at.shape[:-2] + flat.shape[1:])
    for m in np.ndindex(at.shape[:-2]):
        e = [flat[i] for i in at[m].ravel()]
        if k == 1:
            out[m] = e[0]
        elif k == 2:
            out[m] = e[0] * e[3] - e[1] * e[2]
        else:
            out[m] = (
                e[0] * (e[4] * e[8] - e[5] * e[7])
                - e[1] * (e[3] * e[8] - e[5] * e[6])
                + e[2] * (e[3] * e[7] - e[4] * e[6])
            )
    return np.moveaxis(out, -1, 0)


def _facet_rows(n: int, p: int) -> np.ndarray:
    """Row in ``_local_faces(n, p-1)`` of each local p-face of an n-simplex
    without its k-th vertex, shape (C(n+1, p+1), p+1)."""
    rows = _local_faces(n, p - 1).tolist()
    faces = _local_faces(n, p).tolist()
    return np.array([[rows.index(f[:k] + f[k + 1:]) for k in range(p + 1)] for f in faces])


@lru_cache(maxsize=None)
def _local_coboundary(n: int, p: int) -> np.ndarray:
    """The coboundary of an n-simplex from its local p-faces to its local
    (p+1)-faces, read-only, shape (C(n+1, p+2), C(n+1, p+1)), both in
    ``_local_faces`` order: entry [f, g] is (-1)^k when local p-face g is
    (p+1)-face f without its k-th vertex (``_facet_rows``).

    With the vertices of every top in ascending order, it is the global
    coboundary restricted to each top's closure, the same for every top.
    """
    facets = _facet_rows(n, p + 1)
    cob = np.zeros((len(facets), math.comb(n + 1, p + 1)))
    cob[np.arange(len(facets))[:, None], facets] = (-1.0) ** np.arange(p + 2)
    cob.setflags(write=False)
    return cob


def _level_array(level, p: int):
    """One simplex level as a fresh (m, p+1) int64 array, or None when its
    rows are not integer vectors of that width."""
    try:
        arr = np.asarray(level)
    except (TypeError, ValueError, OverflowError):  # ragged rows
        return None
    if arr.ndim > 0 and len(arr) == 0:
        return np.empty((0, p + 1), dtype=np.int64)
    if arr.dtype.kind not in "iu" or arr.ndim != 2 or arr.shape[1] != p + 1:
        return None
    return arr.astype(np.int64)


def _rows_strictly_increasing(rows: np.ndarray) -> bool:
    """Whether every row is lexicographically greater than the one before it."""
    greater = np.zeros(max(len(rows) - 1, 0), dtype=bool)
    tied = ~greater
    for column in rows.T:
        greater |= tied & (column[1:] > column[:-1])
        tied &= column[1:] == column[:-1]
    return bool(greater.all())


def _lex_unique(keys: np.ndarray):
    """Index of the first occurrence of each distinct 1-d key, in ascending
    key order, and each key's rank among the distinct keys."""
    order = np.lexsort((keys,))
    ranked = keys[order]
    starts = np.zeros(len(keys), dtype=bool)
    starts[:1] = True
    starts[1:] = ranked[1:] != ranked[:-1]
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.cumsum(starts) - 1
    return order[starts], ranks


def _face_keys(prefix_ids, last_ranks, lower: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """int64 keys of p-faces, given the ids of their prefix (p-1)-faces in
    ``lower`` and the ranks of their last vertices in ``vertices``.

    A key is prefix id * m0 + last rank with m0 = len(vertices): keys sort
    like the faces (lexicographically) and stay below len(lower) * m0,
    which is checked here, so they never overflow.
    """
    if len(lower) * len(vertices) >= 2**63:
        raise ValueError("too many simplices for int64 face keys")
    return prefix_ids * len(vertices) + last_ranks


def _sorted_ids(keys: np.ndarray, queries) -> np.ndarray:
    """Index of each query in the sorted, distinct 1-d ``keys``, or -1 where absent."""
    queries = np.asarray(queries)
    # One stable sort of keys and queries together, the queries column by
    # column: sorted levels then form long presorted runs.
    ranks = _lex_unique(np.concatenate([keys, queries.T.ravel()]))[1]
    position = np.full(len(ranks), -1, dtype=np.int64)
    position[ranks[: len(keys)]] = np.arange(len(keys))
    return position[ranks[len(keys):]].reshape(queries.T.shape).T


def _chain_ids(keys: list, ranks: np.ndarray) -> np.ndarray:
    """Index of each row of vertex ranks in its level, or -1 where absent.

    ``keys[p]`` lists the p-simplices of a complex as sorted, distinct int64
    keys: the vertex ids for p = 0, else the ``_face_keys`` of the face
    omitting the last vertex and of that vertex.  ``ranks`` rows are ascending
    vertex ranks, -1 for a non-vertex.
    """
    ids = ranks[:, 0]
    for c in range(1, ranks.shape[1]):
        known = (ids >= 0) & (ranks[:, c] >= 0)
        queries = np.where(known, _face_keys(ids, ranks[:, c], keys[c - 1], keys[0]), -1)
        ids = _sorted_ids(keys[c], queries)
    return ids
