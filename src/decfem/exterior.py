"""Componentwise algebra of alternating covectors.

A p-covector in R^d is represented by its coefficients on the ascending
index combinations of the ambient basis, in lexicographic order.  Degree 0
uses the single empty combination, so scalars travel through the same code
paths as higher-degree components.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "index_combinations",
    "wedge",
]


@lru_cache(maxsize=None)
def index_combinations(d: int, p: int) -> tuple:
    """Ascending p-element index tuples out of range(d), lexicographic."""
    return tuple(combinations(range(d), p))


@lru_cache(maxsize=None)
def _combination_positions(d: int, p: int) -> dict:
    return {c: i for i, c in enumerate(index_combinations(d, p))}


@lru_cache(maxsize=None)
def _shuffle_table(d: int, p: int, q: int) -> tuple:
    """All (out, left, right, sign) index quadruples of the shuffle formula."""
    pos_p = _combination_positions(d, p)
    pos_q = _combination_positions(d, q)
    table = []
    for out_idx, union in enumerate(index_combinations(d, p + q)):
        for left in combinations(union, p):
            right = tuple(i for i in union if i not in left)
            inversions = sum(1 for a in left for b in right if a > b)
            table.append((out_idx, pos_p[left], pos_q[right], (-1) ** inversions))
    return tuple(table)


def wedge(a: np.ndarray, p: int, b: np.ndarray, q: int, d: int) -> np.ndarray:
    """Exterior product of component vectors; result has degree p + q.

    Components run along the last axis and leading axes broadcast, with the
    same products as one call per row.  Arguments of higher degree first are
    routed through the graded swap, so a wedge and its graded-commuted twin
    are computed from identical floating-point products.
    """
    if p + q > d:
        raise ValueError(f"wedge degree {p + q} exceeds dimension {d}")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if p == 0:
        return a[..., :1] * b
    if q == 0:
        return b[..., :1] * a
    if p > q:
        out = wedge(b, q, a, p, d)
        return out if (p * q) % 2 == 0 else -out
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (math.comb(d, p + q),))
    for out_idx, ia, ib, sign in _shuffle_table(d, p, q):
        out[..., out_idx] += sign * (a[..., ia] * b[..., ib])
    return out
