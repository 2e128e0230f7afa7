"""Quadrature rules on reference simplices, in barycentric coordinates.

Rules are normalized to the unit-content simplex: weights sum to one, and
use sites scale by the measure of the actual simplex.  Classical
positive-weight rules cover the common low-degree cases; arbitrary odd
exactness degrees in any dimension come from the Grundmann-Moller family,
whose points and weights are assembled in exact rational arithmetic before
conversion to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

__all__ = ["QuadratureRule", "simplex_rule"]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Points (barycentric (dim+1)-tuples), weights summing to 1, and the
    polynomial degree integrated exactly.  A rule compares and hashes by
    identity: its fields are arrays, which have no single truth value."""

    dim: int
    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim + 1 or pts.shape[0] != wts.shape[0]:
            raise ValueError("inconsistent quadrature point/weight shapes")
        if abs(wts.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)


def _point_rule() -> QuadratureRule:
    return QuadratureRule(0, np.array([[1.0]]), np.array([1.0]), 1000)


def _gauss_segment(degree: int) -> QuadratureRule:
    npts = max(1, (degree + 2) // 2)
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    t = (nodes + 1.0) / 2.0
    pts = np.column_stack([1.0 - t, t])
    return QuadratureRule(1, pts, weights / 2.0, 2 * npts - 1)


def _triangle_midpoint() -> QuadratureRule:
    pts = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    return QuadratureRule(2, pts, np.full(3, 1.0 / 3.0), 2)


def _triangle_degree5() -> QuadratureRule:
    a1, b1 = 0.797426985353087, 0.101286507323456
    a2, b2 = 0.059715871789770, 0.470142064105115
    w0, w1, w2 = 0.225, 0.125939180544827, 0.132394152788506
    pts = [[1 / 3, 1 / 3, 1 / 3]]
    wts = [w0]
    for a, b, w in ((a1, b1, w1), (a2, b2, w2)):
        pts += [[a, b, b], [b, a, b], [b, b, a]]
        wts += [w, w, w]
    return QuadratureRule(2, np.array(pts), np.array(wts), 5)


def _tet_degree2() -> QuadratureRule:
    a = (5.0 + 3.0 * math.sqrt(5.0)) / 20.0
    b = (5.0 - math.sqrt(5.0)) / 20.0
    pts = np.full((4, 4), b)
    np.fill_diagonal(pts, a)
    return QuadratureRule(3, pts, np.full(4, 0.25), 2)


def _compositions(total: int, parts: int):
    """Nonnegative integer tuples of given length summing to total, lexicographic."""
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def _grundmann_moller(dim: int, s: int) -> QuadratureRule:
    degree = 2 * s + 1
    pts = []
    wts = []
    for i in range(s + 1):
        denom = degree + dim - 2 * i
        weight = (
            Fraction((-1) ** i)
            * Fraction(denom) ** degree
            / (Fraction(4) ** s * math.factorial(i) * math.factorial(degree + dim - i))
        )
        for beta in _compositions(s - i, dim + 1):
            pts.append([Fraction(2 * b + 1, denom) for b in beta])
            wts.append(weight)
    norm = Fraction(math.factorial(dim))  # unit-content normalization
    points = np.array([[float(x) for x in p] for p in pts])
    weights = np.array([float(w * norm) for w in wts])
    return QuadratureRule(dim, points, weights, degree)


@lru_cache(maxsize=None)
def simplex_rule(dim: int, degree: int) -> QuadratureRule:
    """A rule on the dim-simplex exact for polynomials of the given degree."""
    if dim < 0 or degree < 0:
        raise ValueError("dimension and degree must be nonnegative")
    if dim == 0:
        return _point_rule()
    if dim == 1:
        return _gauss_segment(degree)
    if dim == 2 and degree <= 2:
        return _triangle_midpoint()
    if dim == 2 and degree <= 5:
        return _triangle_degree5()
    if dim == 3 and degree <= 2:
        return _tet_degree2()
    # Grundmann-Moller exactness is 2s+1; even requested degrees round up.
    return _grundmann_moller(dim, degree // 2)
