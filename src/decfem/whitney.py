"""Whitney forms: cochain interpolation, integration back to cochains, cup product.

The interpolant attached to a p-simplex (s0 < ... < sp) inside a top
simplex with barycentric coordinates lambda is

    p! * sum_k (-1)^k lambda_{sk} dlambda_{s0} ^ ... ^ [omit k] ^ ... ^ dlambda_{sp},

a piecewise-affine p-form with tangentially continuous traces.  Integrating
a form over every canonical p-simplex recovers a cochain; with rules exact
for the piecewise-polynomial integrands, interpolation followed by
integration is the identity on cochains.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .batched import (
    _facet_rows, _local_faces, _minors, _simplex_gradients, _simplex_volumes
)
from .chains import matrices_for
from .exterior import index_combinations, num_components, wedge
from .mesh import AbstractComplex, GeometricComplex
from .quadrature import QuadratureRule, simplex_rule

__all__ = [
    "Cochain",
    "FormField",
    "analytic_form",
    "whitney_interpolate",
    "de_rham_map",
    "de_rham_whitney_matrix",
    "coboundary_apply",
    "cup_product",
    "complex_fingerprint",
    "cochain_to_json",
    "cochain_from_json",
    "standard_test_forms",
]

DEFAULT_EXACTNESS = 2  # Whitney-form products are polynomials of degree <= 2


@dataclass(frozen=True, eq=False)
class Cochain:
    """Real coefficients on the canonical p-simplices of an abstract complex."""

    complex: AbstractComplex
    degree: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if not 0 <= self.degree <= self.complex.complex_dim:
            raise ValueError(f"degree {self.degree} outside complex dimensions")
        if vals.shape != (self.complex.num_simplices(self.degree),):
            raise ValueError(
                f"expected {self.complex.num_simplices(self.degree)} values, "
                f"got {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class FormField:
    """A degree-p differential form evaluated per top simplex.

    ``evaluate(top_ids, x)`` takes ambient points coordinate-first, one
    point of shape (d,) or a batch of shape (d, m), with top ids indexing
    the canonical top-simplex list (a scalar or shape (m,)), and returns the
    covector components, shape (C(d, p),) or (C(d, p), m).  Analytic fields
    ignore the top ids; interpolated fields use them to select the affine
    chart.
    """

    degree: int
    evaluate: object


def analytic_form(degree: int, component_fn) -> FormField:
    """Wrap a coordinate function x (d, ...) -> components (C(d, p), ...) as a form field."""
    return FormField(degree=degree, evaluate=lambda top_ids, x: component_fn(x))


def _batch_values(values, shape: tuple, name: str) -> np.ndarray:
    """A callable's result on a batch of points, required to have exactly ``shape``:
    one written for a single point (a scalar, a constant vector) must not broadcast."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{name} gave shape {values.shape} on a batch of points, expected {shape}")
    return values


class _MeshGeometry:
    """Per-complex affine data shared by interpolation and assembly.

    All arrays are indexed by the canonical (sorted) top-simplex order.
    ``signed_wedge_tables(p)`` premultiplies the gradient wedges by the
    alternating sign and p!, so a Whitney basis value is a plain contraction
    with the barycentric coordinates.
    """

    def __init__(self, gc: GeometricComplex, ac: AbstractComplex):
        if gc.complex_dim != ac.complex_dim:
            raise ValueError("geometric and abstract complex dimensions differ")
        # The complex owns its geometry (``ac._geometry``), so this object
        # never refers to the complex: dropping the complex frees both.
        self.gc = gc
        self.complex_dim = n = ac.complex_dim
        coords = np.take(gc.vertices, ac.simplex_arrays[n], axis=0)
        self.vols = _simplex_volumes(coords)
        self.grads = _simplex_gradients(coords)
        self.origin = coords[:, 0]
        self._tables: dict = {}

    def cached(self, key: tuple, build):
        """The read-only arrays ``build()`` returns, built once per ``key``.

        A key may hold a ``QuadratureRule``, which hashes by identity; the
        key keeps the rule alive, so another rule never meets its entry.
        """
        arrays = self._tables.get(key)
        if arrays is None:
            arrays = build()
            for array in arrays if isinstance(arrays, tuple) else (arrays,):
                array.setflags(write=False)
            self._tables[key] = arrays
        return arrays

    def barycentric(self, top_ids, points: np.ndarray) -> np.ndarray:
        """Barycentric coordinates (..., n+1) of points (..., d) in the tops
        ``top_ids`` (broadcast against ...), by one small matrix product per
        point: thin simplices amplify any change of rounding."""
        top_ids = np.asarray(top_ids)
        offsets = points - self.origin[top_ids]
        lam = (self.grads[top_ids] @ offsets[..., None])[..., 0]
        lam[..., 0] += 1.0
        return lam

    def signed_wedge_tables(self, p: int) -> np.ndarray:
        """Sign-folded gradient wedges, shape (num_top, C(n+1, p+1), p+1, C(d, p)).

        Entry [t, f, k] is (-1)^k p! times the wedge of the gradients at the
        vertices of local face f (``batched._local_faces(n, p)``) other than its
        k-th, in ascending order.
        """
        def build():
            n, d = self.complex_dim, self.gc.embed_dim
            # Each wedge of p gradients is the vector of p x p minors of their
            # rows in the gradient array, one minor per ambient index combination.
            rows = _local_faces(n, p - 1)
            cols = np.array(index_combinations(d, p), dtype=int)
            minors = _minors(self.grads, rows[:, None], cols[None])
            signs = math.factorial(p) * (-1.0) ** np.arange(p + 1)
            return minors[:, _facet_rows(n, p)] * signs[:, None]

        return self.cached(("wedge", p), build)

    def whitney_values(self, p: int, top_ids, lam: np.ndarray) -> np.ndarray:
        """Every local Whitney p-form of the tops ``top_ids`` at their
        barycentric points lam (..., n+1), leading axes broadcast; shape
        (..., C(n+1, p+1), C(d, p)) in ``batched._local_faces(n, p)`` order."""
        lam_local = lam[..., _local_faces(self.complex_dim, p)]  # (..., nloc, p+1)
        return np.einsum("...fk,...fkc->...fc", lam_local, self.signed_wedge_tables(p)[top_ids])


def mesh_geometry(gc: GeometricComplex, ac: AbstractComplex) -> _MeshGeometry:
    """The complex's cached geometry, rebuilt when asked for another embedding."""
    geo = ac._geometry
    if geo is None or geo.gc is not gc:
        geo = _MeshGeometry(gc, ac)
        ac._geometry = geo
    return geo


def whitney_interpolate(gc: GeometricComplex, c: Cochain) -> FormField:
    """Piecewise-affine form with the cochain's coefficients on its simplices."""
    ac, p = c.complex, c.degree
    geo = mesh_geometry(gc, ac)
    top_coeffs = c.values[ac.top_faces(p)]  # (num_top, nloc)

    def evaluate(top_ids, x) -> np.ndarray:
        lam = geo.barycentric(top_ids, np.moveaxis(np.asarray(x, dtype=float), 0, -1))
        return np.einsum("...f,...fc->c...", top_coeffs[top_ids], geo.whitney_values(p, top_ids, lam))

    return FormField(degree=p, evaluate=evaluate)


def _simplex_quadrature(gc: GeometricComplex, ac: AbstractComplex, p: int, rule: QuadratureRule):
    """Quadrature data of every canonical p-simplex, in one batched pass.

    Returns the owning top simplex of each p-simplex (``top_containing``),
    the rule's points on it (m, nq, d), their barycentric coordinates in
    the owner (m, nq, n+1) and the p x p minors of its edge frame divided
    by p! (m, C(d, p)), so that a form with components c at the points
    integrates to ``einsum("q,mqc,mc->m", rule.weights, c, minors)``.
    Built once per degree and rule, read-only (``_MeshGeometry.cached``).
    """
    geo = mesh_geometry(gc, ac)

    def build():
        owners = ac.top_containing(p)
        coords = np.take(gc.vertices, ac.simplex_arrays[p], axis=0)  # (m, p+1, d)
        points = (rule.points[:, None, :] @ coords[:, None])[:, :, 0]
        lam = geo.barycentric(owners[:, None], points)
        # One minor per ambient index combination, taken from the (d, p) edge frame.
        frame = (coords[:, 1:] - coords[:, :1]).transpose(0, 2, 1)
        combos = np.array(index_combinations(gc.embed_dim, p), dtype=int)
        minors = _minors(frame, combos, np.arange(p)) / math.factorial(p)
        return owners, points, lam, minors

    return geo.cached(("quadrature", p, rule), build)


def _quadrature_whitney(gc: GeometricComplex, ac: AbstractComplex, k: int, p: int, rule: QuadratureRule):
    """Every local Whitney k-form of the owner of each p-simplex at the
    rule's points on it (``_simplex_quadrature``), shape
    (m, nq, C(n+1, k+1), C(d, k)); built once per k, degree and rule."""
    owners, _, lam, _ = _simplex_quadrature(gc, ac, p, rule)
    geo = mesh_geometry(gc, ac)
    return geo.cached(("whitney", k, p, rule), lambda: geo.whitney_values(k, owners[:, None], lam))


def de_rham_map(
    gc: GeometricComplex,
    ac: AbstractComplex,
    f: FormField,
    p: int,
    rule: QuadratureRule | None = None,
) -> Cochain:
    """Integrate a p-form over every canonical p-simplex.

    Exact whenever the form restricted to each simplex is polynomial within
    the rule's exactness degree.  ``f.evaluate`` receives the shared
    quadrature tables of the complex: the owner ids and the points as
    read-only views, which it must not write to.
    """
    if not 0 <= p <= ac.complex_dim:
        raise ValueError(f"degree {p} outside 0..{ac.complex_dim}")
    if f.degree != p:
        raise ValueError(f"form degree {f.degree} does not match requested degree {p}")
    if rule is None:
        rule = simplex_rule(p, DEFAULT_EXACTNESS)
    if rule.dim != p:
        raise ValueError(f"rule dimension {rule.dim} does not match degree {p}")
    owners, points, _, minors = _simplex_quadrature(gc, ac, p, rule)
    shape = (num_components(gc.embed_dim, p), len(owners))
    comps = np.empty(points.shape[:2] + shape[:1])
    # One call per quadrature point, each covering every p-simplex.
    for k in range(len(rule.weights)):
        comps[:, k] = _batch_values(f.evaluate(owners, points[:, k].T), shape, "evaluate").T
    return Cochain(ac, p, np.einsum("q,mqc,mc->m", rule.weights, comps, minors))


def de_rham_whitney_matrix(gc: GeometricComplex, ac: AbstractComplex, p: int) -> sp.csr_matrix:
    """The de Rham map composed with Whitney interpolation, as a sparse matrix.

    Entry (i, j) integrates the Whitney form of p-simplex j over p-simplex i,
    so column j equals ``de_rham_map(gc, ac, whitney_interpolate(gc, e_j), p)``.
    All p-simplices are integrated in one batched pass, each at the
    quadrature points of the top simplex that owns it; a row holds one entry
    per p-face of that top simplex.  Whitney forms are affine on a simplex,
    so the default rule integrates them exactly.
    """
    if not 0 <= p <= ac.complex_dim:
        raise ValueError(f"degree {p} outside 0..{ac.complex_dim}")
    values, cols = _de_rham_whitney_entries(gc, ac, p)
    rows = np.repeat(np.arange(len(values)), values.shape[1])
    return sp.csr_matrix((values.ravel(), (rows, cols.ravel())), shape=(len(values),) * 2)


def _de_rham_whitney_entries(gc: GeometricComplex, ac: AbstractComplex, p: int):
    """The entries of ``de_rham_whitney_matrix`` row by row: the values
    (m, C(n+1, p+1)) and their columns, the p-faces of each row's owner."""
    rule = simplex_rule(p, DEFAULT_EXACTNESS)
    owners, _, _, minors = _simplex_quadrature(gc, ac, p, rule)
    basis = _quadrature_whitney(gc, ac, p, p, rule)
    return np.einsum("q,mqfc,mc->mf", rule.weights, basis, minors), ac.top_faces(p)[owners]


def coboundary_apply(c: Cochain) -> Cochain:
    """Discrete exterior derivative: apply the integer coboundary to a cochain."""
    ac = c.complex
    if c.degree >= ac.complex_dim:
        raise ValueError("coboundary undefined at top degree")
    return Cochain(ac, c.degree + 1, matrices_for(ac).coboundary_csr(c.degree) @ c.values)


def cup_product(gc: GeometricComplex, a: Cochain, b: Cochain) -> Cochain:
    """Combinatorial cup product: interpolate both factors, wedge pointwise,
    integrate over (p+q)-simplices.

    Bilinear, graded-commutative to the last bit (both argument orders
    reach the same wedge products) and associative only up to
    interpolation error.
    """
    if a.complex is not b.complex:
        raise ValueError("cup product factors must live on the same complex")
    ac = a.complex
    p, q = a.degree, b.degree
    if p + q > ac.complex_dim:
        raise ValueError(f"cup degree {p + q} exceeds complex dimension")
    rule = simplex_rule(p + q, DEFAULT_EXACTNESS)
    owners, _, _, minors = _simplex_quadrature(gc, ac, p + q, rule)
    wa, wb = (
        np.einsum("mf,mqfc->mqc", c.values[ac.top_faces(c.degree)[owners]],
                  _quadrature_whitney(gc, ac, c.degree, p + q, rule))
        for c in (a, b)
    )
    product = wedge(wa, p, wb, q, gc.embed_dim)
    return Cochain(ac, p + q, np.einsum("q,mqc,mc->m", rule.weights, product, minors))


def complex_fingerprint(ac: AbstractComplex) -> str:
    """Hash of the canonical simplex lists; guards cochain (de)serialization.

    The lists are read-only arrays, so the hash is computed once and cached
    on the complex (``ac._fingerprint``).
    """
    if ac._fingerprint is None:
        payload = json.dumps([level.tolist() for level in ac.simplex_arrays], separators=(",", ":"))
        ac._fingerprint = hashlib.sha256(payload.encode()).hexdigest()
    return ac._fingerprint


def cochain_to_json(c: Cochain) -> dict:
    return {
        "degree": c.degree,
        "values": c.values.tolist(),
        "fingerprint": complex_fingerprint(c.complex),
    }


def cochain_from_json(ac: AbstractComplex, obj: dict) -> Cochain:
    """The cochain of a ``cochain_to_json`` object; malformed input raises ValueError."""
    if not isinstance(obj, dict) or not {"degree", "values", "fingerprint"} <= obj.keys():
        raise ValueError("cochain must be a JSON object with keys degree, values and fingerprint")
    if obj["fingerprint"] != complex_fingerprint(ac):
        raise ValueError("cochain fingerprint does not match this complex")
    degree, values = obj["degree"], obj["values"]
    numbers = isinstance(values, list) and {type(v) for v in values} <= {int, float}
    if type(degree) is not int or not numbers:
        raise ValueError("cochain degree must be an integer and its values a list of numbers")
    for k, v in enumerate(values):
        # False for NaN, infinities and integers beyond the float range.
        if not abs(v) <= sys.float_info.max:
            raise ValueError(f"cochain value {k} is not a finite number")
    return Cochain(ac, degree, values)


def standard_test_forms(embed_dim: int) -> list:
    """Named polynomial (form, exterior derivative) pairs through degree 3.

    Used to exercise integration and derivative commutation on meshes
    embedded in R^2 and R^3; derivatives are supplied analytically.
    """
    forms = []
    if embed_dim == 2:
        forms += [
            (
                "x^2 y",
                analytic_form(0, lambda x: np.array([x[0] ** 2 * x[1]])),
                analytic_form(1, lambda x: np.array([2 * x[0] * x[1], x[0] ** 2])),
            ),
            (
                "x^3",
                analytic_form(0, lambda x: np.array([x[0] ** 3])),
                analytic_form(1, lambda x: np.array([3 * x[0] ** 2, 0 * x[0]])),
            ),
            (
                "y^3 dx",
                analytic_form(1, lambda x: np.array([x[1] ** 3, 0 * x[0]])),
                analytic_form(2, lambda x: np.array([-3 * x[1] ** 2])),
            ),
            (
                "x^2 y dy",
                analytic_form(1, lambda x: np.array([0 * x[0], x[0] ** 2 * x[1]])),
                analytic_form(2, lambda x: np.array([2 * x[0] * x[1]])),
            ),
            (
                "xy dx + (x - y^2) dy",
                analytic_form(1, lambda x: np.array([x[0] * x[1], x[0] - x[1] ** 2])),
                analytic_form(2, lambda x: np.array([1.0 - x[0]])),
            ),
        ]
    elif embed_dim == 3:
        forms += [
            (
                "x^2 z",
                analytic_form(0, lambda x: np.array([x[0] ** 2 * x[2]])),
                analytic_form(1, lambda x: np.array([2 * x[0] * x[2], 0 * x[0], x[0] ** 2])),
            ),
            (
                "xyz",
                analytic_form(0, lambda x: np.array([x[0] * x[1] * x[2]])),
                analytic_form(1, lambda x: np.array([x[1] * x[2], x[0] * x[2], x[0] * x[1]])),
            ),
            (
                "z^2 dx + x^2 dy + y^2 dz",
                analytic_form(1, lambda x: np.array([x[2] ** 2, x[0] ** 2, x[1] ** 2])),
                # components on (dx^dy, dx^dz, dy^dz)
                analytic_form(2, lambda x: np.array([2 * x[0], -2 * x[2], 2 * x[1]])),
            ),
            (
                "x^2 dy^dz",
                analytic_form(2, lambda x: np.array([0 * x[0], 0 * x[0], x[0] ** 2])),
                analytic_form(3, lambda x: np.array([2 * x[0]])),
            ),
        ]
    else:
        raise ValueError(f"no canned polynomial forms for embedding dimension {embed_dim}")
    return forms
