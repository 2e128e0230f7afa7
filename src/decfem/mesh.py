"""Simplicial meshes: geometric realizations and their abstract complexes.

A mesh arrives as vertex coordinates plus top-dimensional simplices (the
geometric realization).  Reducing it to pure face combinatorics with one
orientation sign per top simplex yields the abstract complex; all topology
downstream runs on the abstract side, all metric quantities on the
geometric one.

JSON mesh format (bit-exact contract): an object with keys ``"dimension"``
(the complex dimension n), ``"vertices"`` (m0 rows of d coordinates) and
``"simplices"`` (mn rows of n+1 zero-based vertex indices).  Unknown keys
are ignored.  Plain-text alternative: a header line ``n d m0 mn`` followed
by m0 coordinate lines and mn simplex lines.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from .batched import (
    _chain_ids,
    _face_keys,
    _facet_rows,
    _level_array,
    _lex_unique,
    _local_faces,
    _permutation_sign,
    _rows_strictly_increasing,
    _signed_volumes,
    _simplex_volumes,
    _sorted_ids,
)

__all__ = [
    "MeshError",
    "MeshParseError",
    "MeshValidationError",
    "GeometricComplex",
    "AbstractComplex",
    "load_mesh",
    "abstr",
    "barycentric_dual_volumes",
    "relabel_vertices",
]

# A simplex counts as degenerate when n! * volume <= RTOL * (longest edge)^n.
# In codimension (n < d) the barycentric gradients invert E E^T for the edge
# matrix E, whose determinant is (n! * volume)^2: below about sqrt(machine
# epsilon) it is lost.  When n = d they come from E itself and lose digits
# only as cond(E); the one bound still applies there, as moving it for
# n = d needs its own measurements.
_DEGENERATE_RTOL = 1e-7


class MeshError(ValueError):
    """Base class for mesh parsing and validation failures."""


class MeshParseError(MeshError):
    """Malformed input stream (bad JSON, bad header, wrong row widths)."""


class MeshValidationError(MeshError):
    """Structurally well-formed input that violates a mesh invariant."""


class GeometricComplex:
    """Vertex coordinates plus top-dimensional simplices.

    Vertices are Cartesian coordinates in R^d, top simplices (n+1)-tuples of
    global vertex indices with n <= d.  Construction validates finite real
    coordinates, integer index values and ranges, finite non-degenerate
    volume of every top simplex and absence of duplicate simplices (as
    vertex sets).  Instances are immutable.
    """

    def __init__(self, vertices, top_simplices, complex_dim=None):
        verts = np.asarray(vertices)
        tops = np.asarray(top_simplices)
        if verts.ndim != 2 or verts.shape[0] == 0:
            raise MeshValidationError("vertex array must be a nonempty 2-d array")
        if tops.ndim != 2 or tops.shape[0] == 0:
            raise MeshValidationError("simplex array must be a nonempty 2-d array")
        row = _first_boolean_row(vertices)
        if row is not None:
            raise MeshValidationError(f"boolean coordinate in vertex {row}")
        row = _first_boolean_row(top_simplices)
        if row is not None:
            raise MeshValidationError(f"boolean vertex index in simplex {row}")
        verts = _real_coordinates(verts)
        tops = _vertex_indices(tops)
        n = tops.shape[1] - 1
        d = verts.shape[1]
        if complex_dim is not None and complex_dim != n:
            raise MeshValidationError(
                f"declared dimension {complex_dim} does not match simplex width {n + 1}"
            )
        if n < 1:
            raise MeshValidationError("complex dimension must be at least 1")
        if n > d:
            raise MeshValidationError(
                f"complex dimension {n} exceeds embedding dimension {d}"
            )
        verts.setflags(write=False)
        tops.setflags(write=False)
        self.vertices = verts
        self.top_simplices = tops
        self.embed_dim = d
        self.complex_dim = n
        self.top_volumes = self._validate()

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_top(self) -> int:
        return self.top_simplices.shape[0]

    def _validate(self) -> np.ndarray:
        """Top volumes; the lowest faulty simplex raises, its checks in order.

        The checks run column by column.  Rows are range-checked only when
        the whole array fails, and out-of-range rows then enter as zero rows.
        Duplicates are ranked one sorted column at a time, keyed by prefix
        rank and next vertex (``_face_keys``); the last stable sort puts the
        lowest simplex of each vertex set first.
        """
        tops, n = self.top_simplices, self.complex_dim
        in_range = np.ones(len(tops), dtype=bool)
        if tops.min() < 0 or tops.max() >= self.num_vertices:
            in_range = ((tops >= 0) & (tops < self.num_vertices)).all(axis=1)
            tops = np.where(in_range[:, None], tops, 0)
        ordered = np.sort(tops, axis=1)
        repeated = np.zeros(len(tops), dtype=bool)
        ranks, lower = ordered[:, 0], self.vertices
        for c in range(1, n + 1):
            repeated |= ordered[:, c] == ordered[:, c - 1]
            lower, ranks = _lex_unique(_face_keys(ranks, ordered[:, c], lower, self.vertices))
        first = lower[ranks]  # lowest simplex with the same vertex set
        vols, scales = _signed_volumes(np.take(self.vertices, tops, axis=0))
        finite = np.isfinite(vols)
        flat = np.abs(vols) * math.factorial(n) <= _DEGENERATE_RTOL * scales**n
        faulty = ~in_range | repeated | (first < np.arange(len(tops))) | ~finite | flat
        if faulty.any():
            i = int(np.argmax(faulty))
            if not in_range[i]:
                raise MeshValidationError(f"vertex index out of range in simplex {i}")
            if repeated[i]:
                raise MeshValidationError(f"degenerate simplex {i}")
            if first[i] < i:
                raise MeshValidationError(
                    f"duplicate simplex {i} (same vertex set as simplex {first[i]})"
                )
            if not finite[i]:
                raise MeshValidationError(f"non-finite volume of simplex {i}")
            raise MeshValidationError(f"degenerate simplex {i}")
        vols.setflags(write=False)
        return vols

    def __repr__(self):
        return (
            f"GeometricComplex(n={self.complex_dim}, d={self.embed_dim}, "
            f"vertices={self.num_vertices}, top={self.num_top})"
        )


def _first_boolean_row(rows):
    """Index of the first row of a nested sequence that holds a boolean, else None.

    numpy reads ``[0, True, 2]`` as the integers ``[0, 1, 2]``, so a dtype
    check cannot see such an entry; arrays carry their own dtype and are not
    scanned.
    """
    if isinstance(rows, np.ndarray):
        return None
    booleans = {bool, np.bool_}
    # One scan of every entry; the rows are walked only to name the culprit.
    if booleans.isdisjoint(map(type, itertools.chain.from_iterable(rows))):
        return None
    return next(i for i, row in enumerate(rows) if not booleans.isdisjoint(map(type, row)))


def _real_coordinates(verts: np.ndarray) -> np.ndarray:
    """Vertex coordinates as a fresh float array; strings, booleans and NaN/inf raise."""
    if verts.dtype.kind not in "iuf":
        raise MeshValidationError(f"vertex coordinates must be real numbers, not {verts.dtype}")
    verts = verts.astype(float)
    bad = ~np.isfinite(verts).all(axis=1)
    if bad.any():
        raise MeshValidationError(f"non-finite coordinate in vertex {int(np.argmax(bad))}")
    return verts


def _vertex_indices(tops: np.ndarray, row_name: str = "simplex") -> np.ndarray:
    """Vertex indices as a fresh int array; floats must be integral, other types raise."""
    if tops.dtype.kind == "f":
        bad = ~(np.isfinite(tops) & (tops == np.round(tops))).all(axis=1)
        if bad.any():
            raise MeshValidationError(f"non-integer vertex index in {row_name} {int(np.argmax(bad))}")
    elif tops.dtype.kind not in "iu":
        raise MeshValidationError(f"vertex indices must be integers, not {tops.dtype}")
    return tops.astype(int)


def _checked_levels(complex_dim, simplices) -> list:
    """The simplex levels as checked, read-only int64 arrays."""
    if len(simplices) != complex_dim + 1:
        raise MeshValidationError("need one simplex list per dimension 0..n")
    levels = []
    for p, level in enumerate(simplices):
        arr = _level_array(level, p)
        if arr is None or (arr[:, 1:] <= arr[:, :-1]).any():
            raise MeshValidationError(f"{p}-simplices must be strictly ascending tuples")
        if not _rows_strictly_increasing(arr):
            raise MeshValidationError(f"{p}-simplex list must be sorted and duplicate-free")
        arr.setflags(write=False)
        levels.append(arr)
    return levels


class AbstractComplex:
    """Purely combinatorial face data of a simplicial complex.

    ``simplex_arrays[p]`` holds the p-simplices as the rows of a read-only
    (m_p, p+1) int64 array: each row strictly ascending, the rows sorted
    lexicographically and distinct.  ``boundary_faces(p)`` gives the
    incidence of degree p, the id of each p-simplex's face omitting each of
    its vertices, and ``simplex_ids`` finds rows of vertex ids among the
    simplices.  ``orientation_signs`` holds one +-1 per top simplex, in the
    order the top simplices were given geometrically, and ``_top_ids`` their
    rows in ``simplex_arrays[n]``.  ``abstr`` hands over the face tables and
    top ids it built; this constructor derives the tables by sorted lookups,
    and its tops are given sorted.  Derived data is cached on the instance:
    the face tables of ``top_faces``, the owners of ``top_containing``, the
    geometry of one embedding with its quadrature tables
    (``whitney.mesh_geometry``), the boundary matrices
    (``chains.matrices_for``) and the hash of the simplex lists
    (``whitney.complex_fingerprint``).
    """

    def __init__(self, complex_dim, simplices, orientation_signs):
        levels = _checked_levels(complex_dim, simplices)
        vertices = levels[0][:, 0]
        keys, boundary_faces = [vertices], {}  # face keys by level, see ``_chain_ids``
        for p in range(1, len(levels)):
            ranks = _sorted_ids(vertices, levels[p])
            # faces[k] omits vertex k; looked up one face kind at a time, the
            # faces of a sorted level come in long presorted runs.
            faces = ranks[:, _local_faces(p, p - 1)[::-1]].transpose(1, 0, 2)  # (p+1, m_p, p)
            ids = _chain_ids(keys, faces.reshape(-1, p)).reshape(p + 1, -1).T.copy()
            open_rows = (ids < 0).any(axis=1)
            if open_rows.any():
                s = tuple(levels[p][int(np.argmax(open_rows))].tolist())
                raise MeshValidationError(f"complex not closed under faces at {s}")
            boundary_faces[p] = ids
            keys.append(_face_keys(ids[:, p], ranks[:, p], levels[p - 1], vertices))
        self._set_fields(levels, orientation_signs, keys, boundary_faces, {}, np.arange(len(levels[-1])))

    def _set_fields(self, levels, orientation_signs, keys, boundary_faces, top_faces, top_ids):
        signs = np.array(orientation_signs, dtype=int)
        if signs.shape != (len(levels[-1]),) or not np.all(np.abs(signs) == 1):
            raise MeshValidationError("orientation signs must be one +-1 per top simplex")
        for table in itertools.chain([signs, top_ids], boundary_faces.values(), top_faces.values()):
            table.setflags(write=False)
        self.complex_dim = len(levels) - 1
        self.orientation_signs = signs
        self.simplex_arrays = tuple(levels)
        self._keys = keys
        self._boundary_faces = boundary_faces
        self._top_faces: dict = top_faces
        self._top_ids = top_ids
        self._owners: dict = {}  # owning top of each p-simplex, see ``top_containing``
        self._geometry = None  # affine data of one embedding, see whitney.mesh_geometry
        self._matrices = None  # boundary operators, see chains.matrices_for
        self._fingerprint = None  # hash of the simplex lists, see whitney.complex_fingerprint

    def num_simplices(self, p: int) -> int:
        return len(self.simplex_arrays[p])

    def face_counts(self):
        return [len(level) for level in self.simplex_arrays]

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * len(level) for p, level in enumerate(self.simplex_arrays))

    def simplex_ids(self, rows) -> np.ndarray:
        """Index in ``simplex_arrays[p]`` of each row of p+1 ascending vertex
        ids, or -1 where the complex has no such simplex."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or not 1 <= rows.shape[1] <= self.complex_dim + 1:
            raise ValueError(f"expected rows of 1..{self.complex_dim + 1} vertex ids, got shape {rows.shape}")
        return _chain_ids(self._keys, _sorted_ids(self._keys[0], rows))

    def boundary_faces(self, p: int) -> np.ndarray:
        """Global (p-1)-face ids of every p-simplex, shape (m_p, p+1), for 1 <= p <= n.

        Column k holds the face omitting the simplex's k-th vertex, so the
        boundary of p-simplex j is the sum over k of (-1)^k times face [j, k].
        """
        return self._boundary_faces[p]

    def top_faces(self, p: int) -> np.ndarray:
        """Global p-face ids of every top simplex, shape (num_top, C(n+1, p+1)).

        Column j holds the face at the local vertex positions of row j of
        ``_local_faces(n, p)``, i.e. in ``itertools.combinations`` order.
        """
        if p not in self._top_faces:
            n = self.complex_dim
            if p == n:
                table = np.arange(self.num_simplices(n))[:, None]
            else:
                # Each local p-face is read off the boundary of the first
                # local (p+1)-face containing it.
                first = np.unique(_facet_rows(n, p + 1), return_index=True)[1]
                cofaces, omitted = np.divmod(first, p + 2)
                table = self._boundary_faces[p + 1][self.top_faces(p + 1)[:, cofaces], omitted]
            table.setflags(write=False)
            self._top_faces[p] = table
        return self._top_faces[p]

    def top_containing(self, p: int) -> np.ndarray:
        """For each p-simplex, the index (into simplex_arrays[n]) of the first
        top simplex containing it, or -1 when none does; one shared,
        read-only array per degree."""
        if p not in self._owners:
            table = self.top_faces(p)
            owner = np.full(self.num_simplices(p), -1, dtype=int)
            faces, first = np.unique(table, return_index=True)
            owner[faces] = first // table.shape[1]
            owner.setflags(write=False)
            self._owners[p] = owner
        return self._owners[p]

    def facet_coface_counts(self) -> np.ndarray:
        """Number of top simplices containing each (n-1)-simplex."""
        n = self.complex_dim
        return np.bincount(self.top_faces(n - 1).ravel(), minlength=self.num_simplices(n - 1))

    def is_closed(self) -> bool:
        return bool(np.all(self.facet_coface_counts() == 2))

    def __repr__(self):
        return f"AbstractComplex(n={self.complex_dim}, counts={self.face_counts()})"


def abstr(gc: GeometricComplex) -> AbstractComplex:
    """Forget the geometry: extract the abstract simplicial complex.

    Face lists are the closures of the top simplices under taking faces, in
    canonical ascending/lexicographic order.  The orientation sign of each
    top simplex is the sign of its oriented volume in the as-given vertex
    order (for n < d, where no oriented volume exists, the permutation
    parity relative to ascending order).  ``_top_ids`` hands over the row
    of each given top among the sorted ones, which ``abstr`` finds anyway.
    """
    n = gc.complex_dim
    tops = np.sort(gc.top_simplices, axis=1)
    # Vertex ids lie below num_vertices, so one table ranks the used ones.
    used = np.zeros(gc.num_vertices, dtype=bool)
    used[tops] = True
    vertices = np.flatnonzero(used)
    ranks = (np.cumsum(used) - 1)[tops]
    # ids[p][t, f]: id of local p-face f of top t, in as-given top order.
    # Each p-face's key (see ``_face_keys``) comes from the id of its local
    # prefix face and decodes back to that face and the last vertex.
    simplices, keys, ids, boundary_faces = [vertices[:, None]], [vertices], [ranks], {}
    for p in range(1, n + 1):
        lower = _local_faces(n, p - 1).tolist()
        local = _local_faces(n, p).tolist()
        prefix = [lower.index(f[:-1]) for f in local]
        level = _face_keys(ids[-1][:, prefix], ranks[:, [f[-1] for f in local]], simplices[-1], vertices)
        level = level.T.ravel()  # local face by local face
        first, level_ids = _lex_unique(level)
        keys.append(level[first])
        ids.append(level_ids.reshape(-1, len(tops)).T)
        # Every top writes the facets of each of its local p-faces.
        boundary_faces[p] = np.empty((len(keys[p]), p + 1), dtype=np.int64)
        boundary_faces[p][ids[p]] = ids[p - 1][:, _facet_rows(n, p)]
        simplices.append(
            np.column_stack([simplices[-1][keys[p] // len(vertices)], vertices[keys[p] % len(vertices)]])
        )
    top_ids = ids[n][:, 0]
    order = np.empty(len(tops), dtype=np.int64)  # as-given index of each sorted top
    order[top_ids] = np.arange(len(tops))
    if n == gc.embed_dim:
        signs = np.where(gc.top_volumes > 0, 1, -1)
    else:
        signs = _permutation_sign(gc.top_simplices)
    levels = _checked_levels(n, simplices)
    keys[0] = levels[0][:, 0]  # a view, as in the public constructor
    for p in (*range(n - 1), n):  # one table at a time into sorted-top order
        ids[p] = np.take(ids[p], order, axis=0)
    ids[n - 1] = boundary_faces[n][:, ::-1]  # local facet j omits vertex n - j
    ac = AbstractComplex.__new__(AbstractComplex)
    ac._set_fields(levels, signs, keys, boundary_faces, dict(enumerate(ids)), top_ids)
    return ac


@lru_cache(maxsize=None)
def _dual_fragments(n: int, p: int) -> np.ndarray:
    """Barycentre weights of the points of the barycentric dual fragments of
    the local p-faces of an n-simplex, shape (fragments * (n-p+1), n+1).

    There is one fragment per face and order of adding the other vertices;
    its point j is the barycentre of the face and the first j added.  The
    fragments come face by face in ``_local_faces(n, p)`` order, (n-p)! each.
    """
    points = []
    for face in _local_faces(n, p).tolist():
        for order in itertools.permutations(sorted(set(range(n + 1)) - set(face))):
            points += [face + list(order[:j]) for j in range(n - p + 1)]
    return np.array([np.bincount(members, minlength=n + 1) / len(members) for members in points])


def _dual_shares(gc: GeometricComplex, ac: AbstractComplex, p: int) -> np.ndarray:
    """Unsigned (n-p)-volume of the barycentric dual cell of each local p-face
    inside each top simplex, shape (num_top, C(n+1, p+1)), for 0 <= p < n;
    columns in ``top_faces(p)`` order.

    Each of the (n+1)! fragments of a vertex's cell in T has volume
    |T|/(n+1)!, so a vertex gets |T|/(n+1) from every top containing it.
    """
    n, d = gc.complex_dim, gc.embed_dim
    coords = np.take(gc.vertices, ac.simplex_arrays[n], axis=0)  # (m, n+1, d)
    if p == 0:
        return np.repeat(_simplex_volumes(coords)[:, None] / (n + 1), n + 1, axis=1)
    frags = _simplex_volumes((_dual_fragments(n, p) @ coords).reshape(-1, n - p + 1, d))
    return frags.reshape(len(coords), math.comb(n + 1, p + 1), -1).sum(axis=2)


def barycentric_dual_volumes(gc: GeometricComplex, ac: AbstractComplex) -> tuple:
    """Volumes of the barycentric dual cells of every simplex, one read-only
    array per primal degree.

    Entry i of array p is the total unsigned (n-p)-volume of the barycentric
    dual cell fragments around p-simplex i: the sum over the top simplices
    containing it of its ``_dual_shares``.  The dual cell of a p-simplex
    sigma is swept out, inside each top simplex T containing sigma, by the
    simplices spanned by the barycenters of the strictly increasing face
    chains sigma = s_p < s_{p+1} < ... < s_n = T.  For p = n the primal
    volume is recorded.
    """
    n = gc.complex_dim
    vols = [
        np.bincount(ac.top_faces(p).ravel(), _dual_shares(gc, ac, p).ravel(), ac.num_simplices(p))
        for p in range(n)
    ]
    vols.append(_simplex_volumes(np.take(gc.vertices, ac.simplex_arrays[n], axis=0)))
    for p in range(n + 1):
        if np.any(vols[p] <= 0):
            raise MeshValidationError(f"non-positive dual volume at degree {p}")
        vols[p].setflags(write=False)
    return tuple(vols)


def relabel_vertices(gc: GeometricComplex, permutation) -> GeometricComplex:
    """Apply a vertex-index bijection, permuting coordinates and simplex
    entries; its entries are checked like simplex entries."""
    column = permutation[:, None] if isinstance(permutation, np.ndarray) else [[v] for v in permutation]
    entry = _first_boolean_row(column)
    if entry is not None:
        raise MeshValidationError(f"boolean vertex index in permutation entry {entry}")
    perm = _vertex_indices(np.asarray(column), "permutation entry")[:, 0]
    n = gc.num_vertices
    in_range = len(perm) == n and perm.min() >= 0 and perm.max() < n
    if not in_range or (np.bincount(perm, minlength=n) != 1).any():
        raise MeshValidationError("permutation must be a bijection on vertex indices")
    new_verts = np.empty_like(gc.vertices)
    new_verts[perm] = gc.vertices
    new_tops = perm[gc.top_simplices]
    return GeometricComplex(new_verts, new_tops)


def _as_text(source) -> str:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    raise MeshParseError(f"unsupported mesh source type {type(source).__name__}")


def load_mesh(source, fmt: str = "json") -> GeometricComplex:
    """Parse and validate a mesh from text, bytes, or a file-like object.

    ``fmt`` selects the JSON format or the plain-text alternative
    (``"json"`` | ``"text"``).  Parse failures raise MeshParseError,
    invariant violations MeshValidationError; both name the offending
    simplex where applicable.
    """
    text = _as_text(source)
    if fmt == "json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MeshParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise MeshParseError("mesh JSON must be an object")
        missing = {"dimension", "vertices", "simplices"} - obj.keys()
        if missing:
            raise MeshParseError(f"mesh JSON missing keys: {sorted(missing)}")
        dim = obj["dimension"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise MeshParseError("dimension must be an integer")
        try:
            return GeometricComplex(obj["vertices"], obj["simplices"], complex_dim=dim)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, MeshError):
                raise
            raise MeshParseError(f"malformed vertex or simplex rows: {exc}") from exc
    if fmt == "text":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise MeshParseError("empty mesh text")
        header = lines[0].split()
        if len(header) != 4:
            raise MeshParseError('header must be "n d m0 mn"')
        try:
            n, d, m0, mn = (int(tok) for tok in header)
        except ValueError as exc:
            raise MeshParseError("non-integer header field") from exc
        if len(lines) != 1 + m0 + mn:
            raise MeshParseError(
                f"expected {1 + m0 + mn} lines, got {len(lines)}"
            )
        try:
            verts = [[float(tok) for tok in ln.split()] for ln in lines[1 : 1 + m0]]
            tops = [[int(tok) for tok in ln.split()] for ln in lines[1 + m0 :]]
        except ValueError as exc:
            raise MeshParseError(f"malformed coordinate or simplex line: {exc}") from exc
        if any(len(row) != d for row in verts):
            raise MeshParseError(f"coordinate rows must have {d} entries")
        if any(len(row) != n + 1 for row in tops):
            raise MeshParseError(f"simplex rows must have {n + 1} entries")
        return GeometricComplex(verts, tops, complex_dim=n)
    raise MeshParseError(f"unknown mesh format {fmt!r}")
