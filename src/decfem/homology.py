"""Exact integer homology: Smith normal form, Betti numbers, torsion, generators.

Everything here runs in arbitrary-precision integer arithmetic; no floating
point enters any rank or group computation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .chains import ComplexMatrices, IntSparseMatrix

__all__ = [
    "SnfResult",
    "smith_normal_form",
    "betti_numbers",
    "torsion_coefficients",
    "homology_generators",
]


@dataclass
class SnfResult:
    """Smith normal form U A V = D with unimodular U, V.

    ``diag`` lists the positive invariant factors d1 | d2 | ...; ``rank`` is
    their count.  ``left_inv`` is U^-1 and ``right`` is V, so A V = U^-1 D:
    kernel and image bases are read off without further elimination.
    """

    diag: list
    rank: int
    right: IntSparseMatrix
    left_inv: IntSparseMatrix


class _Eliminator:
    """Sparse integer elimination with transform tracking.

    The working matrix lives in dict-of-dict rows plus a column index.
    U^-T and V^T are stored row-major so that every elementary matrix
    operation reduces to a row operation on the bookkeeping tables.

    Every operation records the rows and columns in which an entry value, a
    row length or a column count changed; ``_select_pivot`` re-keys only the
    cells of those rows and columns into ``heap``.
    """

    def __init__(self, mat: IntSparseMatrix):
        self.m, self.n = mat.rows, mat.cols
        self.rows: dict = {}
        self.colrows: dict = {}
        for (r, c), v in mat.entries.items():
            self.rows.setdefault(r, {})[c] = v
            self.colrows.setdefault(c, set()).add(r)
        self.heap: list = []
        self.dirty_rows: set = set(self.rows)
        self.dirty_cols: set = set()
        self.UinvT = {i: {i: 1} for i in range(self.m)}
        self.VT = {j: {j: 1} for j in range(self.n)}

    @staticmethod
    def _axpy(table: dict, dst: int, src: int, q: int):
        """table row_dst -= q * row_src."""
        drow = table.setdefault(dst, {})
        for c, v in list(table.get(src, {}).items()):
            nv = drow.get(c, 0) - q * v
            if nv:
                drow[c] = nv
            else:
                drow.pop(c, None)

    @staticmethod
    def _swap_rows(table: dict, i: int, j: int):
        table[i], table[j] = table.get(j, {}), table.get(i, {})

    @staticmethod
    def _negate_row(table: dict, i: int):
        row = table.get(i, {})
        for c in row:
            row[c] = -row[c]

    def entry(self, r: int, c: int) -> int:
        return self.rows.get(r, {}).get(c, 0)

    def row_sub(self, i: int, t: int, q: int):
        """A row_i -= q * row_t, mirrored on U^-T."""
        drow = self.rows.setdefault(i, {})
        self.dirty_rows.add(i)
        for c, v in list(self.rows.get(t, {}).items()):
            nv = drow.get(c, 0) - q * v
            if nv:
                if c not in drow:
                    self.colrows.setdefault(c, set()).add(i)
                    self.dirty_cols.add(c)
                drow[c] = nv
            else:
                drow.pop(c, None)
                self.colrows.get(c, set()).discard(i)
                self.dirty_cols.add(c)
        if not drow:
            self.rows.pop(i, None)
        self._axpy(self.UinvT, t, i, -q)

    def col_sub(self, j: int, t: int, q: int):
        """A col_j -= q * col_t, mirrored on V^T."""
        self.dirty_cols.add(j)
        for r in list(self.colrows.get(t, ())):
            v = self.rows[r][t]
            row = self.rows[r]
            nv = row.get(j, 0) - q * v
            if nv:
                if j not in row:
                    self.colrows.setdefault(j, set()).add(r)
                    self.dirty_rows.add(r)
                row[j] = nv
            else:
                row.pop(j, None)
                self.colrows.get(j, set()).discard(r)
                self.dirty_rows.add(r)
        self._axpy(self.VT, j, t, q)

    def row_swap(self, i: int, t: int):
        if i == t:
            return
        self.dirty_rows.update((i, t))
        ri = self.rows.pop(i, {})
        rt = self.rows.pop(t, {})
        if rt:
            self.rows[i] = rt
        if ri:
            self.rows[t] = ri
        for c in set(ri) | set(rt):
            members = self.colrows.setdefault(c, set())
            members.discard(i)
            members.discard(t)
            if c in rt:
                members.add(i)
            if c in ri:
                members.add(t)
        self._swap_rows(self.UinvT, i, t)

    def col_swap(self, j: int, t: int):
        if j == t:
            return
        self.dirty_cols.update((j, t))
        cj = self.colrows.pop(j, set())
        ct = self.colrows.pop(t, set())
        for r in cj | ct:
            row = self.rows[r]
            vj, vt = row.pop(j, None), row.pop(t, None)
            if vj is not None:
                row[t] = vj
            if vt is not None:
                row[j] = vt
        if ct:
            self.colrows[j] = ct
        if cj:
            self.colrows[t] = cj
        self._swap_rows(self.VT, j, t)

    def row_negate(self, i: int):
        self._negate_row(self.rows, i)
        self._negate_row(self.UinvT, i)


def _select_pivot(elim: _Eliminator, t: int):
    """Smallest |value|, then least fill-in estimate, then lowest (row, col).

    Each cell's key (|v|, fill, r, c) is packed into one int,
    ((|v| m n + fill) m + r) n + c, which orders like the tuple because
    fill = (row length - 1)(column count - 1) < m n.  The cells of rows and
    columns changed since the last call are pushed with their current keys,
    so every live cell's current key is in the heap; popping until the top
    key matches its cell's current key therefore yields the exact minimum.
    Rows and columns below t hold only finished pivots and are skipped.
    """
    m, n = elim.m, elim.n
    mn = m * n
    rows, colrows, heap = elim.rows, elim.colrows, elim.heap
    for r in elim.dirty_rows:
        row = rows.get(r)
        if r < t or not row:
            continue
        rfill = len(row) - 1
        for c, v in row.items():
            heapq.heappush(heap, ((abs(v) * mn + rfill * (len(colrows[c]) - 1)) * m + r) * n + c)
    for c in elim.dirty_cols:
        members = colrows.get(c)
        if c < t or not members:
            continue
        cfill = len(members) - 1
        for r in members - elim.dirty_rows:
            row = rows[r]
            heapq.heappush(heap, ((abs(row[c]) * mn + (len(row) - 1) * cfill) * m + r) * n + c)
    elim.dirty_rows.clear()
    elim.dirty_cols.clear()
    while heap:
        key = heapq.heappop(heap)
        rest, c = divmod(key, n)
        rest, r = divmod(rest, m)
        absv, fill = divmod(rest, mn)
        if r < t or c < t:
            continue
        row = rows.get(r)
        v = row.get(c) if row else None
        if (
            v is not None
            and abs(v) == absv
            and (len(row) - 1) * (len(colrows[c]) - 1) == fill
        ):
            return r, c
    return None


def _process_pivot(elim: _Eliminator, t: int):
    while True:
        # Euclidean sweeps until the pivot divides its whole row and column.
        while True:
            if elim.entry(t, t) < 0:
                elim.row_negate(t)
            p = elim.entry(t, t)
            for i in sorted(elim.colrows.get(t, set()) - {t}):
                q = elim.rows[i][t] // p
                if q:
                    elim.row_sub(i, t, q)
            for j in sorted(c for c in elim.rows.get(t, {}) if c != t):
                q = elim.rows[t][j] // p
                if q:
                    elim.col_sub(j, t, q)
            leftovers = [
                (abs(elim.rows[i][t]), 0, i)
                for i in elim.colrows.get(t, set())
                if i != t
            ]
            leftovers += [
                (abs(elim.rows[t][j]), 1, j) for j in elim.rows.get(t, {}) if j != t
            ]
            if not leftovers:
                break
            _, kind, idx = min(leftovers)
            if kind == 0:
                elim.row_swap(idx, t)
            else:
                elim.col_swap(idx, t)
        # Invariant-factor condition: pivot divides the remaining submatrix.
        p = elim.entry(t, t)
        if p == 1:
            return
        violator = None
        for r in sorted(elim.rows):
            if r <= t:
                continue
            if any(c > t and v % p for c, v in elim.rows[r].items()):
                violator = r
                break
        if violator is None:
            return
        elim.row_sub(t, violator, -1)


def smith_normal_form(mat: IntSparseMatrix) -> SnfResult:
    """Smith normal form over the integers.

    Returns positive invariant factors d1 | d2 | ..., the rank, and U^-1
    and V of unimodular U, V with U A V = diag(d1, ..., dr, 0, ...).
    The pivot rule is total-ordered, so identical inputs give identical
    outputs.
    """
    elim = _Eliminator(mat)
    diag: list = []
    t = 0
    limit = min(elim.m, elim.n)
    while t < limit:
        pivot = _select_pivot(elim, t)
        if pivot is None:
            break
        elim.row_swap(pivot[0], t)
        elim.col_swap(pivot[1], t)
        _process_pivot(elim, t)
        diag.append(elim.entry(t, t))
        t += 1
    rank = len(diag)

    def build(table: dict, size: int) -> IntSparseMatrix:
        # The transpose of a row-major table.  Rows leave the table as they
        # are copied, and the entries (nonzero, in range, unique) bypass the
        # constructor's checking copy, so no transform is held twice.
        out = IntSparseMatrix(size, size)
        for r in list(table):
            for c, v in table.pop(r).items():
                out.entries[(c, r)] = v
        return out

    return SnfResult(diag, rank, right=build(elim.VT, elim.n), left_inv=build(elim.UinvT, elim.m))


@dataclass
class _Reduction:
    """Integer homology read off the coreduced complex (``coreduce``).

    ``starts`` lists the vertices removed as roots of their components,
    ``pairs[p]`` the removed (cell, face) pairs with a degree-p cell, flat
    and in removal order, ``live[p]`` the degree-p cells of the residual
    complex and ``residual[p]`` (p = 1..n+1, the last one empty) its
    degree-p boundary.  ``complement[p]`` (p < n) holds the columns s.. of
    U^-1, where U residual[p+1] V = D is the Smith normal form of rank s,
    and ``top_cycles`` the columns s.. of V of residual[n] (n >= 1; see
    ``homology_generators``); ``betti`` and ``torsion`` hold every degree.
    """

    starts: list
    pairs: list
    live: list
    residual: dict
    complement: list
    top_cycles: IntSparseMatrix | None
    betti: list
    torsion: list


def _tail(mat: IntSparseMatrix, first: int) -> IntSparseMatrix:
    """Columns first..cols-1 of mat."""
    out = IntSparseMatrix(mat.rows, mat.cols - first)
    out.entries = {(r, c - first): v for (r, c), v in mat.entries.items() if c >= first}
    return out


def _reduction(cm: ComplexMatrices) -> _Reduction:
    """Homology from one Smith normal form per boundary of the coreduced
    complex, cached in ``cm._reduction``; invariant factors are unique, so
    they are those of the full boundaries."""
    if cm._reduction is None:
        # Imported on first use: runs that compute no homology do not load
        # it, which keeps their import memory as it was.
        from .coreduction import coreduce

        n = cm.complex_dim
        starts, pairs, live, residual = coreduce(cm)
        # There are no (n+1)-cells: the boundary above degree n is empty.
        residual[n + 1] = IntSparseMatrix(len(live[n]), 0)
        diags = [[]] * (n + 2)  # diags[q]: invariant factors of residual[q]
        complement = []
        for q in range(1, n + 1):
            snf = smith_normal_form(residual[q])
            diags[q] = snf.diag
            complement.append(_tail(snf.left_inv, snf.rank))
        # The last form is that of residual[n], whose kernel is the free
        # top-degree homology (degree 0 reads the starts instead).
        top_cycles = _tail(snf.right, snf.rank) if n else None
        betti = [len(live[p]) - len(diags[p]) - len(diags[p + 1]) for p in range(n + 1)]
        betti[0] += len(starts)
        torsion = [[d for d in diags[p + 1] if d > 1] for p in range(n + 1)]
        cm._reduction = _Reduction(
            starts, pairs, live, residual, complement, top_cycles, betti, torsion
        )
    return cm._reduction


def betti_numbers(cm: ComplexMatrices) -> list:
    """Betti numbers beta_0..beta_n from exact integer ranks."""
    return list(_reduction(cm).betti)


def torsion_coefficients(cm: ComplexMatrices, p: int) -> list:
    """Invariant factors > 1 of the degree-p homology group."""
    if not 0 <= p <= cm.complex_dim:
        raise ValueError(f"degree {p} outside 0..{cm.complex_dim}")
    return list(_reduction(cm).torsion[p])


def homology_generators(cm: ComplexMatrices, p: int) -> list:
    """Integer cycles whose classes form a basis of degree-p homology modulo torsion.

    Degree 0 has one vertex per component, the coreduction's ``starts``.
    In degree p >= 1 they come from the residual complex, split by the
    Smith normal form U d_{p+1} V = D of rank s that ``_reduction``
    computed.  The boundaries are the span of d_i w_i, i <= s, where
    w_i = U^-1 e_i.  As d_p d_{p+1} = 0 and C_{p-1} is free, d_p w_i = 0
    for i <= s.  So with T = [w_{s+1} ...] (``complement[p]``) the cycles
    split as Z_p = span(w_1..w_s) + T ker(d_p T), a direct sum, the first
    summand carries the torsion and the boundaries, and T ker(d_p T) is
    the free part of H_p.  One Smith normal form U' d_p T V' = D' gives
    that kernel as the columns of V' beyond its rank.  In the top degree
    there are no boundaries, T is the identity and that form is the one
    ``_reduction`` already took of d_n (``top_cycles``).  Each residual cycle
    c is lifted by walking the removed degree-p pairs (a, b) from last to
    first: c <- c - <dc, b> <da, b> a.

    Each step is the inclusion i(c) = c - <dc, b> / <da, b> a of the
    reduction pair (a, b).  As da = +-b in the current complex, the
    reduced boundary is exactly the restriction, so i is a chain homotopy
    equivalence.  Removing a start vertex v gives the relative complex
    (K, v), whose cycles of degree p >= 2 are those of K.  In degree 1 the
    boundary of a lifted chain lies on the starts, one per component, and
    sums to zero on each component since the augmentation kills every
    boundary, so it is zero.  The lifts are therefore exact cycles, and
    their classes form a basis of H_p modulo torsion.
    """
    if not 0 <= p <= cm.complex_dim:
        raise ValueError(f"degree {p} outside 0..{cm.complex_dim}")
    red = _reduction(cm)
    if p == 0:
        gens = []
        for vertex in red.starts:
            chain = [0] * cm.counts[0]
            chain[vertex] = 1
            gens.append(chain)
        return gens
    if p == cm.complex_dim:
        cycles = red.top_cycles
    else:
        complement = red.complement[p]
        snf = smith_normal_form(red.residual[p] @ complement)
        cycles = complement @ _tail(snf.right, snf.rank)
    live = red.live[p]
    gens = [[0] * cm.counts[p] for _ in range(cycles.cols)]
    for (i, j), v in cycles.entries.items():
        gens[j][live[i]] = v
    csr = cm.boundary_csr(p)
    ptr, cells, coeffs = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
    pairs = red.pairs[p]
    for chain in gens:
        for k in range(len(pairs) - 2, -1, -2):
            a, b = pairs[k], pairs[k + 1]
            row = range(ptr[b], ptr[b + 1])
            dc = sum(coeffs[t] * chain[cells[t]] for t in row)  # <dc, b>
            if dc:
                chain[a] -= dc * next(coeffs[t] for t in row if cells[t] == a)
    return gens
